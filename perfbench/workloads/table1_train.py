"""table1_train: resident training on the four Table I scenarios and a star join.

Each Table I case runs ``KeyBasedResolver.resolve_index`` → ``integrate_tables``
→ ``Amalur.train`` (regression; the optimizer picks factorize or materialize)
→ ``Amalur.predict`` → ``LinearRegression(solver="normal")`` on the
``AmalurMatrix`` feature view. The one-hot star join runs ``Optimizer.plan``,
then gradient descent on ``AmalurMatrix(dataset, backend=plan.backend)``
against targets drawn here, then a predict.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import repro.matrices.builder as builder
from perfbench import reference as ref
from perfbench.harness import Round, timed
from perfbench.workloads import Workload
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import LinearRegression
from repro.metadata.entity_resolution import KeyBasedResolver
from repro.metadata.mappings import ScenarioType
from repro.system.amalur import Amalur
from repro.system.optimizer import Optimizer
from repro.system.plan import ModelSpec
from repro.system.requests import PredictRequest, TrainRequest

CASES = ("full_outer_join", "inner_join", "left_join", "union")
STAR = "star"
SIZES = {
    False: dict(base_rows=20_000, other_rows=12_000, overlap_rows=8_000,
                star_rows=70_000, categories=500, iterations=60),
    True: dict(base_rows=400, other_rows=240, overlap_rows=160,
               star_rows=400, categories=20, iterations=20),
}
FEATURES, SHARED = 20, 3
LEARNING_RATE = ModelSpec().learning_rate
# Per Table I case: resolve, integrate, train, predict, normal solve;
# star join: plan, fit, predict.
OPERATIONS_PER_ROUND = 5 * len(CASES) + 3


class Table1Train(Workload):
    name = "table1_train"

    def setup(self) -> None:
        size = SIZES[self.small]
        self.iterations = size["iterations"]
        self.inputs = {}
        for case in CASES:
            spec = ScenarioSpec(
                ScenarioType(case), base_rows=size["base_rows"], other_rows=size["other_rows"],
                base_features=FEATURES, other_features=FEATURES,
                overlap_rows=size["overlap_rows"], overlap_columns=SHARED, seed=self.seed,
            )
            base, other, column_matches, _, target_columns = generate_scenario_tables(spec)
            self.inputs[case] = (base, other, column_matches, target_columns)
        self.star = generate_one_hot_pair(
            OneHotSpec(n_rows=size["star_rows"], n_categories=size["categories"], seed=self.seed)
        )
        self.star_targets = np.random.default_rng([self.seed, 23]).standard_normal(
            size["star_rows"]
        )

    def run_round(self) -> Round:
        predict_ms: List[float] = []
        train_ms: List[float] = []
        spec = ModelSpec(task="regression", n_iterations=self.iterations)
        self.outputs: Dict[str, dict] = {}
        start = time.perf_counter()
        amalur = Amalur()
        for case in CASES:
            self.set_case(case)
            base, other, column_matches, target_columns = self.inputs[case]
            rows = KeyBasedResolver().resolve_index(base, other)
            dataset = builder.integrate_tables(
                base, other, column_matches, rows, target_columns, ScenarioType(case),
                label_column="label",
            )
            result = timed(train_ms, amalur.train,
                           TrainRequest(model=spec, dataset=dataset, model_name=case))
            predictions = timed(predict_ms, amalur.predict, dataset,
                                PredictRequest(model=result.handle))
            matrix = AmalurMatrix(dataset)
            normal = LinearRegression(solver="normal").fit(
                matrix.feature_matrix_view(), matrix.labels()
            )
            self.outputs[case] = dict(rows=rows, dataset=dataset, result=result,
                                      predictions=predictions, normal=normal)
        self.set_case(STAR)
        plan = Optimizer().plan(self.star, spec)
        matrix = AmalurMatrix(self.star, backend=plan.backend)
        model = LinearRegression(solver="gd", learning_rate=LEARNING_RATE,
                                 n_iterations=self.iterations)
        timed(train_ms, model.fit, matrix, self.star_targets)
        predictions = timed(predict_ms, model.predict, matrix)
        self.set_case(None)
        seconds = time.perf_counter() - start
        self.outputs[STAR] = dict(plan=plan, model=model, predictions=predictions)
        return Round(seconds=seconds, attempted=OPERATIONS_PER_ROUND,
                     predict_ms=predict_ms, train_ms=train_ms)

    def decisions(self) -> Dict[str, str]:
        """The optimizer's decision (and backend) per case in the last round."""
        decisions = {case: self.outputs[case]["result"].strategy.value for case in CASES}
        plan = self.outputs[STAR]["plan"]
        decisions[STAR] = f"{plan.strategy.value}/{plan.backend.name if plan.backend else 'dense'}"
        return decisions

    def check(self) -> List[str]:
        failures: List[str] = []
        for case in CASES:
            self._check_case(failures, case)
        self._check_star(failures)
        return failures

    def _check_case(self, failures: List[str], case: str) -> None:
        base, other, _, target_columns = self.inputs[case]
        out = self.outputs[case]
        left = {n: base.column_values(n) for n in base.schema.names}
        right = {n: other.column_values(n) for n in other.schema.names}
        matches = ref.key_match(left["id"], right["id"])
        ref.expect_equal(failures, f"{case}: resolved left rows", out["rows"][0], matches[0])
        ref.expect_equal(failures, f"{case}: resolved right rows", out["rows"][1], matches[1])
        target = ref.assemble_target(
            target_columns, left, right,
            ref.target_rows(left["id"].size, right["id"].size, matches, case),
        )
        ref.expect_equal(failures, f"{case}: target", out["dataset"].materialize(), target)

        label = target_columns.index("label")
        features = np.delete(target, label, axis=1)
        labels = target[:, label]
        model = out["result"].model
        weights, intercept = ref.linear_gd(features, labels, LEARNING_RATE, self.iterations)
        ref.expect_close(failures, f"{case}: GD weights", model.coef_, weights)
        ref.expect_close(failures, f"{case}: GD intercept", model.intercept_, intercept)
        ref.expect_close(failures, f"{case}: predictions", out["predictions"],
                         features @ weights + intercept)
        weights, intercept = ref.normal_solve(features, labels)
        ref.expect_close(failures, f"{case}: normal-equation weights", out["normal"].coef_,
                         weights)
        ref.expect_close(failures, f"{case}: normal-equation intercept",
                         out["normal"].intercept_, intercept)

    def _check_star(self, failures: List[str]) -> None:
        """The star join's GD, replayed in the c × c space of its Gram matrix,
        which is built from the dense base block and the category codes."""
        dense = np.asarray(self.star.factors[0].data)
        dimension = self.star.factors[1]
        # One 1 per dimension row: its column is the entity's category.
        entity_codes = np.asarray(dimension.data.argmax(axis=1)).ravel()
        codes = entity_codes[dimension.indicator.compressed]
        n_rows, n_dense = dense.shape
        n_categories = dimension.data.shape[1]
        y = self.star_targets
        counts = np.bincount(codes, minlength=n_categories).astype(float)
        cross = np.stack([np.bincount(codes, weights=dense[:, j], minlength=n_categories)
                          for j in range(n_dense)])
        gram = np.block([[dense.T @ dense, cross], [cross.T, np.diag(counts)]])
        moment = np.concatenate([dense.T @ y, np.bincount(codes, weights=y,
                                                          minlength=n_categories)])
        column_sums = np.concatenate([dense.sum(axis=0), counts])
        weights, intercept = ref.gram_linear_gd(gram, moment, column_sums, float(y.sum()),
                                                n_rows, LEARNING_RATE, self.iterations)
        out = self.outputs[STAR]
        ref.expect_close(failures, "star: GD weights", out["model"].coef_, weights)
        ref.expect_close(failures, "star: GD intercept", out["model"].intercept_, intercept)
        expected = dense @ weights[:n_dense] + weights[n_dense:][codes] + intercept
        ref.expect_close(failures, "star: predictions", out["predictions"], expected)
