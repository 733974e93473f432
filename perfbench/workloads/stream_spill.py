"""stream_spill: the out-of-core route, with no CSV and no resident builder.

Timed path: hashed scenario streams (LEFT JOIN) → ``integrate_streams`` with a
``SpillStore`` under the run's work directory → ``StreamingGD(task="linear",
release_pages=store.release)`` → ``StreamingGD.predict``.
"""

from __future__ import annotations

import shutil
import time
from typing import List

import numpy as np

import repro.streaming.builder as streaming_builder
from perfbench import reference as ref
from perfbench.harness import Round, timed
from perfbench.workloads import Workload
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_streams
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import StreamingGD
from repro.metadata.mappings import ScenarioType
from repro.streaming import SpillStore

SIZES = {
    False: dict(base_rows=150_000, other_rows=75_000, overlap_rows=40_000,
                base_features=60, other_features=50),
    True: dict(base_rows=3_000, other_rows=1_500, overlap_rows=700,
               base_features=8, other_features=6),
}
SHARED = 4
CHUNK_ROWS = 8_192
ITERATIONS = 10
SAMPLED_ROWS = 256
OPERATIONS_PER_ROUND = 4  # integrate_streams, AmalurMatrix, fit, predict


class StreamSpill(Workload):
    name = "stream_spill"

    def setup(self) -> None:
        spec = ScenarioSpec(ScenarioType.LEFT_JOIN, overlap_columns=SHARED, seed=self.seed,
                            **SIZES[self.small])
        self.streams = generate_scenario_streams(spec, chunk_rows=CHUNK_ROWS)
        self.spill_dir = self.work_dir / "spill"
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        self.store = SpillStore(directory=self.spill_dir)

    def run_round(self) -> Round:
        predict_ms: List[float] = []
        train_ms: List[float] = []
        base, other, column_matches, row_matches, target_columns = self.streams
        start = time.perf_counter()
        dataset = streaming_builder.integrate_streams(
            base, other, column_matches, row_matches, target_columns, ScenarioType.LEFT_JOIN,
            label_column="label", store=self.store,
        )
        matrix = AmalurMatrix(dataset)
        model = StreamingGD(task="linear", n_iterations=ITERATIONS,
                            release_pages=self.store.release)
        timed(train_ms, model.fit, matrix)
        predictions = timed(predict_ms, model.predict, matrix)
        seconds = time.perf_counter() - start

        spilled_bytes = sum(p.stat().st_size for p in self.spill_dir.iterdir())
        self.outputs = dict(model=model, predictions=predictions, target_columns=target_columns)
        del dataset, matrix
        self.store.cleanup()
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        return Round(seconds=seconds, attempted=OPERATIONS_PER_ROUND, predict_ms=predict_ms,
                     train_ms=train_ms, extra={"spilled_mb": spilled_bytes / 2**20})

    def _reference_pass(self):
        """One numpy pass over the generator's chunks: XᵀX, Xᵀy, Xᵀ1 and Σy of
        the left-join target, plus the feature rows of a sample of target rows."""
        base, other, _, _, target_columns = self.streams
        features = [c for c in target_columns if c != "label"]
        other_chunks = [other.chunk_at(i) for i in range(other.chunk_count)]
        other_columns = {
            name: np.concatenate([chunk.column_values(name) for chunk in other_chunks])
            for name in other.schema.names
        }
        base_ids = np.concatenate([base.chunk_at(i).column_values("id")
                                   for i in range(base.chunk_count)])
        left_rows, right_rows = ref.key_match(base_ids, other_columns["id"])
        right_of_left = np.full(base_ids.size, -1, dtype=np.int64)
        right_of_left[left_rows] = right_rows
        sampled = np.sort(np.random.default_rng([self.seed, 31]).choice(
            base_ids.size, size=min(SAMPLED_ROWS, base_ids.size), replace=False))

        c = len(features)
        gram = np.zeros((c, c))
        moment = np.zeros(c)
        column_sums = np.zeros(c)
        label_sum = 0.0
        sampled_rows = np.zeros((sampled.size, c))
        for index in range(base.chunk_count):
            chunk = base.chunk_at(index)
            lo, hi = chunk.offset, chunk.offset + chunk.n_rows
            base_values = {n: chunk.column_values(n) for n in base.schema.names}
            rows = (np.arange(hi - lo), right_of_left[lo:hi])
            block = ref.assemble_target(features, base_values, other_columns, rows)
            labels = base_values["label"].astype(float)
            gram += block.T @ block
            moment += block.T @ labels
            column_sums += block.sum(axis=0)
            label_sum += float(labels.sum())
            here = (sampled >= lo) & (sampled < hi)
            sampled_rows[here] = block[sampled[here] - lo]
        return gram, moment, column_sums, label_sum, base_ids.size, sampled, sampled_rows

    def check(self) -> List[str]:
        failures: List[str] = []
        gram, moment, column_sums, label_sum, n_rows, sampled, rows = self._reference_pass()
        learning_rate = StreamingGD(task="linear")._hyper("learning_rate")
        weights, intercept = ref.gram_linear_gd(gram, moment, column_sums, label_sum, n_rows,
                                                learning_rate, ITERATIONS)
        model = self.outputs["model"]
        ref.expect_close(failures, "StreamingGD weights", model.coef_, weights)
        ref.expect_close(failures, "StreamingGD intercept", model.intercept_, intercept)
        predictions = np.asarray(self.outputs["predictions"])
        ref.expect(failures, "prediction count", predictions.shape == (n_rows,),
                   f"got shape {predictions.shape}")
        if predictions.shape == (n_rows,):
            ref.expect_close(failures, "predictions on sampled rows", predictions[sampled],
                             rows @ model.coef_ + model.intercept_)
        return failures
