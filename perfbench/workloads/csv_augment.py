"""csv_augment: the paper's feature-augmentation use case, from CSV files on disk.

Timed path: ``read_csv`` ×2 → ``match_schemas`` → ``KeyBasedResolver.resolve_index``
→ ``integrate_tables`` (LEFT JOIN, with the mediated schema's declared
correspondences) → ``Amalur.train`` (default classification ``ModelSpec``)
→ ``Amalur.predict`` → ``materialize_table`` → ``write_csv``.

After the timed path each round also reads a BOM-prefixed copy of the base
file's first rows, as spreadsheet exports write it, with ``key_columns=["id"]``.
That read counts as failed unless the first column comes back named ``id``
and declared as the key.
"""

from __future__ import annotations

import csv
import time
from typing import Dict, List

import numpy as np

import repro.matrices.builder as builder
import repro.metadata.schema_matching as schema_matching
import repro.relational.io as rio
from perfbench import reference as ref
from perfbench.harness import Round, timed
from perfbench.workloads import Workload
from repro.exceptions import AmalurError
from repro.metadata.entity_resolution import KeyBasedResolver
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import ColumnMatch
from repro.system.amalur import Amalur
from repro.system.plan import ModelSpec
from repro.system.requests import PredictRequest, TrainRequest

SIZES = {
    False: dict(base_rows=5_000, other_rows=3_000, overlap_rows=2_000),
    True: dict(base_rows=300, other_rows=200, overlap_rows=120),
}
SHARED, BASE_ONLY, OTHER_ONLY = 3, 17, 17
BOM_ROWS = 100
OPERATIONS_PER_ROUND = 10  # 2 reads, match, resolve, integrate, train, predict,
# materialize, write, BOM read

SHARED_COLUMNS = [f"shared_{i}" for i in range(SHARED)]
BASE_COLUMNS = ["id", "label"] + SHARED_COLUMNS + [f"b_{i}" for i in range(BASE_ONLY)]
OTHER_COLUMNS = ["id"] + SHARED_COLUMNS + [f"o_{i}" for i in range(OTHER_ONLY)]
TARGET_COLUMNS = ["label"] + SHARED_COLUMNS + BASE_COLUMNS[2 + SHARED:] + OTHER_COLUMNS[1 + SHARED:]
# The mediated schema declares the key and the shared features as the only
# correspondences; match_schemas also proposes b_i <-> o_i pairs.
DECLARED_MATCHES = [ColumnMatch("S1", c, "S2", c, 1.0) for c in ["id"] + SHARED_COLUMNS]


def generate(seed: int, base_rows: int, other_rows: int, overlap_rows: int):
    """Column arrays of the base and other table; shared features are
    entity-level, so overlapping entities carry equal values in both."""
    rng = np.random.default_rng([seed, 11])
    base_ids = rng.permutation(base_rows).astype(np.int64)
    other_ids = np.concatenate([
        rng.choice(base_ids, size=overlap_rows, replace=False),
        np.arange(base_rows, base_rows + other_rows - overlap_rows, dtype=np.int64) * 7 + 3,
    ])
    rng.shuffle(other_ids)
    n_entities = int(max(base_ids.max(), other_ids.max())) + 1
    shared = np.round(rng.standard_normal((n_entities, SHARED)), 4)

    def features(n: int) -> np.ndarray:
        return np.round(rng.standard_normal(n), 4)

    base = {"id": base_ids, "label": rng.integers(0, 2, size=base_rows).astype(np.int64)}
    other = {"id": other_ids}
    for i, name in enumerate(SHARED_COLUMNS):
        base[name] = shared[base_ids, i]
        other[name] = shared[other_ids, i]
    for name in BASE_COLUMNS[2 + SHARED:]:
        base[name] = features(base_rows)
    for name in OTHER_COLUMNS[1 + SHARED:]:
        other[name] = features(other_rows)
    return base, other


def write_columns(path, names: List[str], columns: Dict[str, np.ndarray], encoding="utf-8",
                  limit=None) -> None:
    rows = zip(*(columns[n][:limit].tolist() for n in names))
    with open(path, "w", newline="", encoding=encoding) as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(rows)


class CsvAugment(Workload):
    name = "csv_augment"

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.base_path = self.work_dir / "csv_augment_base.csv"
        self.other_path = self.work_dir / "csv_augment_other.csv"
        self.bom_path = self.work_dir / "csv_augment_base_export.csv"
        self.out_path = self.work_dir / "csv_augment_augmented.csv"
        self.base_columns, self.other_columns = generate(self.seed, **SIZES[self.small])
        write_columns(self.base_path, BASE_COLUMNS, self.base_columns)
        write_columns(self.other_path, OTHER_COLUMNS, self.other_columns)
        write_columns(self.bom_path, BASE_COLUMNS, self.base_columns, encoding="utf-8-sig",
                      limit=BOM_ROWS)

    def run_round(self) -> Round:
        predict_ms: List[float] = []
        train_ms: List[float] = []
        start = time.perf_counter()
        base = rio.read_csv(self.base_path, name="S1", key_columns=["id"], label_column="label")
        other = rio.read_csv(self.other_path, name="S2", key_columns=["id"])
        matches = schema_matching.match_schemas(base, other)
        rows = KeyBasedResolver().resolve_index(base, other)
        dataset = builder.integrate_tables(
            base, other, DECLARED_MATCHES, rows, TARGET_COLUMNS, ScenarioType.LEFT_JOIN,
            label_column="label",
        )
        amalur = Amalur()
        result = timed(train_ms, amalur.train,
                       TrainRequest(model=ModelSpec(), dataset=dataset, model_name="augment"))
        predictions = timed(predict_ms, amalur.predict, dataset,
                            PredictRequest(model=result.handle))
        augmented = dataset.materialize_table()
        rio.write_csv(augmented, self.out_path)
        seconds = time.perf_counter() - start

        bom_ok = self._read_export()
        self.outputs = dict(base=base, other=other, matches=matches, rows=rows,
                            dataset=dataset, model=result.model, predictions=predictions)
        return Round(seconds=seconds, attempted=OPERATIONS_PER_ROUND, failed=0 if bom_ok else 1,
                     predict_ms=predict_ms, train_ms=train_ms)

    def _read_export(self) -> bool:
        """The BOM-prefixed export must read with ``id`` as its declared key."""
        try:
            table = rio.read_csv(self.bom_path, name="S1_export", key_columns=["id"])
        except AmalurError:
            return False
        names = table.schema.names
        return bool(names) and names[0] == "id" and table.schema["id"].is_key

    def check(self) -> List[str]:
        failures: List[str] = []
        out = self.outputs
        for label, table, columns in (("base", out["base"], self.base_columns),
                                      ("other", out["other"], self.other_columns)):
            ref.expect(failures, f"{label} columns", table.schema.names == list(columns),
                       f"read {table.schema.names}")
            for name, values in columns.items():
                if name in table.schema:
                    ref.expect_equal(failures, f"parsed {label}.{name}",
                                     table.column_values(name), values)
                    ref.expect(failures, f"{label}.{name} has no NULLs",
                               bool(table.column_valid(name).all()))
        # Only the key is graded: on some seeds match_schemas pairs shared_i
        # with shared_j (see the README), a fault this benchmark leaves out.
        proposed = {(m.left_column, m.right_column) for m in out["matches"]}
        ref.expect(failures, "match_schemas pairs id with itself", ("id", "id") in proposed)

        expected_rows = ref.key_match(self.base_columns["id"], self.other_columns["id"])
        ref.expect_equal(failures, "resolved left rows", out["rows"][0], expected_rows[0])
        ref.expect_equal(failures, "resolved right rows", out["rows"][1], expected_rows[1])

        base_rows = self.base_columns["id"].size
        other_rows = self.other_columns["id"].size
        target = ref.assemble_target(
            TARGET_COLUMNS, self.base_columns, self.other_columns,
            ref.target_rows(base_rows, other_rows, expected_rows, "left_join"),
        )
        ref.expect_equal(failures, "materialized target", out["dataset"].materialize(), target)

        features = target[:, 1:]
        labels = target[:, 0]
        spec = ModelSpec()
        weights, intercept = ref.logistic_gd(features, labels, spec.learning_rate,
                                             spec.n_iterations)
        ref.expect_close(failures, "logistic weights", out["model"].coef_, weights)
        ref.expect_close(failures, "logistic intercept", out["model"].intercept_, intercept)
        # Classes are compared wherever the reference probability is not
        # within the tolerance of the 0.5 threshold.
        probabilities = ref.logistic_probabilities(features, weights, intercept)
        decided = np.abs(probabilities - 0.5) > ref.TOLERANCE
        predictions = np.asarray(out["predictions"])
        ref.expect(failures, "prediction count", predictions.shape == labels.shape,
                   f"got shape {predictions.shape}")
        if predictions.shape == labels.shape:
            ref.expect_equal(failures, "predicted classes", predictions[decided],
                             (probabilities >= 0.5).astype(int)[decided])

        with open(self.out_path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            exported = np.array([[float(cell) for cell in row] for row in reader])
        ref.expect(failures, "exported header", header == TARGET_COLUMNS, f"read {header}")
        ref.expect_equal(failures, "exported augmented table", exported, target)
        return failures
