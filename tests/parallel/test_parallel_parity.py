"""Parallel-engine parity: results must not depend on the worker count.

The contract under test, for every scenario x chunk size x worker count:

* built factors are **bit-identical** to the serial build (assembly is
  pure data movement into disjoint row slices);
* StreamingGD weights agree with the single-threaded fit to <= 1e-8, and
  are bit-identical between any two worker counts >= 2 (fixed partition +
  ordered reduction);
* the resident factorized operators are bit-identical at every worker
  count, with exactly equal FLOP counters, and never fan out row blocks;
* chunked CSV ingest produces byte-identical chunks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import parallel, telemetry
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_dataset,
    generate_scenario_streams,
)
from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import StreamingGD
from repro.metadata.mappings import ScenarioType
from repro.streaming import ChunkedCsvReader, SpillStore, integrate_streams

CHUNK_SIZES = (1, 7, 10_000)
WORKER_COUNTS = (1, 2, 8)
TOLERANCE = 1e-8


def _storage_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise column equality, treating NaN == NaN (NULL float cells)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if np.issubdtype(a.dtype, np.floating):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def _spec(scenario: ScenarioType, seed: int = 21) -> ScenarioSpec:
    return ScenarioSpec(
        scenario, base_rows=180, other_rows=140, base_features=5,
        other_features=6, overlap_rows=60, overlap_columns=2, seed=seed,
    )


def _build_and_train(scenario, chunk_rows, workers, store, spec=None):
    """Spilled stream build + streaming fit at a given worker count."""
    parallel.set_num_workers(workers)
    base, other, matches, row_matches, targets = generate_scenario_streams(
        spec or _spec(scenario), chunk_rows=chunk_rows
    )
    dataset = integrate_streams(
        base, other, matches, row_matches, targets, scenario,
        label_column="label", store=store, chunk_rows=chunk_rows,
    )
    factors = [np.array(factor.data) for factor in dataset.factors]
    model = StreamingGD(
        task="linear", block_rows=53, n_iterations=6,
        num_workers=workers, release_pages=store.release,
    )
    model.fit(AmalurMatrix(dataset))
    return factors, model.coef_.copy(), float(model.intercept_)


class TestBuildAndTrainParity:
    @pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_factors_bit_identical_and_weights_close(self, scenario, chunk_rows):
        results = {}
        for workers in WORKER_COUNTS:
            with SpillStore() as store:
                results[workers] = _build_and_train(scenario, chunk_rows, workers, store)
        serial_factors, serial_coef, serial_intercept = results[1]
        for workers in WORKER_COUNTS[1:]:
            factors, coef, intercept = results[workers]
            for built, reference in zip(factors, serial_factors):
                assert np.array_equal(built, reference), (
                    f"factor differs at {workers} workers, chunk {chunk_rows}"
                )
            assert np.max(np.abs(coef - serial_coef)) <= TOLERANCE
            assert abs(intercept - serial_intercept) <= TOLERANCE
        # Any two parallel worker counts agree bit-for-bit.
        assert np.array_equal(results[2][1], results[8][1])
        assert results[2][2] == results[8][2]


STAR_ROWS = 70_000  # above the default REPRO_PARALLEL_MIN_ROWS (65,536)


def _operator_outputs(dataset, workers):
    """``lmm``, ``transpose_lmm``, ``crossprod`` and the FLOP total at a
    worker count, plus the names of the spans recorded meanwhile."""
    parallel.set_num_workers(workers)
    matrix = AmalurMatrix(dataset)
    x = np.random.default_rng(6).standard_normal((matrix.n_columns, 3))
    xt = np.random.default_rng(7).standard_normal((matrix.n_rows, 2))
    with telemetry.collect(sample_memory=False) as session:
        outputs = (
            matrix.lmm(x),
            matrix.transpose_lmm(xt),
            matrix.crossprod(),
            matrix.counter.total,
        )
    return outputs, {record.name for record in session.tracer.records}


def _assert_worker_invariant(dataset):
    outputs = {}
    for workers in WORKER_COUNTS:
        outputs[workers], spans = _operator_outputs(dataset, workers)
        assert {"amalur.lmm", "amalur.transpose_lmm", "amalur.crossprod"} <= spans
        assert "parallel.map" not in spans, (
            f"resident operators fanned out at {workers} workers"
        )
    lmm1, tlmm1, gram1, flops1 = outputs[1]
    for workers in WORKER_COUNTS[1:]:
        lmm, tlmm, gram, flops = outputs[workers]
        assert np.array_equal(lmm, lmm1)
        assert np.array_equal(tlmm, tlmm1)
        assert np.array_equal(gram, gram1)
        assert flops == flops1


class TestOperatorParity:
    """The resident operators run one per-factor plan at every worker
    count: bit-identical results and FLOP counters, and no row-block
    fan-out at any size."""

    @pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)
    def test_operators_bit_identical_across_workers(self, scenario):
        # A zero threshold would send every row-partitioned map to the
        # pool; the resident operators must ignore it.
        parallel.set_min_parallel_rows(0)
        _assert_worker_invariant(generate_scenario_dataset(_spec(scenario)))

    def test_star_join_above_threshold_bit_identical(self):
        dataset = generate_one_hot_pair(
            OneHotSpec(n_rows=STAR_ROWS, n_categories=500, seed=3), backend="auto"
        )
        parallel.set_min_parallel_rows(parallel.DEFAULT_MIN_PARALLEL_ROWS)
        assert dataset.shape[0] >= parallel.get_min_parallel_rows()
        _assert_worker_invariant(dataset)

    def test_span_check_sees_a_real_fan_out(self):
        # The "no parallel.map span" assertions above are only meaningful
        # if a map that does fan out records one.
        parallel.set_num_workers(2)
        with telemetry.collect(sample_memory=False) as session:
            parallel.parallel_map(lambda i: i, range(4), label="probe")
        assert "parallel.map" in {r.name for r in session.tracer.records}


class TestIngestParity:
    def test_csv_chunks_identical_across_worker_counts(self, tmp_path):
        path = tmp_path / "cells.csv"
        rows = ["id,a,b,s"]
        rows += [f"{i},{i * 0.25},{i % 3 == 0},v{i}" for i in range(83)]
        rows[10] = "9,,true,"  # NULL cells survive the parallel parse
        path.write_text("\n".join(rows) + "\n")

        per_workers = {}
        for workers in WORKER_COUNTS:
            parallel.set_num_workers(workers)
            reader = ChunkedCsvReader(path, chunk_rows=7)
            per_workers[workers] = (reader.schema, list(reader.chunks()))
        schema1, chunks1 = per_workers[1]
        for workers in WORKER_COUNTS[1:]:
            schema, chunks = per_workers[workers]
            assert schema.names == schema1.names
            assert [c.dtype for c in schema] == [c.dtype for c in schema1]
            assert len(chunks) == len(chunks1)
            for chunk, reference in zip(chunks, chunks1):
                assert chunk.offset == reference.offset
                for name in schema.names:
                    assert _storage_equal(
                        chunk.data[name], reference.data[name]
                    ), f"column {name} differs at {workers} workers"
                    assert np.array_equal(chunk.valid[name], reference.valid[name])


@st.composite
def scenario_specs(draw):
    scenario = draw(st.sampled_from(list(ScenarioType)))
    # An inner join's target has exactly overlap_rows rows, and fitting a
    # 0-row matrix is undefined at any worker count (seed behavior).
    min_overlap = 1 if scenario is ScenarioType.INNER_JOIN else 0
    return ScenarioSpec(
        scenario=scenario,
        base_rows=draw(st.integers(min_value=5, max_value=60)),
        other_rows=draw(st.integers(min_value=5, max_value=40)),
        base_features=draw(st.integers(min_value=1, max_value=4)),
        other_features=draw(st.integers(min_value=1, max_value=4)),
        overlap_rows=draw(st.integers(min_value=min_overlap, max_value=5)),
        overlap_columns=draw(st.integers(min_value=0, max_value=1)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


class TestPropertyParity:
    @settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        spec=scenario_specs(),
        chunk_rows=st.sampled_from(CHUNK_SIZES),
        workers=st.sampled_from(WORKER_COUNTS[1:]),
    )
    def test_random_scenarios_match_serial(self, spec, chunk_rows, workers):
        with SpillStore() as store:
            serial_factors, serial_coef, serial_intercept = _build_and_train(
                spec.scenario, chunk_rows, 1, store, spec=spec
            )
        with SpillStore() as store:
            factors, coef, intercept = _build_and_train(
                spec.scenario, chunk_rows, workers, store, spec=spec
            )
        for built, reference in zip(factors, serial_factors):
            assert np.array_equal(built, reference)
        assert np.max(np.abs(coef - serial_coef)) <= TOLERANCE
        assert abs(intercept - serial_intercept) <= TOLERANCE
