"""Block-parallel engine guard: worker-count parity always, scaling on multi-core.

Run standalone to emit ``benchmarks/results/BENCH_PARALLEL.json`` (exits
non-zero when a guard fails — the CI ``scaling-guard`` job)::

    PYTHONPATH=src python benchmarks/bench_parallel.py

Two phases:

* **Parity** (every machine): the spilled stream build + ``StreamingGD``
  and the factorized operators run at 1, 2 and 8 workers on a small
  scenario.  Built factors must be bit-identical to the serial build, GD
  weights within 1e-8 of serial and bit-identical between any two
  parallel worker counts, and the resident operator outputs and
  ``FlopCounter`` totals bit-identical at every worker count (the
  operators run one per-factor plan and never fan out).

* **Scaling** (core-count aware): the 450k×287 streaming scenario from
  ``bench_streaming`` — hashed chunk ingest → spilled factor build → six
  ``StreamingGD`` iterations — timed end-to-end at 1 worker and at 4
  workers.  The speedup floor scales with the machine: on ≥4 cores the
  4-worker run must be ≥2.0× faster, on 2-3 cores ≥1.2×; on a single
  core no speedup is physically possible — four workers time-slice one
  CPU and the blocked reduction buffers are pure cost — so the guard
  only bounds the engine's overhead (the 4-worker run may be at most 2×
  slower than serial) and the floor is recorded as skipped.  Both runs must produce
  bit-identical spilled factors (SHA-256 over the memmap blocks) and
  weights within 1e-8.

The committed JSON records the core count it was generated on.  The CI
job always enforces the fresh in-run guard on its own runner and only
consults the committed speedup when the baseline came from comparable
(≥4-core) hardware.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow `python benchmarks/bench_parallel.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_streaming import BUDGET_CHUNK_ROWS, BUDGET_SPEC, BUDGET_TRAIN_ITERATIONS

from repro import parallel
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_dataset,
    generate_scenario_streams,
)
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import StreamingGD
from repro.metadata.mappings import ScenarioType
from repro.streaming import SpillStore, integrate_streams

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_PARALLEL.json"

PARITY_TOLERANCE = 1e-8
PARITY_WORKERS = (1, 2, 8)
SCALING_WORKERS = 4
# Core-count-aware speedup floors for the 4-worker scaling run.
SPEEDUP_FLOOR_4_CORES = 2.0
SPEEDUP_FLOOR_2_CORES = 1.2
SERIAL_OVERHEAD_CEILING = 2.0  # on 1 core the engine may cost at most 2x

PARITY_SPEC = ScenarioSpec(
    ScenarioType.LEFT_JOIN,
    base_rows=4_000, other_rows=3_000, base_features=12, other_features=10,
    overlap_rows=1_200, overlap_columns=3, seed=29,
)
PARITY_CHUNK_ROWS = 512


# -- parity phase ---------------------------------------------------------------------


def _build_and_train(workers: int) -> tuple:
    parallel.set_num_workers(workers)
    base, other, matches, row_matches, targets = generate_scenario_streams(
        PARITY_SPEC, chunk_rows=PARITY_CHUNK_ROWS
    )
    with SpillStore() as store:
        dataset = integrate_streams(
            base, other, matches, row_matches, targets, PARITY_SPEC.scenario,
            label_column="label", store=store,
        )
        factors = [np.array(factor.data) for factor in dataset.factors]
        model = StreamingGD(
            task="linear", block_rows=701, n_iterations=10,
            num_workers=workers, release_pages=store.release,
        ).fit(AmalurMatrix(dataset))
    return factors, model.coef_.copy(), float(model.intercept_)


def run_parity() -> dict:
    # Spilled build + streaming fit across worker counts.
    runs = {workers: _build_and_train(workers) for workers in PARITY_WORKERS}
    serial_factors, serial_coef, _ = runs[1]
    factors_identical = all(
        np.array_equal(built, reference)
        for workers in PARITY_WORKERS[1:]
        for built, reference in zip(runs[workers][0], serial_factors)
    )
    max_weight_diff = max(
        float(np.max(np.abs(runs[workers][1] - serial_coef)))
        for workers in PARITY_WORKERS[1:]
    )
    weights_bitwise_2v8 = bool(np.array_equal(runs[2][1], runs[8][1]))

    # Resident factorized operators across worker counts.
    dataset = generate_scenario_dataset(PARITY_SPEC)
    outputs = {}
    for workers in PARITY_WORKERS:
        parallel.set_num_workers(workers)
        matrix = AmalurMatrix(dataset)
        x = np.random.default_rng(5).standard_normal((matrix.n_columns, 4))
        xt = np.random.default_rng(6).standard_normal((matrix.n_rows, 3))
        outputs[workers] = (
            matrix.lmm(x), matrix.transpose_lmm(xt), matrix.crossprod(),
            matrix.counter.total,
        )
    lmm1, tlmm1, gram1, flops1 = outputs[1]
    max_operator_diff = max(
        float(np.max(np.abs(outputs[workers][i] - serial)))
        for workers in PARITY_WORKERS[1:]
        for i, serial in enumerate((lmm1, tlmm1, gram1))
    )
    operators_identical = all(
        np.array_equal(outputs[workers][i], serial)
        for workers in PARITY_WORKERS[1:]
        for i, serial in enumerate((lmm1, tlmm1, gram1))
    )
    flops_equal = all(outputs[workers][3] == flops1 for workers in PARITY_WORKERS[1:])
    return {
        "worker_counts": list(PARITY_WORKERS),
        "factors_bit_identical": bool(factors_identical),
        "max_weight_diff": max_weight_diff,
        "weights_bitwise_2v8": weights_bitwise_2v8,
        "max_operator_diff": max_operator_diff,
        "operators_bit_identical": operators_identical,
        "flop_counters_equal": bool(flops_equal),
    }


# -- scaling phase --------------------------------------------------------------------


def _factor_digests(dataset, release, block_rows: int = 16_384) -> list:
    """SHA-256 per spilled factor, streamed block-wise to keep RSS flat."""
    digests = []
    for factor in dataset.factors:
        digest = hashlib.sha256()
        data = factor.data
        for start in range(0, data.shape[0], block_rows):
            digest.update(np.ascontiguousarray(data[start:start + block_rows]))
            release()
        digests.append(digest.hexdigest())
    return digests


def _timed_run(workers: int, tmp_dir: Path) -> dict:
    parallel.set_num_workers(workers)
    base, other, matches, row_matches, targets = generate_scenario_streams(
        BUDGET_SPEC, chunk_rows=BUDGET_CHUNK_ROWS
    )
    with SpillStore(tmp_dir / f"spill-{workers}") as store:
        build_start = time.perf_counter()
        dataset = integrate_streams(
            base, other, matches, row_matches, targets, BUDGET_SPEC.scenario,
            label_column="label", store=store,
        )
        build_seconds = time.perf_counter() - build_start
        train_start = time.perf_counter()
        model = StreamingGD(
            task="linear", block_rows=BUDGET_CHUNK_ROWS,
            n_iterations=BUDGET_TRAIN_ITERATIONS,
            num_workers=workers, release_pages=store.release,
        ).fit(AmalurMatrix(dataset))
        train_seconds = time.perf_counter() - train_start
        digests = _factor_digests(dataset, store.release)
        coef = model.coef_.copy()
        final_loss = float(model.loss_history_[-1])
    return {
        "workers": workers,
        "build_seconds": build_seconds,
        "train_seconds": train_seconds,
        "total_seconds": build_seconds + train_seconds,
        "final_loss": final_loss,
        "_digests": digests,
        "_coef": coef,
    }


def run_scaling(tmp_dir: Path, cores: int) -> dict:
    serial = _timed_run(1, tmp_dir)
    threaded = _timed_run(SCALING_WORKERS, tmp_dir)
    speedup = serial["total_seconds"] / threaded["total_seconds"]
    max_weight_diff = float(np.max(np.abs(threaded.pop("_coef") - serial.pop("_coef"))))
    factors_identical = threaded.pop("_digests") == serial.pop("_digests")
    if cores >= 4:
        floor, guard = SPEEDUP_FLOOR_4_CORES, f">= {SPEEDUP_FLOOR_4_CORES}x enforced"
    elif cores >= 2:
        floor, guard = SPEEDUP_FLOOR_2_CORES, f">= {SPEEDUP_FLOOR_2_CORES}x enforced"
    else:
        # No speedup is possible on one core; only bound the overhead.
        floor = 1.0 / SERIAL_OVERHEAD_CEILING
        guard = f"speedup floor skipped (1 core); overhead <= {SERIAL_OVERHEAD_CEILING}x"
    return {
        "scenario": "%s %dx%d" % (
            BUDGET_SPEC.scenario.value, BUDGET_SPEC.base_rows, BUDGET_SPEC.other_rows,
        ),
        "chunk_rows": BUDGET_CHUNK_ROWS,
        "train_iterations": BUDGET_TRAIN_ITERATIONS,
        "serial": serial,
        "parallel": threaded,
        "speedup": speedup,
        "required_speedup": floor,
        "guard": guard,
        "factors_bit_identical": bool(factors_identical),
        "max_weight_diff": max_weight_diff,
    }


def run_benchmark() -> dict:
    import tempfile

    cores = parallel.available_cores()
    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as tmp:
        parity = run_parity()
        scaling = run_scaling(Path(tmp), cores)
    parallel.set_num_workers(None)
    return {"cores": cores, "parity": parity, "scaling": scaling}


def check_guards(results: dict) -> list:
    failures = []
    parity = results["parity"]
    if not parity["factors_bit_identical"]:
        failures.append("parallel build factors are not bit-identical to serial")
    if parity["max_weight_diff"] > PARITY_TOLERANCE:
        failures.append(
            f"parallel GD weights off serial by {parity['max_weight_diff']:.2e} "
            f"(tolerance {PARITY_TOLERANCE:.0e})"
        )
    if not parity["weights_bitwise_2v8"]:
        failures.append("GD weights differ between 2 and 8 workers")
    if not parity["operators_bit_identical"]:
        failures.append(
            "resident operators differ across worker counts "
            f"(max {parity['max_operator_diff']:.2e})"
        )
    if not parity["flop_counters_equal"]:
        failures.append("parallel FLOP counters diverged from the serial formulas")
    scaling = results["scaling"]
    if not scaling["factors_bit_identical"]:
        failures.append("scaling-run factor digests differ between 1 and 4 workers")
    if scaling["max_weight_diff"] > PARITY_TOLERANCE:
        failures.append(
            f"scaling-run weights off serial by {scaling['max_weight_diff']:.2e}"
        )
    if scaling["speedup"] < scaling["required_speedup"]:
        failures.append(
            f"4-worker speedup {scaling['speedup']:.2f}x below the floor "
            f"{scaling['required_speedup']:.2f}x on {results['cores']} core(s)"
        )
    return failures


def save_results(results: dict) -> Path:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return RESULTS_PATH


def report_lines(results: dict) -> list:
    parity = results["parity"]
    scaling = results["scaling"]
    return [
        "parallel parity: factors identical=%s weight diff=%.2e "
        "operators identical=%s flops equal=%s"
        % (
            parity["factors_bit_identical"], parity["max_weight_diff"],
            parity["operators_bit_identical"], parity["flop_counters_equal"],
        ),
        "scaling %s (%d cores): serial %.1fs, %d workers %.1fs -> %.2fx (%s)"
        % (
            scaling["scenario"], results["cores"], scaling["serial"]["total_seconds"],
            SCALING_WORKERS, scaling["parallel"]["total_seconds"],
            scaling["speedup"], scaling["guard"],
        ),
    ]


if __name__ == "__main__":
    benchmark_results = run_benchmark()
    path = save_results(benchmark_results)
    print("\n".join(report_lines(benchmark_results)))
    print(f"\nresults written to {path}")
    guard_failures = check_guards(benchmark_results)
    if guard_failures:
        print("SCALING GUARD FAILED:", "; ".join(guard_failures), file=sys.stderr)
        raise SystemExit(1)
    print("parallel guards passed")
