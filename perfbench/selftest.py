"""The benchmark's own tests: every workload at a small size, through the same code.

    python3 -m pytest perfbench/selftest.py -q

They show that the checks pass on two seeds and that each check rejects a
perturbed output (weights shifted by 1e-6, one target cell changed, one
response dropped). The file is not named ``test_*.py``, so the library's
test suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics  # noqa: E402
from perfbench.harness import run_window  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import registry  # noqa: E402

SEEDS = (1, 2)


def small_run(name: str, seed: int, work_dir: Path, tracer=None):
    workload = registry()[name](seed, work_dir, small=True, tracer=tracer)
    if tracer is not None:
        tracer.install()
    try:
        result = run_window(workload, 0.0, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    return workload, result


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small round of every workload on every seed."""
    return {
        (name, seed): small_run(name, seed, tmp_path_factory.mktemp(f"{name}_{seed}"))
        for name in WORKLOADS for seed in SEEDS
    }


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert all(m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.per_layer_names()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_checks_pass(runs, name, seed):
    workload, result = runs[(name, seed)]
    assert workload.check() == []
    assert result.attempted > 0
    # The only operation allowed to fail is csv_augment's BOM-prefixed read.
    assert result.failed == (1 if name == "csv_augment" else 0)
    figures = result.end_to_end()
    assert all(value > 0 for value in figures.values()), figures


def _rejects(workload, perturb, restore, expected: str) -> None:
    perturb()
    try:
        failures = workload.check()
    finally:
        restore()
    assert any(expected in failure for failure in failures), failures
    assert workload.check() == []


def _shift(obj, attribute: str, delta: float):
    original = np.array(getattr(obj, attribute), copy=True)
    return (lambda: setattr(obj, attribute, original + delta),
            lambda: setattr(obj, attribute, original))


class _ChangedCell:
    """A dataset whose materialized target has one cell changed."""

    def __init__(self, dataset):
        self._dataset = dataset

    def materialize(self):
        target = np.array(self._dataset.materialize())
        target[target.shape[0] // 2, 1] += 1.0
        return target


def _swap(mapping, key, replacement):
    original = mapping[key]
    return (lambda: mapping.__setitem__(key, replacement),
            lambda: mapping.__setitem__(key, original))


@pytest.mark.parametrize("name, what", [
    ("csv_augment", "logistic weights"),
    ("table1_train", "left_join: GD weights"),
    ("table1_train", "star: GD weights"),
    ("stream_spill", "StreamingGD weights"),
])
def test_rejects_shifted_weights(runs, name, what):
    workload, _ = runs[(name, SEEDS[0])]
    if name == "table1_train":
        case = what.split(":")[0]
        out = workload.outputs[case]
        model = out["model"] if case == "star" else out["result"].model
    else:
        model = workload.outputs["model"]
    _rejects(workload, *_shift(model, "coef_", 1e-6), what)


def test_rejects_shifted_served_predictions(runs):
    workload, _ = runs[("serve_mixed", SEEDS[0])]
    served = workload.outputs["served"]
    _rejects(workload, *_swap(workload.outputs, "served", served + 1e-6),
             "served predictions")


@pytest.mark.parametrize("name, case", [
    ("csv_augment", None),
    ("table1_train", "full_outer_join"),
    ("table1_train", "union"),
])
def test_rejects_changed_target_cell(runs, name, case):
    workload, _ = runs[(name, SEEDS[0])]
    outputs = workload.outputs if case is None else workload.outputs[case]
    changed = _ChangedCell(outputs["dataset"])
    _rejects(workload, *_swap(outputs, "dataset", changed), "target")


def test_rejects_changed_exported_cell(runs):
    workload, _ = runs[("csv_augment", SEEDS[0])]
    original = workload.out_path.read_text()
    lines = original.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[0] = repr(float(cells[0]) + 1.0)
    lines[1] = ",".join(cells)
    _rejects(workload, lambda: workload.out_path.write_text("".join(lines)),
             lambda: workload.out_path.write_text(original), "exported augmented table")


def test_rejects_dropped_response(runs):
    workload, _ = runs[("serve_mixed", SEEDS[0])]
    requests = workload.outputs["requests"]
    index = next(i for i, e in enumerate(requests) if e[0] == "predict")
    kind, key, latency, rows, failed = requests[index]
    short = requests[:index] + [(kind, key, latency, rows - 1, failed)] + requests[index + 1:]
    _rejects(workload, *_swap(workload.outputs, "requests", short), "row count")
    served = workload.outputs["served"]
    _rejects(workload, *_swap(workload.outputs, "served", served[:-1]), "served predictions")


def test_rejects_wrong_resolution(runs):
    workload, _ = runs[("csv_augment", SEEDS[0])]
    left, right = workload.outputs["rows"]
    _rejects(workload, *_swap(workload.outputs, "rows", (left[1:], right[1:])),
             "resolved left rows")


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_restores(tmp_path, name):
    from repro.factorized.normalized_matrix import AmalurMatrix
    import repro.relational.io as rio

    originals = (AmalurMatrix.lmm, rio.read_csv)
    tracer = Tracer()
    workload, result = small_run(name, SEEDS[0], tmp_path, tracer)
    assert (AmalurMatrix.lmm, rio.read_csv) == originals
    values = metrics.per_layer(tracer, result)
    assert set(values) == {n for n, _ in metrics.per_layer_names()}
    assert all(v >= 0 for v in values.values())
    assert tracer.spans
    assert workload.check() == []
    tracer.write_chrome_trace(tmp_path / "trace.json")
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert len(events) == len(tracer.spans) and all(e["ph"] == "X" for e in events)


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csv_augment", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
