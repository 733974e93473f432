"""The benchmark's metrics: names, units, directions and bounds.

``BENCHMARK.json`` lists exactly these; ``selftest.py`` checks that it does.
Every workload reports every metric. A per-layer metric of a layer that a
workload's path never calls reads 0 on that workload.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from perfbench.harness import RunResult, percentile

# (name, unit, bound): the bound is the share of the parent's median by which
# the metric may get worse before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("e2e_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.15),
    ("predict_p50_ms", "ms", 0.25),
    ("train_p50_ms", "ms", 0.25),
]

# Layer self time per round (seconds), summed over the layer's spans.
SELF_TIME_LAYERS = [
    "relational.read_csv",
    "relational.write_csv",
    "metadata.match_schemas",
    "metadata.resolve",
    "matrices.integrate_tables",
    "matrices.materialize",
    "factorized.build",
    "factorized.lmm",
    "factorized.transpose_lmm",
    "factorized.crossprod",
    "learning.fit",
    "system.plan",
    "system.train",
    "system.predict",
    "parallel.map",
    "streaming.integrate_streams",
    "learning.streaming_fit",
    "learning.streaming_predict",
]
OPERATORS = ("factorized.lmm", "factorized.transpose_lmm", "factorized.crossprod")

TABLE1_CASES = ("full_outer_join", "inner_join", "left_join", "union")
# Per-case metrics of table1_train. The Table I cases run below the parallel
# engine's row threshold; the star join has no resolution, integration,
# materialization, normal solve or facade train/predict.
CASE_METRICS = [
    "metadata.resolve_s", "matrices.integrate_tables_s", "matrices.materialize_s",
    "factorized.build_s", "factorized.lmm_s", "factorized.transpose_lmm_s",
    "factorized.crossprod_s", "factorized.operator_calls", "learning.fit_s",
    "learning.gd_iter_ms", "system.plan_s", "system.train_s", "system.predict_s",
]
STAR_METRICS = [
    "factorized.build_s", "factorized.lmm_s", "factorized.transpose_lmm_s",
    "factorized.operator_calls", "learning.fit_s", "learning.gd_iter_ms", "system.plan_s",
    "parallel.map_s",
]

SERVING = [
    ("serving.session_build_s", "s"),
    ("serving.session_apply_delta_ms", "ms"),
    ("serving.session_predict_ms", "ms"),
    ("serving.session_train_ms", "ms"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.rebuilds", "count"),
    ("serving.predict_p99_ms", "ms"),
    ("serving.delta_p50_ms", "ms"),
]


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def per_layer_names() -> List[tuple]:
    names = [(f"{layer}_s", "s") for layer in SELF_TIME_LAYERS]
    names += [("factorized.operator_calls", "count"), ("learning.gd_iter_ms", "ms"),
              ("streaming.spilled_mb", "MB")]
    names += SERVING
    for case in TABLE1_CASES:
        names += [(f"{m}.{case}", _unit(m)) for m in CASE_METRICS]
    names += [(f"{m}.star", _unit(m)) for m in STAR_METRICS]
    return names


def _p50(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _layer_figures(tracer, n_rounds: int, case: Optional[str]) -> Dict[str, float]:
    """Self times, operator calls and ms per GD iteration over one case (or all)."""
    selected = [s for s in tracer.spans
                if s.phase == "timed" and (case is None or s.case == case)]
    figures = {f"{layer}_s": 0.0 for layer in SELF_TIME_LAYERS}
    calls = 0
    fit_ns = iterations = 0
    for span in selected:
        key = f"{span.name}_s"
        if key in figures:
            figures[key] += span.self_ns / 1e9 / n_rounds
        if span.name in OPERATORS:
            calls += 1
        if span.name == "learning.fit" and span.attrs.get("iterations"):
            fit_ns += span.duration_ns
            iterations += span.attrs["iterations"]
    figures["factorized.operator_calls"] = calls / n_rounds
    figures["learning.gd_iter_ms"] = fit_ns / 1e6 / iterations if iterations else 0.0
    return figures


def _serving_figures(tracer, result: RunResult) -> Dict[str, float]:
    def durations_ms(name: str) -> List[float]:
        return [s.duration_ns / 1e6 for s in tracer.select(name, "timed")]

    requests = [(r_index, entry) for r_index, r in enumerate(result.rounds)
                for entry in r.extra.get("requests", ())]
    session_ns = {(s.round, s.attrs["key"]): s.duration_ns
                  for s in tracer.spans if s.phase == "timed" and "key" in s.attrs}
    waits = [latency * 1e3 - session_ns[(r_index, key)] / 1e6
             for r_index, (kind, key, latency, rows, failed) in requests
             if (r_index, key) in session_ns]
    client = {kind: [e[2] * 1e3 for _, e in requests if e[0] == kind and not e[4]]
              for kind in ("predict", "delta")}
    builds = [s.duration_ns / 1e9 for s in tracer.select("serving.session_build", "setup")]
    return {
        "serving.session_build_s": _p50(builds),
        "serving.session_apply_delta_ms": _p50(durations_ms("serving.session_apply_delta")),
        "serving.session_predict_ms": _p50(durations_ms("serving.session_predict")),
        "serving.session_train_ms": _p50(durations_ms("serving.session_train")),
        "serving.queue_wait_ms": _p50(waits),
        "serving.rebuilds": statistics.fmean(r.extra.get("rebuilds", 0) for r in result.rounds),
        "serving.predict_p99_ms": percentile(client["predict"], 99) if client["predict"] else 0.0,
        "serving.delta_p50_ms": _p50(client["delta"]),
    }


def per_layer(tracer, result: RunResult) -> Dict[str, float]:
    """Every per-layer metric from a traced run's spans and round records."""
    n_rounds = len(result.rounds)
    values = _layer_figures(tracer, n_rounds, None)
    values["streaming.spilled_mb"] = _p50([r.extra["spilled_mb"] for r in result.rounds
                                           if "spilled_mb" in r.extra])
    values.update(_serving_figures(tracer, result))
    for case in TABLE1_CASES:
        figures = _layer_figures(tracer, n_rounds, case)
        values.update({f"{m}.{case}": figures[m] for m in CASE_METRICS})
    figures = _layer_figures(tracer, n_rounds, "star")
    values.update({f"{m}.star": figures[m] for m in STAR_METRICS})
    return values
