"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout: the library is imported from
``src/`` beside this directory, and scratch files (CSV inputs and outputs,
spill files, Chrome traces) go to ``.perfbench/`` in the checkout. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` the
layers' entry points are wrapped for the run and the per-layer metrics are
reported instead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("csv_augment", "table1_train", "stream_spill", "serve_mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {source}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]

    import repro.parallel
    from perfbench import metrics
    from perfbench.harness import run_window
    from perfbench.tracing import Tracer
    from perfbench.workloads import registry

    work_dir = ROOT / ".perfbench" / args.workload
    tracer = Tracer() if args.trace else None
    workload = registry()[args.workload](args.seed, work_dir, tracer=tracer)
    if tracer is not None:
        tracer.install()
    try:
        result = run_window(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    failures = workload.check()
    repro.parallel.shutdown()

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if tracer is not None:
        tracer.write_chrome_trace(work_dir / f"trace_seed{args.seed}.json")
        values = metrics.per_layer(tracer, result)
        units = dict(metrics.per_layer_names())
    else:
        values = result.end_to_end()
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
    print(f"{args.workload}: seed {args.seed}, {len(result.rounds)} rounds, "
          f"round e2e_s median {result.end_to_end()['e2e_s']:.4f}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
