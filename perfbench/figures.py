"""Reference figures for the README, measured once on the machine at hand.

    python3 perfbench/figures.py [--seed 1]

Prints, for the full-size inputs of the given seed: the workloads' input
make-up, ``read_csv`` against ``np.loadtxt`` and ``write_csv`` against
``csv.writer`` on the csv_augment files, the correspondences
``match_schemas`` proposes there, and per table1_train case the optimizer's
decision with factorized GD (through the library) against numpy GD on the
materialized target. Each time is the best of three.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def best_of(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def csv_figures(seed: int, work_dir: Path) -> None:
    import numpy as np

    import repro.relational.io as rio
    from perfbench.workloads.csv_augment import CsvAugment
    from repro.metadata.schema_matching import match_schemas

    workload = CsvAugment(seed, work_dir)
    workload.setup()
    paths = (workload.base_path, workload.other_path)
    megabytes = sum(p.stat().st_size for p in paths) / 2**20
    print(f"csv_augment: base {workload.base_columns['id'].size} rows x "
          f"{len(workload.base_columns)} columns, other {workload.other_columns['id'].size} "
          f"rows x {len(workload.other_columns)} columns, {megabytes:.2f} MB of CSV")
    read = best_of(lambda: [rio.read_csv(p) for p in paths])
    loadtxt = best_of(lambda: [np.loadtxt(p, delimiter=",", skiprows=1) for p in paths])
    print(f"  read_csv x2 {read:.3f} s vs np.loadtxt x2 {loadtxt:.3f} s ({read / loadtxt:.1f}x)")
    workload.run_round()
    table = workload.outputs["dataset"].materialize_table()
    target = workload.outputs["dataset"].materialize()
    out = work_dir / "figures_out.csv"
    write = best_of(lambda: rio.write_csv(table, out))

    def stdlib_write():
        with open(out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.schema.names)
            writer.writerows(target.tolist())

    plain = best_of(stdlib_write)
    print(f"  write_csv {write:.3f} s vs csv.writer {plain:.3f} s ({write / plain:.1f}x), "
          f"target {target.shape[0]} x {target.shape[1]}")
    base, other = workload.outputs["base"], workload.outputs["other"]
    matches = match_schemas(base, other)
    extra = [f"{m.left_column}~{m.right_column}" for m in matches
             if m.left_column != m.right_column]
    print(f"  match_schemas proposes {len(matches)} pairs, {len(extra)} between differently "
          f"named columns: {' '.join(extra)}")


def table1_figures(seed: int, work_dir: Path) -> None:
    import numpy as np

    from perfbench import reference as ref
    from perfbench.workloads.table1_train import CASES, LEARNING_RATE, STAR, Table1Train
    from repro.system.amalur import Amalur
    from repro.system.plan import ModelSpec
    from repro.system.requests import TrainRequest

    workload = Table1Train(seed, work_dir)
    workload.setup()
    workload.run_round()
    spec = ModelSpec(task="regression", n_iterations=workload.iterations)
    for case in CASES:
        out = workload.outputs[case]
        dataset = out["dataset"]
        target = dataset.materialize()
        label = dataset.target_columns.index("label")
        features, labels = np.delete(target, label, axis=1), target[:, label]
        base, other = workload.inputs[case][:2]
        library = best_of(lambda: Amalur().train(TrainRequest(model=spec, dataset=dataset)))
        numpy_gd = best_of(
            lambda: ref.linear_gd(features, labels, LEARNING_RATE, workload.iterations)
        )
        print(f"table1_train {case}: base {base.n_rows} x {base.n_columns}, other "
              f"{other.n_rows} x {other.n_columns}, target {target.shape[0]} x "
              f"{target.shape[1]}, density {np.count_nonzero(target) / target.size:.3f}, "
              f"decision {out['result'].strategy.value}; library train "
              f"{library:.3f} s vs numpy GD on the materialized target {numpy_gd:.3f} s")
    star = workload.star
    print(f"table1_train {STAR}: target {star.n_target_rows} x {len(star.target_columns)}, "
          f"density {star.overall_density():.4f}, decision {workload.decisions()[STAR]}")


def spill_figures(seed: int, work_dir: Path) -> None:
    from perfbench.workloads.stream_spill import StreamSpill

    workload = StreamSpill(seed, work_dir)
    workload.setup()
    round_ = workload.run_round()
    base, other, _, _, target_columns = workload.streams
    print(f"stream_spill: base {base.n_rows} rows, other {other.n_rows} rows, target "
          f"{base.n_rows} x {len(target_columns)} "
          f"({base.n_rows * len(target_columns) * 8 / 2**20:.0f} MB dense), "
          f"spilled {round_.extra['spilled_mb']:.0f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.parallel

    work_dir = ROOT / ".perfbench" / "figures"
    work_dir.mkdir(parents=True, exist_ok=True)
    print(f"cores {repro.parallel.available_cores()}, repro.parallel workers "
          f"{repro.parallel.get_num_workers()}")
    csv_figures(args.seed, work_dir)
    table1_figures(args.seed, work_dir)
    spill_figures(args.seed, work_dir)
    repro.parallel.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
