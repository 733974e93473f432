"""The benchmark's workloads, by name.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
set-up, before every round), runs its timed path once per
:meth:`run_round`, keeps that round's outputs in ``outputs`` and compares
the last round's outputs with independent numpy references in :meth:`check`. ``small=True`` selects tiny inputs that
run the same code in a fraction of a second (used by ``perfbench/selftest.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, small: bool = False, tracer=None):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.small = small
        self.tracer = tracer

    def set_case(self, case: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.set_case(case)

    def release(self) -> None:
        """Drop what the last round kept for :meth:`check` (and any other
        per-round state), so it is not resident during the next round."""
        self.outputs = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError


def registry():
    from perfbench.workloads.csv_augment import CsvAugment
    from perfbench.workloads.serve_mixed import ServeMixed
    from perfbench.workloads.stream_spill import StreamSpill
    from perfbench.workloads.table1_train import Table1Train

    return {w.name: w for w in (CsvAugment, Table1Train, StreamSpill, ServeMixed)}
