"""Run loop, memory sampling and summary statistics shared by every workload.

A run repeats whole rounds until ``seconds`` of wall time have passed. Each
round sets its inputs up afresh (timed as set-up), then runs the workload's
timed path once. End-to-end figures are medians over rounds, so a run's
figures do not depend on how many rounds fitted into the window.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """Current resident set size of this process, from ``/proc/self/statm``."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_BYTES


class RssSampler:
    """Background sampler of the resident set size, active only when resumed.

    :meth:`resume` starts a new peak and :meth:`pause` returns it, so a peak
    covers one timed path alone: set-up and checks run while the sampler is
    paused, so their transient allocations cannot raise it (what set-up
    leaves resident is still counted, as the timed path runs beside it).
    """

    def __init__(self, interval_s: float = 0.005):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._lock = threading.Lock()
        self._generation = 0  # a sample taken before the last resume is dropped
        self._active = threading.Event()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stopped.is_set():
            if not self._active.wait(0.05):
                continue
            generation = self._generation
            sample = resident_bytes()
            with self._lock:
                if generation == self._generation and self._active.is_set():
                    self.peak_bytes = max(self.peak_bytes, sample)
            time.sleep(self.interval_s)

    def resume(self) -> None:
        with self._lock:
            self._generation += 1
            self.peak_bytes = resident_bytes()
            self._active.set()

    def pause(self) -> int:
        with self._lock:
            self._active.clear()
            self.peak_bytes = max(self.peak_bytes, resident_bytes())
            return self.peak_bytes

    def stop(self) -> None:
        self._active.clear()
        self._stopped.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError("RSS sampler thread did not stop")


@dataclass
class Round:
    """What one timed round reports back to the harness."""

    seconds: float
    attempted: int
    failed: int = 0
    predict_ms: List[float] = field(default_factory=list)
    train_ms: List[float] = field(default_factory=list)
    # Workload-specific extras (client latencies, counters) for per-layer metrics.
    extra: Dict[str, object] = field(default_factory=dict)


def timed(sink: List[float], fn: Callable, *args, **kwargs):
    """Call ``fn`` and append its wall time in milliseconds to ``sink``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    sink.append((time.perf_counter() - start) * 1e3)
    return result


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median_of_round_medians(per_round: List[List[float]]) -> float:
    """Median over rounds of each round's median call latency."""
    return float(statistics.median(statistics.median(calls) for calls in per_round))


@dataclass
class RunResult:
    rounds: List[Round]
    setup_s: List[float]
    peak_rss_bytes: List[int]  # per round

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": float(statistics.median(self.setup_s)),
            "e2e_s": float(statistics.median(r.seconds for r in self.rounds)),
            "peak_rss_mb": statistics.median(self.peak_rss_bytes) / 2**20,
            "predict_p50_ms": median_of_round_medians([r.predict_ms for r in self.rounds]),
            "train_p50_ms": median_of_round_medians([r.train_ms for r in self.rounds]),
        }


def run_window(workload, seconds: float, tracer=None) -> RunResult:
    """Set up and run whole rounds of ``workload`` until ``seconds`` have passed."""
    sampler = RssSampler()
    rounds: List[Round] = []
    setups: List[float] = []
    peaks: List[int] = []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < seconds:
            # The previous round's outputs and garbage go outside both timings.
            workload.release()
            gc.collect()
            if tracer is not None:
                tracer.begin("setup", len(rounds))
            setup_start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - setup_start)
            if tracer is not None:
                tracer.begin("timed", len(rounds))
            sampler.resume()
            rounds.append(workload.run_round())
            peaks.append(sampler.pause())
            if tracer is not None:
                tracer.end()
    finally:
        sampler.stop()
    return RunResult(rounds=rounds, setup_s=setups, peak_rss_bytes=peaks)
