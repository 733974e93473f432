"""Spans recorded from outside the program, around the calls into each layer.

:meth:`Tracer.install` replaces the layers' public entry points (module
functions and methods) with wrappers that record a span per call — name,
start, end, thread and parent span — and :meth:`Tracer.restore` puts the
originals back. Nothing inside the program is changed. Spans are kept in
memory; :meth:`Tracer.write_chrome_trace` writes them out when the run ends.

A span's *self time* is its duration minus the time covered by its child
spans (spans opened on the same thread while it was open). ``parallel.map``
spans are transparent: they measure time spent inside the pool's map calls,
which is work of the layer that called the pool, so they are not subtracted
from the calling layer's self time (and spans inside them count as children
of that layer).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple


TRANSPARENT = frozenset({"parallel.map"})


class Span:
    __slots__ = ("name", "start_ns", "end_ns", "thread", "parent", "child_ns",
                 "phase", "round", "case", "attrs")

    def __init__(self, name, start_ns, thread, parent, phase, round_index, case):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.thread = thread
        self.parent = parent
        self.child_ns = 0
        self.phase = phase
        self.round = round_index
        self.case = case
        self.attrs: Dict[str, object] = {}

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


def _function_targets():
    """(layer, module, attribute) of module-level entry points."""
    import repro.matrices.builder as builder
    import repro.metadata.schema_matching as schema_matching
    import repro.parallel.pool as pool
    import repro.relational.io as io
    import repro.streaming.builder as streaming_builder

    return [
        ("relational.read_csv", io, "read_csv"),
        ("relational.write_csv", io, "write_csv"),
        ("metadata.match_schemas", schema_matching, "match_schemas"),
        ("matrices.integrate_tables", builder, "integrate_tables"),
        ("streaming.integrate_streams", streaming_builder, "integrate_streams"),
        ("parallel.map", pool, "parallel_map"),
    ]


def _generator_targets():
    import repro.parallel.pool as pool

    return [("parallel.map", pool, "imap_ordered")]


def _gd_iterations(model) -> int:
    if getattr(model, "solver", "gd") != "gd":
        return 0
    return len(model.loss_history_)


def _method_targets():
    """(layer, class, method, post-call hook) of the wrapped methods."""
    from repro.factorized.normalized_matrix import AmalurMatrix
    from repro.learning import LinearRegression, LogisticRegression, StreamingGD
    from repro.matrices.builder import IntegratedDataset
    from repro.metadata.entity_resolution import KeyBasedResolver
    from repro.serving.session import DatasetSession
    from repro.system.amalur import Amalur
    from repro.system.optimizer import Optimizer

    def iterations(span, args, kwargs, result):
        span.attrs["iterations"] = _gd_iterations(args[0])

    def keyed(span, args, kwargs, result):
        # The request/batch object identifies the call across threads.
        request = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
        span.attrs["key"] = id(request)

    return [
        ("metadata.resolve", KeyBasedResolver, "resolve_index", None),
        ("matrices.materialize", IntegratedDataset, "materialize", None),
        ("matrices.materialize", IntegratedDataset, "materialize_table", None),
        ("factorized.build", AmalurMatrix, "__init__", None),
        ("factorized.lmm", AmalurMatrix, "lmm", None),
        ("factorized.transpose_lmm", AmalurMatrix, "transpose_lmm", None),
        ("factorized.crossprod", AmalurMatrix, "crossprod", None),
        ("learning.fit", LinearRegression, "fit", iterations),
        ("learning.fit", LogisticRegression, "fit", iterations),
        ("learning.streaming_fit", StreamingGD, "fit", None),
        ("learning.streaming_predict", StreamingGD, "predict", None),
        ("system.plan", Optimizer, "plan", None),
        ("system.train", Amalur, "train", None),
        ("system.predict", Amalur, "predict", None),
        ("serving.session_build", DatasetSession, "__init__", None),
        ("serving.session_apply_delta", DatasetSession, "apply_delta", keyed),
        ("serving.session_predict", DatasetSession, "predict", keyed),
        ("serving.session_train", DatasetSession, "train", keyed),
    ]


class Tracer:
    """Records spans while a phase is open; wrappers are pass-through otherwise."""

    def __init__(self):
        self.spans: List[Span] = []
        self.phase: Optional[str] = None
        self.round = -1
        self.case: Optional[str] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- phases and cases ------------------------------------------------------------
    def begin(self, phase: str, round_index: int) -> None:
        self.phase = phase
        self.round = round_index

    def end(self) -> None:
        self.phase = None
        self.case = None

    def set_case(self, case: Optional[str]) -> None:
        """Label the spans that follow with a workload case (``None`` clears)."""
        self.case = case

    # -- span bookkeeping ------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = next((s for s in reversed(stack) if s.name not in TRANSPARENT), None)
        span = Span(
            name, time.perf_counter_ns(), threading.get_ident(),
            parent, self.phase, self.round, self.case,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()
        if span.parent is not None and span.name not in TRANSPARENT:
            span.parent.child_ns += span.duration_ns
        with self._lock:
            self.spans.append(span)

    # -- wrappers --------------------------------------------------------------------
    def _wrap_call(self, name: str, fn: Callable, post=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if post is not None:
                post(span, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Each ``next`` on the generator is one span: time spent waiting on it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if tracer.phase is None:
                return inner

            def traced() -> Iterator:
                try:
                    while True:
                        span = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(span)
                        yield item
                finally:
                    inner.close()

            return traced()

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, module, attribute: str, replacement) -> None:
        """Replace a module function and every ``from ... import`` binding of it."""
        original = getattr(module, attribute)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name.startswith("repro") or name.startswith("perfbench")):
                continue
            for bound_name, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, bound_name, replacement)

    def install(self) -> None:
        for name, module, attribute in _function_targets():
            wrapper = self._wrap_call(name, getattr(module, attribute))
            self._patch_function(module, attribute, wrapper)
        for name, module, attribute in _generator_targets():
            self._patch_function(
                module, attribute, self._wrap_generator(name, getattr(module, attribute))
            )
        for name, owner, method, post in _method_targets():
            self._patch(owner, method, self._wrap_call(name, owner.__dict__[method], post))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------------
    def select(self, name: str, phase: str = "timed") -> List[Span]:
        return [s for s in self.spans if s.name == name and s.phase == phase]

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome ``trace_event`` complete ("X") events."""
        origin = min((s.start_ns for s in self.spans), default=0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start_ns - origin) / 1e3,
                "dur": s.duration_ns / 1e3,
                "pid": 0,
                "tid": s.thread,
                "args": {
                    "phase": s.phase,
                    "round": s.round,
                    "case": s.case,
                    "parent": s.parent.name if s.parent is not None else None,
                    "self_us": s.self_ns / 1e3,
                },
            }
            for s in sorted(self.spans, key=lambda s: s.start_ns)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
