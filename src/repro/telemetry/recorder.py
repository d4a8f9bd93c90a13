"""Hierarchical spans and the process-wide active recorder.

A :class:`Recorder` collects three things:

* **spans** -- nested timed regions opened with ``recorder.span(name)`` as a
  context manager.  Timing uses ``time.perf_counter`` for durations (monotonic,
  high resolution) and ``time.time`` for the start epoch so spans recorded in
  different processes line up on one Chrome-trace timeline;
* **metrics** -- a :class:`~repro.telemetry.metrics.MetricsRegistry`;
* **events** -- structured log records (ts, run_id, span_id, kind, payload).

Span ids embed the pid (``"<pid:x>-<seq>"``) so batches collected in campaign
workers merge into the parent recorder without id remapping.  The span stack is
thread-local; finished spans, events and metrics are guarded by one lock so
worker threads can report concurrently.

The **disabled path** is :class:`NullRecorder`: ``enabled`` is ``False`` and
``span()`` returns one shared no-op context manager, so instrumented code in
hot loops pays a single attribute check (``if rec.enabled:``) or, at worst, an
empty ``with`` block -- no allocation, no locking.  ``get_recorder()`` returns
the module-global active recorder, a ``NullRecorder`` unless something opted in
via ``set_recorder()`` / ``use_recorder()``.
"""

from __future__ import annotations

import itertools
import os
import platform
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry

__all__ = [
    "Span",
    "Recorder",
    "NullRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "environment_meta",
]


class Span:
    """One finished (or in-flight) timed region."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start_ts",
        "duration_s",
        "attrs",
        "pid",
        "tid",
        "_t0",
    )

    def __init__(self, span_id: str, parent_id: Optional[str], name: str,
                 attrs: Optional[Dict[str, Any]] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.start_ts = time.time()
        self.duration_s = 0.0
        self._t0 = time.perf_counter()

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute on the span."""
        self.attrs[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ts": self.start_ts,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared no-op stand-in for a span on the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Allocation-free recorder used when telemetry is off.

    Every method is a no-op; ``span()`` hands back one shared object.  Hot
    loops should still prefer ``if rec.enabled:`` around per-iteration
    counter updates so the disabled path costs one attribute load.
    """

    __slots__ = ()
    enabled = False
    run_id = ""

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, delta: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def event(self, kind: str, payload: Optional[Dict[str, Any]] = None) -> None:
        return None


#: Per-process recorder instance counter.  Span ids embed both the pid and
#: the instance number, so batches from the *same* pool worker serving
#: several recorders in sequence never collide when merged in the parent.
_INSTANCE_SEQ = itertools.count(1)


class Recorder:
    """Collects spans, metrics and events for one run (or one worker)."""

    enabled = True

    def __init__(self, run_id: Optional[str] = None):
        if run_id is None:
            run_id = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid():x}"
        self.run_id = run_id
        self.metrics = MetricsRegistry()
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq = 0
        self._span_prefix = f"{os.getpid():x}.{next(_INSTANCE_SEQ):x}"

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _next_span_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"{self._span_prefix}-{self._seq}"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        record = Span(self._next_span_id(), parent_id, name, attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record.duration_s = time.perf_counter() - record._t0
            stack.pop()
            with self._lock:
                self.spans.append(record.to_dict())

    # ------------------------------------------------------------------
    # Metrics (thin registry passthrough, lock-guarded)
    # ------------------------------------------------------------------
    def counter(self, name: str, delta: float = 1) -> None:
        with self._lock:
            self.metrics.inc(name, delta)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.metrics.observe(name, value)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def event(self, kind: str, payload: Optional[Dict[str, Any]] = None) -> None:
        record = {
            "ts": time.time(),
            "run_id": self.run_id,
            "span_id": self.current_span_id(),
            "kind": kind,
            "payload": payload or {},
        }
        with self._lock:
            self.events.append(record)

    # ------------------------------------------------------------------
    # Cross-process batching
    # ------------------------------------------------------------------
    def mark(self) -> Dict[str, int]:
        """Position marker for a later :meth:`collect` (worker-side batching)."""
        with self._lock:
            return {
                "spans": len(self.spans),
                "events": len(self.events),
                "metrics": self.metrics.snapshot_full(),  # type: ignore[dict-item]
            }

    def collect(self, mark: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """JSON-safe batch of everything recorded since ``mark`` (or ever)."""
        with self._lock:
            span_base = mark["spans"] if mark else 0
            event_base = mark["events"] if mark else 0
            metrics_now = self.metrics.snapshot_full()
            if mark:
                metrics = MetricsRegistry.delta(mark["metrics"], metrics_now)
            else:
                metrics = metrics_now
            return {
                "run_id": self.run_id,
                "spans": list(self.spans[span_base:]),
                "events": list(self.events[event_base:]),
                "metrics": metrics,
            }

    def absorb(self, batch: Optional[Dict[str, Any]]) -> None:
        """Merge a :meth:`collect` batch (e.g. streamed from a worker)."""
        if not batch:
            return
        with self._lock:
            self.spans.extend(batch.get("spans", ()))
            self.events.extend(batch.get("events", ()))
            self.metrics.merge(batch.get("metrics", {}))


# ----------------------------------------------------------------------
# Process-global active recorder
# ----------------------------------------------------------------------
_ACTIVE: Any = NullRecorder()


def get_recorder() -> Any:
    """The process-wide active recorder (a ``NullRecorder`` by default)."""
    return _ACTIVE


def set_recorder(recorder: Any) -> Any:
    """Install ``recorder`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder if recorder is not None else NullRecorder()
    return previous


@contextmanager
def use_recorder(recorder: Any) -> Iterator[Any]:
    """Scoped :func:`set_recorder` that restores the previous on exit."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


def environment_meta() -> Dict[str, Any]:
    """Process-level context stamped onto trace files."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }
