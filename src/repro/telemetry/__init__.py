"""Unified telemetry: spans, metrics, event log and exporters.

Usage sketch::

    from repro.telemetry import Recorder, use_recorder, get_recorder

    recorder = Recorder(run_id="demo")
    with use_recorder(recorder):
        with get_recorder().span("stage.encode", circuit="s13207"):
            ...
    print(summary_table(recorder))

With no recorder installed, ``get_recorder()`` returns a ``NullRecorder``
whose every method is an allocation-free no-op, so instrumented code does
no recording work when telemetry is off.
"""

from .events import read_event_log, recorder_event_lines, write_event_log
from .export import (
    chrome_trace,
    persist_recorder,
    span_rollup,
    summary_table,
    write_chrome_trace,
)
from .metrics import Histogram, MetricsRegistry
from .recorder import (
    NullRecorder,
    Recorder,
    Span,
    environment_meta,
    get_recorder,
    set_recorder,
    use_recorder,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "Span",
    "chrome_trace",
    "environment_meta",
    "get_recorder",
    "persist_recorder",
    "read_event_log",
    "recorder_event_lines",
    "set_recorder",
    "span_rollup",
    "summary_table",
    "use_recorder",
    "write_chrome_trace",
    "write_event_log",
]
