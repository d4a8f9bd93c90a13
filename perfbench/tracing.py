"""Outside-in per-layer tracing for the benchmark's traced runs.

Nothing inside ``src/`` is instrumented.  :func:`installed` temporarily
replaces public functions and methods of the program with timing wrappers:
module functions are patched where the pipeline calls them (for example
``pipeline.verify_encoding`` and ``reduction.build_embedding_map``),
``IncrementalSolver`` and other methods are patched on their class.  Every
wrapped call is a span; spans are rolled up in memory per span name, and a
span's *self time* is its duration minus the time its nested wrapped
children cover.  A span name's prefix up to the last dot is its layer.

The wrappers cost time (tens of percent on the GF(2) solver), which is why
end-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List

#: Per-layer metric name -> (span whose time it reports, "self" | "total").
SPAN_TIMES = {
    "circuits.atpg.run_s": ("circuits.atpg.run", "total"),
    "circuits.fault_sim.grade_s": ("circuits.fault_sim.grade", "total"),
    "encoding.encode_s": ("encoding.encode", "total"),
    "encoding.precompute_s": ("encoding.precompute", "self"),
    "encoding.search_s": ("encoding.encode", "self"),
    "encoding.verify_s": ("encoding.verify", "self"),
    "gf2.try_positions_packed_s": ("gf2.try_positions_packed", "self"),
    "gf2.try_augmented_s": ("gf2.try_augmented", "self"),
    "gf2.try_masks_s": ("gf2.try_masks", "self"),
    "gf2.commit_s": ("gf2.commit", "self"),
    "context.substrate_build_s": ("context.substrate_build", "self"),
    "context.expand_seeds_s": ("context.expand_seeds", "self"),
    "context.encode_hit_s": ("context.encode_hit", "self"),
    "skip.reduce_s": ("skip.reduce", "total"),
    "skip.build_embedding_map_s": ("skip.build_embedding_map", "self"),
    "skip.select_useful_segments_s": ("skip.select_useful_segments", "self"),
    "skip.schedule_s": ("skip.reduce", "self"),
    "decompressor.cost_s": ("decompressor.cost", "self"),
    "decompressor.simulate_s": ("decompressor.simulate", "self"),
    "decompressor.coverage_check_s": ("decompressor.coverage_check", "self"),
}

#: Wrapped stage span -> CompressionContext.stats.timings key it must match.
STAGE_SPANS = {
    "encode": ("encoding.encode", "context.encode_hit"),
    "reduce": ("skip.reduce",),
    "hardware": ("decompressor.cost",),
    "simulate": ("decompressor.replay",),
}


def layer_of(span: str) -> str:
    return span.rsplit(".", 1)[0]


class Tracer:
    """In-memory span rollup: total, self time and call count per span name."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: packed solver batches that ran without falling back to try_augmented
        self.batch_candidates = 0
        self.batches = 0
        # One frame per open span: [child seconds, nested try_augmented calls].
        self._stack: List[List[float]] = []

    def _open(self):
        frame = [0.0, 0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name: str, frame, start: float) -> None:
        duration = time.perf_counter() - start
        self._stack.pop()
        self.total[name] += duration
        self.self_time[name] += duration - frame[0]
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[0] += duration
            if name == "gf2.try_augmented":
                parent[1] += 1

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame, start = self._open()
            try:
                return function(*args, **kwargs)
            finally:
                self._close(name, frame, start)

        return traced

    def wrap_encode(self, function):
        """``pipeline.encode``; a context cache hit is context-layer work."""

        @functools.wraps(function)
        def traced(test_set, config=None, context=None, verify=True):
            hits = _encoding_hits(context)
            name = "encoding.encode"
            frame, start = self._open()
            try:
                result = function(test_set, config, context=context, verify=verify)
                if _encoding_hits(context) > hits:
                    name = "context.encode_hit"
                return result
            finally:
                self._close(name, frame, start)

        return traced

    def wrap_packed(self, function):
        """``try_positions_packed``, counting the candidates of real batches."""

        @functools.wraps(function)
        def traced(solver, words, rows_each):
            frame, start = self._open()
            try:
                return function(solver, words, rows_each)
            finally:
                self._close("gf2.try_positions_packed", frame, start)
                if not frame[1]:  # no per-candidate fallback
                    self.batches += 1
                    self.batch_candidates += words.shape[0] // rows_each

        return traced


def _encoding_hits(context) -> int:
    if context is None:
        return 0
    return context.stats.counters.get("encoding_hits", 0)


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced boundary."""
    from repro import pipeline
    from repro.circuits.atpg import PodemAtpg
    from repro.circuits.fault_sim import FaultSimulator
    from repro.decompressor.architecture import SimulationOutcome
    from repro.encoding.equations import EquationSystem
    from repro.encoding.substrate import EncoderSubstrate
    from repro.gf2.solve import IncrementalSolver
    from repro.skip import reduction

    def span(name):
        return lambda function: tracer.wrap(name, function)

    return [
        (pipeline, "encode", tracer.wrap_encode),
        (pipeline, "verify_encoding", span("encoding.verify")),
        (EquationSystem, "precompute_cube_words", span("encoding.precompute")),
        (IncrementalSolver, "try_positions_packed", tracer.wrap_packed),
        (IncrementalSolver, "try_augmented", span("gf2.try_augmented")),
        (IncrementalSolver, "try_masks", span("gf2.try_masks")),
        (IncrementalSolver, "commit", span("gf2.commit")),
        (EncoderSubstrate, "__init__", span("context.substrate_build")),
        (EquationSystem, "expand_seeds_packed", span("context.expand_seeds")),
        (pipeline, "reduce", span("skip.reduce")),
        (reduction, "build_embedding_map", span("skip.build_embedding_map")),
        (reduction, "select_useful_segments", span("skip.select_useful_segments")),
        (pipeline, "hardware", span("decompressor.cost")),
        (pipeline, "simulate", span("decompressor.replay")),
        (pipeline, "simulate_decompression", span("decompressor.simulate")),
        (SimulationOutcome, "uncovered_cubes", span("decompressor.coverage_check")),
        (PodemAtpg, "run", span("circuits.atpg.run")),
        (FaultSimulator, "simulate_vectors", span("circuits.fault_sim.grade")),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block, then restore."""
    originals = []
    try:
        for owner, attribute, factory in _targets(tracer):
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
