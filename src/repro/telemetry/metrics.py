"""Counters, gauges and log-scale histograms behind one registry.

The :class:`MetricsRegistry` is the store the instrumented layers write
into: the context caches (through the :class:`~repro.context.ContextStats`
compatibility façade), the pipeline stages, PODEM, the fault simulator and
the campaign runner.  The GF(2) solver is the exception: it counts into the
process-global ``repro.gf2.solve.SOLVER_STATS``, and
:func:`repro.pipeline.encode` copies the solver work of each call into
``context.stats``.  Three metric kinds cover them all:

* **counters** -- monotonically accumulated numbers.  Values are plain
  Python numbers, so counters double as wall-time accumulators (the
  convention throughout the package: a counter whose name ends in ``_s``
  is a seconds total, everything else is a count);
* **gauges** -- last-write-wins observations (worker-pool size, queue
  depth);
* **histograms** -- value distributions over **fixed log-scale buckets**
  (powers of two), so a D-frontier size or an undo-log depth is recorded
  in O(1) with a handful of integers and histograms from different
  processes merge bucket-wise without rebinning.

Everything serialises to plain dicts (:meth:`MetricsRegistry.snapshot_full`
/ :meth:`MetricsRegistry.merge`) so per-job metric deltas can ride the
campaign runner's existing result queue from worker to parent.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = ["Histogram", "MetricsRegistry"]

#: Default bucket exponent range: 2^-20 (~1e-6, microsecond-scale walls)
#: up to 2^30 (~1e9).  Values outside clamp into the edge buckets.
_MIN_EXP = -20
_MAX_EXP = 30


def _bucket_exponent(value: float) -> int:
    """The log2 bucket of ``value``: smallest ``e`` with ``value <= 2**e``.

    Non-positive values land in the lowest bucket (they carry no magnitude
    information; the histogram still counts them and tracks them in
    ``min``).
    """
    if value <= 0:
        return _MIN_EXP
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    # frexp keeps 0.5 <= mantissa < 1, so value <= 2**exponent with equality
    # exactly at powers of two -- those stay in their own bucket.
    if mantissa == 0.5:
        exponent -= 1
    return min(max(exponent, _MIN_EXP), _MAX_EXP)


class Histogram:
    """A fixed log2-bucket histogram with count/sum/min/max.

    Bucket ``e`` counts observations in ``(2**(e-1), 2**e]`` (non-positive
    observations fall into the lowest bucket).  Buckets are stored sparsely
    as ``{exponent: count}``, so an unused histogram costs a few dict slots
    and merging two histograms is a per-key addition -- no rebinning, no
    bucket-boundary configuration to keep in sync across processes.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        exponent = _bucket_exponent(value)
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket upper bounds (log-scale)."""
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = 0
        for exponent in sorted(self.buckets):
            seen += self.buckets[exponent]
            if seen >= target:
                return float(2**exponent)
        return float(self.max if self.max is not None else 0.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "buckets": {str(e): c for e, c in sorted(self.buckets.items())},
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, data: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`to_dict` form into this one."""
        for exponent, count in dict(data.get("buckets", {})).items():
            exponent = int(exponent)
            self.buckets[exponent] = self.buckets.get(exponent, 0) + int(count)
        self.count += int(data.get("count", 0))
        self.total += float(data.get("sum", 0.0))
        other_min = data.get("min")
        if other_min is not None and (self.min is None or other_min < self.min):
            self.min = other_min
        other_max = data.get("max")
        if other_max is not None and (self.max is None or other_max > self.max):
            self.max = other_max

    @staticmethod
    def diff(
        before: Dict[str, object], after: Dict[str, object]
    ) -> Dict[str, object]:
        """What was observed between two :meth:`to_dict` snapshots.

        Bucket counts and count/sum subtract exactly; min/max cannot be
        un-merged, so the *after* values are kept (a superset -- harmless
        for the aggregate views they feed).
        """
        before_buckets = {
            int(e): int(c) for e, c in dict(before.get("buckets", {})).items()
        }
        buckets = {}
        for exponent, count in dict(after.get("buckets", {})).items():
            delta = int(count) - before_buckets.get(int(exponent), 0)
            if delta:
                buckets[str(exponent)] = delta
        return {
            "buckets": buckets,
            "count": int(after.get("count", 0)) - int(before.get("count", 0)),
            "sum": float(after.get("sum", 0.0)) - float(before.get("sum", 0.0)),
            "min": after.get("min"),
            "max": after.get("max"),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms with snapshot/merge support."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, delta: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, float]:
        """Live view of the counter map (treat as read-only)."""
        return self._counters

    @property
    def gauges(self) -> Dict[str, float]:
        return self._gauges

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return self._histograms

    def snapshot_counters(self) -> Dict[str, float]:
        """Flat copy of every counter (the ContextStats snapshot form)."""
        return dict(self._counters)

    def snapshot_full(self) -> Dict[str, object]:
        """JSON-safe copy of the whole registry (counters/gauges/histograms)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self._histograms.items()
            },
        }

    @staticmethod
    def delta(
        before: Dict[str, object], after: Dict[str, object]
    ) -> Dict[str, object]:
        """What happened between two :meth:`snapshot_full` calls."""
        counters: Dict[str, float] = {}
        for name, value in after.get("counters", {}).items():
            diff = value - before.get("counters", {}).get(name, 0)
            if diff:
                counters[name] = diff
        histograms: Dict[str, object] = {}
        before_histograms = before.get("histograms", {})
        for name, data in after.get("histograms", {}).items():
            diff = Histogram.diff(before_histograms.get(name, {}), data)
            if diff["count"]:
                histograms[name] = diff
        return {
            "counters": counters,
            "gauges": dict(after.get("gauges", {})),
            "histograms": histograms,
        }

    def merge(self, payload: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot_full` / :meth:`delta` payload into this registry.

        Counters and histogram buckets add; gauges take the payload's value
        (last write wins).  This is how per-job metric deltas streamed from
        campaign workers accumulate in the parent's recorder.
        """
        for name, value in payload.get("counters", {}).items():
            self.inc(name, value)
        for name, value in payload.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, data in payload.get("histograms", {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.merge(data)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def hit_rates(self, suffix_hits: str = "_hits", suffix_misses: str = "_misses"
                  ) -> Dict[str, Tuple[float, float, float]]:
        """``{kind: (hits, total, rate)}`` for every ``*_hits``/``*_misses`` pair."""
        kinds: List[str] = sorted(
            {
                name[: -len(suffix_hits)]
                for name in self._counters
                if name.endswith(suffix_hits)
            }
            | {
                name[: -len(suffix_misses)]
                for name in self._counters
                if name.endswith(suffix_misses)
            }
        )
        rates: Dict[str, Tuple[float, float, float]] = {}
        for kind in kinds:
            hits = self._counters.get(f"{kind}{suffix_hits}", 0)
            total = hits + self._counters.get(f"{kind}{suffix_misses}", 0)
            if total:
                rates[kind] = (hits, total, hits / total)
        return rates
