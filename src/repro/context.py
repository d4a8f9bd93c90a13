"""Shared caches for the staged compression pipeline.

Every paper artifact (Tables 1-4, Fig. 4) is a grid of runs over
circuits x (L, S, k), and two results of each encoding are what grid
neighbours share:

* the **encode-stage result** -- the seeds computed for one test set under
  one encode config.  It never depends on the State Skip parameters
  ``(S, k)``, so a warm (S, k) sweep skips the seed computation;
* the **cover** -- which window vector embeds which test cube, one bit per
  (cube, seed, window position).  Verification checks every deterministic
  embedding against it, and every (S, k) point's embedding map and
  useful-segment selection derive from it.

:class:`CompressionContext` owns a content-addressed cache for each and
counts hits, misses and per-stage wall time.  It also builds the algebraic
substrate of every encode attempt (the LFSR, the phase shifter and the
:class:`~repro.encoding.equations.EquationSystem`), counting and timing each
build; substrates are not cached, because no measured workload builds the
same one twice.  The staged pipeline functions in :mod:`repro.pipeline`
(``encode`` / ``reduce`` / ``hardware`` / ``simulate``) thread a context
through the flow; the campaign runner gives every worker one context per job
group so that an (S, k) sweep over one encoding pays for the seed
computation and the seed expansion exactly once.

All cache keys are content-addressed (plain value tuples), so a context is
safe to share across test sets, configs and campaign grids; caches are
bounded LRU-style so long-lived processes stay flat in memory.  A context is
**not** thread- or process-safe -- use one per worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.encoding.substrate import EncoderSubstrate, SubstrateKey
from repro.lru import LRUCache
from repro.skip.selection import build_cover
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.encoding.results import EncodingResult
    from repro.gf2.bitvec import BitVector
    from repro.testdata.test_set import TestSet

__all__ = [
    "CompressionContext",
    "ContextStats",
    "EncoderSubstrate",
    "SubstrateKey",
]


@dataclass
class _EncodingEntry:
    """One cached encode-stage result (see :meth:`CompressionContext`)."""

    substrate: EncoderSubstrate
    encoding: "EncodingResult"
    verified: bool


class ContextStats:
    """Cache hit/miss counters and per-stage wall-time accumulators.

    Since the telemetry subsystem landed this is a compatibility façade
    over a :class:`~repro.telemetry.metrics.MetricsRegistry`: counters are
    registry counters, timings are registry counters named ``<stage>_s``
    (the suffix :meth:`snapshot` always used on the wire).  The surface is
    ``count`` / ``add_timing`` / ``counters`` / ``snapshot`` / ``delta``,
    and a context's stats can be bound to a recorder's registry
    (``ContextStats(registry=...)``) so cache activity flows into campaign
    telemetry with no extra plumbing.
    """

    __slots__ = ("registry",)

    _TIMING_SUFFIX = "_s"

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()

    def count(self, name: str, delta: int = 1) -> None:
        self.registry.inc(name, delta)

    def add_timing(self, stage: str, seconds: float) -> None:
        self.registry.inc(f"{stage}{self._TIMING_SUFFIX}", seconds)

    @property
    def counters(self) -> Dict[str, int]:
        """Copy of the pure counters (timing accumulators excluded)."""
        return {
            name: value
            for name, value in self.registry.counters.items()
            if not name.endswith(self._TIMING_SUFFIX)
        }

    def snapshot(self) -> Dict[str, float]:
        """Flat copy of every counter and timing (timings as ``<stage>_s``)."""
        return self.registry.snapshot_counters()

    @staticmethod
    def delta(
        before: Dict[str, float], after: Dict[str, float]
    ) -> Dict[str, float]:
        """What happened between two :meth:`snapshot` calls (zeros dropped)."""
        out: Dict[str, float] = {}
        for name, value in after.items():
            diff = value - before.get(name, 0)
            if diff:
                out[name] = round(diff, 6) if isinstance(diff, float) else diff
        return out


class CompressionContext:
    """Content-addressed caches shared across staged compression runs.

    Parameters
    ----------
    caching:
        ``False`` turns both caches into a pass-through (each query is
        recomputed and counted as a miss) while keeping the stats and the
        staged API identical -- the cache-on/cache-off golden tests rely on
        this producing bit-identical reports.
    max_encodings / max_covers:
        LRU bounds of the two caches.
    stats:
        An externally owned :class:`ContextStats` to record into --
        campaign workers pass one bound to their recorder's metrics
        registry so cache counters stream back with job telemetry.

    The two caches:

    * ``encoding``: full encode-stage results (substrate + seeds +
      verification flag) by ``(test-set fingerprint, encode-relevant config
      key)`` -- this is what lets a warm (S, k) sweep skip the seed
      computation entirely;
    * ``cover``: the bit-packed cube x window-vector cover (:meth:`cover`)
      by ``(SubstrateKey, seed values, test-set fingerprint)`` -- built by
      verification or by the first reduction of an encoding, and read by
      every later one.
    """

    def __init__(
        self,
        caching: bool = True,
        max_encodings: int = 16,
        max_covers: int = 16,
        stats: Optional[ContextStats] = None,
    ):
        self.caching = caching
        self.stats = stats if stats is not None else ContextStats()
        self._encodings = LRUCache(max_encodings)
        self._covers = LRUCache(max_covers)

    # ------------------------------------------------------------------
    # Substrates
    # ------------------------------------------------------------------
    def substrate(self, key: SubstrateKey) -> EncoderSubstrate:
        """A new substrate of ``key``, counted and timed as a build."""
        self.stats.count("substrate_misses")
        start = time.perf_counter()
        substrate = EncoderSubstrate(key)
        self.stats.add_timing("substrate_build", time.perf_counter() - start)
        return substrate

    # ------------------------------------------------------------------
    # Encode-stage cache
    # ------------------------------------------------------------------
    def get_encoding(
        self, fingerprint: str, encode_key: str
    ) -> Optional[_EncodingEntry]:
        """Cached encode-stage entry for (test set, encode config), if any."""
        entry = (
            self._encodings.get((fingerprint, encode_key))
            if self.caching
            else None
        )
        if entry is None:
            self.stats.count("encoding_misses")
            return None
        self.stats.count("encoding_hits")
        return entry

    def put_encoding(
        self,
        fingerprint: str,
        encode_key: str,
        substrate: EncoderSubstrate,
        encoding: "EncodingResult",
        verified: bool,
    ) -> _EncodingEntry:
        entry = _EncodingEntry(
            substrate=substrate, encoding=encoding, verified=verified
        )
        if self.caching:
            self._encodings.put((fingerprint, encode_key), entry)
        return entry

    # ------------------------------------------------------------------
    # Cover cache
    # ------------------------------------------------------------------
    def cover(
        self, substrate: EncoderSubstrate, seeds: Sequence["BitVector"], test_set: "TestSet"
    ):
        """Which window vector of ``seeds`` embeds which cube, built at most once.

        Exactly :func:`repro.skip.selection.build_cover` over the seeds'
        expansion (:meth:`~repro.encoding.equations.EquationSystem.expand_seeds_packed`,
        timed as ``expand_seeds``): a ``(cubes, seeds, ceil(L / 8))`` uint8
        array holding one bit per (cube, seed, window position).  The
        result is shared -- treat it as immutable.
        """
        key = (substrate.key, tuple(seed.value for seed in seeds), test_set.fingerprint())
        cached = self._covers.get(key) if self.caching else None
        if cached is not None:
            self.stats.count("cover_hits")
            return cached
        self.stats.count("cover_misses")
        start = time.perf_counter()
        windows = substrate.equations.expand_seeds_packed(list(seeds))
        self.stats.add_timing("expand_seeds", time.perf_counter() - start)
        cover = build_cover(windows, test_set)
        if self.caching:
            self._covers.put(key, cover)
        return cover
