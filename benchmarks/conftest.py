"""Shared infrastructure of the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on the
calibrated synthetic test sets.  Because the expensive step (window-based
seed computation) is shared between many experiments -- Table 2, Table 4 and
the hardware experiments all reuse the encodings of Table 1 -- a session-scoped
:class:`Workbench` caches one encoding per (circuit, window length) and the
individual benchmarks only pay for the part they actually measure.

Scaling
-------
The paper's C implementation runs in minutes on the full Atalanta test sets;
this pure-Python reproduction uses *scaled* calibrated test sets by default
so the whole harness finishes in a few minutes.  Two environment variables
control the size:

``REPRO_BENCH_SCALE``
    Multiplier on the per-circuit default scales (default 1.0; e.g. 3.0 runs
    three times more cubes).
``REPRO_BENCH_FULL``
    Set to ``1`` to also run the largest window (L=500) configurations.

Every benchmark writes its measured-vs-published table to
``results/<name>.txt`` and prints it, so the regenerated tables are easy to
diff against the paper.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

import pytest

from repro.config import CompressionConfig
from repro.context import CompressionContext
from repro.encoding.results import EncodingResult
from repro.pipeline import StagedEncoding, encode, reduce
from repro.skip.reduction import ReductionResult
from repro.testdata.profiles import get_profile
from repro.testdata.synthetic import generate_test_set
from repro.testdata.test_set import TestSet

#: Default fraction of the calibrated cube count used per circuit.  The big
#: circuits get smaller fractions so the harness stays within minutes.
DEFAULT_SCALES: Dict[str, float] = {
    "s9234": 0.20,
    "s13207": 0.20,
    "s15850": 0.18,
    "s38417": 0.04,
    "s38584": 0.10,
}

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def bench_scale(circuit: str) -> float:
    multiplier = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return min(1.0, DEFAULT_SCALES[circuit] * multiplier)


def full_runs_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


class Workbench:
    """Session-wide cache of test sets and encodings.

    Every encoding and reduction runs through the staged pipeline
    (:func:`repro.pipeline.encode` / :func:`repro.pipeline.reduce`) on one
    shared :class:`~repro.context.CompressionContext`, so an (S, k) grid
    over one encoding expands its seeds and builds its cover once.
    """

    #: Window lengths a session encodes: classical (1), Tables 1-2 (50,
    #: 200, plus 500 in full runs) and Table 3 (300).
    WINDOWS = (1, 50, 200, 300, 500)

    def __init__(self):
        self._test_sets: Dict[str, TestSet] = {}
        # Sized so no encoding of the session is ever evicted: a miss
        # re-encodes (s38417 at L=200 takes ~3 s).
        pairs = len(DEFAULT_SCALES) * len(self.WINDOWS)
        self._context = CompressionContext(max_encodings=pairs, max_covers=pairs)

    # ------------------------------------------------------------------
    # Test sets
    # ------------------------------------------------------------------
    def test_set(self, circuit: str) -> TestSet:
        if circuit not in self._test_sets:
            profile = get_profile(circuit)
            self._test_sets[circuit] = generate_test_set(
                profile, seed=1, scale=bench_scale(circuit)
            )
        return self._test_sets[circuit]

    # ------------------------------------------------------------------
    # Encodings
    # ------------------------------------------------------------------
    def encoding(self, circuit: str, window_length: int) -> StagedEncoding:
        """The staged encoding of a circuit at one window size."""
        profile = get_profile(circuit)
        config = CompressionConfig(
            window_length=window_length,
            segment_size=1,
            num_scan_chains=profile.scan_chains,
            lfsr_size=profile.lfsr_size,
        )
        return encode(
            self.test_set(circuit), config, context=self._context, verify=False
        )

    def classical(self, circuit: str) -> EncodingResult:
        """Classical reseeding: the window-based encoder at L=1."""
        return self.encoding(circuit, 1).encoding

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def reduce(
        self,
        circuit: str,
        window_length: int,
        segment_size: int,
        speedup: int,
        **kwargs,
    ) -> ReductionResult:
        """State Skip reduction; ``kwargs`` are further config fields."""
        encoded = self.encoding(circuit, window_length)
        return reduce(
            encoded,
            encoded.config.with_updates(
                segment_size=segment_size, speedup=speedup, **kwargs
            ),
        )

    def best_reduction(
        self,
        circuit: str,
        window_length: int,
        segment_sizes: List[int],
        speedups: List[int],
    ) -> ReductionResult:
        """The (S, k) combination with the shortest test sequence (Table 2)."""
        best = None
        for segment_size in segment_sizes:
            for speedup in speedups:
                candidate = self.reduce(circuit, window_length, segment_size, speedup)
                if best is None or (
                    candidate.test_sequence_length < best.test_sequence_length
                ):
                    best = candidate
        return best


@pytest.fixture(scope="session")
def workbench() -> Workbench:
    return Workbench()


def publish(name: str, text: str) -> None:
    """Print a regenerated table and persist it under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n{text}")
