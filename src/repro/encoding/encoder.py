"""Convenience front-end assembling the full reseeding encoder.

:class:`ReseedingEncoder` builds (or borrows) the
:class:`~repro.encoding.substrate.EncoderSubstrate` -- the LFSR with the
library's default primitive feedback polynomial, the phase shifter, the
scan architecture and the equation system -- and exposes a single
:meth:`~ReseedingEncoder.encode` call.  Passing a context-cached substrate
skips the expensive setup entirely (see
:class:`repro.context.CompressionContext`); the lower-level classes remain
available for callers that want to substitute their own hardware (e.g. a
custom transition matrix or a hand-crafted phase shifter).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.encoding.equations import EquationSystem
from repro.encoding.results import EncodingResult
from repro.encoding.substrate import EncoderSubstrate, SubstrateKey
from repro.encoding.window import EncodingError, WindowEncoder
from repro.lfsr.lfsr import LFSR
from repro.lfsr.phase_shifter import PhaseShifter
from repro.scan.architecture import ScanArchitecture
from repro.testdata.test_set import TestSet


class ReseedingEncoder:
    """Window-based LFSR-reseeding encoder for a fixed decompressor setup.

    Parameters
    ----------
    num_cells:
        Scan-cell count (test cube width) of the core under test.
    num_scan_chains:
        Number of scan chains (the paper uses 32).
    lfsr_size:
        LFSR size ``n``; must be at least the densest cube's specified-bit
        count for the encoding to succeed.
    window_length:
        Window size ``L`` (1 reproduces classical reseeding).
    phase_taps:
        XOR taps per phase-shifter output.
    phase_seed:
        RNG seed of the phase-shifter construction (fixed for
        reproducibility).
    fill_seed:
        RNG seed of the pseudo-random fill of free seed variables.
    batch_trials:
        Use the batched/residual-cached solvability scan (default); False
        selects the unbatched reference scan (bit-identical results).
    substrate:
        A prebuilt :class:`~repro.context.EncoderSubstrate` (e.g. from a
        :class:`~repro.context.CompressionContext` cache).  Its key must
        match the hardware parameters above; when omitted a fresh substrate
        is constructed.
    """

    def __init__(
        self,
        num_cells: int,
        num_scan_chains: int,
        lfsr_size: int,
        window_length: int,
        phase_taps: int = 3,
        phase_seed: int = 2008,
        fill_seed: int = 2008,
        batch_trials: bool = True,
        substrate: Optional[EncoderSubstrate] = None,
    ):
        key = SubstrateKey(
            num_cells=num_cells,
            num_scan_chains=num_scan_chains,
            lfsr_size=lfsr_size,
            window_length=window_length,
            phase_taps=phase_taps,
            phase_seed=phase_seed,
        )
        if substrate is None:
            substrate = EncoderSubstrate(key)
        elif substrate.key != key:
            raise ValueError(
                f"substrate key {substrate.key} does not match the encoder "
                f"parameters {key}"
            )
        self._substrate = substrate
        self._window_encoder = WindowEncoder(
            substrate.equations, fill_seed=fill_seed, batch_trials=batch_trials
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def substrate(self) -> EncoderSubstrate:
        return self._substrate

    @property
    def architecture(self) -> ScanArchitecture:
        return self._substrate.architecture

    @property
    def lfsr(self) -> LFSR:
        return self._substrate.lfsr

    @property
    def phase_shifter(self) -> PhaseShifter:
        return self._substrate.phase_shifter

    @property
    def equations(self) -> EquationSystem:
        return self._substrate.equations

    @property
    def window_length(self) -> int:
        return self._substrate.equations.window_length

    @property
    def lfsr_size(self) -> int:
        return self._substrate.equations.lfsr_size

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, test_set: TestSet) -> EncodingResult:
        """Run the window-based seed computation on a test set."""
        smax = test_set.max_specified()
        if smax > self.lfsr_size:
            raise ValueError(
                f"the densest cube specifies {smax} bits but the LFSR has only "
                f"{self.lfsr_size} cells; increase lfsr_size"
            )
        return self._window_encoder.encode(test_set)


def encode_with_retries(
    test_set: TestSet,
    substrate_source: Callable[[SubstrateKey], EncoderSubstrate],
    num_scan_chains: int,
    lfsr_size: int,
    window_length: int,
    phase_taps: int = 3,
    phase_seed: int = 2008,
    fill_seed: int = 2008,
    max_phase_retries: int = 4,
) -> Tuple[EncoderSubstrate, EncodingResult]:
    """Encode a test set, retrying with fresh phase shifters on hard conflicts.

    Structural linear dependencies occasionally make one cube unencodable for
    a particular phase shifter (the classical reseeding failure mode that the
    ``s_max`` margin guards against probabilistically).  When that happens
    the phase shifter is rebuilt with the next RNG seed -- attempt ``a``
    uses ``phase_seed + a`` -- and the encoding is retried, up to
    ``max_phase_retries`` times: exactly what a DFT engineer would do.

    ``substrate_source`` maps each attempt's :class:`SubstrateKey` to its
    substrate: :meth:`repro.context.CompressionContext.substrate` serves
    previously seen phase seeds from a cache, :class:`EncoderSubstrate`
    builds a fresh one.  Returns the winning substrate with its encoding;
    raises a descriptive :class:`EncodingError` chained to the last
    attempt's error when every attempt fails.
    """
    last_error: Optional[EncodingError] = None
    attempts = max_phase_retries + 1
    for attempt in range(attempts):
        key = SubstrateKey(
            num_cells=test_set.num_cells,
            num_scan_chains=num_scan_chains,
            lfsr_size=lfsr_size,
            window_length=window_length,
            phase_taps=phase_taps,
            phase_seed=phase_seed + attempt,
        )
        substrate = substrate_source(key)
        encoder = ReseedingEncoder(
            num_cells=key.num_cells,
            num_scan_chains=key.num_scan_chains,
            lfsr_size=key.lfsr_size,
            window_length=key.window_length,
            phase_taps=key.phase_taps,
            phase_seed=key.phase_seed,
            fill_seed=fill_seed,
            substrate=substrate,
        )
        try:
            return substrate, encoder.encode(test_set)
        except EncodingError as error:
            last_error = error
    if last_error is None:
        raise ValueError(
            f"no encoding attempt was made for {test_set.name!r}: "
            f"max_phase_retries={max_phase_retries} allows "
            f"{attempts} attempts"
        )
    raise EncodingError(
        f"all {attempts} phase-shifter attempts failed for "
        f"{test_set.name!r} (lfsr_size={lfsr_size}, "
        f"window_length={window_length}): {last_error}"
    ) from last_error


def encode_test_set(
    test_set: TestSet,
    window_length: int,
    num_scan_chains: int = 32,
    lfsr_size: Optional[int] = None,
    phase_taps: int = 3,
    phase_seed: int = 2008,
    fill_seed: int = 2008,
    max_phase_retries: int = 4,
) -> EncodingResult:
    """One-call window-based encoding of a test set.

    ``lfsr_size`` defaults to ``s_max + 8`` (margin over the densest cube).
    Hard conflicts are retried with fresh phase shifters
    (:func:`encode_with_retries`).
    """
    if lfsr_size is None:
        lfsr_size = test_set.max_specified() + 8
    _, encoding = encode_with_retries(
        test_set,
        EncoderSubstrate,
        num_scan_chains=num_scan_chains,
        lfsr_size=lfsr_size,
        window_length=window_length,
        phase_taps=phase_taps,
        phase_seed=phase_seed,
        fill_seed=fill_seed,
        max_phase_retries=max_phase_retries,
    )
    return encoding
