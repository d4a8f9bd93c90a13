"""The phase-shifter retry loop every encode goes through.

:func:`encode_with_retries` takes each attempt's
:class:`~repro.encoding.substrate.EncoderSubstrate` -- the LFSR with the
library's default primitive feedback polynomial, the phase shifter, the scan
architecture and the equation system -- from a caller-supplied source
(:meth:`~repro.context.CompressionContext.substrate`, which counts and times
each build, or the constructor itself) and runs the
:class:`~repro.encoding.window.WindowEncoder` on it.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.encoding.results import EncodingResult
from repro.encoding.substrate import EncoderSubstrate, SubstrateKey
from repro.encoding.window import EncodingError, WindowEncoder
from repro.telemetry import get_recorder
from repro.testdata.test_set import TestSet


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
    Each failed attempt emits one ``encode.phase_retry`` event to the active
    telemetry recorder (attempt, phase seed, LFSR size, window length and
    the first line of the error).

    ``substrate_source`` maps each attempt's :class:`SubstrateKey` to its
    substrate: :meth:`repro.context.CompressionContext.substrate` builds
    one and counts the build, :class:`EncoderSubstrate` just builds it.
    Returns the winning substrate with its encoding; raises a
    :class:`ValueError` when the densest cube specifies more bits than the
    LFSR has cells, and a descriptive :class:`EncodingError` chained to the
    last attempt's error when every attempt fails.
    """
    smax = test_set.max_specified()
    if smax > lfsr_size:
        raise ValueError(
            f"the densest cube specifies {smax} bits but the LFSR has only "
            f"{lfsr_size} cells; increase lfsr_size"
        )
    last_error: Optional[EncodingError] = None
    attempts = max_phase_retries + 1
    for attempt in range(attempts):
        substrate = substrate_source(
            SubstrateKey(
                num_cells=test_set.num_cells,
                num_scan_chains=num_scan_chains,
                lfsr_size=lfsr_size,
                window_length=window_length,
                phase_taps=phase_taps,
                phase_seed=phase_seed + attempt,
            )
        )
        encoder = WindowEncoder(substrate.equations, fill_seed=fill_seed)
        try:
            return substrate, encoder.encode(test_set)
        except EncodingError as error:
            last_error = error
            get_recorder().event(
                "encode.phase_retry",
                {
                    "attempt": attempt,
                    "phase_seed": phase_seed + attempt,
                    "lfsr_size": lfsr_size,
                    "window_length": window_length,
                    "error": str(error).partition("\n")[0],
                },
            )
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
