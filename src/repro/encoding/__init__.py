"""Window-based LFSR-reseeding seed computation.

This package implements the encoding side of the flow:

* :class:`~repro.encoding.equations.EquationSystem` -- turns the LFSR,
  phase shifter and scan architecture into per-(cube, window-position) linear
  systems, and expands seeds back into test vectors.
* :class:`~repro.encoding.window.WindowEncoder` -- the greedy multi-cube
  window-based seed-computation algorithm of Section 2 of the paper (the
  method of reference [11], which is also the "Orig." baseline of the
  evaluation).
* :func:`~repro.encoding.encoder.encode_with_retries` -- the phase-shifter
  retry loop every encode goes through, on a cached or fresh
  :class:`~repro.encoding.substrate.EncoderSubstrate`.

Classical LFSR reseeding, where every seed expands into a single test
vector, is the window length L = 1.
"""

from repro.encoding.equations import EquationSystem
from repro.encoding.results import CubeEmbedding, EncodingResult, SeedRecord
from repro.encoding.window import EncodingError, WindowEncoder
from repro.encoding.encoder import encode_with_retries
from repro.encoding.substrate import EncoderSubstrate, SubstrateKey

__all__ = [
    "EquationSystem",
    "CubeEmbedding",
    "EncodingResult",
    "SeedRecord",
    "EncodingError",
    "EncoderSubstrate",
    "SubstrateKey",
    "WindowEncoder",
    "encode_with_retries",
]
