"""LFSR machinery: normal LFSRs, State Skip LFSRs and phase shifters.

The paper's contribution lives in this package:

* :class:`~repro.lfsr.lfsr.LFSR` -- a linear finite-state machine defined by
  an arbitrary GF(2) transition matrix, with a Fibonacci (external-XOR)
  constructor.
* :class:`~repro.lfsr.state_skip.StateSkipLFSR` -- an LFSR augmented with the
  State Skip circuit implementing ``A^k``; it can advance either one state per
  clock (Normal mode) or ``k`` states per clock (State Skip mode).
* :class:`~repro.lfsr.phase_shifter.PhaseShifter` -- the linear network that
  spreads the LFSR cells onto the ``m`` scan-chain inputs while breaking the
  structural correlation of adjacent channels.
* :mod:`~repro.lfsr.transition` -- the Fibonacci transition matrix and the
  process-wide memo of transition-matrix powers ``A^k``
  (:func:`transition_power`).
"""

from repro.lfsr.lfsr import LFSR, LFSRMode
from repro.lfsr.phase_shifter import PhaseShifter
from repro.lfsr.state_skip import StateSkipCircuit, StateSkipLFSR
from repro.lfsr.transition import (
    fibonacci_transition_matrix,
    state_skip_expressions,
    transition_power,
)

__all__ = [
    "LFSR",
    "LFSRMode",
    "PhaseShifter",
    "StateSkipCircuit",
    "StateSkipLFSR",
    "fibonacci_transition_matrix",
    "state_skip_expressions",
    "transition_power",
]
