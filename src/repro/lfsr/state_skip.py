"""State Skip LFSRs (Section 3.1 of the paper).

A State Skip LFSR is a normal LFSR plus a *State Skip circuit*: a purely
combinational network computing the linear expressions ``F_0^k .. F_{n-1}^k``
of equation (1), i.e. the rows of ``A^k`` where ``A`` is the LFSR transition
matrix.  A 2:1 multiplexer in front of every cell selects which network drives
the cell's next value:

* **Normal mode** -- the characteristic-polynomial feedback (``A``), one state
  per clock.
* **State Skip mode** -- the State Skip circuit (``A^k``), ``k`` states per
  clock, skipping the ``k-1`` intermediate states.

The hardware overhead of the circuit is one XOR tree per cell whose fan-in is
the weight of the corresponding ``A^k`` row, plus the ``n`` multiplexers.  The
trees share no XOR gates, so this accounting does not yet reproduce Section 4
of the paper: for s13207's 24-bit LFSR it gives 216 GE at k = 12 and 572 GE at
k = 32 (``results/hardware_state_skip.txt``), where the paper reports 52 and
119 GE.  Shared-XOR synthesis and a skip-aware feedback polynomial are the
open work of direction 3 in ``ROADMAP.md``.
"""

from __future__ import annotations

from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix
from repro.lfsr.lfsr import LFSR, LFSRMode
from repro.lfsr.transition import state_skip_expressions


class StateSkipCircuit:
    """The combinational network implementing ``A^k``.

    The circuit is characterised entirely by the skip matrix; this class adds
    the XOR-tree size and the single-cycle evaluation used by
    :class:`StateSkipLFSR`.  Its gate-equivalent cost is
    :func:`repro.decompressor.hardware.state_skip_cost`.
    """

    def __init__(self, transition: GF2Matrix, k: int):
        if k < 2:
            raise ValueError(
                "a State Skip circuit needs k >= 2 (k = 1 is the normal feedback)"
            )
        self._k = k
        self._matrix = state_skip_expressions(transition, k)

    @property
    def k(self) -> int:
        """Speedup factor (number of states advanced per clock)."""
        return self._k

    @property
    def matrix(self) -> GF2Matrix:
        """The skip matrix ``A^k``."""
        return self._matrix

    @property
    def size(self) -> int:
        return self._matrix.ncols

    def evaluate(self, state: BitVector) -> BitVector:
        """The state ``k`` cycles after ``state``."""
        return self._matrix.mul_vector(state)

    def xor_gate_count(self) -> int:
        """Number of 2-input XOR gates in the per-cell XOR trees.

        A row of weight ``w`` needs ``w - 1`` two-input XORs (``w = 0`` or 1
        needs none: the cell is driven by constant 0 or a direct wire).
        """
        total = 0
        for i in range(self._matrix.nrows):
            weight = self._matrix.row(i).weight()
            if weight >= 2:
                total += weight - 1
        return total

    def __repr__(self) -> str:
        return f"StateSkipCircuit(size={self.size}, k={self._k})"


class StateSkipLFSR:
    """An LFSR with selectable Normal / State Skip operation.

    Parameters
    ----------
    lfsr:
        The underlying LFSR (its transition matrix defines Normal mode).
    k:
        Speedup factor of the State Skip circuit.
    """

    def __init__(self, lfsr: LFSR, k: int):
        self._lfsr = lfsr
        self._circuit = StateSkipCircuit(lfsr.transition, k)
        self._mode = LFSRMode.NORMAL

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def of_size(cls, size: int, k: int) -> "StateSkipLFSR":
        """Build from the default feedback polynomial for ``size``."""
        return cls(LFSR.of_size(size), k)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._lfsr.size

    @property
    def k(self) -> int:
        """Speedup factor of the integrated State Skip circuit."""
        return self._circuit.k

    @property
    def state(self) -> BitVector:
        return self._lfsr.state

    @property
    def lfsr(self) -> LFSR:
        """The underlying normal LFSR."""
        return self._lfsr

    @property
    def skip_circuit(self) -> StateSkipCircuit:
        return self._circuit

    @property
    def transition(self) -> GF2Matrix:
        return self._lfsr.transition

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def load(self, seed: BitVector) -> None:
        """Load a seed into the register."""
        self._lfsr.load(seed)

    def set_mode(self, mode: LFSRMode) -> None:
        """Drive the Normal / State Skip select signal."""
        if not isinstance(mode, LFSRMode):
            raise TypeError("mode must be an LFSRMode")
        self._mode = mode

    def step(self, cycles: int = 1) -> BitVector:
        """Advance ``cycles`` clock cycles in the current mode.

        In Normal mode every clock advances one state; in State Skip mode
        every clock advances ``k`` states.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        state = self._lfsr.state
        if self._mode is LFSRMode.NORMAL:
            state = self._lfsr.step(cycles)
        else:
            for _ in range(cycles):
                state = self._circuit.evaluate(state)
            self._lfsr.load(state)
        return state

    def __repr__(self) -> str:
        return (
            f"StateSkipLFSR(size={self.size}, k={self.k}, mode={self._mode.value})"
        )

