"""Linear feedback shift registers as linear finite-state machines.

The :class:`LFSR` class keeps the machinery deliberately general: any square
GF(2) transition matrix defines a valid linear FSM, and the reseeding
algorithms never look inside the matrix.  Convenience constructors build the
Fibonacci (external-XOR) structure from a characteristic polynomial, or for a
given size from the library's default primitive polynomial table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional

from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix
from repro.gf2.polynomial import GF2Polynomial
from repro.gf2.primitive import default_feedback_polynomial
from repro.lfsr.transition import fibonacci_transition_matrix


class LFSRMode(Enum):
    """Operating mode of a (State Skip) LFSR."""

    NORMAL = "normal"
    STATE_SKIP = "state_skip"


@dataclass(frozen=True)
class LFSRStructure:
    """Describes how an LFSR was constructed (for hardware book-keeping)."""

    style: str  # "fibonacci" or "custom"
    polynomial: Optional[GF2Polynomial]


class LFSR:
    """A linear finite-state machine over GF(2).

    Parameters
    ----------
    transition:
        Square transition matrix ``A``; the next state is ``A @ state``.
    initial_state:
        Optional initial contents; defaults to the all-zero state (callers are
        expected to load a seed before generating useful data).
    structure:
        Optional construction metadata used by the hardware cost model.
    """

    def __init__(
        self,
        transition: GF2Matrix,
        initial_state: Optional[BitVector] = None,
        structure: Optional[LFSRStructure] = None,
    ):
        if transition.nrows != transition.ncols:
            raise ValueError("LFSR transition matrix must be square")
        if transition.ncols < 2:
            raise ValueError("LFSR must have at least 2 cells")
        self._transition = transition
        self._size = transition.ncols
        if initial_state is None:
            initial_state = BitVector(self._size)
        if initial_state.length != self._size:
            raise ValueError("initial state length does not match LFSR size")
        self._state = initial_state
        self._structure = structure or LFSRStructure("custom", None)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def fibonacci(
        cls, polynomial: GF2Polynomial, initial_state: Optional[BitVector] = None
    ) -> "LFSR":
        """External-XOR LFSR for the given characteristic polynomial."""
        return cls(
            fibonacci_transition_matrix(polynomial),
            initial_state,
            LFSRStructure("fibonacci", polynomial),
        )

    @classmethod
    def of_size(cls, size: int) -> "LFSR":
        """A Fibonacci LFSR of the given size with the default polynomial."""
        return cls.fibonacci(default_feedback_polynomial(size))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of LFSR cells."""
        return self._size

    @property
    def transition(self) -> GF2Matrix:
        """The transition matrix ``A``."""
        return self._transition

    @property
    def state(self) -> BitVector:
        """Current register contents."""
        return self._state

    @property
    def polynomial(self) -> Optional[GF2Polynomial]:
        """The characteristic polynomial when known (Fibonacci form)."""
        return self._structure.polynomial

    def copy(self) -> "LFSR":
        """An independent copy sharing the (immutable) transition matrix."""
        return LFSR(self._transition, self._state, self._structure)

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def load(self, seed: BitVector) -> None:
        """Load a seed (parallel load of all cells)."""
        if seed.length != self._size:
            raise ValueError(
                f"seed length {seed.length} does not match LFSR size {self._size}"
            )
        self._state = seed

    def step(self, cycles: int = 1) -> BitVector:
        """Advance the register ``cycles`` clock cycles; return the new state."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        state = self._state
        for _ in range(cycles):
            state = self._transition.mul_vector(state)
        self._state = state
        return state

    def states(self, count: int) -> Iterator[BitVector]:
        """Yield the next ``count`` states, starting with the current one.

        The register is left pointing at the state *after* the last yielded
        one, matching the behaviour of free-running hardware.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            yield self._state
            self._state = self._transition.mul_vector(self._state)

    def run(self, count: int) -> List[BitVector]:
        """Collect the next ``count`` states into a list (see :meth:`states`)."""
        return list(self.states(count))

    def serial_output(self, cycles: int, cell: int = 0) -> List[int]:
        """Logic values of one cell over the next ``cycles`` clock cycles."""
        if not 0 <= cell < self._size:
            raise IndexError(f"cell {cell} out of range")
        return [state[cell] for state in self.states(cycles)]

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def period(self, limit: int = 1 << 20) -> int:
        """Period of the state sequence from the current (non-zero) state."""
        if self._state.is_zero():
            raise ValueError("the all-zero state has period 1 and is never used")
        start = self._state
        state = self._transition.mul_vector(start)
        steps = 1
        while state != start:
            state = self._transition.mul_vector(state)
            steps += 1
            if steps > limit:
                raise ValueError(f"period exceeds limit {limit}")
        return steps

    def is_maximal_length(self, limit: int = 1 << 20) -> bool:
        """True when the period from a non-zero state is ``2^n - 1``."""
        probe = LFSR(self._transition, BitVector.unit(self._size, 0), self._structure)
        return probe.period(limit=limit) == (1 << self._size) - 1

    def __repr__(self) -> str:
        return (
            f"LFSR(size={self._size}, style={self._structure.style!r}, "
            f"state={self._state.to_string()})"
        )
