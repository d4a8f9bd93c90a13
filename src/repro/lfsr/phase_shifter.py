"""Phase shifters.

With ``m`` scan chains fed from an ``n``-bit LFSR (usually ``m > n``), driving
the chains straight from LFSR cells would make adjacent chains receive the
same bit stream shifted by one cycle, creating heavy structural correlation
and linear dependencies that hurt the encoding.  The classical fix -- used by
essentially every LFSR-reseeding scheme, including the paper's Fig. 1 -- is a
*phase shifter*: a small XOR network in which every scan-chain input is the
XOR of a few LFSR cells.

Formally the phase shifter is an ``m x n`` GF(2) matrix ``P``; at LFSR cycle
``t`` the scan-chain inputs are ``P @ A^t @ seed``, which is exactly the form
the encoding equations need.

The constructor here follows standard practice: every output XORs a fixed
number of distinct cells (3 by default), all tap sets are distinct, and -- as
far as ``m`` and ``n`` allow -- the first ``min(m, n)`` rows are linearly
independent so that single-vector systems of up to ``n`` specified bits remain
solvable with high probability.
"""

from __future__ import annotations

import random
from typing import List

from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix


class PhaseShifter:
    """A linear expansion network from LFSR cells to scan-chain inputs."""

    def __init__(self, matrix: GF2Matrix):
        if matrix.nrows == 0:
            raise ValueError("phase shifter needs at least one output")
        for i in range(matrix.nrows):
            if matrix.row(i).is_zero():
                raise ValueError(f"phase shifter output {i} is constant zero")
        self._matrix = matrix

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, size: int) -> "PhaseShifter":
        """Directly wire cell ``i`` to output ``i`` (no XOR network).

        Only valid when the number of scan chains equals the LFSR size; mostly
        useful in unit tests and tiny examples.
        """
        from repro.gf2.matrix import identity as gf2_identity

        return cls(gf2_identity(size))

    @classmethod
    def construct(
        cls,
        num_outputs: int,
        lfsr_size: int,
        taps_per_output: int = 3,
        seed: int = 2008,
        max_attempts: int = 200,
    ) -> "PhaseShifter":
        """Build a phase shifter with ``taps_per_output`` XOR taps per channel.

        The construction draws random distinct tap sets and retries until all
        rows are distinct and the row space has the maximum achievable rank
        (``min(num_outputs, lfsr_size)``).  The default RNG seed makes the
        construction reproducible, which the experiments rely on.
        """
        if num_outputs < 1:
            raise ValueError("num_outputs must be at least 1")
        if lfsr_size < 2:
            raise ValueError("lfsr_size must be at least 2")
        taps = min(taps_per_output, lfsr_size)
        if taps < 1:
            raise ValueError("taps_per_output must be at least 1")
        rng = random.Random(seed)
        target_rank = min(num_outputs, lfsr_size)
        for _ in range(max_attempts):
            rows: List[int] = []
            seen = set()
            for _ in range(num_outputs):
                row = cls._draw_row(rng, lfsr_size, taps, seen)
                seen.add(row)
                rows.append(row)
            matrix = GF2Matrix(num_outputs, lfsr_size, rows)
            if matrix.rank() == target_rank:
                return cls(matrix)
        raise RuntimeError(
            "failed to construct a full-rank phase shifter; "
            "increase max_attempts or taps_per_output"
        )

    @staticmethod
    def _draw_row(rng: random.Random, lfsr_size: int, taps: int, seen) -> int:
        """Draw a tap set not used before (falls back to reuse when exhausted)."""
        for _ in range(64):
            cells = rng.sample(range(lfsr_size), taps)
            row = 0
            for c in cells:
                row |= 1 << c
            if row not in seen:
                return row
        # Tap-set space exhausted (tiny LFSRs): allow a duplicate.
        cells = rng.sample(range(lfsr_size), taps)
        row = 0
        for c in cells:
            row |= 1 << c
        return row

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> GF2Matrix:
        """The ``m x n`` phase-shifter matrix ``P``."""
        return self._matrix

    @property
    def num_outputs(self) -> int:
        """Number of scan-chain channels driven."""
        return self._matrix.nrows

    @property
    def lfsr_size(self) -> int:
        return self._matrix.ncols

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def apply(self, state: BitVector) -> BitVector:
        """Channel values for a given LFSR state."""
        return self._matrix.mul_vector(state)

    # ------------------------------------------------------------------
    # Hardware cost
    # ------------------------------------------------------------------
    def xor_gate_count(self) -> int:
        """Two-input XOR gates needed by the network (w-1 per output of weight w)."""
        total = 0
        for i in range(self._matrix.nrows):
            weight = self._matrix.row(i).weight()
            if weight >= 2:
                total += weight - 1
        return total

    def __repr__(self) -> str:
        return (
            f"PhaseShifter(outputs={self.num_outputs}, "
            f"lfsr_size={self.lfsr_size})"
        )
