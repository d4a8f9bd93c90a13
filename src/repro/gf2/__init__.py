"""GF(2) linear-algebra substrate.

Everything in the State Skip LFSR flow is linear algebra over the two-element
field GF(2): LFSR transition matrices, phase shifters, the seed-computation
linear systems and the State Skip circuit itself (the matrix ``A^k``).

The substrate provides:

* :class:`~repro.gf2.bitvec.BitVector` -- an immutable packed bit vector
  (seeds and LFSR states).
* :class:`~repro.gf2.matrix.GF2Matrix` -- a dense GF(2) matrix with
  multiplication, matrix-vector products, powers and rank.
* :class:`~repro.gf2.solve.IncrementalSolver` -- an augmented row-echelon
  basis that accepts equations one at a time, reports consistency and counts
  newly pinned (pivot) variables.  This is the work-horse of the window-based
  seed-computation algorithm.
* :mod:`~repro.gf2.polynomial` -- polynomial arithmetic over GF(2)
  (multiplication, division with remainder, gcd) and a Rabin irreducibility
  test.
* :mod:`~repro.gf2.primitive` -- a table of known primitive feedback
  polynomials plus a search fallback producing irreducible polynomials of any
  degree.
"""

from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix, identity, zeros
from repro.gf2.solve import Equation, IncrementalSolver, SolveOutcome
from repro.gf2.polynomial import GF2Polynomial
from repro.gf2.primitive import (
    default_feedback_polynomial,
    irreducible_polynomial,
    primitive_polynomial,
)

__all__ = [
    "BitVector",
    "GF2Matrix",
    "identity",
    "zeros",
    "Equation",
    "IncrementalSolver",
    "SolveOutcome",
    "GF2Polynomial",
    "default_feedback_polynomial",
    "irreducible_polynomial",
    "primitive_polynomial",
]
