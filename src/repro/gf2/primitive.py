"""Feedback polynomials for LFSRs.

LFSR reseeding wants maximum-length (primitive) characteristic polynomials so
that a window of ``L`` vectors never revisits a state and the pseudo-random
fill looks uniform.  This module provides:

* :data:`PRIMITIVE_TAPS` -- a curated table of feedback tap sets for degrees
  2..100, taken from the standard maximal-length LFSR tap tables (the same
  tables circulated in Xilinx XAPP 052 and textbooks).  Taps are given in the
  conventional 1-indexed form; entry ``[n, a, b, c]`` denotes the polynomial
  ``x^n + x^a + x^b + x^c + 1``.
* :func:`primitive_polynomial` -- return the table polynomial for a degree,
  verified irreducible; if the table entry is missing or fails verification,
  fall back to searching for an irreducible polynomial (irreducible
  non-primitive polynomials still have huge periods and are perfectly adequate
  for reseeding windows of a few thousand states).
* :func:`irreducible_polynomial` -- deterministic search for an irreducible
  polynomial of a given degree.
* :func:`default_feedback_polynomial` -- the policy used by the rest of the
  library (table first, search fallback).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.gf2.polynomial import GF2Polynomial

# Degree -> feedback taps (1-indexed, highest tap == degree implied in poly).
# Entry [a, b, ...] for degree n denotes x^n + x^a + x^b + ... + 1.
PRIMITIVE_TAPS: Dict[int, Tuple[int, ...]] = {
    2: (1,),
    3: (2,),
    4: (3,),
    5: (3,),
    6: (5,),
    7: (6,),
    8: (6, 5, 4),
    9: (5,),
    10: (7,),
    11: (9,),
    12: (6, 4, 1),
    13: (4, 3, 1),
    14: (5, 3, 1),
    15: (14,),
    16: (15, 13, 4),
    17: (14,),
    18: (11,),
    19: (6, 2, 1),
    20: (17,),
    21: (19,),
    22: (21,),
    23: (18,),
    24: (23, 22, 17),
    25: (22,),
    26: (6, 2, 1),
    27: (5, 2, 1),
    28: (25,),
    29: (27,),
    30: (6, 4, 1),
    31: (28,),
    32: (22, 2, 1),
    33: (20,),
    34: (27, 2, 1),
    35: (33,),
    36: (25,),
    37: (5, 4, 3, 2, 1),
    38: (6, 5, 1),
    39: (35,),
    40: (38, 21, 19),
    41: (38,),
    42: (41, 20, 19),
    43: (42, 38, 37),
    44: (43, 18, 17),
    45: (44, 42, 41),
    46: (45, 26, 25),
    47: (42,),
    48: (47, 21, 20),
    49: (40,),
    50: (49, 24, 23),
    51: (50, 36, 35),
    52: (49,),
    53: (52, 38, 37),
    54: (53, 18, 17),
    55: (31,),
    56: (55, 35, 34),
    57: (50,),
    58: (39,),
    59: (58, 38, 37),
    60: (59,),
    61: (60, 46, 45),
    62: (61, 6, 5),
    63: (62,),
    64: (63, 61, 60),
    65: (47,),
    66: (65, 57, 56),
    67: (66, 58, 57),
    68: (59,),
    69: (67, 42, 40),
    70: (69, 55, 54),
    71: (65,),
    72: (66, 25, 19),
    73: (48,),
    74: (73, 59, 58),
    75: (74, 65, 64),
    76: (75, 41, 40),
    77: (76, 47, 46),
    78: (77, 59, 58),
    79: (70,),
    80: (79, 43, 42),
    81: (77,),
    82: (79, 47, 44),
    83: (82, 38, 37),
    84: (71,),
    85: (84, 58, 57),
    86: (85, 74, 73),
    87: (74,),
    88: (87, 17, 16),
    89: (51,),
    90: (89, 72, 71),
    91: (90, 8, 7),
    92: (91, 80, 79),
    93: (91,),
    94: (73,),
    95: (84,),
    96: (94, 49, 47),
    97: (91,),
    98: (87,),
    99: (97, 54, 52),
    100: (63,),
}


def polynomial_from_taps(degree: int, taps: Tuple[int, ...]) -> GF2Polynomial:
    """Build ``x^degree + sum(x^tap) + 1`` from a tap tuple."""
    exponents = [degree, 0] + list(taps)
    return GF2Polynomial.from_exponents(exponents)


def irreducible_polynomial(degree: int, start: int = 0) -> GF2Polynomial:
    """Deterministically find an irreducible polynomial of the given degree.

    Candidates ``x^degree + (low-order part)`` are enumerated in increasing
    order of the low-order part, starting after ``start``; the first
    irreducible one is returned.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree == 1:
        return GF2Polynomial.from_exponents([1, 0])  # x + 1
    high = 1 << degree
    # Low part must be odd (constant term 1) otherwise divisible by x.
    low = max(1, start | 1)
    while low < high:
        candidate = GF2Polynomial(high | low)
        if candidate.is_irreducible():
            return candidate
        low += 2
    raise RuntimeError(f"no irreducible polynomial of degree {degree} found")


def primitive_polynomial(degree: int) -> GF2Polynomial:
    """A maximum-length feedback polynomial for the given degree.

    The curated table entry is used when it verifies as irreducible (a cheap
    guard against transcription errors); otherwise an irreducible polynomial
    is searched.  For degrees up to 20 primitivity of the table entry is
    verified exhaustively.
    """
    taps = PRIMITIVE_TAPS.get(degree)
    if taps is not None:
        poly = polynomial_from_taps(degree, taps)
        if poly.is_irreducible():
            if degree <= 20:
                if poly.is_primitive():
                    return poly
            else:
                return poly
    return irreducible_polynomial(degree)


def default_feedback_polynomial(degree: int) -> GF2Polynomial:
    """The feedback polynomial policy used across the library."""
    return primitive_polynomial(degree)
