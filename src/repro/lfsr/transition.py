"""LFSR transition matrices and their shared powers.

An LFSR with cells ``c0 .. c(n-1)`` is a linear finite-state machine: the next
state is ``A @ state`` for a fixed GF(2) matrix ``A`` determined by the LFSR
structure and its characteristic polynomial.  The linear expressions
``F_0^k .. F_{n-1}^k`` of the paper (equation (1)) are simply the rows of
``A^k``: integrating them as a second feedback network is what turns a normal
LFSR into a State Skip LFSR.

Conventions used throughout the library
---------------------------------------
* Cell ``c0`` is the cell whose output feeds the phase shifter first (and, in
  a plain single-output LFSR, the serial output).
* For the **Fibonacci** (external-XOR) form with characteristic polynomial
  ``p(x) = x^n + sum_{t in taps} x^t + 1`` the register shifts from high index
  to low index: ``c_i(t+1) = c_{i+1}(t)`` for ``i < n-1`` and the new value of
  ``c_{n-1}`` is the XOR of the tap cells.

The exact structure matters only for hardware-cost book-keeping; every
algorithm in the library works on the transition matrix alone.
"""

from __future__ import annotations

from typing import List

from repro.gf2.matrix import GF2Matrix, identity
from repro.gf2.polynomial import GF2Polynomial
from repro.lru import LRUCache


class TransitionPowerCache:
    """Memoized powers ``A^k`` of one transition matrix.

    Square-and-multiply on a shared ladder of ``A^(2^i)`` squares: the
    ladder is extended once and reused by every exponent, and fully
    assembled powers are memoized as well.  The equation-system and
    State Skip layers ask for many related exponents of the same matrix
    (``A^r``, ``A^(v*r)``, ``A^k`` for every sweep speedup ``k``), which
    makes both layers of reuse pay off.
    """

    #: Fully assembled powers memoized per matrix; bounded LRU-style so a
    #: long-lived process querying many distinct exponents (e.g. decompressor
    #: replays over many jump distances) cannot grow memory monotonically.
    #: The square ladder itself is only O(log max_exponent) and is kept.
    _MAX_MEMOIZED_POWERS = 512

    def __init__(self, matrix: GF2Matrix):
        if matrix.nrows != matrix.ncols:
            raise ValueError("matrix powers require a square matrix")
        self._matrix = matrix
        self._squares: List[GF2Matrix] = [matrix]
        self._powers = LRUCache(self._MAX_MEMOIZED_POWERS)
        self._powers.put(1, matrix)

    def power(self, exponent: int) -> GF2Matrix:
        """``A^exponent`` (non-negative), memoized."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent == 0:
            # Not served from the LRU: the square-and-multiply loop below
            # would produce None for an evicted 0-entry.
            return identity(self._matrix.ncols)
        cached = self._powers.get(exponent)
        if cached is not None:
            return cached
        while (1 << len(self._squares)) <= exponent:
            last = self._squares[-1]
            self._squares.append(last @ last)
        result = None
        e = exponent
        index = 0
        while e:
            if e & 1:
                square = self._squares[index]
                result = square if result is None else result @ square
            e >>= 1
            index += 1
        self._powers.put(exponent, result)
        return result


#: Process-wide power caches, keyed by matrix, bounded LRU-style.  The flows
#: touch a handful of distinct transition matrices (one per LFSR size in a
#: campaign), so a small bound keeps memory flat without losing reuse.
_POWER_CACHE_LIMIT = 16
_POWER_CACHES: LRUCache = LRUCache(_POWER_CACHE_LIMIT)


def power_cache(matrix: GF2Matrix) -> TransitionPowerCache:
    """The shared :class:`TransitionPowerCache` of ``matrix``."""
    cache = _POWER_CACHES.get(matrix)
    if cache is None:
        cache = TransitionPowerCache(matrix)
        _POWER_CACHES.put(matrix, cache)
    return cache


def transition_power(matrix: GF2Matrix, exponent: int) -> GF2Matrix:
    """``matrix ** exponent`` through the shared power cache."""
    return power_cache(matrix).power(exponent)


def _validate_polynomial(poly: GF2Polynomial) -> int:
    degree = poly.degree
    if degree < 2:
        raise ValueError("characteristic polynomial must have degree >= 2")
    if poly.coefficient(0) != 1:
        raise ValueError(
            "characteristic polynomial must have a non-zero constant term "
            "(otherwise the LFSR is singular)"
        )
    return degree


def fibonacci_transition_matrix(poly: GF2Polynomial) -> GF2Matrix:
    """Transition matrix of the Fibonacci (external-XOR) LFSR for ``poly``.

    ``c_i(t+1) = c_{i+1}(t)`` for ``i < n-1``;
    ``c_{n-1}(t+1) = XOR of c_t for every tap t of the polynomial`` (the
    constant term contributes cell ``c_0``; the ``x^n`` term is the register
    output itself and does not appear as a tap).
    """
    n = _validate_polynomial(poly)
    rows = []
    for i in range(n - 1):
        rows.append(1 << (i + 1))
    feedback = 0
    for exponent in poly.exponents():
        if exponent == n:
            continue
        feedback |= 1 << exponent
    rows.append(feedback)
    return GF2Matrix(n, n, rows)


def state_skip_expressions(transition: GF2Matrix, k: int) -> GF2Matrix:
    """The linear expressions ``F_0^k .. F_{n-1}^k`` of equation (1).

    Row ``i`` of the returned matrix gives ``c_i(t_{j+k})`` as a function of
    ``(c_0(t_j) .. c_{n-1}(t_j))`` for *any* cycle ``t_j`` -- this is the
    combinational function the State Skip circuit implements.
    """
    if k < 1:
        raise ValueError("speedup factor k must be at least 1")
    if transition.nrows != transition.ncols:
        raise ValueError("transition matrix must be square")
    return transition_power(transition, k)
