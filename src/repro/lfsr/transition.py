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

from repro.gf2.matrix import GF2Matrix
from repro.gf2.polynomial import GF2Polynomial
from repro.lru import LRUCache

#: Process-wide memo of ``A^k`` keyed by ``(matrix, exponent)``.  The
#: equation system (``A^r``) and the State Skip circuits (``A^k`` for every
#: swept speedup) ask for a handful of distinct powers per run; a miss is
#: one square-and-multiply (:meth:`GF2Matrix.power`).
_POWERS: LRUCache = LRUCache(512)


def transition_power(matrix: GF2Matrix, exponent: int) -> GF2Matrix:
    """``matrix ** exponent`` (non-negative), memoized process-wide."""
    key = (matrix, exponent)
    power = _POWERS.get(key)
    if power is None:
        power = matrix.power(exponent)
        _POWERS.put(key, power)
    return power


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
