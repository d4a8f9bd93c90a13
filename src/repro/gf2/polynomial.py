"""Polynomials over GF(2).

Characteristic (feedback) polynomials of LFSRs live here.  A polynomial is
stored as a packed integer where bit ``i`` is the coefficient of ``x^i``, e.g.
``x^4 + x + 1`` is ``0b10011``.

The module provides multiplication, division with remainder, gcd and a
Rabin-style irreducibility test, all with plain integer bit tricks so that
degrees in the hundreds remain instantaneous.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def _poly_degree(value: int) -> int:
    """Degree of a packed polynomial; -1 for the zero polynomial."""
    return value.bit_length() - 1


def _poly_mul(a: int, b: int) -> int:
    """Carry-less (GF(2)) multiplication of packed polynomials."""
    result = 0
    shift = 0
    while b:
        if b & 1:
            result ^= a << shift
        b >>= 1
        shift += 1
    return result


def _poly_divmod(a: int, b: int) -> Tuple[int, int]:
    """Quotient and remainder of packed polynomial division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    deg_b = _poly_degree(b)
    quotient = 0
    remainder = a
    while True:
        deg_r = _poly_degree(remainder)
        if deg_r < deg_b:
            break
        shift = deg_r - deg_b
        quotient ^= 1 << shift
        remainder ^= b << shift
    return quotient, remainder


def _poly_mod(a: int, b: int) -> int:
    return _poly_divmod(a, b)[1]


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _poly_mulmod(a: int, b: int, modulus: int) -> int:
    return _poly_mod(_poly_mul(a, b), modulus)


class GF2Polynomial:
    """A polynomial over GF(2) in packed-integer representation."""

    __slots__ = ("_value",)

    def __init__(self, value: int):
        if value < 0:
            raise ValueError("polynomial value must be non-negative")
        self._value = value

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "GF2Polynomial":
        """Build from the exponents with non-zero coefficients.

        ``from_exponents([4, 1, 0])`` is ``x^4 + x + 1``.
        """
        value = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be non-negative")
            value ^= 1 << e
        return cls(value)

    @classmethod
    def from_coefficients(cls, coefficients: Sequence[int]) -> "GF2Polynomial":
        """Build from a coefficient list, index ``i`` multiplying ``x^i``."""
        value = 0
        for i, c in enumerate(coefficients):
            if c not in (0, 1):
                raise ValueError(f"coefficient {i} is {c!r}, expected 0 or 1")
            if c:
                value |= 1 << i
        return cls(value)

    @classmethod
    def zero(cls) -> "GF2Polynomial":
        return cls(0)

    @classmethod
    def one(cls) -> "GF2Polynomial":
        return cls(1)

    @classmethod
    def x(cls) -> "GF2Polynomial":
        return cls(2)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        """Packed integer representation."""
        return self._value

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return _poly_degree(self._value)

    def exponents(self) -> List[int]:
        """Exponents with non-zero coefficients, descending."""
        out = []
        v = self._value
        while v:
            low = v & -v
            out.append(low.bit_length() - 1)
            v ^= low
        return sorted(out, reverse=True)

    def coefficient(self, exponent: int) -> int:
        """Coefficient of ``x^exponent``."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return (self._value >> exponent) & 1

    def weight(self) -> int:
        """Number of non-zero terms."""
        return self._value.bit_count()

    def is_zero(self) -> bool:
        return self._value == 0

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "GF2Polynomial") -> "GF2Polynomial":
        return GF2Polynomial(self._value ^ other._value)

    __sub__ = __add__
    __xor__ = __add__

    def __mul__(self, other: "GF2Polynomial") -> "GF2Polynomial":
        return GF2Polynomial(_poly_mul(self._value, other._value))

    def __mod__(self, other: "GF2Polynomial") -> "GF2Polynomial":
        return GF2Polynomial(_poly_mod(self._value, other._value))

    def __floordiv__(self, other: "GF2Polynomial") -> "GF2Polynomial":
        return GF2Polynomial(_poly_divmod(self._value, other._value)[0])

    def divmod(self, other: "GF2Polynomial") -> Tuple["GF2Polynomial", "GF2Polynomial"]:
        q, r = _poly_divmod(self._value, other._value)
        return GF2Polynomial(q), GF2Polynomial(r)

    def gcd(self, other: "GF2Polynomial") -> "GF2Polynomial":
        return GF2Polynomial(_poly_gcd(self._value, other._value))

    def evaluate(self, point: int) -> int:
        """Evaluate at a point of GF(2) (0 or 1)."""
        if point not in (0, 1):
            raise ValueError("point must be 0 or 1")
        if point == 0:
            return self._value & 1
        return self._value.bit_count() & 1

    # ------------------------------------------------------------------
    # Structure tests
    # ------------------------------------------------------------------
    def is_irreducible(self) -> bool:
        """Rabin irreducibility test over GF(2).

        ``p`` of degree ``n`` is irreducible iff ``x^(2^n) == x (mod p)`` and,
        for every prime divisor ``q`` of ``n``, ``gcd(x^(2^(n/q)) - x, p) = 1``.
        """
        n = self.degree
        if n <= 0:
            return False
        if n == 1:
            return True
        if not (self._value & 1):
            return False  # divisible by x
        modulus = self._value
        # x^(2^n) mod p must equal x.
        t = 2  # polynomial "x"
        for _ in range(n):
            t = _poly_mulmod(t, t, modulus)
        if t != 2:
            return False
        for q in _prime_divisors(n):
            k = n // q
            t = 2
            for _ in range(k):
                t = _poly_mulmod(t, t, modulus)
            if _poly_gcd(t ^ 2, modulus) != 1:
                return False
        return True

    def is_primitive(self, max_order_check: int = 1 << 22) -> bool:
        """Check primitivity by exhaustive order computation.

        Only feasible for moderate degrees (the state space ``2^n - 1`` is
        walked); for larger degrees the curated table in
        :mod:`repro.gf2.primitive` is trusted and only irreducibility is
        verified.  Raises :class:`ValueError` when the order walk would exceed
        ``max_order_check`` steps.
        """
        n = self.degree
        if n <= 0 or not self.is_irreducible():
            return False
        period = (1 << n) - 1
        if period > max_order_check:
            raise ValueError(
                f"primitivity check for degree {n} needs {period} steps; "
                f"raise max_order_check to allow it"
            )
        modulus = self._value
        t = 2
        for step in range(1, period):
            if t == 1:
                return False  # order divides step < period
            t = _poly_mulmod(t, 2, modulus)
        return t == 1

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF2Polynomial):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(("GF2Polynomial", self._value))

    def __repr__(self) -> str:
        return f"GF2Polynomial({self})"

    def __str__(self) -> str:
        if self._value == 0:
            return "0"
        terms = []
        for e in self.exponents():
            if e == 0:
                terms.append("1")
            elif e == 1:
                terms.append("x")
            else:
                terms.append(f"x^{e}")
        return " + ".join(terms)


def _prime_divisors(n: int) -> List[int]:
    """Distinct prime divisors of a positive integer."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
