"""Dense matrices over GF(2).

A :class:`GF2Matrix` stores each row as a packed Python integer (bit ``j`` of
row ``i`` is element ``(i, j)``).  This representation makes row operations
(the core of Gaussian elimination and of matrix multiplication by
row-combination) single integer XORs regardless of the column count, which is
ideal for the sizes used in LFSR reseeding (tens to a few hundred columns).

The matrices are the backbone of:

* LFSR transition matrices ``A`` and their powers ``A^k`` (the State Skip
  circuit),
* phase-shifter matrices ``P``,
* the per-cycle output-equation rows ``P · A^t`` used to encode test cubes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.gf2.bitvec import BitVector


class GF2Matrix:
    """A dense matrix over GF(2) with packed-integer rows."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, nrows: int, ncols: int, rows: Optional[Sequence[int]] = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self._ncols = ncols
        if rows is None:
            self._rows: List[int] = [0] * nrows
        else:
            if len(rows) != nrows:
                raise ValueError("row count mismatch")
            mask = (1 << ncols) - 1
            self._rows = [r & mask for r in rows]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GF2Matrix":
        """Build from a list of rows, each a list of 0/1 ints."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        packed = []
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError(f"row {i} has length {len(row)}, expected {ncols}")
            value = 0
            for j, bit in enumerate(row):
                if bit not in (0, 1):
                    raise ValueError(f"entry ({i},{j}) is {bit!r}, expected 0 or 1")
                if bit:
                    value |= 1 << j
            packed.append(value)
        return cls(nrows, ncols, packed)

    @classmethod
    def from_bitvectors(cls, rows: Sequence[BitVector]) -> "GF2Matrix":
        """Build from a list of equally long :class:`BitVector` rows."""
        nrows = len(rows)
        ncols = rows[0].length if nrows else 0
        for i, row in enumerate(rows):
            if row.length != ncols:
                raise ValueError(f"row {i} has length {row.length}, expected {ncols}")
        return cls(nrows, ncols, [row.value for row in rows])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "GF2Matrix":
        """Build from a list of columns, each a list of 0/1 ints."""
        ncols = len(columns)
        nrows = len(columns[0]) if ncols else 0
        rows = [[columns[j][i] for j in range(ncols)] for i in range(nrows)]
        return cls.from_rows(rows) if nrows else cls(0, ncols)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self._rows), self._ncols)

    def row(self, i: int) -> BitVector:
        """Row ``i`` as a :class:`BitVector`."""
        return BitVector(self._ncols, self._rows[i])

    def row_mask(self, i: int) -> int:
        """Row ``i`` as a packed integer (fast path for inner loops)."""
        return self._rows[i]

    def column(self, j: int) -> BitVector:
        """Column ``j`` as a :class:`BitVector`."""
        if not 0 <= j < self._ncols:
            raise IndexError(f"column {j} out of range")
        value = 0
        for i, row in enumerate(self._rows):
            if (row >> j) & 1:
                value |= 1 << i
        return BitVector(len(self._rows), value)

    def __getitem__(self, index: Tuple[int, int]) -> int:
        i, j = index
        if not 0 <= i < len(self._rows) or not 0 <= j < self._ncols:
            raise IndexError(f"index {index} out of range for shape {self.shape}")
        return (self._rows[i] >> j) & 1

    def to_lists(self) -> List[List[int]]:
        """The matrix as nested lists of 0/1 ints."""
        return [[(row >> j) & 1 for j in range(self._ncols)] for row in self._rows]

    def density(self) -> float:
        """Fraction of entries that are 1."""
        total = len(self._rows) * self._ncols
        if total == 0:
            return 0.0
        ones = sum(row.bit_count() for row in self._rows)
        return ones / total

    def total_weight(self) -> int:
        """Total number of 1 entries."""
        return sum(row.bit_count() for row in self._rows)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._ncols, tuple(self._rows)))

    def __xor__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return GF2Matrix(
            len(self._rows),
            self._ncols,
            [a ^ b for a, b in zip(self._rows, other._rows)],
        )

    __add__ = __xor__

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        """Matrix product over GF(2).

        Row ``i`` of the product is the XOR of the rows of ``other`` selected
        by the one-bits of row ``i`` of ``self``, which keeps the inner loop at
        one integer XOR per selected row.
        """
        if self._ncols != other.nrows:
            raise ValueError(
                f"inner dimension mismatch: {self.shape} @ {other.shape}"
            )
        other_rows = other._rows
        out_rows = []
        for row in self._rows:
            acc = 0
            v = row
            while v:
                low = v & -v
                acc ^= other_rows[low.bit_length() - 1]
                v ^= low
            out_rows.append(acc)
        return GF2Matrix(len(self._rows), other.ncols, out_rows)

    def mul_vector(self, vec: BitVector) -> BitVector:
        """Matrix-vector product ``self @ vec``."""
        if vec.length != self._ncols:
            raise ValueError(
                f"vector length {vec.length} does not match {self._ncols} columns"
            )
        value = 0
        mask = vec.value
        for i, row in enumerate(self._rows):
            if (row & mask).bit_count() & 1:
                value |= 1 << i
        return BitVector(len(self._rows), value)

    def vector_mul(self, vec: BitVector) -> BitVector:
        """Row-vector product ``vec @ self``."""
        if vec.length != len(self._rows):
            raise ValueError(
                f"vector length {vec.length} does not match {len(self._rows)} rows"
            )
        acc = 0
        v = vec.value
        while v:
            low = v & -v
            acc ^= self._rows[low.bit_length() - 1]
            v ^= low
        return BitVector(self._ncols, acc)

    def power(self, exponent: int) -> "GF2Matrix":
        """``self`` raised to a non-negative integer power (square matrices).

        Plain square-and-multiply with no memo;
        :func:`~repro.lfsr.transition.transition_power` memoizes it per
        ``(matrix, exponent)``.
        """
        if len(self._rows) != self._ncols:
            raise ValueError("matrix power requires a square matrix")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = identity(self._ncols)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def rank(self) -> int:
        """Rank over GF(2)."""
        rows = list(self._rows)
        rank = 0
        pivot_rows: List[int] = []
        for row in rows:
            cur = row
            for p in pivot_rows:
                high = 1 << (p.bit_length() - 1)
                if cur & high:
                    cur ^= p
            if cur:
                pivot_rows.append(cur)
                pivot_rows.sort(key=int.bit_length, reverse=True)
                rank += 1
        return rank

    # ------------------------------------------------------------------
    # Pretty printing
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"GF2Matrix(shape={self.shape}, density={self.density():.3f})"

    def to_string(self) -> str:
        """Multi-line 0/1 rendering of the matrix."""
        return "\n".join(
            "".join(str((row >> j) & 1) for j in range(self._ncols))
            for row in self._rows
        )


def identity(n: int) -> GF2Matrix:
    """The n-by-n identity matrix."""
    return GF2Matrix(n, n, [1 << i for i in range(n)])


def zeros(nrows: int, ncols: int) -> GF2Matrix:
    """An all-zero matrix."""
    return GF2Matrix(nrows, ncols)
