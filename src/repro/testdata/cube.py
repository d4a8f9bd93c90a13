"""Test cubes: partially specified test vectors.

A *test cube* is a test vector in which only some positions carry care bits
(0/1) and the rest are don't-cares (``X``).  Test cubes are the natural output
of ATPG without random fill and the natural input of every reseeding scheme:
only the specified bits generate encoding equations, and the don't-cares are
what makes high compression possible.

Cubes are stored sparsely (two packed integers: the care mask and the care
values) because realistic cubes specify only a few percent of their bits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class TestCube:
    """A partially specified test vector over ``num_cells`` positions."""

    #: Tell pytest this domain class is not a test-case class.
    __test__ = False

    __slots__ = ("_num_cells", "_care_mask", "_care_value")

    def __init__(self, num_cells: int, care_mask: int = 0, care_value: int = 0):
        if num_cells < 1:
            raise ValueError("num_cells must be positive")
        full = (1 << num_cells) - 1
        care_mask &= full
        self._num_cells = num_cells
        self._care_mask = care_mask
        self._care_value = care_value & care_mask

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "TestCube":
        """Parse a cube string of ``0``, ``1`` and ``X``/``x``/``-`` characters.

        Character ``i`` of the string is cell ``i``.
        """
        mask = 0
        value = 0
        for i, ch in enumerate(text):
            if ch in "xX-":
                continue
            if ch == "1":
                mask |= 1 << i
                value |= 1 << i
            elif ch == "0":
                mask |= 1 << i
            else:
                raise ValueError(f"invalid cube character {ch!r} at position {i}")
        if not text:
            raise ValueError("cube string must not be empty")
        return cls(len(text), mask, value)

    @classmethod
    def from_assignments(
        cls, num_cells: int, assignments: Dict[int, int]
    ) -> "TestCube":
        """Build from a mapping ``cell index -> 0/1``."""
        mask = 0
        value = 0
        for cell, bit in assignments.items():
            if not 0 <= cell < num_cells:
                raise IndexError(f"cell {cell} out of range for {num_cells} cells")
            if bit not in (0, 1):
                raise ValueError(f"cell {cell} assigned {bit!r}, expected 0 or 1")
            mask |= 1 << cell
            if bit:
                value |= 1 << cell
        return cls(num_cells, mask, value)

    @classmethod
    def fully_specified(cls, bits: Sequence[int]) -> "TestCube":
        """A cube with every position specified."""
        return cls.from_assignments(len(bits), {i: b for i, b in enumerate(bits)})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self._num_cells

    @property
    def care_mask(self) -> int:
        """Packed mask of specified positions."""
        return self._care_mask

    @property
    def care_value(self) -> int:
        """Packed values of the specified positions (0 elsewhere)."""
        return self._care_value

    def specified_count(self) -> int:
        """Number of specified (care) bits."""
        return self._care_mask.bit_count()

    def specified_cells(self) -> List[int]:
        """Indices of the specified positions, ascending."""
        out = []
        v = self._care_mask
        while v:
            low = v & -v
            out.append(low.bit_length() - 1)
            v ^= low
        return out

    def assignments(self) -> Dict[int, int]:
        """Mapping ``cell -> bit`` of the specified positions."""
        return {
            cell: (self._care_value >> cell) & 1 for cell in self.specified_cells()
        }

    def bit(self, cell: int) -> Optional[int]:
        """The value at ``cell``: 0, 1 or ``None`` for a don't-care."""
        if not 0 <= cell < self._num_cells:
            raise IndexError(f"cell {cell} out of range")
        if not (self._care_mask >> cell) & 1:
            return None
        return (self._care_value >> cell) & 1

    def density(self) -> float:
        """Fraction of positions that are specified."""
        return self.specified_count() / self._num_cells

    def is_empty(self) -> bool:
        """True when no position is specified."""
        return self._care_mask == 0

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def compatible(self, other: "TestCube") -> bool:
        """True when the cubes agree on every commonly specified position."""
        self._check_width(other)
        common = self._care_mask & other._care_mask
        return (self._care_value ^ other._care_value) & common == 0

    def contains(self, other: "TestCube") -> bool:
        """True when every specified bit of ``other`` is specified identically here."""
        self._check_width(other)
        if other._care_mask & ~self._care_mask:
            return False
        return (self._care_value ^ other._care_value) & other._care_mask == 0

    def matches_vector(self, vector_bits: int) -> bool:
        """True when a fully specified vector (packed int) covers this cube."""
        return (vector_bits ^ self._care_value) & self._care_mask == 0

    def _check_width(self, other: "TestCube") -> None:
        if self._num_cells != other._num_cells:
            raise ValueError(
                f"cube width mismatch: {self._num_cells} vs {other._num_cells}"
            )

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def fill(self, fill_bits: int) -> int:
        """Fully specify the cube using ``fill_bits`` for the don't-cares.

        Returns the packed fully specified vector.
        """
        full = (1 << self._num_cells) - 1
        return (self._care_value & self._care_mask) | (fill_bits & ~self._care_mask & full)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestCube):
            return NotImplemented
        return (
            self._num_cells == other._num_cells
            and self._care_mask == other._care_mask
            and self._care_value == other._care_value
        )

    def __hash__(self) -> int:
        return hash((self._num_cells, self._care_mask, self._care_value))

    def __repr__(self) -> str:
        if self._num_cells <= 64:
            return f"TestCube('{self.to_string()}')"
        return (
            f"TestCube(cells={self._num_cells}, "
            f"specified={self.specified_count()})"
        )

    def to_string(self) -> str:
        """Cube as a string of ``0``/``1``/``X`` characters (cell 0 first)."""
        chars = []
        for i in range(self._num_cells):
            if (self._care_mask >> i) & 1:
                chars.append("1" if (self._care_value >> i) & 1 else "0")
            else:
                chars.append("X")
        return "".join(chars)
