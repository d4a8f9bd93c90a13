"""Scan-chain architecture of the core under test.

The decompressor of Fig. 1/Fig. 3 drives ``m`` balanced scan chains of length
``r``; one test vector is loaded in ``r`` shift cycles (all chains shift in
parallel).  The architecture object owns the mapping between the *flat* test
cube bit positions used by the test-data substrate (cell index
``0 .. num_cells-1``) and the physical (chain, depth) coordinates, and from
there the *shift cycle* at which each cell's value leaves the phase shifter.

Mapping convention
------------------
Cell ``c`` sits on chain ``c mod m`` at depth ``c div m``.  Depth 0 is the
scan-in end of the chain, so the bit destined for depth ``d`` is shifted in at
cycle ``r - 1 - d`` of the vector's load window (the deepest cell receives the
first shifted bit).  The exact convention is irrelevant to the compression
statistics -- any fixed bijection works -- but it is fixed here once and used
consistently by the encoder, the window expander and the decompressor
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List


@dataclass(frozen=True)
class ScanCell:
    """Physical placement of one test-cube bit position."""

    index: int
    chain: int
    depth: int
    load_cycle: int


class ScanArchitecture:
    """Balanced multi-chain scan structure.

    Parameters
    ----------
    num_cells:
        Number of meaningful scan cells (primary inputs + state elements of
        the core).  The last chain(s) are padded when ``num_cells`` is not a
        multiple of ``num_chains``; padding positions simply never carry
        specified bits.
    num_chains:
        Number of scan chains ``m`` (the paper uses 32 for every circuit).
    """

    def __init__(self, num_cells: int, num_chains: int = 32):
        if num_cells < 1:
            raise ValueError("num_cells must be positive")
        if num_chains < 1:
            raise ValueError("num_chains must be positive")
        self._num_cells = num_cells
        self._num_chains = min(num_chains, num_cells)
        self._chain_length = -(-num_cells // self._num_chains)  # ceil division

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of meaningful scan cells."""
        return self._num_cells

    @property
    def num_chains(self) -> int:
        """Number of scan chains ``m``."""
        return self._num_chains

    @property
    def chain_length(self) -> int:
        """Scan-chain length ``r`` (cycles needed to load one vector)."""
        return self._chain_length

    @property
    def padded_cells(self) -> int:
        """Total slots including padding (``m * r``)."""
        return self._num_chains * self._chain_length

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def chain_of(self, cell: int) -> int:
        """Scan chain that holds the given cell."""
        self._check_cell(cell)
        return cell % self._num_chains

    def depth_of(self, cell: int) -> int:
        """Depth of the cell within its chain (0 = scan-in end)."""
        self._check_cell(cell)
        return cell // self._num_chains

    def load_cycle(self, cell: int) -> int:
        """Shift cycle (0-based, within one vector load) that fills the cell."""
        return self._chain_length - 1 - self.depth_of(cell)

    def cell(self, index: int) -> ScanCell:
        """Full placement record for a cell."""
        return ScanCell(
            index=index,
            chain=self.chain_of(index),
            depth=self.depth_of(index),
            load_cycle=self.load_cycle(index),
        )

    def cells(self) -> Iterator[ScanCell]:
        """Iterate the placement of every meaningful cell."""
        for index in range(self._num_cells):
            yield self.cell(index)

    def cells_per_chain(self) -> List[int]:
        """Number of meaningful cells on each chain."""
        counts = [0] * self._num_chains
        for index in range(self._num_cells):
            counts[index % self._num_chains] += 1
        return counts

    def _check_cell(self, cell: int) -> None:
        if not 0 <= cell < self._num_cells:
            raise IndexError(
                f"cell {cell} out of range for {self._num_cells} scan cells"
            )

    def __repr__(self) -> str:
        return (
            f"ScanArchitecture(cells={self._num_cells}, "
            f"chains={self._num_chains}, length={self._chain_length})"
        )
