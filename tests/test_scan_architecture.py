"""Tests for the scan-chain architecture mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scan.architecture import ScanArchitecture


class TestScanArchitecture:
    def test_basic_dimensions(self):
        arch = ScanArchitecture(num_cells=700, num_chains=32)
        assert arch.num_cells == 700
        assert arch.num_chains == 32
        assert arch.chain_length == 22  # ceil(700 / 32)
        assert arch.padded_cells == 704

    def test_chains_capped_by_cells(self):
        arch = ScanArchitecture(num_cells=5, num_chains=32)
        assert arch.num_chains == 5
        assert arch.chain_length == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanArchitecture(0, 32)
        with pytest.raises(ValueError):
            ScanArchitecture(10, 0)

    def test_mapping_roundtrip(self):
        arch = ScanArchitecture(num_cells=100, num_chains=8)
        for cell in range(100):
            chain = arch.chain_of(cell)
            depth = arch.depth_of(cell)
            assert depth * arch.num_chains + chain == cell

    def test_load_cycle_convention(self):
        arch = ScanArchitecture(num_cells=64, num_chains=8)
        # depth 0 (scan-in end) is filled by the last shift cycle.
        assert arch.load_cycle(0) == arch.chain_length - 1
        # The deepest cell of chain 0 is filled by cycle 0.
        deepest = (arch.chain_length - 1) * 8
        assert arch.load_cycle(deepest) == 0

    def test_cell_record(self):
        arch = ScanArchitecture(num_cells=64, num_chains=8)
        cell = arch.cell(13)
        assert cell.index == 13
        assert cell.chain == 5
        assert cell.depth == 1
        assert cell.load_cycle == arch.chain_length - 2

    def test_cells_iterator_covers_everything(self):
        arch = ScanArchitecture(num_cells=50, num_chains=7)
        cells = list(arch.cells())
        assert len(cells) == 50
        assert sorted(c.index for c in cells) == list(range(50))

    def test_cells_per_chain_balanced(self):
        arch = ScanArchitecture(num_cells=50, num_chains=7)
        counts = arch.cells_per_chain()
        assert sum(counts) == 50
        assert max(counts) - min(counts) <= 1

    def test_out_of_range_errors(self):
        arch = ScanArchitecture(num_cells=10, num_chains=3)
        with pytest.raises(IndexError):
            arch.chain_of(10)
        with pytest.raises(IndexError):
            arch.depth_of(-1)
        with pytest.raises(IndexError):
            arch.load_cycle(99)

    def test_padding_slot_rejected(self):
        arch = ScanArchitecture(num_cells=10, num_chains=3)
        # 10 cells over 3 chains -> r = 4, padding slots exist at depth 3:
        # no cell maps to chain 2, depth 3.
        assert arch.chain_length == 4
        slots = {(arch.chain_of(c), arch.depth_of(c)) for c in range(10)}
        assert (2, 3) not in slots


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=1, max_value=64),
)
def test_mapping_is_bijective(num_cells, num_chains):
    arch = ScanArchitecture(num_cells, num_chains)
    seen = set()
    for cell in range(num_cells):
        coord = (arch.chain_of(cell), arch.depth_of(cell))
        assert coord not in seen
        seen.add(coord)
        assert 0 <= arch.load_cycle(cell) < arch.chain_length
    assert arch.padded_cells >= num_cells
