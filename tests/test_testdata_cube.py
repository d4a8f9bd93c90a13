"""Tests for test cubes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.testdata.cube import TestCube


class TestConstruction:
    def test_from_string(self):
        cube = TestCube.from_string("1X0-x1")
        assert cube.num_cells == 6
        assert cube.specified_count() == 3
        assert cube.bit(0) == 1
        assert cube.bit(1) is None
        assert cube.bit(2) == 0
        assert cube.bit(5) == 1

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            TestCube.from_string("10Z")
        with pytest.raises(ValueError):
            TestCube.from_string("")

    def test_from_assignments(self):
        cube = TestCube.from_assignments(8, {0: 1, 7: 0})
        assert cube.specified_cells() == [0, 7]
        assert cube.assignments() == {0: 1, 7: 0}

    def test_from_assignments_validation(self):
        with pytest.raises(IndexError):
            TestCube.from_assignments(4, {4: 1})
        with pytest.raises(ValueError):
            TestCube.from_assignments(4, {0: 2})

    def test_fully_specified(self):
        cube = TestCube.fully_specified([1, 0, 1])
        assert cube.specified_count() == 3
        assert cube.to_string() == "101"

    def test_to_string_roundtrip(self):
        text = "1XX01X10"
        assert TestCube.from_string(text).to_string() == text

    def test_value_outside_mask_is_dropped(self):
        cube = TestCube(4, care_mask=0b0011, care_value=0b1111)
        assert cube.care_value == 0b0011

    def test_num_cells_validation(self):
        with pytest.raises(ValueError):
            TestCube(0)


class TestRelations:
    def test_incompatible(self):
        a = TestCube.from_string("1X")
        b = TestCube.from_string("0X")
        assert not a.compatible(b)
        assert a.compatible(TestCube.from_string("X0"))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            TestCube.from_string("1X").compatible(TestCube.from_string("1XX"))

    def test_contains(self):
        big = TestCube.from_string("10X1")
        small = TestCube.from_string("1XX1")
        assert big.contains(small)
        assert not small.contains(big)
        assert big.contains(big)

    def test_matches_vector(self):
        cube = TestCube.from_string("1X0X")
        assert cube.matches_vector(0b1001)  # cells: 1,0,0,1 -> bit0=1, bit2=0
        assert not cube.matches_vector(0b0100)  # bit0=0 and bit2=1 both conflict

    def test_density(self):
        cube = TestCube.from_string("1XXX")
        assert cube.density() == pytest.approx(0.25)

    def test_is_empty(self):
        assert TestCube.from_string("XXX").is_empty()
        assert not TestCube.from_string("X1X").is_empty()


class TestTransformation:
    def test_fill(self):
        cube = TestCube.from_string("1X0X")
        filled = cube.fill(0b1111)
        # care bits preserved, don't-cares take the fill value.
        assert filled == 0b1011
        assert cube.matches_vector(filled)

    def test_equality_and_hash(self):
        a = TestCube.from_string("1X0")
        b = TestCube.from_string("1X0")
        assert a == b
        assert hash(a) == hash(b)
        assert a != TestCube.from_string("1X1")

    def test_repr_small_and_large(self):
        assert "1X0" in repr(TestCube.from_string("1X0"))
        big = TestCube.from_assignments(100, {5: 1})
        assert "specified=1" in repr(big)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
cube_strings = st.text(alphabet="01X", min_size=1, max_size=64)


@given(cube_strings)
def test_roundtrip_property(text):
    assert TestCube.from_string(text).to_string() == text.upper().replace("-", "X")


@given(cube_strings, st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_fill_always_matches(text, fill_bits):
    cube = TestCube.from_string(text)
    assert cube.matches_vector(cube.fill(fill_bits))


@given(cube_strings)
def test_compatibility_is_reflexive_and_symmetric(text):
    cube = TestCube.from_string(text)
    assert cube.compatible(cube)


@given(cube_strings, cube_strings)
@settings(max_examples=80)
def test_compatibility_symmetric(a_text, b_text):
    n = min(len(a_text), len(b_text))
    a = TestCube.from_string(a_text[:n])
    b = TestCube.from_string(b_text[:n])
    assert a.compatible(b) == b.compatible(a)
