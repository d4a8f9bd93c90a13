"""Unit and property tests for :mod:`repro.gf2.matrix`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix, identity, zeros


def random_matrix_strategy(max_dim=8):
    """Strategy producing small random GF(2) matrices."""
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(0, 1), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(GF2Matrix.from_rows)
        )
    )


def square_matrix_strategy(max_dim=7):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(GF2Matrix.from_rows)
    )


class TestConstruction:
    def test_from_rows_roundtrip(self):
        rows = [[1, 0, 1], [0, 1, 1]]
        mat = GF2Matrix.from_rows(rows)
        assert mat.to_lists() == rows
        assert mat.shape == (2, 3)

    def test_from_rows_ragged_rejected(self):
        with pytest.raises(ValueError):
            GF2Matrix.from_rows([[1, 0], [1]])

    def test_from_rows_non_binary_rejected(self):
        with pytest.raises(ValueError):
            GF2Matrix.from_rows([[1, 2]])

    def test_from_columns(self):
        mat = GF2Matrix.from_columns([[1, 0], [1, 1], [0, 1]])
        assert mat.to_lists() == [[1, 1, 0], [0, 1, 1]]

    def test_from_bitvectors(self):
        rows = [BitVector.from_string("101"), BitVector.from_string("011")]
        mat = GF2Matrix.from_bitvectors(rows)
        assert mat.to_lists() == [[1, 0, 1], [0, 1, 1]]

    def test_from_bitvectors_length_mismatch(self):
        with pytest.raises(ValueError):
            GF2Matrix.from_bitvectors(
                [BitVector.from_string("10"), BitVector.from_string("100")]
            )

    def test_identity_and_zeros(self):
        assert identity(3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert zeros(2, 3).to_lists() == [[0, 0, 0], [0, 0, 0]]

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GF2Matrix(-1, 2)


class TestAccess:
    def test_row_and_column(self):
        mat = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert mat.row(0).to_bits() == [1, 0, 1]
        assert mat.column(2).to_bits() == [1, 1]

    def test_getitem(self):
        mat = GF2Matrix.from_rows([[1, 0], [0, 1]])
        assert mat[0, 0] == 1
        assert mat[0, 1] == 0
        with pytest.raises(IndexError):
            _ = mat[2, 0]

    def test_density_and_weight(self):
        mat = GF2Matrix.from_rows([[1, 0], [1, 1]])
        assert mat.total_weight() == 3
        assert mat.density() == pytest.approx(0.75)

    def test_to_string(self):
        mat = GF2Matrix.from_rows([[1, 0], [0, 1]])
        assert mat.to_string() == "10\n01"


class TestAlgebra:
    def test_matmul_known(self):
        a = GF2Matrix.from_rows([[1, 1], [0, 1]])
        b = GF2Matrix.from_rows([[1, 0], [1, 1]])
        assert (a @ b).to_lists() == [[0, 1], [1, 1]]

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GF2Matrix.from_rows([[1, 0]]) @ GF2Matrix.from_rows([[1, 0]])

    def test_add(self):
        a = GF2Matrix.from_rows([[1, 1], [0, 1]])
        b = GF2Matrix.from_rows([[1, 0], [1, 1]])
        assert (a + b).to_lists() == [[0, 1], [1, 0]]

    def test_mul_vector(self):
        mat = GF2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
        vec = BitVector.from_string("110")
        assert mat.mul_vector(vec).to_bits() == [0, 1]

    def test_vector_mul(self):
        mat = GF2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
        vec = BitVector.from_string("11")
        assert mat.vector_mul(vec).to_bits() == [1, 0, 1]

    def test_power_known(self):
        # Companion-style matrix of x^2 + x + 1 has order 3.
        mat = GF2Matrix.from_rows([[0, 1], [1, 1]])
        assert mat.power(0) == identity(2)
        assert mat.power(3) == identity(2)
        assert mat.power(1) == mat

    def test_power_requires_square(self):
        with pytest.raises(ValueError):
            GF2Matrix.from_rows([[1, 0, 1]]).power(2)

    def test_rank(self):
        mat = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
        assert mat.rank() == 2  # third row is the sum of the first two


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(square_matrix_strategy())
def test_power_matches_repeated_matmul(mat):
    acc = identity(mat.ncols)
    for k in range(4):
        assert mat.power(k) == acc
        acc = acc @ mat


@settings(max_examples=40, deadline=None)
@given(square_matrix_strategy())
def test_rank_bounded_and_transpose_invariant(mat):
    r = mat.rank()
    assert 0 <= r <= mat.ncols
    assert GF2Matrix.from_columns(mat.to_lists()).rank() == r


@settings(max_examples=30, deadline=None)
@given(square_matrix_strategy(max_dim=6), square_matrix_strategy(max_dim=6))
def test_matmul_associativity_with_vector(a, b):
    if a.ncols != b.nrows:
        return
    vec = BitVector.ones(b.ncols)
    assert (a @ b).mul_vector(vec) == a.mul_vector(b.mul_vector(vec))
