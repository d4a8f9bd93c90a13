"""Tests for transition matrices and symbolic LFSR simulation.

Includes an exact reproduction of the Fig. 2 example of the paper (both the
symbolic state table and the k = 2 State Skip relations).
"""

import pytest
from hypothesis import given, settings, strategies as st

from lfsr_fixtures import paper_example_matrix, symbolic_states
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import identity
from repro.gf2.polynomial import GF2Polynomial, _prime_divisors
from repro.gf2.primitive import primitive_polynomial
from repro.lfsr import transition
from repro.lfsr.lfsr import LFSR
from repro.lfsr.transition import (
    fibonacci_transition_matrix,
    state_skip_expressions,
    transition_power,
)


def bits(text):
    return BitVector.from_string(text)


class TestTransitionPowerCache:
    def test_matches_direct_matrix_power(self):
        matrix = paper_example_matrix()
        for exponent in [0, 1, 2, 3, 7, 15, 64, 1000]:
            assert transition_power(matrix, exponent) == matrix.power(exponent)

    def test_shared_cache_returns_same_objects(self):
        matrix = paper_example_matrix()
        assert transition_power(matrix, 12) == matrix.power(12)
        assert transition_power(matrix, 12) is transition_power(matrix, 12)
        # The memo is keyed by matrix content, not identity.
        assert transition_power(paper_example_matrix(), 12) is transition_power(
            matrix, 12
        )

    def test_power_zero_survives_lru_eviction(self):
        matrix = paper_example_matrix()
        # Query more distinct exponents than the memo retains (more than
        # 512), then power 0 must still be the identity.
        bound = transition._POWERS.bound
        assert bound >= 512
        for exponent in range(2, bound + 10):
            transition_power(matrix, exponent)
        assert transition_power(matrix, 0) == identity(matrix.ncols)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            transition_power(paper_example_matrix(), -1)


class TestPaperExample:
    """Fig. 2 of the paper: 4-bit LFSR, symbolic table and k = 2 skip."""

    def test_symbolic_state_table_matches_figure(self):
        # Figure's table: rows t0..t3, entries are linear expressions of
        # (a0, a1, a2, a3).  We encode each expression as the set of a-indices.
        A = paper_example_matrix()
        states = symbolic_states(A, 3)

        def cell_expr(t, cell):
            return set(states[t].row(cell).support())

        # t0: initial state
        assert cell_expr(0, 0) == {0}
        assert cell_expr(0, 1) == {1}
        assert cell_expr(0, 2) == {2}
        assert cell_expr(0, 3) == {3}
        # t1
        assert cell_expr(1, 0) == {3}
        assert cell_expr(1, 1) == {0, 3}
        assert cell_expr(1, 2) == {1}
        assert cell_expr(1, 3) == {2, 3}
        # t2
        assert cell_expr(2, 0) == {2, 3}
        assert cell_expr(2, 1) == {2}
        assert cell_expr(2, 2) == {0, 3}
        assert cell_expr(2, 3) == {1, 2, 3}
        # t3
        assert cell_expr(3, 0) == {1, 2, 3}
        assert cell_expr(3, 1) == {1}
        assert cell_expr(3, 2) == {2}
        assert cell_expr(3, 3) == {0, 1, 2}

    def test_state_skip_relations_for_k2(self):
        # The paper derives: c0(t+2) = c2 ^ c3, c1(t+2) = c2,
        # c2(t+2) = c0 ^ c3, c3(t+2) = c1 ^ c2 ^ c3.
        skip = state_skip_expressions(paper_example_matrix(), 2)
        assert set(skip.row(0).support()) == {2, 3}
        assert set(skip.row(1).support()) == {2}
        assert set(skip.row(2).support()) == {0, 3}
        assert set(skip.row(3).support()) == {1, 2, 3}

    def test_skip_mode_halves_the_sequence(self):
        # With initial state 1011 the skip-mode sequence visits every second
        # state of the normal-mode sequence.
        A = paper_example_matrix()
        seed = bits("1011")
        normal = LFSR(A, seed).run(8)
        skip = LFSR(state_skip_expressions(A, 2), seed).run(4)
        assert skip == normal[::2]


class TestConstructors:
    def test_fibonacci_structure(self):
        poly = GF2Polynomial.from_exponents([4, 1, 0])  # x^4 + x + 1
        A = fibonacci_transition_matrix(poly)
        # Shift part: c_i(t+1) = c_{i+1}(t)
        assert A.row(0).support() == [1]
        assert A.row(1).support() == [2]
        assert A.row(2).support() == [3]
        # Feedback: taps at x^1 and x^0 -> cells 1 and 0
        assert set(A.row(3).support()) == {0, 1}

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            fibonacci_transition_matrix(GF2Polynomial.from_exponents([1, 0]))

    def test_rejects_missing_constant_term(self):
        with pytest.raises(ValueError):
            fibonacci_transition_matrix(GF2Polynomial.from_exponents([4, 1]))

    def test_transition_matrices_are_invertible(self):
        poly = primitive_polynomial(8)
        assert fibonacci_transition_matrix(poly).rank() == 8


class TestSymbolicAndSequences:
    def test_symbolic_states_start_with_identity(self):
        A = paper_example_matrix()
        states = symbolic_states(A, 5)
        assert states[0] == identity(4)
        assert states[3] == A.power(3)
        assert len(states) == 6

    def test_symbolic_states_validation(self):
        with pytest.raises(ValueError):
            symbolic_states(paper_example_matrix(), -1)

    def test_state_skip_expressions_k1_is_transition(self):
        A = paper_example_matrix()
        assert state_skip_expressions(A, 1) == A

    def test_state_skip_expressions_rejects_k0(self):
        with pytest.raises(ValueError):
            state_skip_expressions(paper_example_matrix(), 0)

    def test_characteristic_order_of_primitive_polynomials(self):
        # The order of A is 2^n - 1: A^(2^n - 1) = I, and no proper divisor
        # (2^n - 1) / q of it, q prime, is an exponent that gives I.
        for degree in (3, 4, 5, 6, 7):
            A = fibonacci_transition_matrix(primitive_polynomial(degree))
            period = (1 << degree) - 1
            assert A.power(period) == identity(degree)
            for q in _prime_divisors(period):
                assert A.power(period // q) != identity(degree)


# ----------------------------------------------------------------------
# Property: the State Skip relations (equation (1)) hold for every i and
# every seed -- k skip-steps equal one jump by A^k from any state.
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=0, max_value=(1 << 10) - 1),
)
def test_state_skip_equivalence_property(degree, k, seed_value):
    poly = primitive_polynomial(degree)
    A = fibonacci_transition_matrix(poly)
    seed = BitVector(degree, seed_value)
    skip = state_skip_expressions(A, k)
    direct = skip.mul_vector(seed)
    stepped = seed
    for _ in range(k):
        stepped = A.mul_vector(stepped)
    assert direct == stepped


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=2, max_value=12))
def test_skip_matrix_is_invertible(degree, k):
    A = fibonacci_transition_matrix(primitive_polynomial(degree))
    assert state_skip_expressions(A, k).rank() == degree
