"""Tests for the incremental GF(2) solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix
from repro.gf2.solve import Equation, IncrementalSolver, SolveOutcome


def _pack(coeff_bits):
    """Pack a left-to-right coefficient string where char i is variable i."""
    value = 0
    for i, ch in enumerate(coeff_bits):
        if ch == "1":
            value |= 1 << i
    return value


def eq(coeff_bits, rhs):
    """Shorthand for an Equation from a coefficient string (char i = var i)."""
    return Equation(_pack(coeff_bits), rhs)


def add_equations(solver, equations):
    """Try a batch and, if consistent, commit it."""
    trial = solver.try_equations(equations)
    if trial.consistent:
        solver.commit(trial)
    return trial


def rank(solver):
    """Pinned (pivot) variables of the committed system."""
    return solver.pivot_mask.bit_count()


def satisfies(solution, equations):
    """True when ``solution`` satisfies every equation."""
    return all(
        ((e.coeffs & solution.value).bit_count() & 1) == e.rhs for e in equations
    )


class TestEquation:
    def test_rejects_bad_rhs(self):
        with pytest.raises(ValueError):
            Equation(0b1, 2)

    def test_from_bitvector(self):
        e = Equation.from_bitvector(BitVector.from_string("101"), 1)
        assert e.coeffs == 0b101
        assert e.rhs == 1


class TestIncrementalSolver:
    def test_requires_positive_variables(self):
        with pytest.raises(ValueError):
            IncrementalSolver(0)

    def test_simple_consistent_system(self):
        solver = IncrementalSolver(3)
        # x0 ^ x1 = 1, x1 = 1, x2 = 0
        trial = add_equations(
            solver,
            [eq("110", 1), eq("010", 1), eq("001", 0)]
        )
        assert trial.consistent
        solution = solver.solution()
        assert solution.to_bits() == [0, 1, 0]

    def test_inconsistent_system_detected(self):
        solver = IncrementalSolver(2)
        assert add_equations(solver, [eq("10", 1)]).consistent
        trial = solver.try_equations([eq("10", 0)])
        assert trial.outcome is SolveOutcome.INCONSISTENT

    def test_try_does_not_commit(self):
        solver = IncrementalSolver(3)
        trial = solver.try_equations([eq("100", 1)])
        assert trial.consistent
        assert rank(solver) == 0
        solver.commit(trial)
        assert rank(solver) == 1

    def test_new_pivot_counting(self):
        solver = IncrementalSolver(4)
        add_equations(solver, [eq("1000", 1)])
        trial = solver.try_equations([eq("1100", 0), eq("0010", 1)])
        # x0 already pinned, so the batch pins x1 and x2 -> 2 new pivots.
        assert trial.consistent
        assert trial.new_pivots == 2

    def test_redundant_equation_adds_no_pivot(self):
        solver = IncrementalSolver(3)
        add_equations(solver, [eq("110", 1), eq("011", 0)])
        trial = solver.try_equations([eq("101", 1)])  # sum of the two
        assert trial.consistent
        assert trial.new_pivots == 0

    def test_free_variable_fill(self):
        solver = IncrementalSolver(4)
        add_equations(solver, [eq("1000", 1)])
        zeros_fill = solver.solution(free_fill=[0])
        ones_fill = solver.solution(free_fill=[1])
        assert zeros_fill[0] == 1 and ones_fill[0] == 1
        assert zeros_fill.to_bits()[1:] == [0, 0, 0]
        assert ones_fill.to_bits()[1:] == [1, 1, 1]

    def test_solution_satisfies_committed_equations(self):
        equations = [eq("1101", 1), eq("0110", 0), eq("0011", 1), eq("1000", 0)]
        solver = IncrementalSolver(4)
        trial = add_equations(solver, equations)
        assert trial.consistent
        solution = solver.solution(free_fill=[1, 0, 1])
        assert satisfies(solution, equations)

    def test_commit_inconsistent_rejected(self):
        solver = IncrementalSolver(2)
        trial = solver.try_equations([eq("10", 1), eq("10", 0)])
        with pytest.raises(ValueError):
            solver.commit(trial)

    def test_copy_is_independent(self):
        solver = IncrementalSolver(3)
        add_equations(solver, [eq("100", 1)])
        clone = solver.copy()
        add_equations(clone, [eq("010", 1)])
        assert rank(solver) == 1
        assert rank(clone) == 2

    def test_rank_and_free_variables(self):
        solver = IncrementalSolver(5)
        add_equations(solver, [eq("10000", 0), eq("01000", 1)])
        assert rank(solver) == 2
        assert 5 - rank(solver) == 3  # free variables
        assert solver.pivot_mask == 0b00011  # x0 and x1 pinned, x4 free

    def test_try_masks_matches_try_equations(self):
        solver = IncrementalSolver(4)
        add_equations(solver, [eq("1100", 1)])
        eqs = [eq("0110", 1), eq("0011", 0)]
        masks = [(e.coeffs, e.rhs) for e in eqs]
        t1 = solver.try_equations(eqs)
        t2 = solver.try_masks(masks)
        assert t1.outcome == t2.outcome
        assert t1.new_pivots == t2.new_pivots


class TestGaussianSolve:
    def test_solves_invertible_system(self):
        equations = [eq("110", 1), eq("011", 1), eq("001", 1)]
        solver = IncrementalSolver(3)
        assert add_equations(solver, equations).consistent
        solution = solver.solution()
        for e in equations:
            assert (BitVector(3, e.coeffs) & solution).weight() % 2 == e.rhs

    def test_returns_none_for_inconsistent(self):
        equations = [eq("110", 1), eq("110", 0)]
        assert not add_equations(IncrementalSolver(3), equations).consistent


# ----------------------------------------------------------------------
# Property-based tests: random systems derived from a known solution are
# always consistent and the solver's solution satisfies them.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=24),
    st.data(),
)
def test_random_satisfiable_systems(num_vars, data):
    secret_bits = data.draw(
        st.lists(st.integers(0, 1), min_size=num_vars, max_size=num_vars)
    )
    secret = BitVector.from_bits(secret_bits)
    num_eqs = data.draw(st.integers(min_value=1, max_value=2 * num_vars))
    equations = []
    for _ in range(num_eqs):
        coeff_bits = data.draw(
            st.lists(st.integers(0, 1), min_size=num_vars, max_size=num_vars)
        )
        coeffs = BitVector.from_bits(coeff_bits)
        equations.append(Equation(coeffs.value, coeffs.dot(secret)))
    solver = IncrementalSolver(num_vars)
    trial = add_equations(solver, equations)
    assert trial.consistent
    solution = solver.solution()
    assert satisfies(solution, equations)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=16),
    st.data(),
)
def test_incremental_matches_batch_rank(num_vars, data):
    """Adding equations one at a time gives the same rank as the matrix rank."""
    num_eqs = data.draw(st.integers(min_value=1, max_value=2 * num_vars))
    rows = [
        data.draw(st.lists(st.integers(0, 1), min_size=num_vars, max_size=num_vars))
        for _ in range(num_eqs)
    ]
    solver = IncrementalSolver(num_vars)
    for row in rows:
        coeffs = BitVector.from_bits(row)
        add_equations(solver, [Equation(coeffs.value, 0)])  # rhs 0: always consistent
    assert rank(solver) == GF2Matrix.from_rows(rows).rank()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=16), st.data())
def test_new_pivots_equals_rank_increase(num_vars, data):
    num_eqs = data.draw(st.integers(min_value=1, max_value=num_vars))
    secret_bits = data.draw(
        st.lists(st.integers(0, 1), min_size=num_vars, max_size=num_vars)
    )
    secret = BitVector.from_bits(secret_bits)
    solver = IncrementalSolver(num_vars)
    for _ in range(num_eqs):
        coeff_bits = data.draw(
            st.lists(st.integers(0, 1), min_size=num_vars, max_size=num_vars)
        )
        coeffs = BitVector.from_bits(coeff_bits)
        equation = Equation(coeffs.value, coeffs.dot(secret))
        before = rank(solver)
        trial = solver.try_equations([equation])
        solver.commit(trial)
        assert rank(solver) - before == trial.new_pivots
