"""Tests for the equation system (equation construction and seed expansion)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.equations import EquationSystem
from repro.gf2.bitvec import BitVector
from repro.gf2.primitive import default_feedback_polynomial
from repro.lfsr.lfsr import LFSR
from repro.lfsr.phase_shifter import PhaseShifter
from repro.scan.architecture import ScanArchitecture
from repro.testdata.cube import TestCube


def make_system(num_cells=40, chains=8, lfsr_size=16, window=6, phase_seed=3):
    lfsr = LFSR.fibonacci(default_feedback_polynomial(lfsr_size))
    arch = ScanArchitecture(num_cells, chains)
    ps = PhaseShifter.construct(arch.num_chains, lfsr_size, seed=phase_seed)
    return EquationSystem(lfsr.transition, ps, arch, window), lfsr, ps, arch


class TestConstruction:
    def test_validation(self):
        lfsr = LFSR.of_size(8)
        arch = ScanArchitecture(20, 4)
        ps = PhaseShifter.construct(4, 8)
        with pytest.raises(ValueError):
            EquationSystem(lfsr.transition, ps, arch, 0)
        bad_ps = PhaseShifter.construct(4, 10)
        with pytest.raises(ValueError):
            EquationSystem(lfsr.transition, bad_ps, arch, 4)
        small_ps = PhaseShifter.construct(2, 8)
        with pytest.raises(ValueError):
            EquationSystem(lfsr.transition, small_ps, arch, 4)

    def test_properties(self):
        system, lfsr, ps, arch = make_system()
        assert system.lfsr_size == 16
        assert system.window_length == 6
        assert system.architecture is arch


class TestExpansion:
    def test_expansion_matches_direct_simulation(self):
        """Bulk numpy expansion equals step-by-step LFSR + phase shifter."""
        system, lfsr, ps, arch = make_system(num_cells=30, chains=5, lfsr_size=12,
                                             window=4)
        seed = BitVector(12, 0b101101110010)
        (window,) = system.expand_seeds([seed])
        # Direct simulation: for each window vector, run r cycles; the value
        # scanned into cell c is the phase-shifter output of c's chain at
        # cycle v*r + load_cycle(c).
        sim = LFSR(lfsr.transition, seed)
        outputs = []  # outputs[t] = phase shifter outputs at cycle t
        for _ in range(4 * arch.chain_length):
            outputs.append(ps.apply(sim.state))
            sim.step()
        for v in range(4):
            for cell in range(arch.num_cells):
                t = v * arch.chain_length + arch.load_cycle(cell)
                expected = outputs[t][arch.chain_of(cell)]
                assert (window[v] >> cell) & 1 == expected

    def test_expand_seeds_multiple(self):
        system, *_ = make_system()
        seeds = [BitVector(16, 0xBEEF), BitVector(16, 0x1234)]
        windows = system.expand_seeds(seeds)
        assert len(windows) == 2
        assert len(windows[0]) == 6
        assert windows[0] == system.expand_seeds([seeds[0]])[0]
        assert windows[1] == system.expand_seeds([seeds[1]])[0]

    def test_expand_empty(self):
        system, *_ = make_system()
        assert system.expand_seeds([]) == []

    def test_expand_length_check(self):
        system, *_ = make_system()
        with pytest.raises(ValueError):
            system.expand_seeds([BitVector(5, 0b10101)])

    def test_vector_at(self):
        system, *_ = make_system()
        seed = BitVector(16, 0xACE1)
        (window,) = system.expand_seeds([seed])
        vector = window[2]
        assert vector >> 40 == 0  # one bit per scan cell, nothing beyond
        packed = system.expand_seeds_packed([seed])[0, 2]
        assert all(
            (vector >> c) & 1 == (int(packed[c // 64]) >> (c % 64)) & 1
            for c in range(40)
        )


class TestCubeEquations:
    def test_equations_predict_expansion(self):
        """row(c, v) . seed equals the expanded bit for every cell/position."""
        system, *_ = make_system(num_cells=30, chains=6, lfsr_size=14, window=5)
        cube = TestCube.from_assignments(30, {0: 1, 7: 0, 13: 1, 29: 0})
        equations = system.cube_equations(cube)
        seed = BitVector(14, 0b10011011100101)
        (window,) = system.expand_seeds([seed])
        cells = cube.specified_cells()
        for v in range(5):
            for (mask, rhs), cell in zip(equations[v], cells):
                predicted = (mask & seed.value).bit_count() & 1
                actual = (window[v] >> cell) & 1
                assert predicted == actual
                assert rhs == cube.bit(cell)

    def test_equation_count_matches_specified_bits(self):
        system, *_ = make_system()
        cube = TestCube.from_assignments(40, {1: 1, 5: 0, 39: 1})
        equations = system.cube_equations(cube)
        assert len(equations) == system.window_length
        assert all(len(eqs) == 3 for eqs in equations)

    def test_width_check(self):
        system, *_ = make_system()
        with pytest.raises(ValueError):
            system.cube_equations(TestCube.from_assignments(10, {0: 1}))

    def test_position_bounds(self):
        system, *_ = make_system()
        cube = TestCube.from_assignments(40, {0: 1})
        with pytest.raises(IndexError):
            system.cube_equations_at(cube, 99)

    def test_cube_matches_consistency(self):
        system, *_ = make_system()
        seed = BitVector(16, 0x7B31)
        (window,) = system.expand_seeds([seed])
        # Build a cube straight from the expanded bits of position 3: it must
        # match there.
        bits = {c: (window[3] >> c) & 1 for c in (0, 9, 17, 33)}
        cube = TestCube.from_assignments(40, bits)
        assert cube.matches_vector(window[3])
        assert not cube.matches_vector(window[3] ^ (1 << 17))


# ----------------------------------------------------------------------
# Property: equations are always satisfied by the expansion, for random
# cubes, seeds and window positions.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_equations_consistent_with_expansion_property(data):
    system, *_ = make_system(num_cells=24, chains=4, lfsr_size=10, window=4)
    num_spec = data.draw(st.integers(min_value=1, max_value=8))
    cells = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=23),
            min_size=num_spec,
            max_size=num_spec,
            unique=True,
        )
    )
    assignments = {c: data.draw(st.integers(0, 1)) for c in cells}
    cube = TestCube.from_assignments(24, assignments)
    seed = BitVector(10, data.draw(st.integers(min_value=0, max_value=(1 << 10) - 1)))
    position = data.draw(st.integers(min_value=0, max_value=3))
    (window,) = system.expand_seeds([seed])
    equations = system.cube_equations_at(cube, position)
    satisfied = all(
        ((mask & seed.value).bit_count() & 1) == ((window[position] >> cell) & 1)
        for (mask, _), cell in zip(equations, cube.specified_cells())
    )
    assert satisfied
