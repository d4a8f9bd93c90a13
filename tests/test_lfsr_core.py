"""Tests for the LFSR, StateSkipLFSR and PhaseShifter classes."""

import pytest
from hypothesis import given, settings, strategies as st

from lfsr_fixtures import paper_example_matrix
from repro.decompressor.hardware import GateCostModel, state_skip_cost
from repro.gf2.bitvec import BitVector
from repro.gf2.primitive import primitive_polynomial
from repro.lfsr.lfsr import LFSR, LFSRMode
from repro.lfsr.phase_shifter import PhaseShifter
from repro.lfsr.state_skip import StateSkipCircuit, StateSkipLFSR
from repro.lfsr.transition import transition_power


def bits(text):
    return BitVector.from_string(text)


class TestLFSR:
    def test_requires_square_matrix(self):
        from repro.gf2.matrix import GF2Matrix

        with pytest.raises(ValueError):
            LFSR(GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]]))

    def test_requires_min_size(self):
        from repro.gf2.matrix import GF2Matrix

        with pytest.raises(ValueError):
            LFSR(GF2Matrix.from_rows([[1]]))

    def test_initial_state_defaults_to_zero(self):
        lfsr = LFSR.of_size(8)
        assert lfsr.state.is_zero()
        assert lfsr.size == 8

    def test_load_and_step(self):
        lfsr = LFSR(paper_example_matrix())
        lfsr.load(bits("1011"))
        state = lfsr.step()
        # c0'=c3=1, c1'=c0^c3=0, c2'=c1=0, c3'=c2^c3=0  -> "1000"
        assert state.to_string() == "1000"

    def test_load_length_check(self):
        lfsr = LFSR.of_size(6)
        with pytest.raises(ValueError):
            lfsr.load(bits("101"))

    def test_step_zero_cycles_is_noop(self):
        lfsr = LFSR(paper_example_matrix(), bits("1011"))
        assert lfsr.step(0) == bits("1011")

    def test_jump_matches_step(self):
        lfsr_a = LFSR.of_size(10)
        lfsr_b = LFSR.of_size(10)
        seed = BitVector(10, 0b1011001110)
        lfsr_a.load(seed)
        lfsr_b.load(seed)
        lfsr_a.step(37)
        jumped = transition_power(lfsr_b.transition, 37).mul_vector(seed)
        assert lfsr_a.state == jumped

    def test_run_returns_count_states_and_advances(self):
        lfsr = LFSR(paper_example_matrix(), bits("1011"))
        states = lfsr.run(3)
        assert len(states) == 3
        assert states[0] == bits("1011")
        # Register now points at the 4th state.
        assert lfsr.state == paper_example_matrix().power(3).mul_vector(bits("1011"))

    def test_serial_output_cell_range(self):
        lfsr = LFSR.of_size(5)
        with pytest.raises(IndexError):
            lfsr.serial_output(4, cell=9)

    def test_period_of_primitive_lfsr(self):
        lfsr = LFSR.fibonacci(primitive_polynomial(5), BitVector.unit(5, 0))
        assert lfsr.period() == 31
        assert lfsr.is_maximal_length()

    def test_period_rejects_zero_state(self):
        lfsr = LFSR.of_size(5)
        with pytest.raises(ValueError):
            lfsr.period()

    def test_copy_is_independent(self):
        lfsr = LFSR(paper_example_matrix(), bits("1011"))
        clone = lfsr.copy()
        clone.step()
        assert lfsr.state == bits("1011")

    def test_polynomial_exposed(self):
        poly = primitive_polynomial(7)
        assert LFSR.fibonacci(poly).polynomial == poly
        assert LFSR(paper_example_matrix()).polynomial is None


class TestStateSkipCircuit:
    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            StateSkipCircuit(paper_example_matrix(), 1)

    def test_paper_example_k2_rows(self):
        circuit = StateSkipCircuit(paper_example_matrix(), 2)
        assert set(circuit.matrix.row(0).support()) == {2, 3}
        assert set(circuit.matrix.row(1).support()) == {2}
        assert set(circuit.matrix.row(2).support()) == {0, 3}
        assert set(circuit.matrix.row(3).support()) == {1, 2, 3}

    def test_xor_gate_count_paper_example(self):
        circuit = StateSkipCircuit(paper_example_matrix(), 2)
        # Row weights 2,1,2,3 -> XOR gates 1+0+1+2 = 4
        assert circuit.xor_gate_count() == 4

    def test_cost_includes_muxes(self):
        circuit = StateSkipCircuit(paper_example_matrix(), 2)
        assert circuit.xor_gate_count() == 4
        assert circuit.size == 4  # one Normal/Skip multiplexer per cell
        model = GateCostModel(xor2=2.0, mux2=2.5)
        assert state_skip_cost(circuit, model) == pytest.approx(4 * 2.0 + 4 * 2.5)

    def test_evaluate_matches_power(self):
        circuit = StateSkipCircuit(paper_example_matrix(), 3)
        seed = bits("0110")
        assert circuit.evaluate(seed) == paper_example_matrix().power(3).mul_vector(seed)


class TestStateSkipLFSR:
    def test_modes_advance_correctly(self):
        ss = StateSkipLFSR(LFSR(paper_example_matrix()), k=2)
        ss.load(bits("1011"))
        ref = LFSR(paper_example_matrix(), bits("1011"))
        # Normal mode by default: one clock advances one state.
        assert ss.step() == ref.step()
        ss.set_mode(LFSRMode.STATE_SKIP)
        ss.step()
        # One skip-mode clock = two normal clocks.
        ref.step(2)
        assert ss.state == ref.state

    def test_set_mode_type_checked(self):
        ss = StateSkipLFSR.of_size(8, k=4)
        with pytest.raises(TypeError):
            ss.set_mode("normal")

    def test_run_skip_collects_every_kth_state(self):
        ss = StateSkipLFSR(LFSR(paper_example_matrix()), k=2)
        ss.load(bits("1011"))
        ss.set_mode(LFSRMode.STATE_SKIP)
        skip_states = [ss.state] + [ss.step() for _ in range(3)]
        ref = LFSR(paper_example_matrix(), bits("1011"))
        normal_states = ref.run(8)
        assert skip_states == normal_states[::2]

    def test_verify_skip_equivalence(self):
        # Five State Skip clocks equal 5 * k normal clocks (equation (1)).
        ss = StateSkipLFSR.of_size(12, k=7)
        seed = BitVector(12, 0b101101001011)
        ss.load(seed)
        ss.set_mode(LFSRMode.STATE_SKIP)
        normal = LFSR(ss.transition, seed)
        normal.step(5 * 7)
        assert ss.step(5) == normal.state

    def test_of_size_constructor(self):
        ss = StateSkipLFSR.of_size(16, k=8)
        assert ss.size == 16
        assert ss.k == 8
        assert state_skip_cost(ss.skip_circuit, GateCostModel()) > 0

    def test_cost_grows_with_k_on_average(self):
        # For a sparse feedback polynomial, A^k fills in as k grows, so the
        # State Skip circuit cost at k=16 exceeds the cost at k=2.
        lfsr = LFSR.of_size(24)
        model = GateCostModel()
        small, large = (
            state_skip_cost(StateSkipCircuit(lfsr.transition, k), model)
            for k in (2, 16)
        )
        assert large > small


class TestPhaseShifter:
    def test_identity_construction(self):
        ps = PhaseShifter.identity(6)
        assert ps.num_outputs == 6
        state = BitVector(6, 0b101001)
        assert ps.apply(state) == state

    def test_construct_full_rank(self):
        ps = PhaseShifter.construct(num_outputs=16, lfsr_size=24)
        assert ps.num_outputs == 16
        assert ps.lfsr_size == 24
        assert ps.matrix.rank() == 16

    def test_construct_more_outputs_than_cells(self):
        ps = PhaseShifter.construct(num_outputs=32, lfsr_size=20)
        assert ps.matrix.rank() == 20
        # All rows non-zero, tap count as requested.
        for j in range(32):
            assert 1 <= ps.matrix.row(j).weight() <= 3

    def test_construct_is_deterministic_for_same_seed(self):
        a = PhaseShifter.construct(8, 16, seed=7)
        b = PhaseShifter.construct(8, 16, seed=7)
        assert a.matrix == b.matrix

    def test_rejects_zero_rows(self):
        from repro.gf2.matrix import GF2Matrix

        with pytest.raises(ValueError):
            PhaseShifter(GF2Matrix.from_rows([[0, 0, 0], [1, 0, 1]]))

    def test_output_rows_match_apply(self):
        ps = PhaseShifter.construct(num_outputs=8, lfsr_size=12)
        lfsr = LFSR.of_size(12)
        seed = BitVector(12, 0b101100111010)
        lfsr.load(seed)
        lfsr.step(5)
        symbolic = lfsr.transition.power(5)
        rows = ps.matrix @ symbolic  # P A^5: the channels as seed functions
        assert rows.mul_vector(seed) == ps.apply(lfsr.state)

    def test_gate_cost(self):
        ps = PhaseShifter.construct(num_outputs=8, lfsr_size=12, taps_per_output=3)
        assert ps.xor_gate_count() == 8 * 2
        assert ps.xor_gate_count() * 2.0 == pytest.approx(32.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PhaseShifter.construct(0, 8)
        with pytest.raises(ValueError):
            PhaseShifter.construct(4, 1)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=4, max_value=12),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=1, max_value=6),
)
def test_skip_then_normal_commute(size, k, extra_steps):
    """Jumping k then stepping j equals stepping j then jumping k."""
    poly = primitive_polynomial(size)
    a = StateSkipLFSR(LFSR.fibonacci(poly), k)
    b = StateSkipLFSR(LFSR.fibonacci(poly), k)
    seed = BitVector(size, 0b1 | (1 << (size - 1)))
    a.load(seed)
    b.load(seed)
    a.set_mode(LFSRMode.STATE_SKIP)
    a.step()
    a.set_mode(LFSRMode.NORMAL)
    a.step(extra_steps)
    b.set_mode(LFSRMode.NORMAL)
    b.step(extra_steps)
    b.set_mode(LFSRMode.STATE_SKIP)
    b.step()
    assert a.state == b.state


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=10), st.integers(min_value=2, max_value=12))
def test_skip_lfsr_preserves_nonzero_states(size, k):
    """A^k is invertible, so skip mode never collapses a non-zero state to zero."""
    ss = StateSkipLFSR.of_size(size, k)
    ss.load(BitVector.unit(size, 0))
    ss.set_mode(LFSRMode.STATE_SKIP)
    for _ in range(20):
        ss.step()
        assert not ss.state.is_zero()
