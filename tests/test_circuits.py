"""Tests for the gate-level circuit substrate (netlist, simulation, faults,
fault simulation, ATPG, generation)."""

import pytest
from hypothesis import given, settings, strategies as st

from circuit_library import (
    builtin_circuits,
    c17,
    carry_ripple_adder,
    majority_voter,
    parity_tree,
)
from repro.circuits.atpg import PodemAtpg, generate_test_set_for_netlist
from repro.circuits.bench import parse_bench, write_bench
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.faults import (
    StuckAtFault,
    all_faults,
    collapse_faults,
    fault_coverage,
)
from repro.circuits.generator import random_netlist
from repro.circuits.netlist import Gate, GateType, Netlist
from repro.circuits.simulator import (
    X,
    pack_patterns,
    simulate,
    simulate_parallel,
    simulate_ternary,
)


class TestNetlist:
    def test_c17_structure(self):
        net = c17()
        assert net.num_inputs == 5
        assert net.num_outputs == 2
        assert net.num_gates == 6
        assert net.depth() == 3
        assert net.stats()["gates"] == 6

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Netlist("bad", [], ["z"], [Gate("z", GateType.NOT, ("a",))])
        with pytest.raises(ValueError):
            Netlist("bad", ["a"], [], [Gate("z", GateType.NOT, ("a",))])
        with pytest.raises(ValueError):
            # undriven net
            Netlist("bad", ["a"], ["z"], [Gate("z", GateType.AND, ("a", "q"))])
        with pytest.raises(ValueError):
            # double driver
            Netlist(
                "bad",
                ["a", "b"],
                ["z"],
                [Gate("z", GateType.NOT, ("a",)), Gate("z", GateType.NOT, ("b",))],
            )

    def test_combinational_loop_detected(self):
        with pytest.raises(ValueError):
            Netlist(
                "loop",
                ["a"],
                ["x"],
                [
                    Gate("x", GateType.AND, ("a", "y")),
                    Gate("y", GateType.NOT, ("x",)),
                ],
            )

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("z", GateType.NOT, ("a", "b"))
        with pytest.raises(ValueError):
            Gate("z", GateType.AND, ("a",))
        with pytest.raises(ValueError):
            Gate("z", GateType.AND, ())

    def test_fanout_and_order(self):
        net = c17()
        fanout = net.fanout()
        assert set(fanout["G11"]) == {"G16", "G19"}
        order = [gate.output for gate in net.gates()]
        assert order.index("G10") < order.index("G22")

    def test_input_index(self):
        net = c17()
        assert net.input_index("G1") == 0
        assert net.input_index("G7") == 4


class TestBenchFormat:
    def test_roundtrip(self):
        net = c17()
        text = write_bench(net)
        parsed = parse_bench(text, name="c17")
        assert parsed.num_inputs == net.num_inputs
        assert parsed.num_gates == net.num_gates
        # Same function: exhaustive check over all 32 input combinations.
        for value in range(32):
            pattern = {pin: (value >> i) & 1 for i, pin in enumerate(net.inputs)}
            assert [simulate(net, pattern)[o] for o in net.outputs] == [
                simulate(parsed, pattern)[o] for o in parsed.outputs
            ]

    def test_dff_becomes_pseudo_io(self):
        text = """
        INPUT(a)
        OUTPUT(z)
        q = DFF(d)
        d = AND(a, q)
        z = NOT(q)
        """
        net = parse_bench(text, name="seq")
        assert "q" in net.inputs  # pseudo primary input
        assert "d" in net.outputs  # pseudo primary output
        assert net.num_inputs == 2

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_bench("z = FROB(a, b)\nINPUT(a)\nOUTPUT(z)")
        with pytest.raises(ValueError):
            parse_bench("this is not bench")


class TestSimulation:
    def test_c17_known_vector(self):
        net = c17()
        values = simulate(net, {"G1": 0, "G2": 0, "G3": 0, "G6": 0, "G7": 0})
        # All NAND gates with a zero input produce 1 at the first level.
        assert values["G10"] == 1 and values["G11"] == 1
        assert values["G22"] in (0, 1) and values["G23"] in (0, 1)

    def test_missing_input_rejected(self):
        with pytest.raises(ValueError):
            simulate(c17(), {"G1": 0})

    def test_ternary_propagates_x(self):
        net = c17()
        values = simulate_ternary(net, {"G1": 0})
        # G10 = NAND(G1=0, G3=X) = 1 regardless of X.
        assert values["G10"] == 1
        assert values["G23"] is X or values["G23"] in (0, 1)

    def test_parallel_matches_serial(self):
        net = carry_ripple_adder(3)
        patterns = []
        for value in range(20):
            patterns.append(
                {pin: (value >> i) & 1 for i, pin in enumerate(net.inputs)}
            )
        words = pack_patterns(net, patterns)
        parallel = simulate_parallel(net, words, len(patterns))
        for index, pattern in enumerate(patterns):
            serial = simulate(net, pattern)
            for output in net.outputs:
                assert ((parallel[output] >> index) & 1) == serial[output]

    def test_adder_adds(self):
        net = carry_ripple_adder(4)
        for a, b in [(3, 5), (15, 1), (7, 7), (0, 0)]:
            pattern = {}
            for i in range(4):
                pattern[f"a{i}"] = (a >> i) & 1
                pattern[f"b{i}"] = (b >> i) & 1
            values = simulate(net, pattern)
            total = sum(values[net_name] << i for i, net_name in enumerate(net.outputs))
            assert total == a + b

    def test_parity_tree_computes_parity(self):
        net = parity_tree(8)
        for value in (0, 0b10110101, 0b11111111, 0b00000001):
            pattern = {f"d{i}": (value >> i) & 1 for i in range(8)}
            values = simulate(net, pattern)
            assert values[net.outputs[0]] == bin(value).count("1") % 2

    def test_majority_voter(self):
        net = majority_voter(3)
        cases = {(0, 0, 0): 0, (1, 0, 0): 0, (1, 1, 0): 1, (1, 1, 1): 1}
        for bits, expected in cases.items():
            pattern = {f"in{i}": bits[i] for i in range(3)}
            assert simulate(net, pattern)["vote"] == expected


class TestFaults:
    def test_fault_universe_size(self):
        net = c17()
        faults = all_faults(net)
        assert len(faults) == 2 * len(net.nets())

    def test_collapsing_reduces_but_keeps_inputs(self):
        net = c17()
        collapsed = collapse_faults(net)
        assert len(collapsed) < len(all_faults(net))
        for pin in net.inputs:
            assert StuckAtFault(pin, 0) in collapsed
            assert StuckAtFault(pin, 1) in collapsed

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            StuckAtFault("a", 2)

    def test_fault_coverage_helper(self):
        universe = [StuckAtFault("a", 0), StuckAtFault("a", 1)]
        assert fault_coverage([StuckAtFault("a", 0)], universe) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            fault_coverage([], [])


class TestFaultSimulation:
    def test_exhaustive_patterns_detect_all_c17_faults(self):
        net = c17()
        simulator = FaultSimulator(net)
        patterns = [
            {pin: (value >> i) & 1 for i, pin in enumerate(net.inputs)}
            for value in range(32)
        ]
        simulator.simulate_patterns(patterns)
        # c17 has no redundant faults: exhaustive stimulation detects them all.
        assert simulator.remaining_faults == []
        assert simulator.coverage_percent == pytest.approx(100.0)

    def test_fault_dropping(self):
        net = c17()
        simulator = FaultSimulator(net)
        before = len(simulator.remaining_faults)
        simulator.simulate_patterns(
            [{pin: 1 for pin in net.inputs}], drop=True
        )
        assert len(simulator.remaining_faults) < before

    def test_simulate_vectors_packed_form(self):
        net = c17()
        simulator = FaultSimulator(net)
        result = simulator.simulate_vectors([0b10101, 0b01010])
        assert result.detected_faults()
        first = result.detected_faults()[0]
        assert result.detecting_pattern(first) in (0, 1)

    def test_is_remaining_tracks_drops(self):
        net = c17()
        simulator = FaultSimulator(net)
        fault = simulator.remaining_faults[0]
        assert simulator.is_remaining(fault)
        simulator.simulate_patterns(
            [
                {pin: (value >> i) & 1 for i, pin in enumerate(net.inputs)}
                for value in range(32)
            ]
        )
        assert not simulator.is_remaining(fault)
        assert not simulator.is_remaining(StuckAtFault("not_a_net", 0))

    def test_drop_fault_counts_as_detected(self):
        net = c17()
        simulator = FaultSimulator(net)
        fault = simulator.remaining_faults[0]
        simulator.drop_fault(fault)
        assert not simulator.is_remaining(fault)
        assert fault in simulator.detected_faults
        before = simulator.coverage_percent
        simulator.drop_fault(fault)  # idempotent
        assert simulator.coverage_percent == before

    def test_detect_block_matches_simulate_patterns(self):
        from repro.circuits.simulator import pack_patterns, simulate_parallel
        from repro.circuits.ternary import packed_plan

        net = c17()
        patterns = [
            {pin: (value >> i) & 1 for i, pin in enumerate(net.inputs)}
            for value in (3, 12, 25, 30)
        ]
        by_patterns = FaultSimulator(net)
        expected = by_patterns.simulate_patterns(patterns)
        by_block = FaultSimulator(net)
        by_name = simulate_parallel(net, pack_patterns(net, patterns), len(patterns))
        # detect_block reads the good block in plan net order.
        good = [by_name[name] for name in packed_plan(net).nets]
        actual = by_block.detect_block(good, len(patterns))
        assert actual.detected == expected.detected
        assert by_block.remaining_faults == by_patterns.remaining_faults
        # detection_word is a pure query of the same state.
        fault = actual.detected_faults()[0]
        assert by_block.detection_word(good, len(patterns), fault) == (
            actual.detected[fault]
        )


class TestAtpg:
    def test_c17_full_coverage(self):
        result = generate_test_set_for_netlist(c17())
        assert result.effective_coverage_percent == pytest.approx(100.0)
        assert result.aborted == []
        assert len(result.test_set) >= 1
        # Cubes must keep don't-cares: c17 tests rarely need all 5 inputs.
        assert any(cube.specified_count() < 5 for cube in result.test_set)

    def test_generated_cubes_detect_their_faults(self):
        net = c17()
        atpg = PodemAtpg(net)
        for fault in collapse_faults(net):
            assignment = atpg.generate_cube(fault)
            assert assignment is not None, f"{fault} should be testable in c17"
            # Verify detection by explicit fault simulation of the cube with
            # zero-fill.
            simulator = FaultSimulator(net, [fault])
            filled = {pin: assignment.get(pin, 0) for pin in net.inputs}
            outcome = simulator.simulate_patterns([filled])
            # Some zero-fills may mask detection; retry with one-fill before
            # declaring failure.
            if fault not in outcome.detected:
                simulator = FaultSimulator(net, [fault])
                filled = {pin: assignment.get(pin, 1) for pin in net.inputs}
                outcome = simulator.simulate_patterns([filled])
            assert fault in outcome.detected

    def test_adder_and_parity_coverage(self):
        for netlist in (carry_ripple_adder(3), parity_tree(4)):
            result = generate_test_set_for_netlist(netlist)
            assert result.effective_coverage_percent > 95.0
            assert result.test_set.num_cells == netlist.num_inputs

    def test_atpg_on_generated_circuit(self):
        netlist = random_netlist("rand", num_inputs=12, num_gates=40, seed=3)
        result = generate_test_set_for_netlist(netlist)
        assert result.coverage_percent > 70.0
        assert result.test_set.num_cells == 12


class TestGeneratorAndLibrary:
    def test_generator_reproducible(self):
        a = random_netlist("g", 10, 30, seed=5)
        b = random_netlist("g", 10, 30, seed=5)
        assert write_bench(a) == write_bench(b)
        c = random_netlist("g", 10, 30, seed=6)
        assert write_bench(a) != write_bench(c)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            random_netlist("g", 1, 10)
        with pytest.raises(ValueError):
            random_netlist("g", 4, 0)
        with pytest.raises(ValueError):
            random_netlist("g", 4, 10, max_fanin=1)

    def test_generator_fanin_never_exceeds_the_nets(self):
        # With fewer nets than the drawn fan-in, a gate once stopped at its
        # first repeated draw, which could leave a NAND with one input.
        for seed in range(40):
            for num_inputs, max_fanin in ((2, 3), (4, 6)):
                netlist = random_netlist(
                    "few", num_inputs, 12, max_fanin=max_fanin, seed=seed
                )
                first = netlist.gate_sequence()[0]
                assert len(first.inputs) <= num_inputs

    def test_generator_structure(self):
        net = random_netlist("g", 16, 80, num_outputs=6, seed=9)
        assert net.num_inputs == 16
        assert net.num_gates == 80
        assert net.num_outputs >= 6  # fan-out-free gates become extra outputs
        assert net.depth() >= 2
        # No dangling logic: every gate reaches a primary output.
        fanout = net.fanout()
        for gate in net.gates():
            assert fanout[gate.output] or gate.output in net.outputs

    def test_builtin_circuits_all_valid(self):
        for netlist in builtin_circuits():
            assert netlist.num_gates > 0
            assert netlist.depth() >= 1

    def test_library_validation(self):
        with pytest.raises(ValueError):
            carry_ripple_adder(0)
        with pytest.raises(ValueError):
            majority_voter(4)
        with pytest.raises(ValueError):
            parity_tree(1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_ternary_consistent_with_binary(value):
    """Fully specified ternary simulation equals binary simulation (c17 + adder)."""
    for netlist in (c17(), carry_ripple_adder(2)):
        width = netlist.num_inputs
        pattern = {pin: (value >> i) & 1 for i, pin in enumerate(netlist.inputs)}
        binary = simulate(netlist, pattern)
        ternary = simulate_ternary(netlist, pattern)
        for net in netlist.nets():
            assert binary[net] == ternary[net]
