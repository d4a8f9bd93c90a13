"""Engine conformance: the events engine and its two oracles agree.

The conformance class is parametrized over every name in
:data:`repro.circuits.simulator.ENGINES` and compares each engine against
the frozen dict reference on randomized netlists -- the executable form of
the engines' bit-identical-by-contract promise.
"""

import pytest

from repro.circuits.atpg import PodemAtpg
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.generator import random_netlist
from repro.circuits.simulator import (
    ENGINES,
    pack_patterns,
    simulate,
    simulate_parallel,
    simulate_ternary,
    simulate_ternary_reference,
)
from repro.circuits.ternary import TernaryEventEngine, packed_plan
from repro.config import CompressionConfig
from ternary_adapters import split_states, ternary_state_to_dict


def _engine_ternary(engine, netlist, assignment):
    """Three-valued simulation of one assignment by ``engine``'s evaluator.

    ``events`` assigns the inputs one by one on a persistent
    :class:`TernaryEventEngine` (incremental propagation; with no overlay
    its good and faulty machines agree, and pattern 0 is the good one),
    ``packed`` runs the full-pass packed core and ``reference`` the dict
    evaluator.
    """
    if engine == "reference":
        return simulate_ternary_reference(netlist, assignment)
    if engine == "packed":
        return simulate_ternary(netlist, assignment)
    plan = packed_plan(netlist)
    state = TernaryEventEngine(plan)
    for net, bit in assignment.items():
        state.assign(plan.index[net], bit)
    return ternary_state_to_dict(plan, *split_states(state.states))


def _random_assignments(netlist, seed, count=6):
    import random

    rng = random.Random(seed)
    assignments = []
    for _ in range(count):
        assignment = {}
        for net in netlist.inputs:
            draw = rng.random()
            if draw < 0.4:
                assignment[net] = rng.getrandbits(1)
            elif draw < 0.6:
                assignment[net] = None
        assignments.append(assignment)
    return assignments


def _random_patterns(netlist, seed, count=24):
    import random

    rng = random.Random(seed)
    return [
        {net: rng.getrandbits(1) for net in netlist.inputs} for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Conformance: every engine vs the reference, randomized circuits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
class TestConformance:
    def test_ternary_simulation_matches_reference(self, engine):
        for seed in (11, 12, 13):
            netlist = random_netlist(
                "conf", num_inputs=10, num_gates=45, seed=seed
            )
            for assignment in _random_assignments(netlist, seed):
                assert _engine_ternary(
                    engine, netlist, assignment
                ) == simulate_ternary_reference(netlist, assignment)

    def test_parallel_simulation_matches_single(self, engine):
        # Binary evaluation is the shared packed core; on fully specified
        # inputs it must agree with every engine's ternary simulation.
        netlist = random_netlist("conf", num_inputs=9, num_gates=40, seed=21)
        patterns = _random_patterns(netlist, 21, count=12)
        words = simulate_parallel(
            netlist, pack_patterns(netlist, patterns), len(patterns)
        )
        for position, pattern in enumerate(patterns):
            single = simulate(netlist, pattern)
            assert _engine_ternary(engine, netlist, pattern) == single
            for net, value in single.items():
                assert (words[net] >> position) & 1 == value

    def test_fault_simulation_matches_reference(self, engine):
        for seed in (31, 32):
            netlist = random_netlist(
                "conf", num_inputs=10, num_gates=50, seed=seed
            )
            patterns = _random_patterns(netlist, seed)
            result = FaultSimulator(
                netlist, word_width=16, engine=engine
            ).simulate_patterns(patterns, drop=False)
            reference = FaultSimulator(
                netlist, word_width=16, engine="reference"
            ).simulate_patterns(patterns, drop=False)
            assert result.detected == reference.detected

    def test_fault_dropping_matches_reference(self, engine):
        netlist = random_netlist("conf", num_inputs=8, num_gates=40, seed=41)
        patterns = _random_patterns(netlist, 41)
        simulator = FaultSimulator(netlist, word_width=8, engine=engine)
        reference = FaultSimulator(netlist, word_width=8, engine="reference")
        simulator.simulate_patterns(patterns, drop=True)
        reference.simulate_patterns(patterns, drop=True)
        assert set(simulator.detected_faults) == set(reference.detected_faults)
        assert set(simulator.remaining_faults) == set(reference.remaining_faults)

    def test_detect_block_matches_reference(self, engine):
        netlist = random_netlist("conf", num_inputs=9, num_gates=45, seed=51)
        patterns = _random_patterns(netlist, 51, count=16)
        by_name = simulate_parallel(
            netlist, pack_patterns(netlist, patterns), len(patterns)
        )
        # detect_block reads the good block in plan net order.
        good = [by_name[net] for net in packed_plan(netlist).nets]
        block = FaultSimulator(
            netlist, word_width=len(patterns), engine=engine
        ).detect_block(good, len(patterns), drop=False)
        reference = FaultSimulator(
            netlist, word_width=len(patterns), engine="reference"
        ).detect_block(good, len(patterns), drop=False)
        assert block.detected == reference.detected

    def test_podem_run_matches_reference(self, engine):
        for num_inputs, num_gates, seed, backtrack_limit in (
            (8, 35, 61, 200),
            (8, 35, 62, 200),
            # PODEM aborts g15/sa1 and g55/sa0 here and a later random
            # fill detects both: they must be listed as detected only.
            (10, 60, 1, 5),
        ):
            netlist = random_netlist(
                "conf", num_inputs=num_inputs, num_gates=num_gates, seed=seed
            )
            result = PodemAtpg(
                netlist, backtrack_limit=backtrack_limit, engine=engine
            ).run(fill_seed=seed)
            reference = PodemAtpg(
                netlist, backtrack_limit=backtrack_limit, engine="reference"
            ).run(fill_seed=seed)
            assert result.test_set.cubes == reference.test_set.cubes
            assert result.detected == reference.detected
            assert result.redundant == reference.redundant
            assert result.aborted == reference.aborted
            assert result.total_faults == reference.total_faults
            detected = set(result.detected)
            redundant = set(result.redundant)
            aborted = set(result.aborted)
            assert not detected & redundant
            assert not detected & aborted
            assert not redundant & aborted
            assert len(detected) + len(redundant) + len(aborted) == (
                result.total_faults
            )


# ----------------------------------------------------------------------
# Engine names and engine-keyed defaults
# ----------------------------------------------------------------------
class TestRegistry:
    def test_unknown_engine_lists_registered_backends(self):
        netlist = random_netlist("conf", num_inputs=6, num_gates=20, seed=3)
        expected = "expected one of events, packed, reference"
        with pytest.raises(ValueError, match=expected):
            PodemAtpg(netlist, engine="turbo")
        with pytest.raises(ValueError, match=expected):
            FaultSimulator(netlist, engine="turbo")

    def test_backend_dispatch_hints_are_coherent(self, monkeypatch):
        # PodemAtpg.run's default fill handling follows the engine: events
        # packs the random fills into blocks handed to detect_block, the
        # oracles keep the per-pattern drop loop and never call it.
        netlist = random_netlist("conf", num_inputs=8, num_gates=35, seed=61)
        blocks = []
        detect_block = FaultSimulator.detect_block

        def counting_detect_block(self, *args, **kwargs):
            blocks.append(1)
            return detect_block(self, *args, **kwargs)

        monkeypatch.setattr(FaultSimulator, "detect_block", counting_detect_block)
        for engine in ENGINES:
            blocks.clear()
            PodemAtpg(netlist, engine=engine).run()
            assert bool(blocks) == (engine == "events"), engine

    def test_config_validates_and_serialises_engine(self):
        # The config has no engine knob: it neither accepts nor serialises
        # one, and a stored record that pinned an engine still loads.
        with pytest.raises(TypeError):
            CompressionConfig(engine="packed")
        default = CompressionConfig()
        assert "engine" not in default.to_dict()
        stored = dict(default.to_dict(), engine="packed")
        assert CompressionConfig.from_dict(stored) == default
