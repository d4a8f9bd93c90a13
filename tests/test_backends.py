"""Engine-backend registry: conformance, dispatch hints, env default.

The conformance classes are parametrized over every registered backend and
compare against ``engine="reference"`` (the frozen pre-registry golden
path) on randomized netlists -- the executable form of the registry's
bit-identical-by-contract promise.
"""

import pytest

from repro.circuits.atpg import PodemAtpg
from repro.circuits.backends import (
    DEFAULT_ENGINE,
    backend_names,
    default_backend_name,
    get_backend,
)
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.generator import random_netlist
from repro.circuits.simulator import (
    pack_patterns,
    simulate,
    simulate_parallel,
    simulate_ternary,
    simulate_ternary_reference,
)
from repro.config import CompressionConfig

ENGINES = backend_names()


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
# Conformance: every backend vs the reference, randomized circuits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
class TestConformance:
    def test_ternary_simulation_matches_reference(self, engine):
        for seed in (11, 12, 13):
            netlist = random_netlist(
                "conf", num_inputs=10, num_gates=45, seed=seed
            )
            for assignment in _random_assignments(netlist, seed):
                assert simulate_ternary(
                    netlist, assignment, engine=engine
                ) == simulate_ternary_reference(netlist, assignment)

    def test_parallel_simulation_matches_single(self, engine):
        # Binary evaluation is the shared packed core; on fully specified
        # inputs it must agree with every backend's ternary simulation.
        netlist = random_netlist("conf", num_inputs=9, num_gates=40, seed=21)
        patterns = _random_patterns(netlist, 21, count=12)
        words = simulate_parallel(
            netlist, pack_patterns(netlist, patterns), len(patterns)
        )
        for position, pattern in enumerate(patterns):
            single = simulate(netlist, pattern)
            assert simulate_ternary(netlist, pattern, engine=engine) == single
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
        good = simulate_parallel(
            netlist, pack_patterns(netlist, patterns), len(patterns)
        )
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
# Registry and process default
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_builtin_backends_registered(self):
        assert backend_names() == ("reference", "packed", "events")

    def test_unknown_engine_lists_registered_backends(self):
        with pytest.raises(ValueError, match="registered backends: reference"):
            get_backend("turbo")

    def test_default_follows_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert default_backend_name() == DEFAULT_ENGINE == "events"
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert default_backend_name() == "reference"
        assert get_backend().name == "reference"

    def test_unknown_environment_engine_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            default_backend_name()

    def test_backend_dispatch_hints_are_coherent(self):
        assert get_backend("reference").fills == "per-pattern"
        assert get_backend("packed").fills == "per-pattern"
        assert get_backend("events").fills == "batched"
        assert not get_backend("reference").batched_decompressor
        assert get_backend("events").batched_decompressor

    def test_config_validates_and_serialises_engine(self):
        with pytest.raises(ValueError, match="registered backends"):
            CompressionConfig(engine="turbo")
        default = CompressionConfig()
        assert "engine" not in default.to_dict()
        pinned = CompressionConfig(engine="packed")
        assert pinned.to_dict()["engine"] == "packed"
        # The engine can never change an encoding, so the encode key
        # ignores it and old stored cache keys stay valid.
        assert "engine" not in pinned.encode_dict()
        assert default.cache_key() != pinned.cache_key()
        assert default.encode_cache_key() == pinned.encode_cache_key()
