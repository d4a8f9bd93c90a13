"""Golden-equivalence tests of the packed ternary core and its consumers.

Every optimized path introduced with the two-word (value, care) engine is
checked bit for bit against the pre-existing reference implementation it
replaced:

* packed ``simulate_ternary`` vs the dict-based reference on randomized
  netlists and randomized partial (0/1/X) assignments;
* the packed fault-injection overlay (PODEM's faulty machine, and the fault
  simulator's dense path) vs the reference faulty evaluation;
* the event-driven incremental engine (assign/undo over the levelized
  event queue) vs from-scratch packed evaluation, fault overlays included;
* full PODEM ATPG: event-driven engine vs full-pass packed engine vs dict
  engine, cube for cube;
* the batched drop-simulation block vs the per-pattern fill loop, and the
  returned detections vs the fault simulator's own bookkeeping;
* the uint64-blocked seed-window expansion vs the integer expansion;
* the vectorized embedding map vs the pure-Python scan on a small grid;
* the segment-batched decompressor simulation vs the clock-level replay.

Each engine pair also has a hypothesis property (``test_*_differential``)
that draws random netlists or encodings from a fixed parameter space.  A
draw that neither side can encode is rejected; one side failing alone is
a failure.  Re-run the properties deeper with more ``--hypothesis-seed``
values.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from differential_spaces import ENCODING_SPACE, NETLIST_SPACE, SEEDS, drawn_test_set
from repro import pipeline
from repro.circuits import simulator
from repro.circuits.atpg import PodemAtpg
from repro.circuits.faults import collapse_faults
from repro.circuits.generator import random_netlist
from repro.circuits.library import builtin_circuits
from repro.circuits.simulator import (
    simulate,
    simulate_ternary,
    simulate_ternary_reference,
)
from repro.circuits.ternary import ternary_state_to_dict
from repro.config import CompressionConfig
from repro.context import CompressionContext
from repro.decompressor.architecture import simulate_decompression
from repro.encoding.window import EncodingError
from repro.skip.segments import WindowSegmentation
from repro.skip.selection import (
    build_embedding_map,
    build_embedding_map_reference,
)
from repro.testdata.cube import TestCube
from repro.testdata.profiles import get_profile
from repro.testdata.synthetic import generate_test_set


def _random_assignment(rng, netlist, specified_fraction):
    """A partial 0/1 assignment over a random subset of the inputs."""
    return {
        net: rng.getrandbits(1)
        for net in netlist.inputs
        if rng.random() < specified_fraction
    }


# ----------------------------------------------------------------------
# Packed ternary engine vs dict reference
# ----------------------------------------------------------------------
class TestTernaryEngineGolden:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_randomized_netlists_and_assignments(self, seed):
        rng = random.Random(seed)
        netlist = random_netlist(
            f"rand{seed}",
            num_inputs=rng.randint(8, 24),
            num_gates=rng.randint(40, 160),
            seed=seed,
        )
        for fraction in (0.0, 0.3, 0.7, 1.0):
            assignment = _random_assignment(rng, netlist, fraction)
            assert simulate_ternary(netlist, assignment) == (
                simulate_ternary_reference(netlist, assignment)
            )

    @staticmethod
    @settings(max_examples=25, deadline=None)
    @given(**NETLIST_SPACE)
    def test_ternary_sim_differential(seed, num_inputs, num_gates, patterns):
        """Packed ternary simulation vs the dict reference.

        The assignments sweep from all-X to fully specified.  Both engines
        are looked up on their module, so a patched ``simulate_ternary``
        is what runs; the method is static so the planted-mutation test
        can call it from another instance.
        """
        rng = random.Random(seed)
        netlist = random_netlist(f"rand{seed}", num_inputs, num_gates, seed=seed)
        for index in range(patterns):
            assignment = _random_assignment(rng, netlist, index / (patterns - 1))
            assert simulator.simulate_ternary(netlist, assignment) == (
                simulator.simulate_ternary_reference(netlist, assignment)
            )

    def test_planted_sim_mutation_is_caught(self, monkeypatch):
        """A one-bit bug in the packed simulator must fail the property."""
        real = simulator.simulate_ternary

        def mutated(netlist, assignment, **kwargs):
            values = real(netlist, assignment, **kwargs)
            victim = netlist.outputs[0]
            if len(netlist.inputs) > 4 and values.get(victim) == 0:
                values = {**values, victim: 1}
            return values

        monkeypatch.setattr(simulator, "simulate_ternary", mutated)
        with pytest.raises(AssertionError):
            self.test_ternary_sim_differential()

    def test_builtin_circuits_all_x(self):
        for netlist in builtin_circuits():
            assert simulate_ternary(netlist, {}) == (
                simulate_ternary_reference(netlist, {})
            )

    def test_fully_specified_matches_binary(self):
        rng = random.Random(11)
        netlist = random_netlist("randb", num_inputs=12, num_gates=80, seed=11)
        for _ in range(10):
            vector = {net: rng.getrandbits(1) for net in netlist.inputs}
            ternary = simulate_ternary(netlist, vector)
            assert ternary == simulate(netlist, vector)


class TestFaultOverlayGolden:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_dual_state_faulty_machine_matches_reference(self, seed):
        rng = random.Random(seed)
        netlist = random_netlist(
            f"randf{seed}", num_inputs=12, num_gates=70, seed=seed
        )
        atpg = PodemAtpg(netlist)
        faults = collapse_faults(netlist)
        for fault in rng.sample(faults, min(25, len(faults))):
            assignment = _random_assignment(rng, netlist, 0.4)
            values, cares = atpg._dual_state(fault, assignment)
            faulty = ternary_state_to_dict(atpg._plan, values, cares, pattern=1)
            good = ternary_state_to_dict(atpg._plan, values, cares, pattern=0)
            assert faulty == atpg._faulty_ternary(fault, assignment)
            assert good == simulate_ternary_reference(netlist, assignment)


class TestEventEngineGolden:
    """The incremental engine state equals from-scratch packed evaluation."""

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_random_assign_undo_walk_matches_full_eval(self, seed):
        from repro.circuits.ternary import (
            TernaryEventEngine,
            eval_ternary,
            packed_plan,
            seed_ternary_inputs,
        )

        rng = random.Random(seed)
        netlist = random_netlist(
            f"randev{seed}",
            num_inputs=rng.randint(8, 20),
            num_gates=rng.randint(40, 140),
            seed=seed,
        )
        plan = packed_plan(netlist)
        engine = TernaryEventEngine(plan, 1)
        assignment = {}
        tokens = []
        for _ in range(120):
            action = rng.random()
            if action < 0.6 or not tokens:
                net = rng.choice(netlist.inputs)
                bit = rng.getrandbits(1)
                tokens.append((net, assignment.get(net), engine.checkpoint()))
                engine.assign(plan.index[net], bit)
                assignment[net] = bit
            else:
                net, previous, token = tokens.pop()
                engine.undo(token)
                if previous is None:
                    assignment.pop(net, None)
                else:
                    assignment[net] = previous
            values, cares = seed_ternary_inputs(plan, assignment)
            eval_ternary(plan, values, cares, 1)
            assert engine.values == values
            assert engine.cares == cares

    @pytest.mark.parametrize("seed", [24, 25])
    def test_engine_with_fault_overlay_matches_dual_state(self, seed):
        from repro.circuits.atpg import PodemAtpg

        rng = random.Random(seed)
        netlist = random_netlist(
            f"randov{seed}", num_inputs=12, num_gates=70, seed=seed
        )
        atpg = PodemAtpg(netlist)
        plan = atpg._plan
        faults = collapse_faults(netlist)
        for fault in rng.sample(faults, min(10, len(faults))):
            # One persistent engine serves every fault: the overlay is
            # re-forced on the rewound baseline and released afterwards.
            engine, token = atpg._event_engine(fault)
            assignment = {}
            for _ in range(12):
                net = rng.choice(netlist.inputs)
                bit = rng.getrandbits(1)
                engine.assign(plan.index[net], bit)
                assignment[net] = bit
                values, cares = atpg._dual_state(fault, assignment)
                assert engine.values == values
                assert engine.cares == cares
            # release_force rewinds past the assigns too (its token
            # predates them), restoring the shared baseline.
            engine.release_force(token)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=SEEDS,
        num_inputs=st.integers(min_value=4, max_value=14),
        num_gates=st.integers(min_value=15, max_value=110),
        steps=st.integers(min_value=30, max_value=140),
    )
    @example(seed=3, num_inputs=10, num_gates=70, steps=110)
    @example(seed=4, num_inputs=10, num_gates=70, steps=110)
    @example(seed=9, num_inputs=10, num_gates=70, steps=110)
    @example(seed=16, num_inputs=10, num_gates=70, steps=110)
    def test_event_propagate_differential(self, seed, num_inputs, num_gates, steps):
        """assign/undo/reforce/release walks vs from-scratch evaluation.

        One persistent engine is driven through the persistent-engine
        PODEM call pattern and compared with a fresh ``eval_ternary``
        after every step.  Odd seeds use the 2-bit mask (the table-driven
        propagation), even seeds a wider mask (the generic fused loop).
        """
        from repro.circuits.ternary import (
            TernaryEventEngine,
            eval_ternary,
            packed_plan,
            seed_ternary_inputs,
        )

        netlist = random_netlist(f"walk{seed}", num_inputs, num_gates, seed=seed)
        plan = packed_plan(netlist)
        rng = random.Random(seed)
        patterns = 2 if seed % 2 else rng.choice([1, 3, 5])
        mask = (1 << patterns) - 1
        engine = TernaryEventEngine(plan, mask)
        assignment = {}
        undo_stack = []
        force = None  # (index, mask, value, token, saved assignment, saved stack)
        for step in range(steps):
            action = rng.random()
            if action < 0.15 and force is None:
                index = rng.randrange(plan.num_nets)
                fmask = rng.randrange(1, mask + 1)
                fvalue = rng.randrange(mask + 1) & fmask
                token = engine.reforce(index, fmask, fvalue)
                force = (index, fmask, fvalue, token, dict(assignment), undo_stack)
                undo_stack = []
            elif action < 0.3 and force is not None:
                # Release rewinds past every assign made under the overlay
                # (its token predates them), exactly like PODEM's per-fault
                # cleanup: restore the bookkeeping to the reforce point.
                engine.release_force(force[3])
                assignment, undo_stack = force[4], force[5]
                force = None
            elif action < 0.75 or not undo_stack:
                net = rng.choice(netlist.inputs)
                bit = rng.getrandbits(1)
                undo_stack.append((net, assignment.get(net), engine.checkpoint()))
                engine.assign(plan.index[net], bit)
                assignment[net] = bit
            else:
                net, previous, token = undo_stack.pop()
                engine.undo(token)
                if previous is None:
                    assignment.pop(net, None)
                else:
                    assignment[net] = previous
            values, cares = seed_ternary_inputs(plan, assignment, patterns)
            index, fmask, fvalue = force[:3] if force else (-1, 0, 0)
            if 0 <= index < plan.num_inputs:
                # Input-site overlay: applied to the seeded state (inputs
                # have no plan row to force through).
                cares[index] |= fmask
                values[index] = (values[index] & ~fmask) | (fvalue & fmask)
                index = -1
            eval_ternary(
                plan,
                values,
                cares,
                mask,
                force_index=index,
                force_mask=fmask,
                force_value=fvalue,
            )
            assert (engine.values, engine.cares) == (values, cares), f"step {step}"

    @pytest.mark.parametrize("seed", [31, 32])
    def test_incremental_frontier_matches_full_scan(self, seed, monkeypatch):
        """The maintained D-frontier vs a recomputation from the state.

        At every objective call of a full event-driven run, the
        incrementally maintained difference set, per-row difference-input
        counts, frontier rows and difference outputs must equal what a
        full scan over the live state lists derives.
        """
        from repro.circuits import atpg as atpg_mod

        netlist = random_netlist(
            f"frontier{seed}", num_inputs=14, num_gates=90, seed=seed
        )
        atpg = atpg_mod.PodemAtpg(netlist)
        plan = atpg._plan
        original = atpg_mod.PodemAtpg._objective_events
        calls = []

        def checked(self, fault, values, cares):
            diff = {
                i
                for i in range(plan.num_nets)
                if cares[i] & 0b11 == 0b11
                and (values[i] ^ (values[i] >> 1)) & 1
            }
            assert self._diff == diff
            assert self._diff_outputs == diff & set(plan.output_indices)
            for position, (_out, _op, inputs, _inv) in enumerate(plan.rows):
                count = sum(1 for net in set(inputs) if net in diff)
                assert self._diff_in_count[position] == count
                assert (position in self._frontier_rows) == (count > 0)
            calls.append(1)
            return original(self, fault, values, cares)

        monkeypatch.setattr(atpg_mod.PodemAtpg, "_objective_events", checked)
        atpg.run()
        assert calls, "the run never reached an objective"

    def test_engine_reuse_matches_fresh_engine_runs(self):
        """One persistent engine over many faults vs a fresh one per fault.

        The checkpoint-rewind reuse must leave PODEM's decision tree
        untouched: identical cubes, decision counts and backtrack counts
        as an engine built from scratch for each fault.
        """
        netlist = random_netlist("reuse44", num_inputs=12, num_gates=80, seed=44)
        faults = collapse_faults(netlist)
        shared = PodemAtpg(netlist)
        reused = False
        for fault in faults[:40]:
            cube_shared = shared.generate_cube(fault)
            reused = reused or shared._engine_reused
            shared_stats = (shared._decisions, shared._backtracks)
            fresh = PodemAtpg(netlist)
            cube_fresh = fresh.generate_cube(fault)
            assert cube_shared == cube_fresh
            assert shared_stats == (fresh._decisions, fresh._backtracks)
        assert reused, "the shared instance never reused its engine"


def _assert_results_identical(left, right):
    assert left.test_set.cubes == right.test_set.cubes
    assert left.detected == right.detected
    assert left.redundant == right.redundant
    assert left.aborted == right.aborted
    assert left.total_faults == right.total_faults


class TestPodemGolden:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_packed_and_reference_engines_identical(self, seed):
        netlist = random_netlist(
            f"randp{seed}", num_inputs=16, num_gates=90, seed=seed
        )
        packed = PodemAtpg(netlist, engine="packed").run()
        reference = PodemAtpg(netlist, engine="reference").run()
        _assert_results_identical(packed, reference)

    @settings(max_examples=5, deadline=None)
    @given(
        seed=SEEDS,
        num_inputs=st.integers(min_value=6, max_value=14),
        num_gates=st.integers(min_value=20, max_value=70),
    )
    def test_podem_packed_differential(self, seed, num_inputs, num_gates):
        """Packed dual-machine PODEM vs the original dict-based engine."""
        netlist = random_netlist(f"randp{seed}", num_inputs, num_gates, seed=seed)
        packed, reference = (
            PodemAtpg(netlist, engine=engine).run(fill_seed=seed, fills="per-pattern")
            for engine in ("packed", "reference")
        )
        _assert_results_identical(packed, reference)

    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_event_driven_and_full_pass_engines_identical(self, seed):
        netlist = random_netlist(
            f"randq{seed}", num_inputs=18, num_gates=110, seed=seed
        )
        events = PodemAtpg(netlist, engine="events").run()
        full_pass = PodemAtpg(netlist, engine="packed").run()
        _assert_results_identical(events, full_pass)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=SEEDS,
        num_inputs=st.integers(min_value=6, max_value=16),
        num_gates=st.integers(min_value=20, max_value=90),
    )
    def test_podem_events_differential(self, seed, num_inputs, num_gates):
        """Event-driven fanout-cone PODEM vs the full-pass packed engine."""
        netlist = random_netlist(f"randq{seed}", num_inputs, num_gates, seed=seed)
        events, full_pass = (
            PodemAtpg(netlist, engine=engine).run(fill_seed=seed, fills="per-pattern")
            for engine in ("events", "packed")
        )
        _assert_results_identical(events, full_pass)

    @pytest.mark.parametrize("seed", [12, 13, 14])
    def test_batched_and_per_pattern_drops_identical(self, seed):
        netlist = random_netlist(
            f"randd{seed}", num_inputs=20, num_gates=120, seed=seed
        )
        atpg = PodemAtpg(netlist)
        batched = atpg.run(fill_seed=seed, fills="batched")
        per_pattern = atpg.run(fill_seed=seed, fills="per-pattern")
        _assert_results_identical(batched, per_pattern)

    def test_batched_drops_identical_without_fault_dropping(self):
        netlist = random_netlist("randnd", num_inputs=14, num_gates=60, seed=15)
        atpg = PodemAtpg(netlist)
        batched = atpg.run(fault_dropping=False, fills="batched")
        per_pattern = atpg.run(fault_dropping=False, fills="per-pattern")
        _assert_results_identical(batched, per_pattern)

    def test_small_fill_block_forces_mid_run_flushes(self):
        """A tiny word width makes the block flush many times mid-run."""
        from unittest.mock import patch

        from repro.circuits.fault_sim import FaultSimulator

        netlist = random_netlist("randfl", num_inputs=16, num_gates=80, seed=16)
        atpg = PodemAtpg(netlist)
        per_pattern = atpg.run(fills="per-pattern")
        original_init = FaultSimulator.__init__

        def tiny_width_init(self, *args, **kwargs):
            kwargs["word_width"] = 3
            original_init(self, *args, **kwargs)

        with patch.object(FaultSimulator, "__init__", tiny_width_init):
            batched = atpg.run(fills="batched")
        _assert_results_identical(batched, per_pattern)

    def test_masked_fill_force_count_reconciles(self, monkeypatch):
        """Force-counted targets must be dropped from the simulator too.

        Every fill is made to mask every fault, so each generated cube's
        target goes through the force-count path.  ``run`` asserts its
        detected list against ``FaultSimulator.detected_faults`` at the
        end; before the reconcile fix, that disagreed (the simulator kept
        force-counted targets as remaining).
        """
        from repro.circuits import fault_sim as fault_sim_module

        monkeypatch.setattr(
            fault_sim_module.FaultSimulator,
            "_detect_block",
            lambda self, good, num_patterns: {},
        )
        monkeypatch.setattr(
            fault_sim_module.FaultSimulator,
            "detection_word",
            lambda self, good, num_patterns, fault: 0,
        )
        netlist = random_netlist("randmk", num_inputs=14, num_gates=70, seed=17)
        atpg = PodemAtpg(netlist)
        for fills in ("batched", "per-pattern"):
            result = atpg.run(fills=fills)
            # Nothing is ever detected by simulation, so the detected list
            # is exactly the (force-counted) targets of the generated cubes.
            assert len(result.detected) == len(result.test_set.cubes)


# ----------------------------------------------------------------------
# Packed windows, cubes and the embedding map
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def encoded():
    profile = get_profile("s9234")
    test_set = generate_test_set(profile, seed=1, scale=0.06)
    config = CompressionConfig(
        window_length=60,
        segment_size=5,
        num_scan_chains=profile.scan_chains,
        lfsr_size=profile.lfsr_size,
    )
    return pipeline.encode(
        test_set, config, context=CompressionContext(), verify=True
    )


#: The random encodings the embedding and decompressor properties draw:
#: the shared encoding space plus segment size S and speedup k.
_REDUCTION_SPACE = dict(
    ENCODING_SPACE,
    segment=st.integers(min_value=2, max_value=12),
    speedup=st.integers(min_value=2, max_value=12),
)


def _drawn_encoding(
    seed, num_cells, num_cubes, max_specified, chains, window, segment, speedup
):
    """Encode a synthetic test set drawn from ``_REDUCTION_SPACE``.

    An unencodable draw is rejected: both sides of the pair share it.
    """
    test_set = drawn_test_set(seed, num_cells, num_cubes, max_specified, chains)
    config = CompressionConfig(
        window_length=window,
        segment_size=segment,
        speedup=speedup,
        num_scan_chains=chains,
        lfsr_size=test_set.max_specified() + 8,
    )
    try:
        return pipeline.encode(test_set, config, verify=False)
    except EncodingError:
        reject()


class TestPackedWindowsGolden:
    def test_packed_expansion_matches_integer_expansion(self, encoded):
        equations = encoded.substrate.equations
        seeds = [record.seed for record in encoded.encoding.seeds]
        packed = equations.expand_seeds_packed(seeds)
        windows = equations.expand_seeds(seeds)
        num_cells = equations.architecture.num_cells
        assert packed.shape == (
            len(seeds),
            equations.window_length,
            (num_cells + 63) // 64,
        )
        for s, window in enumerate(windows):
            for v, vector in enumerate(window):
                blocks = packed[s, v]
                rebuilt = sum(
                    int(word) << (64 * w) for w, word in enumerate(blocks)
                )
                assert rebuilt == vector

    def test_cube_packed_words_match_masks(self):
        cube = TestCube.from_string("1X0" * 50)  # 150 cells -> 3 words
        care, value = cube.packed_words()
        assert care.dtype == np.uint64 and len(care) == 3
        assert sum(int(w) << (64 * i) for i, w in enumerate(care)) == cube.care_mask
        assert (
            sum(int(w) << (64 * i) for i, w in enumerate(value)) == cube.care_value
        )


def _assert_maps_identical(encoded, segment_size):
    equations = encoded.substrate.equations
    segmentation = WindowSegmentation(encoded.encoding.window_length, segment_size)
    vectorized = build_embedding_map(
        encoded.encoding, encoded.test_set, equations, segmentation
    )
    reference = build_embedding_map_reference(
        encoded.encoding, encoded.test_set, equations, segmentation
    )
    assert vectorized.cube_segments == reference.cube_segments
    assert vectorized.segment_cubes == reference.segment_cubes


class TestEmbeddingMapGolden:
    @pytest.mark.parametrize("segment_size", [3, 5, 12, 60])
    def test_vectorized_map_equals_reference(self, encoded, segment_size):
        _assert_maps_identical(encoded, segment_size)

    @settings(max_examples=5, deadline=None)
    @given(**_REDUCTION_SPACE)
    def test_embedding_differential(self, **params):
        """Vectorized numpy embedding matching vs the pure-Python scan."""
        _assert_maps_identical(_drawn_encoding(**params), params["segment"])

    def test_vectorized_map_from_cached_windows(self, encoded):
        """Packed, integer and self-expanded inputs all yield the same map."""
        equations = encoded.substrate.equations
        seeds = [record.seed for record in encoded.encoding.seeds]
        segmentation = WindowSegmentation(encoded.encoding.window_length, 5)
        context = encoded.context
        from_packed = build_embedding_map(
            encoded.encoding,
            encoded.test_set,
            equations,
            segmentation,
            windows_packed=context.packed_windows(encoded.substrate, seeds),
        )
        from_integers = build_embedding_map(
            encoded.encoding,
            encoded.test_set,
            equations,
            segmentation,
            windows=context.expanded_windows(encoded.substrate, seeds),
        )
        assert from_packed.cube_segments == from_integers.cube_segments
        assert from_packed.segment_cubes == from_integers.segment_cubes


# ----------------------------------------------------------------------
# Batched decompressor vs clock-level reference
# ----------------------------------------------------------------------
def _replay_both(encoded, reduction):
    """Replay a reduction on the segment-batched and per-clock datapaths."""
    args = (
        encoded.encoding,
        reduction,
        encoded.substrate.lfsr.transition,
        encoded.substrate.phase_shifter,
        encoded.substrate.architecture,
    )
    return [
        simulate_decompression(*args, engine=engine)
        for engine in ("events", "reference")
    ]


class TestBatchedDecompressorGolden:
    @pytest.mark.parametrize("segment_size,speedup", [(5, 3), (10, 12)])
    def test_batched_outcome_identical(self, encoded, segment_size, speedup):
        reduction = pipeline.reduce(
            encoded,
            encoded.config.with_updates(
                segment_size=segment_size, speedup=speedup
            ),
        )
        batched, reference = _replay_both(encoded, reduction)
        assert batched == reference
        assert batched.covers(encoded.test_set)

    @settings(max_examples=5, deadline=None)
    @given(**_REDUCTION_SPACE)
    def test_decompressor_differential(self, **params):
        """Segment-batched decompressor replay vs the per-clock datapath."""
        encoded = _drawn_encoding(**params)
        batched, reference = _replay_both(encoded, pipeline.reduce(encoded))
        assert batched == reference
