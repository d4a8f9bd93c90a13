"""Golden-equivalence tests of the packed ternary core and its consumers.

Every optimized path introduced with the two-word (value, care) engine is
checked bit for bit against the pre-existing reference implementation it
replaced:

* packed ``simulate_ternary`` vs the dict-based reference on randomized
  netlists and randomized partial (0/1/X) assignments;
* the packed fault-injection overlay (PODEM's faulty machine, and the fault
  simulator's dense path) vs the reference faulty evaluation;
* the event-driven incremental engine (assign/undo over the levelized
  event queue) vs from-scratch packed evaluation, fault overlays included:
  under an overlay the engine is fenced to the fault's region, which must
  match the full pass while every other net keeps its pre-overlay words;
* full PODEM ATPG: event-driven engine vs full-pass packed engine vs dict
  engine, cube for cube;
* the batched drop-simulation block vs the per-pattern fill loop, and the
  returned detections vs the fault simulator's own bookkeeping;
* the uint64-blocked seed-window expansion vs the integer expansion;
* the vectorized embedding map vs the pure-Python scan on a small grid;
* the matrix (argmax) useful-segment selection vs the set-based loop;
* the segment-level decompressor replay vs the clock-level replay.

Each engine pair also has a hypothesis property (``test_*_differential``)
that draws random netlists or encodings from a fixed parameter space.  A
draw that neither side can encode is rejected; one side failing alone is
a failure.  Re-run the properties deeper with more ``--hypothesis-seed``
values.
"""

import random

import numpy as np
import pytest
from hypothesis import Phase, example, given, reject, settings
from hypothesis import strategies as st

from circuit_library import builtin_circuits
from differential_spaces import ENCODING_SPACE, NETLIST_SPACE, SEEDS, drawn_test_set
from ir_verifiers import reference_region
from repro import pipeline
from repro.circuits import simulator
from repro.circuits.atpg import PodemAtpg
from repro.circuits.faults import collapse_faults
from repro.circuits.generator import random_netlist
from repro.circuits.simulator import (
    simulate,
    simulate_ternary,
    simulate_ternary_reference,
)
from repro.circuits.ternary import PackedPlan, TernaryEventEngine
from repro.config import CompressionConfig
from repro.context import CompressionContext
from repro.decompressor.architecture import (
    DecompressionController,
    Decompressor,
    ReplayTables,
    simulate_decompression,
)
from repro.encoding.window import EncodingError
from repro.skip.segments import WindowSegmentation
from repro.skip.selection import (
    build_embedding_map,
    build_embedding_map_reference,
    select_useful_segments,
    select_useful_segments_reference,
)
from repro.testdata.cube import TestCube
from repro.testdata.profiles import get_profile
from repro.testdata.synthetic import generate_test_set
from repro.testdata.test_set import TestSet
from ternary_adapters import seed_ternary_inputs, split_states, ternary_state_to_dict


def _assert_fenced(engine, exact, expected, before, where=""):
    """The state of an engine under a :meth:`reforce` overlay.

    Nets in ``exact`` must hold the ``expected`` (values, cares) words of a
    full pass; every other net must still hold its ``before`` words, the
    ones it had when the overlay went in.
    """
    sources = [expected if net in exact else before for net in range(len(before[0]))]
    values = [source[0][net] for net, source in enumerate(sources)]
    cares = [source[1][net] for net, source in enumerate(sources)]
    engine_values, engine_cares = split_states(engine.states)
    if (engine_values, engine_cares) != (values, cares):
        wrong = next(
            net for net in range(len(values))
            if (engine_values[net], engine_cares[net]) != (values[net], cares[net])
        )
        raise AssertionError(f"{where} net {engine.plan.nets[wrong]!r}")


def _region_and_inputs(plan, net):
    """The fault region of ``net`` plus every primary input.

    :meth:`TernaryEventEngine.assign` writes any input directly; only
    rows are fenced.
    """
    region = reference_region(plan.netlist, plan.nets[net])
    return {plan.index[member] for member in region} | set(range(plan.num_inputs))


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


#: Netlists and walk lengths of the fault-region property.
_REGION_WALK_SPACE = dict(
    seed=SEEDS,
    num_inputs=st.integers(min_value=4, max_value=14),
    num_gates=st.integers(min_value=15, max_value=110),
    steps=st.integers(min_value=10, max_value=60),
)


class TestEventEngineGolden:
    """The incremental engine state equals from-scratch packed evaluation."""

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_random_assign_undo_walk_matches_full_eval(self, seed):
        from repro.circuits.ternary import TernaryEventEngine, eval_ternary, packed_plan

        rng = random.Random(seed)
        netlist = random_netlist(
            f"randev{seed}",
            num_inputs=rng.randint(8, 20),
            num_gates=rng.randint(40, 140),
            seed=seed,
        )
        plan = packed_plan(netlist)
        engine = TernaryEventEngine(plan)
        assignment = {}
        tokens = []
        for _ in range(120):
            action = rng.random()
            if action < 0.6 or not tokens:
                net = rng.choice(netlist.inputs)
                bit = rng.getrandbits(1)
                token = engine.assign(plan.index[net], bit)
                tokens.append((net, assignment.get(net), token))
                assignment[net] = bit
            else:
                net, previous, token = tokens.pop()
                engine.rewind(token)
                if previous is None:
                    assignment.pop(net, None)
                else:
                    assignment[net] = previous
            values, cares = seed_ternary_inputs(plan, assignment, patterns=2)
            eval_ternary(plan, values, cares, 0b11)
            assert split_states(engine.states) == (values, cares)

    @pytest.mark.parametrize("seed", [24, 25])
    def test_engine_with_fault_overlay_matches_dual_state(self, seed):
        rng = random.Random(seed)
        netlist = random_netlist(
            f"randov{seed}", num_inputs=12, num_gates=70, seed=seed
        )
        atpg = PodemAtpg(netlist)
        plan = atpg._plan
        faults = collapse_faults(netlist)
        # The empty-assignment baseline: every fault is forced on it and
        # released back to it, and the fenced rows keep its words.
        before = split_states(TernaryEventEngine(plan).states)
        for fault in rng.sample(faults, min(10, len(faults))):
            # One persistent engine serves every fault: the overlay is
            # re-forced on the rewound baseline and released afterwards.
            # The region and every input match the full pass.
            engine, token = atpg._event_engine(fault)
            exact = _region_and_inputs(plan, plan.index[fault.net])
            assignment = {}
            for _ in range(12):
                net = rng.choice(netlist.inputs)
                bit = rng.getrandbits(1)
                engine.assign(plan.index[net], bit)
                assignment[net] = bit
                expected = atpg._dual_state(fault, assignment)
                _assert_fenced(engine, exact, expected, before, str(fault))
            # release_force rewinds past the assigns too (its token
            # predates them), restoring the shared baseline.
            engine.release_force(token)
            assert split_states(engine.states) == before

    @settings(max_examples=25, deadline=None)
    @given(
        seed=SEEDS,
        num_inputs=st.integers(min_value=4, max_value=14),
        num_gates=st.integers(min_value=15, max_value=110),
        steps=st.integers(min_value=30, max_value=140),
        max_fanin=st.integers(min_value=3, max_value=6),
    )
    @example(seed=3, num_inputs=10, num_gates=70, steps=110, max_fanin=3)
    @example(seed=4, num_inputs=10, num_gates=70, steps=110, max_fanin=3)
    @example(seed=9, num_inputs=10, num_gates=70, steps=110, max_fanin=3)
    @example(seed=16, num_inputs=10, num_gates=70, steps=110, max_fanin=3)
    def test_event_propagate_differential(
        self, seed, num_inputs, num_gates, steps, max_fanin
    ):
        """assign/undo/reforce/release walks vs from-scratch evaluation.

        One persistent engine is driven through the persistent-engine
        PODEM call pattern and compared with a fresh mask-``0b11``
        ``eval_ternary`` after every step: the whole state without an
        overlay; under one, the forced net's region and every input, while
        every other net must keep the words it had when the overlay went
        in.  Gates of up to ``max_fanin`` inputs drive the table rows (one
        to three inputs) and the wide-row fallback (four or more).
        """
        from repro.circuits.ternary import eval_ternary, packed_plan

        netlist = random_netlist(
            f"walk{seed}", num_inputs, num_gates, max_fanin=max_fanin, seed=seed
        )
        plan = packed_plan(netlist)
        rng = random.Random(seed)
        engine = TernaryEventEngine(plan)
        assignment = {}
        undo_stack = []
        force = None  # (index, mask, value, token, saved assignment, saved stack)
        fence = None  # (exactly evaluated nets, pre-overlay words)
        for step in range(steps):
            action = rng.random()
            if action < 0.15 and force is None:
                index = rng.randrange(plan.num_nets)
                fmask = rng.randrange(1, 0b100)
                fvalue = rng.randrange(0b100) & fmask
                before = split_states(engine.states)
                token = engine.reforce(index, fmask, fvalue)
                force = (index, fmask, fvalue, token, dict(assignment), undo_stack)
                fence = (_region_and_inputs(plan, index), before)
                undo_stack = []
            elif action < 0.3 and force is not None:
                # Release rewinds past every assign made under the overlay
                # (its token predates them), exactly like PODEM's per-fault
                # cleanup: restore the bookkeeping to the reforce point.
                engine.release_force(force[3])
                assignment, undo_stack = force[4], force[5]
                force = fence = None
            elif action < 0.75 or not undo_stack:
                net = rng.choice(netlist.inputs)
                bit = rng.getrandbits(1)
                token = engine.assign(plan.index[net], bit)
                undo_stack.append((net, assignment.get(net), token))
                assignment[net] = bit
            else:
                net, previous, token = undo_stack.pop()
                engine.rewind(token)
                if previous is None:
                    assignment.pop(net, None)
                else:
                    assignment[net] = previous
            values, cares = seed_ternary_inputs(plan, assignment, patterns=2)
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
                0b11,
                force_index=index,
                force_mask=fmask,
                force_value=fvalue,
            )
            if fence is None:
                assert split_states(engine.states) == (values, cares), f"step {step}"
            else:
                _assert_fenced(engine, fence[0], (values, cares), fence[1], f"step {step}")

    @settings(max_examples=25, deadline=None)
    @given(**_REGION_WALK_SPACE)
    def test_fault_region_differential(self, seed, num_inputs, num_gates, steps):
        """The region-fenced engine vs the full-pass dual state, per fault.

        Each drawn collapsed fault is forced on the empty-assignment
        baseline with PODEM's overlay, walked through random assigns and
        rewinds of its region's inputs (the only inputs PODEM's backtrace
        reaches) and released.  After every step each region net equals
        the full-pass ``_dual_state`` oracle and every other net holds its
        pre-overlay (baseline) words; after the release the whole state is
        the baseline again.
        """
        netlist = random_netlist(f"region{seed}", num_inputs, num_gates, seed=seed)
        atpg = PodemAtpg(netlist)
        plan = atpg._plan
        rng = random.Random(seed)
        engine = TernaryEventEngine(plan)
        baseline = split_states(engine.states)
        faults = collapse_faults(netlist)
        for fault in rng.sample(faults, min(4, len(faults))):
            region = {
                plan.index[net] for net in reference_region(netlist, fault.net)
            }
            inputs = sorted(net for net in region if net < plan.num_inputs)
            token = engine.reforce(
                plan.index[fault.net], 0b10, 0b10 if fault.stuck_value else 0
            )
            assignment = {}
            undo_stack = []
            for step in range(steps):
                if undo_stack and rng.random() < 0.35:
                    name, previous, undo = undo_stack.pop()
                    engine.rewind(undo)
                    if previous is None:
                        del assignment[name]
                    else:
                        assignment[name] = previous
                elif inputs:
                    index = rng.choice(inputs)
                    name = plan.nets[index]
                    bit = rng.getrandbits(1)
                    undo_stack.append(
                        (name, assignment.get(name), engine.assign(index, bit))
                    )
                    assignment[name] = bit
                expected = atpg._dual_state(fault, assignment)
                _assert_fenced(
                    engine, region, expected, baseline, f"{fault} step {step}"
                )
            engine.release_force(token)
            assert split_states(engine.states) == baseline, str(fault)

    def test_planted_region_mutation_is_caught(self, monkeypatch):
        """A fault region missing one fanin net must fail the property."""
        real = PackedPlan.fault_region

        def without_a_fanin(plan, net):
            region = real(plan, net)
            cone = {row[0] for row in plan.cone_rows(net)} | {net}
            for index in range(plan.num_inputs, plan.num_nets):
                if region >> index & 1 and index not in cone:
                    return region & ~(1 << index)
            return region

        monkeypatch.setattr(PackedPlan, "fault_region", without_a_fanin)
        # The same property over the same space, without the shrink phase
        # (shrinking this walk takes seconds) and the example database.
        planted = settings(
            max_examples=25, deadline=None, phases=[Phase.generate], database=None
        )(
            given(**_REGION_WALK_SPACE)(
                self.test_fault_region_differential.hypothesis.inner_test
            )
        )
        with pytest.raises(AssertionError):
            planted(self)

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

        def checked(self, fault, states):
            values, cares = split_states(states)
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
            return original(self, fault, states)

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
        max_fanin=st.integers(min_value=3, max_value=6),
    )
    def test_podem_events_differential(self, seed, num_inputs, num_gates, max_fanin):
        """Event-driven fanout-cone PODEM vs the full-pass packed engine.

        Gates of four or more inputs (``max_fanin`` above 3) take the
        engine's wide-row fallback instead of a table lookup.
        """
        netlist = random_netlist(
            f"randq{seed}", num_inputs, num_gates, max_fanin=max_fanin, seed=seed
        )
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


#: The random encodings the embedding, selection and decompressor properties draw:
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
        # 150 cells -> 3 words per row
        ts = TestSet("wide", [TestCube.from_string("1X0" * 50),
                              TestCube.from_string("X1" * 74 + "01")])
        cares, values = ts.packed_matrices()
        assert cares.dtype == np.uint64 and cares.shape == (2, 3)
        for row, cube in enumerate(ts):
            assert (
                sum(int(w) << (64 * i) for i, w in enumerate(cares[row]))
                == cube.care_mask
            )
            assert (
                sum(int(w) << (64 * i) for i, w in enumerate(values[row]))
                == cube.care_value
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
    assert np.array_equal(vectorized.matrix, reference.matrix)


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
        """A context-cached cover and a self-built one yield the same map."""
        equations = encoded.substrate.equations
        seeds = [record.seed for record in encoded.encoding.seeds]
        segmentation = WindowSegmentation(encoded.encoding.window_length, 5)
        cover = encoded.context.cover(encoded.substrate, seeds, encoded.test_set)
        assert cover.shape == (
            len(encoded.test_set), len(seeds), -(-encoded.encoding.window_length // 8)
        )
        from_cache = build_embedding_map(
            encoded.encoding, encoded.test_set, equations, segmentation, cover=cover
        )
        self_built = build_embedding_map(
            encoded.encoding, encoded.test_set, equations, segmentation
        )
        assert np.array_equal(from_cache.matrix, self_built.matrix)


def _assert_selections_identical(encoded, segment_size):
    encoding = encoded.encoding
    embedding = build_embedding_map(
        encoding,
        encoded.test_set,
        encoded.substrate.equations,
        WindowSegmentation(encoding.window_length, segment_size),
    )
    for force_first in (True, False):
        args = (embedding, encoding.num_cubes, encoding.num_seeds, force_first)
        matrix = select_useful_segments(*args)
        reference = select_useful_segments_reference(*args)
        assert matrix.useful_segments == reference.useful_segments
        assert matrix.set_a_cubes == reference.set_a_cubes
        assert matrix.greedy_picks == reference.greedy_picks
        assert matrix.covering_segment == reference.covering_segment


class TestUsefulSegmentSelectionGolden:
    @pytest.mark.parametrize("segment_size", [3, 5, 12, 60])
    def test_matrix_selection_equals_reference(self, encoded, segment_size):
        _assert_selections_identical(encoded, segment_size)

    @settings(max_examples=5, deadline=None)
    @given(**_REDUCTION_SPACE)
    def test_selection_differential(self, **params):
        """Matrix (argmax) useful-segment selection vs the set-based loop,
        with and without the forced first segments."""
        _assert_selections_identical(_drawn_encoding(**params), params["segment"])


# ----------------------------------------------------------------------
# Segment-level decompressor replay vs clock-level reference
# ----------------------------------------------------------------------
def _replay_both(encoded, reduction):
    """Replay a reduction segment by segment and clock by clock."""
    substrate = encoded.substrate
    tables = ReplayTables(
        substrate.lfsr.transition, substrate.phase_shifter, substrate.architecture
    )
    by_segment = simulate_decompression(encoded.encoding, reduction, tables)
    per_clock = DecompressionController(
        Decompressor(
            substrate.lfsr.transition,
            substrate.phase_shifter,
            substrate.architecture,
            reduction.config.speedup,
        )
    ).run(encoded.encoding, reduction)
    return by_segment, per_clock


#: (S, k, first segment forced useful) of each replayed schedule shape.
_REPLAY_SHAPES = {
    "5-3": (5, 3, True),
    "10-12": (10, 12, True),
    # S r = 16 < k: a useless segment runs no skip clock.
    "no-skip-clock": (2, 24, True),
    # L = 60 is no multiple of S.
    "short-last-segment": (9, 3, True),
    # On a drawn encoding (_UNFORCED_DRAW): the encoded fixture's seeds
    # all need their first segment.
    "first-segment-useless": (4, 3, False),
}

#: A drawn encoding on which ``force_first_segment_useful=False`` leaves
#: the first segment of a seed useless.
_UNFORCED_DRAW = dict(
    seed=548081185, num_cells=95, num_cubes=6, max_specified=10, chains=3,
    window=48, segment=4, speedup=3,
)


def _has_shape(reduction, shape):
    """Whether some replayed segment of ``reduction`` has ``shape``."""
    plans = [plan for s in reduction.schedules for plan in s.segments]
    if shape == "no-skip-clock":
        return any(not plan.useful and plan.skip_clocks == 0 for plan in plans)
    if shape == "short-last-segment":
        size = reduction.config.segment_size
        return any(plan.vectors_applied < size for plan in plans if plan.useful)
    if shape == "first-segment-useless":
        firsts = [s.segments[0] for s in reduction.schedules if s.segments]
        return any(not plan.useful for plan in firsts)
    return True


class TestSegmentReplayGolden:
    @pytest.mark.parametrize("shape", list(_REPLAY_SHAPES))
    def test_segment_replay_outcome_identical(self, encoded, shape):
        segment_size, speedup, force_first = _REPLAY_SHAPES[shape]
        if not force_first:
            encoded = _drawn_encoding(**_UNFORCED_DRAW)
        reduction = pipeline.reduce(
            encoded,
            encoded.config.with_updates(
                segment_size=segment_size,
                speedup=speedup,
                force_first_segment_useful=force_first,
            ),
        )
        assert _has_shape(reduction, shape)
        by_segment, reference = _replay_both(encoded, reduction)
        assert by_segment == reference
        assert by_segment.covers(encoded.test_set)

    @settings(max_examples=5, deadline=None)
    @given(**_REDUCTION_SPACE)
    def test_decompressor_differential(self, **params):
        """Segment-level decompressor replay vs the per-clock datapath."""
        encoded = _drawn_encoding(**params)
        by_segment, reference = _replay_both(encoded, pipeline.reduce(encoded))
        assert by_segment == reference

    @settings(max_examples=5, deadline=None)
    @given(**_REDUCTION_SPACE)
    def test_replay_invariants(self, **params):
        """The replay of a drawn reduction keeps the schedule's invariants.

        State Skip TSL <= window TSL = seeds x L; the replay applies the
        schedule's vectors and clocks; and its captured vectors, which the
        replay tables derive from A and P, are exactly the encoder's window
        vectors of the useful segments in replay order -- two independent
        derivations -- and cover every cube.
        """
        encoded = _drawn_encoding(**params)
        encoding = encoded.encoding
        reduction = pipeline.reduce(encoded)
        window_tsl = encoding.num_seeds * encoding.window_length
        assert reduction.original_tsl == window_tsl
        assert reduction.test_sequence_length <= window_tsl

        outcome = pipeline.simulate(encoded, reduction)
        plans = [plan for schedule in reduction.schedules for plan in schedule.segments]
        assert outcome.vectors_applied == reduction.test_sequence_length
        assert outcome.lfsr_clocks == sum(plan.lfsr_clocks for plan in plans)
        assert outcome.skip_clocks == sum(plan.skip_clocks for plan in plans)

        windows = encoded.substrate.equations.expand_seeds(
            [record.seed for record in encoding.seeds]
        )
        schedules = {schedule.seed_index: schedule for schedule in reduction.schedules}
        expected = [
            windows[seed_index][vector]
            for seeds in reduction.seed_groups().values()
            for seed_index in seeds
            for plan in schedules[seed_index].segments
            if plan.useful
            for vector in range(*plan.vector_range)
        ]
        assert outcome.useful_vectors == expected
        assert outcome.uncovered_cubes(encoded.test_set) == []
