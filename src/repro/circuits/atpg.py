"""Deterministic test generation (a compact PODEM) producing test cubes.

The ATPG loop mirrors what Atalanta does for the paper's test sets:

1. take the next undetected fault from the collapsed fault list,
2. run PODEM to find a *partially specified* input assignment (a test cube)
   that activates the fault and propagates its effect to a primary output,
3. random-fill a copy of the cube, fault-simulate it and drop every fault it
   detects,
4. keep the cube (with its don't-cares intact) in the test set.

The resulting :class:`~repro.testdata.test_set.TestSet` is *uncompacted* (one
cube per targeted fault), has 100% coverage of the detectable collapsed
faults, and -- crucially for the reseeding experiments -- keeps the don't-care
bits that make LFSR encoding effective.

The PODEM implementation is the standard objective/backtrace/implication loop
over three-valued simulation, with a backtrack limit to bound the effort on
redundant faults.

Three engines drive the loop, selected by ``engine=``:

* ``engine="events"`` (the default, and the one production code runs)
  keeps one persistent good+faulty state per :class:`PodemAtpg`
  (:class:`~repro.circuits.ternary.TernaryEventEngine`, one 4-bit state per
  net that the status, X-path, objective and backtrace code read through
  the engine module's 16-entry predicates): each targeted fault re-forces
  its overlay onto the live baseline and releases it when done (no
  per-fault rebuild), each decision assigns one primary input and
  re-evaluates only the part of that input's fanout cone that lies in the
  fault's region (the fanin closure of the fault's fanout cone, the only
  nets PODEM reads; the engine fences every other row), each row as one
  table lookup, and each backtrack rewinds an undo log -- O(changed cone)
  per decision node instead of O(netlist).  Outside the region the engine
  state goes stale, which no decision can see;
* ``engine="packed"`` selects the **packed full-pass** oracle, which
  evaluates the good and the faulty machine together in one
  2-bit-per-net pass of the two-word ternary core
  (:mod:`repro.circuits.ternary`), recomputed once per PODEM decision node
  and shared by the evaluation, the objective search, the backtrace and
  the X-path check;
* ``engine="reference"`` selects the original dict-based oracle
  (:func:`~repro.circuits.simulator.simulate_ternary_reference` semantics).

All engines take identical decisions at every node, so the produced cubes,
the detected/redundant/aborted partitions and the coverage figures are
bit-identical (the golden-equivalence tests enforce this).  The drop
simulation of :meth:`PodemAtpg.run` is batched the same way: random fills
accumulate into one word-packed block that the fault simulator screens and
drops in a single pass (``fills="per-pattern"``, the reference and packed
engines' default, keeps the per-pattern reference -- again bit-identical).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.circuits.faults import StuckAtFault, collapse_faults
from repro.circuits.netlist import GateType, Netlist
from repro.circuits.simulator import X, check_engine, simulate_ternary_reference
from repro.circuits.ternary import (
    BOTH_KNOWN,
    CARRIES_DIFFERENCE,
    GOOD_KNOWN,
    GOOD_VALUE,
    OP_AND,
    OP_OR,
    PackedPlan,
    TernaryEventEngine,
    eval_binary,
    eval_ternary,
    packed_plan,
)
from repro.telemetry import get_recorder
from repro.testdata.cube import TestCube
from repro.testdata.test_set import TestSet

#: Packed dual-machine patterns: bit 0 = good circuit, bit 1 = faulty.
_GOOD, _FAULTY, _BOTH = 0b01, 0b10, 0b11

#: Controlling value of each gate type (None when it has none).
_CONTROLLING = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}


@dataclass
class AtpgResult:
    """Everything the ATPG run produced."""

    test_set: TestSet
    detected: List[StuckAtFault]
    redundant: List[StuckAtFault]
    aborted: List[StuckAtFault]
    total_faults: int

    @property
    def coverage_percent(self) -> float:
        if self.total_faults == 0:
            return 100.0
        return 100.0 * len(self.detected) / self.total_faults

    @property
    def effective_coverage_percent(self) -> float:
        """Coverage of the non-redundant faults (the paper's 100% figure)."""
        testable = self.total_faults - len(self.redundant)
        if testable == 0:
            return 100.0
        return 100.0 * len(self.detected) / testable


class PodemAtpg:
    """PODEM test generation for single stuck-at faults.

    ``engine=`` selects the engine driving the decision loop (see the
    module docstring); every engine produces identical cubes for every
    fault.
    """

    def __init__(
        self,
        netlist: Netlist,
        backtrack_limit: int = 200,
        engine: str = "events",
    ):
        self._netlist = netlist
        self._backtrack_limit = backtrack_limit
        self._engine_name = check_engine(engine)
        self._fanout = netlist.fanout()
        self._plan: PackedPlan = packed_plan(netlist)
        # One event engine serves every targeted fault: after each fault the
        # undo log rewinds it to the empty-assignment checkpoint and the
        # next fault's overlay is re-forced (see _event_engine), so the
        # state list is built once per PodemAtpg instead of once per fault.
        # The difference set and the D-frontier bookkeeping below persist
        # with it: ``_diff`` holds the nets carrying the fault difference,
        # ``_diff_in_count[row]`` counts a row's distinct difference inputs,
        # and ``_frontier_rows`` holds the rows where that count is positive
        # -- all maintained from the same touched-net lists, and all
        # provably empty/zero again once the engine is rewound (the
        # empty-assignment baseline has no known net, hence no difference).
        self._engine: Optional[TernaryEventEngine] = None
        self._diff: Set[int] = set()
        self._diff_in_count: List[int] = [0] * len(self._plan.rows)
        self._frontier_rows: Set[int] = set()
        # Primary outputs currently in the difference set, maintained in
        # _sync so the detected check is one truthiness test instead
        # of a scan over every output per decision node.
        self._diff_outputs: Set[int] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate_cube(self, fault: StuckAtFault) -> Optional[Dict[str, int]]:
        """A partial input assignment detecting ``fault``, or None.

        ``None`` means the fault is redundant or the backtrack limit was hit.
        """
        assignment: Dict[str, int] = {}
        self._backtracks = 0
        self._decisions = 0
        # Per-fault engine telemetry (read by run() after the call); the
        # D-frontier histogram needs an extra scan per objective, so it is
        # collected only while a live recorder is installed.
        self._frontier_sizes = [] if get_recorder().enabled else None
        self._engine_events = 0
        self._engine_passes = 0
        self._engine_undo_depth = 0
        self._engine_reused = False
        if self._engine_name == "events":
            engine, token = self._event_engine(fault)
            events_before = engine.events_processed
            passes_before = engine.propagate_passes
            # The engine was rewound to the empty-assignment baseline (no
            # known net, so no difference) before the overlay was re-forced;
            # syncing the nets the overlay touched rebuilds the difference
            # set and frontier without the old full-netlist scan.
            states = engine.states
            self._sync(states, engine.changed_entries(token))
            try:
                found = self._podem_events(fault, assignment, engine)
            finally:
                self._sync(states, engine.release_force(token))
            self._engine_events = engine.events_processed - events_before
            self._engine_passes = engine.propagate_passes - passes_before
            self._engine_undo_depth = engine.max_undo_depth
        elif self._engine_name == "reference":
            found = self._podem(fault, assignment)
        else:
            found = self._podem_packed(fault, assignment)
        if found:
            return dict(assignment)
        return None

    def run(
        self,
        faults: Optional[Sequence[StuckAtFault]] = None,
        fill_seed: int = 1,
        fault_dropping: bool = True,
        fills: Optional[str] = None,
    ) -> AtpgResult:
        """Full ATPG with fault dropping; returns cubes plus statistics.

        ``fills="batched"`` (the events engine's default) collects
        the random fills of pending cubes into one word-packed block and
        hands the whole block to the fault simulator at once, amortising the
        fault-free evaluation the same way campaign fault simulation does.
        Dropping stays exact: a fault whose turn comes up while fills are
        pending is first screened against the pending block (one cone
        evaluation over all pending patterns), so it is skipped exactly when
        the per-pattern reference (``fills="per-pattern"``, the reference
        and packed engines' default) would have dropped it -- cubes,
        statistics and coverage are bit-identical either way.

        The three fault lists of the result are disjoint and sum to
        ``total_faults``: a fault PODEM aborted on that a later random fill
        detects counts as detected only.
        """
        from repro.circuits.fault_sim import FaultSimulator

        if fills is None:
            fills = "batched" if self._engine_name == "events" else "per-pattern"
        elif fills not in ("batched", "per-pattern"):
            raise ValueError(
                f"fills must be 'batched' or 'per-pattern', got {fills!r}"
            )
        recorder = get_recorder()
        universe = list(faults if faults is not None else collapse_faults(self._netlist))
        simulator = FaultSimulator(self._netlist, universe, engine=self._engine_name)
        rng = random.Random(fill_seed)
        cubes: List[TestCube] = []
        detected: List[StuckAtFault] = []
        redundant: List[StuckAtFault] = []
        aborted: List[StuckAtFault] = []
        block = (
            _PendingFills(self._plan, simulator.word_width)
            if fills == "batched"
            else None
        )

        with recorder.span(
            "atpg.run", circuit=self._netlist.name, faults=len(universe)
        ) as span:
            for fault in universe:
                if fault_dropping and not simulator.is_remaining(fault):
                    continue
                if block is not None and fault_dropping and block.num_patterns:
                    word = simulator.detection_word(
                        block.good_words, block.num_patterns, fault
                    )
                    if word:
                        # A pending fill detects this fault: the per-pattern
                        # path would have dropped it when that fill was
                        # simulated, before this turn came up.
                        simulator.drop_fault(fault)
                        detected.append(fault)
                        continue
                assignment = self.generate_cube(fault)
                if recorder.enabled:
                    self._flush_fault_telemetry(recorder)
                if assignment is None:
                    if self._backtracks >= self._backtrack_limit:
                        aborted.append(fault)
                    else:
                        redundant.append(fault)
                    continue
                cube = self._assignment_to_cube(assignment)
                cubes.append(cube)
                # Random-fill the cube and drop everything it detects.
                filled = {
                    net: assignment.get(net, rng.getrandbits(1))
                    for net in self._netlist.inputs
                }
                if block is None:
                    result = simulator.simulate_patterns([filled])
                    detected.extend(result.detected_faults())
                    if fault not in result.detected:
                        # The fill can mask the target in rare cases; the
                        # target is still detected by its own (unfilled)
                        # cube.  Drop it too, so the simulator's coverage
                        # agrees with ours.
                        detected.append(fault)
                        simulator.drop_fault(fault)
                else:
                    # The targeted fault is resolved here either way -- by
                    # its own fill, or force-counted through its unfilled
                    # cube -- so only the *other* faults wait for the block
                    # simulation.
                    detected.append(fault)
                    simulator.drop_fault(fault)
                    block.append(filled)
                    if block.num_patterns >= block.capacity:
                        detected.extend(self._flush_fills(simulator, block))
            if block is not None:
                detected.extend(self._flush_fills(simulator, block))
            detected_faults = sorted(set(detected))
            assert detected_faults == simulator.detected_faults, (
                "ATPG bookkeeping diverged from the fault simulator: "
                f"{len(detected_faults)} vs {len(simulator.detected_faults)} detected"
            )
            # An aborted fault stays in the simulator's remaining set, so a
            # later fill can still detect it: keep it in one list only.
            aborted = [fault for fault in aborted if simulator.is_remaining(fault)]
            if recorder.enabled:
                span.set("detected", len(detected_faults))
                span.set("redundant", len(redundant))
                span.set("aborted", len(aborted))
                span.set("cubes", len(cubes))
        test_set = (
            TestSet(self._netlist.name, cubes)
            if cubes
            else TestSet(
                self._netlist.name,
                [TestCube.from_assignments(self._netlist.num_inputs, {0: 0})],
            )
        )
        return AtpgResult(
            test_set=test_set,
            detected=detected_faults,
            redundant=redundant,
            aborted=aborted,
            total_faults=len(universe),
        )

    def _flush_fault_telemetry(self, recorder) -> None:
        """Push the per-fault counters from :meth:`generate_cube` out."""
        recorder.counter("atpg.faults_targeted")
        recorder.counter("atpg.decisions", self._decisions)
        recorder.counter("atpg.backtracks", self._backtracks)
        if self._engine_reused:
            recorder.counter("atpg.engine_reuses")
        if self._engine_events:
            recorder.counter("atpg.events_processed", self._engine_events)
        if self._engine_passes:
            recorder.counter("atpg.propagate_passes", self._engine_passes)
            recorder.observe(
                "atpg.events_per_pass", self._engine_events // self._engine_passes
            )
        if self._engine_undo_depth:
            recorder.observe("atpg.undo_depth", self._engine_undo_depth)
        if self._frontier_sizes:
            for size in self._frontier_sizes:
                recorder.observe("atpg.d_frontier", size)

    def _flush_fills(
        self, simulator, block: "_PendingFills"
    ) -> List[StuckAtFault]:
        """Simulate and drop the pending fill block; returns its detections."""
        if not block.num_patterns:
            return []
        result = simulator.detect_block(block.good_words, block.num_patterns)
        block.reset()
        return result.detected_faults()

    # ------------------------------------------------------------------
    # PODEM internals -- reference (dict-based) engine
    # ------------------------------------------------------------------
    def _podem(self, fault: StuckAtFault, assignment: Dict[str, int]) -> bool:
        status = self._evaluate(fault, assignment)
        if status == "detected":
            return True
        if status == "impossible":
            return False
        objective = self._objective(fault, assignment)
        if objective is None:
            return False
        pi, value = self._backtrace(objective, assignment)
        for candidate in (value, 1 - value):
            assignment[pi] = candidate
            self._decisions += 1
            if self._podem(fault, assignment):
                return True
            self._backtracks += 1
            if self._backtracks >= self._backtrack_limit:
                del assignment[pi]
                return False
        del assignment[pi]
        return False

    def _evaluate(self, fault: StuckAtFault, assignment: Dict[str, int]) -> str:
        """Classify the current partial assignment for the target fault."""
        good = simulate_ternary_reference(self._netlist, assignment)
        faulty = self._faulty_ternary(fault, assignment)
        # Fault activation check.
        activation = good[fault.net]
        if activation == fault.stuck_value:
            return "impossible"
        for output in self._netlist.outputs:
            g, f = good[output], faulty[output]
            if g is not X and f is not X and g != f:
                return "detected"
        # X-path check: some net with differing/possible-differing value must
        # still reach an output through X nets.
        if not self._x_path_exists(good, faulty):
            return "impossible"
        return "undetermined"

    def _faulty_ternary(
        self, fault: StuckAtFault, assignment: Dict[str, int]
    ) -> Dict[str, Optional[int]]:
        from repro.circuits.simulator import _eval_ternary

        values: Dict[str, Optional[int]] = {}
        for net in self._netlist.inputs:
            values[net] = assignment.get(net, X)
            if net == fault.net:
                values[net] = fault.stuck_value
        for gate in self._netlist.gates():
            value = _eval_ternary(gate, values)
            if gate.output == fault.net:
                value = fault.stuck_value
            values[gate.output] = value
        return values

    def _x_path_exists(
        self,
        good: Dict[str, Optional[int]],
        faulty: Dict[str, Optional[int]],
    ) -> bool:
        """True when a difference (or potential difference) can still reach a PO."""
        sources = [
            net
            for net in self._netlist.nets()
            if good[net] is not X and faulty[net] is not X and good[net] != faulty[net]
        ]
        if not sources:
            # The fault is not activated yet; propagation cannot be ruled out.
            return True
        reachable: Set[str] = set()
        stack = list(sources)
        while stack:
            net = stack.pop()
            if net in reachable:
                continue
            reachable.add(net)
            for successor in self._fanout[net]:
                if good[successor] is X or faulty[successor] is X or (
                    good[successor] != faulty[successor]
                ):
                    stack.append(successor)
        return any(net in reachable for net in self._netlist.outputs)

    def _objective(
        self, fault: StuckAtFault, assignment: Dict[str, int]
    ) -> Optional[Tuple[str, int]]:
        """Next (net, value) goal: activate the fault, then propagate it."""
        good = simulate_ternary_reference(self._netlist, assignment)
        if good[fault.net] is X:
            return (fault.net, 1 - fault.stuck_value)
        faulty = self._faulty_ternary(fault, assignment)
        # D-frontier: gates whose output is X while some input carries the
        # fault difference.
        for gate in self._netlist.gates():
            if good[gate.output] is not X and faulty[gate.output] is not X:
                continue
            carries_difference = any(
                good[src] is not X
                and faulty[src] is not X
                and good[src] != faulty[src]
                for src in gate.inputs
            )
            if not carries_difference:
                continue
            control = _CONTROLLING.get(gate.gate_type)
            non_controlling = 1 - control if control is not None else 0
            for src in gate.inputs:
                if good[src] is X:
                    return (src, non_controlling)
        return None

    def _backtrace(
        self, objective: Tuple[str, int], assignment: Dict[str, int]
    ) -> Tuple[str, int]:
        """Map an objective back to an unassigned primary input."""
        net, value = objective
        good = simulate_ternary_reference(self._netlist, assignment)
        while net not in self._netlist.inputs:
            gate = self._netlist.gate(net)
            if gate.gate_type.inverting:
                value = 1 - value
            # Choose an input with unknown value to continue the backtrace.
            next_net = None
            for src in gate.inputs:
                if good[src] is X:
                    next_net = src
                    break
            if next_net is None:
                next_net = gate.inputs[0]
            net = next_net
        return net, value

    # ------------------------------------------------------------------
    # PODEM internals -- packed dual-machine engine
    # ------------------------------------------------------------------
    def _podem_packed(self, fault: StuckAtFault, assignment: Dict[str, int]) -> bool:
        """The same decision tree as :meth:`_podem`, on packed state.

        One packed good+faulty evaluation per decision node feeds the
        status check, the objective search and the backtrace -- the
        reference engine re-simulated for each of those.
        """
        values, cares = self._dual_state(fault, assignment)
        status = self._evaluate_packed(fault, values, cares)
        if status == "detected":
            return True
        if status == "impossible":
            return False
        objective = self._objective_packed(fault, values, cares)
        if objective is None:
            return False
        pi, value = self._backtrace_packed(objective, cares)
        for candidate in (value, 1 - value):
            assignment[pi] = candidate
            self._decisions += 1
            if self._podem_packed(fault, assignment):
                return True
            self._backtracks += 1
            if self._backtracks >= self._backtrack_limit:
                del assignment[pi]
                return False
        del assignment[pi]
        return False

    def _dual_state(
        self, fault: StuckAtFault, assignment: Dict[str, int]
    ) -> Tuple[List[int], List[int]]:
        """Packed 2-bit state of the good (bit 0) and faulty (bit 1) machine."""
        plan = self._plan
        values = [0] * plan.num_nets
        cares = [0] * plan.num_nets
        nets = plan.nets
        for i in range(plan.num_inputs):
            bit = assignment.get(nets[i])
            if bit is not None:
                cares[i] = _BOTH
                if bit:
                    values[i] = _BOTH
        fault_index = plan.index[fault.net]
        stuck = _FAULTY if fault.stuck_value else 0
        if fault_index < plan.num_inputs:
            # Input-site fault: force before evaluation (inputs have no row).
            cares[fault_index] |= _FAULTY
            values[fault_index] = (values[fault_index] & _GOOD) | stuck
            eval_ternary(plan, values, cares, _BOTH)
        else:
            eval_ternary(
                plan,
                values,
                cares,
                _BOTH,
                force_index=fault_index,
                force_mask=_FAULTY,
                force_value=stuck,
            )
        return values, cares

    def _evaluate_packed(
        self, fault: StuckAtFault, values: List[int], cares: List[int]
    ) -> str:
        """Classify the current packed state for the target fault."""
        plan = self._plan
        fault_index = plan.index[fault.net]
        # Fault activation check (on the good machine).
        if cares[fault_index] & _GOOD and (values[fault_index] & _GOOD) == (
            fault.stuck_value & _GOOD
        ):
            return "impossible"
        for output in plan.output_indices:
            if cares[output] & _BOTH == _BOTH and (
                values[output] ^ (values[output] >> 1)
            ) & 1:
                return "detected"
        if not self._x_path_exists_packed(values, cares):
            return "impossible"
        return "undetermined"

    def _x_path_exists_packed(self, values: List[int], cares: List[int]) -> bool:
        """True when a difference (or potential one) can still reach a PO."""
        plan = self._plan
        sources = [
            net
            for net in range(plan.num_nets)
            if cares[net] & _BOTH == _BOTH and (values[net] ^ (values[net] >> 1)) & 1
        ]
        if not sources:
            # The fault is not activated yet; propagation cannot be ruled out.
            return True
        fanout = plan.fanout
        reachable: Set[int] = set()
        stack = sources
        while stack:
            net = stack.pop()
            if net in reachable:
                continue
            reachable.add(net)
            for successor in fanout[net]:
                if cares[successor] & _BOTH != _BOTH or (
                    values[successor] ^ (values[successor] >> 1)
                ) & 1:
                    stack.append(successor)
        return any(net in reachable for net in plan.output_indices)

    def _objective_packed(
        self, fault: StuckAtFault, values: List[int], cares: List[int]
    ) -> Optional[Tuple[int, int]]:
        """Next (net index, value) goal: activate the fault, then propagate."""
        plan = self._plan
        fault_index = plan.index[fault.net]
        if not cares[fault_index] & _GOOD:
            return (fault_index, 1 - fault.stuck_value)
        # D-frontier: gates whose output is X on either machine while some
        # input carries the fault difference.
        for output, op, inputs, _inverting in plan.rows:
            if cares[output] & _BOTH == _BOTH:
                continue
            carries_difference = any(
                cares[src] & _BOTH == _BOTH
                and (values[src] ^ (values[src] >> 1)) & 1
                for src in inputs
            )
            if not carries_difference:
                continue
            if op == OP_AND:
                non_controlling = 1
            elif op == OP_OR:
                non_controlling = 0
            else:
                non_controlling = 0
            for src in inputs:
                if not cares[src] & _GOOD:
                    return (src, non_controlling)
        return None

    def _backtrace_packed(
        self, objective: Tuple[int, int], cares: List[int]
    ) -> Tuple[str, int]:
        """Map an objective back to an unassigned primary input (by name)."""
        net, value = objective
        rows = self._plan.rows
        num_inputs = self._plan.num_inputs
        while net >= num_inputs:
            # Gate nets follow the inputs in row order.
            _output, _op, inputs, inverting = rows[net - num_inputs]
            if inverting:
                value = 1 - value
            # Choose an input with unknown good value to continue the trace.
            next_net = None
            for src in inputs:
                if not cares[src] & _GOOD:
                    next_net = src
                    break
            if next_net is None:
                next_net = inputs[0]
            net = next_net
        return self._plan.nets[net], value

    # ------------------------------------------------------------------
    # PODEM internals -- event-driven engine (packed + incremental)
    # ------------------------------------------------------------------
    def _event_engine(self, fault: StuckAtFault) -> Tuple[TernaryEventEngine, int]:
        """The persistent dual-machine engine, re-forced for ``fault``.

        The engine is built once per :class:`PodemAtpg` (at the
        empty-assignment baseline, no overlay) and reused for every
        targeted fault: each call installs the fault's overlay with
        :meth:`~TernaryEventEngine.reforce` and returns the undo token
        that :meth:`generate_cube` hands back to
        :meth:`~TernaryEventEngine.release_force` when the fault is done.
        """
        plan = self._plan
        engine = self._engine
        if engine is None:
            engine = self._engine = TernaryEventEngine(plan)
        else:
            self._engine_reused = True
        # The undo log is empty here (every fault releases back to the
        # baseline), so the per-fault watermark restarts from zero.
        engine.max_undo_depth = 0
        token = engine.reforce(
            plan.index[fault.net],
            _FAULTY,
            _FAULTY if fault.stuck_value else 0,
        )
        return engine, token

    def _podem_events(
        self,
        fault: StuckAtFault,
        assignment: Dict[str, int],
        engine: TernaryEventEngine,
    ) -> bool:
        """The same decision tree as :meth:`_podem_packed`, incrementally.

        The packed engine re-simulated the whole netlist once per decision
        node; here the engine state persists across the recursion, every
        input assignment updates only that input's fanout cone through the
        per-level bucket queues, and backtracking rewinds the undo log --
        O(changed cone) per decision instead of O(netlist).  The engine is
        fenced to the fault's region, so the cone is cut to the rows PODEM
        can read: every net read below is a region net, exact as in the
        packed engine's full pass.  ``_diff`` (the nets currently carrying
        the fault difference) and ``_frontier_rows`` (the rows reading at
        least one of them) are kept in sync from the nets each update
        touched, so the X-path check reads the set and the objective search
        reads a maintained D-frontier instead of rescanning every net or
        plan row.  The status check, objective search and backtrace read
        the engine's states through the same predicates the packed engine
        computes from its two words, so all three engines take identical
        decisions node for node.
        """
        states = engine.states
        status = self._evaluate_events(fault, states)
        if status == "detected":
            return True
        if status == "impossible":
            return False
        objective = self._objective_events(fault, states)
        if objective is None:
            return False
        pi_index, value = self._backtrace_events(objective, states)
        pi = self._plan.nets[pi_index]
        for candidate in (value, 1 - value):
            assignment[pi] = candidate
            self._decisions += 1
            token = engine.assign(pi_index, candidate)
            self._sync(states, engine.changed_entries(token))
            if self._podem_events(fault, assignment, engine):
                return True
            self._sync(states, engine.rewind(token))
            self._backtracks += 1
            if self._backtracks >= self._backtrack_limit:
                del assignment[pi]
                return False
        del assignment[pi]
        return False

    def _sync(self, states: List[int], touched: List[Tuple[int, int]]) -> None:
        """Re-derive difference membership for the nets an update touched.

        ``touched`` is the ``(net, old_state)`` undo-log slice of an engine
        update: an assign or a reforce, after which ``states`` holds the
        new states, or a rewind, after which it holds the restored ones.
        Each net's membership follows its live state, so a net logged
        several times since a rewind token ends where the rewind left it.
        A net entering or leaving the difference set bumps the distinct-
        difference-input count of each plan row reading it (reader_rows
        positions are distinct per net), and the row joins or leaves the
        maintained D-frontier when that count crosses zero -- so frontier
        upkeep costs nothing on the (overwhelmingly common) updates that
        do not toggle difference membership.
        """
        diff = self._diff
        counts = self._diff_in_count
        frontier = self._frontier_rows
        reader_rows = self._plan.reader_rows
        is_output = self._plan.is_output
        diff_outputs = self._diff_outputs
        for index, _old in touched:
            if CARRIES_DIFFERENCE[states[index]]:
                if index not in diff:
                    diff.add(index)
                    if is_output[index]:
                        diff_outputs.add(index)
                    for row in reader_rows[index]:
                        count = counts[row] + 1
                        counts[row] = count
                        if count == 1:
                            frontier.add(row)
            elif index in diff:
                diff.discard(index)
                if is_output[index]:
                    diff_outputs.discard(index)
                for row in reader_rows[index]:
                    count = counts[row] - 1
                    counts[row] = count
                    if not count:
                        frontier.discard(row)

    # NOTE: the four *_events helpers below deliberately *restate* their
    # _*_packed counterparts (reading the engine's states through the
    # predicate tables, and the maintained sets for the recomputed
    # difference scans) instead of sharing code with them.  The full-pass
    # methods are the frozen reference this engine is golden-tested
    # against -- the same pattern as simulate_ternary_reference and
    # build_embedding_map_reference -- and a shared helper would make the
    # bit-identity tests tautological.
    def _evaluate_events(self, fault: StuckAtFault, states: List[int]) -> str:
        """:meth:`_evaluate_packed` with the maintained difference set."""
        fault_index = self._plan.index[fault.net]
        if GOOD_VALUE[states[fault_index]] == fault.stuck_value:
            return "impossible"
        if self._diff_outputs:
            # Maintained alongside ``diff``: nonempty iff some primary
            # output carries the difference -- the per-output scan this
            # replaces returned "detected" under exactly that condition.
            return "detected"
        if not self._x_path_exists_events(states, self._diff):
            return "impossible"
        return "undetermined"

    def _x_path_exists_events(self, states: List[int], diff: Set[int]) -> bool:
        """:meth:`_x_path_exists_packed` seeded from the difference set.

        The walk returns as soon as it reaches a primary output: a net
        is in the full walk's reachable set iff the walk would pop it
        eventually, so the early exit answers exactly the final
        ``any(output reachable)`` of the full-pass reference.
        """
        if not diff:
            # The fault is not activated yet; propagation cannot be ruled out.
            return True
        fanout = self._plan.fanout
        is_output = self._plan.is_output
        reachable: Set[int] = set()
        stack = list(diff)
        while stack:
            net = stack.pop()
            if net in reachable:
                continue
            if is_output[net]:
                return True
            reachable.add(net)
            for successor in fanout[net]:
                if not BOTH_KNOWN[states[successor]] or successor in diff:
                    stack.append(successor)
        return False

    def _objective_events(
        self, fault: StuckAtFault, states: List[int]
    ) -> Optional[Tuple[int, int]]:
        """:meth:`_objective_packed` read off the maintained D-frontier.

        ``_frontier_rows`` holds exactly the rows with a difference-carrying
        input, so walking it in ascending plan order and skipping rows whose
        output is already known on both machines visits the same candidate
        gates, in the same order, as the full plan scan it replaced --
        the returned objective is bit-identical.
        """
        plan = self._plan
        fault_index = plan.index[fault.net]
        if not GOOD_KNOWN[states[fault_index]]:
            return (fault_index, 1 - fault.stuck_value)
        rows = plan.rows
        frontier = sorted(self._frontier_rows)
        if self._frontier_sizes is not None:
            # Recorder installed: histogram the D-frontier size (candidate
            # rows whose output is still unknown).  The search loop below
            # early-returns at the first frontier gate, so the complete
            # count needs this extra (trace-only) scan.
            self._frontier_sizes.append(
                sum(
                    1
                    for position in frontier
                    if not BOTH_KNOWN[states[rows[position][0]]]
                )
            )
        for position in frontier:
            output, op, inputs, _inverting = rows[position]
            if BOTH_KNOWN[states[output]]:
                continue
            non_controlling = 1 if op == OP_AND else 0
            for src in inputs:
                if not GOOD_KNOWN[states[src]]:
                    return (src, non_controlling)
        return None

    def _backtrace_events(
        self, objective: Tuple[int, int], states: List[int]
    ) -> Tuple[int, int]:
        """:meth:`_backtrace_packed`, returning the input's net index."""
        net, value = objective
        rows = self._plan.rows
        num_inputs = self._plan.num_inputs
        while net >= num_inputs:
            # Gate nets follow the inputs in row order.
            _output, _op, inputs, inverting = rows[net - num_inputs]
            if inverting:
                value = 1 - value
            # Choose an input with unknown good value to continue the trace.
            next_net = None
            for src in inputs:
                if not GOOD_KNOWN[states[src]]:
                    next_net = src
                    break
            if next_net is None:
                next_net = inputs[0]
            net = next_net
        return net, value

    def _assignment_to_cube(self, assignment: Dict[str, int]) -> TestCube:
        indexed = {
            self._netlist.input_index(net): value for net, value in assignment.items()
        }
        if not indexed:
            indexed = {0: 0}
        return TestCube.from_assignments(self._netlist.num_inputs, indexed)


class _PendingFills:
    """A word-packed block of random-filled patterns awaiting drop simulation.

    Each appended fill is evaluated fault-free at 1-bit width (the same
    per-pattern cost the unbatched path pays) and OR-merged into the
    block's packed good state -- binary evaluation is bit-sliced, so the
    merged words equal one wide evaluation of all pending patterns.
    ``good_words`` lists them by plan net index, the form the fault
    simulator's cone evaluation reads; it screens and drops against the
    whole block at once.
    """

    __slots__ = ("plan", "capacity", "patterns", "good_words")

    def __init__(self, plan: PackedPlan, capacity: int):
        self.plan = plan
        self.capacity = capacity
        self.reset()

    def reset(self) -> None:
        self.patterns: List[Dict[str, int]] = []
        self.good_words: List[int] = [0] * self.plan.num_nets

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    def append(self, filled: Dict[str, int]) -> None:
        plan = self.plan
        values = [0] * plan.num_nets
        nets = plan.nets
        for i in range(plan.num_inputs):
            values[i] = filled[nets[i]]
        eval_binary(plan, values, 1)
        bit = 1 << len(self.patterns)
        self.good_words = [
            word | bit if value else word
            for word, value in zip(self.good_words, values)
        ]
        self.patterns.append(filled)


def generate_test_set_for_netlist(
    netlist: Netlist, backtrack_limit: int = 200, fill_seed: int = 1
) -> AtpgResult:
    """Convenience wrapper: collapsed faults, PODEM, fault dropping."""
    return PodemAtpg(netlist, backtrack_limit=backtrack_limit).run(
        fill_seed=fill_seed
    )
