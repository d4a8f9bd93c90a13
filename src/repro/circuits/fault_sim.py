"""Parallel-pattern single-fault propagation fault simulation.

The simulator evaluates the fault-free circuit once per pattern block (up to
``word_width`` patterns packed into each net's integer -- Python ints have
arbitrary width, so the default block is 256 patterns wide), then, fault by
fault, re-evaluates only with the fault injected and compares the primary
outputs.  A fault is detected under pattern ``p`` when any output differs in
bit ``p``.  Fault dropping removes detected faults from subsequent blocks,
which is what makes the ATPG loop (generate a cube, random-fill it, simulate,
drop) cheap.

Per-fault work is bounded three ways: the shared fault-free block evaluation
is memoized and reused by every fault, a fault whose site already carries the
stuck value under every pattern of the block is skipped outright (it cannot
be activated), and only the gates in the fault's fanout cone are re-evaluated
-- a row is skipped unless one of its inputs differs from the good block, so
propagation stops as soon as the faulty values converge back to the good
ones.  The cones come from the netlist's
:class:`~repro.circuits.ternary.PackedPlan` cone table, which PODEM's engine
shares, and the good block is a list of words in plan net order.

``engine="events"`` (the default) runs the fanout-cone propagation above;
the ``packed`` and ``reference`` oracles keep the original dense
full-circuit re-evaluation per fault.  All engines report identical
detections (the golden-equivalence tests and the conformance suite rely on
this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.circuits.faults import StuckAtFault, collapse_faults
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import check_engine, pack_patterns
from repro.circuits.ternary import (
    OP_AND as _OP_AND,
    OP_OR as _OP_OR,
    OP_XOR as _OP_XOR,
    eval_binary,
    packed_plan,
)
from repro.telemetry import get_recorder


@dataclass
class FaultSimResult:
    """Outcome of simulating one pattern block."""

    detected: Dict[StuckAtFault, int] = field(default_factory=dict)

    def detected_faults(self) -> List[StuckAtFault]:
        return sorted(self.detected)

    def detecting_pattern(self, fault: StuckAtFault) -> Optional[int]:
        """Index (within the block) of the first pattern detecting ``fault``."""
        word = self.detected.get(fault)
        if word is None or word == 0:
            return None
        return (word & -word).bit_length() - 1


class FaultSimulator:
    """Stateful fault simulator with fault dropping."""

    def __init__(
        self,
        netlist: Netlist,
        faults: Optional[Sequence[StuckAtFault]] = None,
        word_width: int = 256,
        engine: str = "events",
    ):
        if word_width < 1:
            raise ValueError("word_width must be positive")
        self._netlist = netlist
        self._word_width = word_width
        self._cone = check_engine(engine) == "events"
        self._plan = packed_plan(netlist)
        self._remaining: Set[StuckAtFault] = set(
            faults if faults is not None else collapse_faults(netlist)
        )
        self._detected: Set[StuckAtFault] = set()
        self._initial_count = len(self._remaining)
        # Activation-screen telemetry: plain int increments in the hot path,
        # flushed to the recorder as deltas once per block.
        self._screen_calls = 0
        self._screen_hits = 0
        self._screen_flushed_calls = 0
        self._screen_flushed_hits = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def word_width(self) -> int:
        return self._word_width

    @property
    def remaining_faults(self) -> List[StuckAtFault]:
        return sorted(self._remaining)

    @property
    def detected_faults(self) -> List[StuckAtFault]:
        return sorted(self._detected)

    def is_remaining(self, fault: StuckAtFault) -> bool:
        """Set-backed membership test (``remaining_faults`` sorts a copy)."""
        return fault in self._remaining

    def drop_fault(self, fault: StuckAtFault) -> None:
        """Move one fault from remaining to detected (a forced drop).

        The ATPG loop uses this when a targeted fault is counted as
        detected through its own unfilled cube (the random fill masked it):
        without the drop, the simulator's coverage would disagree with the
        returned :class:`~repro.circuits.atpg.AtpgResult`.
        """
        if fault in self._remaining:
            self._remaining.discard(fault)
            self._detected.add(fault)

    @property
    def coverage_percent(self) -> float:
        if self._initial_count == 0:
            return 100.0
        return 100.0 * len(self._detected) / self._initial_count

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate_patterns(
        self, patterns: Sequence[Dict[str, int]], drop: bool = True
    ) -> FaultSimResult:
        """Simulate fully specified patterns against the remaining faults."""
        inputs = self._netlist.inputs
        blocks = []
        for start in range(0, len(patterns), self._word_width):
            block = patterns[start : start + self._word_width]
            words = pack_patterns(self._netlist, block)
            blocks.append(([words[net] for net in inputs], len(block)))
        return self._simulate_blocks(blocks, drop)

    def simulate_vectors(
        self, vectors: Iterable[int], drop: bool = True
    ) -> FaultSimResult:
        """Simulate packed test vectors (bit ``i`` of the int = input ``i``).

        Each block of vectors is transposed straight into the input words
        that seed the fault-free evaluation; bits above the input count are
        ignored.
        """
        vectors = list(vectors)
        width = self._word_width
        num_inputs = self._plan.num_inputs
        blocks = (
            (
                _input_words(vectors[start : start + width], num_inputs),
                min(width, len(vectors) - start),
            )
            for start in range(0, len(vectors), width)
        )
        return self._simulate_blocks(blocks, drop)

    def detect_block(
        self, good: Sequence[int], num_patterns: int, drop: bool = True
    ) -> FaultSimResult:
        """Detect remaining faults against a precomputed fault-free block.

        ``good`` holds every net's packed fault-free word over
        ``num_patterns`` patterns, indexed like ``packed_plan(netlist).nets``
        (primary inputs first, then gate outputs in evaluation order) --
        exactly what the batched ATPG fill block accumulates one pattern at
        a time.  Skipping the redundant re-evaluation of the fault-free
        circuit is what makes handing a whole fill block over in one call
        worthwhile.
        """
        result = FaultSimResult(detected=self._detect_block(good, num_patterns))
        if drop:
            self._detected.update(result.detected)
            self._remaining.difference_update(result.detected)
        self._flush_block_telemetry(num_patterns, len(result.detected))
        return result

    def detection_word(
        self, good: Sequence[int], num_patterns: int, fault: StuckAtFault
    ) -> int:
        """Detection word of one fault against a precomputed fault-free block.

        ``good`` is indexed as in :meth:`detect_block`.  A pure query:
        nothing is dropped.  The batched ATPG loop screens each upcoming
        fault against the pending fills with one such call (one fanout-cone
        evaluation over all pending patterns, instead of one per fill).
        """
        return self._detector()(good, (1 << num_patterns) - 1, fault)

    def _simulate_blocks(
        self, blocks: Iterable[Tuple[List[int], int]], drop: bool
    ) -> FaultSimResult:
        """Simulate ``(input words, pattern count)`` blocks in order."""
        result = FaultSimResult()
        start = 0
        for input_words, num_patterns in blocks:
            block_result = self._simulate_block(input_words, num_patterns)
            for fault, word in block_result.items():
                result.detected[fault] = result.detected.get(fault, 0) | (
                    word << start
                )
            if drop:
                self._detected.update(block_result)
                self._remaining.difference_update(block_result)
            start += num_patterns
        return result

    def _simulate_block(
        self, input_words: List[int], num_patterns: int
    ) -> Dict[StuckAtFault, int]:
        # The fault-free evaluation is computed once and shared by every
        # fault of the block (each fault only overlays its fanout cone).
        plan = self._plan
        good = input_words + [0] * (plan.num_nets - plan.num_inputs)
        eval_binary(plan, good, (1 << num_patterns) - 1)
        detected = self._detect_block(good, num_patterns)
        self._flush_block_telemetry(num_patterns, len(detected))
        return detected

    def _flush_block_telemetry(self, num_patterns: int, dropped: int) -> None:
        """Per-block counter flush (no-op unless a recorder is installed)."""
        recorder = get_recorder()
        if not recorder.enabled:
            return
        recorder.counter("faultsim.blocks")
        recorder.counter("faultsim.patterns", num_patterns)
        recorder.observe("faultsim.dropped_per_block", dropped)
        calls = self._screen_calls - self._screen_flushed_calls
        if calls:
            # Hit/miss pair (not hits/calls) so the registry's ``*_hits`` /
            # ``*_misses`` pairing derives the activation-screen rate.
            hits = self._screen_hits - self._screen_flushed_hits
            if hits:
                recorder.counter("faultsim.screen_hits", hits)
            if calls - hits:
                recorder.counter("faultsim.screen_misses", calls - hits)
            self._screen_flushed_calls = self._screen_calls
            self._screen_flushed_hits = self._screen_hits

    def _detect_block(
        self, good: Sequence[int], num_patterns: int
    ) -> Dict[StuckAtFault, int]:
        mask = (1 << num_patterns) - 1
        detected: Dict[StuckAtFault, int] = {}
        detect = self._detector()
        for fault in list(self._remaining):
            diff = detect(good, mask, fault)
            if diff:
                detected[fault] = diff
        return detected

    def _detector(self):
        """The per-fault detector ``detect(good, mask, fault)`` of the engine.

        It returns the output difference word of one fault against a
        fault-free block.  Bound per call rather than stored, so the
        simulator holds no reference cycle to itself.
        """
        return self._cone_diff if self._cone else self._dense_diff

    def _dense_diff(
        self, good: Sequence[int], mask: int, fault: StuckAtFault
    ) -> int:
        """Output difference word via dense full-circuit re-evaluation.

        The original per-fault strategy, kept as the ``reference`` /
        ``packed`` engines' detector.
        """
        num_patterns = mask.bit_length()
        faulty = self._simulate_with_fault(good, num_patterns, fault)
        diff = 0
        for net in self._plan.output_indices:
            diff |= (good[net] ^ faulty[net]) & mask
            if diff == mask:
                break
        return diff

    def _cone_diff(
        self, good: Sequence[int], mask: int, fault: StuckAtFault
    ) -> int:
        """Output difference word of one fault, via its fanout cone only."""
        site = self._plan.index[fault.net]
        stuck_word = mask if fault.stuck_value else 0
        self._screen_calls += 1
        if good[site] == stuck_word:
            # The site never deviates from the stuck value in this block, so
            # the fault cannot be activated by any of its patterns.
            self._screen_hits += 1
            return 0
        is_output = self._plan.is_output
        faulty = list(good)
        faulty[site] = stuck_word
        changed = {site}
        diff = stuck_word ^ good[site] if is_output[site] else 0
        for output, op, inputs, inverting in self._plan.cone_rows(site):
            for net in inputs:
                if net in changed:
                    break
            else:
                continue
            if op == _OP_AND:
                result = mask
                for net in inputs:
                    result &= faulty[net]
            elif op == _OP_OR:
                result = 0
                for net in inputs:
                    result |= faulty[net]
            elif op == _OP_XOR:
                result = 0
                for net in inputs:
                    result ^= faulty[net]
            else:
                result = faulty[inputs[0]]
            if inverting:
                result = ~result & mask
            if result != good[output]:
                faulty[output] = result
                changed.add(output)
                if is_output[output]:
                    diff |= result ^ good[output]
        return diff & mask

    def _simulate_with_fault(
        self, words: Sequence[int], num_patterns: int, fault: StuckAtFault
    ) -> List[int]:
        """Dense faulty-circuit evaluation via the shared packed overlay.

        The stuck-at injection is the same overlay PODEM's faulty machine
        uses (:func:`repro.circuits.ternary.eval_binary` forcing): input
        sites are forced before the plan runs, gate sites right after their
        row evaluates.
        """
        mask = (1 << num_patterns) - 1
        stuck_word = mask if fault.stuck_value else 0
        plan = self._plan
        values = [0] * plan.num_nets
        for i in range(plan.num_inputs):
            values[i] = words[i] & mask
        fault_index = plan.index[fault.net]
        if fault_index < plan.num_inputs:
            values[fault_index] = stuck_word
            eval_binary(plan, values, mask)
        else:
            eval_binary(
                plan, values, mask, force_index=fault_index, force_word=stuck_word
            )
        return values


def _input_words(vectors: Sequence[int], num_inputs: int) -> List[int]:
    """Transpose packed vectors into one word per input, in input order.

    Bit ``p`` of input ``i``'s word is bit ``i`` of ``vectors[p]``.  Each
    vector becomes a binary string, most significant input first, so
    ``zip`` yields the inputs' columns from the last input down, and a
    reversed column puts vector ``p`` at bit ``p``.
    """
    mask = (1 << num_inputs) - 1
    rows = [format(vector & mask, f"0{num_inputs}b") for vector in vectors]
    return [int("".join(column)[::-1], 2) for column in zip(*rows)][::-1]
