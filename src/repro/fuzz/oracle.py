"""Differential oracle: every interchangeable engine pair, bit for bit.

The repo accumulated engine variants behind the backend registry (packed vs
dict simulation, the persistent bucket-queue event engine vs from-scratch
evaluation, event-driven vs full-pass PODEM, batched vs per-pattern
drop simulation, batched-trials vs scan GF(2) solving, numpy vs reference
embedding matching, batched vs per-clock decompressor replay).  The golden
tests pin each pair on a handful of fixed seeds; this module turns the same
idiom into *checks* a fuzz loop can drive with arbitrary seeds and sizes.

A check takes one :class:`~repro.fuzz.generators.FuzzCase`, regenerates the
inputs, runs both sides of its engine pair and returns ``None`` when the
results are bit-identical -- or a human-readable mismatch description.  A
check may raise :class:`SkipCase` when the drawn parameters are simply not
encodable (both sides agreeing to fail is not a divergence).

All engine entry points are called **through their defining modules**, so a
planted mutation (``monkeypatch.setattr(simulator, "simulate_ternary", ...)``
in the tests, or a genuinely broken refactor in review) is observed by the
oracle exactly like it would be by production code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import pipeline as _pipeline
from repro.circuits import atpg as _atpg
from repro.circuits import fault_sim as _fault_sim
from repro.circuits import simulator as _simulator
from repro.circuits.bench import write_bench
from repro.decompressor import architecture as _architecture
from repro.encoding import encoder as _encoder
from repro.encoding.window import EncodingError
from repro.fuzz.generators import (
    FuzzCase,
    ParamRange,
    case_assignments,
    case_config,
    case_netlist,
    case_patterns,
    case_test_set,
)
from repro.skip import selection as _selection
from repro.skip.segments import WindowSegmentation


class SkipCase(Exception):
    """The drawn case is not runnable (e.g. unencodable) on *both* sides."""


@dataclass(frozen=True)
class Check:
    """One differential (or chaos) check the fuzz loop can draw cases for.

    ``space`` maps parameter names to ``(low, high, floor)``: cases are
    drawn from ``[low, high]``, the shrinker may reduce any parameter down
    to ``floor``.  ``run`` returns ``None`` (identical) or a mismatch
    description; ``chaos`` marks fault-injection checks that are excluded
    from the default differential sweep.
    """

    name: str
    description: str
    space: Dict[str, ParamRange]
    run: Callable[[FuzzCase], Optional[str]]
    chaos: bool = False

    def draw(self, rng) -> FuzzCase:
        from repro.fuzz.generators import draw_params

        return FuzzCase(
            check=self.name,
            seed=rng.randrange(2**31),
            params=draw_params(rng, self.space),
        )


@dataclass
class CheckOutcome:
    """What one executed case produced."""

    case: FuzzCase
    status: str  # "ok" | "mismatch" | "skip"
    detail: str = ""
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "mismatch"


def run_case(check: Check, case: FuzzCase) -> CheckOutcome:
    """Execute one case under its check, mapping SkipCase to a skip."""
    import time

    start = time.perf_counter()
    try:
        detail = check.run(case)
    except SkipCase as skip:
        return CheckOutcome(
            case=case,
            status="skip",
            detail=str(skip),
            elapsed_s=time.perf_counter() - start,
        )
    return CheckOutcome(
        case=case,
        status="ok" if detail is None else "mismatch",
        detail=detail or "",
        elapsed_s=time.perf_counter() - start,
    )


def case_artifacts(case: FuzzCase) -> Dict[str, str]:
    """Regenerable input artefacts of a case, keyed by file name.

    Written next to the shrunk case file so a repro directory is
    self-describing even without re-running the generators.
    """
    artifacts: Dict[str, str] = {}
    if "num_inputs" in case.params:
        artifacts["netlist.bench"] = write_bench(case_netlist(case))
    if "num_cells" in case.params:
        artifacts["test_set.tests"] = case_test_set(case).to_text()
    return artifacts


# ----------------------------------------------------------------------
# Differential checks
# ----------------------------------------------------------------------
def _check_ternary_sim(case: FuzzCase) -> Optional[str]:
    """Packed two-word ternary simulation vs the dict reference."""
    netlist = case_netlist(case)
    for index, assignment in enumerate(case_assignments(case, netlist)):
        packed = _simulator.simulate_ternary(netlist, assignment)
        reference = _simulator.simulate_ternary_reference(netlist, assignment)
        if packed != reference:
            diffs = sorted(
                net
                for net in reference
                if packed.get(net, "missing") != reference[net]
            )
            return (
                f"assignment {index}: packed ternary simulation diverges from "
                f"the dict reference on {len(diffs)} net(s), first "
                f"{diffs[0]!r}: packed={packed.get(diffs[0])!r} "
                f"reference={reference[diffs[0]]!r}"
            )
    return None


def _atpg_fingerprint(result) -> Dict[str, object]:
    return {
        "cubes": [str(cube) for cube in result.test_set.cubes],
        "detected": sorted(str(fault) for fault in result.detected),
        "redundant": sorted(str(fault) for fault in result.redundant),
        "aborted": sorted(str(fault) for fault in result.aborted),
        "total_faults": result.total_faults,
    }


def _diff_dicts(a: Dict[str, object], b: Dict[str, object], la: str, lb: str) -> str:
    for key in a:
        if a[key] != b[key]:
            return f"{key}: {la}={_clip(a[key])} {lb}={_clip(b[key])}"
    return "identical keys, unequal dicts"


def _clip(value: object, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _check_podem_events(case: FuzzCase) -> Optional[str]:
    """Event-driven fanout-cone PODEM vs the full-pass packed engine."""
    netlist = case_netlist(case)
    events = _atpg.PodemAtpg(netlist, engine="events").run(
        fill_seed=case.seed, fills="per-pattern"
    )
    full_pass = _atpg.PodemAtpg(netlist, engine="packed").run(
        fill_seed=case.seed, fills="per-pattern"
    )
    a, b = _atpg_fingerprint(events), _atpg_fingerprint(full_pass)
    if a != b:
        return (
            "event-driven PODEM diverges from the full-pass engine: "
            + _diff_dicts(a, b, "events", "full-pass")
        )
    return None


def _check_podem_packed(case: FuzzCase) -> Optional[str]:
    """Packed dual-machine PODEM vs the original dict-based engine."""
    netlist = case_netlist(case)
    packed = _atpg.PodemAtpg(netlist, engine="packed").run(
        fill_seed=case.seed, fills="per-pattern"
    )
    reference = _atpg.PodemAtpg(netlist, engine="reference").run(
        fill_seed=case.seed, fills="per-pattern"
    )
    a, b = _atpg_fingerprint(packed), _atpg_fingerprint(reference)
    if a != b:
        return (
            "packed PODEM diverges from the dict reference engine: "
            + _diff_dicts(a, b, "packed", "dict")
        )
    return None


def _check_event_propagate(case: FuzzCase) -> Optional[str]:
    """Persistent bucket-queue event engine vs from-scratch evaluation.

    Drives one :class:`~repro.circuits.ternary.TernaryEventEngine`
    through a random walk of input assigns, undos and stuck-at overlay
    ``reforce``/``release_force`` pairs -- the exact call pattern of the
    persistent-engine PODEM fast path -- and checks the live state lists
    against a fresh :func:`~repro.circuits.ternary.eval_ternary` after
    every step.  Odd seeds use the 2-bit mask (the table-driven
    propagation), even seeds a wider mask (the generic fused loop).
    """
    import random as _random

    from repro.circuits import ternary as _ternary

    netlist = case_netlist(case)
    plan = _ternary.packed_plan(netlist)
    rng = _random.Random(case.seed)
    patterns = 2 if case.seed % 2 else rng.choice([1, 3, 5])
    mask = (1 << patterns) - 1
    engine = _ternary.TernaryEventEngine(plan, mask)
    assignment: Dict[str, int] = {}
    undo_stack: list = []
    force = None  # (index, fmask, fvalue, token, saved assignment + stack)
    for step in range(case.params["steps"]):
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
            # cleanup -- restore the bookkeeping to the reforce point.
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
        values, cares = _ternary.seed_ternary_inputs(plan, assignment, patterns)
        gate_force, fmask, fvalue = -1, 0, 0
        if force is not None:
            index, fmask, fvalue = force[0], force[1], force[2]
            if index < plan.num_inputs:
                # Input-site overlay: applied to the seeded state (inputs
                # have no plan row to force through).
                cares[index] |= fmask
                values[index] = (values[index] & ~fmask) | (fvalue & fmask)
            else:
                gate_force = index
        _ternary.eval_ternary(
            plan,
            values,
            cares,
            mask,
            force_index=gate_force,
            force_mask=fmask,
            force_value=fvalue,
        )
        if engine.values != values or engine.cares != cares:
            diffs = sorted(
                i
                for i in range(plan.num_nets)
                if engine.values[i] != values[i] or engine.cares[i] != cares[i]
            )
            i = diffs[0]
            return (
                f"step {step}: persistent event engine diverges from "
                f"from-scratch evaluation on {len(diffs)} net(s), first "
                f"{plan.nets[i]!r}: engine=({engine.values[i]}, "
                f"{engine.cares[i]}) reference=({values[i]}, {cares[i]})"
            )
    return None


def _check_drop_batch(case: FuzzCase) -> Optional[str]:
    """Batched drop simulation of a whole block vs the per-pattern loop."""
    netlist = case_netlist(case)
    patterns = case_patterns(case, netlist)
    words = {net: 0 for net in netlist.inputs}
    for position, pattern in enumerate(patterns):
        for net in netlist.inputs:
            if pattern.get(net, 0):
                words[net] |= 1 << position
    good = _simulator.simulate_parallel(netlist, words, len(patterns))

    batched = _fault_sim.FaultSimulator(netlist, word_width=len(patterns))
    block = batched.detect_block(good, len(patterns), drop=True)

    per_pattern = _fault_sim.FaultSimulator(netlist, word_width=1)
    first_detection: Dict[object, int] = {}
    for position, pattern in enumerate(patterns):
        result = per_pattern.simulate_patterns([pattern], drop=True)
        for fault in result.detected:
            first_detection.setdefault(fault, position)

    batched_detected = set(batched.detected_faults)
    reference_detected = set(per_pattern.detected_faults)
    if batched_detected != reference_detected:
        only_batched = sorted(str(f) for f in batched_detected - reference_detected)
        only_reference = sorted(str(f) for f in reference_detected - batched_detected)
        return (
            f"batched drop simulation disagrees with the per-pattern loop on "
            f"the detected set: only-batched={_clip(only_batched)} "
            f"only-per-pattern={_clip(only_reference)}"
        )
    for fault, word in block.detected.items():
        first_bit = (word & -word).bit_length() - 1
        if first_detection.get(fault) != first_bit:
            return (
                f"fault {fault}: batched first-detecting pattern {first_bit} "
                f"!= per-pattern {first_detection.get(fault)}"
            )
    return None


def _encoding_or_skip(encode: Callable[[], object], label: str):
    try:
        return encode(), None
    except EncodingError as error:
        return None, f"{label}: {error}"


def _check_solver_batch(case: FuzzCase) -> Optional[str]:
    """Batched packed GF(2) solver trials vs the reference position scan."""
    test_set = case_test_set(case)
    config = case_config(case, test_set)

    def encode(batch_trials: bool):
        return _encoder.ReseedingEncoder(
            num_cells=test_set.num_cells,
            num_scan_chains=config.num_scan_chains,
            lfsr_size=config.lfsr_size,
            window_length=config.window_length,
            batch_trials=batch_trials,
        ).encode(test_set)

    batched, batched_error = _encoding_or_skip(lambda: encode(True), "batched")
    scan, scan_error = _encoding_or_skip(lambda: encode(False), "scan")
    if (batched is None) != (scan is None):
        return (
            "batched solver trials and the reference scan disagree on "
            f"encodability: {batched_error or scan_error}"
        )
    if batched is None:
        raise SkipCase(f"unencodable on both sides ({batched_error})")
    a, b = batched.to_dict(), scan.to_dict()
    if a != b:
        return (
            "batched solver trials produced a different encoding than the "
            "reference scan: " + _diff_dicts(a, b, "batched", "scan")
        )
    return None


def _staged_encoding(case: FuzzCase):
    test_set = case_test_set(case)
    config = case_config(case, test_set)
    try:
        return _pipeline.encode(test_set, config, verify=False)
    except (EncodingError, RuntimeError) as error:
        raise SkipCase(f"unencodable case: {error}") from error


def _check_embedding(case: FuzzCase) -> Optional[str]:
    """Vectorized numpy embedding matching vs the pure-Python scan."""
    encoded = _staged_encoding(case)
    segmentation = WindowSegmentation(
        encoded.encoding.window_length,
        min(encoded.config.segment_size, encoded.encoding.window_length),
    )
    vectorized = _selection.build_embedding_map(
        encoded.encoding, encoded.test_set, encoded.substrate.equations, segmentation
    )
    reference = _selection.build_embedding_map_reference(
        encoded.encoding, encoded.test_set, encoded.substrate.equations, segmentation
    )
    if vectorized.cube_segments != reference.cube_segments:
        for cube_index, segments in reference.cube_segments.items():
            got = vectorized.cube_segments.get(cube_index, set())
            if got != segments:
                return (
                    f"cube {cube_index}: vectorized embedding map found "
                    f"segments {_clip(sorted(got))}, reference "
                    f"{_clip(sorted(segments))}"
                )
        return "vectorized embedding map has extra cubes vs the reference"
    if vectorized.segment_cubes != reference.segment_cubes:
        return "embedding maps agree per cube but not per segment"
    return None


def _check_decompressor(case: FuzzCase) -> Optional[str]:
    """Segment-batched decompressor replay vs the per-clock datapath."""
    encoded = _staged_encoding(case)
    reduction = _pipeline.reduce(encoded)
    args = (
        encoded.encoding,
        reduction,
        encoded.substrate.lfsr.transition,
        encoded.substrate.phase_shifter,
        encoded.substrate.architecture,
    )
    batched = _architecture.simulate_decompression(*args, engine="events")
    reference = _architecture.simulate_decompression(*args, engine="reference")
    if batched != reference:
        for attr in (
            "seeds_applied",
            "vectors_applied",
            "lfsr_clocks",
            "skip_clocks",
            "group_sizes",
            "useful_vectors",
        ):
            a, b = getattr(batched, attr), getattr(reference, attr)
            if a != b:
                return (
                    f"batched decompressor replay diverges from the per-clock "
                    f"reference on {attr}: batched={_clip(a)} "
                    f"per-clock={_clip(b)}"
                )
    return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_NETLIST_SPACE: Dict[str, ParamRange] = {
    "num_inputs": (6, 18, 2),
    "num_gates": (20, 120, 1),
    "patterns": (4, 16, 1),
}

_ENCODING_SPACE: Dict[str, ParamRange] = {
    "num_cells": (24, 96, 8),
    "num_cubes": (6, 24, 2),
    "max_specified": (4, 12, 2),
    "chains": (2, 12, 1),
    "window": (12, 48, 4),
    "segment": (2, 12, 1),
    "speedup": (2, 12, 2),
}

#: All registered checks by name (differential first, chaos appended by
#: :mod:`repro.fuzz.chaos` at import time through :func:`register`).
CHECKS: Dict[str, Check] = {}


def register(check: Check) -> Check:
    if check.name in CHECKS:
        raise ValueError(f"duplicate fuzz check {check.name!r}")
    CHECKS[check.name] = check
    return check


def differential_check_names() -> List[str]:
    return [name for name, check in CHECKS.items() if not check.chaos]


def chaos_check_names() -> List[str]:
    return [name for name, check in CHECKS.items() if check.chaos]


register(
    Check(
        name="ternary-sim",
        description="packed two-word ternary simulation vs dict reference",
        space=dict(_NETLIST_SPACE),
        run=_check_ternary_sim,
    )
)
register(
    Check(
        name="podem-events",
        description="event-driven PODEM vs full-pass packed engine",
        space={"num_inputs": (6, 16, 2), "num_gates": (20, 90, 1)},
        run=_check_podem_events,
    )
)
register(
    Check(
        name="event-propagate",
        description="persistent bucket-queue event engine vs from-scratch eval",
        space={
            "num_inputs": (4, 14, 2),
            "num_gates": (15, 110, 1),
            "steps": (30, 140, 5),
        },
        run=_check_event_propagate,
    )
)
register(
    Check(
        name="podem-packed",
        description="packed dual-machine PODEM vs dict reference engine",
        space={"num_inputs": (6, 14, 2), "num_gates": (20, 70, 1)},
        run=_check_podem_packed,
    )
)
register(
    Check(
        name="drop-batch",
        description="batched drop simulation block vs per-pattern loop",
        space=dict(_NETLIST_SPACE),
        run=_check_drop_batch,
    )
)
register(
    Check(
        name="solver-batch",
        description="batched packed GF(2) solver trials vs reference scan",
        space=dict(_ENCODING_SPACE),
        run=_check_solver_batch,
    )
)
register(
    Check(
        name="embedding",
        description="vectorized numpy embedding map vs pure-Python scan",
        space=dict(_ENCODING_SPACE),
        run=_check_embedding,
    )
)
register(
    Check(
        name="decompressor",
        description="segment-batched decompressor replay vs per-clock datapath",
        space=dict(_ENCODING_SPACE),
        run=_check_decompressor,
    )
)
