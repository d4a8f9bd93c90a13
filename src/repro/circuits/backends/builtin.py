"""The three backends: ``reference``, ``packed`` and ``events``.

All three run on the shared packed two-word core for block evaluation (the
dict evaluator never had a pattern-parallel variant), and differ in the
ternary evaluator, the per-fault propagation strategy and the PODEM engine
they select:

* ``reference`` -- the pre-packed-core behaviour: dict-based ternary
  simulation and PODEM, dense full-circuit re-evaluation per fault,
  per-pattern fill drops and the clock-by-clock decompressor replay.  Slow
  by design; this is the golden path everything else is tested against.
* ``packed`` -- the packed full-pass engines: two-word ternary evaluation
  and the dual-machine PODEM full pass, still dense per-fault propagation.
  Kept as the full-pass reference the event engine is checked against.
* ``events`` -- the default: incremental event-driven PODEM, fanout-cone
  fault propagation with activation screening, batched fills and the
  segment-batched decompressor.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.circuits.backends.base import EngineBackend
from repro.circuits.netlist import Netlist
from repro.circuits.ternary import (
    eval_ternary,
    packed_plan,
    seed_ternary_inputs,
    ternary_state_to_dict,
)


class _PackedCoreBackend(EngineBackend):
    """Shared primitives of every backend (the packed core)."""

    def simulate_ternary(
        self, netlist: Netlist, input_values: Dict[str, Optional[int]]
    ) -> Dict[str, Optional[int]]:
        plan = packed_plan(netlist)
        values, cares = seed_ternary_inputs(plan, input_values)
        eval_ternary(plan, values, cares, 1)
        return ternary_state_to_dict(plan, values, cares)

    def block_detector(self, simulator, good: Dict[str, int], mask: int):
        return lambda fault: simulator._dense_diff(good, mask, fault)


class ReferenceBackend(_PackedCoreBackend):
    """Dict evaluators and dense propagation; the frozen golden path."""

    name = "reference"
    fills = "per-pattern"
    batched_decompressor = False

    def simulate_ternary(
        self, netlist: Netlist, input_values: Dict[str, Optional[int]]
    ) -> Dict[str, Optional[int]]:
        # Function-level import: the simulator module dispatches through
        # this registry, so the reference evaluator cannot be imported at
        # module load without a cycle.
        from repro.circuits.simulator import simulate_ternary_reference

        return simulate_ternary_reference(netlist, input_values)


class PackedBackend(_PackedCoreBackend):
    """Packed full-pass engines with dense per-fault propagation."""

    name = "packed"
    fills = "per-pattern"


class EventsBackend(_PackedCoreBackend):
    """Incremental event engines and cone propagation (the default)."""

    name = "events"
    fills = "batched"

    def block_detector(self, simulator, good: Dict[str, int], mask: int):
        return lambda fault: simulator._cone_diff(good, mask, fault)
