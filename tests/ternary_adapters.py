"""0/1/X dict adapters of the packed ternary state, for the tests.

:func:`seed_ternary_inputs` seeds fresh ``(values, cares)`` state lists from
a classic ``{net: 0 | 1 | None}`` input dict, replicated across ``patterns``
bits; :func:`ternary_state_to_dict` reads one pattern of a packed state back
as such a dict.  :func:`split_states` splits the event engine's 4-bit
states into those two word lists.  The golden tests use them to compare the
packed engines with :func:`~repro.circuits.ternary.eval_ternary` and with
the dict reference evaluator (this file is not collected: no ``test_``
prefix).
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.ternary import PackedPlan


def seed_ternary_inputs(
    plan: PackedPlan,
    input_values: Dict[str, Optional[int]],
    patterns: int = 1,
) -> Tuple[List[int], List[int]]:
    """Fresh ``(values, cares)`` state lists seeded from a 0/1/X input dict.

    Missing inputs default to X.  Each specified input is replicated across
    all ``patterns`` bits (the PODEM dual machine then overlays its faulty
    pattern on top).
    """
    full = (1 << patterns) - 1
    values = [0] * plan.num_nets
    cares = [0] * plan.num_nets
    nets = plan.nets
    for i in range(plan.num_inputs):
        bit = input_values.get(nets[i], None)
        if bit is None:
            continue
        if bit not in (0, 1):
            raise ValueError(
                f"input {nets[i]!r} must be 0, 1 or None, got {bit!r}"
            )
        cares[i] = full
        if bit:
            values[i] = full
    return values, cares


def ternary_state_to_dict(
    plan: PackedPlan, values: Sequence[int], cares: Sequence[int], pattern: int = 0
) -> Dict[str, Optional[int]]:
    """One pattern of a packed ternary state as the classic 0/1/None dict."""
    bit = 1 << pattern
    out: Dict[str, Optional[int]] = {}
    for i, net in enumerate(plan.nets):
        if cares[i] & bit:
            out[net] = 1 if values[i] & bit else 0
        else:
            out[net] = None
    return out


def split_states(states: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The ``(values, cares)`` 2-bit word lists of event-engine states.

    Each state is ``(value << 2) | care``; the split lists compare directly
    with a mask-``0b11`` :func:`~repro.circuits.ternary.eval_ternary` pass.
    """
    return [state >> 2 for state in states], [state & 0b11 for state in states]
