"""Logic simulation: two-valued, three-valued and pattern-parallel.

Three entry points cover the needs of the package:

* :func:`simulate` -- plain 0/1 simulation of one input vector.
* :func:`simulate_ternary` -- 0/1/X simulation used by the PODEM test
  generator (unknowns propagate pessimistically, the standard controlling-
  value rules apply).
* :func:`simulate_parallel` -- bit-parallel simulation of up to the machine
  word width of patterns at once (each net value is a packed integer whose
  bit ``p`` is the value under pattern ``p``); this is what makes fault
  simulation of thousands of patterns practical in pure Python.

All three entry points run the shared packed core
(:mod:`~repro.circuits.ternary`).  The original dict-based three-valued
evaluator is kept as :func:`simulate_ternary_reference`: the golden tests
and the ``ternary-sim`` differential property check the packed core against
it on randomized netlists.

:data:`ENGINES` names the three gate-level engines that
:class:`~repro.circuits.atpg.PodemAtpg` and
:class:`~repro.circuits.fault_sim.FaultSimulator` accept as ``engine=``:
``events`` (the default and the only one production code runs) plus the
``packed`` full-pass and ``reference`` dict oracles the tests compare it
against.  All three give bit-identical results.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.circuits.netlist import Gate, GateType, Netlist
from repro.circuits.ternary import eval_binary, eval_ternary, packed_plan

__all__ = [
    "ENGINES",
    "X",
    "check_engine",
    "pack_patterns",
    "simulate",
    "simulate_parallel",
    "simulate_ternary",
    "simulate_ternary_reference",
]

#: The unknown value of three-valued simulation.
X = None

#: The ``engine=`` names of :class:`~repro.circuits.atpg.PodemAtpg` and
#: :class:`~repro.circuits.fault_sim.FaultSimulator`; the first is the default.
ENGINES = ("events", "packed", "reference")


def check_engine(engine: str) -> str:
    """``engine`` if it names one of :data:`ENGINES`, else a ValueError."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def simulate(netlist: Netlist, input_values: Dict[str, int]) -> Dict[str, int]:
    """Two-valued simulation of a single fully specified input vector."""
    plan = packed_plan(netlist)
    values = [0] * plan.num_nets
    nets = plan.nets
    for i in range(plan.num_inputs):
        net = nets[i]
        if net not in input_values:
            raise ValueError(f"missing value for primary input {net!r}")
        bit = input_values[net]
        if bit not in (0, 1):
            raise ValueError(f"input {net!r} must be 0 or 1, got {bit!r}")
        values[i] = bit
    eval_binary(plan, values, 1)
    return dict(zip(nets, values))


def simulate_ternary(
    netlist: Netlist, input_values: Dict[str, Optional[int]]
) -> Dict[str, Optional[int]]:
    """Three-valued (0/1/X) simulation; missing inputs default to X."""
    plan = packed_plan(netlist)
    values = [0] * plan.num_nets
    cares = [0] * plan.num_nets
    nets = plan.nets
    for i in range(plan.num_inputs):
        bit = input_values.get(nets[i])
        if bit is None:
            continue
        if bit not in (0, 1):
            raise ValueError(
                f"input {nets[i]!r} must be 0, 1 or None, got {bit!r}"
            )
        values[i] = bit
        cares[i] = 1
    eval_ternary(plan, values, cares, 1)
    return {
        net: (values[i] & 1 if cares[i] & 1 else None)
        for i, net in enumerate(nets)
    }


def simulate_parallel(
    netlist: Netlist, input_words: Dict[str, int], num_patterns: int
) -> Dict[str, int]:
    """Bit-parallel simulation of ``num_patterns`` patterns at once.

    ``input_words[net]`` packs the value of ``net`` under pattern ``p`` into
    bit ``p``.  The return value uses the same packing for every net of the
    circuit.
    """
    if num_patterns < 1:
        raise ValueError("num_patterns must be positive")
    mask = (1 << num_patterns) - 1
    plan = packed_plan(netlist)
    values = [0] * plan.num_nets
    nets = plan.nets
    for i in range(plan.num_inputs):
        net = nets[i]
        if net not in input_words:
            raise ValueError(f"missing packed value for primary input {net!r}")
        values[i] = input_words[net] & mask
    eval_binary(plan, values, mask)
    return dict(zip(nets, values))


def pack_patterns(
    netlist: Netlist, patterns: Sequence[Dict[str, int]]
) -> Dict[str, int]:
    """Pack a list of per-pattern input assignments into parallel words."""
    words = {net: 0 for net in netlist.inputs}
    for position, pattern in enumerate(patterns):
        for net in netlist.inputs:
            if pattern.get(net, 0):
                words[net] |= 1 << position
    return words


# ----------------------------------------------------------------------
# Reference implementation (dict-based, pre-packed-core)
# ----------------------------------------------------------------------
def _eval_ternary(gate: Gate, values: Dict[str, Optional[int]]) -> Optional[int]:
    operands = [values[net] for net in gate.inputs]
    gate_type = gate.gate_type
    if gate_type in (GateType.AND, GateType.NAND):
        if any(v == 0 for v in operands):
            result: Optional[int] = 0
        elif all(v == 1 for v in operands):
            result = 1
        else:
            result = X
    elif gate_type in (GateType.OR, GateType.NOR):
        if any(v == 1 for v in operands):
            result = 1
        elif all(v == 0 for v in operands):
            result = 0
        else:
            result = X
    elif gate_type in (GateType.XOR, GateType.XNOR):
        if any(v is X for v in operands):
            result = X
        else:
            result = sum(operands) % 2
    else:  # BUF / NOT
        result = operands[0]
    if result is X:
        return X
    if gate_type.inverting:
        return 1 - result
    return result


def simulate_ternary_reference(
    netlist: Netlist, input_values: Dict[str, Optional[int]]
) -> Dict[str, Optional[int]]:
    """The pre-packed-core dict evaluator (golden reference for the engine)."""
    values: Dict[str, Optional[int]] = {}
    for net in netlist.inputs:
        bit = input_values.get(net, X)
        if bit not in (0, 1, X):
            raise ValueError(f"input {net!r} must be 0, 1 or None, got {bit!r}")
        values[net] = bit
    for gate in netlist.gates():
        values[gate.output] = _eval_ternary(gate, values)
    return values
