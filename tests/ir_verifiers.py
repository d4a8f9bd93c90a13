"""IR verifiers: structural validation of netlists and packed plans.

Two static validators, each returning a list of human-readable problems
(empty = valid) so callers can aggregate:

* :func:`verify_netlist` -- the :class:`~repro.circuits.netlist.Netlist`
  invariants re-checked from scratch (no trust in the cached topo order):
  driven nets, library-op arity, acyclicity, and coherence of the memoised
  evaluation order.  ``Netlist.__init__`` enforces most of this on
  construction; the verifier exists because plans, caches and tests hold
  netlists long after construction, and a corrupted instance (or a future
  in-place editing API) must be caught before a simulator trusts it.
* :func:`verify_packed_plan` -- the derived
  :class:`~repro.circuits.ternary.PackedPlan` arrays cross-checked against
  each other and against the netlist: topological levelization
  (``row_levels``/``num_levels``), def-before-use operand ordering, operand
  and fanout index bounds, exact coherence of the ``table_rows``,
  ``reader_rows`` and ``is_output`` mirrors that the hot loops trust
  blindly (each state table checked entry by entry against
  :func:`~repro.circuits.ternary.eval_ternary` of its row, not against
  the function that built it), and the cone table: each net's ``cone_rows``
  against a name-keyed fanout search (:func:`reference_cone`) and each
  ``fault_region`` against the fanin closure of that cone
  (:func:`reference_region`), the region PODEM's fenced engine runs in.

The tier-1 ``ir-verify`` tests run both over random netlists and a
wide-gate netlist, so a broken netlist or plan builder fails without any
simulation running; the IR corruption tests plant each broken shape to
show that it is caught.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace
from typing import Dict, List, Set

from repro.circuits.netlist import UNARY_GATES, Netlist
from repro.circuits.ternary import (
    OP_AND,
    OP_BUF,
    OP_OR,
    OP_XOR,
    PackedPlan,
    _OPCODE,
    eval_ternary,
)


# ----------------------------------------------------------------------
# Netlist
# ----------------------------------------------------------------------
def verify_netlist(netlist: Netlist) -> List[str]:
    """Structural problems of a netlist (empty list = valid).

    Reads the private ``_gates``/``_topo_order`` directly on purpose: the
    public accessors serve the *cached* evaluation order, and the whole
    point is to catch an instance whose cache no longer matches its gates.
    """
    problems: List[str] = []
    inputs = netlist.inputs
    gates: Dict = dict(netlist._gates)
    driven = set(inputs) | set(gates)

    for net in netlist.outputs:
        if net not in driven:
            problems.append(f"primary output {net!r} is undriven")
    for gate in gates.values():
        arity = len(gate.inputs)
        if gate.gate_type in UNARY_GATES:
            if arity != 1:
                problems.append(
                    f"gate {gate.output!r}: {gate.gate_type.value} takes "
                    f"exactly 1 input, has {arity}"
                )
        elif arity < 2:
            problems.append(
                f"gate {gate.output!r}: {gate.gate_type.value} needs at "
                f"least 2 inputs, has {arity}"
            )
        for net in gate.inputs:
            if net not in driven:
                problems.append(
                    f"gate {gate.output!r} reads undriven net {net!r}"
                )

    # Acyclicity, from scratch (Kahn), trusting nothing cached.
    remaining = {
        out: sum(1 for src in gate.inputs if src in gates)
        for out, gate in gates.items()
    }
    ready = [out for out, count in remaining.items() if count == 0]
    readers: Dict[str, List[str]] = {}
    for out, gate in gates.items():
        for src in gate.inputs:
            if src in gates:
                readers.setdefault(src, []).append(out)
    ordered = 0
    while ready:
        net = ready.pop()
        ordered += 1
        for reader in readers.get(net, ()):
            remaining[reader] -= 1
            if remaining[reader] == 0:
                ready.append(reader)
    if ordered != len(gates):
        cyclic = sorted(out for out, count in remaining.items() if count > 0)
        problems.append(
            f"combinational cycle through {len(cyclic)} gate(s): "
            f"{', '.join(cyclic[:6])}"
        )
        return problems  # the topo-order check below presumes a DAG

    # The cached evaluation order must cover every gate, each after its
    # gate-output operands (topological levelization consistency).
    topo = list(netlist._topo_order)
    if sorted(topo) != sorted(gates):
        problems.append(
            f"cached evaluation order covers {len(topo)} nets, "
            f"netlist has {len(gates)} gates"
        )
        return problems
    position = {net: i for i, net in enumerate(topo)}
    for net in topo:
        for src in gates[net].inputs:
            if src in gates and position[src] >= position[net]:
                problems.append(
                    f"cached evaluation order is not topological: "
                    f"{net!r} (position {position[net]}) reads {src!r} "
                    f"(position {position[src]})"
                )
    return problems


# ----------------------------------------------------------------------
# PackedPlan
# ----------------------------------------------------------------------
def verify_packed_plan(plan: PackedPlan) -> List[str]:
    """Cross-coherence problems of a packed plan (empty list = valid)."""
    problems: List[str] = []
    netlist = plan.netlist
    num_nets = plan.num_nets
    num_inputs = plan.num_inputs

    if num_inputs != netlist.num_inputs:
        problems.append(
            f"num_inputs {num_inputs} != netlist inputs {netlist.num_inputs}"
        )
    if len(plan.nets) != num_nets:
        problems.append(f"nets list has {len(plan.nets)} entries, num_nets {num_nets}")
    if len(plan.rows) != netlist.num_gates:
        problems.append(
            f"{len(plan.rows)} rows for {netlist.num_gates} gates"
        )
    for net, index in plan.index.items():
        if not (0 <= index < num_nets) or plan.nets[index] != net:
            problems.append(f"index map is incoherent at net {net!r} -> {index}")

    gates = netlist.gate_sequence()
    defined: Set[int] = set(range(num_inputs))
    levels = [0] * num_nets
    for row_pos, (output, op, inputs, inverting) in enumerate(plan.rows):
        where = f"row {row_pos} (net {plan.nets[output]!r})" if (
            0 <= output < num_nets
        ) else f"row {row_pos}"
        if not (num_inputs <= output < num_nets):
            problems.append(
                f"row {row_pos}: output index {output} outside gate range "
                f"[{num_inputs}, {num_nets})"
            )
            continue
        if output in defined:
            problems.append(f"{where}: output assigned more than once")
        for operand in inputs:
            if not (0 <= operand < num_nets):
                problems.append(
                    f"{where}: operand index {operand} out of range "
                    f"[0, {num_nets})"
                )
            elif operand not in defined:
                problems.append(
                    f"{where}: operand {operand} ({plan.nets[operand]!r}) "
                    f"used before definition (rows not topological)"
                )
        defined.add(output)
        if op not in (OP_AND, OP_OR, OP_XOR, OP_BUF):
            problems.append(f"{where}: unknown opcode {op}")
        # Library coherence: the row must encode exactly its gate.
        if row_pos < len(gates):
            gate = gates[row_pos]
            expected_op = _OPCODE[gate.gate_type]
            expected_inputs = tuple(plan.index.get(n, -1) for n in gate.inputs)
            if plan.nets[output] != gate.output:
                problems.append(
                    f"{where}: evaluates net {plan.nets[output]!r}, netlist "
                    f"gate {row_pos} drives {gate.output!r}"
                )
            elif (op, inputs, inverting) != (
                expected_op, expected_inputs, gate.gate_type.inverting
            ):
                problems.append(
                    f"{where}: (op={op}, inputs={inputs}, inverting="
                    f"{inverting}) does not encode gate "
                    f"{gate.gate_type.value}({', '.join(gate.inputs)})"
                )
        valid_operands = [i for i in inputs if 0 <= i < num_nets]
        level = 1 + max((levels[i] for i in valid_operands), default=0)
        levels[output] = level
        if row_pos < len(plan.row_levels) and plan.row_levels[row_pos] != level:
            problems.append(
                f"{where}: row_levels says level {plan.row_levels[row_pos]}, "
                f"recomputed 1 + max(operand levels) = {level}"
            )
    if len(plan.row_levels) != len(plan.rows):
        problems.append(
            f"row_levels has {len(plan.row_levels)} entries for "
            f"{len(plan.rows)} rows"
        )
    expected_num_levels = (max(plan.row_levels) + 1) if plan.row_levels else 1
    if plan.num_levels != expected_num_levels:
        problems.append(
            f"num_levels {plan.num_levels} != max(row_levels) + 1 = "
            f"{expected_num_levels}"
        )

    if not problems:
        # The cone table is derived from the rows, so it is checked only
        # against rows that passed.
        problems.extend(_verify_cone_table(plan))
    problems.extend(_verify_table_rows(plan))
    problems.extend(_verify_readers_and_fanout(plan))

    for position, output in enumerate(plan.output_indices):
        if not (0 <= output < num_nets):
            problems.append(
                f"output_indices[{position}] = {output} out of range"
            )
        elif position < len(netlist.outputs) and (
            plan.nets[output] != netlist.outputs[position]
        ):
            problems.append(
                f"output_indices[{position}] points at "
                f"{plan.nets[output]!r}, netlist output is "
                f"{netlist.outputs[position]!r}"
            )
    if len(plan.output_indices) != len(netlist.outputs):
        problems.append(
            f"{len(plan.output_indices)} output indices for "
            f"{len(netlist.outputs)} netlist outputs"
        )
    flagged = [net for net in range(len(plan.is_output)) if plan.is_output[net]]
    if len(plan.is_output) != num_nets or flagged != sorted(set(plan.output_indices)):
        problems.append(
            f"is_output flags nets {flagged!r}, output_indices are "
            f"{sorted(set(plan.output_indices))!r}"
        )
    return problems


def _verify_table_rows(plan: PackedPlan) -> List[str]:
    """Check the lazily built event-engine rows (building them if needed).

    A row of one to three inputs must carry its plan row's output and
    operands, and its state table must equal :func:`expected_state_table`
    of the row at every key; a wider row carries no table.
    """
    problems: List[str] = []
    trows = plan.table_rows()
    if len(trows) != len(plan.rows):
        return [f"table_rows has {len(trows)} entries for {len(plan.rows)} rows"]
    for row_pos, (output, op, inputs, inverting) in enumerate(plan.rows):
        t_output, arity, a, b, c, table = trows[row_pos]
        if len(inputs) > 3:
            expected = (output, 0, -1, -1, -1, None)
            if tuple(trows[row_pos]) != expected:
                problems.append(
                    f"table_rows[{row_pos}]: wide (arity>3) row must be "
                    f"{expected!r}, is {(t_output, arity, a, b, c)!r}"
                )
            continue
        expected = (output, len(inputs), *(inputs + (-1, -1))[:3])
        if (t_output, arity, a, b, c) != expected:
            problems.append(
                f"table_rows[{row_pos}]: (output, arity, a, b, c) = "
                f"{(t_output, arity, a, b, c)!r}, row requires {expected!r}"
            )
            continue
        reference = expected_state_table(op, inverting, arity)
        if list(table) != reference:
            wrong = [
                key
                for key, (got, want) in enumerate(zip(table, reference))
                if got != want
            ]
            problems.append(
                f"table_rows[{row_pos}]: state table of {len(table)} entries "
                f"differs from eval_ternary of the row ({len(reference)} "
                f"keys) at keys {wrong[:4]!r}"
            )
    return problems


@lru_cache(maxsize=16)
def expected_state_table(op: int, inverting: bool, arity: int) -> List[int]:
    """What a row's state table must hold, by :func:`eval_ternary`.

    One pattern-parallel pass over a one-row plan evaluates every key at
    once: pattern ``2 * key + m`` carries machine ``m`` of the operand
    states the key packs (``(s_a << 8) | (s_b << 4) | s_c``, shortened to
    ``arity``; a state is ``(value << 2) | care`` of 2-bit words).
    """
    keys = 16**arity
    values = [0] * (arity + 1)
    cares = [0] * (arity + 1)
    for operand in range(arity):
        shift = 4 * (arity - 1 - operand)
        states = [(key >> shift) & 15 for key in range(keys)]
        values[operand] = sum((state >> 2) << (2 * key) for key, state in enumerate(states))
        cares[operand] = sum((state & 3) << (2 * key) for key, state in enumerate(states))
    row = (arity, op, tuple(range(arity)), inverting)
    eval_ternary(SimpleNamespace(rows=[row]), values, cares, (1 << (2 * keys)) - 1)
    value, care = values[arity], cares[arity]
    return [
        (((value >> (2 * key)) & 3) << 2) | ((care >> (2 * key)) & 3)
        for key in range(keys)
    ]


def _verify_readers_and_fanout(plan: PackedPlan) -> List[str]:
    problems: List[str] = []
    num_nets = plan.num_nets
    expected_readers: List[List[int]] = [[] for _ in range(num_nets)]
    for position, (_output, _op, inputs, _inverting) in enumerate(plan.rows):
        for net in sorted(set(i for i in inputs if 0 <= i < num_nets)):
            expected_readers[net].append(position)
    if len(plan.reader_rows) != num_nets:
        problems.append(
            f"reader_rows has {len(plan.reader_rows)} entries for "
            f"{num_nets} nets"
        )
    else:
        for net in range(num_nets):
            if tuple(plan.reader_rows[net]) != tuple(expected_readers[net]):
                problems.append(
                    f"reader_rows[{net}] ({plan.nets[net]!r}) is "
                    f"{tuple(plan.reader_rows[net])!r}, rows reading it are "
                    f"{tuple(expected_readers[net])!r}"
                )
    fanout = plan.netlist.fanout()
    if len(plan.fanout) != num_nets:
        problems.append(
            f"fanout has {len(plan.fanout)} entries for {num_nets} nets"
        )
    else:
        for net_index, net in enumerate(plan.nets):
            expected = tuple(plan.index.get(r, -1) for r in fanout.get(net, ()))
            if tuple(plan.fanout[net_index]) != expected:
                problems.append(
                    f"fanout[{net_index}] ({net!r}) is "
                    f"{tuple(plan.fanout[net_index])!r}, netlist says "
                    f"{expected!r}"
                )
    return problems


# ----------------------------------------------------------------------
# Cone table
# ----------------------------------------------------------------------
def reference_cone(netlist: Netlist, net: str) -> List[str]:
    """The gate outputs in ``net``'s transitive fanout, in evaluation order.

    A name-keyed search over :meth:`Netlist.fanout`, independent of the
    plan's bit masks: the oracle of :meth:`PackedPlan.cone_rows`.
    """
    fanout = netlist.fanout()
    reached: Set[str] = set()
    stack = list(fanout[net])
    while stack:
        output = stack.pop()
        if output in reached:
            continue
        reached.add(output)
        stack.extend(fanout[output])
    return [gate.output for gate in netlist.gate_sequence() if gate.output in reached]


def reference_region(netlist: Netlist, net: str) -> Set[str]:
    """The fanin closure of ``net`` and its fanout cone, name-keyed: the
    oracle of :meth:`PackedPlan.fault_region`."""
    inputs = set(netlist.inputs)
    region: Set[str] = set()
    stack = [net, *reference_cone(netlist, net)]
    while stack:
        member = stack.pop()
        if member in region:
            continue
        region.add(member)
        if member not in inputs:
            stack.extend(netlist.gate(member).inputs)
    return region


def _verify_cone_table(plan: PackedPlan) -> List[str]:
    problems: List[str] = []
    netlist = plan.netlist
    nets = plan.nets
    num_inputs = plan.num_inputs
    for net_index, net in enumerate(nets):
        cone = reference_cone(netlist, net)
        actual = [nets[row[0]] for row in plan.cone_rows(net_index)]
        if actual != cone:
            problems.append(
                f"cone_rows[{net_index}] ({net!r}) covers {actual!r}, the "
                f"fanout search gives {cone!r} in evaluation order"
            )
            continue
        region = plan.fault_region(net_index)
        members = {nets[i] for i in range(plan.num_nets) if region >> i & 1}
        missing = [member for member in [net, *cone] if member not in members]
        if missing:
            problems.append(
                f"fault_region[{net_index}] ({net!r}) misses its own net or "
                f"cone: {missing!r}"
            )
        for member in sorted(members):
            index = plan.index[member]
            if index < num_inputs:
                continue
            outside = [
                nets[i] for i in plan.rows[index - num_inputs][2]
                if not region >> i & 1
            ]
            if outside:
                problems.append(
                    f"fault_region[{net_index}] ({net!r}) is not fanin-closed: "
                    f"{member!r} reads {outside!r} outside the region"
                )
        extra = sorted(members - reference_region(netlist, net))
        if extra:
            problems.append(
                f"fault_region[{net_index}] ({net!r}) holds {extra!r} outside "
                f"the fanin closure of its cone"
            )
    return problems
