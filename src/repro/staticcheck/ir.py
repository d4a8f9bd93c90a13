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
  and fanout index bounds, and exact coherence of the ``fused_rows``,
  ``table_rows`` and ``reader_rows`` mirrors that the event engine's hot
  loops trust blindly.

The ``ir-verify`` lint rule runs both over representative circuits on
every ``repro lint`` invocation, so a broken netlist or plan builder fails
CI without any simulation running.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.circuits.netlist import UNARY_GATES, Netlist
from repro.circuits.ternary import (
    OP_AND,
    OP_BUF,
    OP_OR,
    OP_XOR,
    PackedPlan,
    _F_BUF,
    _FUSED_2IN,
    _FUSED_3IN,
    _fused_tables,
    _OPCODE,
)
from repro.staticcheck.registry import Rule, Violation, register_rule


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

    problems.extend(_verify_fused_rows(plan))
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
    return problems


def _verify_fused_rows(plan: PackedPlan) -> List[str]:
    problems: List[str] = []
    if len(plan.fused_rows) != len(plan.rows):
        return [
            f"fused_rows has {len(plan.fused_rows)} entries for "
            f"{len(plan.rows)} rows"
        ]
    for row_pos, (output, op, inputs, inverting) in enumerate(plan.rows):
        if op == OP_BUF:
            expected = (output, _F_BUF, inputs[0], -1, -1, inputs, inverting)
        elif len(inputs) == 2:
            expected = (
                output, _FUSED_2IN[op], inputs[0], inputs[1], -1, inputs,
                inverting,
            )
        elif len(inputs) == 3:
            expected = (
                output, _FUSED_3IN[op], inputs[0], inputs[1], inputs[2],
                inputs, inverting,
            )
        else:
            expected = (output, op, -1, -1, -1, inputs, inverting)
        actual = plan.fused_rows[row_pos]
        if tuple(actual) != expected:
            problems.append(
                f"fused_rows[{row_pos}] is stale: {tuple(actual)!r}, "
                f"row requires {expected!r}"
            )
    return problems


def _verify_table_rows(plan: PackedPlan) -> List[str]:
    """Check the lazily built 2-bit lookup rows (building them if needed)."""
    problems: List[str] = []
    trows = plan.table_rows()
    if len(trows) != len(plan.fused_rows):
        return [
            f"table_rows has {len(trows)} entries for "
            f"{len(plan.fused_rows)} fused rows"
        ]
    arity_of = {_F_BUF: 1}
    arity_of.update({op: 2 for op in _FUSED_2IN.values()})
    arity_of.update({op: 3 for op in _FUSED_3IN.values()})
    for row_pos, fused in enumerate(plan.fused_rows):
        output, fop, a, b, c, _inputs, inverting = fused
        t_output, arity, ta, tb, tc, value_table, care_table = trows[row_pos]
        if fop not in arity_of:
            expected = (output, 0, -1, -1, -1, None, None)
            if (t_output, arity, ta, tb, tc, value_table, care_table) != expected:
                problems.append(
                    f"table_rows[{row_pos}]: generic (arity>3) row must be "
                    f"{expected!r}, is "
                    f"{(t_output, arity, ta, tb, tc)!r}"
                )
            continue
        if (t_output, arity, ta, tb, tc) != (output, arity_of[fop], a, b, c):
            problems.append(
                f"table_rows[{row_pos}]: (output={t_output}, arity={arity}, "
                f"operands=({ta}, {tb}, {tc})) does not match fused row "
                f"(output={output}, arity={arity_of[fop]}, "
                f"operands=({a}, {b}, {c}))"
            )
            continue
        expected_value, expected_care = _fused_tables(fop, inverting)
        if value_table != expected_value or care_table != expected_care:
            problems.append(
                f"table_rows[{row_pos}]: lookup tables differ from the "
                f"shared tables of (op={fop}, inverting={inverting})"
            )
    return problems


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
# The ir-verify rule: self-check over representative circuits
# ----------------------------------------------------------------------
def _run_ir_verify(context) -> List[Violation]:
    """Verify netlist/plan invariants on representative circuits.

    ``repro lint`` has no runtime artifacts to inspect, so the rule builds
    a spread of circuits (every gate arity class, both table and generic
    rows, fixed seeds) and runs both verifiers over each -- the same
    functions the mutation tests call.  Any violation means the *builders*
    (netlist construction, plan compilation) emit broken IR for some shape,
    caught here before a simulation or a test ever runs one.
    """
    from repro.circuits.generator import random_netlist
    from repro.circuits.netlist import Gate, GateType
    from repro.circuits.ternary import packed_plan

    wide = Netlist(
        "lint-wide",
        inputs=["a", "b", "c", "d", "e"],
        outputs=["y", "z"],
        gates=[
            Gate("w", GateType.AND, ("a", "b", "c", "d")),
            Gate("x", GateType.XNOR, ("w", "e")),
            Gate("y", GateType.NOR, ("w", "x", "a", "e")),
            Gate("z", GateType.NOT, ("y",)),
        ],
    )
    samples = [
        wide,
        random_netlist("lint-g60", num_inputs=8, num_gates=60, seed=1),
        random_netlist("lint-g120", num_inputs=12, num_gates=120, seed=2),
    ]
    violations: List[Violation] = []
    rule = RULE_IR_VERIFY
    for netlist in samples:
        pseudo = f"<ir:{netlist.name}>"
        for problem in verify_netlist(netlist):
            violations.append(rule.violation(pseudo, 1, problem))
        plan = packed_plan(netlist)
        for problem in verify_packed_plan(plan):
            violations.append(rule.violation(pseudo, 1, problem))
    return violations


RULE_IR_VERIFY = register_rule(
    Rule(
        name="ir-verify",
        description=(
            "netlist/PackedPlan structural invariants over representative "
            "circuits"
        ),
        run=_run_ir_verify,
        fix_hint=(
            "the IR builders emit inconsistent structures; fix the builder "
            "(Netlist/PackedPlan) rather than the verifier"
        ),
    )
)
