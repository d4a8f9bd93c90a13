"""Combinational gate-level netlists.

A :class:`Netlist` is a directed acyclic graph of named nets: primary inputs
plus one net per gate output.  The class owns the structural checks (no
undriven nets, no combinational loops) and caches the topological evaluation
order used by every simulator in the package.

Sequential (full-scan) circuits are handled the usual DFT way: after scan
insertion every flip-flop becomes a pseudo primary input / output, so the
circuit seen by ATPG is combinational and the test-cube width is
``#PIs + #flip-flops`` -- exactly the scan-cell count the rest of the library
works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple


class GateType(Enum):
    """Supported combinational gate functions."""

    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    NOT = "not"
    BUF = "buf"

    @property
    def inverting(self) -> bool:
        return self in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT)


#: Gate types that accept exactly one input.
UNARY_GATES = {GateType.NOT, GateType.BUF}


@dataclass(frozen=True)
class Gate:
    """One gate: an output net computed from input nets."""

    output: str
    gate_type: GateType
    inputs: Tuple[str, ...]

    def __post_init__(self):
        if not self.inputs:
            raise ValueError(f"gate {self.output!r} has no inputs")
        if self.gate_type in UNARY_GATES and len(self.inputs) != 1:
            raise ValueError(
                f"gate {self.output!r}: {self.gate_type.value} takes exactly one input"
            )
        if self.gate_type not in UNARY_GATES and len(self.inputs) < 2:
            raise ValueError(
                f"gate {self.output!r}: {self.gate_type.value} needs at least two inputs"
            )


class Netlist:
    """A combinational circuit."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        gates: Sequence[Gate],
    ):
        if not inputs:
            raise ValueError("a netlist needs at least one primary input")
        if not outputs:
            raise ValueError("a netlist needs at least one primary output")
        self._name = name
        self._inputs = list(dict.fromkeys(inputs))
        self._outputs = list(dict.fromkeys(outputs))
        self._gates: Dict[str, Gate] = {}
        for gate in gates:
            if gate.output in self._gates:
                raise ValueError(f"net {gate.output!r} is driven twice")
            if gate.output in self._inputs:
                raise ValueError(f"net {gate.output!r} is both an input and a gate output")
            self._gates[gate.output] = gate
        self._validate()
        self._topo_order = self._topological_order()
        self._gates_in_order = tuple(self._gates[net] for net in self._topo_order)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        driven = set(self._inputs) | set(self._gates)
        for gate in self._gates.values():
            for net in gate.inputs:
                if net not in driven:
                    raise ValueError(
                        f"gate {gate.output!r} reads undriven net {net!r}"
                    )
        for net in self._outputs:
            if net not in driven:
                raise ValueError(f"primary output {net!r} is undriven")

    def _topological_order(self) -> List[str]:
        """Gate outputs in evaluation order; raises on combinational loops."""
        order: List[str] = []
        state: Dict[str, int] = {}  # 0 = unvisited, 1 = visiting, 2 = done

        def visit(net: str, stack: List[str]) -> None:
            if net in self._inputs or net not in self._gates:
                return
            mark = state.get(net, 0)
            if mark == 2:
                return
            if mark == 1:
                cycle = " -> ".join(stack + [net])
                raise ValueError(f"combinational loop detected: {cycle}")
            state[net] = 1
            for source in self._gates[net].inputs:
                visit(source, stack + [net])
            state[net] = 2
            order.append(net)

        for net in list(self._gates):
            visit(net, [])
        return order

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def inputs(self) -> List[str]:
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        return list(self._outputs)

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    def gate(self, output_net: str) -> Gate:
        return self._gates[output_net]

    def gates(self) -> List[Gate]:
        """All gates in topological (evaluation) order."""
        return list(self._gates_in_order)

    def gate_sequence(self) -> Tuple[Gate, ...]:
        """The gates in evaluation order, without the defensive copy.

        The tuple is built once per netlist; simulators iterate it millions
        of times, so handing out the cached object matters.
        """
        return self._gates_in_order

    def nets(self) -> List[str]:
        """All nets: primary inputs first, then gate outputs in topo order."""
        return self._inputs + list(self._topo_order)

    def fanout(self) -> Dict[str, List[str]]:
        """Mapping net -> gate outputs that read it."""
        out: Dict[str, List[str]] = {net: [] for net in self.nets()}
        for gate in self._gates.values():
            for source in gate.inputs:
                out[source].append(gate.output)
        return out

    def input_index(self, net: str) -> int:
        """Position of a primary input in the test-cube ordering."""
        return self._inputs.index(net)

    def depth(self) -> int:
        """Longest input-to-output path length in gates."""
        level: Dict[str, int] = {net: 0 for net in self._inputs}
        for net in self._topo_order:
            gate = self._gates[net]
            level[net] = 1 + max(level[src] for src in gate.inputs)
        return max((level[net] for net in self._outputs), default=0)

    def stats(self) -> Dict[str, int]:
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "gates": self.num_gates,
            "nets": len(self.nets()),
            "depth": self.depth(),
        }

    def __repr__(self) -> str:
        return (
            f"Netlist({self._name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, gates={self.num_gates})"
        )
