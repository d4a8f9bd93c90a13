"""Reproducible random combinational-circuit generation.

The built-in circuits are small; the generator produces arbitrarily sized
random netlists so the ATPG-to-embedding flow can be exercised at scales
closer to the paper's circuits without shipping the original benchmarks.
Circuits are generated as layered DAGs: every gate draws its inputs from
earlier nets, with a locality bias so that realistic reconvergent fan-out
appears instead of a uniform random graph.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.circuits.netlist import Gate, GateType, Netlist

#: Gate types the generator draws from (weighted towards NAND/NOR, as in
#: typical mapped logic).
_GATE_CHOICES: Sequence[GateType] = (
    GateType.NAND,
    GateType.NAND,
    GateType.NOR,
    GateType.AND,
    GateType.OR,
    GateType.XOR,
    GateType.NOT,
    GateType.BUF,
)


def random_netlist(
    name: str,
    num_inputs: int,
    num_gates: int,
    num_outputs: Optional[int] = None,
    max_fanin: int = 3,
    seed: int = 1,
) -> Netlist:
    """Generate a random combinational netlist.

    Parameters
    ----------
    num_inputs:
        Primary-input count (also the test-cube width of the circuit).
    num_gates:
        Number of gates to create.
    num_outputs:
        Primary-output count; defaults to roughly one output per eight gates
        (at least one), always including the structurally last nets so no
        logic is dangling.
    max_fanin:
        Maximum gate fan-in (2..max_fanin) for the multi-input gate types.
    seed:
        RNG seed; the same arguments always produce the same circuit.
    """
    if num_inputs < 2:
        raise ValueError("num_inputs must be at least 2")
    if num_gates < 1:
        raise ValueError("num_gates must be at least 1")
    if max_fanin < 2:
        raise ValueError("max_fanin must be at least 2")
    rng = random.Random(seed)
    inputs = [f"pi{i}" for i in range(num_inputs)]
    nets: List[str] = list(inputs)
    gates: List[Gate] = []
    for index in range(num_gates):
        output = f"g{index}"
        gate_type = rng.choice(_GATE_CHOICES)
        if gate_type in (GateType.NOT, GateType.BUF):
            fanin = 1
        else:
            # No more inputs than there are nets to read: the first gates
            # of a netlist with fewer inputs than max_fanin see only a few.
            fanin = min(rng.randint(2, max_fanin), len(nets))
        # Locality bias: prefer recent nets, fall back to anywhere.
        pool_size = min(len(nets), max(8, len(nets) // 2))
        recent = nets[-pool_size:]
        chosen: List[str] = []
        while len(chosen) < fanin:
            source = rng.choice(recent if rng.random() < 0.7 else nets)
            if source not in chosen:
                chosen.append(source)
        gates.append(Gate(output=output, gate_type=gate_type, inputs=tuple(chosen)))
        nets.append(output)

    if num_outputs is None:
        num_outputs = max(1, num_gates // 8)
    num_outputs = min(num_outputs, num_gates)
    # Outputs: the requested number of the structurally last gates, plus every
    # gate nothing else reads.  Making all fan-out-free gates observable means
    # every gate lies on a path to a primary output (no dangling logic), which
    # is what a synthesised circuit looks like and what keeps the fault
    # universe testable.
    read_nets = {source for gate in gates for source in gate.inputs}
    gate_outputs = [gate.output for gate in gates]
    outputs = list(dict.fromkeys(gate_outputs[-num_outputs:]))
    for net in gate_outputs:
        if net not in read_nets and net not in outputs:
            outputs.append(net)
    return Netlist(name=name, inputs=inputs, outputs=outputs, gates=gates)
