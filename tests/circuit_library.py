"""Small example circuits for the tests.

The circuits here are small but genuine: c17, ripple-carry adders, a
majority voter and parity trees.  Each function returns a fresh
:class:`~repro.circuits.netlist.Netlist`.  Imported by the test modules
(this file is not collected: no ``test_`` prefix).
"""

from __future__ import annotations

from typing import List

from repro.circuits.bench import parse_bench
from repro.circuits.netlist import Gate, GateType, Netlist

#: The ISCAS'85 c17 benchmark, the "hello world" of test generation.
C17_BENCH = """
# c17 (ISCAS'85)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def c17() -> Netlist:
    """The ISCAS'85 c17 benchmark (5 inputs, 2 outputs, 6 NAND gates)."""
    return parse_bench(C17_BENCH, name="c17")


def carry_ripple_adder(width: int = 4) -> Netlist:
    """A ``width``-bit ripple-carry adder built from full-adder cells."""
    if width < 1:
        raise ValueError("width must be at least 1")
    inputs: List[str] = []
    gates: List[Gate] = []
    outputs: List[str] = []
    carry = None
    for i in range(width):
        a, b = f"a{i}", f"b{i}"
        inputs.extend([a, b])
        p = f"p{i}"
        gates.append(Gate(p, GateType.XOR, (a, b)))
        g = f"g{i}"
        gates.append(Gate(g, GateType.AND, (a, b)))
        if carry is None:
            outputs.append(p)  # sum bit 0 with carry-in 0
            carry = g
        else:
            s = f"s{i}"
            gates.append(Gate(s, GateType.XOR, (p, carry)))
            outputs.append(s)
            t = f"t{i}"
            gates.append(Gate(t, GateType.AND, (p, carry)))
            new_carry = f"c{i}"
            gates.append(Gate(new_carry, GateType.OR, (g, t)))
            carry = new_carry
    outputs.append(carry)
    return Netlist(name=f"adder{width}", inputs=inputs, outputs=outputs, gates=gates)


def majority_voter(width: int = 3) -> Netlist:
    """An N-input majority voter (odd ``width``), a classic redundancy block."""
    if width < 3 or width % 2 == 0:
        raise ValueError("width must be an odd number >= 3")
    inputs = [f"in{i}" for i in range(width)]
    gates: List[Gate] = []
    # Majority of N = OR over all (N+1)//2-subsets of ANDs; for small widths
    # this stays tiny and keeps the circuit easy to reason about in tests.
    from itertools import combinations

    terms = []
    threshold = width // 2 + 1
    for index, subset in enumerate(combinations(range(width), threshold)):
        term = f"and{index}"
        gates.append(Gate(term, GateType.AND, tuple(inputs[i] for i in subset)))
        terms.append(term)
    gates.append(Gate("vote", GateType.OR, tuple(terms)))
    return Netlist(
        name=f"majority{width}", inputs=inputs, outputs=["vote"], gates=gates
    )


def parity_tree(width: int = 8) -> Netlist:
    """An XOR parity tree -- every input stuck-at fault needs a distinct test."""
    if width < 2:
        raise ValueError("width must be at least 2")
    inputs = [f"d{i}" for i in range(width)]
    gates: List[Gate] = []
    level = list(inputs)
    counter = 0
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level) - 1, 2):
            net = f"x{counter}"
            counter += 1
            gates.append(Gate(net, GateType.XOR, (level[i], level[i + 1])))
            next_level.append(net)
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return Netlist(name=f"parity{width}", inputs=inputs, outputs=[level[0]], gates=gates)


def builtin_circuits() -> List[Netlist]:
    """All built-in circuits (used by documentation and smoke tests)."""
    return [c17(), carry_ripple_adder(4), majority_voter(3), parity_tree(8)]
