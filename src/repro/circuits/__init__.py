"""Gate-level circuit substrate: netlists, fault simulation and ATPG.

The paper's experiments consume test cubes generated by an ATPG tool
(Atalanta) for gate-level benchmark circuits.  This package provides that
tool chain for circuits whose structure *is* available:

* :class:`~repro.circuits.netlist.Netlist` -- combinational gate-level
  netlists with topological evaluation order.
* :mod:`~repro.circuits.bench` -- reader for the ISCAS ``.bench`` format.
* :mod:`~repro.circuits.simulator` -- two- and three-valued logic simulation,
  including 64-pattern-parallel bit-packed simulation, and the ``ENGINES``
  names: the fault simulator and PODEM run the ``events`` engine, and take
  ``engine="packed" | "reference"`` only to reach the test oracles.
* :mod:`~repro.circuits.faults` -- single stuck-at fault model with
  structural equivalence collapsing.
* :mod:`~repro.circuits.fault_sim` -- parallel-pattern fault simulation with
  fault dropping.
* :mod:`~repro.circuits.atpg` -- a PODEM-style deterministic test generator
  that produces partially specified cubes (the input the reseeding encoders
  expect).
* :mod:`~repro.circuits.generator` -- a reproducible random-circuit generator
  for scaling experiments.
"""

from repro.circuits.netlist import Gate, GateType, Netlist
from repro.circuits.bench import parse_bench
from repro.circuits.simulator import simulate, simulate_parallel, simulate_ternary
from repro.circuits.faults import StuckAtFault, all_faults, collapse_faults
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.atpg import AtpgResult, PodemAtpg, generate_test_set_for_netlist
from repro.circuits.generator import random_netlist

__all__ = [
    "Gate",
    "GateType",
    "Netlist",
    "parse_bench",
    "simulate",
    "simulate_parallel",
    "simulate_ternary",
    "StuckAtFault",
    "all_faults",
    "collapse_faults",
    "FaultSimulator",
    "AtpgResult",
    "PodemAtpg",
    "generate_test_set_for_netlist",
    "random_netlist",
]
