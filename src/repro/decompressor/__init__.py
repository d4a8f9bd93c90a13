"""The on-chip decompression architecture (Section 3.3 of the paper).

The architecture of Fig. 3 consists of the State Skip LFSR + phase shifter,
six small counters (Bit, Vector, Segment, Useful Segment, Seed, Group), and a
combinational Mode Select unit that raises the Normal/State-Skip select line
exactly for the useful segments.

* :mod:`~repro.decompressor.counters` -- the widths of the six counters.
* :mod:`~repro.decompressor.mode_select` -- the Mode Select unit (behaviour
  and decoding-cost model).
* :mod:`~repro.decompressor.architecture` -- a simulation of the whole
  decompressor that replays a reduction schedule and checks that every test
  cube really reaches the scan chains.  ``simulate_decompression`` replays
  it one segment at a time, all seeds in lockstep, through the State Skip
  circuit's own matrix, reading the hardware constants a substrate keeps
  (``ReplayTables``); ``DecompressionController`` is the clock-by-clock
  reference it is tested against.
* :mod:`~repro.decompressor.hardware` -- the gate-equivalent cost model used
  to reproduce the Section 4 hardware-overhead figures.
"""

from repro.decompressor.counters import counter_width
from repro.decompressor.mode_select import ModeSelectUnit
from repro.decompressor.architecture import (
    DecompressionController,
    Decompressor,
    SimulationOutcome,
)
from repro.decompressor.hardware import (
    GateCostModel,
    HardwareReport,
    decompressor_cost,
    soc_decompressor_cost,
)

__all__ = [
    "counter_width",
    "ModeSelectUnit",
    "DecompressionController",
    "Decompressor",
    "SimulationOutcome",
    "GateCostModel",
    "HardwareReport",
    "decompressor_cost",
    "soc_decompressor_cost",
]
