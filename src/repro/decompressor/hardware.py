"""Gate-equivalent cost model of the decompressor (Section 4 hardware figures).

The paper reports hardware overhead in *gate equivalents* (GE), one GE being
the area of a 2-input NAND gate.  This module provides an analytical model
with standard per-cell weights so that the Section 4 experiments (State Skip
circuit cost vs ``k``, total decompressor cost, Mode Select cost vs ``L`` and
``S``, multi-core SoC sharing) can be regenerated.

Absolute GE numbers depend on the standard-cell library; the defaults here
use the customary weights (XOR2 ~ 2 GE, 2:1 MUX ~ 2.5 GE, scan flip-flop
~ 6 GE) which land the s13207 decompressor in the same few-hundred-GE range
the paper quotes.  What the experiments check is the *behaviour* of the cost:
linear growth of the State Skip circuit with the density of ``A^k``, Mode
Select cost tracking the number of extra useful segments, and the large
saving from sharing everything but Mode Select across the cores of a SoC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.decompressor.counters import counter_width
from repro.decompressor.mode_select import ModeSelectUnit
from repro.gf2.matrix import GF2Matrix
from repro.lfsr.phase_shifter import PhaseShifter
from repro.lfsr.state_skip import StateSkipCircuit


@dataclass(frozen=True)
class GateCostModel:
    """Per-cell costs in gate equivalents (NAND2 = 1)."""

    nand2: float = 1.0
    and2: float = 1.25
    or2: float = 1.25
    xor2: float = 2.0
    mux2: float = 2.5
    dff: float = 6.0
    counter_logic_per_bit: float = 2.5

    def counter(self, width: int) -> float:
        """A loadable counter of the given width."""
        return width * (self.dff + self.counter_logic_per_bit)


@dataclass
class HardwareReport:
    """Cost breakdown of one decompressor instance (all values in GE)."""

    lfsr: float
    state_skip: float
    phase_shifter: float
    counters: float
    control: float
    mode_select: float

    @property
    def shared(self) -> float:
        """Everything that a SoC can share across cores (all but Mode Select)."""
        return (
            self.lfsr
            + self.state_skip
            + self.phase_shifter
            + self.counters
            + self.control
        )

    @property
    def total(self) -> float:
        return self.shared + self.mode_select

    def breakdown(self) -> Dict[str, float]:
        return {
            "lfsr": self.lfsr,
            "state_skip": self.state_skip,
            "phase_shifter": self.phase_shifter,
            "counters": self.counters,
            "control": self.control,
            "mode_select": self.mode_select,
            "total": self.total,
        }

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, float]:
        """The six component costs as a JSON-safe dictionary.

        The canonical form the golden tests compare.
        """
        return {
            "lfsr": self.lfsr,
            "state_skip": self.state_skip,
            "phase_shifter": self.phase_shifter,
            "counters": self.counters,
            "control": self.control,
            "mode_select": self.mode_select,
        }


def lfsr_cost(transition: GF2Matrix, model: GateCostModel) -> float:
    """Registers plus feedback XOR network of the normal LFSR.

    The feedback network needs ``w - 1`` XOR gates for every transition row of
    weight ``w`` (rows of weight 1 are plain wires).
    """
    n = transition.ncols
    xor_gates = 0
    for i in range(n):
        weight = transition.row(i).weight()
        if weight >= 2:
            xor_gates += weight - 1
    return n * model.dff + xor_gates * model.xor2


def state_skip_cost(circuit: StateSkipCircuit, model: GateCostModel) -> float:
    """XOR trees of ``A^k`` plus the per-cell Normal/Skip multiplexers."""
    return circuit.xor_gate_count() * model.xor2 + circuit.size * model.mux2


def phase_shifter_cost(phase_shifter: PhaseShifter, model: GateCostModel) -> float:
    return phase_shifter.xor_gate_count() * model.xor2


def counters_cost(
    chain_length: int,
    segment_size: int,
    segments_per_window: int,
    max_useful_segments: int,
    max_group_size: int,
    model: GateCostModel,
) -> float:
    """The six controller counters of Fig. 3."""
    widths = [
        counter_width(max(chain_length - 1, 1)),
        counter_width(max(segment_size - 1, 1)),
        counter_width(max(segments_per_window - 1, 1)),
        counter_width(max(max_useful_segments, 1)),
        counter_width(max(max_group_size - 1, 1)),
        counter_width(max(max_useful_segments, 1)),
    ]
    return sum(model.counter(width) for width in widths)


def control_cost(model: GateCostModel, num_counters: int = 6) -> float:
    """Glue logic: wrap detection, load enables, scan-enable generation."""
    return num_counters * 6 * model.nand2


def decompressor_cost(
    transition: GF2Matrix,
    speedup: int,
    phase_shifter: PhaseShifter,
    chain_length: int,
    segment_size: int,
    segments_per_window: int,
    useful_segments_per_seed: Sequence[Sequence[int]],
    model: Optional[GateCostModel] = None,
) -> HardwareReport:
    """Full cost breakdown of one decompressor instance."""
    model = model or GateCostModel()
    skip_circuit = StateSkipCircuit(transition, max(speedup, 2))
    groups: Dict[int, int] = {}
    for segments in useful_segments_per_seed:
        groups[len(segments)] = groups.get(len(segments), 0) + 1
    max_useful = max(groups, default=1)
    max_group_size = max(groups.values(), default=1)
    mode_select = ModeSelectUnit(useful_segments_per_seed, segments_per_window)
    return HardwareReport(
        lfsr=lfsr_cost(transition, model),
        state_skip=state_skip_cost(skip_circuit, model),
        phase_shifter=phase_shifter_cost(phase_shifter, model),
        counters=counters_cost(
            chain_length,
            segment_size,
            segments_per_window,
            max_useful,
            max_group_size,
            model,
        ),
        control=control_cost(model),
        mode_select=mode_select.cost(
            and2_ge=model.and2, or2_ge=model.or2
        ).gate_equivalents,
    )


@dataclass
class SoCHardwareReport:
    """Cost of a multi-core SoC decompressor (shared datapath, per-core Mode Select)."""

    shared: float
    mode_select_per_core: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.shared + sum(self.mode_select_per_core.values())

    def mode_select_range(self) -> tuple:
        values = list(self.mode_select_per_core.values())
        return (min(values), max(values)) if values else (0.0, 0.0)


def soc_decompressor_cost(
    core_reports: Dict[str, HardwareReport],
) -> SoCHardwareReport:
    """Combine per-core reports into the SoC figure of Section 4.

    Everything but the Mode Select unit is implemented once and reused for all
    cores (the shared part is sized by the most demanding core); each core
    contributes its own Mode Select unit.
    """
    if not core_reports:
        raise ValueError("at least one core report is required")
    shared = max(report.shared for report in core_reports.values())
    return SoCHardwareReport(
        shared=shared,
        mode_select_per_core={
            name: report.mode_select for name, report in core_reports.items()
        },
    )
