"""The algebraic substrate of one decompressor setup.

The substrate is everything about the hardware that the seed computation,
the sequence reduction, the verification and the decompressor replay share:
the scan architecture, the LFSR, the phase shifter, the precomputed
:class:`~repro.encoding.equations.EquationSystem` and, from the first
replay on, the replay's
:class:`~repro.decompressor.architecture.ReplayTables`.  It depends only on
the :class:`SubstrateKey` -- never on the test cubes, the fill seed or the
State Skip parameters (S, k) -- which is what makes it safe to share across
campaign grid neighbours: every encode-stage result that
:class:`repro.context.CompressionContext` caches keeps its substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.encoding.equations import EquationSystem
from repro.gf2.primitive import default_feedback_polynomial
from repro.lfsr.lfsr import LFSR
from repro.lfsr.phase_shifter import PhaseShifter
from repro.scan.architecture import ScanArchitecture

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.decompressor.architecture import ReplayTables


@dataclass(frozen=True)
class SubstrateKey:
    """Everything that determines the algebraic substrate of one setup.

    Two compression runs with equal keys share the exact same LFSR,
    phase shifter and equation system -- the test cubes, the fill seed and
    the State Skip parameters do not enter the key.
    """

    num_cells: int
    num_scan_chains: int
    lfsr_size: int
    window_length: int
    phase_taps: int = 3
    phase_seed: int = 2008


class EncoderSubstrate:
    """The deterministic hardware model behind one :class:`SubstrateKey`.

    Bundles the scan architecture, the LFSR (library-default primitive
    feedback polynomial), the phase shifter and the
    :class:`~repro.encoding.equations.EquationSystem`.  Construction is the
    dominant cost of encode setup (dense conversions plus the BLAS ladders
    of the position matrices); a cached encode-stage result of the
    :class:`~repro.context.CompressionContext` keeps the substrate it was
    encoded on, and with it the :attr:`replay_tables` that its first
    replay builds.
    """

    def __init__(self, key: SubstrateKey):
        if key.lfsr_size < 2:
            raise ValueError("lfsr_size must be at least 2")
        self.key = key
        self.architecture = ScanArchitecture(key.num_cells, key.num_scan_chains)
        self.lfsr = LFSR.fibonacci(default_feedback_polynomial(key.lfsr_size))
        self.phase_shifter = PhaseShifter.construct(
            num_outputs=self.architecture.num_chains,
            lfsr_size=key.lfsr_size,
            taps_per_output=key.phase_taps,
            seed=key.phase_seed,
        )
        self.equations = EquationSystem(
            transition=self.lfsr.transition,
            phase_shifter=self.phase_shifter,
            architecture=self.architecture,
            window_length=key.window_length,
        )

    @cached_property
    def replay_tables(self) -> "ReplayTables":
        """The decompressor replay's hardware tables, built on first use.

        Derived from the transition matrix, the phase shifter and the scan
        architecture, never from :attr:`equations`; lazy, so an encode that
        is never replayed (a rejected phase-shifter attempt) does not pay.
        """
        # The decompressor package imports this one; import on first use.
        from repro.decompressor.architecture import ReplayTables

        return ReplayTables(self.lfsr.transition, self.phase_shifter, self.architecture)
