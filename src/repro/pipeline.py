"""The State-Skip-LFSR compression flow: staged API plus the one-call façade.

The flow is decomposed into four first-class **stages**, each threaded
through a :class:`~repro.context.CompressionContext` that caches the two
results grid neighbours share (the encode-stage result and the cube cover
of its seeds):

1. :func:`encode` -- window-based LFSR-reseeding seed computation
   (Section 2), plus the verification of every embedding against the
   cover;
2. :func:`reduce` -- the State Skip test-sequence reduction (Section 3.2);
3. :func:`hardware` -- the gate-equivalent hardware model of the
   decompressor (Section 3.3 / 4);
4. :func:`simulate` -- the clock-level decompressor simulation that replays
   the schedule and checks that every test cube really reaches the scan
   chains.

:func:`compress` remains the one-call façade over the stages and produces
bit-identical :class:`CompressionReport`\\ s whether the context cache is
warm, cold or disabled.  Calling the stages directly unlocks the
encode-once / sweep-many workloads the monolith could not express::

    ctx = CompressionContext()
    encoded = encode(test_set, config, context=ctx)
    for S, k in grid:
        reduction = reduce(
            encoded, config.with_updates(segment_size=S, speedup=k)
        )
        ge = hardware(encoded, reduction)

The returned :class:`CompressionReport` carries every figure of merit the
paper reports (TDV, original window TSL, reduced TSL, improvement %, GE
breakdown) plus the underlying result objects for deeper inspection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import CompressionConfig
from repro.context import CompressionContext, EncoderSubstrate
from repro.decompressor.architecture import SimulationOutcome, simulate_decompression
from repro.decompressor.hardware import (
    GateCostModel,
    HardwareReport,
    decompressor_cost,
)
from repro.encoding.encoder import encode_with_retries
from repro.encoding.results import EncodingResult
from repro.encoding.window import verify_encoding
from repro.gf2.solve import solver_stats_snapshot
from repro.skip.reduction import ReductionConfig, ReductionResult, SequenceReducer
from repro.telemetry import get_recorder
from repro.testdata.literature import tsl_improvement
from repro.testdata.profiles import CircuitProfile
from repro.testdata.synthetic import generate_test_set
from repro.testdata.test_set import TestSet


@dataclass
class CompressionReport:
    """Everything produced by one run of the flow."""

    circuit: str
    config: CompressionConfig
    encoding: EncodingResult
    reduction: ReductionResult
    hardware: HardwareReport
    encoding_verified: bool
    simulation: Optional[SimulationOutcome] = None

    # ------------------------------------------------------------------
    # Figures of merit
    # ------------------------------------------------------------------
    @property
    def test_data_volume(self) -> int:
        """Bits stored on the ATE."""
        return self.encoding.test_data_volume

    @property
    def window_tsl(self) -> int:
        """Vectors applied by the original window-based scheme."""
        return self.encoding.test_sequence_length

    @property
    def state_skip_tsl(self) -> int:
        """Vectors applied with State Skip reduction (the paper's "Prop.")."""
        return self.reduction.test_sequence_length

    @property
    def improvement_percent(self) -> float:
        """TSL improvement of the proposed method over the window baseline."""
        return tsl_improvement(self.state_skip_tsl, self.window_tsl)

    @property
    def num_seeds(self) -> int:
        return self.encoding.num_seeds

    @property
    def hardware_total_ge(self) -> float:
        return self.hardware.total

    def summary(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "lfsr_size": self.encoding.lfsr_size,
            "window_length": self.config.window_length,
            "segment_size": self.config.segment_size,
            "speedup": self.config.speedup,
            "num_cubes": self.encoding.num_cubes,
            "num_seeds": self.num_seeds,
            "tdv_bits": self.test_data_volume,
            "window_tsl": self.window_tsl,
            "state_skip_tsl": self.state_skip_tsl,
            "improvement_pct": round(self.improvement_percent, 1),
            "hardware_ge": round(self.hardware_total_ge, 1),
            "encoding_verified": self.encoding_verified,
            "simulated": self.simulation is not None,
        }

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The whole report as JSON-safe data.

        Nests the :meth:`to_dict` forms of the config, encoding, reduction
        and hardware results plus the flat :meth:`summary` row: the
        canonical form the golden tests compare.  The clock-level
        simulation trace, when present, is reduced to its scalar outcome
        (vector counts and clock totals).
        """
        simulation = None
        if self.simulation is not None:
            simulation = {
                "seeds_applied": self.simulation.seeds_applied,
                "vectors_applied": self.simulation.vectors_applied,
                "lfsr_clocks": self.simulation.lfsr_clocks,
                "skip_clocks": self.simulation.skip_clocks,
                "group_sizes": {
                    str(count): size
                    for count, size in self.simulation.group_sizes.items()
                },
            }
        return {
            "circuit": self.circuit,
            "config": self.config.to_dict(),
            "encoding": self.encoding.to_dict(),
            "reduction": self.reduction.to_dict(),
            "hardware": self.hardware.to_dict(),
            "encoding_verified": self.encoding_verified,
            "simulation": simulation,
            "summary": self.summary(),
        }


# ----------------------------------------------------------------------
# Staged pipeline
# ----------------------------------------------------------------------
@dataclass
class StagedEncoding:
    """Output of the :func:`encode` stage.

    Bundles the test set, the config, the (possibly context-cached)
    :class:`~repro.context.EncoderSubstrate` that produced the encoding and
    the :class:`~repro.encoding.results.EncodingResult` itself.  Later
    stages take this object, so an (S, k) sweep calls :func:`encode` once
    and :func:`reduce` / :func:`hardware` many times.

    ``context`` is the context the stage ran with; it is the default
    context of the downstream stages, which is how the cover verification
    built travels to the reducer without the caller re-threading it.
    """

    test_set: TestSet
    config: CompressionConfig
    substrate: EncoderSubstrate
    encoding: EncodingResult
    verified: bool
    context: CompressionContext


def encode(
    test_set: TestSet,
    config: Optional[CompressionConfig] = None,
    context: Optional[CompressionContext] = None,
    verify: bool = True,
) -> StagedEncoding:
    """Stage 1: window-based seed computation (plus algebraic verification).

    The result is cached in ``context`` under (test-set fingerprint,
    encode-relevant config key) -- the State Skip knobs ``(S, k,
    alignment, force_first_segment_useful)`` are excluded from the key, so
    every grid neighbour that shares the encode parameters reuses the
    substrate *and* the computed seeds.  Verification runs at most once per
    cached encoding: it checks every deterministic embedding against the
    context-cached cover of the seeds, which every later :func:`reduce` of
    the encoding reads.
    """
    config = config or CompressionConfig()
    context = context or CompressionContext()
    recorder = get_recorder()
    start = time.perf_counter()
    solver_before = solver_stats_snapshot()
    with recorder.span("stage.encode", circuit=test_set.name) as span:
        lfsr_size = config.lfsr_size
        if lfsr_size is None:
            lfsr_size = test_set.max_specified() + 8
        resolved = (
            config
            if config.lfsr_size == lfsr_size
            else config.with_updates(lfsr_size=lfsr_size)
        )
        fingerprint = test_set.fingerprint()
        encode_key = resolved.encode_cache_key()
        entry = context.get_encoding(fingerprint, encode_key)
        cached = entry is not None
        if entry is None:
            substrate, encoding = encode_with_retries(
                test_set,
                context.substrate,
                num_scan_chains=resolved.num_scan_chains,
                lfsr_size=lfsr_size,
                window_length=resolved.window_length,
                phase_taps=resolved.phase_taps,
                phase_seed=resolved.phase_seed,
                fill_seed=resolved.fill_seed,
                max_phase_retries=resolved.max_phase_retries,
            )
            entry = context.put_encoding(
                fingerprint, encode_key, substrate, encoding, verified=False
            )
        if verify and not entry.verified:
            cover = context.cover(
                entry.substrate,
                [record.seed for record in entry.encoding.seeds],
                test_set,
            )
            violations = verify_encoding(entry.encoding, cover)
            if violations:
                raise RuntimeError(
                    f"encoding verification failed for {len(violations)} "
                    f"embeddings; first: {violations[0]}"
                )
            entry.verified = True
        if recorder.enabled:
            span.set("cached", cached)
            span.set("num_seeds", entry.encoding.num_seeds)
    # Attribute the GF(2) solver work done inside this call (the solvers
    # themselves live per seed, out of reach of the context).
    for name, after_value in solver_stats_snapshot().items():
        work = after_value - solver_before[name]
        if work:
            context.stats.count(name, work)
    context.stats.add_timing("encode", time.perf_counter() - start)
    return StagedEncoding(
        test_set=test_set,
        config=config,
        substrate=entry.substrate,
        encoding=entry.encoding,
        verified=entry.verified,
        context=context,
    )


def reduce(
    encoded: StagedEncoding,
    config: Optional[CompressionConfig] = None,
    context: Optional[CompressionContext] = None,
) -> ReductionResult:
    """Stage 2: State Skip sequence reduction of one encoding.

    ``config`` supplies the reduction knobs ``(segment_size, speedup,
    alignment, force_first_segment_useful)`` and defaults to the config the
    encoding was produced with -- pass ``encoded.config.with_updates(...)``
    to sweep (S, k) points over one encoding.  The embedding map is derived
    from the context-cached cover of the encoding (one bit per cube, seed
    and window position), so the cubes are matched against the windows
    once per encoding, not once per point; a verified encoding's cover was
    built by its verification.
    """
    config = config or encoded.config
    context = context or encoded.context
    start = time.perf_counter()
    with get_recorder().span(
        "stage.reduce",
        circuit=encoded.test_set.name,
        segment_size=config.segment_size,
        speedup=config.speedup,
    ):
        reducer = SequenceReducer(
            encoded.substrate.equations,
            ReductionConfig(
                segment_size=config.segment_size,
                speedup=config.speedup,
                alignment=config.alignment,
                force_first_segment_useful=config.force_first_segment_useful,
            ),
        )
        cover = context.cover(
            encoded.substrate,
            [record.seed for record in encoded.encoding.seeds],
            encoded.test_set,
        )
        result = reducer.reduce(encoded.encoding, encoded.test_set, cover=cover)
    context.stats.add_timing("reduce", time.perf_counter() - start)
    return result


def hardware(
    encoded: StagedEncoding,
    reduction: ReductionResult,
    cost_model: Optional[GateCostModel] = None,
    context: Optional[CompressionContext] = None,
) -> HardwareReport:
    """Stage 3: gate-equivalent cost of the decompressor for one reduction."""
    context = context or encoded.context
    start = time.perf_counter()
    with get_recorder().span("stage.hardware", circuit=encoded.test_set.name):
        report = decompressor_cost(
            transition=encoded.substrate.lfsr.transition,
            speedup=reduction.config.speedup,
            phase_shifter=encoded.substrate.phase_shifter,
            chain_length=encoded.substrate.architecture.chain_length,
            segment_size=reduction.config.segment_size,
            segments_per_window=reduction.num_segments_per_window,
            useful_segments_per_seed=[s.useful_segments for s in reduction.schedules],
            model=cost_model,
        )
    context.stats.add_timing("hardware", time.perf_counter() - start)
    return report


def simulate(
    encoded: StagedEncoding,
    reduction: ReductionResult,
    context: Optional[CompressionContext] = None,
) -> SimulationOutcome:
    """Stage 4: decompressor replay (end-to-end delivery check).

    The simulation is deliberately *not* served from the cover: it
    re-generates every vector through the State Skip datapath (one segment
    at a time, all seeds in lockstep, useless segments through the State
    Skip circuit's own matrix; bit-identical to the clock-by-clock
    reference), which is what makes it an independent check of the whole
    flow.  What it keeps across (S, k) points is hardware only: the
    substrate's :attr:`~repro.encoding.substrate.EncoderSubstrate.replay_tables`,
    built from A and the phase shifter on the encoding's first replay; it
    never reads the encoder's equations, cover or windows.  The captured
    words go straight to the coverage check.  Raises when any cube of the
    test set is left unapplied.
    """
    context = context or encoded.context
    start = time.perf_counter()
    with get_recorder().span("stage.simulate", circuit=encoded.test_set.name):
        outcome = simulate_decompression(
            encoded.encoding, reduction, encoded.substrate.replay_tables
        )
        uncovered = outcome.uncovered_cubes(encoded.test_set)
        if uncovered:
            raise RuntimeError(
                f"decompressor simulation left {len(uncovered)} cubes unapplied"
            )
    context.stats.add_timing("simulate", time.perf_counter() - start)
    return outcome


#: ``compress`` takes a ``simulate`` flag that shadows the stage function.
_simulate_stage = simulate


# ----------------------------------------------------------------------
# One-call façade
# ----------------------------------------------------------------------
def compress(
    test_set: TestSet,
    config: Optional[CompressionConfig] = None,
    verify: bool = True,
    simulate: bool = False,
    cost_model: Optional[GateCostModel] = None,
    context: Optional[CompressionContext] = None,
) -> CompressionReport:
    """Run the full flow on a test set (thin façade over the staged API).

    Parameters
    ----------
    test_set:
        The pre-computed test cubes of the IP core.
    config:
        Flow parameters; defaults to :class:`CompressionConfig` defaults
        (L=200, S=10, k=10 -- the paper's SoC setting).
    verify:
        Expand every seed and check each encoded cube against its window
        position, through the cover that the reduction reads next.
    simulate:
        Additionally replay the schedule through the clock-level decompressor
        simulation and check cube delivery end to end (slower; great for
        examples and acceptance tests).
    cost_model:
        Standard-cell GE weights for the hardware report.
    context:
        A shared :class:`~repro.context.CompressionContext`.  Reports are
        bit-identical with or without one; a warm context skips the
        substrate construction, the seed computation, the seed expansion
        and the cover build for every (test set, encode-config) point it
        has seen.  When omitted, an
        ephemeral context still shares the cover between verification and
        reduction within this call.
    """
    config = config or CompressionConfig()
    context = context or CompressionContext()
    encoded = encode(test_set, config, context=context, verify=verify)
    reduction = reduce(encoded, config, context=context)
    cost = hardware(encoded, reduction, cost_model=cost_model, context=context)
    simulation = None
    if simulate:
        simulation = _simulate_stage(encoded, reduction, context=context)
    return CompressionReport(
        circuit=test_set.name,
        config=config,
        encoding=encoded.encoding,
        reduction=reduction,
        hardware=cost,
        encoding_verified=verify,
        simulation=simulation,
    )


def compress_profile(
    profile: CircuitProfile,
    config: Optional[CompressionConfig] = None,
    scale: Optional[float] = None,
    seed: int = 1,
    **kwargs,
) -> CompressionReport:
    """Generate the calibrated test set of a profile and compress it."""
    test_set = generate_test_set(profile, seed=seed, scale=scale)
    config = config or CompressionConfig()
    if config.lfsr_size is None:
        config = config.with_updates(lfsr_size=profile.lfsr_size)
    return compress(test_set, config, **kwargs)
