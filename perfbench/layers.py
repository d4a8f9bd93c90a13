"""Per-layer metrics of a traced run, and the cross-checks that back them.

Each traced pass yields one value per metric; the run reports the median over
its traced passes.  Times come from the span rollup of ``tracing.py``; counts
come from the pass's own outputs, the ``CompressionContext`` statistics of the
contexts the pass used, and ``solver_stats_snapshot()``.  The ``trace.*``
metrics account for the traced run itself: wall time no span covers, the
tracing overhead against the interleaved untraced passes, and how far the
wrapper view disagrees with the program's own stage timings and solver
counters.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from repro.gf2.solve import solver_stats_snapshot

import tracing

UNITS: Dict[str, str] = {
    "circuits.atpg.run_s": "s",
    "circuits.atpg.cubes": "count",
    "circuits.atpg.redundant": "count",
    "circuits.atpg.aborted": "count",
    "circuits.atpg.useful_ratio": "ratio",
    "circuits.atpg.faults_per_s": "1/s",
    "circuits.fault_sim.grade_s": "s",
    "circuits.fault_sim.patterns": "count",
    "circuits.fault_sim.detected": "count",
    "circuits.fault_sim.coverage_pct": "%",
    "encoding.encode_s": "s",
    "encoding.precompute_s": "s",
    "encoding.search_s": "s",
    "encoding.verify_s": "s",
    "encoding.seeds": "count",
    "encoding.attempts": "count",
    "gf2.try_positions_packed_s": "s",
    "gf2.try_augmented_s": "s",
    "gf2.try_masks_s": "s",
    "gf2.commit_s": "s",
    "gf2.solver_trials": "count",
    "gf2.solver_batches": "count",
    "gf2.solver_commits": "count",
    "gf2.solver_pivots": "count",
    "gf2.commit_ratio": "ratio",
    "context.substrate_build_s": "s",
    "context.expand_seeds_s": "s",
    "context.encode_hit_s": "s",
    "context.encoding_hits": "count",
    "context.packed_window_hits": "count",
    "context.packed_window_misses": "count",
    "skip.reduce_s": "s",
    "skip.build_embedding_map_s": "s",
    "skip.select_useful_segments_s": "s",
    "skip.schedule_s": "s",
    "skip.useful_segments": "count",
    "skip.paper_gap_pts": "pts",
    "decompressor.cost_s": "s",
    "decompressor.simulate_s": "s",
    "decompressor.coverage_check_s": "s",
    "decompressor.lfsr_clocks": "count",
    "decompressor.skip_clocks": "count",
    "decompressor.vectors_applied": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
    "trace.stage_timing_gap_pct": "%",
    "trace.counter_mismatches": "count",
}

#: Counts copied from the pass's own figures (see ``workloads.py``).
FIGURES = (
    "circuits.atpg.cubes",
    "circuits.atpg.redundant",
    "circuits.atpg.aborted",
    "circuits.fault_sim.patterns",
    "circuits.fault_sim.detected",
    "encoding.seeds",
    "skip.useful_segments",
    "decompressor.lfsr_clocks",
    "decompressor.skip_clocks",
    "decompressor.vectors_applied",
)

#: context metric -> CompressionContext.stats counter
CONTEXT_COUNTERS = {
    "context.encoding_hits": "encoding_hits",
    "context.packed_window_hits": "packed_window_hits",
    "context.packed_window_misses": "packed_window_misses",
    "encoding.attempts": "substrate_misses",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def context_delta(record) -> Dict[str, float]:
    """What the contexts a pass used counted during the pass."""
    total: Dict[str, float] = {}
    for context, before in record.contexts:
        for name, value in context.stats.snapshot().items():
            total[name] = total.get(name, 0) + value - before.get(name, 0)
    return total


def pass_metrics(record, tracer: "tracing.Tracer", solver_before) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (call right after the pass)."""
    solver = {
        name: value - solver_before[name]
        for name, value in solver_stats_snapshot().items()
    }
    context = context_delta(record)
    figures = record.figures
    metrics: Dict[str, float] = {}
    for name, (span, kind) in tracing.SPAN_TIMES.items():
        source = tracer.total if kind == "total" else tracer.self_time
        metrics[name] = source.get(span, 0.0)
    for name in FIGURES:
        metrics[name] = figures.get(name, 0)
    for name, counter in CONTEXT_COUNTERS.items():
        metrics[name] = context.get(counter, 0)
    for name, value in solver.items():
        metrics[f"gf2.{name}"] = value

    targeted = sum(
        figures.get(name, 0)
        for name in ("circuits.atpg.cubes", "circuits.atpg.redundant", "circuits.atpg.aborted")
    )
    metrics["circuits.atpg.useful_ratio"] = _ratio(figures.get("circuits.atpg.cubes", 0), targeted)
    metrics["circuits.atpg.faults_per_s"] = _ratio(
        figures.get("circuits.atpg.faults", 0), metrics["circuits.atpg.run_s"]
    )
    metrics["circuits.fault_sim.coverage_pct"] = 100.0 * _ratio(
        figures.get("circuits.fault_sim.detected", 0),
        figures.get("circuits.fault_sim.faults", 0),
    )
    metrics["gf2.commit_ratio"] = _ratio(solver["solver_commits"], solver["solver_trials"])
    metrics["skip.paper_gap_pts"] = _ratio(
        figures.get("paper_gap_sum", 0), figures.get("paper_gap_count", 0)
    )

    metrics["trace.wall_s"] = record.wall
    metrics["trace.unattributed_s"] = record.wall - sum(tracer.self_time.values())
    # Disagreement between the wrapper totals and the program's own stage
    # timings, as a share of the stage time (summed over the four stages).
    gap = covered = 0.0
    for stage, spans in tracing.STAGE_SPANS.items():
        wrapped = sum(tracer.total.get(span, 0.0) for span in spans)
        own = context.get(f"{stage}_s", 0.0)
        gap += abs(wrapped - own)
        covered += max(wrapped, own)
    metrics["trace.stage_timing_gap_pct"] = 100.0 * _ratio(gap, covered)
    metrics["trace.counter_mismatches"] = sum(
        (
            solver["solver_commits"] != tracer.calls.get("gf2.commit", 0),
            solver["solver_batches"] != tracer.batches,
            solver["solver_trials"]
            != tracer.calls.get("gf2.try_augmented", 0) + tracer.batch_candidates,
        )
    )
    return metrics


def per_layer(untraced: List, traced_metrics: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of every per-layer metric over the traced passes."""
    metrics = {
        name: statistics.median(values[name] for values in traced_metrics)
        for name in traced_metrics[0]
    }
    metrics["trace.untraced_wall_s"] = statistics.median(r.wall for r in untraced)
    metrics["trace.overhead_pct"] = 100.0 * (
        metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
    )
    return {name: metrics[name] for name in UNITS}


def layer_self_times(tracer: "tracing.Tracer") -> Dict[str, float]:
    """Self time per layer of one traced pass."""
    layers: Dict[str, float] = {}
    for span, seconds in tracer.self_time.items():
        layer = tracing.layer_of(span)
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers
