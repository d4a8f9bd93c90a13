"""The benchmark's workloads: inputs made from a seed, and one pass over them.

Every workload is a ``prepare(seed, size, record)`` function that builds the
inputs (the set-up phase) and a ``run_pass(inputs, record)`` function that
runs the timed flow once.  Both only call public functions of
``repro.pipeline``, ``repro.circuits.atpg``, ``repro.circuits.fault_sim``
and ``repro.testdata``; each such call is timed from the outside as a named
*step* of a :class:`PassRecord`.

An *operation* is the unit that can fail: a circuit encode (with its
replay), an (S, k) grid point, or a whole netlist run.  An exception inside
an operation, or an output that differs from the reference pass, counts that
operation as failed; the pass goes on with the next one.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro import pipeline
from repro.circuits.atpg import PodemAtpg
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.generator import random_netlist
from repro.config import CompressionConfig
from repro.context import CompressionContext
from repro.testdata.literature import TABLE2
from repro.testdata.profiles import get_profile
from repro.testdata.synthetic import generate_test_set

#: Step-name prefixes.  Encode steps feed ``cubes_per_s``; grid steps feed
#: ``grid_points_per_s``.
ENCODE, GRID = "encode", "grid"


class CheckFailed(RuntimeError):
    """An output of the program broke an invariant the benchmark checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class PassRecord:
    """Step timings, operation outcomes and simulated figures of one pass."""

    def __init__(self) -> None:
        #: step name -> [wall seconds, process CPU seconds]
        self.steps: Dict[str, List[float]] = {}
        #: operation key -> running sha256 of its deterministic outputs
        self.digests: Dict[str, "hashlib._Hash"] = {}
        #: operation key -> first error message
        self.failed: Dict[str, str] = {}
        #: deterministic, simulated figures summed over the pass
        self.figures: Dict[str, float] = {}
        #: (context, stats snapshot when first used in this pass)
        self.contexts: List[Tuple[CompressionContext, Dict[str, float]]] = []
        self.wall = 0.0

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            entry = self.steps.setdefault(name, [0.0, 0.0])
            entry[0] += time.perf_counter() - wall
            entry[1] += time.process_time() - cpu

    @contextmanager
    def op(self, key: str) -> Iterator[None]:
        """Run the body as (part of) operation ``key``; record, never raise."""
        self.digests.setdefault(key, hashlib.sha256())
        try:
            yield
        except Exception as error:  # the benchmark must finish the pass
            self.failed.setdefault(key, f"{type(error).__name__}: {error}")

    def fail(self, key: str, reason: str) -> None:
        self.digests.setdefault(key, hashlib.sha256())
        self.failed.setdefault(key, reason)

    def note(self, key: str, *values: object) -> None:
        """Fold deterministic outputs into the operation's digest."""
        self.digests[key].update(repr(values).encode())

    def add(self, name: str, value: float) -> None:
        self.figures[name] = self.figures.get(name, 0) + value

    def track(self, context: CompressionContext) -> CompressionContext:
        self.contexts.append((context, context.stats.snapshot()))
        return context

    def hexdigests(self) -> Dict[str, str]:
        return {key: digest.hexdigest() for key, digest in self.digests.items()}


# ----------------------------------------------------------------------
# Shared flow pieces
# ----------------------------------------------------------------------
def _encode(record: PassRecord, key: str, test_set, config, context):
    with record.step(f"{ENCODE} {key}"):
        encoded = pipeline.encode(test_set, config, context=context, verify=True)
    encoding = encoded.encoding
    check(encoded.verified, f"{key}: encoding not verified")
    check(
        encoding.test_sequence_length == encoding.num_seeds * config.window_length,
        f"{key}: window TSL is not seeds x L",
    )
    record.note(
        key, sorted(encoding.summary().items()), [s.seed.value for s in encoding.seeds]
    )
    record.add("cubes", encoding.num_cubes)
    record.add("encoding.seeds", encoding.num_seeds)
    return encoded


def _grid_point(record, key, encoded, config, simulate=False, op=None):
    """reduce + hardware (+ simulate) at one (S, k) point; returns the reduction.

    ``op`` is the operation the point belongs to (default: its own ``key``).
    """
    with record.step(f"{GRID} {key}"):
        reduction = pipeline.reduce(encoded, config)
        cost = pipeline.hardware(encoded, reduction)
        outcome = pipeline.simulate(encoded, reduction) if simulate else None
    check(
        reduction.test_sequence_length <= encoded.encoding.test_sequence_length,
        f"{key}: State Skip TSL exceeds the window TSL",
    )
    op = op or key
    record.note(
        op,
        config.segment_size,
        config.speedup,
        reduction.test_sequence_length,
        reduction.num_useful_segments,
        round(cost.total, 6),
    )
    record.add("grid_points", 1)
    record.add("skip.useful_segments", reduction.num_useful_segments)
    if outcome is not None:
        _note_outcome(record, op, reduction, outcome)
    return reduction


def _replay(record, key, encoded, reduction):
    with record.step(f"simulate {key}"):
        outcome = pipeline.simulate(encoded, reduction)
    _note_outcome(record, key, reduction, outcome)
    return outcome


def _note_outcome(record, key, reduction, outcome) -> None:
    check(
        outcome.vectors_applied == reduction.test_sequence_length,
        f"{key}: replay applied {outcome.vectors_applied} vectors, "
        f"schedule says {reduction.test_sequence_length}",
    )
    record.note(key, outcome.vectors_applied, outcome.lfsr_clocks, outcome.skip_clocks)
    record.add("decompressor.vectors_applied", outcome.vectors_applied)
    record.add("decompressor.lfsr_clocks", outcome.lfsr_clocks)
    record.add("decompressor.skip_clocks", outcome.skip_clocks)


def _best(reductions):
    return min(reductions, key=lambda r: r.test_sequence_length) if reductions else None


def _paper_gap(record, circuit: str, window: int, best) -> None:
    published = TABLE2[circuit][window]["impr"]
    record.add("paper_gap_sum", abs(best.improvement_percent - published))
    record.add("paper_gap_count", 1)


def _sub_seed(seed: int, index: int) -> int:
    return seed * 1009 + index + 1


# How the seed makes the inputs.  The cube sets stand for the fixed test
# sets a core vendor hands over (the paper uses one Atalanta set per
# circuit), so they come from the repository's canonical generator seed
# (profiles) or fixed netlist seeds, and the phase shifter keeps its default
# seed.  The benchmark seed draws the pseudo-random fill of every seed's free
# variables -- hence every generated test vector.  The ATPG random fill on
# netlist-flow is canonical too: it changes the cube set.  Re-drawing the
# cube sets or the phase shifter per seed moves the work per circuit by
# 8-25 %, more than a regression bound can absorb.
CANONICAL_TEST_SET_SEED = 1


# ----------------------------------------------------------------------
# paper-tables: Tables 1-2 regeneration, encode-bound
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileSpec:
    circuits: Tuple[Tuple[str, float, int], ...]  # (profile, scale, window L)
    segment_sizes: Tuple[int, ...]
    speedups: Tuple[int, ...]


PAPER_TABLES = {
    "full": ProfileSpec(
        # s38417 runs at the paper's short window: its 85-bit LFSR makes an
        # L=200 encode one 3 s call, too coarse to time steadily.
        circuits=(
            ("s9234", 0.1, 200),
            ("s13207", 0.1, 200),
            ("s38584", 0.05, 200),
            ("s38417", 0.01, 50),
        ),
        segment_sizes=(2, 5, 10),
        speedups=(8, 16, 24),
    ),
    "tiny": ProfileSpec(
        circuits=(("s9234", 0.02, 50), ("s13207", 0.02, 50)),
        segment_sizes=(5, 10),
        speedups=(8, 16),
    ),
}


def _profile_inputs(spec: ProfileSpec, seed: int):
    inputs = []
    for index, (name, scale, window) in enumerate(spec.circuits):
        profile = get_profile(name)
        test_set = generate_test_set(profile, seed=CANONICAL_TEST_SET_SEED, scale=scale)
        config = CompressionConfig(
            window_length=window,
            lfsr_size=profile.lfsr_size,
            fill_seed=_sub_seed(seed, index),
        )
        inputs.append((name, test_set, config))
    return inputs


def prepare_paper_tables(seed: int, size: str, record: PassRecord):
    spec = PAPER_TABLES[size]
    return spec, _profile_inputs(spec, seed)


def pass_paper_tables(inputs, record: PassRecord) -> None:
    spec, circuits = inputs
    for name, test_set, config in circuits:
        # A cold context per circuit: this workload measures the encode.
        context = record.track(CompressionContext())
        encoded = None
        with record.op(name):
            encoded = _encode(record, name, test_set, config, context)
            record.add("tdv_bits", encoded.encoding.test_data_volume)
        reductions = []
        for S in spec.segment_sizes:
            for k in spec.speedups:
                key = f"{name} S={S} k={k}"
                if encoded is None:
                    record.fail(key, "encode failed")
                    continue
                with record.op(key):
                    point = config.with_updates(segment_size=S, speedup=k)
                    reductions.append(_grid_point(record, key, encoded, point))
        best = _best(reductions)
        if best is None:
            continue
        with record.op(name):
            _replay(record, name, encoded, best)
            record.add("state_skip_tsl", best.test_sequence_length)
            _paper_gap(record, name, config.window_length, best)


# ----------------------------------------------------------------------
# sk-sweep: Fig. 4 (S, k) study on warm contexts, encode in set-up
# ----------------------------------------------------------------------
SK_SWEEP = {
    "full": ProfileSpec(
        circuits=(("s9234", 0.1, 500), ("s38584", 0.03, 500)),
        segment_sizes=(5, 10, 20, 25, 50),
        speedups=(3, 6, 12, 18, 24),
    ),
    "tiny": ProfileSpec(
        circuits=(("s9234", 0.02, 50),),
        segment_sizes=(5, 10),
        speedups=(8, 16),
    ),
}


def prepare_sk_sweep(seed: int, size: str, record: PassRecord):
    spec = SK_SWEEP[size]
    circuits = []
    for name, test_set, config in _profile_inputs(spec, seed):
        context = record.track(CompressionContext())
        encoded = None
        with record.op(name):
            encoded = _encode(record, name, test_set, config, context)
        circuits.append((name, test_set, config, context, encoded))
    return spec, circuits


def pass_sk_sweep(inputs, record: PassRecord) -> None:
    spec, circuits = inputs
    for name, test_set, config, context, staged in circuits:
        record.track(context)
        if staged is not None:
            record.add("tdv_bits", staged.encoding.test_data_volume)
        reductions = []
        for S in spec.segment_sizes:
            for k in spec.speedups:
                key = f"{name} S={S} k={k}"
                if staged is None:
                    record.fail(key, "set-up encode failed")
                    continue
                with record.op(key):
                    point = config.with_updates(segment_size=S, speedup=k)
                    with record.step(f"{ENCODE} {key}"):
                        # The way a campaign job reaches a grid neighbour:
                        # the warm context serves the encoding from cache.
                        encoded = pipeline.encode(test_set, point, context=context)
                    check(
                        encoded.encoding is staged.encoding,
                        f"{key}: the warm context re-encoded",
                    )
                    record.add("cubes", encoded.encoding.num_cubes)
                    reductions.append(
                        _grid_point(record, key, encoded, point, simulate=True)
                    )
        best = _best(reductions)
        if best is not None:
            record.add("state_skip_tsl", best.test_sequence_length)
            _paper_gap(record, name, config.window_length, best)


# ----------------------------------------------------------------------
# netlist-flow: netlist -> PODEM ATPG -> encode -> grid -> replay -> grading
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetlistSpec:
    count: int
    num_inputs: int
    num_gates: int
    num_scan_chains: int
    window: int
    segment_sizes: Tuple[int, ...]
    speedups: Tuple[int, ...]
    lfsr_margin: int = 8


NETLIST_FLOW = {
    "full": NetlistSpec(
        count=4,
        num_inputs=48,
        num_gates=400,
        num_scan_chains=8,
        window=50,
        segment_sizes=(5, 10),
        speedups=(8, 16),
    ),
    "tiny": NetlistSpec(
        count=1,
        num_inputs=24,
        num_gates=80,
        num_scan_chains=4,
        window=20,
        segment_sizes=(5,),
        speedups=(8,),
    ),
}


def prepare_netlist_flow(seed: int, size: str, record: PassRecord):
    spec = NETLIST_FLOW[size]
    netlists = [
        random_netlist(
            f"n{index}",
            num_inputs=spec.num_inputs,
            num_gates=spec.num_gates,
            seed=index + 1,
        )
        for index in range(spec.count)
    ]
    return spec, seed, netlists


def pass_netlist_flow(inputs, record: PassRecord) -> None:
    spec, seed, netlists = inputs
    for index, netlist in enumerate(netlists):
        name = netlist.name
        flow_seed = _sub_seed(seed, index)
        with record.op(name):
            with record.step(f"atpg {name}"):
                atpg = PodemAtpg(netlist).run(fill_seed=CANONICAL_TEST_SET_SEED)
            # Every fault is resolved, and none is both proven redundant and
            # detected.  (An aborted fault that a later random fill detects
            # is listed as aborted *and* detected, so the three lists need
            # not sum to total_faults.)
            detected = set(atpg.detected)
            resolved = detected | set(atpg.redundant) | set(atpg.aborted)
            check(
                len(resolved) == atpg.total_faults,
                f"{name}: ATPG resolved {len(resolved)} of {atpg.total_faults} faults",
            )
            check(
                not detected & set(atpg.redundant),
                f"{name}: ATPG reports detected faults as redundant",
            )
            cubes = atpg.test_set
            record.note(
                name,
                cubes.fingerprint(),
                len(atpg.detected),
                len(atpg.redundant),
                len(atpg.aborted),
            )
            record.add("circuits.atpg.faults", atpg.total_faults)
            record.add("circuits.atpg.cubes", len(cubes))
            record.add("circuits.atpg.redundant", len(atpg.redundant))
            record.add("circuits.atpg.aborted", len(atpg.aborted))
            config = CompressionConfig(
                window_length=spec.window,
                num_scan_chains=spec.num_scan_chains,
                lfsr_size=cubes.max_specified() + spec.lfsr_margin,
                fill_seed=flow_seed,
            )
            context = record.track(CompressionContext())
            encoded = _encode(record, name, cubes, config, context)
            record.add("tdv_bits", encoded.encoding.test_data_volume)
            reductions = [
                _grid_point(
                    record,
                    f"{name} S={S} k={k}",
                    encoded,
                    config.with_updates(segment_size=S, speedup=k),
                    op=name,
                )
                for S in spec.segment_sizes
                for k in spec.speedups
            ]
            best = _best(reductions)
            outcome = _replay(record, name, encoded, best)
            record.add("state_skip_tsl", best.test_sequence_length)
            with record.step(f"grade {name}"):
                simulator = FaultSimulator(netlist)
                graded = simulator.simulate_vectors(outcome.useful_vectors)
            record.note(name, graded.detected_faults())
            record.add("circuits.fault_sim.patterns", len(outcome.useful_vectors))
            record.add("circuits.fault_sim.detected", len(graded.detected))
            record.add("circuits.fault_sim.faults", atpg.total_faults)


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, str, PassRecord], object]
    run_pass: Callable[[object, PassRecord], None]


WORKLOADS: Dict[str, Workload] = {
    "paper-tables": Workload(prepare_paper_tables, pass_paper_tables),
    "sk-sweep": Workload(prepare_sk_sweep, pass_sk_sweep),
    "netlist-flow": Workload(prepare_netlist_flow, pass_netlist_flow),
}
