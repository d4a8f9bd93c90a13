"""Tests for the decompression architecture: counter sizing, Mode Select,
the decompressor replay and the gate-equivalent cost model."""

from dataclasses import replace

import pytest

from repro import pipeline
from repro.config import CompressionConfig
from repro.context import CompressionContext
from repro.decompressor import architecture
from repro.decompressor.architecture import (
    DecompressionController,
    Decompressor,
    ReplayTables,
    simulate_decompression,
)
from repro.decompressor.counters import counter_width
from repro.decompressor.hardware import (
    GateCostModel,
    counters_cost,
    decompressor_cost,
    lfsr_cost,
    soc_decompressor_cost,
    state_skip_cost,
)
from repro.decompressor.mode_select import ModeSelectUnit
from repro.encoding.substrate import EncoderSubstrate, SubstrateKey
from repro.encoding.window import WindowEncoder
from repro.lfsr import state_skip
from repro.lfsr.state_skip import StateSkipCircuit
from repro.lfsr.transition import transition_power
from repro.skip.reduction import ReductionConfig, SequenceReducer
from repro.testdata.profiles import custom_profile
from repro.testdata.synthetic import generate_test_set


@pytest.fixture(scope="module")
def flow():
    """A complete small flow: test set -> encoding -> reduction."""
    profile = custom_profile(
        "decomp_unit",
        scan_cells=60,
        num_cubes=35,
        max_specified=9,
        mean_specified=4.0,
        scan_chains=6,
        lfsr_size=14,
    )
    test_set = generate_test_set(profile, seed=5)
    substrate = EncoderSubstrate(
        SubstrateKey(num_cells=60, num_scan_chains=6, lfsr_size=14, window_length=30)
    )
    encoding = WindowEncoder(substrate.equations).encode(test_set)
    reduction = SequenceReducer(
        substrate.equations, ReductionConfig(segment_size=5, speedup=6)
    ).reduce(encoding, test_set)
    return substrate, test_set, encoding, reduction


def _tables(substrate):
    """Replay tables built from a substrate's matrices."""
    return ReplayTables(
        substrate.lfsr.transition, substrate.phase_shifter, substrate.architecture
    )


class TestCounters:
    def test_counter_width(self):
        assert counter_width(0) == 1
        assert counter_width(1) == 1
        assert counter_width(7) == 3
        assert counter_width(8) == 4
        with pytest.raises(ValueError):
            counter_width(-1)

    def test_counter_bank_dimensions(self):
        # The six Fig. 3 counters for r = 22, S = 10, 20 segments per
        # window, up to 3 useful segments per seed and 40 seeds per group:
        # Bit 5, Vector 4, Segment 5, Useful 2, Seed 6 and Group 2 bits,
        # each costing dff + counter logic (6 + 2.5 GE) per bit.
        model = GateCostModel()
        cost = counters_cost(
            chain_length=22,
            segment_size=10,
            segments_per_window=20,
            max_useful_segments=3,
            max_group_size=40,
            model=model,
        )
        assert cost == (5 + 4 + 5 + 2 + 6 + 2) * 8.5 == 204.0


class TestModeSelect:
    def test_mode_lookup(self):
        unit = ModeSelectUnit([[0, 3], [0], [0, 1, 5]], segments_per_window=8)
        assert unit.mode(0, 0) == 1
        assert unit.mode(0, 3) == 1
        assert unit.mode(0, 2) == 0
        assert unit.mode(1, 1) == 0
        assert unit.mode(2, 5) == 1

    def test_groups(self):
        unit = ModeSelectUnit([[0, 3], [0], [0, 1, 5]], segments_per_window=8)
        groups = unit.groups()
        assert groups == {1: [1], 2: [0], 3: [2]}

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSelectUnit([[0]], segments_per_window=0)
        with pytest.raises(ValueError):
            ModeSelectUnit([[9]], segments_per_window=4)
        unit = ModeSelectUnit([[0]], segments_per_window=4)
        with pytest.raises(IndexError):
            unit.mode(1, 0)
        with pytest.raises(IndexError):
            unit.mode(0, 9)

    def test_cost_tracks_extra_useful_segments(self):
        cheap = ModeSelectUnit([[0]] * 10, segments_per_window=20)
        costly = ModeSelectUnit([[0, 5, 9]] * 10, segments_per_window=20)
        assert cheap.cost().product_terms == 0
        assert costly.cost().product_terms == 20
        assert costly.cost().gate_equivalents > cheap.cost().gate_equivalents


class TestSimulation:
    def test_simulation_matches_reduction_accounting(self, flow):
        substrate, test_set, encoding, reduction = flow
        outcome = simulate_decompression(encoding, reduction, _tables(substrate))
        assert outcome.seeds_applied == encoding.num_seeds
        assert outcome.vectors_applied == reduction.test_sequence_length
        assert outcome.skip_clocks > 0

    def test_simulation_covers_every_cube(self, flow):
        """End-to-end correctness: the hardware really applies every cube."""
        substrate, test_set, encoding, reduction = flow
        outcome = simulate_decompression(encoding, reduction, _tables(substrate))
        assert outcome.uncovered_cubes(test_set) == []
        assert outcome.covers(test_set)

    def test_simulation_agrees_with_equation_expansion(self, flow):
        """The shift-register datapath and the algebraic expansion agree."""
        substrate, test_set, encoding, reduction = flow
        decompressor = Decompressor(
            substrate.lfsr.transition,
            substrate.phase_shifter,
            substrate.architecture,
            reduction.config.speedup,
        )
        seed = encoding.seeds[0].seed
        decompressor.load_seed(seed)
        chain_length = substrate.architecture.chain_length
        (window,) = substrate.equations.expand_seeds([seed])
        for _ in range(chain_length):
            decompressor.shift_clock()
        assert decompressor.captured_vector() == window[0]
        for _ in range(chain_length):
            decompressor.shift_clock()
        assert decompressor.captured_vector() == window[1]

    def test_simulation_requires_exact_alignment(self, flow):
        substrate, test_set, encoding, _ = flow
        ideal = SequenceReducer(
            substrate.equations, ReductionConfig(5, 6, alignment="ideal")
        ).reduce(encoding, test_set)
        with pytest.raises(ValueError):
            simulate_decompression(encoding, ideal, _tables(substrate))

    def test_speedup_mismatch_rejected(self, flow):
        substrate, test_set, encoding, reduction = flow
        decompressor = Decompressor(
            substrate.lfsr.transition,
            substrate.phase_shifter,
            substrate.architecture,
            speedup=reduction.config.speedup + 1,
        )
        with pytest.raises(ValueError):
            DecompressionController(decompressor).run(encoding, reduction)

    def test_seed_width_must_match_lfsr(self, flow):
        substrate, test_set, encoding, reduction = flow
        first = encoding.seeds[0]
        narrow_seed = replace(first, seed=first.seed.slice(0, 13))
        narrow = replace(encoding, seeds=[narrow_seed] + encoding.seeds[1:])
        decompressor = Decompressor(
            substrate.lfsr.transition,
            substrate.phase_shifter,
            substrate.architecture,
            reduction.config.speedup,
        )
        message = "seed length 13 does not match LFSR size 14"
        with pytest.raises(ValueError, match=message):
            DecompressionController(decompressor).run(narrow, reduction)
        with pytest.raises(ValueError, match=message):
            simulate_decompression(narrow, reduction, _tables(substrate))

    def test_useless_segments_run_through_the_skip_circuit(self, flow, monkeypatch):
        """A faulty State Skip circuit (A^(k+1)) changes both replays alike.

        A replay that jumped useless segments with powers of A instead of
        the circuit's own matrix would still deliver every cube here.
        """
        substrate, test_set, encoding, reduction = flow
        # One set of tables for both replays: K is not among them.
        tables = _tables(substrate)

        def replay_both():
            decompressor = Decompressor(
                substrate.lfsr.transition,
                substrate.phase_shifter,
                substrate.architecture,
                reduction.config.speedup,
            )
            return (
                simulate_decompression(encoding, reduction, tables),
                DecompressionController(decompressor).run(encoding, reduction),
            )

        true_segment, true_clock = replay_both()
        monkeypatch.setattr(
            state_skip,
            "state_skip_expressions",
            lambda transition, k: transition_power(transition, k + 1),
        )
        faulty_segment, faulty_clock = replay_both()
        assert faulty_segment == faulty_clock
        assert true_segment == true_clock
        assert faulty_segment.useful_vectors != true_segment.useful_vectors
        assert not faulty_segment.covers(test_set)
        assert true_segment.covers(test_set)


#: Four (S, k) points replayed over one encoding of the ``flow`` test set.
_POINTS = [(5, 6), (3, 3), (10, 8), (6, 12)]


class TestReplayTables:
    @pytest.fixture()
    def sweep(self, flow, monkeypatch):
        """Replay ``_POINTS`` over one context-cached encoding, counting
        the capture-table builds: ``([(encoded, reduction, outcome)], builds)``."""
        _, test_set, _, _ = flow
        builds = []
        capture_tables = architecture._capture_tables

        def counted(*args):
            builds.append(args)
            return capture_tables(*args)

        monkeypatch.setattr(architecture, "_capture_tables", counted)
        config = CompressionConfig(window_length=30, num_scan_chains=6, lfsr_size=14)
        context = CompressionContext()
        replays = []
        for segment_size, speedup in _POINTS:
            point = config.with_updates(segment_size=segment_size, speedup=speedup)
            encoded = pipeline.encode(test_set, point, context=context)
            reduction = pipeline.reduce(encoded)
            replays.append((encoded, reduction, pipeline.simulate(encoded, reduction)))
        return replays, builds

    def test_replays_of_one_encoding_build_the_tables_once(self, sweep):
        replays, builds = sweep
        assert len({id(encoded.substrate) for encoded, _, _ in replays}) == 1
        assert len(builds) == 1

    def test_replays_equal_per_clock_and_uncached_replays(self, sweep):
        """Tables kept across points change no outcome: each point equals
        the per-clock replay and a replay on a fresh, uncached substrate
        (which builds its own tables)."""
        replays, builds = sweep
        for encoded, reduction, outcome in replays:
            substrate = encoded.substrate
            decompressor = Decompressor(
                substrate.lfsr.transition,
                substrate.phase_shifter,
                substrate.architecture,
                reduction.config.speedup,
            )
            per_clock = DecompressionController(decompressor).run(
                encoded.encoding, reduction
            )
            uncached = pipeline.encode(
                encoded.test_set, encoded.config, context=CompressionContext(caching=False)
            )
            assert uncached.substrate is not substrate
            fresh = pipeline.simulate(uncached, pipeline.reduce(uncached))
            assert outcome == per_clock
            assert outcome == fresh
        assert len(builds) == 1 + len(replays)

    def test_outcomes_differing_in_one_captured_bit_are_unequal(self, flow):
        substrate, test_set, encoding, reduction = flow
        outcome = simulate_decompression(encoding, reduction, _tables(substrate))
        same = replace(outcome, vector_words=outcome.vector_words.copy())
        flipped = replace(outcome, vector_words=outcome.vector_words.copy())
        flipped.vector_words[-1, -1] ^= 1
        assert outcome == same
        assert outcome != flipped
        assert flipped.useful_vectors != outcome.useful_vectors


class TestHardwareModel:
    def test_lfsr_cost_components(self):
        model = GateCostModel()
        substrate = EncoderSubstrate(SubstrateKey(60, 6, 14, window_length=4))
        cost = lfsr_cost(substrate.lfsr.transition, model)
        assert cost >= 14 * model.dff

    def test_state_skip_cost_grows_with_k(self):
        model = GateCostModel()
        substrate = EncoderSubstrate(SubstrateKey(60, 6, 24, window_length=4))
        small = state_skip_cost(StateSkipCircuit(substrate.lfsr.transition, 2), model)
        large = state_skip_cost(StateSkipCircuit(substrate.lfsr.transition, 16), model)
        assert large > small

    def test_full_breakdown(self, flow):
        substrate, test_set, encoding, reduction = flow
        report = decompressor_cost(
            transition=substrate.lfsr.transition,
            speedup=reduction.config.speedup,
            phase_shifter=substrate.phase_shifter,
            chain_length=substrate.architecture.chain_length,
            segment_size=reduction.config.segment_size,
            segments_per_window=reduction.num_segments_per_window,
            useful_segments_per_seed=[
                s.useful_segments for s in reduction.schedules
            ],
        )
        breakdown = report.breakdown()
        assert breakdown["total"] == pytest.approx(report.total)
        assert report.total == pytest.approx(report.shared + report.mode_select)
        assert all(value >= 0 for value in breakdown.values())
        assert report.lfsr > 0 and report.state_skip > 0

    def test_soc_sharing(self, flow):
        substrate, test_set, encoding, reduction = flow
        report = decompressor_cost(
            transition=substrate.lfsr.transition,
            speedup=reduction.config.speedup,
            phase_shifter=substrate.phase_shifter,
            chain_length=substrate.architecture.chain_length,
            segment_size=reduction.config.segment_size,
            segments_per_window=reduction.num_segments_per_window,
            useful_segments_per_seed=[
                s.useful_segments for s in reduction.schedules
            ],
        )
        soc = soc_decompressor_cost({"core_a": report, "core_b": report})
        # Sharing: total is much less than two full decompressors.
        assert soc.total < 2 * report.total
        assert soc.total == pytest.approx(report.shared + 2 * report.mode_select)
        lo, hi = soc.mode_select_range()
        assert lo == hi == pytest.approx(report.mode_select)
        with pytest.raises(ValueError):
            soc_decompressor_cost({})
