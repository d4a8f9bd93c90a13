"""Tests for window segmentation, useful-segment selection and TSL reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.substrate import EncoderSubstrate, SubstrateKey
from repro.encoding.window import WindowEncoder
from repro.skip.reduction import ReductionConfig, SequenceReducer
from repro.skip.segments import WindowSegmentation
from repro.skip.selection import build_embedding_map, select_useful_segments
from repro.testdata.literature import tsl_improvement
from repro.testdata.profiles import custom_profile
from repro.testdata.synthetic import generate_test_set


# ----------------------------------------------------------------------
# Shared fixture: a small encoded test set (module scoped, it is reused by
# many tests and encoding is the slow part).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def encoded():
    profile = custom_profile(
        "skip_unit",
        scan_cells=64,
        num_cubes=40,
        max_specified=10,
        mean_specified=4.0,
        scan_chains=8,
        lfsr_size=16,
    )
    test_set = generate_test_set(profile, seed=21)
    substrate = EncoderSubstrate(
        SubstrateKey(num_cells=64, num_scan_chains=8, lfsr_size=16, window_length=40)
    )
    result = WindowEncoder(substrate.equations).encode(test_set)
    return substrate, test_set, result


def reduce(encoded, segment_size, speedup, alignment="exact"):
    """The State Skip reduction of the shared encoding at one (S, k) point."""
    substrate, test_set, result = encoded
    config = ReductionConfig(
        segment_size=segment_size, speedup=speedup, alignment=alignment
    )
    return SequenceReducer(substrate.equations, config).reduce(result, test_set)


class TestWindowSegmentation:
    def test_basic_partition(self):
        seg = WindowSegmentation(window_length=50, segment_size=10)
        assert seg.num_segments == 5
        assert seg.segment_of(0) == 0
        assert seg.segment_of(49) == 4
        assert seg.bounds(2) == (20, 30)
        assert seg.length(2) == 10
        assert list(range(*seg.bounds(0))) == list(range(10))

    def test_ragged_last_segment(self):
        seg = WindowSegmentation(window_length=50, segment_size=12)
        assert seg.num_segments == 5
        assert seg.length(4) == 2
        assert seg.bounds(4) == (48, 50)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSegmentation(0, 1)
        with pytest.raises(ValueError):
            WindowSegmentation(10, 0)
        with pytest.raises(ValueError):
            WindowSegmentation(10, 11)
        seg = WindowSegmentation(10, 5)
        with pytest.raises(IndexError):
            seg.segment_of(10)
        with pytest.raises(IndexError):
            seg.bounds(2)


class TestEmbeddingAndSelection:
    def test_embedding_map_contains_deterministic_embeddings(self, encoded):
        substrate, test_set, result = encoded
        seg = WindowSegmentation(result.window_length, 5)
        embedding = build_embedding_map(result, test_set, substrate.equations, seg)
        for record in result.seeds:
            for emb in record.embeddings:
                segment = (record.index, seg.segment_of(emb.position))
                assert segment in embedding.segments_of(emb.cube_index)

    def test_selection_covers_every_cube(self, encoded):
        substrate, test_set, result = encoded
        seg = WindowSegmentation(result.window_length, 5)
        embedding = build_embedding_map(result, test_set, substrate.equations, seg)
        selection = select_useful_segments(
            embedding, num_cubes=len(test_set), num_seeds=result.num_seeds
        )
        assert set(selection.covering_segment) == set(range(len(test_set)))
        for cube, segment in selection.covering_segment.items():
            assert segment in selection.useful_segments
            assert embedding.matrix[cube, segment[0], segment[1]]

    def test_first_segments_useful_when_forced(self, encoded):
        substrate, test_set, result = encoded
        seg = WindowSegmentation(result.window_length, 5)
        embedding = build_embedding_map(result, test_set, substrate.equations, seg)
        selection = select_useful_segments(
            embedding, len(test_set), result.num_seeds,
            force_first_segment_useful=True,
        )
        for seed_index in range(result.num_seeds):
            assert (seed_index, 0) in selection.useful_segments

    def test_forced_first_segments_cover_in_seed_order(self, encoded):
        """A cube embedded in some first segment is covered by the first one,
        in seed order, whatever the iteration order of a set."""
        substrate, test_set, result = encoded
        seg = WindowSegmentation(result.window_length, 5)
        embedding = build_embedding_map(result, test_set, substrate.equations, seg)
        selection = select_useful_segments(
            embedding, len(test_set), result.num_seeds,
            force_first_segment_useful=True,
        )
        checked = 0
        for cube in range(len(test_set)):
            firsts = sorted(s for s, g in embedding.segments_of(cube) if g == 0)
            if firsts:
                assert selection.covering_segment[cube] == (firsts[0], 0)
                checked += 1
        assert checked > 0

    def test_unforced_selection_never_larger(self, encoded):
        substrate, test_set, result = encoded
        seg = WindowSegmentation(result.window_length, 5)
        embedding = build_embedding_map(result, test_set, substrate.equations, seg)
        forced = select_useful_segments(
            embedding, len(test_set), result.num_seeds,
            force_first_segment_useful=True,
        )
        free = select_useful_segments(
            embedding, len(test_set), result.num_seeds,
            force_first_segment_useful=False,
        )
        assert free.num_useful <= forced.num_useful


class TestReduction:
    def test_reduction_shrinks_tsl(self, encoded):
        substrate, test_set, result = encoded
        reduction = reduce(encoded, segment_size=5, speedup=8)
        assert reduction.test_sequence_length < result.test_sequence_length
        assert reduction.test_data_volume == result.test_data_volume
        assert reduction.original_tsl == result.test_sequence_length
        assert 0.0 < reduction.improvement_percent < 100.0
        assert reduction.improvement_percent == pytest.approx(
            tsl_improvement(reduction.test_sequence_length, result.test_sequence_length)
        )

    def test_higher_speedup_never_hurts(self, encoded):
        substrate, test_set, result = encoded
        slow = reduce(encoded, 5, speedup=3)
        fast = reduce(encoded, 5, speedup=20)
        assert fast.test_sequence_length <= slow.test_sequence_length

    def test_windows_truncate_after_last_useful_segment(self, encoded):
        substrate, test_set, result = encoded
        reduction = reduce(encoded, 5, 8)
        for schedule in reduction.schedules:
            if not schedule.useful_segments:
                assert schedule.segments == []
                continue
            last = schedule.segments[-1]
            assert last.useful
            assert last.segment_index == schedule.useful_segments[-1]
            # No segment beyond the last useful one is traversed.
            assert len(schedule.segments) == schedule.useful_segments[-1] + 1

    def test_useful_segments_cost_full_vectors(self, encoded):
        substrate, test_set, result = encoded
        reduction = reduce(encoded, 5, 8)
        seg = reduction.schedules[0].segments[0]
        assert seg.useful
        assert seg.vectors_applied == 5
        assert seg.skip_clocks == 0

    def test_useless_segments_cost_fewer_vectors(self, encoded):
        substrate, test_set, result = encoded
        reduction = reduce(encoded, 5, 8)
        useless = [
            plan
            for schedule in reduction.schedules
            for plan in schedule.segments
            if not plan.useful
        ]
        assert useless, "expected at least one useless segment in the windows"
        for plan in useless:
            assert plan.vectors_applied < 5
            assert plan.skip_clocks > 0

    def test_ideal_vs_exact_alignment(self, encoded):
        substrate, test_set, result = encoded
        exact = reduce(encoded, 5, 7, alignment="exact")
        ideal = reduce(encoded, 5, 7, alignment="ideal")
        # The ideal model can only be as good or better, and by at most one
        # vector per useless segment.
        assert ideal.test_sequence_length <= exact.test_sequence_length
        num_useless = sum(
            sum(1 for plan in schedule.segments if not plan.useful)
            for schedule in exact.schedules
        )
        assert (
            exact.test_sequence_length - ideal.test_sequence_length <= num_useless
        )

    def test_seed_groups_cover_all_seeds(self, encoded):
        substrate, test_set, result = encoded
        reduction = reduce(encoded, 5, 8)
        groups = reduction.seed_groups()
        all_seeds = sorted(s for seeds in groups.values() for s in seeds)
        assert all_seeds == list(range(result.num_seeds))
        assert list(groups) == sorted(groups)

    def test_summary_fields(self, encoded):
        substrate, test_set, result = encoded
        reduction = reduce(encoded, 5, 8)
        summary = reduction.to_dict()
        assert summary["original_tsl"] == result.test_sequence_length
        assert summary["test_data_volume"] == result.test_data_volume
        assert summary["config"]["speedup"] == 8
        assert sum(
            plan[3] for entry in summary["schedules"] for plan in entry["segments"]
        ) == reduction.test_sequence_length

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReductionConfig(segment_size=0, speedup=4)
        with pytest.raises(ValueError):
            ReductionConfig(segment_size=4, speedup=0)
        with pytest.raises(ValueError):
            ReductionConfig(segment_size=4, speedup=4, alignment="sloppy")

    def test_segment_size_cannot_exceed_window(self, encoded):
        substrate, *_ = encoded
        with pytest.raises(ValueError):
            SequenceReducer(
                substrate.equations, ReductionConfig(segment_size=999, speedup=4)
            )


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=20),
)
def test_segmentation_partition_property(window, seg_size):
    if seg_size > window:
        seg_size = window
    seg = WindowSegmentation(window, seg_size)
    # Segments partition the window exactly.
    covered = []
    for s in range(seg.num_segments):
        covered.extend(range(*seg.bounds(s)))
    assert covered == list(range(window))
    for position in range(window):
        start, end = seg.bounds(seg.segment_of(position))
        assert start <= position < end
