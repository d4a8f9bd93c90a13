"""Tests of the staged pipeline and the shared CompressionContext.

The contract pinned here is the one that made the staged refactor safe:
:func:`repro.pipeline.compress` produces **bit-identical** reports whether
the context cache is warm, cold or disabled, and the individual stages
(`encode` / `reduce` / `hardware` / `simulate`) compose to exactly the
monolithic result.  On top of that, the campaign runner's substrate
sharing (one encode per (source, lfsr, L) group) and the honest
``elapsed_s`` carry-through on warm stores are exercised end to end.
"""

import pytest

from repro import pipeline
from repro.campaign.runner import (
    CampaignRunner,
    _execute_group_payload,
    _split_for_parallelism,
)
from repro.campaign.spec import CampaignSpec, TestSource
from repro.campaign.store import ResultStore
from repro.config import CompressionConfig
from repro.context import CompressionContext, ContextStats
from repro.pipeline import compress
from repro.testdata.profiles import custom_profile
from repro.testdata.synthetic import generate_test_set


@pytest.fixture(scope="module")
def test_set():
    profile = custom_profile(
        "ctx_unit",
        scan_cells=72,
        num_cubes=36,
        max_specified=9,
        mean_specified=4.0,
        scan_chains=8,
        lfsr_size=16,
    )
    return generate_test_set(profile, seed=5)


def _config(window=20, segment=4, speedup=6):
    return CompressionConfig(
        window_length=window,
        segment_size=segment,
        speedup=speedup,
        num_scan_chains=8,
        lfsr_size=16,
    )


#: A small circuit x (L, S, k) grid (the acceptance-criteria golden grid).
GRID = [
    (16, 4, 3),
    (16, 4, 8),
    (16, 8, 8),
    (24, 4, 6),
    (24, 6, 12),
]


# ----------------------------------------------------------------------
# Golden equivalence: cache on vs cache off vs no context
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    def test_grid_reports_bit_identical_with_and_without_cache(self, test_set):
        warm = CompressionContext()
        for window, segment, speedup in GRID:
            config = _config(window, segment, speedup)
            cached = compress(test_set, config, verify=True, context=warm)
            uncached = compress(
                test_set, config, verify=True,
                context=CompressionContext(caching=False),
            )
            plain = compress(test_set, config, verify=True)
            assert cached.to_dict() == uncached.to_dict()
            assert cached.to_dict() == plain.to_dict()
        # The warm context really did share: one encoding per distinct L.
        counters = warm.stats.counters
        num_windows = len({window for window, _, _ in GRID})
        assert counters["encoding_misses"] == num_windows
        assert counters["encoding_hits"] == len(GRID) - num_windows
        assert counters["substrate_misses"] == num_windows

    def test_simulation_identical_with_warm_context(self, test_set):
        config = _config()
        warm = CompressionContext()
        first = compress(test_set, config, verify=True, simulate=True, context=warm)
        second = compress(test_set, config, verify=True, simulate=True, context=warm)
        cold = compress(test_set, config, verify=True, simulate=True)
        assert first.to_dict() == cold.to_dict()
        assert second.to_dict() == cold.to_dict()
        assert second.simulation.covers(test_set)


# ----------------------------------------------------------------------
# Staged API
# ----------------------------------------------------------------------
class TestStagedPipeline:
    def test_stages_compose_to_the_monolith(self, test_set):
        config = _config()
        context = CompressionContext()
        encoded = pipeline.encode(test_set, config, context=context, verify=True)
        reduction = pipeline.reduce(encoded)
        hardware = pipeline.hardware(encoded, reduction)
        simulation = pipeline.simulate(encoded, reduction)
        monolith = compress(test_set, config, verify=True, simulate=True)
        assert encoded.encoding.to_dict() == monolith.encoding.to_dict()
        assert reduction.to_dict() == monolith.reduction.to_dict()
        assert hardware.to_dict() == monolith.hardware.to_dict()
        assert simulation.vectors_applied == monolith.simulation.vectors_applied
        assert simulation.group_sizes == monolith.simulation.group_sizes

    def test_encode_once_sweep_many(self, test_set):
        """One encode serves every (S, k) reduction bit-identically."""
        context = CompressionContext()
        base = _config()
        encoded = pipeline.encode(test_set, base, context=context)
        assert context.stats.counters["encoding_misses"] == 1
        for segment, speedup in ((4, 3), (4, 12), (10, 6)):
            swept = base.with_updates(segment_size=segment, speedup=speedup)
            reduction = pipeline.reduce(encoded, swept)
            reference = compress(test_set, swept, verify=True)
            assert reduction.to_dict() == reference.reduction.to_dict()
        # the sweep never re-encoded and never re-expanded the windows:
        # verification built the cover and all three reductions hit it
        assert context.stats.counters["encoding_misses"] == 1
        assert context.stats.counters["cover_misses"] == 1
        assert context.stats.counters["cover_hits"] == 3

    def test_stage_timings_are_recorded(self, test_set):
        context = CompressionContext()
        compress(test_set, _config(), verify=True, context=context)
        snapshot = context.stats.snapshot()
        for stage in ("encode", "reduce", "hardware"):
            assert snapshot[f"{stage}_s"] >= 0.0
        assert "encoding_misses" in snapshot

    def test_verification_runs_once_per_cached_encoding(self, test_set):
        context = CompressionContext()
        config = _config()
        first = pipeline.encode(test_set, config, context=context, verify=True)
        assert first.verified
        again = pipeline.encode(test_set, config, context=context, verify=True)
        assert again.verified
        # the cover (and the window expansion under it) was built once,
        # by the first verification
        assert context.stats.counters["cover_misses"] == 1

    def test_stats_delta(self):
        before = {"encoding_hits": 1, "encode_s": 0.5}
        after = {"encoding_hits": 3, "encode_s": 0.75, "window_hits": 2}
        delta = ContextStats.delta(before, after)
        assert delta == {"encoding_hits": 2, "encode_s": 0.25, "window_hits": 2}


# ----------------------------------------------------------------------
# Context caches and the substrate
# ----------------------------------------------------------------------
class TestContextCaches:
    def test_disabled_caching_recomputes(self, test_set):
        context = CompressionContext(caching=False)
        config = _config()
        first = pipeline.encode(test_set, config, context=context)
        second = pipeline.encode(test_set, config, context=context)
        assert first.encoding is not second.encoding
        assert first.encoding.to_dict() == second.encoding.to_dict()
        seeds = [record.seed for record in first.encoding.seeds]
        cover = context.cover(first.substrate, seeds, test_set)
        assert context.cover(first.substrate, seeds, test_set) is not cover
        counters = context.stats.counters
        assert counters["encoding_misses"] == 2
        assert counters["substrate_misses"] == 2
        # one cover per verification plus the two direct queries
        assert counters["cover_misses"] == 4
        assert "encoding_hits" not in counters and "cover_hits" not in counters

    def test_encode_cache_key_ignores_reduction_knobs(self):
        base = _config()
        assert (
            base.with_updates(speedup=24, segment_size=8).encode_cache_key()
            == base.encode_cache_key()
        )
        assert (
            base.with_updates(alignment="ideal").encode_cache_key()
            == base.encode_cache_key()
        )
        assert (
            base.with_updates(window_length=30).encode_cache_key()
            != base.encode_cache_key()
        )
        assert (
            base.with_updates(fill_seed=7).encode_cache_key()
            != base.encode_cache_key()
        )
        # the full cache key still separates reduction points
        assert base.with_updates(speedup=24).cache_key() != base.cache_key()


# ----------------------------------------------------------------------
# Campaign substrate sharing and warm-store timing honesty
# ----------------------------------------------------------------------
def _grid_spec(cube_file):
    return CampaignSpec(
        name="ctx-grid",
        sources=(TestSource(tests=str(cube_file)),),
        base=CompressionConfig(window_length=20, num_scan_chains=8, lfsr_size=16),
        axes={"segment_size": [4, 10], "speedup": [3, 6]},
    )


@pytest.fixture()
def cube_file(tmp_path, test_set):
    path = tmp_path / "ctx_unit.tests"
    path.write_text(test_set.to_text())
    return path


class TestCampaignSubstrateSharing:
    def test_grid_neighbours_share_one_encoding(self, tmp_path, cube_file):
        store = ResultStore(tmp_path / "store")
        result = CampaignRunner(_grid_spec(cube_file), store, jobs=1).run()
        assert result.num_computed == 4
        cache = result.cache_stat_totals()
        # 4 (S, k) jobs, one encode group: 1 encoding miss, 3 hits
        assert cache["encoding_misses"] == 1
        assert cache["encoding_hits"] == 3
        assert cache["substrate_misses"] == 1
        # ... and one cover, built by the encode's verification and read
        # by all four reductions
        assert cache["cover_misses"] == 1
        assert cache["cover_hits"] == 4
        # every computed outcome carries its per-stage timings
        for outcome in result.outcomes:
            assert outcome.stage_timings is not None
            assert "reduce" in outcome.stage_timings
        # only the group's first job paid for the encode stage
        encoders = [
            outcome for outcome in result.outcomes
            if outcome.cache_stats and outcome.cache_stats.get("encoding_misses")
        ]
        assert len(encoders) == 1

    def test_grouped_results_match_ungrouped_runs(self, tmp_path, cube_file, test_set):
        """Substrate sharing must not change any job's figures of merit."""
        store = ResultStore(tmp_path / "store")
        result = CampaignRunner(_grid_spec(cube_file), store, jobs=1).run()
        for outcome in result.outcomes:
            config = CompressionConfig.from_dict(
                dict(outcome.job.config.to_dict(), lfsr_size=16)
            )
            reference = compress(test_set, config, verify=True)
            expected = dict(reference.summary())
            got = dict(outcome.summary)
            # the cube-file round trip renames the circuit; ignore it
            expected.pop("circuit"), got.pop("circuit")
            assert got == expected

    def test_resume_carries_elapsed_and_timings(self, tmp_path, cube_file):
        store = ResultStore(tmp_path / "store")
        spec = _grid_spec(cube_file)
        first = CampaignRunner(spec, store, jobs=1).run()
        by_key = {outcome.key: outcome for outcome in first.outcomes}

        resumed = CampaignRunner(spec, store, jobs=1).run()
        assert resumed.num_cached == resumed.num_jobs
        for outcome in resumed.outcomes:
            original = by_key[outcome.key]
            # the honest elapsed_s fix: cached outcomes report the stored
            # record's original compute time, not 0.0
            assert outcome.elapsed_s == original.elapsed_s
            assert outcome.elapsed_s > 0.0
            assert outcome.stage_timings == original.stage_timings
            assert outcome.cache_stats == original.cache_stats
        assert resumed.total_elapsed_s == pytest.approx(first.total_elapsed_s)

    def test_multiprocess_grouping_matches_inline(self, tmp_path, cube_file):
        inline_store = ResultStore(tmp_path / "inline")
        pooled_store = ResultStore(tmp_path / "pooled")
        spec = _grid_spec(cube_file)
        inline = CampaignRunner(spec, inline_store, jobs=1).run()
        pooled = CampaignRunner(spec, pooled_store, jobs=2).run()
        assert pooled.num_computed == inline.num_computed == 4
        assert pooled.rows() == inline.rows()

    def test_split_for_parallelism_fills_idle_workers(self):
        group = {"circuit": "c", "jobs": [{"index": i} for i in range(4)]}
        two = _split_for_parallelism([dict(group)], 2)
        assert [[j["index"] for j in chunk["jobs"]] for chunk in two] == [
            [0, 1], [2, 3],
        ]
        many = _split_for_parallelism([dict(group)], 8)
        assert len(many) == 4  # cannot split below one job per chunk
        assert [j["index"] for chunk in many for j in chunk["jobs"]] == [
            0, 1, 2, 3,
        ]
        # enough groups already: untouched
        untouched = _split_for_parallelism([dict(group), dict(group)], 2)
        assert len(untouched) == 2

    def test_group_budget_keeps_completed_results(self, test_set):
        """A spent group budget skips the remaining jobs instead of
        discarding the finished ones (the pre-grouping per-job guarantee)."""
        base = _config()
        payload = {
            "circuit": test_set.name,
            "test_text": test_set.to_text(),
            "fingerprint": test_set.fingerprint(),
            "verify": True,
            "timeout": 0.001,  # budget spent after the first real job
            "jobs": [
                {
                    "index": i,
                    "job_id": f"j{i}",
                    "config": base.with_updates(speedup=k).to_dict(),
                }
                for i, k in enumerate((3, 6, 12))
            ],
        }
        results = _execute_group_payload(payload)
        statuses = [result["status"] for result in results]
        assert statuses[0] == "ok"  # completed work is returned...
        assert set(statuses[1:]) == {"timeout"}  # ...the rest is retried
        assert "not started" in results[1]["error"]

    def test_distinct_windows_form_distinct_groups(self, tmp_path, cube_file):
        spec = CampaignSpec(
            name="two-groups",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(
                window_length=20, num_scan_chains=8, lfsr_size=16
            ),
            axes={"window_length": [16, 20], "speedup": [3, 6]},
        )
        store = ResultStore(tmp_path / "store")
        result = CampaignRunner(spec, store, jobs=1).run()
        assert result.num_computed == 4
        cache = result.cache_stat_totals()
        assert cache["encoding_misses"] == 2  # one encode per window length
        assert cache["encoding_hits"] == 2
