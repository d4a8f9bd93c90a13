"""Integration tests of the top-level pipeline, config and reporting."""

import json

import pytest

import repro
from repro.config import CompressionConfig
from repro.encoding.window import EncodingError
from repro.pipeline import compress, compress_profile
from repro.reporting import (
    comparison_row,
    format_table,
    improvement_table,
    pivot_rows,
)
from repro.testdata.cube import TestCube
from repro.testdata.profiles import custom_profile, get_profile
from repro.testdata.synthetic import generate_test_set
from repro.testdata.test_set import TestSet


@pytest.fixture(scope="module")
def small_profile():
    return custom_profile(
        "pipeline_unit",
        scan_cells=80,
        num_cubes=45,
        max_specified=10,
        mean_specified=4.5,
        scan_chains=8,
        lfsr_size=16,
    )


class TestConfig:
    def test_defaults_valid(self):
        config = CompressionConfig()
        assert config.window_length == 200
        assert config.segment_size == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionConfig(window_length=0)
        with pytest.raises(ValueError):
            CompressionConfig(segment_size=0)
        with pytest.raises(ValueError):
            CompressionConfig(segment_size=300, window_length=200)
        with pytest.raises(ValueError):
            CompressionConfig(speedup=0)
        with pytest.raises(ValueError):
            CompressionConfig(alignment="fuzzy")
        with pytest.raises(ValueError):
            CompressionConfig(max_phase_retries=-1)
        with pytest.raises(ValueError):
            CompressionConfig(num_scan_chains=0)
        with pytest.raises(ValueError):
            CompressionConfig(phase_taps=0)
        with pytest.raises(ValueError):
            CompressionConfig(lfsr_size=1)

    def test_dict_round_trip_and_cache_key(self):
        config = CompressionConfig(window_length=60, segment_size=6, speedup=8)
        clone = CompressionConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.cache_key() == config.cache_key()
        # unknown keys (from a newer version's store) are tolerated
        extended = dict(config.to_dict(), future_knob=42)
        assert CompressionConfig.from_dict(extended) == config
        # any knob change moves the key
        assert config.with_updates(speedup=9).cache_key() != config.cache_key()

    def test_default_content_keys_are_pinned(self):
        # Every campaign result store is keyed by these hashes: changing
        # either value invalidates every stored campaign result.
        config = CompressionConfig()
        assert config.cache_key() == "7bea0c3885e3bf68"
        assert config.encode_cache_key() == "53a990c776e3727e"

    def test_presets_and_updates(self):
        soc = CompressionConfig.paper_soc()
        assert (soc.window_length, soc.segment_size, soc.speedup) == (200, 10, 10)
        updated = soc.with_updates(speedup=24)
        assert updated.speedup == 24
        assert soc.speedup == 10  # frozen: updates return a copy
        with pytest.raises(ValueError):
            soc.with_updates(window_length=8)  # S = 10 no longer fits


class TestPipeline:
    def test_full_flow_with_simulation(self, small_profile):
        test_set = generate_test_set(small_profile, seed=3)
        config = CompressionConfig(
            window_length=24,
            segment_size=4,
            speedup=6,
            num_scan_chains=8,
            lfsr_size=16,
        )
        report = compress(test_set, config, verify=True, simulate=True)
        assert report.encoding_verified
        assert report.simulation is not None
        assert report.simulation.covers(test_set)
        assert report.state_skip_tsl < report.window_tsl
        assert report.test_data_volume == report.num_seeds * 16
        assert 0 < report.improvement_percent < 100
        assert report.hardware_total_ge > 0
        summary = report.summary()
        assert summary["circuit"] == "pipeline_unit"
        assert summary["state_skip_tsl"] == report.state_skip_tsl
        assert summary["simulated"] is True

    def test_compress_profile_uses_profile_lfsr(self, small_profile):
        report = compress_profile(
            small_profile,
            CompressionConfig(
                window_length=16, segment_size=4, speedup=4, num_scan_chains=8
            ),
            seed=5,
        )
        assert report.encoding.lfsr_size == small_profile.lfsr_size

    def test_compress_profile_scaled_iscas(self):
        profile = get_profile("s13207")
        config = CompressionConfig(
            window_length=30, segment_size=5, speedup=8, num_scan_chains=32
        )
        report = compress_profile(profile, config, scale=0.05, seed=2)
        assert report.encoding.lfsr_size == profile.lfsr_size
        assert len(report.encoding.cube_assignment()) == report.encoding.num_cubes
        assert report.state_skip_tsl <= report.window_tsl

    def test_lazy_top_level_exports(self):
        assert repro.compress is compress
        assert repro.CompressionConfig is CompressionConfig
        assert repro.CompressionReport is not None
        with pytest.raises(AttributeError):
            _ = repro.does_not_exist

    def test_report_json_round_trip(self, small_profile):
        test_set = generate_test_set(small_profile, seed=3)
        config = CompressionConfig(
            window_length=24, segment_size=4, speedup=6,
            num_scan_chains=8, lfsr_size=16,
        )
        report = compress(test_set, config, verify=True, simulate=True)
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data  # JSON-safe, loss-free
        assert data["summary"] == report.summary()
        assert data["config"] == report.config.to_dict()
        assert data["hardware"] == report.hardware.to_dict()
        assert [entry["seed"] for entry in data["encoding"]["seeds"]] == [
            record.seed.to_string() for record in report.encoding.seeds
        ]
        assert data["reduction"]["original_tsl"] == report.window_tsl
        assert data["simulation"]["vectors_applied"] == (
            report.simulation.vectors_applied
        )
        assert data["simulation"]["group_sizes"] == {
            str(count): size
            for count, size in report.simulation.group_sizes.items()
        }

    def test_test_set_fingerprint_tracks_content(self, small_profile):
        first = generate_test_set(small_profile, seed=3)
        again = generate_test_set(small_profile, seed=3)
        other_seed = generate_test_set(small_profile, seed=4)
        assert first.fingerprint() == again.fingerprint()
        assert first.fingerprint() != other_seed.fingerprint()
        renamed = TestSet("other_name", first.cubes)
        assert renamed.fingerprint() != first.fingerprint()

    def test_encode_retry_exhaustion_is_descriptive(self, monkeypatch):
        from repro.context import CompressionContext
        from repro.encoding.encoder import encode_with_retries
        from repro.encoding.substrate import EncoderSubstrate
        from repro.encoding.window import WindowEncoder

        phase_seeds = []

        def always_conflicts(self, test_set):
            raise EncodingError("synthetic hard conflict")

        real_substrate = CompressionContext.substrate

        def recorded_substrate(self, key):
            phase_seeds.append(key.phase_seed)
            return real_substrate(self, key)

        def fresh_substrate(key):
            phase_seeds.append(key.phase_seed)
            return EncoderSubstrate(key)

        monkeypatch.setattr(WindowEncoder, "encode", always_conflicts)
        monkeypatch.setattr(CompressionContext, "substrate", recorded_substrate)
        test_set = TestSet("retry_unit", [TestCube.from_string("11XX")])
        config = CompressionConfig(
            window_length=4, segment_size=2, speedup=2,
            num_scan_chains=2, lfsr_size=8, max_phase_retries=2,
        )
        # The pipeline and a direct call share one retry loop.
        entry_points = [
            lambda: compress(test_set, config),
            lambda: encode_with_retries(
                test_set, fresh_substrate, num_scan_chains=2, lfsr_size=8,
                window_length=4, max_phase_retries=2,
            ),
        ]
        for run in entry_points:
            phase_seeds.clear()
            with pytest.raises(EncodingError) as excinfo:
                run()
            # max_phase_retries + 1 attempts, each on the next phase seed
            assert phase_seeds == [2008, 2009, 2010]
            message = str(excinfo.value)
            assert "all 3 phase-shifter attempts failed" in message
            assert "retry_unit" in message
            assert "synthetic hard conflict" in message
            assert isinstance(excinfo.value.__cause__, EncodingError)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"circuit": "s13207", "tdv": 3816, "tsl": 1756.0},
            {"circuit": "s9234", "tdv": None, "tsl": 2163},
        ]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "circuit" in lines[1]
        assert lines[4].split()[1] == "-"  # None rendered as '-'
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([], title="empty") == "empty\n"
        assert format_table([]) == ""

    def test_comparison_row(self):
        row = comparison_row(
            "s9234", {"tdv": 7000, "tsl": 2100}, {"tdv": 6864, "tsl": 2163},
            keys=["tdv", "tsl"],
        )
        assert row["tdv"] == 7000
        assert row["tdv_paper"] == 6864
        assert row["circuit"] == "s9234"

    def test_improvement_table(self):
        text = improvement_table("s13207", {3: {4: 70.0, 10: 69.0}, 24: {4: 93.0}})
        assert "s13207" in text
        assert "S=4" in text
        assert "93.0" in text

    def test_pivot_rows(self):
        rows = [
            {"k": 3, "S": 4, "pct": 70.0},
            {"k": 3, "S": 10, "pct": 69.0},
            {"k": 24, "S": 4, "pct": 93.0},
            {"k": 3, "S": 4, "pct": 71.0},  # collision
            {"S": 4, "pct": 1.0},  # missing axis: skipped
        ]
        assert pivot_rows(rows, "k", "S", "pct") == {
            3: {4: 71.0, 10: 69.0}, 24: {4: 93.0},
        }
        assert pivot_rows(rows, "k", "S", "pct", reduce="min")[3][4] == 70.0
        assert pivot_rows(rows, "k", "S", "pct", reduce="last")[3][4] == 71.0
        with pytest.raises(ValueError):
            pivot_rows(rows, "k", "S", "pct", reduce="sum")
