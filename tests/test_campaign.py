"""Tests of the campaign subsystem: spec, store, runner, report, CLI."""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.report import (
    best_config_rows,
    best_config_table,
    campaign_report,
    improvement_grids,
)
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, TestSource
from repro.campaign.store import ResultStore, StoredResult, result_key
from repro.cli import main
from repro.config import CompressionConfig
from repro.pipeline import compress
from repro.testdata.profiles import custom_profile
from repro.testdata.synthetic import generate_test_set

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _tiny_test_set(name="camp_core", seed=7):
    profile = custom_profile(
        name,
        scan_cells=64,
        num_cubes=20,
        max_specified=8,
        mean_specified=4.0,
        scan_chains=8,
        lfsr_size=16,
    )
    return generate_test_set(profile, seed=seed)


def _intact_prefix_keys(raw):
    """Keys of the leading run of parseable record lines of a store file.

    Tail damage only ever hits a suffix, so a correct repair keeps exactly
    these records (an unterminated final record that parses is kept too).
    """
    keys = set()
    for line in raw.split(b"\n"):
        if not line:
            continue
        try:
            keys.add(StoredResult.from_dict(json.loads(line)).key)
        except (AttributeError, KeyError, TypeError, ValueError):
            break
    return keys


@pytest.fixture()
def cube_file(tmp_path):
    test_set = _tiny_test_set()
    path = tmp_path / "camp_core.tests"
    path.write_text(test_set.to_text())
    return path


@pytest.fixture()
def tiny_config():
    return CompressionConfig(
        window_length=20, segment_size=4, speedup=6, num_scan_chains=8, lfsr_size=16
    )


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
class TestSpec:
    def test_cartesian_expansion_is_deterministic(self, cube_file):
        spec = CampaignSpec(
            name="grid",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(window_length=20, num_scan_chains=8),
            axes={"speedup": [3, 6], "segment_size": [4, 10]},
        )
        ids = [job.job_id for job in spec.jobs()]
        assert ids == [
            "camp_core:speedup=3,segment_size=4",
            "camp_core:speedup=3,segment_size=10",
            "camp_core:speedup=6,segment_size=4",
            "camp_core:speedup=6,segment_size=10",
        ]
        assert ids == [job.job_id for job in spec.jobs()]  # stable
        assert spec.num_jobs == 4

    def test_filter_prunes_combinations(self, cube_file):
        spec = CampaignSpec(
            name="filtered",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(num_scan_chains=8),
            axes={"window_length": [10, 40], "segment_size": [4, 20]},
            filter="segment_size <= window_length",
        )
        combos = [(job.config.window_length, job.config.segment_size)
                  for job in spec.jobs()]
        assert combos == [(10, 4), (40, 4), (40, 20)]

    def test_unknown_axis_rejected(self, cube_file):
        with pytest.raises(ValueError, match="unknown config axes"):
            CampaignSpec(
                name="bad",
                sources=(TestSource(tests=str(cube_file)),),
                axes={"warp_factor": [9]},
            )

    def test_source_needs_exactly_one_kind(self):
        with pytest.raises(ValueError):
            TestSource()
        with pytest.raises(ValueError):
            TestSource(profile="s13207", tests="x.tests")
        with pytest.raises(KeyError):
            TestSource(profile="not_a_circuit")

    def test_profile_source_resolves_lfsr_default(self):
        test_set, lfsr = TestSource(profile="s13207", scale=0.03).resolve()
        assert lfsr == 24
        assert len(test_set) >= 20

    def test_from_json_file(self, tmp_path, cube_file):
        data = {
            "name": "json-campaign",
            "sources": [{"tests": str(cube_file)}],
            "base": {"window_length": 20, "num_scan_chains": 8},
            "axes": {"speedup": [3, 6]},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        spec = CampaignSpec.from_file(path)
        assert spec.name == "json-campaign"
        assert spec.base.window_length == 20
        assert spec.num_jobs == 2

    def test_from_toml_file(self, tmp_path, cube_file):
        pytest.importorskip("tomllib")
        text = (
            'name = "toml-campaign"\n'
            "[[sources]]\n"
            f'tests = "{cube_file}"\n'
            "[base]\n"
            "window_length = 20\n"
            "num_scan_chains = 8\n"
            "[axes]\n"
            "speedup = [3, 6, 12]\n"
        )
        path = tmp_path / "spec.toml"
        path.write_text(text)
        spec = CampaignSpec.from_file(path)
        assert spec.name == "toml-campaign"
        assert spec.num_jobs == 3

    def test_base_typo_in_spec_rejected(self, cube_file):
        data = {
            "name": "typo",
            "sources": [{"tests": str(cube_file)}],
            "base": {"window_lenght": 300},
        }
        with pytest.raises(ValueError, match="unknown \\[base\\] config keys"):
            CampaignSpec.from_dict(data)

    def test_filter_rejects_code_execution(self, cube_file):
        spec = CampaignSpec(
            name="evil",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(num_scan_chains=8),
            axes={"speedup": [3]},
            filter="().__class__.__base__.__subclasses__()",
        )
        with pytest.raises(ValueError, match="disallowed syntax"):
            spec.jobs()
        for expression in ("__import__('os')", "speedup.bit_length()"):
            bad = CampaignSpec.from_dict(
                dict(spec.to_dict(), filter=expression)
            )
            with pytest.raises(ValueError, match="disallowed syntax"):
                bad.jobs()

    def test_filter_unknown_name_is_an_error(self, cube_file):
        spec = CampaignSpec(
            name="typo-filter",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(num_scan_chains=8),
            axes={"speedup": [3]},
            filter="speedo > 2",
        )
        with pytest.raises(ValueError, match="unknown name"):
            spec.jobs()

    def test_round_trip_dict(self, cube_file):
        spec = CampaignSpec(
            name="rt",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(window_length=20, num_scan_chains=8),
            axes={"speedup": [3, 6]},
            filter="speedup > 1",
        )
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert [j.job_id for j in clone.jobs()] == [j.job_id for j in spec.jobs()]


# ----------------------------------------------------------------------
# Store and keys
# ----------------------------------------------------------------------
class TestStore:
    def test_summary_round_trip_through_store(self, tmp_path, tiny_config):
        test_set = _tiny_test_set()
        report = compress(test_set, tiny_config)
        key = result_key(test_set.fingerprint(), tiny_config)
        store = ResultStore(tmp_path / "store")
        store.put(
            StoredResult(
                key=key,
                job_id="unit",
                circuit=test_set.name,
                fingerprint=test_set.fingerprint(),
                config=tiny_config.to_dict(),
                status="ok",
                summary=report.summary(),
                elapsed_s=0.1,
            )
        )
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 1
        record = reloaded.get(key)
        assert record.ok
        assert record.summary == report.summary()
        assert reloaded.rows() == [report.summary()]
        assert reloaded.completed(key)

    def test_last_record_wins(self, tmp_path, tiny_config):
        store = ResultStore(tmp_path)
        base = dict(
            key="k1", job_id="j", circuit="c", fingerprint="f",
            config=tiny_config.to_dict(),
        )
        store.put(StoredResult(status="error", error="boom", **base))
        assert not store.completed("k1")
        store.put(StoredResult(status="ok", summary={"circuit": "c"}, **base))
        assert store.completed("k1")
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("k1").ok

    def test_corrupt_interior_line_raises(self, tmp_path):
        """A bad line *followed by an intact record* is real corruption --
        appends cannot damage earlier lines -- and must fail loudly."""
        (tmp_path / "results.jsonl").write_text(
            "{not json}\n"
            '{"key": "k1", "job_id": "j", "circuit": "c", '
            '"fingerprint": "f", "config": {}, "status": "ok"}\n'
        )
        with pytest.raises(ValueError, match="corrupt result store"):
            ResultStore(tmp_path)

    def test_torn_trailing_line_tolerated_and_resumable(self, tmp_path, tiny_config):
        """A crash mid-append leaves a partial final line; the store must
        load the intact records, warn, and accept new appends cleanly."""
        store = ResultStore(tmp_path)
        base = dict(
            job_id="j", circuit="c", fingerprint="f",
            config=tiny_config.to_dict(), status="ok",
            summary={"circuit": "c"},
        )
        store.put(StoredResult(key="k1", **base))
        store.put(StoredResult(key="k2", **base))
        store.close()
        path = tmp_path / "results.jsonl"
        intact = path.read_text()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k3", "job_id": "j", "circ')  # torn append
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 2
        assert reloaded.completed("k1") and reloaded.completed("k2")
        # The torn fragment was truncated away, so resuming appends starts
        # on a clean line boundary and survives another reload.
        assert path.read_text() == intact
        reloaded.put(StoredResult(key="k3", **base))
        final = ResultStore(tmp_path)
        assert len(final) == 3
        assert final.completed("k3")

    def test_unterminated_but_complete_final_record_is_kept(self, tmp_path, tiny_config):
        """A crash between the record write and the newline write leaves a
        complete record with no trailing newline: keep it, restore the
        newline, and make sure the next append starts a fresh line."""
        store = ResultStore(tmp_path)
        base = dict(
            job_id="j", circuit="c", fingerprint="f",
            config=tiny_config.to_dict(), status="ok", summary={},
        )
        store.put(StoredResult(key="k1", **base))
        store.close()
        path = tmp_path / "results.jsonl"
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        reloaded = ResultStore(tmp_path)
        assert reloaded.completed("k1")
        assert path.read_bytes().endswith(b"\n")
        reloaded.put(StoredResult(key="k2", **base))
        final = ResultStore(tmp_path)
        assert len(final) == 2
        assert final.completed("k1") and final.completed("k2")

    def test_interior_corruption_still_raises(self, tmp_path, tiny_config):
        store = ResultStore(tmp_path)
        store.put(StoredResult(
            key="k1", job_id="j", circuit="c", fingerprint="f",
            config=tiny_config.to_dict(), status="ok", summary={},
        ))
        path = tmp_path / "results.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{torn mid-file}\n")  # complete line, bad JSON
            handle.write(
                '{"key": "k2", "job_id": "j", "circuit": "c", '
                '"fingerprint": "f", "config": {}, "status": "ok"}\n'
            )
        with pytest.raises(ValueError, match="corrupt result store"):
            ResultStore(tmp_path)

    def test_corrupt_tail_spanning_records_is_repaired(self, tmp_path, tiny_config):
        """Crash damage can mangle *several* trailing lines (torn page
        writeback); the whole corrupt suffix is dropped and truncated so
        resuming appends start on a clean boundary."""
        store = ResultStore(tmp_path)
        base = dict(
            job_id="j", circuit="c", fingerprint="f",
            config=tiny_config.to_dict(), status="ok", summary={},
        )
        for key in ("k1", "k2"):
            store.put(StoredResult(key=key, **base))
        store.close()
        path = tmp_path / "results.jsonl"
        intact = path.read_text()
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{bad json}\n")
            handle.write('{"key": "k3", "job_id": "truncat')
        with pytest.warns(RuntimeWarning, match="2 torn trailing line"):
            reloaded = ResultStore(tmp_path)
        assert {r.key for r in reloaded.records()} == {"k1", "k2"}
        assert path.read_text() == intact
        reloaded.put(StoredResult(key="k3", **base))
        reloaded.close()
        assert len(ResultStore(tmp_path)) == 3

    @pytest.mark.parametrize(
        "junk", [b"\n1", b"\n[]", b"\nnull"], ids=["number", "array", "null"]
    )
    def test_non_object_json_tail_is_repaired(self, tmp_path, tiny_config, junk):
        """Garbage over the tail can leave a line that is valid JSON but
        not a record object; it is torn tail like any other damage."""
        store = ResultStore(tmp_path)
        base = dict(
            job_id="j", circuit="c", fingerprint="f",
            config=tiny_config.to_dict(), status="ok", summary={},
        )
        for key in ("k1", "k2"):
            store.put(StoredResult(key=key, **base))
        store.close()
        path = tmp_path / "results.jsonl"
        path.write_bytes(path.read_bytes()[: -len(junk)] + junk)
        with pytest.warns(RuntimeWarning, match="2 torn trailing line"):
            reloaded = ResultStore(tmp_path)
        assert {r.key for r in reloaded.records()} == {"k1"}

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(min_value=3, max_value=16), data=st.data())
    def test_random_tail_damage_keeps_intact_prefix(self, count, data):
        """1-4 random tail damages (truncation, garbage overwrite, torn
        fragment): the reload keeps the intact prefix and repairs the file,
        and re-putting the lost records restores a complete store."""
        records = [
            StoredResult(
                key=f"k{i:02d}", job_id=f"job-{i}", circuit="c", fingerprint="f",
                config={"window_length": 20, "segment_size": 4}, status="ok",
                summary={"index": i}, elapsed_s=0.01 * i,
            )
            for i in range(count)
        ]
        fragment = b'{"key": "torn", "job_id": "half'
        with tempfile.TemporaryDirectory() as directory:
            with ResultStore(directory) as store:
                for record in records:
                    store.put(record)
                path = store.path
            raw = path.read_bytes()
            damages = st.sampled_from(["truncate", "garbage", "fragment"])
            for damage in data.draw(st.lists(damages, min_size=1, max_size=4)):
                if damage == "truncate":
                    low = max(1, len(raw) - 200)
                    raw = raw[: data.draw(st.integers(low, max(low, len(raw) - 1)))]
                elif damage == "garbage":
                    junk = data.draw(st.binary(min_size=1, max_size=119))
                    raw = raw[: max(0, len(raw) - len(junk))] + junk
                else:
                    raw += fragment[: data.draw(st.integers(4, len(fragment) - 1))]
            path.write_bytes(raw)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with ResultStore(directory) as reloaded:
                    kept = {record.key for record in reloaded.records()}
            assert kept == _intact_prefix_keys(raw)
            # Repaired: the next load finds no torn tail left to drop.
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with ResultStore(directory) as resumed:
                    for record in records:
                        if record.key not in kept:
                            resumed.put(record)
            with ResultStore(directory) as final:
                assert {record.key for record in final.records()} == {
                    record.key for record in records
                }

    def test_read_only_store_never_repairs_on_disk(self, tmp_path, tiny_config):
        store = ResultStore(tmp_path)
        store.put(StoredResult(
            key="k1", job_id="j", circuit="c", fingerprint="f",
            config=tiny_config.to_dict(), status="ok", summary={},
        ))
        store.close()
        path = tmp_path / "results.jsonl"
        damaged = path.read_text() + '{"key": "k2", "torn'
        path.write_text(damaged)
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            reader = ResultStore(tmp_path, read_only=True)
        assert {r.key for r in reader.records()} == {"k1"}
        assert path.read_text() == damaged  # untouched on disk
        with pytest.raises(RuntimeError, match="read-only"):
            reader.put(StoredResult(
                key="k3", job_id="j", circuit="c", fingerprint="f",
                config=tiny_config.to_dict(), status="ok", summary={},
            ))

    def test_second_writer_is_refused_with_holder_pid(self, tmp_path, tiny_config):
        import os as os_mod

        from repro.campaign.store import StoreLockedError

        base = dict(
            job_id="j", circuit="c", fingerprint="f",
            config=tiny_config.to_dict(), status="ok", summary={},
        )
        writer = ResultStore(tmp_path)
        writer.put(StoredResult(key="k1", **base))
        # Readers are always fine against a live writer.
        reader = ResultStore(tmp_path, read_only=True)
        assert reader.completed("k1")
        assert reader.writer_pid() == os_mod.getpid()
        # A second writer fails fast, naming the holder.
        second = ResultStore(tmp_path)
        with pytest.raises(StoreLockedError, match=str(os_mod.getpid())):
            second.put(StoredResult(key="k2", **base))
        writer.close()
        # Once the holder releases, the second writer proceeds.
        second.put(StoredResult(key="k2", **base))
        second.close()
        assert len(ResultStore(tmp_path)) == 2

    def test_stale_lock_from_dead_pid_is_taken_over(self, tmp_path, tiny_config):
        """An flock dies with its holder, so a lock file left by a crashed
        writer must not block -- but the takeover is surfaced."""
        from repro.campaign.store import LOCK_FILENAME

        # A pid that cannot be running: fork a child that exits at once.
        import os as os_mod

        child = os_mod.fork()
        if child == 0:
            os_mod._exit(0)
        os_mod.waitpid(child, 0)
        (tmp_path / LOCK_FILENAME).write_text(f"{child}\n")
        store = ResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match=f"dead.*{child}"):
            store.put(StoredResult(
                key="k1", job_id="j", circuit="c", fingerprint="f",
                config=tiny_config.to_dict(), status="ok", summary={},
            ))
        store.close()
        assert ResultStore(tmp_path).completed("k1")

    def test_stage_timings_and_cache_stats_round_trip(self, tmp_path, tiny_config):
        store = ResultStore(tmp_path)
        store.put(
            StoredResult(
                key="k1", job_id="j", circuit="c", fingerprint="f",
                config=tiny_config.to_dict(), status="ok",
                summary={"circuit": "c"}, elapsed_s=1.5,
                stage_timings={"encode": 1.2, "reduce": 0.3},
                cache_stats={"encoding_hits": 1, "substrate_misses": 1},
            )
        )
        record = ResultStore(tmp_path).get("k1")
        assert record.stage_timings == {"encode": 1.2, "reduce": 0.3}
        assert record.cache_stats == {"encoding_hits": 1, "substrate_misses": 1}
        assert record.elapsed_s == 1.5

    def test_pre_staged_records_stay_loadable(self, tmp_path, tiny_config):
        """Records written before the staged runner lack the new fields."""
        import json as json_mod

        old = {
            "key": "old", "job_id": "j", "circuit": "c", "fingerprint": "f",
            "config": tiny_config.to_dict(), "status": "ok",
            "summary": {"circuit": "c"}, "elapsed_s": 2.0,
        }
        (tmp_path / "results.jsonl").write_text(json_mod.dumps(old) + "\n")
        record = ResultStore(tmp_path).get("old")
        assert record.ok
        assert record.stage_timings is None
        assert record.cache_stats is None
        assert record.elapsed_s == 2.0

    def test_key_depends_on_config_and_fingerprint(self, tiny_config):
        other_config = tiny_config.with_updates(speedup=12)
        assert result_key("f1", tiny_config) != result_key("f1", other_config)
        assert result_key("f1", tiny_config) != result_key("f2", tiny_config)
        assert result_key("f1", tiny_config) == result_key("f1", tiny_config)

    def test_cache_key_stable_across_processes(self, tiny_config):
        """Keys must not depend on PYTHONHASHSEED or process identity."""
        test_set = _tiny_test_set()
        script = (
            "from repro.config import CompressionConfig\n"
            "from repro.campaign.store import result_key\n"
            "from repro.testdata.profiles import custom_profile\n"
            "from repro.testdata.synthetic import generate_test_set\n"
            f"config = CompressionConfig.from_dict({tiny_config.to_dict()!r})\n"
            "profile = custom_profile('camp_core', scan_cells=64, num_cubes=20,\n"
            "    max_specified=8, mean_specified=4.0, scan_chains=8, lfsr_size=16)\n"
            "test_set = generate_test_set(profile, seed=7)\n"
            "print(config.cache_key())\n"
            "print(test_set.fingerprint())\n"
            "print(result_key(test_set.fingerprint(), config))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        lines = {}
        for hash_seed in ("1", "2"):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            lines[hash_seed] = proc.stdout.splitlines()
        assert lines["1"] == lines["2"]
        assert lines["1"][0] == tiny_config.cache_key()
        assert lines["1"][1] == test_set.fingerprint()
        assert lines["1"][2] == result_key(test_set.fingerprint(), tiny_config)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def _small_two_profile_spec(scale=0.03):
    return CampaignSpec(
        name="two-profiles",
        sources=(
            TestSource(profile="s13207", scale=scale),
            TestSource(profile="s9234", scale=scale),
        ),
        base=CompressionConfig(window_length=30),
        axes={"speedup": [3, 6, 12], "segment_size": [5, 10]},
    )


class TestRunner:
    def test_inline_run_and_resume_skips_all_jobs(self, tmp_path, cube_file):
        spec = CampaignSpec(
            name="resume",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(window_length=20, num_scan_chains=8, lfsr_size=16),
            axes={"speedup": [3, 6], "segment_size": [4, 10]},
        )
        store = ResultStore(tmp_path / "store")
        first = CampaignRunner(spec, store, jobs=1).run()
        assert first.num_jobs == 4
        assert first.num_computed == 4
        assert first.num_failed == 0
        assert not first.all_cached
        stored_lines = store.path.read_text().count("\n")
        assert stored_lines == 4

        second = CampaignRunner(spec, store, jobs=1).run()
        assert second.all_cached
        assert second.num_computed == 0
        assert second.num_cached == 4
        # zero recomputation: nothing new was appended to the store
        assert store.path.read_text().count("\n") == stored_lines
        # cached outcomes still carry the stored summaries, in job order
        assert second.rows() == first.rows()

    def test_resume_disabled_recomputes(self, tmp_path, cube_file):
        spec = CampaignSpec(
            name="no-resume",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(window_length=20, num_scan_chains=8, lfsr_size=16),
            axes={"speedup": [3]},
        )
        store = ResultStore(tmp_path)
        CampaignRunner(spec, store, jobs=1).run()
        rerun = CampaignRunner(spec, store, jobs=1, resume=False).run()
        assert rerun.num_computed == 1
        assert rerun.num_cached == 0

    def test_two_worker_end_to_end_two_profiles(self, tmp_path):
        spec = _small_two_profile_spec()
        store = ResultStore(tmp_path / "store")
        result = CampaignRunner(spec, store, jobs=2).run()
        assert result.num_jobs == 12
        assert result.num_computed == 12
        assert result.num_failed == 0
        circuits = {row["circuit"] for row in result.rows()}
        assert circuits == {"s13207@0.03", "s9234@0.03"}
        # every job's summary landed in the store
        assert len(store.rows()) == 12
        # the profile's LFSR size was injected into each job config
        assert {row["lfsr_size"] for row in result.rows()} == {24, 44}

    def test_acceptance_grid_jobs4_then_full_cache_hits(self, tmp_path):
        """Acceptance: >=12 jobs over >=2 profiles with --jobs 4, then a
        resumed invocation reports every job as a cache hit."""
        spec = _small_two_profile_spec()
        assert spec.num_jobs >= 12
        store = ResultStore(tmp_path / "store")
        first = CampaignRunner(spec, store, jobs=4).run()
        assert first.num_failed == 0
        assert len(store.rows()) == spec.num_jobs

        resumed = CampaignRunner(spec, store, jobs=4).run()
        assert resumed.all_cached
        assert resumed.num_cached == spec.num_jobs
        assert resumed.num_computed == 0
        assert all(outcome.status == "cached" for outcome in resumed.outcomes)

    def test_errors_are_captured_not_fatal(self, tmp_path, cube_file):
        # lfsr_size=2 cannot encode 8-bit cubes: every job must fail cleanly.
        spec = CampaignSpec(
            name="failing",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(
                window_length=20, num_scan_chains=8, lfsr_size=2,
                max_phase_retries=0,
            ),
            axes={"speedup": [3, 6]},
        )
        store = ResultStore(tmp_path)
        result = CampaignRunner(spec, store, jobs=1).run()
        assert result.num_failed == 2
        assert result.num_computed == 0
        for outcome in result.failures():
            assert outcome.status == "error"
            assert "Traceback" in outcome.error and "Error" in outcome.error
        # failures are recorded but not treated as resumable completions
        retry = CampaignRunner(spec, store, jobs=1).run()
        assert retry.num_cached == 0
        assert retry.num_failed == 2

    def test_progress_and_store_are_incremental(self, tmp_path, cube_file):
        """Each outcome is reported and persisted as its job finishes."""
        spec = CampaignSpec(
            name="incremental",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(window_length=20, num_scan_chains=8, lfsr_size=16),
            axes={"speedup": [3, 6]},
        )
        store = ResultStore(tmp_path)
        seen = []

        def watch(outcome):
            # by the time an outcome is reported, it is already on disk
            seen.append(
                (outcome.job.job_id, store.path.read_text().count("\n"))
            )

        CampaignRunner(spec, store, jobs=1).run(progress=watch)
        assert [lines for _, lines in seen] == [1, 2]

        seen.clear()
        CampaignRunner(spec, store, jobs=1).run(progress=watch)
        assert [lines for _, lines in seen] == [2, 2]  # cached: nothing appended

    def test_colliding_job_labels_keep_both_outcomes(self, tmp_path, cube_file):
        # two cube files with the same stem in different directories share
        # the label "camp_core", hence identical job ids
        other_dir = cube_file.parent / "other"
        other_dir.mkdir()
        clash = other_dir / cube_file.name
        clash.write_text(_tiny_test_set(seed=11).to_text())
        spec = CampaignSpec(
            name="clash",
            sources=(
                TestSource(tests=str(cube_file)),
                TestSource(tests=str(clash)),
            ),
            base=CompressionConfig(window_length=20, num_scan_chains=8),
            axes={"speedup": [3]},
        )
        jobs = spec.jobs()
        assert len({job.job_id for job in jobs}) == 1  # labels do collide
        result = CampaignRunner(spec, ResultStore(tmp_path), jobs=1).run()
        assert result.num_jobs == 2
        assert result.num_computed == 2  # neither outcome was overwritten
        assert len({outcome.key for outcome in result.outcomes}) == 2

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs fork to patch the worker"
    )
    def test_hung_job_keeps_streamed_results(self, tmp_path, cube_file, monkeypatch):
        """A genuinely hung job loses only itself.

        Results are streamed per job, so the completed (S, k) points of the
        hung job's own group are already stored when the parent's
        inactivity window fires -- previously the whole group was
        discarded on the parent's hard timeout.
        """
        import time as time_mod

        import repro.campaign.runner as runner_mod

        real_compress = runner_mod.compress

        def hanging_compress(test_set, config, **kwargs):
            if config.speedup == 24:
                time_mod.sleep(60)  # a genuine hang (parent terminates us)
            return real_compress(test_set, config, **kwargs)

        monkeypatch.setattr(runner_mod, "compress", hanging_compress)
        spec = CampaignSpec(
            name="hang",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(window_length=20, num_scan_chains=8, lfsr_size=16),
            axes={"speedup": [3, 6, 12, 24]},
        )
        store = ResultStore(tmp_path)
        # 2 workers split the single encode group into [3, 6] and [12, 24]:
        # the hang sits behind a completed job on its own worker.
        result = CampaignRunner(spec, store, jobs=2, timeout=1.0).run()
        statuses = {
            outcome.job.config.speedup: outcome.status
            for outcome in result.outcomes
        }
        assert statuses[3] == statuses[6] == statuses[12] == "ok"
        assert statuses[24] == "timeout"
        for outcome in result.outcomes:
            stored = store.completed(outcome.key)
            assert stored == (outcome.status == "ok")

    def test_runner_rejects_bad_worker_count(self, tmp_path, cube_file):
        spec = CampaignSpec(
            name="bad", sources=(TestSource(tests=str(cube_file)),),
        )
        with pytest.raises(ValueError):
            CampaignRunner(spec, ResultStore(tmp_path), jobs=0)
        with pytest.raises(ValueError):
            CampaignRunner(spec, ResultStore(tmp_path / "b"), max_retries=-1)

    @staticmethod
    def _assert_sigkills_recovered(workdir, cube_file, monkeypatch, victims):
        """Run a 4-job campaign whose ``victims`` speedups SIGKILL their
        worker on the first attempt; every kill is detected by exit code,
        the chunk requeued on a fresh worker and the campaign completes
        with every job ok, exactly one record per job."""
        import signal as signal_mod

        import repro.campaign.runner as runner_mod

        real_compress = runner_mod.compress

        def killing_compress(test_set, config, **kwargs):
            if config.speedup in victims:
                try:
                    (workdir / f"killed-{config.speedup}").touch(exist_ok=False)
                except FileExistsError:
                    pass  # retry of the blamed job: run it for real now
                else:
                    os.kill(os.getpid(), signal_mod.SIGKILL)
            return real_compress(test_set, config, **kwargs)

        monkeypatch.setattr(runner_mod, "compress", killing_compress)
        spec = CampaignSpec(
            name="crashy",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(window_length=20, num_scan_chains=8, lfsr_size=16),
            axes={"speedup": [3, 6, 12, 24]},
        )
        store = ResultStore(workdir / "store")
        result = CampaignRunner(
            spec, store, jobs=2, max_retries=3, retry_backoff_s=0.05
        ).run()
        store.close()
        for speedup in victims:  # the kills really happened
            assert (workdir / f"killed-{speedup}").exists()
        assert result.num_computed == 4
        assert result.num_failed == 0
        assert result.total_retries >= len(victims)
        by_speedup = {
            outcome.job.config.speedup: outcome for outcome in result.outcomes
        }
        crashed = {by_speedup[speedup].key for speedup in victims}
        for speedup in victims:  # each blamed job knows it crashed
            assert by_speedup[speedup].retried >= 1
            assert not by_speedup[speedup].exhausted
        # one store line per job: nothing lost, nothing duplicated
        lines = [
            json.loads(line)
            for line in store.path.read_text().splitlines()
            if line.strip()
        ]
        assert sorted(line["key"] for line in lines) == sorted(
            outcome.key for outcome in result.outcomes
        )
        for line in lines:
            if line["key"] in crashed:
                assert line["retried"] >= 1
                assert line["exhausted"] is False

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs fork to patch the worker"
    )
    def test_sigkilled_worker_is_respawned_and_loses_nothing(
        self, tmp_path, cube_file, monkeypatch
    ):
        """Speedup 6 dies mid-chunk: the 2 workers split the jobs into
        [3, 6] and [12, 24]."""
        self._assert_sigkills_recovered(tmp_path, cube_file, monkeypatch, (6,))

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs fork to patch the worker"
    )
    def test_two_sigkilled_workers_are_respawned_and_lose_nothing(
        self, tmp_path, cube_file, monkeypatch
    ):
        """Both workers die: speedup 6 mid-chunk, speedup 12 before
        anything in its chunk ran."""
        self._assert_sigkills_recovered(
            tmp_path, cube_file, monkeypatch, (6, 12)
        )

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs fork to patch the worker"
    )
    def test_poison_job_exhausts_without_dragging_down_its_chunk(
        self, tmp_path, cube_file, monkeypatch
    ):
        """A job that kills its worker on every attempt is given up on
        after max_retries blames -- recorded as error/exhausted with text
        distinguishing it from the never-attempted jobs, which are
        requeued and still complete ok."""
        import signal as signal_mod

        import repro.campaign.runner as runner_mod

        real_compress = runner_mod.compress

        def poison_compress(test_set, config, **kwargs):
            if config.speedup == 3:  # first job of the chunk, every time
                os.kill(os.getpid(), signal_mod.SIGKILL)
            return real_compress(test_set, config, **kwargs)

        monkeypatch.setattr(runner_mod, "compress", poison_compress)
        spec = CampaignSpec(
            name="poison",
            sources=(TestSource(tests=str(cube_file)),),
            base=CompressionConfig(window_length=20, num_scan_chains=8, lfsr_size=16),
            axes={"speedup": [3, 6, 12, 24]},
        )
        store = ResultStore(tmp_path / "store")
        # 2 workers split the group into [3, 6] and [12, 24]: the poison
        # job shares its chunk with speedup-6, which must survive.
        result = CampaignRunner(
            spec, store, jobs=2, max_retries=1, retry_backoff_s=0.05
        ).run()
        store.close()
        by_speedup = {
            outcome.job.config.speedup: outcome for outcome in result.outcomes
        }
        poisoned = by_speedup[3]
        assert poisoned.status == "error"
        assert poisoned.exhausted
        assert poisoned.retried == 1  # blamed twice, max_retries=1
        assert "while running this job" in poisoned.error
        assert "never attempted" in poisoned.error  # the survivors were not failed
        for speedup in (6, 12, 24):
            assert by_speedup[speedup].status == "ok"
            assert not by_speedup[speedup].exhausted
        # the exhausted record is persisted with its accounting
        record = store.get(poisoned.key) or ResultStore(
            tmp_path / "store", read_only=True
        ).get(poisoned.key)
        assert record.status == "error"
        assert record.exhausted is True


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _rows():
    return [
        {"circuit": "a", "speedup": 3, "segment_size": 4,
         "improvement_pct": 60.0, "state_skip_tsl": 400, "window_length": 30},
        {"circuit": "a", "speedup": 6, "segment_size": 4,
         "improvement_pct": 70.0, "state_skip_tsl": 300, "window_length": 30},
        {"circuit": "b", "speedup": 3, "segment_size": 4,
         "improvement_pct": 50.0, "state_skip_tsl": 500, "window_length": 30},
    ]


class TestReport:
    def test_improvement_grids(self):
        grids = improvement_grids(_rows())
        assert grids["a"][3][4] == 60.0
        assert grids["a"][6][4] == 70.0
        assert grids["b"][3][4] == 50.0

    def test_grid_collisions_keep_best(self):
        rows = _rows() + [
            {"circuit": "a", "speedup": 3, "segment_size": 4,
             "improvement_pct": 65.0, "state_skip_tsl": 350},
        ]
        assert improvement_grids(rows)["a"][3][4] == 65.0

    def test_best_config_rows_minimise_tsl(self):
        best = best_config_rows(_rows())
        assert [row["circuit"] for row in best] == ["a", "b"]
        assert best[0]["state_skip_tsl"] == 300

    def test_campaign_report_text(self):
        text = campaign_report(_rows(), title="unit")
        assert "TSL improvement (%) for a (unit)" in text
        assert "Best configuration per circuit" in text
        assert campaign_report([], title="unit").startswith("campaign unit")

    def test_best_config_table_renders(self):
        text = best_config_table(_rows(), columns=["circuit", "state_skip_tsl"])
        assert "circuit" in text
        assert "300" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCampaignCommand:
    def test_cli_campaign_runs_and_resumes(self, tmp_path, cube_file, capsys):
        argv = [
            "campaign",
            "--tests", str(cube_file),
            "--chains", "8",
            "--windows", "20",
            "--segments", "4",
            "--speedups", "3", "6",
            "--jobs", "1",
            "--store", str(tmp_path / "store"),
            "--report",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 computed, 0 cached" in out
        assert "TSL improvement" in out
        assert "Best configuration per circuit" in out

        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 computed, 2 cached" in out

    def test_cli_campaign_requires_sources(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--windows", "20"])

    def test_cli_campaign_ctrl_c_exits_130_with_persisted_summary(
        self, tmp_path, cube_file, monkeypatch, capsys
    ):
        """Ctrl-C mid-campaign: the store keeps the streamed results, the
        lock is released, and the CLI reports what survived + exits 130."""
        import repro.campaign.runner as runner_mod

        real_compress = runner_mod.compress
        calls = []

        def interrupted_compress(test_set, config, **kwargs):
            if calls:  # first job completes, the second is interrupted
                raise KeyboardInterrupt
            calls.append(config.speedup)
            return real_compress(test_set, config, **kwargs)

        monkeypatch.setattr(runner_mod, "compress", interrupted_compress)
        store_dir = tmp_path / "store"
        code = main([
            "campaign",
            "--tests", str(cube_file),
            "--chains", "8",
            "--windows", "20",
            "--segments", "4",
            "--speedups", "3", "6",
            "--jobs", "1",
            "--store", str(store_dir),
        ])
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted: 1 result(s) persisted" in captured.err
        assert "--resume" in captured.err
        # the persisted job resumes as cached, the interrupted one reruns
        monkeypatch.setattr(runner_mod, "compress", real_compress)
        reopened = ResultStore(store_dir)  # the lock was released cleanly
        assert len(reopened) == 1
        reopened.close()

    def test_cli_campaign_refuses_locked_store(
        self, tmp_path, cube_file, capsys
    ):
        locked = ResultStore(tmp_path / "store")
        locked.lock()
        with pytest.raises(SystemExit, match="already being written"):
            main([
                "campaign",
                "--tests", str(cube_file),
                "--chains", "8",
                "--windows", "20",
                "--segments", "4",
                "--speedups", "3",
                "--store", str(tmp_path / "store"),
            ])
        locked.close()

    def test_cli_campaign_spec_file(self, tmp_path, cube_file, capsys):
        data = {
            "name": "cli-spec",
            "sources": [{"tests": str(cube_file)}],
            "base": {"window_length": 20, "num_scan_chains": 8},
            "axes": {"speedup": [3]},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        code = main(
            ["campaign", "--spec", str(spec_path), "--store", str(tmp_path / "s")]
        )
        assert code == 0
        assert "campaign cli-spec: 1 jobs" in capsys.readouterr().out
