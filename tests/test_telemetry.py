"""Tests of the telemetry subsystem: spans, metrics, events, exporters.

Covers the recorder API (nesting, timing, attributes), the histogram
bucketing edge cases, cross-process span collection through the campaign
runner's pool queue, Chrome-trace JSON validity, the NullRecorder disabled
path, the ContextStats façade over the metrics registry, the result
store's persistent append handle, and the ``repro stats`` / bench-meta
surfaces.
"""

import json
import time

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, TestSource
from repro.campaign.store import ResultStore, StoredResult
from repro.config import CompressionConfig
from repro.context import CompressionContext, ContextStats
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    chrome_trace,
    environment_meta,
    get_recorder,
    persist_recorder,
    read_event_log,
    recorder_event_lines,
    summary_table,
    use_recorder,
    write_event_log,
)
from repro.telemetry.metrics import _bucket_exponent


# ----------------------------------------------------------------------
# Histogram bucketing
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_exponent_powers_of_two(self):
        # Bucket e covers (2^(e-1), 2^e]: an exact power of two belongs to
        # its own bucket, not the next one up.
        assert _bucket_exponent(1.0) == 0
        assert _bucket_exponent(2.0) == 1
        assert _bucket_exponent(1024.0) == 10
        assert _bucket_exponent(3.0) == 2
        assert _bucket_exponent(0.5) == -1

    def test_bucket_exponent_clamps(self):
        assert _bucket_exponent(1e-30) == -20
        assert _bucket_exponent(1e30) == 30

    def test_zero_and_negative_observations(self):
        histogram = Histogram()
        histogram.observe(0)
        histogram.observe(-5)
        assert histogram.count == 2
        assert histogram.min == -5
        assert histogram.max == 0
        # Non-positive values land in the bottom bucket instead of crashing.
        assert sum(histogram.buckets.values()) == 2

    def test_mean_and_quantiles(self):
        histogram = Histogram()
        for value in [1, 2, 4, 8, 100]:
            histogram.observe(value)
        assert histogram.mean == pytest.approx(23.0)
        assert histogram.quantile(0.0) <= histogram.quantile(1.0)
        # p100 is bounded by the bucket upper edge of the largest value.
        assert histogram.quantile(1.0) >= 100

    def test_merge_is_bucketwise(self):
        a, b = Histogram(), Histogram()
        for value in [1, 2, 3]:
            a.observe(value)
        for value in [3, 1000]:
            b.observe(value)
        a.merge(b.to_dict())
        assert a.count == 5
        assert a.total == pytest.approx(1009.0)
        assert a.max == 1000
        assert a.min == 1

    def test_roundtrip_and_diff(self):
        histogram = Histogram()
        for value in [0.001, 5, 7]:
            histogram.observe(value)
        clone = Histogram()
        clone.merge(histogram.to_dict())
        assert clone.to_dict() == histogram.to_dict()
        later = Histogram()
        later.merge(histogram.to_dict())
        later.observe(9)
        delta = Histogram.diff(histogram.to_dict(), later.to_dict())
        assert delta["count"] == 1
        assert delta["sum"] == pytest.approx(9.0)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("jobs", 2)
        registry.inc("jobs")
        registry.set_gauge("workers", 4)
        registry.set_gauge("workers", 2)
        registry.observe("wait_s", 0.5)
        assert registry.counters["jobs"] == 3
        assert registry.gauges["workers"] == 2
        assert registry.histograms["wait_s"].count == 1

    def test_delta_and_merge(self):
        registry = MetricsRegistry()
        registry.inc("a", 5)
        before = registry.snapshot_full()
        registry.inc("a", 2)
        registry.observe("h", 3)
        delta = MetricsRegistry.delta(before, registry.snapshot_full())
        assert delta["counters"] == {"a": 2}
        assert delta["histograms"]["h"]["count"] == 1
        other = MetricsRegistry()
        other.merge(delta)
        other.merge(delta)
        assert other.counters["a"] == 4
        assert other.histograms["h"].count == 2

    def test_hit_rates_pairs_hits_and_misses(self):
        registry = MetricsRegistry()
        registry.inc("encoding_hits", 3)
        registry.inc("encoding_misses", 1)
        registry.inc("unrelated", 7)
        rates = registry.hit_rates()
        assert rates["encoding"] == (3, 4, pytest.approx(0.75))
        assert "unrelated" not in rates


# ----------------------------------------------------------------------
# Spans and the recorder
# ----------------------------------------------------------------------
class TestRecorder:
    def test_span_nesting_and_timing(self):
        recorder = Recorder(run_id="t")
        with recorder.span("outer", circuit="c1") as outer:
            time.sleep(0.01)
            with recorder.span("inner") as inner:
                inner.set("depth", 2)
        assert len(recorder.spans) == 2
        by_name = {span["name"]: span for span in recorder.spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["duration_s"] >= by_name["inner"]["duration_s"]
        assert by_name["outer"]["duration_s"] >= 0.01
        assert by_name["outer"]["attrs"] == {"circuit": "c1"}
        assert by_name["inner"]["attrs"] == {"depth": 2}
        assert outer.span_id != inner.span_id

    def test_span_closed_on_exception(self):
        recorder = Recorder(run_id="t")
        with pytest.raises(RuntimeError):
            with recorder.span("failing"):
                raise RuntimeError("boom")
        assert len(recorder.spans) == 1
        assert recorder.current_span_id() is None

    def test_collect_mark_and_absorb(self):
        worker = Recorder(run_id="run")
        with worker.span("first"):
            pass
        mark = worker.mark()
        with worker.span("second"):
            worker.counter("jobs")
        batch = worker.collect(mark)
        assert [span["name"] for span in batch["spans"]] == ["second"]
        assert batch["metrics"]["counters"] == {"jobs": 1}
        parent = Recorder(run_id="run")
        parent.absorb(batch)
        parent.absorb(None)  # tolerated
        assert [span["name"] for span in parent.spans] == ["second"]
        assert parent.metrics.counters["jobs"] == 1

    def test_span_ids_unique_across_recorders(self):
        first, second = Recorder(), Recorder()
        with first.span("a"):
            pass
        with second.span("a"):
            pass
        assert first.spans[0]["span_id"] != second.spans[0]["span_id"]


class TestNullRecorder:
    def test_disabled_and_noop(self):
        null = NullRecorder()
        assert null.enabled is False
        span = null.span("anything", attr=1)
        with span as inner:
            inner.set("ignored", True)
        # One shared object, no allocation per span.
        assert null.span("other") is span
        null.counter("c")
        null.gauge("g", 1)
        null.observe("h", 1)
        null.event("kind", {"x": 1})

    def test_default_active_recorder_is_null(self):
        assert get_recorder().enabled is False

    def test_use_recorder_restores_previous(self):
        recorder = Recorder()
        with use_recorder(recorder):
            assert get_recorder() is recorder
        assert get_recorder().enabled is False


# ----------------------------------------------------------------------
# ContextStats façade over the registry
# ----------------------------------------------------------------------
class TestContextStatsFacade:
    def test_bound_registry_receives_counts_and_timings(self):
        registry = MetricsRegistry()
        stats = ContextStats(registry=registry)
        stats.count("encoding_hits")
        stats.add_timing("encode", 0.5)
        assert registry.counters["encoding_hits"] == 1
        assert registry.counters["encode_s"] == pytest.approx(0.5)
        assert stats.counters == {"encoding_hits": 1}
        snapshot = stats.snapshot()
        assert snapshot["encoding_hits"] == 1
        assert snapshot["encode_s"] == pytest.approx(0.5)

    def test_recorder_bound_context_collects_pipeline_metrics(self):
        from repro.pipeline import compress
        from repro.testdata.synthetic import generate_test_set
        from repro.testdata.profiles import get_profile

        recorder = Recorder(run_id="flow")
        profile = get_profile("s13207")
        test_set = generate_test_set(profile, seed=1, scale=0.05)
        config = CompressionConfig(
            window_length=40,
            segment_size=10,
            speedup=6,
            num_scan_chains=profile.scan_chains,
            lfsr_size=profile.lfsr_size,
        )
        context = CompressionContext(
            stats=ContextStats(registry=recorder.metrics)
        )
        with use_recorder(recorder):
            traced = compress(test_set, config, verify=True, context=context)
        # A live recorder observes the flow without changing its result.
        untraced = compress(
            test_set, config, verify=True, context=CompressionContext()
        )
        assert traced.to_dict() == untraced.to_dict()
        names = {span["name"] for span in recorder.spans}
        assert {"stage.encode", "stage.reduce", "stage.hardware"} <= names
        counters = recorder.metrics.counters
        assert counters["solver_trials"] > 0
        assert counters["solver_commits"] > 0
        assert counters["encode_s"] > 0
        assert "encoding_misses" in counters


# ----------------------------------------------------------------------
# ATPG / fault-sim instrumentation
# ----------------------------------------------------------------------
class TestCircuitTelemetry:
    def test_atpg_counters_and_histograms(self):
        from repro.circuits.atpg import PodemAtpg
        from repro.circuits.generator import random_netlist

        netlist = random_netlist("t", num_inputs=16, num_gates=50, seed=3)
        recorder = Recorder(run_id="atpg")
        with use_recorder(recorder):
            result = PodemAtpg(netlist).run()
        oracle = Recorder(run_id="atpg-packed")
        with use_recorder(oracle):
            PodemAtpg(netlist, engine="packed").run()
        counters = recorder.metrics.counters
        assert counters["atpg.faults_targeted"] > 0
        # The search itself is engine-independent, so its counters equal
        # the full-pass oracle's; the engine's own counters are pinned to
        # the values the event engine has had since the fault-region fence.
        for name in ("atpg.decisions", "atpg.backtracks"):
            assert counters[name] == oracle.metrics.counters[name], name
        assert (counters["atpg.decisions"], counters["atpg.backtracks"]) == (153, 120)
        assert counters["atpg.events_processed"] == 1452
        assert counters["atpg.propagate_passes"] == 153
        assert counters["faultsim.blocks"] >= 1
        assert counters["faultsim.patterns"] >= len(result.test_set.cubes)
        histograms = recorder.metrics.histograms
        assert histograms["atpg.d_frontier"].count > 0
        assert histograms["faultsim.dropped_per_block"].count >= 1
        spans = [span for span in recorder.spans if span["name"] == "atpg.run"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["detected"] == len(result.detected)

    def test_atpg_results_identical_with_and_without_recorder(self):
        from repro.circuits.atpg import PodemAtpg
        from repro.circuits.generator import random_netlist

        netlist = random_netlist("t", num_inputs=16, num_gates=50, seed=3)
        plain = PodemAtpg(netlist).run()
        with use_recorder(Recorder()):
            traced = PodemAtpg(netlist).run()
        assert plain.test_set.cubes == traced.test_set.cubes
        assert plain.detected == traced.detected
        assert plain.redundant == traced.redundant
        assert plain.aborted == traced.aborted
        assert plain.total_faults == traced.total_faults


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_roundtrip_and_schema(self, tmp_path):
        recorder = Recorder(run_id="r1")
        with recorder.span("work"):
            recorder.event("checkpoint", {"step": 1})
        lines = recorder_event_lines(recorder)
        assert all(
            set(record) == {"ts", "run_id", "span_id", "kind", "payload"}
            for record in lines
        )
        kinds = [record["kind"] for record in lines]
        assert "checkpoint" in kinds and "span" in kinds
        # The event was recorded inside the span.
        event = next(r for r in lines if r["kind"] == "checkpoint")
        span = next(r for r in lines if r["kind"] == "span")
        assert event["span_id"] == span["payload"]["span_id"]
        path = tmp_path / "log.jsonl"
        assert write_event_log(path, lines) == len(lines)
        assert list(read_event_log(path)) == lines

    def test_phase_retry_event(self, monkeypatch):
        """One event per failed phase-shifter attempt, to the active recorder."""
        from repro.encoding.encoder import encode_with_retries
        from repro.encoding.substrate import EncoderSubstrate
        from repro.encoding.window import EncodingError, WindowEncoder
        from repro.testdata.cube import TestCube
        from repro.testdata.test_set import TestSet

        real_encode = WindowEncoder.encode
        attempts = []

        def first_attempt_fails(self, test_set):
            attempts.append(test_set)
            if len(attempts) % 2:
                raise EncodingError("synthetic hard conflict\nsecond line")
            return real_encode(self, test_set)

        monkeypatch.setattr(WindowEncoder, "encode", first_attempt_fails)
        test_set = TestSet("retry_event", [TestCube.from_string("11XX")])

        def encode():
            return encode_with_retries(
                test_set, EncoderSubstrate, num_scan_chains=2, lfsr_size=8,
                window_length=4,
            )

        recorder = Recorder(run_id="retry")
        with use_recorder(recorder):
            substrate, _ = encode()
        assert substrate.key.phase_seed == 2009
        events = [e for e in recorder_event_lines(recorder) if e["kind"] != "span"]
        assert [(e["kind"], e["payload"]) for e in events] == [
            (
                "encode.phase_retry",
                {
                    "attempt": 0,
                    "phase_seed": 2008,
                    "lfsr_size": 8,
                    "window_length": 4,
                    "error": "synthetic hard conflict",
                },
            )
        ]
        # Under the default NullRecorder the retry records nothing.
        assert get_recorder().enabled is False
        encode()
        assert len(attempts) == 4
        assert len(recorder.events) == 1

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = json.dumps({"ts": 1.0, "kind": "x"})
        path.write_text(good + "\n" + '{"ts": 2.0, "kin')
        records = list(read_event_log(path))
        assert len(records) == 1

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('not json\n{"ts": 1.0}\n')
        with pytest.raises(json.JSONDecodeError):
            list(read_event_log(path))


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_trace_event_json_shape(self, tmp_path):
        recorder = Recorder(run_id="trace-run")
        with recorder.span("outer", circuit="c"):
            with recorder.span("inner"):
                pass
        trace = chrome_trace(recorder, meta={"host": "test"})
        # Must survive a JSON roundtrip (Perfetto reads the file as JSON).
        trace = json.loads(json.dumps(trace))
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["run_id"] == "trace-run"
        assert trace["otherData"]["host"] == "test"
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == 1  # one pid -> one process_name record
        assert len(complete) == 2
        for event in complete:
            assert event["cat"] == "repro"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
        inner = next(e for e in complete if e["name"] == "inner")
        outer = next(e for e in complete if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_persist_recorder_writes_both_files(self, tmp_path):
        recorder = Recorder(run_id="runx")
        with recorder.span("s"):
            recorder.counter("jobs")
        paths = persist_recorder(tmp_path, recorder, meta=environment_meta())
        assert paths["trace"].exists() and paths["events"].exists()
        assert paths["trace"].name == "runx.trace.json"
        data = json.loads(paths["trace"].read_text())
        assert data["otherData"]["metrics"]["counters"] == {"jobs": 1}
        assert data["otherData"]["python"]
        assert list(read_event_log(paths["events"]))


# ----------------------------------------------------------------------
# Multiprocess collection through the campaign runner
# ----------------------------------------------------------------------
def _tiny_spec(verify=True):
    return CampaignSpec(
        name="tm",
        sources=(TestSource(profile="s13207", scale=0.05, seed=1),),
        base=CompressionConfig(num_scan_chains=32),
        axes={
            "window_length": [40],
            "segment_size": [5, 10],
            "speedup": [3, 6],
        },
        filter="segment_size <= window_length",
        verify=verify,
    )


class TestCampaignTelemetry:
    def test_pool_workers_stream_spans_to_parent(self, tmp_path):
        recorder = Recorder(run_id="pool")
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            _tiny_spec(), store, jobs=2, resume=False, recorder=recorder
        )
        result = runner.run()
        store.close()
        assert result.num_computed == 4
        job_spans = [
            span for span in recorder.spans if span["name"] == "campaign.job"
        ]
        assert len(job_spans) == 4
        # Worker spans carry worker pids distinct from the parent's.
        import os

        pids = {span["pid"] for span in job_spans}
        assert pids and os.getpid() not in pids
        stage_spans = [
            span for span in recorder.spans if span["name"] == "stage.encode"
        ]
        assert len(stage_spans) == 4
        # Worker metrics were merged into the parent registry.
        assert recorder.metrics.counters["solver_trials"] > 0
        assert recorder.metrics.gauges["campaign.workers"] == 2
        assert recorder.metrics.histograms["campaign.queue_wait_s"].count >= 1
        assert recorder.metrics.hit_rates()["encoding"][0] == 2

    def test_inline_run_records_without_double_count(self, tmp_path):
        recorder = Recorder(run_id="inline")
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            _tiny_spec(), store, jobs=1, resume=False, recorder=recorder
        )
        result = runner.run()
        store.close()
        assert result.num_computed == 4
        job_spans = [
            span for span in recorder.spans if span["name"] == "campaign.job"
        ]
        assert len(job_spans) == 4  # exactly once per job, no absorb echo
        assert recorder.metrics.hit_rates()["encoding"] == (
            3,
            4,
            pytest.approx(0.75),
        )

    def test_disabled_recorder_runs_clean(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(_tiny_spec(), store, jobs=1, resume=False)
        result = runner.run()
        store.close()
        assert result.num_computed == 4
        assert result.cache_stat_totals()["encoding_hits"] == 3


# ----------------------------------------------------------------------
# Result store persistent handle
# ----------------------------------------------------------------------
def _record(key: str) -> StoredResult:
    return StoredResult(
        key=key,
        job_id=f"job-{key}",
        circuit="c",
        fingerprint="f",
        config={"window_length": 40},
        status="ok",
        summary={"circuit": "c"},
    )


class TestStoreHandle:
    def test_put_keeps_one_handle_and_flushes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_record("a"))
        handle = store._handle
        assert handle is not None
        store.put(_record("b"))
        assert store._handle is handle  # no reopen per record
        # Flushed per put: another reader sees both records immediately.
        other = ResultStore(tmp_path)
        assert len(other) == 2
        other.close()
        store.close()
        assert store._handle is None
        store.close()  # idempotent

    def test_context_manager_closes(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put(_record("a"))
        assert store._handle is None
        assert len(ResultStore(tmp_path)) == 1

    def test_put_after_close_reopens(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_record("a"))
        store.close()
        store.put(_record("b"))
        store.close()
        assert len(ResultStore(tmp_path)) == 2

    def test_reload_sees_other_writers(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_record("a"))
        store.close()  # hand the writer lock over; the index stays loaded
        other = ResultStore(tmp_path)
        other.put(_record("b"))
        other.close()
        store.reload()
        assert {record.key for record in store.records()} == {"a", "b"}
        store.close()


# ----------------------------------------------------------------------
# CLI stats + bench meta
# ----------------------------------------------------------------------
class TestSurfaces:
    def test_stats_command_aggregates_store_and_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        recorder = Recorder(run_id="statsrun")
        store = ResultStore(tmp_path)
        runner = CampaignRunner(
            _tiny_spec(), store, jobs=1, resume=False, recorder=recorder
        )
        runner.run()
        store.close()
        persist_recorder(tmp_path, recorder, meta=environment_meta())
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "result store: 4 records (4 ok, 0 failed)" in out
        assert "encoding: 3/4 hits (75.0%)" in out
        assert "campaign.job" in out
        assert "statsrun" in out

    def test_stats_command_without_data_fails(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "empty")])

    def test_summary_table_renders_all_sections(self):
        recorder = Recorder(run_id="s")
        with recorder.span("work"):
            pass
        recorder.counter("encoding_hits", 3)
        recorder.counter("encoding_misses", 1)
        recorder.counter("jobs", 2)
        recorder.gauge("workers", 2)
        recorder.observe("wait_s", 0.25)
        text = summary_table(recorder, title="t")
        assert "spans (wall time by name):" in text
        assert "encoding" in text and "75.0%" in text
        assert "jobs" in text
        assert "workers" in text
        assert "wait_s" in text
