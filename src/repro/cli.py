"""Command-line interface of the State Skip LFSR flow.

The sub-commands cover the day-to-day uses of the library without writing
Python:

``compress``
    Compress a test set (a ``.tests`` text file of 0/1/X cube strings, or a
    calibrated benchmark profile) and print the figures of merit.

``sweep``
    Sweep the speedup factor ``k`` (``--speedups``) and segment size ``S``
    (``--segments``) for one test set and print the Fig. 4-style
    TSL-improvement grid (single process; the staged pipeline encodes once
    and reuses the cached seed windows for every reduction).

``campaign``
    Run a full experiment grid -- many circuits x (L, S, k) configs -- on a
    multiprocessing worker pool with a persistent, content-addressed result
    store.  Jobs sharing an encoding are grouped onto one worker with a
    shared CompressionContext (the substrate and the seeds are computed
    once per group); per-stage timings and context-cache hit counts are
    printed after the run.  Re-running with ``--resume`` skips every
    already-completed job.  Workers that die hard (SIGKILL, OOM) are
    respawned and their unfinished jobs retried with backoff (bounded by
    ``--max-retries``); Ctrl-C terminates the pool, keeps everything
    already streamed into the store and exits 130.

``lint``
    Run the static verification subsystem (:mod:`repro.staticcheck`) over
    ``src/`` and ``tests/``: IR verifiers, repo-specific AST lint
    rules and concurrency-hazard checks.  One ``path:line: rule-id
    message`` per violation; exits 0 clean, 1 on violations, 2 on an
    analyzer internal error.  ``--rules`` selects a subset,
    ``--format=json`` emits a machine-readable report, ``--fix-hints``
    appends the per-rule remediation hint.

``atpg``
    Run the built-in PODEM ATPG on a ``.bench`` netlist (or on a generated
    random circuit) and write the resulting test-cube file.  ``--engine``
    selects the backend from the engine registry (``reference``,
    ``packed`` or ``events`` -- the default); every engine produces
    identical cubes, so the slower ones exist for cross-checks.

``stats``
    Aggregate the telemetry persisted by ``--trace`` runs (and the result
    store itself) from a store directory: span wall-time rollup, counters,
    cache hit-rates and histogram digests across every recorded run.

``compress``, ``campaign`` and ``atpg`` accept ``--trace``: the run is
recorded by the telemetry subsystem (hierarchical spans, metrics, event
log), a summary table is printed, and a Chrome-trace JSON (loadable in
Perfetto / ``chrome://tracing``) plus a JSONL event log are written --
next to the campaign results for ``campaign``, under ``--trace-dir``
otherwise.

Examples
--------
::

    python -m repro compress --profile s13207 --scale 0.1 -L 100 -S 10 -k 12
    python -m repro compress --tests my_core.tests --chains 16 -L 60 -k 8
    python -m repro compress --profile s9234 --profile-stats compress.pstats
    python -m repro sweep --profile s9234 --scale 0.1 -L 100
    python -m repro campaign --profiles s13207 s9234 --scale 0.1 \\
        --windows 50 100 --segments 4 10 --speedups 3 6 12 24 \\
        --jobs 4 --store results/campaign --resume --report
    python -m repro campaign --spec fig4.toml --jobs 8 --resume
    python -m repro campaign --profiles s13207 --jobs 4 --trace \\
        --store results/campaign
    python -m repro stats results/campaign
    python -m repro atpg --bench my_core.bench --output my_core.tests
    python -m repro lint
    python -m repro lint --rules bounded-cache,worker-shared-state --fix-hints
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import List, Optional

from repro.config import CompressionConfig
from repro.pipeline import compress
from repro.reporting import format_table, improvement_table
from repro.testdata.literature import tsl_improvement
from repro.testdata.profiles import get_profile, profile_names
from repro.testdata.synthetic import generate_test_set
from repro.testdata.test_set import TestSet


def _load_test_set(args: argparse.Namespace) -> TestSet:
    """Resolve the test set from either --tests or --profile."""
    if args.tests:
        path = Path(args.tests)
        return TestSet.from_text(path.read_text(), name=path.stem)
    if args.profile:
        profile = get_profile(args.profile)
        return generate_test_set(profile, seed=args.seed, scale=args.scale)
    raise SystemExit("either --tests or --profile is required")


def _engine_choices():
    from repro.circuits.backends import backend_names

    return backend_names()


def _config_from_args(args: argparse.Namespace, test_set: TestSet) -> CompressionConfig:
    lfsr_size = args.lfsr
    if lfsr_size is None and args.profile:
        lfsr_size = get_profile(args.profile).lfsr_size
    return CompressionConfig(
        window_length=args.window,
        segment_size=min(args.segment, args.window),
        speedup=args.speedup,
        num_scan_chains=args.chains,
        lfsr_size=lfsr_size,
        engine=args.engine,
    )


def _add_trace_options(parser: argparse.ArgumentParser,
                       trace_dir: Optional[str] = None) -> None:
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--trace", action="store_true",
        help="record telemetry (spans, counters, histograms, events); "
             "prints a summary table and writes a Chrome-trace JSON plus "
             "a JSONL event log",
    )
    if trace_dir is not None:
        group.add_argument(
            "--trace-dir", default=trace_dir, metavar="DIR",
            help="directory for the telemetry files written by --trace "
                 f"(default {trace_dir})",
        )


def _emit_telemetry(recorder, directory, title: str) -> None:
    """Print the summary table and persist the trace + event log."""
    from repro.telemetry import environment_meta, persist_recorder, summary_table

    print()
    print(summary_table(recorder, title=title))
    if directory:
        paths = persist_recorder(directory, recorder, meta=environment_meta())
        print(f"\ntelemetry written: {paths['trace']}")
        print(f"                   {paths['events']}")


def _add_common_options(parser: argparse.ArgumentParser):
    """The test-set source and encode options; returns the hardware group."""
    source = parser.add_argument_group("test-set source")
    source.add_argument("--tests", help="path to a 0/1/X cube file (one cube per line)")
    source.add_argument(
        "--profile", choices=profile_names(), help="calibrated benchmark profile"
    )
    source.add_argument("--scale", type=float, default=0.1,
                        help="cube-count scale for --profile (default 0.1)")
    source.add_argument("--seed", type=int, default=1, help="generator RNG seed")
    hw = parser.add_argument_group("decompressor parameters")
    hw.add_argument("-L", "--window", type=int, default=100, help="window length L")
    hw.add_argument("--chains", type=int, default=32, help="number of scan chains")
    hw.add_argument("--lfsr", type=int, default=None, help="LFSR size (default: auto)")
    return hw


def _cmd_compress(args: argparse.Namespace) -> int:
    try:
        if args.trace:
            from repro.telemetry import Recorder, use_recorder

            recorder = Recorder()
            with use_recorder(recorder):
                status = _run_compress(args)
            _emit_telemetry(recorder, args.trace_dir, "compress telemetry")
            return status
        return _run_compress(args)
    except KeyboardInterrupt:
        print(
            "\ninterrupted: compression abandoned, nothing written",
            file=sys.stderr,
        )
        return 130


def _run_compress(args: argparse.Namespace) -> int:
    test_set = _load_test_set(args)
    config = _config_from_args(args, test_set)
    context = None
    recorder = None
    if args.trace:
        from repro.telemetry import get_recorder

        recorder = get_recorder()
    if recorder is not None and recorder.enabled:
        # Bind the pipeline's context stats to the recorder registry so
        # cache counters and stage timings land in the telemetry summary.
        from repro.context import CompressionContext, ContextStats

        context = CompressionContext(stats=ContextStats(registry=recorder.metrics))
    if args.profile_stats:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        report = compress(
            test_set, config, verify=True, simulate=args.simulate, context=context
        )
        profiler.disable()
        profiler.dump_stats(args.profile_stats)
        stats = pstats.Stats(profiler).sort_stats("cumulative")
        print(f"profile written to {args.profile_stats} (top 10 by cumulative):")
        stats.print_stats(10)
    else:
        report = compress(
            test_set, config, verify=True, simulate=args.simulate, context=context
        )
    rows = [report.summary()]
    print(format_table(rows, title="State Skip LFSR compression"))
    print(
        format_table(
            [report.hardware.breakdown()],
            title="Decompressor hardware (gate equivalents)",
        )
    )
    if args.simulate:
        print(
            f"decompressor simulation: {report.simulation.vectors_applied} vectors, "
            f"all {report.encoding.num_cubes} cubes delivered"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro import pipeline
    from repro.context import CompressionContext

    test_set = _load_test_set(args)
    lfsr_size = args.lfsr
    if lfsr_size is None and args.profile:
        lfsr_size = get_profile(args.profile).lfsr_size
    if lfsr_size is None:
        lfsr_size = test_set.max_specified() + 8
    # Staged pipeline: encode once, sweep every (S, k) reduction against the
    # shared context (the seed windows are expanded exactly once).
    context = CompressionContext()
    # segment_size=1 keeps the base config valid for any window length; the
    # swept (S, k) points are applied per reduction below (the encode stage
    # ignores the reduction knobs either way).
    base = CompressionConfig(
        window_length=args.window,
        segment_size=1,
        num_scan_chains=min(args.chains, test_set.num_cells),
        lfsr_size=lfsr_size,
    )
    encoded = pipeline.encode(test_set, base, context=context, verify=False)
    encoding = encoded.encoding
    print(
        f"{test_set.name}: {len(test_set)} cubes, {encoding.num_seeds} seeds, "
        f"TDV {encoding.test_data_volume} bits, window TSL "
        f"{encoding.test_sequence_length} vectors\n"
    )
    sweep = {}
    for k in args.speedups:
        sweep[k] = {}
        for segment_size in args.segments:
            reduction = pipeline.reduce(
                encoded,
                base.with_updates(
                    segment_size=min(segment_size, args.window), speedup=k
                ),
            )
            sweep[k][segment_size] = round(
                tsl_improvement(
                    reduction.test_sequence_length, encoding.test_sequence_length
                ),
                1,
            )
    print(improvement_table(test_set.name, sweep))
    return 0


def _build_campaign_spec(args: argparse.Namespace):
    from repro.campaign.spec import CampaignSpec, TestSource

    if args.spec:
        return CampaignSpec.from_file(args.spec)
    sources = []
    for profile in args.profiles or []:
        sources.append(TestSource(profile=profile, scale=args.scale, seed=args.seed))
    for tests in args.tests or []:
        sources.append(TestSource(tests=tests))
    if not sources:
        raise SystemExit("either --spec, --profiles or --tests is required")
    axes = {}
    if args.windows:
        axes["window_length"] = args.windows
    if args.segments:
        axes["segment_size"] = args.segments
    if args.speedups:
        axes["speedup"] = args.speedups
    return CampaignSpec(
        name=args.name,
        sources=tuple(sources),
        base=CompressionConfig(num_scan_chains=args.chains),
        axes=axes,
        filter="segment_size <= window_length",
        verify=not args.no_verify,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.report import campaign_report
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.store import ResultStore, StoreLockedError

    recorder = None
    if args.trace:
        from repro.telemetry import Recorder

        recorder = Recorder()
    try:
        spec = _build_campaign_spec(args)
        store = ResultStore(args.store)
        runner = CampaignRunner(
            spec,
            store,
            jobs=args.jobs,
            timeout=args.timeout,
            resume=args.resume,
            recorder=recorder,
            max_retries=args.max_retries,
            retry_backoff_s=args.retry_backoff,
        )
    except (OSError, ValueError, RuntimeError, KeyError) as error:
        raise SystemExit(f"campaign setup failed: {error}")

    def progress(outcome):
        line = f"[{outcome.status:>7}] {outcome.job.job_id}"
        if outcome.status == "ok":
            line += f"  ({outcome.elapsed_s:.2f}s)"
        elif not outcome.ok and outcome.error:
            line += f"  {outcome.error.splitlines()[-1]}"
        if outcome.retried:
            line += f"  [survived {outcome.retried} worker crash(es)]"
        print(line)

    try:
        result = runner.run(progress=progress)
    except StoreLockedError as error:
        store.close()
        raise SystemExit(f"campaign refused: {error}")
    except KeyboardInterrupt:
        # The workers are already terminated and every streamed result is
        # flushed; close releases the writer lock, then report what the
        # store keeps so a --resume rerun is an informed choice.
        store.close()
        print(
            f"\ninterrupted: {len(store)} result(s) persisted in "
            f"{store.path}; re-run with --resume to continue",
            file=sys.stderr,
        )
        return 130
    except (OSError, ValueError) as error:
        # parent-side failures (unreadable/malformed source files, spec
        # expansion) -- per-job errors are captured in the outcomes instead
        raise SystemExit(f"campaign failed: {error}")
    finally:
        store.close()
    retry_note = (
        f", {result.total_retries} crash retr"
        f"{'y' if result.total_retries == 1 else 'ies'}"
        if result.total_retries
        else ""
    )
    print(
        f"\ncampaign {result.campaign}: {result.num_jobs} jobs -- "
        f"{result.num_computed} computed, {result.num_cached} cached, "
        f"{result.num_failed} failed{retry_note} (store: {store.path})"
    )
    timings = result.stage_timing_totals()
    if timings:
        # substrate_build / expand_seeds are context-internal sub-timings
        # already contained in the enclosing stage walls -- render them
        # separately so the stage list sums to the total.
        inner = {
            name: timings.pop(name)
            for name in ("substrate_build", "expand_seeds")
            if name in timings
        }
        rendered = ", ".join(
            f"{stage} {seconds:.2f}s" for stage, seconds in sorted(timings.items())
        )
        line = (f"stage timings: {rendered} "
                f"(total compute {result.total_elapsed_s:.2f}s")
        if inner:
            line += "; of which " + ", ".join(
                f"{name} {seconds:.2f}s" for name, seconds in sorted(inner.items())
            )
        print(line + ")")
    cache = result.cache_stat_totals()
    if cache:
        parts = []
        for kind in ("substrate", "encoding", "window", "packed_window"):
            hits = cache.get(f"{kind}_hits", 0)
            misses = cache.get(f"{kind}_misses", 0)
            if hits or misses:
                parts.append(f"{kind} {hits}/{hits + misses} hits")
        if parts:
            print(f"context cache: {', '.join(parts)}")
    if args.report:
        # report this run's jobs only -- a shared store directory may hold
        # results of other campaigns
        print()
        print(campaign_report(result.rows(), title=result.campaign,
                              cache_stats=cache))
    if recorder is not None:
        _emit_telemetry(recorder, store.root,
                        f"campaign telemetry ({result.campaign})")
    return 1 if result.num_failed else 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from repro.circuits.atpg import generate_test_set_for_netlist
    from repro.circuits.bench import parse_bench
    from repro.circuits.generator import random_netlist

    if args.bench:
        path = Path(args.bench)
        netlist = parse_bench(path.read_text(), name=path.stem)
    else:
        netlist = random_netlist(
            "generated", num_inputs=args.inputs, num_gates=args.gates, seed=args.seed
        )
    recorder = None
    if args.trace:
        from repro.telemetry import Recorder, use_recorder

        recorder = Recorder()
        with use_recorder(recorder):
            result = generate_test_set_for_netlist(
                netlist, fill_seed=args.seed, engine=args.engine
            )
    else:
        result = generate_test_set_for_netlist(
            netlist, fill_seed=args.seed, engine=args.engine
        )
    stats = result.test_set.stats()
    print(
        f"{netlist.name}: {netlist.num_gates} gates, "
        f"{result.total_faults} collapsed faults, "
        f"coverage {result.effective_coverage_percent:.1f}%, "
        f"{stats.num_cubes} cubes (s_max={stats.max_specified})"
    )
    if args.output:
        Path(args.output).write_text(result.test_set.to_text())
        print(f"wrote {args.output}")
    if recorder is not None:
        _emit_telemetry(recorder, args.trace_dir,
                        f"atpg telemetry ({netlist.name})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json
    from types import SimpleNamespace

    from repro.campaign.report import cache_hit_rate_lines
    from repro.telemetry import (
        MetricsRegistry,
        read_event_log,
        summary_table,
    )

    root = Path(args.store)
    telemetry_dir = root / "telemetry"
    trace_files = sorted(telemetry_dir.glob("*.trace.json"))
    event_files = sorted(telemetry_dir.glob("*.events.jsonl"))

    registry = MetricsRegistry()
    run_ids = []
    for trace_path in trace_files:
        try:
            other = json.loads(trace_path.read_text(encoding="utf-8")).get(
                "otherData", {}
            )
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: skipping unreadable trace {trace_path}: {error}")
            continue
        registry.merge(other.get("metrics", {}))
        run_ids.append(str(other.get("run_id", trace_path.stem)))

    spans = []
    num_events = 0
    for events_path in event_files:
        for record in read_event_log(events_path):
            if record.get("kind") == "span":
                spans.append(record.get("payload") or {})
            else:
                num_events += 1

    sections = []
    results_path = root / "results.jsonl"
    if results_path.exists():
        from repro.campaign.store import ResultStore

        # Read-only: never touches the writer lock or the file, so stats
        # works against a store a live campaign is writing right now.
        with ResultStore(root, read_only=True) as store:
            records = store.records()
            writer = store.writer_pid()
        if writer is not None:
            sections.append(
                f"note: a live campaign (pid {writer}) is writing this store"
            )
        num_ok = sum(1 for record in records if record.ok)
        cache_totals: dict = {}
        elapsed = 0.0
        for record in records:
            elapsed += record.elapsed_s
            for name, value in (record.cache_stats or {}).items():
                cache_totals[name] = cache_totals.get(name, 0) + value
        sections.append(
            f"result store: {len(records)} records ({num_ok} ok, "
            f"{len(records) - num_ok} failed), "
            f"total compute {elapsed:.2f}s"
        )
        rate_lines = cache_hit_rate_lines(cache_totals)
        if rate_lines:
            sections.append("stored cache hit-rates:")
            sections.extend(rate_lines)

    if not trace_files and not event_files:
        if not sections:
            raise SystemExit(
                f"no telemetry or results under {root} "
                f"(run a command with --trace first)"
            )
        print("\n".join(sections))
        print(f"\nno telemetry under {telemetry_dir} "
              f"(run a command with --trace to record some)")
        return 0

    if sections:
        print("\n".join(sections))
        print()
    # summary_table only reads .spans and .metrics -- an aggregate view
    # over every persisted run is just those two merged.
    aggregate = SimpleNamespace(spans=spans, metrics=registry, run_id="aggregate")
    title = (f"telemetry for {root} -- {len(run_ids)} run(s), "
             f"{len(spans)} spans, {num_events} events")
    print(summary_table(aggregate, title=title))
    if run_ids:
        print(f"\nruns: {', '.join(sorted(run_ids))}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticcheck import format_json, format_text, run_lint

    root = Path(args.root).resolve()
    paths = [Path(p) for p in args.paths] if args.paths else None
    rules = [name for group in (args.rules or []) for name in group if name]
    try:
        report = run_lint(root, paths=paths, rules=rules or None)
    except Exception:  # pragma: no cover - analyzer crash guard
        traceback.print_exc()
        return 2
    if args.format == "json":
        print(format_json(report))
    else:
        print(format_text(report, fix_hints=args.fix_hints))
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="State Skip LFSR test set embedding"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress_parser = sub.add_parser("compress", help="compress a test set")
    hw = _add_common_options(compress_parser)
    hw.add_argument("-S", "--segment", type=int, default=10, help="segment size S")
    hw.add_argument("-k", "--speedup", type=int, default=12, help="State Skip speedup k")
    hw.add_argument(
        "--engine", choices=_engine_choices(), default=None,
        help="simulation engine backend wherever the pipeline simulates "
             "circuits or replays the decompressor (default: REPRO_ENGINE "
             "or 'events'; all engines are bit-identical)",
    )
    compress_parser.add_argument(
        "--simulate", action="store_true",
        help="replay the clock-level decompressor simulation",
    )
    compress_parser.add_argument(
        "--profile-stats", metavar="PATH",
        help="run under cProfile and dump binary pstats output to PATH",
    )
    _add_trace_options(compress_parser, trace_dir="results")
    compress_parser.set_defaults(func=_cmd_compress)

    sweep_parser = sub.add_parser("sweep", help="sweep k and S (Fig. 4 style)")
    _add_common_options(sweep_parser)
    sweep_parser.add_argument(
        "--speedups", type=int, nargs="*", default=[3, 6, 12, 24]
    )
    sweep_parser.add_argument("--segments", type=int, nargs="*", default=[4, 10, 20])
    sweep_parser.set_defaults(func=_cmd_sweep)

    campaign_parser = sub.add_parser(
        "campaign",
        help="run an experiment grid on a worker pool with a result store",
    )
    campaign_parser.add_argument(
        "--spec", help="campaign spec file (.toml or .json); overrides grid flags"
    )
    grid = campaign_parser.add_argument_group("inline grid (no --spec)")
    grid.add_argument("--name", default="campaign", help="campaign name")
    grid.add_argument(
        "--profiles", nargs="*", choices=profile_names(),
        help="benchmark profiles to sweep",
    )
    grid.add_argument(
        "--tests", nargs="*", help="paths to 0/1/X cube files to sweep"
    )
    grid.add_argument("--scale", type=float, default=0.1,
                      help="cube-count scale for profile sources (default 0.1)")
    grid.add_argument("--seed", type=int, default=1, help="generator RNG seed")
    grid.add_argument("--windows", type=int, nargs="*", default=[100],
                      help="window lengths L to sweep")
    grid.add_argument("--segments", type=int, nargs="*", default=[4, 10],
                      help="segment sizes S to sweep")
    grid.add_argument("--speedups", type=int, nargs="*", default=[3, 6, 12, 24],
                      help="State Skip speedups k to sweep")
    grid.add_argument("--chains", type=int, default=32, help="number of scan chains")
    grid.add_argument("--no-verify", action="store_true",
                      help="skip per-job encoding verification")
    execution = campaign_parser.add_argument_group("execution")
    execution.add_argument("--store", default="results/campaign",
                           help="result-store directory (default results/campaign)")
    execution.add_argument("--jobs", type=int, default=1,
                           help="worker processes (default 1: run inline)")
    execution.add_argument("--timeout", type=float, default=None,
                           help="per-job timeout in seconds")
    execution.add_argument("--resume", action="store_true",
                           help="skip jobs already completed in the store")
    execution.add_argument(
        "--max-retries", type=int, default=2,
        help="worker crashes a single job may be blamed for before it is "
             "recorded as an exhausted error (default 2); crashed chunks "
             "are requeued on respawned workers with exponential backoff",
    )
    execution.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base crash-retry backoff, doubled per retry of the same job "
             "with jitter (default 0.5)",
    )
    execution.add_argument("--report", action="store_true",
                           help="print the aggregated improvement grids")
    # no --trace-dir: campaign telemetry lands next to the result store,
    # where ``repro stats`` looks for it
    _add_trace_options(campaign_parser)
    campaign_parser.set_defaults(func=_cmd_campaign)

    atpg_parser = sub.add_parser("atpg", help="run PODEM ATPG on a netlist")
    atpg_parser.add_argument("--bench", help="path to a .bench netlist")
    atpg_parser.add_argument("--inputs", type=int, default=32,
                             help="inputs of the generated circuit (no --bench)")
    atpg_parser.add_argument("--gates", type=int, default=150,
                             help="gates of the generated circuit (no --bench)")
    atpg_parser.add_argument("--seed", type=int, default=1)
    atpg_parser.add_argument("--output", help="write the cube file here")
    atpg_parser.add_argument(
        "--engine", choices=_engine_choices(), default=None,
        help="PODEM / fault-sim engine backend (default: REPRO_ENGINE or "
             "'events'; all engines produce identical cubes)",
    )
    _add_trace_options(atpg_parser, trace_dir="results")
    atpg_parser.set_defaults(func=_cmd_atpg)

    stats_parser = sub.add_parser(
        "stats",
        help="aggregate persisted telemetry (and stored results) "
             "from a store directory",
    )
    stats_parser.add_argument(
        "store",
        help="store directory holding results.jsonl and/or telemetry/ "
             "files written by --trace runs",
    )
    stats_parser.set_defaults(func=_cmd_stats)

    lint_parser = sub.add_parser(
        "lint",
        help="static verification: IR verifiers, repo lint rules "
             "and concurrency-hazard checks (exit 0/1/2)",
    )
    lint_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/ and tests/ "
             "under --root)",
    )
    lint_parser.add_argument(
        "--root", default=".", metavar="DIR",
        help="repo root for relative paths in the report (default .)",
    )
    lint_parser.add_argument(
        "--rules", action="append", metavar="RULE[,RULE...]",
        type=lambda value: value.split(","),
        help="run only these rules (repeatable, comma-separated)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    lint_parser.add_argument(
        "--fix-hints", action="store_true",
        help="append each rule's remediation hint after its violations",
    )
    lint_parser.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
