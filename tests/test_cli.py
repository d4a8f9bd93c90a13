"""Tests for the command-line interface."""

import pytest

from circuit_library import c17
from repro.circuits.bench import write_bench
from repro.cli import build_parser, main
from repro.testdata.profiles import custom_profile
from repro.testdata.synthetic import generate_test_set


@pytest.fixture()
def cube_file(tmp_path):
    profile = custom_profile(
        "cli_core",
        scan_cells=64,
        num_cubes=25,
        max_specified=8,
        mean_specified=4.0,
        scan_chains=8,
        lfsr_size=16,
    )
    test_set = generate_test_set(profile, seed=9)
    path = tmp_path / "cli_core.tests"
    path.write_text(test_set.to_text())
    return path


@pytest.fixture()
def no_encode(monkeypatch):
    """Make ``pipeline.encode`` fail: a command checks its input first."""
    from repro import pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("the command encoded before checking its input")

    monkeypatch.setattr(pipeline, "encode", refuse)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compress_defaults(self):
        args = build_parser().parse_args(["compress", "--profile", "s13207"])
        assert args.window == 100
        assert args.profile == "s13207"
        assert args.func is not None

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "--profile", "s27"])

    @pytest.mark.parametrize("option", [["-k", "3"], ["-S", "4"]])
    def test_sweep_rejects_options_it_does_not_read(self, option):
        # sweep takes S and k from --segments / --speedups; these options
        # used to parse and be silently ignored.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--profile", "s9234", *option])
        args = build_parser().parse_args(["compress", "--profile", "s9234", *option])
        assert args.func is not None

    @pytest.mark.parametrize(
        "argv",
        [
            ["compress", "--profile", "s9234", "--engine", "events"],
            ["atpg", "--engine", "packed"],
        ],
        ids=["compress", "atpg"],
    )
    def test_engine_flags_are_gone(self, argv):
        # The events engine is the only one the CLI runs; the oracles are
        # reached through the library's engine= only.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--profile", "s9234", "--speedups"],
            ["sweep", "--profile", "s9234", "--segments"],
            ["campaign", "--profiles"],
            ["campaign", "--tests"],
            ["campaign", "--profiles", "s9234", "--windows"],
            ["campaign", "--profiles", "s9234", "--segments"],
            ["campaign", "--profiles", "s9234", "--speedups"],
        ],
        ids=[
            "sweep-speedups", "sweep-segments", "campaign-profiles",
            "campaign-tests", "campaign-windows", "campaign-segments",
            "campaign-speedups",
        ],
    )
    def test_empty_list_option_is_a_usage_error(
        self, tmp_path, monkeypatch, no_encode, argv
    ):
        # An empty list used to run an empty sweep, or a campaign on the
        # config default in place of the option's documented default.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--scale", "0.03"])
        assert excinfo.value.code == 2


class TestCompressCommand:
    def test_compress_from_cube_file(self, cube_file, capsys):
        code = main(
            [
                "compress",
                "--tests",
                str(cube_file),
                "--chains",
                "8",
                "-L",
                "20",
                "-S",
                "4",
                "-k",
                "6",
                "--simulate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "State Skip LFSR compression" in out
        assert "Decompressor hardware" in out
        assert "all 25 cubes delivered" in out

    def test_no_encode_sees_compress(self, cube_file, no_encode):
        # Positive control of the fixture: a valid compress reaches
        # pipeline.encode, so the check-before-encode tests can see an
        # encode that runs before the input is checked.
        with pytest.raises(AssertionError, match="encoded before checking"):
            main(["compress", "--tests", str(cube_file), "--chains", "8",
                  "-L", "20", "-S", "4", "-k", "6"])

    def test_compress_requires_source(self):
        with pytest.raises(SystemExit):
            main(["compress", "-L", "10"])

    @pytest.mark.parametrize(
        "options, reason",
        [
            (["--profile", "s9234", "-S", "0"], "segment_size 0 must be in"),
            (
                ["--profile", "s9234", "-L", "20", "-S", "30"],
                "segment_size 30 must be in [1, window_length 20]",
            ),
            (["--profile", "s9234", "--lfsr", "6"], "the densest cube specifies"),
            (["--profile", "s9234", "--scale", "0"], "scale must be in"),
            (["--tests", "missing.tests"], "No such file"),
            (["--tests", "z.tests"], "invalid cube character 'Z'"),
        ],
        ids=["S-0", "S-over-L", "lfsr-below-smax", "scale-0", "missing-file", "Z-cube"],
    )
    def test_compress_rejects_bad_input_in_one_line(
        self, tmp_path, monkeypatch, options, reason
    ):
        (tmp_path / "z.tests").write_text("01X\n0Z1\n")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["compress", *options])
        message = str(excinfo.value.code)
        assert message.startswith("repro compress: ")
        assert reason in message
        assert "\n" not in message

    def test_compress_from_profile(self, capsys):
        code = main(
            [
                "compress",
                "--profile",
                "s13207",
                "--scale",
                "0.03",
                "-L",
                "20",
                "-S",
                "4",
                "-k",
                "8",
            ]
        )
        assert code == 0
        assert "s13207" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_from_cube_file(self, cube_file, capsys):
        code = main(
            [
                "sweep",
                "--tests",
                str(cube_file),
                "--chains",
                "8",
                "-L",
                "20",
                "--speedups",
                "3",
                "12",
                "--segments",
                "4",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TSL improvement" in out
        assert "S=4" in out

    @pytest.mark.parametrize(
        "options, reason",
        [
            (["--speedups", "3", "0"], "speedup 0 must be at least 1"),
            (["--segments", "0"], "segment_size 0 must be in"),
            (
                ["-L", "20", "--segments", "4", "30"],
                "segment_size 30 must be in [1, window_length 20]",
            ),
            (["--lfsr", "6"], "the densest cube specifies"),
            (["--scale", "0"], "scale must be in"),
            # No default segment size fits in L = 3.
            (["-L", "3"], "segment_size 4 must be in [1, window_length 3]"),
        ],
        ids=[
            "k-0", "S-0", "S-over-L", "lfsr-below-smax", "scale-0",
            "default-S-over-L",
        ],
    )
    def test_sweep_checks_every_point_before_encoding(
        self, no_encode, options, reason
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--profile", "s9234", "--scale", "0.03", *options])
        message = str(excinfo.value.code)
        assert message.startswith("repro sweep: ")
        assert reason in message

    def test_sweep_default_segments_fit_the_window(self, capsys):
        # Without --segments, the default sizes above -L drop out (S=20
        # here), as campaign's segment_size <= window_length filter does.
        code = main(
            ["sweep", "--profile", "s9234", "--scale", "0.03", "-L", "10",
             "--speedups", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "S=4" in out and "S=10" in out
        assert "S=20" not in out


class TestCampaignCommand:
    @pytest.mark.parametrize(
        "options, reason",
        [
            (["--speedups", "3", "0"], "speedup 0 must be at least 1"),
            (["--segments", "4", "0"], "segment_size 0 must be in"),
        ],
        ids=["k-0", "S-0"],
    )
    def test_campaign_checks_every_point_before_encoding(
        self, tmp_path, no_encode, options, reason
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--profiles", "s9234", "--scale", "0.03",
                  "--windows", "20", "--jobs", "1",
                  "--store", str(tmp_path / "store"), *options])
        message = str(excinfo.value.code)
        assert message.startswith("campaign failed: ")
        assert reason in message

    def test_campaign_reports_every_context_cache(self, cube_file, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--tests",
                str(cube_file),
                "--chains",
                "8",
                "--windows",
                "20",
                "--segments",
                "4",
                "10",
                "--speedups",
                "3",
                "6",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        (line,) = [line for line in out.splitlines() if line.startswith("context cache:")]
        # four (S, k) jobs over one encoding: verification builds the
        # cover and all four reductions hit it
        assert "encoding 3/4 hits" in line
        assert "cover 4/5 hits" in line


class TestAtpgCommand:
    def test_atpg_on_bench_file(self, tmp_path, capsys):
        bench_path = tmp_path / "c17.bench"
        bench_path.write_text(write_bench(c17()))
        out_path = tmp_path / "c17.tests"
        code = main(
            ["atpg", "--bench", str(bench_path), "--output", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        assert "coverage 100.0%" in capsys.readouterr().out

    def test_atpg_on_generated_circuit(self, capsys):
        code = main(["atpg", "--inputs", "10", "--gates", "30", "--seed", "4"])
        assert code == 0
        assert "collapsed faults" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bench_text, reason",
        [
            ("INPUT(a)\nOUTPUT(b)\nb = FOO(a)\n", "unknown gate type 'FOO'"),
            (None, "No such file"),
        ],
        ids=["unknown-gate", "missing-file"],
    )
    def test_atpg_rejects_bad_bench_in_one_line(self, tmp_path, bench_text, reason):
        bench_path = tmp_path / "bad.bench"
        if bench_text is not None:
            bench_path.write_text(bench_text)
        with pytest.raises(SystemExit) as excinfo:
            main(["atpg", "--bench", str(bench_path)])
        message = str(excinfo.value.code)
        assert message.startswith("repro atpg: ")
        assert reason in message


class TestTraceOption:
    def test_compress_trace_prints_summary_and_persists(
        self, cube_file, tmp_path, capsys
    ):
        import json

        trace_dir = tmp_path / "traces"
        code = main(
            ["compress", "--tests", str(cube_file), "--chains", "8", "-L", "20",
             "-S", "4", "-k", "6", "--trace", "--trace-dir", str(trace_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compress telemetry" in out
        assert "stage.encode" in out
        (trace_path,) = trace_dir.glob("telemetry/*.trace.json")
        trace = json.loads(trace_path.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "stage.encode" in names
        (events_path,) = trace_dir.glob("telemetry/*.events.jsonl")
        assert events_path.read_text().strip()


class TestProfileStats:
    def test_compress_dumps_cprofile_stats(self, cube_file, tmp_path, capsys):
        stats_path = tmp_path / "compress.pstats"
        code = main(
            [
                "compress",
                "--tests",
                str(cube_file),
                "--chains",
                "8",
                "-L",
                "20",
                "-S",
                "4",
                "-k",
                "6",
                "--profile-stats",
                str(stats_path),
            ]
        )
        assert code == 0
        assert stats_path.exists()
        out = capsys.readouterr().out
        assert "profile written to" in out
        assert "State Skip LFSR compression" in out
        # The dump must be loadable by the pstats machinery.
        import pstats

        stats = pstats.Stats(str(stats_path))
        assert stats.total_calls > 0
