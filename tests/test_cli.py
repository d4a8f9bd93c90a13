"""Tests for the command-line interface."""

import pytest

from repro.circuits.bench import write_bench
from repro.circuits.library import c17
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

    def test_compress_requires_source(self):
        with pytest.raises(SystemExit):
            main(["compress", "-L", "10"])

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

    def test_atpg_engine_flags_agree(self, tmp_path, capsys):
        """--engine packed and --engine reference produce the default's cubes."""
        outputs = {}
        for engine in ("default", "packed", "reference"):
            out_path = tmp_path / f"{engine}.tests"
            argv = [
                "atpg", "--inputs", "10", "--gates", "40", "--seed", "4",
                "--output", str(out_path),
            ]
            if engine != "default":
                argv += ["--engine", engine]
            assert main(argv) == 0
            outputs[engine] = out_path.read_text()
        capsys.readouterr()
        assert outputs["default"] == outputs["packed"]
        assert outputs["default"] == outputs["reference"]


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
