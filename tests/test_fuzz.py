"""Tests of the fuzzing subsystem: generators, oracle, shrinker, runner, CLI.

The differential checks themselves are exercised twice: once as-is
(they must all pass on a healthy tree) and once against a *planted*
engine mutation (they must catch it, shrink it and write a repro).
"""

import json

import pytest

from repro.cli import main
from repro.fuzz import (
    CHECKS,
    Check,
    FuzzCase,
    chaos_check_names,
    differential_check_names,
    load_case,
    replay_case,
    resolve_checks,
    run_case,
    run_fuzz,
    shrink_case,
    write_repro,
)
from repro.fuzz.generators import case_netlist, case_test_set, draw_params
from repro.fuzz.shrink import ShrinkResult


# ----------------------------------------------------------------------
# Registry and generators
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_engine_pair_has_a_check(self):
        assert set(differential_check_names()) == {
            "ternary-sim",
            "event-propagate",
            "podem-events",
            "podem-packed",
            "drop-batch",
            "solver-batch",
            "embedding",
            "decompressor",
        }
        assert set(chaos_check_names()) == {
            "chaos-worker-kill",
            "chaos-store-tail",
        }

    def test_resolve_checks_validates_names(self):
        assert resolve_checks(["ternary-sim", "embedding"]) == [
            "ternary-sim",
            "embedding",
        ]
        # default selection excludes chaos checks
        assert resolve_checks() == differential_check_names()
        assert "chaos-worker-kill" in resolve_checks(include_chaos=True)
        with pytest.raises(ValueError, match="unknown fuzz check"):
            resolve_checks(["no-such-check"])

    def test_draws_stay_inside_the_space_and_are_deterministic(self):
        check = CHECKS["ternary-sim"]
        a = check.draw(__import__("random").Random(5))
        b = check.draw(__import__("random").Random(5))
        assert a == b
        for name, value in a.params.items():
            low, high, floor = check.space[name]
            assert low <= value <= high
            assert floor <= low


class TestGenerators:
    def test_case_artifacts_are_reproducible(self):
        case = FuzzCase(
            check="ternary-sim",
            seed=123,
            params={"num_inputs": 8, "num_gates": 30, "patterns": 4},
        )
        from repro.circuits.bench import write_bench

        assert write_bench(case_netlist(case)) == write_bench(case_netlist(case))

        ts_case = FuzzCase(
            check="solver-batch",
            seed=9,
            params={
                "num_cells": 32, "num_cubes": 8, "max_specified": 6,
                "chains": 4, "window": 20, "segment": 4, "speedup": 3,
            },
        )
        assert case_test_set(ts_case).to_text() == case_test_set(ts_case).to_text()

    def test_draw_params_order_independent_of_dict_order(self):
        import random as random_mod

        space_a = {"x": (1, 9, 1), "y": (10, 90, 10)}
        space_b = {"y": (10, 90, 10), "x": (1, 9, 1)}
        assert draw_params(random_mod.Random(3), space_a) == draw_params(
            random_mod.Random(3), space_b
        )

    def test_case_round_trips_through_dict(self):
        case = FuzzCase(check="embedding", seed=4, params={"num_cells": 24})
        assert FuzzCase.from_dict(case.to_dict()) == case


# ----------------------------------------------------------------------
# Differential checks on a healthy tree
# ----------------------------------------------------------------------
class TestChecksPassOnHead:
    @pytest.mark.parametrize("name", [
        "ternary-sim", "podem-events", "podem-packed", "drop-batch",
        "solver-batch", "embedding", "decompressor",
    ])
    def test_check_passes(self, name):
        import random as random_mod

        check = CHECKS[name]
        outcome = run_case(check, check.draw(random_mod.Random(0)))
        assert outcome.status == "ok", outcome.detail


class TestChaosChecks:
    """The chaos checks are the fuzz-side mirror of the campaign
    resilience tests: run each once end to end."""

    @pytest.mark.skipif(
        not __import__("os").name == "posix", reason="chaos checks fork"
    )
    def test_worker_kill_chaos_check_passes(self):
        import random as random_mod

        check = CHECKS["chaos-worker-kill"]
        outcome = run_case(check, check.draw(random_mod.Random(1)))
        assert outcome.status in ("ok", "skip"), outcome.detail

    def test_store_tail_chaos_check_passes(self):
        import random as random_mod

        check = CHECKS["chaos-store-tail"]
        for seed in range(3):
            outcome = run_case(check, check.draw(random_mod.Random(seed)))
            assert outcome.status == "ok", outcome.detail


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------
def _threshold_check(calls):
    """A synthetic check failing iff a >= 5 and b >= 3 (floor 1 each)."""

    def run(case):
        calls.append(dict(case.params))
        if case.params["a"] >= 5 and case.params["b"] >= 3:
            return f"fails at a={case.params['a']} b={case.params['b']}"
        return None

    return Check(
        name="synthetic",
        description="synthetic threshold check",
        space={"a": (1, 100, 1), "b": (1, 100, 1)},
        run=run,
    )


class TestShrinker:
    def test_shrinks_to_the_exact_failure_boundary(self):
        calls = []
        check = _threshold_check(calls)
        case = FuzzCase(check="synthetic", seed=0, params={"a": 77, "b": 41})
        shrunk = shrink_case(check, case, "fails at a=77 b=41")
        assert shrunk.case.params == {"a": 5, "b": 3}
        assert shrunk.detail == "fails at a=5 b=3"
        assert shrunk.reductions >= 2
        assert shrunk.attempts == len(calls)
        assert shrunk.attempts < 40  # binary search, not a linear walk

    def test_already_minimal_case_is_untouched(self):
        calls = []
        check = _threshold_check(calls)
        case = FuzzCase(check="synthetic", seed=0, params={"a": 5, "b": 3})
        shrunk = shrink_case(check, case, "fails at a=5 b=3")
        assert shrunk.case.params == {"a": 5, "b": 3}
        assert shrunk.reductions == 0

    def test_repro_round_trip(self, tmp_path):
        case = FuzzCase(
            check="ternary-sim",
            seed=42,
            params={"num_inputs": 6, "num_gates": 20, "patterns": 4},
        )
        shrunk = ShrinkResult(case=case, detail="boom", attempts=3, reductions=1)
        directory = write_repro(tmp_path, shrunk, original=case)
        payload = json.loads((directory / "case.json").read_text())
        assert payload["check"] == "ternary-sim"
        assert payload["detail"] == "boom"
        assert "--replay" in payload["replay"]
        # the failing netlist is materialised next to the case
        assert (directory / "netlist.bench").exists()
        loaded = load_case(directory)
        assert loaded == case
        assert load_case(directory / "case.json") == case


# ----------------------------------------------------------------------
# Planted-mutation detection (the acceptance criterion)
# ----------------------------------------------------------------------
class TestMutationDetection:
    def test_planted_sim_mutation_is_caught_shrunk_and_replayable(
        self, tmp_path, monkeypatch
    ):
        """Flip one output bit in the packed simulator for wide gates: the
        differential sweep must find it, shrink it and write a repro that
        still reproduces on replay."""
        from repro.circuits import simulator as simulator_mod

        real = simulator_mod.simulate_ternary

        def mutated(netlist, assignment, **kwargs):
            values = real(netlist, assignment, **kwargs)
            if len(netlist.inputs) > 4 and netlist.outputs:
                victim = netlist.outputs[0]
                if values.get(victim) == 0:
                    values = dict(values)
                    values[victim] = 1
            return values

        monkeypatch.setattr(simulator_mod, "simulate_ternary", mutated)
        report = run_fuzz(
            checks=["ternary-sim"],
            time_budget_s=30.0,
            seed=0,
            out_dir=tmp_path,
        )
        assert not report.ok
        assert len(report.mismatches) == 1
        mismatch = report.mismatches[0]
        assert mismatch.repro_path is not None
        assert (mismatch.repro_path / "case.json").exists()
        # shrinking reached the mutation boundary: 5 inputs is the
        # smallest circuit the planted bug can trigger on
        assert mismatch.shrunk.case.params["num_inputs"] == 5
        assert mismatch.shrunk.case.params["num_gates"] == 1
        # the stored case still reproduces while the mutation is planted
        outcome = replay_case(load_case(mismatch.repro_path))
        assert outcome.status == "mismatch"
        # ... and passes again once the mutation is reverted
        monkeypatch.setattr(simulator_mod, "simulate_ternary", real)
        outcome = replay_case(load_case(mismatch.repro_path))
        assert outcome.status == "ok"


# ----------------------------------------------------------------------
# Fuzz runner
# ----------------------------------------------------------------------
class TestRunFuzz:
    def test_first_round_always_covers_every_check(self):
        # a zero budget still runs one case per selected check
        report = run_fuzz(
            checks=["ternary-sim", "drop-batch"],
            time_budget_s=0.0,
            seed=1,
            shrink=False,
        )
        assert report.rounds >= 1
        assert report.per_check["ternary-sim"]["cases"] >= 1
        assert report.per_check["drop-batch"]["cases"] >= 1
        assert report.ok

    def test_failed_check_is_retired_not_repeated(self, tmp_path):
        always = Check(
            name="always-fails",
            description="test double",
            space={"n": (1, 4, 1)},
            run=lambda case: "always broken",
        )
        CHECKS[always.name] = always
        try:
            report = run_fuzz(
                checks=["always-fails", "ternary-sim"],
                time_budget_s=1.5,
                seed=2,
                out_dir=tmp_path,
                shrink=False,
            )
        finally:
            del CHECKS[always.name]
        assert len(report.mismatches) == 1
        # the broken check ran exactly once; the healthy one kept going
        assert report.per_check["always-fails"]["cases"] == 1
        assert report.per_check["ternary-sim"]["cases"] >= 1
        lines = "\n".join(report.summary_lines())
        assert "MISMATCH" in lines and "always-fails" in lines


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFuzzCli:
    def test_fuzz_smoke_exits_zero(self, tmp_path, capsys):
        status = main([
            "fuzz", "--time-budget", "0", "--seed", "0",
            "--checks", "ternary-sim", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "0 mismatch(es)" in out
        assert "ternary-sim" in out

    def test_fuzz_unknown_check_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown fuzz check"):
            main(["fuzz", "--checks", "bogus"])

    def test_replay_missing_case_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load repro case"):
            main(["fuzz", "--replay", str(tmp_path / "nope")])

    def test_replay_roundtrip_via_cli(self, tmp_path, capsys):
        case = FuzzCase(
            check="ternary-sim",
            seed=3,
            params={"num_inputs": 6, "num_gates": 20, "patterns": 4},
        )
        shrunk = ShrinkResult(case=case, detail="d", attempts=1, reductions=0)
        directory = write_repro(tmp_path, shrunk, original=case)
        status = main(["fuzz", "--replay", str(directory)])
        out = capsys.readouterr().out
        assert status == 0  # healthy tree: the stored case passes
        assert "replay ternary-sim" in out
