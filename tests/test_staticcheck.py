"""Tests for the static verification subsystem (``repro lint``).

Three groups, mirroring the analyzer layers:

* **IR mutation tests** -- plant known corruption classes into a netlist
  and its :class:`PackedPlan`, and assert each is caught with a precise,
  actionable message (a verifier that only says "invalid" is useless at
  20k gates).
* **Source-rule tests** -- plant one violation per rule into a throwaway
  mini-repo and assert the rule reports it with rule-id and file:line,
  plus the suppression-comment and clean-HEAD contracts.
* **CLI/exit-code tests** -- ``repro lint`` exits 0 clean, 1 on
  violations, 2 on analyzer internal error, with parseable output.
"""

import json
from pathlib import Path

from repro.circuits.generator import random_netlist
from repro.circuits.netlist import Gate, GateType, Netlist
from repro.circuits.ternary import PackedPlan
from repro.cli import main
from repro.staticcheck import (
    RULES,
    run_lint,
    verify_netlist,
    verify_packed_plan,
)
from repro.telemetry import Recorder, use_recorder


def _fresh_netlist(seed: int = 3) -> Netlist:
    # Fresh instance per test: PackedPlan mutations must not leak into the
    # per-netlist plan caches shared with other tests.
    return random_netlist("lintmut", num_inputs=8, num_gates=40, seed=seed)


def _tiny_netlist() -> Netlist:
    return Netlist(
        "tiny",
        inputs=["a", "b"],
        outputs=["y"],
        gates=[
            Gate("x", GateType.AND, ("a", "b")),
            Gate("y", GateType.OR, ("x", "a")),
        ],
    )


# ----------------------------------------------------------------------
# IR verifiers: clean inputs pass
# ----------------------------------------------------------------------
class TestVerifiersPassOnValidIr:
    def test_netlist_and_plan_clean(self):
        netlist = _fresh_netlist()
        assert verify_netlist(netlist) == []
        assert verify_packed_plan(PackedPlan(netlist)) == []


# ----------------------------------------------------------------------
# IR mutation classes (>= 6, each with a precise message)
# ----------------------------------------------------------------------
class TestIrCorruptionClasses:
    def test_cycle_detected(self):
        netlist = _tiny_netlist()
        # x = AND(a, b)  ->  x = AND(y, b): the pair x <-> y now cycles.
        netlist._gates["x"] = Gate("x", GateType.AND, ("y", "b"))
        problems = verify_netlist(netlist)
        assert any("combinational cycle" in p and "x" in p for p in problems)

    def test_stale_evaluation_order_detected(self):
        netlist = _tiny_netlist()
        netlist._topo_order = ["y", "x"]  # reversed: y reads x
        problems = verify_netlist(netlist)
        assert any("not topological" in p and "'x'" in p for p in problems)

    def test_wrong_level_detected(self):
        plan = PackedPlan(_fresh_netlist())
        plan.row_levels[5] += 1
        problems = verify_packed_plan(plan)
        assert any(
            "row_levels says level" in p and "row 5" in p for p in problems
        )

    def test_stale_fused_rows_detected(self):
        plan = PackedPlan(_fresh_netlist())
        output, fop, a, b, c, inputs, inverting = plan.fused_rows[4]
        plan.fused_rows[4] = (output, fop, a ^ 1, b, c, inputs, inverting)
        problems = verify_packed_plan(plan)
        assert any("fused_rows[4] is stale" in p for p in problems)

    def test_out_of_range_operand_detected(self):
        plan = PackedPlan(_fresh_netlist())
        output, op, inputs, inverting = plan.rows[3]
        plan.rows[3] = (output, op, (plan.num_nets + 7,) + inputs[1:], inverting)
        problems = verify_packed_plan(plan)
        assert any(
            f"operand index {plan.num_nets + 7} out of range" in p
            for p in problems
        )

    def test_rows_not_topological_detected(self):
        plan = PackedPlan(_tiny_netlist())
        plan.rows[0], plan.rows[1] = plan.rows[1], plan.rows[0]
        plan.row_levels[0], plan.row_levels[1] = (
            plan.row_levels[1], plan.row_levels[0],
        )
        problems = verify_packed_plan(plan)
        assert any("used before definition" in p for p in problems)

    def test_stale_table_rows_detected(self):
        plan = PackedPlan(_tiny_netlist())
        trows = plan.table_rows()
        output, arity, a, b, c, value_table, care_table = trows[0]
        trows[0] = (output, arity, a, b, c, list(value_table), [0] * 16)
        problems = verify_packed_plan(plan)
        assert any(
            "table_rows[0]" in p and "differ from the shared tables" in p
            for p in problems
        )

    def test_missing_output_assignment_detected(self):
        plan = PackedPlan(_tiny_netlist())
        plan.output_indices = plan.output_indices[:-1]
        problems = verify_packed_plan(plan)
        assert any(
            "0 output indices for 1 netlist outputs" in p for p in problems
        )


# ----------------------------------------------------------------------
# Source rules over a planted mini-repo (>= 4 violation classes)
# ----------------------------------------------------------------------
def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestSourceRules:
    def test_bare_store_open_reported(self, tmp_path):
        _write(
            tmp_path, "src/peek.py",
            "def peek(d):\n"
            "    with open(d / 'results.jsonl') as fh:\n"
            "        return fh.read()\n",
        )
        report = run_lint(tmp_path, paths=[tmp_path / "src"])
        hits = [v for v in report.violations if v.rule == "store-open"]
        assert hits and hits[0].path == "src/peek.py" and hits[0].line == 2

    def test_store_open_exempt_in_store_module(self, tmp_path):
        _write(
            tmp_path, "src/repro/campaign/store.py",
            "def load(d):\n"
            "    return open(d / 'results.jsonl')\n",
        )
        report = run_lint(tmp_path, paths=[tmp_path / "src"])
        assert not [v for v in report.violations if v.rule == "store-open"]

    def test_unordered_iteration_in_cache_key_reported(self, tmp_path):
        _write(
            tmp_path, "src/keys.py",
            "def cache_key(nets):\n"
            "    parts = [str(n) for n in set(nets)]\n"
            "    return '|'.join(parts)\n"
            "def cache_key_ok(nets):\n"
            "    return '|'.join(str(n) for n in sorted(set(nets)))\n",
        )
        report = run_lint(tmp_path, paths=[tmp_path / "src"])
        hits = [v for v in report.violations
                if v.rule == "unordered-iteration"]
        assert len(hits) == 1
        assert hits[0].line == 2 and "cache_key" in hits[0].message

    def test_unbounded_module_cache_reported(self, tmp_path):
        _write(
            tmp_path, "src/caches.py",
            "from collections import OrderedDict\n"
            "from repro.lru import LRUCache\n"
            "_BAD_CACHE = {}\n"
            "_WORSE_CACHE = OrderedDict()\n"
            "_GOOD_CACHE = LRUCache(8)\n",
        )
        report = run_lint(tmp_path, paths=[tmp_path / "src"])
        hits = {(v.line, v.message) for v in report.violations
                if v.rule == "bounded-cache"}
        assert {line for line, _ in hits} == {3, 4}

    def test_span_outside_with_reported(self, tmp_path):
        _write(
            tmp_path, "src/spans.py",
            "def f(rec):\n"
            "    s = rec.span('work')\n"
            "    with rec.span('ok'):\n"
            "        pass\n",
        )
        report = run_lint(tmp_path, paths=[tmp_path / "src"])
        hits = [v for v in report.violations if v.rule == "span-pairing"]
        assert len(hits) == 1 and hits[0].line == 2

    def test_worker_shared_state_reported_and_lock_exempt(self, tmp_path):
        _write(
            tmp_path, "src/repro/campaign/runner.py",
            "from repro.jobs import push\n",
        )
        _write(
            tmp_path, "src/repro/jobs.py",
            "import threading\n"
            "PENDING = {}\n"
            "GUARDED = {}\n"
            "_LOCK = threading.Lock()\n"
            "def push(key, value):\n"
            "    PENDING[key] = value\n"
            "def push_guarded(key, value):\n"
            "    with _LOCK:\n"
            "        GUARDED[key] = value\n"
            "def register_thing(key, value):\n"
            "    PENDING[key] = value\n",
        )
        report = run_lint(tmp_path, paths=[tmp_path / "src"])
        hits = [v for v in report.violations
                if v.rule == "worker-shared-state"]
        assert len(hits) == 1
        assert hits[0].path == "src/repro/jobs.py" and hits[0].line == 6
        assert "'PENDING'" in hits[0].message

    def test_suppression_comment_honored(self, tmp_path):
        _write(
            tmp_path, "src/sup.py",
            "_A_CACHE = {}  # repro-lint: disable=bounded-cache\n"
            "# repro-lint: disable=bounded-cache\n"
            "_B_CACHE = {}\n",
        )
        report = run_lint(tmp_path, paths=[tmp_path / "src"])
        assert not report.violations
        assert report.suppressed == 2


# ----------------------------------------------------------------------
# Whole-repo contracts
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRepoContracts:
    def test_head_is_clean(self):
        """The acceptance bar: zero violations on the repo itself."""
        report = run_lint(REPO_ROOT)
        assert report.errors == []
        assert report.violations == [], "\n".join(
            v.format() for v in report.violations
        )

    def test_no_suppressions_needed_in_src(self):
        report = run_lint(REPO_ROOT, paths=[REPO_ROOT / "src"])
        assert report.violations == []
        assert report.suppressed == 0

    def test_telemetry_counters_emitted(self, tmp_path):
        _write(tmp_path, "src/ok.py", "x = 1\n")
        recorder = Recorder(run_id="lint-test")
        with use_recorder(recorder):
            run_lint(tmp_path, paths=[tmp_path / "src"],
                     rules=["bounded-cache"])
        counters = recorder.metrics.counters
        assert counters.get("lint.files") == 1
        assert counters.get("lint.violations") == 0

    def test_rule_registry_complete(self):
        assert {
            "ir-verify", "dict-engine-hotpath",
            "store-open", "unordered-iteration", "span-pairing",
            "bounded-cache", "worker-shared-state",
        } <= set(RULES)


# ----------------------------------------------------------------------
# CLI: exit codes and report formats
# ----------------------------------------------------------------------
class TestLintCli:
    def test_exit_zero_and_summary_on_clean_tree(self, tmp_path, capsys):
        _write(tmp_path, "src/ok.py", "x = 1\n")
        code = main(["lint", "--root", str(tmp_path), str(tmp_path / "src")])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_exit_one_and_parseable_lines_on_violations(
        self, tmp_path, capsys
    ):
        _write(
            tmp_path, "src/bad.py",
            "import os\n_X_CACHE = {}\n",
        )
        code = main(["lint", "--root", str(tmp_path), str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/bad.py:2: bounded-cache " in out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        _write(tmp_path, "src/ok.py", "x = 1\n")
        code = main([
            "lint", "--root", str(tmp_path), str(tmp_path / "src"),
            "--rules", "no-such-rule",
        ])
        assert code == 2
        assert "unknown rule(s)" in capsys.readouterr().out

    def test_exit_two_on_unparseable_file(self, tmp_path, capsys):
        _write(tmp_path, "src/broken.py", "def f(:\n")
        code = main(["lint", "--root", str(tmp_path), str(tmp_path / "src")])
        assert code == 2
        assert "unparseable" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        _write(
            tmp_path, "src/bad.py",
            "import os\n_X_CACHE = {}\n",
        )
        code = main([
            "lint", "--root", str(tmp_path), str(tmp_path / "src"),
            "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["exit_code"] == 1
        [violation] = payload["violations"]
        assert violation["rule"] == "bounded-cache"
        assert violation["path"] == "src/bad.py"
        assert violation["line"] == 2

    def test_fix_hints(self, tmp_path, capsys):
        _write(
            tmp_path, "src/bad.py",
            "import os\n_X_CACHE = {}\n",
        )
        code = main([
            "lint", "--root", str(tmp_path), str(tmp_path / "src"),
            "--fix-hints",
        ])
        assert code == 1
        assert "hint: use repro.lru.LRUCache(bound)" in capsys.readouterr().out

    def test_rule_selection(self, tmp_path, capsys):
        _write(
            tmp_path, "src/bad.py",
            "def f(d):\n    return open(d / 'results.jsonl')\n_X_CACHE = {}\n",
        )
        code = main([
            "lint", "--root", str(tmp_path), str(tmp_path / "src"),
            "--rules", "bounded-cache",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "bounded-cache" in out and "store-open" not in out
