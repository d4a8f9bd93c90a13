"""Self-check of the benchmark itself.

Run from the repository root::

    python3 perfbench/selfcheck.py           # tiny sizes, about a minute
    python3 perfbench/selfcheck.py --full    # also full-size traced runs

It checks that ``BENCHMARK.json`` is well formed; that every workload, run at
a tiny size with and without tracing, emits exactly the metrics
``BENCHMARK.json`` lists, with their units, and fails no operation; and that
the benchmark exits non-zero without a result when the program's sources are
missing.  ``--full`` additionally runs each workload traced at full size and
checks that the workloads load the layers they were chosen for.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import SPAN_TIMES, layer_of

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
METRIC_KEYS = {"name", "unit", "better"}


class Failures(list):
    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.append(message)


def check_spec(spec: dict, failures: Failures) -> None:
    expect = failures.expect
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys: {sorted(spec)}",
    )
    command = spec.get("command", [])
    expect(1 <= len(command) <= 32, "command: 1 to 32 strings")
    for part in command:
        expect(len(part) <= 200 and not part.startswith("/") and ".." not in part,
               f"command part {part!r}")
    paths = spec.get("paths", [])
    expect(1 <= len(paths) <= 16, "paths: 1 to 16 directories")
    for path in paths:
        expect(bool(PATH.match(path)) and ".." not in path and (ROOT / path).is_dir(),
               f"path {path!r}")
    expect(isinstance(spec.get("run_seconds"), int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds: whole number in [1, 60]")
    workloads = spec.get("workloads", [])
    expect(2 <= len(workloads) <= 8, "workloads: 2 to 8")
    for workload in workloads:
        expect(set(workload) == {"name", "why"}, f"workload keys {sorted(workload)}")
        why = workload.get("why", "")
        expect(len(why) <= 200 and "\n" not in why, f"why of {workload.get('name')}")
    names = [w.get("name", "") for w in workloads]
    for section, low, high, keys in (
        ("end_to_end", 1, 16, METRIC_KEYS | {"bound"}),
        ("per_layer", 1, 128, METRIC_KEYS),
    ):
        metrics = spec.get(section, [])
        expect(low <= len(metrics) <= high, f"{section}: {low} to {high} metrics")
        for metric in metrics:
            expect(set(metric) == keys, f"{section} {metric.get('name')}: keys")
            expect(bool(UNIT.match(metric.get("unit", ""))), f"unit of {metric.get('name')}")
            expect(metric.get("better") in ("higher", "lower"), f"better of {metric.get('name')}")
            if "bound" in keys:
                expect(0 < metric.get("bound", 0) <= 0.25, f"bound of {metric.get('name')}")
        names += [m.get("name", "") for m in metrics]
    for name in names:
        expect(bool(NAME.match(name)), f"name {name!r}")
    expect(len(names) == len(set(names)), "names are used once")
    setup = [m for m in spec.get("end_to_end", []) if m.get("name") == "setup_s"]
    expect(
        bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s: unit s, lower, largest bound",
    )
    expect(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "file at most 64 KiB")


def run(command, cwd, timeout=180):
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_of(process) -> dict:
    lines = process.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_run(spec, workload, trace, size, seconds, failures: Failures) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", "1", "--seconds", str(seconds),
        "--trace", str(trace), "--size", size,
    ]
    process = run(command, ROOT)
    label = f"{workload} trace={trace} size={size}"
    failures.expect(process.returncode == 0, f"{label}: exit {process.returncode}: "
                    f"{process.stderr[-500:]}")
    result = result_of(process)
    failures.expect(
        set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys"
    )
    failures.expect(result.get("correct") is True, f"{label}: not correct")
    failures.expect(result.get("failed") == 0, f"{label}: error_rate is not 0")
    failures.expect(result.get("attempted", 0) >= 1, f"{label}: nothing attempted")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: value.get("unit") for name, value in result.get("metrics", {}).items()}
    failures.expect(emitted == expected, f"{label}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(expected) - set(emitted))}, "
                    f"extra {sorted(set(emitted) - set(expected))}")
    if not trace:
        for name, value in result.get("metrics", {}).items():
            failures.expect(value["value"] != 0, f"{label}: {name} is 0")
    return {name: value["value"] for name, value in result.get("metrics", {}).items()}


def check_bare_directory(spec, failures: Failures) -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench-selfcheck"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        process = run(list(spec["command"]) + [
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
        ], bare)
        failures.expect(process.returncode != 0, "bare directory: exit status 0")
        failures.expect('"metrics"' not in process.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def layer_share(metrics: dict, layers) -> float:
    """Share of the traced wall that the self times of ``layers`` cover."""
    seconds = sum(
        metrics[name]
        for name, (span, kind) in SPAN_TIMES.items()
        if kind == "self" and layer_of(span) in layers
    )
    return seconds / metrics["trace.wall_s"]


def check_layer_loads(traced: dict, failures: Failures) -> None:
    """The workloads load the layers they were chosen for."""
    expect = failures.expect
    paper = traced["paper-tables"]
    share = layer_share(paper, ("encoding", "gf2"))
    expect(share >= 0.5, f"paper-tables: encoding + gf2 take {share:.0%} of the traced wall")
    sweep = traced["sk-sweep"]
    share = layer_share(sweep, ("skip", "decompressor"))
    expect(share > 0.5, f"sk-sweep: skip + decompressor take {share:.0%} of the traced wall")
    expect(sweep["encoding.encode_s"] == 0 and sweep["gf2.solver_trials"] == 0,
           "sk-sweep: the timed phase encodes")
    for name, metrics in traced.items():
        atpg = metrics["circuits.atpg.run_s"]
        expect((atpg > 0) == (name == "netlist-flow"), f"{name}: circuits.atpg.run_s = {atpg}")
        expect("trace.unattributed_s" in metrics, f"{name}: no trace.unattributed_s")
        expect(metrics["trace.counter_mismatches"] == 0,
               f"{name}: wrapper counts disagree with solver_stats_snapshot()")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="also run every workload traced at full size")
    args = parser.parse_args(argv)
    failures = Failures()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec, failures)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace, "tiny", 1, failures)
    check_bare_directory(spec, failures)
    if args.full:
        traced = {
            w["name"]: check_run(spec, w["name"], 1, "full", spec["run_seconds"], failures)
            for w in spec["workloads"]
        }
        for name, metrics in traced.items():
            print(f"{name}: " + ", ".join(
                f"{key}={value:.4g}" for key, value in metrics.items() if value), flush=True)
        check_layer_loads(traced, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
