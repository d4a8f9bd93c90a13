"""Repository benchmark: the State Skip flow end to end, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

One process runs one workload (so ``peak_rss_mb`` is that workload's own).
The run has three phases:

1. **set-up** (``setup_s``): importing the program, then the median of
   :data:`SETUP_REPEATS` set-ups, each generating the inputs from ``--seed``
   and running one warm-up pass; the first set-up's outputs become the
   reference digests;
2. **timed passes** until ``--seconds`` have elapsed.  Each call into the
   program is a named step; a metric sums, over the steps, the fastest
   time of each step across passes (:func:`best_steps`), so a slowdown of
   the host moves a step's slow samples, not the sum; times are then scaled
   to the reference host's speed (:data:`REFERENCE_S`);
3. the last stdout line: one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones (see ``tracing.py``).  Run metadata (environment, BLAS
threads, pass counts) goes to stderr as one JSON line.

``--size tiny`` shrinks every workload for the self-check (``selfcheck.py``).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: How many times set-up (inputs + warm-up pass) runs; ``setup_s`` takes the median.
SETUP_REPEATS = 3

#: Samples of :func:`reference_work` before set-up and after each set-up and pass.
REFERENCE_SAMPLES = 3

#: Fastest time of :func:`reference_work` on the host the bounds were set on
#: (a 2-vCPU Intel Xeon VM at 2.0 GHz).  The host's speed drifts by 30-50 %
#: over minutes, whole runs long, and wall and CPU time drift together; the
#: fastest pass of a run cannot remove that.  So a run times the reference
#: work too, and reports its times scaled by ``REFERENCE_S`` over the
#: reference work's fastest time in that run: seconds of that host.
REFERENCE_S = 0.0225

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cubes_per_s": "1/s",
    "grid_points_per_s": "1/s",
    "state_skip_tsl": "vectors",
    "tdv_bits": "bits",
}


def cap_blas_threads() -> int:
    """Run BLAS on one thread, which is within the ``nproc`` cap (before numpy loads).

    On a 2-core host a second BLAS thread made pass times bimodal (about
    2.6 s or 3.9 s for the same sk-sweep pass, depending on whether the
    other core was free). One thread ran the same pass in 3.4-3.7 s. Campaign
    workers run one process per core, so one BLAS thread per process is
    also how the flow runs at scale.
    """
    threads = min(1, len(os.sched_getaffinity(0)))
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(threads)
    return threads


def add_program_to_path() -> None:
    """Put ``src/`` on the import path; exit non-zero if it is not there."""
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {root / 'src'}")
    sys.path.insert(0, str(root / "src"))


def best_steps(records, prefix: str = "", index: int = 0) -> float:
    """Sum over steps (optionally one kind) of each step's fastest pass.

    On a shared host a neighbour slows this process's CPU for seconds at a
    time, and wall and CPU time both grow.  Over 10 s windows of a fixed
    25 ms loop on a 2-core host the median moved by +-17 %, the minimum by
    +-4 %; a slowdown only ever adds time, so the fastest sample of a step
    is the steadiest estimate of its cost.
    """
    names = {name for record in records for name in record.steps}
    return sum(
        min(record.steps[name][index] for record in records if name in record.steps)
        for name in names
        if name.startswith(prefix)
    )


def reference_work() -> float:
    """Time a fixed piece of interpreter work that calls no program code.

    Integer bit operations, dict and list traffic: the kind of work the
    program's hot loops do.  The collector is off so that the program's
    heap cannot change the time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table, items, acc = {}, [], 1
        for i in range(60000):
            acc = ((acc << 7) ^ (acc >> 3) ^ i) & 0xFFFFFFFFFFFFFFFF
            key = acc & 4095
            table[key] = table.get(key, 0) + 1
            if i & 7 == 0:
                items.append((key, i))
        items.sort()
        return time.perf_counter() - start
    finally:
        gc.enable()


def compare_digests(record, reference) -> None:
    """A pass output that differs from the reference pass is a failure."""
    for key, digest in record.hexdigests().items():
        if key in reference and digest != reference[key] and key not in record.failed:
            record.failed[key] = "output differs from the reference pass"


def end_to_end(workloads, timed, setup_s, peak_rss_mb, speed) -> dict:
    """End-to-end metrics; times in reference-host seconds (measured x ``speed``)."""
    figures = timed[0].figures
    return {
        "wall_s": best_steps(timed) * speed,
        "cpu_s": best_steps(timed, index=1) * speed,
        "setup_s": setup_s * speed,
        "peak_rss_mb": peak_rss_mb,
        "cubes_per_s": figures.get("cubes", 0)
        / (best_steps(timed, workloads.ENCODE) * speed),
        "grid_points_per_s": figures.get("grid_points", 0)
        / (best_steps(timed, workloads.GRID) * speed),
        "state_skip_tsl": figures.get("state_skip_tsl", 0),
        "tdv_bits": figures.get("tdv_bits", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    blas_threads = cap_blas_threads()
    add_program_to_path()
    import layers
    import tracing
    import workloads
    from repro.gf2.solve import solver_stats_snapshot
    from repro.telemetry import environment_meta

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    import_s = time.perf_counter() - _PROCESS_START

    # Set-up, several times (median): generate the inputs, then warm up.
    host = [reference_work() for _ in range(REFERENCE_SAMPLES)]
    setup = []
    setup_times = []
    for _ in range(SETUP_REPEATS):
        prepared, warmup = workloads.PassRecord(), workloads.PassRecord()
        start = time.perf_counter()
        inputs = workload.prepare(args.seed, args.size, prepared)
        workload.run_pass(inputs, warmup)
        setup_times.append(time.perf_counter() - start)
        setup += [prepared, warmup]
        host += [reference_work() for _ in range(REFERENCE_SAMPLES)]
    setup_s = import_s + statistics.median(setup_times)
    reference = {**setup[0].hexdigests(), **setup[1].hexdigests()}
    for record in setup[2:]:
        compare_digests(record, reference)

    # Timed passes (alternating untraced / traced when tracing).
    timed, traced = [], []
    traced_metrics, traced_layers = [], []
    begin = time.perf_counter()
    while True:
        record = workloads.PassRecord()
        trace_this = bool(args.trace) and len(timed) > len(traced)
        start = time.perf_counter()
        if trace_this:
            tracer = tracing.Tracer()
            solver_before = solver_stats_snapshot()
            with tracing.installed(tracer):
                workload.run_pass(inputs, record)
            record.wall = time.perf_counter() - start
            traced_metrics.append(layers.pass_metrics(record, tracer, solver_before))
            traced_layers.append(layers.layer_self_times(tracer))
            traced.append(record)
        else:
            workload.run_pass(inputs, record)
            record.wall = time.perf_counter() - start
            timed.append(record)
            if len(timed) == 1:
                # Peak RSS through set-up and one timed pass: a fixed amount
                # of work, whatever the host speed lets the run repeat.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        compare_digests(record, reference)
        host += [reference_work() for _ in range(REFERENCE_SAMPLES)]
        elapsed = time.perf_counter() - begin
        if elapsed >= args.seconds and (not args.trace or traced):
            break
    speed = REFERENCE_S / min(host)

    records = setup + timed + traced
    attempted = sum(len(record.digests) for record in records)
    failed = sum(len(record.failed) for record in records)
    for record in records:
        for key, reason in sorted(record.failed.items()):
            print(f"perfbench: {args.workload} {key}: {reason}", file=sys.stderr)

    if args.trace:
        metrics = layers.per_layer(timed, traced_metrics)
        units = layers.UNITS
        for layer in sorted({name for row in traced_layers for name in row}):
            seconds = statistics.median(row.get(layer, 0.0) for row in traced_layers)
            print(f"perfbench: self time {layer:<20} {seconds:9.4f} s", file=sys.stderr)
    else:
        metrics = end_to_end(workloads, timed, setup_s, peak_rss_mb, speed)
        units = END_TO_END_UNITS
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "blas_threads": blas_threads,
        "timed_passes": len(timed),
        "traced_passes": len(traced),
        "pass_walls_s": [round(record.wall, 4) for record in timed + traced],
        "import_s": import_s,
        "setup_walls_s": setup_times,
        "reference_s": min(host),
        "speed": speed,
        "environment": environment_meta(),
    }
    print(json.dumps({"meta": meta}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
