"""Parallel campaign execution with resume and substrate sharing.

The :class:`CampaignRunner` expands a :class:`~repro.campaign.spec.CampaignSpec`
into jobs, skips every job whose result key already has a successful record
in the :class:`~repro.campaign.store.ResultStore` (resume), and executes the
rest -- inline for ``jobs=1``, on a ``multiprocessing`` pool otherwise.

Design notes
------------
* Each *source* (profile or cube file) is materialised exactly once in the
  parent process; workers receive the serialised cube text, so synthetic
  generation is never repeated per job and file sources need no re-read.
* Jobs are **grouped by encode key** -- (source, encode-relevant config
  fields; see :meth:`repro.config.CompressionConfig.encode_cache_key`) --
  and each group runs on one worker with a shared
  :class:`~repro.context.CompressionContext`.  The first job of a group
  builds the substrate (:class:`~repro.encoding.equations.EquationSystem`,
  phase shifter) and computes the seeds; every (S, k) grid neighbour in the
  group reuses both through the context cache and only pays for its own
  reduction.  When there are fewer groups than workers, the largest groups
  are split so no worker idles (each chunk re-encodes once -- on capacity
  that would otherwise sit unused).  Per-stage wall times and cache
  hit/miss counts are surfaced in each :class:`JobOutcome` and persisted
  with the stored record.
* Groups are submitted in deterministic spec order; workers **stream** each
  job's result back over a manager queue the moment it is computed, and
  only the parent appends to the store (guarded by the store's advisory
  writer lock, acquired up front so two campaigns sharing one store fail
  fast instead of interleaving), so an interrupted (or hung) campaign
  keeps everything finished so far.
* Per-job failures are captured as records (status ``error``) instead of
  aborting the campaign; when a job genuinely *hangs* (no result from any
  worker within the inactivity window), only the still-pending jobs are
  reported as ``timeout`` -- the group's already-streamed results survive
  -- and the workers are terminated so stragglers cannot outlive the
  campaign.
* Workers are **managed processes, one per chunk**, not an opaque
  ``multiprocessing.Pool``: the scheduler watches exit codes, so a worker
  that dies hard (SIGKILL, OOM, segfault) is detected precisely.  The
  crashed chunk's unfinished jobs are *requeued* on a respawned worker
  with bounded exponential backoff plus jitter; the job that was running
  when the worker died (the first unfinished one in chunk order) is the
  *suspected poison job* -- it is blamed, moved to the end of the requeued
  chunk so the never-attempted jobs run first, and given up on (a stored
  ``error`` record with ``exhausted=True``) only after ``max_retries``
  blames.  Jobs that merely sat queued behind a crash are never charged
  for it.  ``KeyboardInterrupt`` terminates the workers and propagates
  with everything already streamed safely in the store.
"""

from __future__ import annotations

import multiprocessing
import random
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from queue import Empty
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.campaign.spec import CampaignSpec, JobSpec, TestSource
from repro.campaign.store import (
    STATUS_ERROR,
    STATUS_OK,
    ResultStore,
    StoredResult,
    result_key,
)
from repro.config import CompressionConfig
from repro.context import CompressionContext, ContextStats
from repro.pipeline import compress
from repro.telemetry import Recorder, get_recorder, set_recorder, use_recorder
from repro.testdata.test_set import TestSet

#: Extra outcome states of a single campaign run (never persisted).
STATUS_CACHED = "cached"
STATUS_TIMEOUT = "timeout"


@dataclass
class JobOutcome:
    """What happened to one job during :meth:`CampaignRunner.run`.

    ``stage_timings`` maps pipeline stage names (``encode`` / ``reduce`` /
    ``hardware`` plus the context-internal ``substrate_build`` /
    ``expand_seeds``) to the wall seconds *this job* spent in them;
    ``cache_stats`` carries the context-cache hit/miss deltas of the job
    (e.g. ``substrate_misses``, ``encoding_misses``, ``cover_hits``).  For
    a resumed (``cached``) outcome both are taken from the stored record,
    and ``elapsed_s`` is the stored record's original compute time -- not
    zero -- so aggregate timing reports stay honest on warm stores.

    ``retried`` counts the worker crashes this job survived before the
    recorded outcome (0 on an undisturbed run); ``exhausted`` marks an
    ``error`` outcome produced because the job was blamed for
    ``max_retries`` worker crashes and given up on.
    """

    job: JobSpec
    key: str
    status: str
    summary: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    stage_timings: Optional[Dict[str, float]] = None
    cache_stats: Optional[Dict[str, int]] = None
    retried: int = 0
    exhausted: bool = False

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)

    @property
    def cached(self) -> bool:
        return self.status == STATUS_CACHED


@dataclass
class CampaignResult:
    """Aggregate outcome of one runner invocation."""

    campaign: str
    outcomes: List[JobOutcome]

    @property
    def num_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def num_cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def num_computed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == STATUS_OK)

    @property
    def num_failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def total_retries(self) -> int:
        """Summed worker-crash retries across all jobs."""
        return sum(outcome.retried for outcome in self.outcomes)

    @property
    def total_elapsed_s(self) -> float:
        """Summed per-job compute seconds (cached jobs report their
        originally stored compute time)."""
        return sum(outcome.elapsed_s for outcome in self.outcomes)

    def rows(self) -> List[Dict[str, object]]:
        """Summary rows of every successful outcome, in job order."""
        return [
            dict(outcome.summary)
            for outcome in self.outcomes
            if outcome.ok and outcome.summary is not None
        ]

    def failures(self) -> List[JobOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def stage_timing_totals(self) -> Dict[str, float]:
        """Summed per-stage wall seconds over every outcome that has them."""
        totals: Dict[str, float] = {}
        for outcome in self.outcomes:
            for stage, seconds in (outcome.stage_timings or {}).items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def cache_stat_totals(self) -> Dict[str, int]:
        """Summed context-cache hit/miss counters over every outcome."""
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            for name, count in (outcome.cache_stats or {}).items():
                totals[name] = totals.get(name, 0) + int(count)
        return totals


def _job_error(index: int, error: str, elapsed_s: float = 0.0) -> Dict[str, object]:
    return {
        "index": index,
        "status": STATUS_ERROR,
        "summary": None,
        "error": error,
        "elapsed_s": elapsed_s,
        "stage_timings": None,
        "cache_stats": None,
    }


def _execute_group_payload(
    payload: Dict[str, object], queue=None, on_result=None
) -> List[Dict[str, object]]:
    """Run one encode-key group of jobs in a worker process.

    All jobs of the group share one :class:`CompressionContext`: the first
    job builds the substrate and computes the seeds, the grid neighbours
    hit the context caches and only run their own reduction.  Never raises:
    per-job errors are captured so one failing (S, k) point cannot take the
    group down.  Returns one result dict per job, tagged with the job's
    campaign index, its stage-timing and its cache-stat deltas; when
    ``queue`` is given (the pool path), every result is additionally
    **pushed onto it the moment it is computed**, so the parent can
    persist completed work even if a later job of the group hangs.
    ``on_result`` is the inline (jobs=1) equivalent: a callback invoked
    per result as it is computed, so a Ctrl-C mid-group still leaves the
    finished jobs persisted.

    The per-job ``timeout`` of the payload is enforced *here* as a group
    budget (``timeout * num_jobs``): once the budget is spent, the
    remaining jobs are reported as ``timeout`` without being started, so a
    slow group keeps its finished work.  A job that *starts* inside the
    budget but genuinely hangs is handled by the parent's inactivity
    window -- only the hung (and not-yet-started) jobs are lost.
    """
    results: List[Dict[str, object]] = []

    def emit(result: Dict[str, object]) -> None:
        results.append(result)
        if queue is not None:
            queue.put(result)
        if on_result is not None:
            on_result(result)

    # Telemetry wiring.  On the pool path (queue given) the worker gets its
    # own recorder and ships a per-job batch back inside each result dict;
    # inline (jobs=1, queue=None) the caller's installed recorder receives
    # the spans directly and nothing is shipped (absorbing a batch there
    # would double-count).  The context's stats are bound to the recorder's
    # registry, so cache counters and stage timings flow into the telemetry
    # stream with no extra plumbing.
    trace = bool(payload.get("trace"))
    ship_telemetry = trace and queue is not None
    if ship_telemetry:
        recorder = Recorder(run_id=str(payload.get("run_id", "")))
        set_recorder(recorder)
    else:
        recorder = get_recorder()
        trace = trace and recorder.enabled
    # The batch mark is taken *before* any payload-level telemetry (queue
    # wait, parse) so the first job's delta carries it home.
    mark = recorder.mark() if ship_telemetry else None
    if trace:
        queued_at = payload.get("queued_at")
        if queued_at is not None:
            recorder.observe(
                "campaign.queue_wait_s", max(0.0, time.time() - queued_at)
            )
    context = CompressionContext(
        stats=ContextStats(registry=recorder.metrics) if trace else None
    )
    try:
        test_set = TestSet.from_text(payload["test_text"], name=payload["circuit"])
    except Exception:
        error = traceback.format_exc(limit=8)
        for job in payload["jobs"]:
            emit(_job_error(job["index"], error))
        return results
    timeout = payload.get("timeout")
    budget = None if timeout is None else timeout * len(payload["jobs"])
    group_start = time.perf_counter()
    for job in payload["jobs"]:
        if budget is not None and time.perf_counter() - group_start >= budget:
            emit(
                {
                    "index": job["index"],
                    "status": STATUS_TIMEOUT,
                    "summary": None,
                    "error": (
                        f"not started: the group budget of {budget:.1f}s "
                        f"({len(payload['jobs'])} jobs x {timeout:.1f}s) was "
                        f"spent by earlier jobs; a resumed run retries it"
                    ),
                    "elapsed_s": 0.0,
                    "stage_timings": None,
                    "cache_stats": None,
                }
            )
            continue
        start = time.perf_counter()
        before = context.stats.snapshot()
        try:
            config = CompressionConfig.from_dict(job["config"])
            with recorder.span(
                "campaign.job",
                job_id=job["job_id"],
                circuit=payload["circuit"],
            ):
                report = compress(
                    test_set, config, verify=payload["verify"], context=context
                )
            delta = ContextStats.delta(before, context.stats.snapshot())
            result = {
                "index": job["index"],
                "status": STATUS_OK,
                "summary": report.summary(),
                "error": None,
                "elapsed_s": time.perf_counter() - start,
                "stage_timings": {
                    name[:-2]: seconds
                    for name, seconds in delta.items()
                    if name.endswith("_s")
                },
                "cache_stats": {
                    name: int(count)
                    for name, count in delta.items()
                    if not name.endswith("_s")
                },
            }
            if ship_telemetry:
                result["telemetry"] = recorder.collect(mark)
                mark = recorder.mark()
            emit(result)
        except Exception:
            result = _job_error(
                job["index"],
                traceback.format_exc(limit=8),
                elapsed_s=time.perf_counter() - start,
            )
            if ship_telemetry:
                result["telemetry"] = recorder.collect(mark)
                mark = recorder.mark()
            emit(result)
    return results


def _split_for_parallelism(
    payloads: List[Dict[str, object]], workers: int
) -> List[Dict[str, object]]:
    """Split encode-key groups until every worker has a chunk to run.

    A single-circuit (S, k) grid forms one group, which would serialise the
    whole campaign on one worker.  Splitting the largest chunk in half
    until there are at least ``workers`` chunks trades duplicate encodes
    (on workers that would otherwise idle) for wall-clock parallelism;
    within each chunk the substrate/encoding sharing is unchanged.  The
    split is deterministic and preserves job order within and across
    chunks.
    """
    chunks = list(payloads)
    while len(chunks) < workers:
        largest = max(range(len(chunks)), key=lambda i: len(chunks[i]["jobs"]))
        jobs = chunks[largest]["jobs"]
        if len(jobs) < 2:
            break
        half = (len(jobs) + 1) // 2
        chunks[largest : largest + 1] = [
            dict(chunks[largest], jobs=jobs[:half]),
            dict(chunks[largest], jobs=jobs[half:]),
        ]
    return chunks


def _pool_context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork (Windows, some macOS setups)
        return multiprocessing.get_context("spawn")


@dataclass
class _ActiveWorker:
    """One live worker process and the chunk it is executing."""

    process: multiprocessing.Process
    payload: Dict[str, object]


class CampaignRunner:
    """Execute a campaign spec against a result store.

    Parameters
    ----------
    spec:
        The campaign grid to run.
    store:
        Result store used both for resume (skip completed keys) and for
        persisting new outcomes.
    jobs:
        Worker-pool size; ``1`` runs everything inline in-process.
    timeout:
        Per-job wait bound in seconds (``None`` disables).  Jobs sharing an
        encoding run as one worker task, so a group of ``n`` jobs is
        allowed ``n * timeout`` seconds of budget; beyond it the worker
        reports the unstarted jobs as ``timeout`` itself.  Results are
        streamed per job, so even when a job genuinely *hangs* (the
        parent's inactivity window fires) only the hung and
        not-yet-finished jobs are reported as ``timeout`` and not stored
        -- a later run retries just those.
    resume:
        When True (default), jobs whose key already has a successful stored
        record are returned as cache hits without recomputation; their
        outcomes carry the stored record's original ``elapsed_s``,
        ``stage_timings`` and ``cache_stats``.
    max_retries:
        How many worker crashes a single job may be blamed for before it
        is given up on (an ``error`` record with ``exhausted=True``).  A
        crash blames the job the dead worker was running -- the first
        unfinished job of its chunk -- and requeues the chunk's remaining
        jobs on a respawned worker, never-attempted jobs first.  Bounds
        the total crash count of a campaign at ``(max_retries + 1) x
        num_jobs``.
    retry_backoff_s:
        Base delay before a crashed chunk is requeued; doubles per blame
        of the same job (capped at 30s) with up to 25% random jitter so
        co-crashing campaigns do not respawn in lockstep.
    recorder:
        A :class:`~repro.telemetry.Recorder` to collect campaign telemetry
        into (defaults to the process-wide active recorder).  When enabled,
        every worker runs with its own recorder and streams a per-job span
        /metric batch back inside the existing result dicts; the parent
        absorbs each batch in arrival order, so one recorder ends up with
        the full multi-process span tree.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        jobs: int = 1,
        timeout: Optional[float] = None,
        resume: bool = True,
        recorder=None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.5,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be at least 0")
        self._spec = spec
        self._store = store
        self._jobs = jobs
        self._timeout = timeout
        self._resume = resume
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._recorder = recorder if recorder is not None else get_recorder()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, progress: Optional[Callable[[JobOutcome], None]] = None
    ) -> CampaignResult:
        """Run every job of the spec; returns outcomes in spec order.

        Completed results are appended to the store (and reported through
        ``progress``) as soon as each job group finishes, so an interrupted
        campaign keeps everything computed so far and the next resumed run
        picks up where it stopped.
        """
        job_specs = self._spec.jobs()
        resolved = self._resolve_sources(job_specs)
        outcomes: List[Optional[JobOutcome]] = [None] * len(job_specs)
        # index -> (job spec, result key, config dict, fingerprint) for
        # every non-cached job; ``finish`` persists from this.
        pending: Dict[int, Tuple[JobSpec, str, Dict[str, object], str]] = {}
        # Encode-key groups in first-seen (spec) order.
        groups: "OrderedDict[Tuple[TestSource, str], Dict[str, object]]" = (
            OrderedDict()
        )

        for index, job in enumerate(job_specs):
            test_text, fingerprint, lfsr_default = resolved[job.source]
            config = job.config
            if config.lfsr_size is None and lfsr_default is not None:
                config = config.with_updates(lfsr_size=lfsr_default)
            key = result_key(fingerprint, config)
            if self._resume and self._store.completed(key):
                record = self._store.get(key)
                outcome = JobOutcome(
                    job=job,
                    key=key,
                    status=STATUS_CACHED,
                    summary=record.summary,
                    elapsed_s=record.elapsed_s,
                    stage_timings=record.stage_timings,
                    cache_stats=record.cache_stats,
                )
                outcomes[index] = outcome
                if progress is not None:
                    progress(outcome)
                continue
            pending[index] = (job, key, config.to_dict(), fingerprint)
            group_key = (job.source, config.encode_cache_key())
            group = groups.get(group_key)
            if group is None:
                group = {
                    "circuit": job.source.label,
                    "test_text": test_text,
                    "fingerprint": fingerprint,
                    "verify": self._spec.verify,
                    "timeout": self._timeout,
                    "trace": self._recorder.enabled,
                    "run_id": self._recorder.run_id,
                    "queued_at": time.time(),
                    "jobs": [],
                }
                groups[group_key] = group
            group["jobs"].append(
                {"index": index, "job_id": job.job_id, "config": config.to_dict()}
            )

        def finish(result: Dict[str, object]) -> None:
            if self._recorder.enabled:
                self._recorder.absorb(result.get("telemetry"))
            index = result["index"]
            job, key, config_dict, fingerprint = pending[index]
            outcome = JobOutcome(
                job=job,
                key=key,
                status=result["status"],
                summary=result["summary"],
                error=result["error"],
                elapsed_s=result["elapsed_s"],
                stage_timings=result.get("stage_timings"),
                cache_stats=result.get("cache_stats"),
                retried=int(result.get("retried", 0)),
                exhausted=bool(result.get("exhausted", False)),
            )
            outcomes[index] = outcome
            if outcome.status in (STATUS_OK, STATUS_ERROR):
                self._store.put(
                    StoredResult(
                        key=key,
                        job_id=job.job_id,
                        circuit=job.source.label,
                        fingerprint=fingerprint,
                        config=config_dict,
                        status=outcome.status,
                        summary=outcome.summary,
                        error=outcome.error,
                        elapsed_s=outcome.elapsed_s,
                        stage_timings=outcome.stage_timings,
                        cache_stats=outcome.cache_stats,
                        retried=outcome.retried,
                        exhausted=outcome.exhausted,
                    )
                )
            if progress is not None:
                progress(outcome)

        payloads = list(groups.values())
        if payloads:
            # Fail fast if another live campaign is writing this store --
            # before any work is spent, not on the first append.
            self._store.lock()
            recorder = self._recorder
            with recorder.span(
                "campaign.run",
                campaign=self._spec.name,
                jobs=len(job_specs),
                pending=len(pending),
            ):
                if recorder.enabled:
                    recorder.counter(
                        "campaign.jobs_cached", len(job_specs) - len(pending)
                    )
                if self._jobs == 1:
                    if recorder.enabled:
                        recorder.gauge("campaign.workers", 1)
                    # Inline execution records into this recorder directly
                    # (install it so the worker body's get_recorder() sees
                    # it even when the caller never set a global one).
                    with use_recorder(recorder):
                        for payload in payloads:
                            # Stream per job (on_result) so an interrupt
                            # mid-group keeps the finished jobs persisted.
                            _execute_group_payload(payload, on_result=finish)
                else:
                    chunks = _split_for_parallelism(payloads, self._jobs)
                    if recorder.enabled:
                        # After splitting: the split exists precisely so
                        # every worker has a chunk.
                        recorder.gauge(
                            "campaign.workers", min(self._jobs, len(chunks))
                        )
                    self._run_pool(chunks, finish)
        return CampaignResult(campaign=self._spec.name, outcomes=outcomes)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_sources(
        self, job_specs: List[JobSpec]
    ) -> Dict[TestSource, Tuple[str, str, Optional[int]]]:
        """Materialise each distinct source once: (text, fingerprint, lfsr)."""
        resolved: Dict[TestSource, Tuple[str, str, Optional[int]]] = {}
        for job in job_specs:
            if job.source in resolved:
                continue
            test_set, lfsr_default = job.source.resolve()
            resolved[job.source] = (
                test_set.to_text(),
                test_set.fingerprint(),
                lfsr_default,
            )
        return resolved

    #: Queue poll period of the streaming collector (seconds); bounds how
    #: long a worker-crash diagnosis can lag behind the worker's exit.
    _POLL_S = 0.25
    #: Ceiling on the exponential crash-retry backoff.
    _BACKOFF_CAP_S = 30.0

    def _run_pool(
        self,
        payloads: List[Dict[str, object]],
        finish: Callable[[Dict[str, object]], None],
    ) -> None:
        """Schedule every chunk on managed worker processes, with retries.

        One worker process per chunk, at most ``jobs`` alive at a time;
        workers push each job's result onto a manager queue the moment it
        is computed, so completed work is persisted immediately.  A worker
        that exits with unfinished jobs *crashed* (SIGKILL, OOM, segfault
        -- the worker body never raises): the first unfinished job in
        chunk order is the one it was running and takes the blame; the
        chunk's unfinished jobs are requeued on a fresh worker after an
        exponential backoff, blamed job last, and a job blamed
        ``max_retries`` times is recorded as ``error``/``exhausted``
        instead of being requeued.  When no result arrives from *any*
        worker within the inactivity window (per-job timeout x (largest
        remaining group + 1) -- a bound on how long a healthy worker can
        legitimately stay silent), the still-pending jobs are reported as
        ``timeout`` and the workers are terminated: a genuinely hung job
        loses only itself and the jobs queued behind it, never the
        results streamed before the hang.
        """
        context = _pool_context()
        manager = multiprocessing.Manager()
        queue = manager.Queue()
        remaining: Set[int] = {
            job["index"] for payload in payloads for job in payload["jobs"]
        }
        retries: Dict[int, int] = {}
        jitter = random.Random()  # scheduling jitter only, never results
        work: List[Dict[str, object]] = [
            {"payload": payload, "not_before": 0.0} for payload in payloads
        ]
        active: List[_ActiveWorker] = []
        hang_declared = False
        last_activity = time.monotonic()

        def launch_ready() -> None:
            nonlocal last_activity
            slot = 0
            while slot < len(work) and len(active) < self._jobs:
                if work[slot]["not_before"] > time.monotonic():
                    slot += 1  # still backing off; look at the next chunk
                    continue
                entry = work.pop(slot)
                process = context.Process(
                    target=_execute_group_payload,
                    args=(entry["payload"], queue),
                    daemon=True,
                )
                process.start()
                active.append(
                    _ActiveWorker(process=process, payload=entry["payload"])
                )
                last_activity = time.monotonic()

        def drain(block_s: float) -> None:
            """Apply every queued result (waiting up to ``block_s`` for
            the first); crash-raced duplicates of already-finished indexes
            are ignored."""
            nonlocal last_activity
            timeout = block_s
            while True:
                try:
                    result = (
                        queue.get(timeout=timeout)
                        if timeout > 0
                        else queue.get_nowait()
                    )
                except Empty:
                    return
                timeout = 0.0  # after the first, only sweep what is ready
                last_activity = time.monotonic()
                index = result["index"]
                if index in remaining:
                    remaining.discard(index)
                    result.setdefault("retried", retries.get(index, 0))
                    finish(result)

        try:
            while remaining and (work or active):
                launch_ready()
                drain(self._POLL_S)
                for worker in list(active):
                    if worker.process.is_alive():
                        continue
                    worker.process.join()
                    active.remove(worker)
                    # A finished put lands in the manager *before* the
                    # worker moves on, so once the process is gone a final
                    # sweep sees everything it completed.
                    drain(0.0)
                    unfinished = [
                        job
                        for job in worker.payload["jobs"]
                        if job["index"] in remaining
                    ]
                    if not unfinished:
                        continue  # clean exit, chunk fully reported
                    self._handle_worker_crash(
                        worker, unfinished, retries, remaining, work,
                        jitter, finish,
                    )
                    last_activity = time.monotonic()
                if remaining and active:
                    window = self._inactivity_window(
                        [worker.payload for worker in active]
                        + [entry["payload"] for entry in work],
                        remaining,
                    )
                    if (
                        window is not None
                        and time.monotonic() - last_activity >= window
                    ):
                        hang_declared = True
                        for index in sorted(remaining):
                            remaining.discard(index)
                            finish(
                                {
                                    "index": index,
                                    "status": STATUS_TIMEOUT,
                                    "summary": None,
                                    "error": (
                                        f"no result arrived from any worker "
                                        f"within {window:.1f}s (per-job "
                                        f"timeout {self._timeout:.1f}s x "
                                        f"largest pending group's size + "
                                        f"grace); a job is hanging -- "
                                        f"results streamed before the hang "
                                        f"were kept"
                                    ),
                                    "elapsed_s": self._timeout,
                                    "stage_timings": None,
                                    "cache_stats": None,
                                }
                            )
                        break
            # Defensive: the loop above always requeues or reports every
            # job, so anything left here means the scheduler lost a chunk.
            for index in sorted(remaining):
                finish(
                    _job_error(
                        index,
                        "never attempted: the worker pool was lost before "
                        "this job started",
                    )
                )
        finally:
            for worker in active:
                if hang_declared or remaining:
                    worker.process.terminate()
                worker.process.join()
            manager.shutdown()

    def _handle_worker_crash(
        self,
        worker: "_ActiveWorker",
        unfinished: List[Dict[str, object]],
        retries: Dict[int, int],
        remaining: Set[int],
        work: List[Dict[str, object]],
        jitter: random.Random,
        finish: Callable[[Dict[str, object]], None],
    ) -> None:
        """Blame, requeue or exhaust the jobs of a crashed worker."""
        exitcode = worker.process.exitcode
        if self._recorder.enabled:
            self._recorder.counter("campaign.worker_crashes")
        blamed = unfinished[0]
        queued_behind = unfinished[1:]
        index = blamed["index"]
        attempt = retries.get(index, 0) + 1
        retries[index] = attempt
        requeue = list(queued_behind)  # never-attempted jobs go first
        if attempt > self._max_retries:
            remaining.discard(index)
            finish(
                {
                    "index": index,
                    "status": STATUS_ERROR,
                    "summary": None,
                    "error": (
                        f"worker crashed (exit code {exitcode}) while "
                        f"running this job; giving up after "
                        f"{attempt} crash(es) (max_retries="
                        f"{self._max_retries}).  The {len(queued_behind)} "
                        f"job(s) queued behind it were never attempted and "
                        f"were requeued, not failed."
                    ),
                    "elapsed_s": 0.0,
                    "stage_timings": None,
                    "cache_stats": None,
                    "retried": attempt - 1,
                    "exhausted": True,
                }
            )
        else:
            if self._recorder.enabled:
                self._recorder.counter("campaign.job_retries")
            # The suspected poison job runs last so the jobs that merely
            # sat behind the crash are not held hostage by a repeat crash.
            requeue.append(blamed)
        if requeue:
            delay = min(
                self._BACKOFF_CAP_S,
                self._retry_backoff_s * (2 ** (attempt - 1)),
            )
            delay *= 1.0 + 0.25 * jitter.random()
            work.append(
                {
                    "payload": dict(worker.payload, jobs=requeue),
                    "not_before": time.monotonic() + delay,
                }
            )

    def _inactivity_window(
        self, payloads: List[Dict[str, object]], remaining: Set[int]
    ) -> Optional[float]:
        """Longest silence a healthy pool may show before a hang is declared.

        ``None`` (no per-job timeout) waits forever.  Otherwise the bound
        is the *full* group budget (plus one job of grace) of the largest
        group that still has pending jobs -- a single job may legitimately
        run silent for nearly the whole budget of its group, because the
        worker only checks the budget *between* jobs.  This matches the
        tolerance of the pre-streaming per-group hard wait
        (``timeout * (group size + 1)``); streaming only changes what a
        hang costs, not when one is declared.
        """
        if self._timeout is None:
            return None
        largest = max(
            (
                len(payload["jobs"])
                for payload in payloads
                if any(job["index"] in remaining for job in payload["jobs"])
            ),
            default=0,
        )
        return self._timeout * (largest + 1)

