"""Content-addressed JSON-lines result store.

Every campaign job is identified by a *result key*: a stable hash of the
test-set fingerprint (:meth:`repro.testdata.test_set.TestSet.fingerprint`)
and the config cache key (:meth:`repro.config.CompressionConfig.cache_key`).
The store is an append-only ``results.jsonl`` file inside a store directory;
each line is one :class:`StoredResult` record.  Loading builds an in-memory
index keyed by result key with last-record-wins semantics, so re-running a
job simply supersedes the old record.

Because the key depends only on *content* (which cubes, which knobs), not on
job names or spec files, any two campaigns that touch the same
(test set, config) point share the cached result -- resume is free and so is
cross-campaign deduplication.

Concurrency: writers hold an fcntl advisory lock (``.writer.lock`` in the
store directory, acquired on the first :meth:`put` or an explicit
:meth:`lock`).  A second concurrent writer fails fast with
:class:`StoreLockedError` naming the holder pid instead of silently
interleaving appends; a lock whose recorded holder died (SIGKILL, OOM) is
taken over automatically.  Read-only opens (``read_only=True``) never touch
the lock *or* the file itself, so ``repro stats`` works against a store a
live campaign is writing.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

try:  # pragma: no cover - fcntl is always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - Windows: advisory locking disabled
    fcntl = None

from repro.config import CompressionConfig

RESULTS_FILENAME = "results.jsonl"
LOCK_FILENAME = ".writer.lock"

#: Status of a stored record.
STATUS_OK = "ok"
STATUS_ERROR = "error"


class StoreLockedError(RuntimeError):
    """Another live process holds the store's writer lock."""

    def __init__(self, path: Path, holder_pid: Optional[int]):
        self.path = path
        self.holder_pid = holder_pid
        holder = (
            f"running process {holder_pid}"
            if holder_pid is not None
            else "another running process"
        )
        super().__init__(
            f"result store {path} is already being written by {holder}; "
            f"wait for it to finish, or open the store read-only "
            f"(e.g. `repro stats`) for inspection"
        )


def result_key(fingerprint: str, config: CompressionConfig) -> str:
    """Stable content hash identifying one (test set, config) run."""
    payload = f"{fingerprint}:{config.cache_key()}"
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:20]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    return True


@dataclass
class StoredResult:
    """One persisted job outcome.

    ``stage_timings`` (stage name -> wall seconds) and ``cache_stats``
    (context-cache hit/miss counters) describe how the staged pipeline
    spent its time when the job was computed; both are ``None`` for records
    written before the staged runner existed (old stores stay loadable).
    ``retried`` counts the worker crashes this job survived before the
    recorded outcome, and ``exhausted`` marks an ``error`` record written
    because the crash-retry budget ran out -- both default to the
    pre-resilience values, so old stores stay loadable here too.
    """

    key: str
    job_id: str
    circuit: str
    fingerprint: str
    config: Dict[str, object]
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
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StoredResult":
        stage_timings = data.get("stage_timings")
        cache_stats = data.get("cache_stats")
        return cls(
            key=data["key"],
            job_id=data["job_id"],
            circuit=data["circuit"],
            fingerprint=data["fingerprint"],
            config=dict(data["config"]),
            status=data["status"],
            summary=data.get("summary"),
            error=data.get("error"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            stage_timings=dict(stage_timings) if stage_timings else None,
            cache_stats=dict(cache_stats) if cache_stats else None,
            retried=int(data.get("retried", 0)),
            exhausted=bool(data.get("exhausted", False)),
        )


class ResultStore:
    """Append-only, content-addressed store of campaign results.

    Appends go through one persistent file handle (opened lazily on the
    first :meth:`put`, flushed after every record, closed by :meth:`close`
    or the context-manager exit) instead of a reopen per record -- a
    campaign streaming hundreds of results pays one ``open`` total.  The
    handle is append-mode, so the torn-tail repair in :meth:`_load` (which
    truncates through a separate handle before any ``put``) is unaffected.

    The writer lock is acquired together with the append handle (or
    eagerly via :meth:`lock`), held for the store's lifetime and released
    by :meth:`close`.  ``read_only=True`` disables :meth:`put`, skips the
    lock entirely and also skips the on-disk tail repair -- corrupt
    trailing records are dropped from the in-memory index only, so
    inspecting a store never races its writer.
    """

    def __init__(self, root: "str | Path", read_only: bool = False):
        self._root = Path(root)
        self._read_only = read_only
        if not read_only:
            self._root.mkdir(parents=True, exist_ok=True)
        self._path = self._root / RESULTS_FILENAME
        self._index: Dict[str, StoredResult] = {}
        self._handle = None
        self._lock_handle = None
        self._load()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Flush the append handle and release the writer lock (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._lock_handle is not None:
            # Closing drops the flock; the lock file itself is left behind
            # as a harmless pid breadcrumb (flock, not file existence, is
            # the lock).
            self._lock_handle.close()
            self._lock_handle = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        return self._root

    @property
    def path(self) -> Path:
        return self._path

    @property
    def read_only(self) -> bool:
        return self._read_only

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[StoredResult]:
        return iter(self._index.values())

    def get(self, key: str) -> Optional[StoredResult]:
        return self._index.get(key)

    def completed(self, key: str) -> bool:
        """True when the key has a successful (resumable) record."""
        record = self._index.get(key)
        return record is not None and record.ok

    def records(self) -> List[StoredResult]:
        """All current records (one per key, insertion order)."""
        return list(self._index.values())

    def rows(self) -> List[Dict[str, object]]:
        """The summary rows of every successful record."""
        return [
            dict(record.summary)
            for record in self._index.values()
            if record.ok and record.summary is not None
        ]

    # ------------------------------------------------------------------
    # Writer lock
    # ------------------------------------------------------------------
    def lock(self) -> None:
        """Acquire the advisory writer lock now (idempotent).

        Campaign runners call this up front so two campaigns sharing one
        store directory fail fast at start instead of mid-run on the first
        append.  Raises :class:`StoreLockedError` when another live
        process holds the lock; a lock left by a dead pid is taken over
        with a warning (fcntl locks die with their holder, so takeover is
        the kernel's default -- the warning just surfaces the crash).
        """
        if self._read_only:
            raise RuntimeError("cannot lock a read-only result store")
        if self._lock_handle is not None or fcntl is None:
            return
        lock_path = self._root / LOCK_FILENAME
        handle = open(lock_path, "a+", encoding="utf-8")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.seek(0)
            text = handle.read().strip()
            handle.close()
            holder: Optional[int] = None
            if text.isdigit():
                holder = int(text)
            raise StoreLockedError(self._path, holder) from None
        # Lock acquired.  A recorded pid that is no longer alive means the
        # previous writer crashed without closing -- surface the takeover.
        handle.seek(0)
        text = handle.read().strip()
        if text.isdigit() and int(text) != os.getpid() and not _pid_alive(int(text)):
            warnings.warn(
                f"taking over the writer lock of {self._path} from dead "
                f"process {text} (crashed writer)",
                RuntimeWarning,
                stacklevel=2,
            )
        handle.seek(0)
        handle.truncate()
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        self._lock_handle = handle

    def writer_pid(self) -> Optional[int]:
        """Pid of the current live writer, or None when the store is free.

        Purely diagnostic: probes the flock without blocking and reads the
        recorded pid.  Works from read-only stores.
        """
        if fcntl is None:  # pragma: no cover - Windows
            return None
        if self._lock_handle is not None:
            return os.getpid()
        lock_path = self._root / LOCK_FILENAME
        if not lock_path.exists():
            return None
        with open(lock_path, "r", encoding="utf-8") as handle:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_SH | fcntl.LOCK_NB)
            except OSError:
                text = handle.read().strip()
                return int(text) if text.isdigit() else -1
            return None

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def put(self, record: StoredResult) -> None:
        """Append one record and update the index (last record wins)."""
        if self._read_only:
            raise RuntimeError(
                f"result store {self._path} was opened read-only"
            )
        if self._handle is None:
            self.lock()
            self._handle = self._path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        # Explicit flush: the record must be durable (and visible to
        # ``reload`` in this or another process) before put returns --
        # the crash-consistency contract is per record, not per close.
        self._handle.flush()
        self._index[record.key] = record

    def reload(self) -> None:
        """Re-read the store file (e.g. after another process appended).

        Closes the append handle (and releases the writer lock) first so
        the tail repair in :meth:`_load` never races a buffered append
        position.
        """
        self.close()
        self._index = {}
        self._load()

    def _load(self) -> None:
        """Build the index from the JSONL file.

        A crash mid-append -- or a torn page writeback after a hard kill
        -- leaves a *corrupt tail*: one or more damaged trailing lines
        (partial records, garbage bytes, half-flushed fragments).  Every
        record before the damage is intact, so the store is still
        perfectly usable: the corrupt suffix is dropped with a warning and
        the file is truncated back to the last complete record (otherwise
        the next append would concatenate onto the fragment and corrupt a
        *good* record).  If the damage is an interrupted append that got
        the whole final record out and lost only the newline, the record
        is kept and the newline restored.

        Corruption *followed by an intact record* is not a torn tail --
        appends cannot damage earlier lines, so an interior bad line means
        real file corruption, and dropping it would silently lose a good
        record.  That still fails loudly.

        Read-only stores apply the same tail semantics to the in-memory
        index but never write the repair back to disk.
        """
        if not self._path.exists():
            return
        raw = self._path.read_bytes()
        lines = raw.split(b"\n")
        good_end = 0  # byte offset just past the last intact line
        offset = 0
        corrupt: List[tuple] = []  # (line_number, error) of damaged lines
        for line_number, line in enumerate(lines, 1):
            line_end = offset + len(line) + 1  # +1 for the newline
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                offset = line_end
                if not line:
                    continue
                good_end = min(offset, len(raw))
                continue
            try:
                record = StoredResult.from_dict(json.loads(text))
            # AttributeError: a damaged line can still be valid JSON that
            # is not an object (``1``, ``[]``), which has no ``.get``.
            except (
                AttributeError, json.JSONDecodeError, KeyError, TypeError, ValueError
            ) as error:
                if not corrupt:
                    corrupt_start = good_end
                corrupt.append((line_number, error))
                offset = line_end
                continue
            if corrupt:
                # An intact record after a damaged line: interior
                # corruption, not a torn tail.
                line_number, error = corrupt[0]
                raise ValueError(
                    f"corrupt result store {self._path} at line "
                    f"{line_number}: {error}"
                )
            self._index[record.key] = record
            offset = line_end
            good_end = min(offset, len(raw))
        if corrupt:
            first_line, error = corrupt[0]
            warnings.warn(
                f"dropping {len(corrupt)} torn trailing line(s) of "
                f"{self._path} starting at line {first_line} (crash/append "
                f"damage: {error}); {len(self._index)} intact records kept",
                RuntimeWarning,
                stacklevel=2,
            )
            if not self._read_only:
                with self._path.open("r+b") as handle:
                    handle.truncate(corrupt_start)
            return
        if raw and not raw.endswith(b"\n") and not self._read_only:
            # The final record parsed, but its terminating newline was lost
            # (append interrupted between the record write and the newline
            # write).  Restore the boundary now, otherwise the next append
            # would concatenate onto this line and corrupt a good record.
            with self._path.open("ab") as handle:
                handle.write(b"\n")
