"""Solving linear systems over GF(2), incrementally.

LFSR reseeding computes a seed by solving a linear system whose unknowns are
the ``n`` initial LFSR cells and whose equations come from the specified bits
of the test cubes encoded into the seed (see Koenemann, ETC 1991).  The
window-based algorithm of the paper adds test cubes to a seed *one at a time*,
and for every candidate (cube, window-position) pair it must know

* whether the candidate's equations are *consistent* with everything already
  encoded in the seed, and
* how many previously free seed variables the candidate would pin down
  (the "replaced variables" tie-break criterion of Section 2).

The :class:`IncrementalSolver` supports exactly this usage: it keeps the
accepted equations in reduced row-echelon form (augmented with the right-hand
side), offers a *trial* mode that evaluates a batch of equations without
committing them, and can commit a previously evaluated batch in O(batch)
row operations.  :meth:`IncrementalSolver.try_positions_packed` runs the
trials of many candidates (for the window encoder: every window position of a
group of cubes, or a group's stale residuals) as numpy passes: Four Russians
tables of the basis (Arlazarov, Dinic, Kronrod and Faradzev 1970, as in M4RI)
remove the committed pivots, then one column sweep over all candidates
decides consistency and rank.  Only the consistent candidates come back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gf2.bitvec import BitVector

#: Below this total row count :meth:`IncrementalSolver.try_positions_packed`
#: runs :meth:`~IncrementalSolver.try_augmented` per candidate.  On 6,382
#: batches of L = 1-16 encodes (2-vCPU host, numpy 2.4) the numpy passes
#: took 148 / 125 us at 64-79 / 80-95 rows and the loop 112 / 144 us: the
#: crossover lies near 80 rows, within noise of 64.
_BATCH_MIN_ROWS = 64


class _SolverStats:
    """Process-wide solver activity counters (telemetry feed).

    Solvers are created per seed deep inside the encoder, so per-instance
    counters would never surface; a module-level accumulator incremented in
    the leaf methods only (``try_augmented``, the packed batch loop,
    ``commit``) lets the pipeline snapshot/delta around an encode call and
    attribute the work without threading a registry through the encoder.
    The increments are single attribute adds -- negligible next to the row
    reductions they count.
    """

    __slots__ = ("trials", "batches", "commits", "pivots")

    def __init__(self):
        self.trials = 0  # candidate systems evaluated
        self.batches = 0  # vectorized packed-batch passes
        self.commits = 0  # committed trials
        self.pivots = 0  # pivot rows inserted (rank growth)


SOLVER_STATS = _SolverStats()


def solver_stats_snapshot() -> Dict[str, int]:
    """Flat copy of the process-wide solver counters."""
    return {
        "solver_trials": SOLVER_STATS.trials,
        "solver_batches": SOLVER_STATS.batches,
        "solver_commits": SOLVER_STATS.commits,
        "solver_pivots": SOLVER_STATS.pivots,
    }

def _pack_ints_to_words(rows: Sequence[int], num_words: int) -> np.ndarray:
    """Pack big-int rows into a ``(len(rows), num_words)`` uint64 array."""
    if num_words == 1:
        return np.fromiter(rows, dtype=np.uint64, count=len(rows)).reshape(-1, 1)
    nbytes = num_words * 8
    buffer = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    return np.frombuffer(buffer, dtype="<u8").reshape(len(rows), num_words).copy()


def _words_to_ints(words: np.ndarray) -> List[int]:
    """Inverse of :func:`_pack_ints_to_words` (row-wise)."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    data = words.astype("<u8", copy=False).tobytes()
    nbytes = words.shape[1] * 8
    return [
        int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "little")
        for i in range(words.shape[0])
    ]


def byte_tables(bit_rows: np.ndarray) -> np.ndarray:
    """Four Russians lookup tables, one 256-entry table per input byte.

    ``bit_rows[i, b]`` is the packed row that bit ``b`` of input byte ``i``
    selects; ``tables[i, v]`` is the XOR of the rows selected by the set
    bits of ``v``.  A GF(2) product with a bit-packed input then costs one
    lookup and one XOR per input byte.
    """
    tables = np.zeros((len(bit_rows), 256) + bit_rows.shape[2:], bit_rows.dtype)
    # Entries [2^b, 2^(b+1)) are entries [0, 2^b) plus bit b's row.
    for bit in range(8):
        low = 1 << bit
        np.bitwise_xor(
            tables[:, :low], bit_rows[:, bit, None], out=tables[:, low : 2 * low]
        )
    return tables


@dataclass(frozen=True)
class Equation:
    """A single linear equation ``coeffs . x = rhs`` over GF(2).

    ``coeffs`` is the packed integer of coefficient bits (bit ``i`` multiplies
    variable ``x_i``) and ``rhs`` is 0 or 1.
    """

    coeffs: int
    rhs: int

    def __post_init__(self):
        if self.rhs not in (0, 1):
            raise ValueError("rhs must be 0 or 1")

    @classmethod
    def from_bitvector(cls, coeffs: BitVector, rhs: int) -> "Equation":
        return cls(coeffs.value, rhs)


class SolveOutcome(Enum):
    """Result of evaluating a batch of equations against the current basis."""

    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"


@dataclass
class TrialResult:
    """Outcome of :meth:`IncrementalSolver.try_equations`.

    Attributes
    ----------
    outcome:
        Whether the batch is consistent with the already committed equations.
    new_pivots:
        Number of previously free variables the batch would pin down (i.e. the
        rank increase).  This is the "replaced variables" count used by the
        seed-computation tie-breaks.
    reduced_rows:
        The non-zero reduced augmented rows, ready to be committed.
    """

    outcome: SolveOutcome
    new_pivots: int
    reduced_rows: List[int] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.outcome is SolveOutcome.CONSISTENT


class IncrementalSolver:
    """Reduced row-echelon basis of GF(2) equations with trial evaluation.

    The augmented representation packs the right-hand side as bit ``n`` of each
    row (``n`` = number of variables), so a row reduces to "0 = 1" exactly when
    its value equals ``1 << n``.
    """

    def __init__(self, num_variables: int):
        if num_variables <= 0:
            raise ValueError("num_variables must be positive")
        self._n = num_variables
        self._rhs_bit = 1 << num_variables
        # pivot column -> augmented row with that pivot.  Invariant: every
        # stored row is *fully* reduced -- it contains its own pivot column,
        # free columns and the RHS bit only.  :meth:`commit` maintains the
        # invariant incrementally (back-substitution of each new pivot), so
        # the RREF basis is never recomputed from scratch.
        self._pivots: Dict[int, int] = {}
        # Bumped on every state change; lets derived caches (the packed
        # fully-reduced basis, callers' residual caches) know when to refresh.
        self._epoch = 0
        self._pivot_mask = 0
        self._tables: Optional[Tuple[int, List[int], np.ndarray]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic counter of committed state changes.

        Residuals produced by a trial stay *valid trial inputs* forever (the
        basis only grows), but reducing them again is only worthwhile when
        the epoch has advanced; callers use this to key their caches.
        """
        return self._epoch

    @property
    def pivot_mask(self) -> int:
        """OR of ``1 << pivot`` over all committed pivot columns.

        Re-trying a cached residual batch is the identity whenever the batch
        support does not intersect the pivot columns committed since the
        batch was produced -- callers compare snapshots of this mask to skip
        such no-op trials entirely.
        """
        return self._pivot_mask

    def copy(self) -> "IncrementalSolver":
        """An independent copy of the solver state."""
        clone = IncrementalSolver(self._n)
        clone._pivots = dict(self._pivots)
        clone._epoch = self._epoch
        clone._pivot_mask = self._pivot_mask
        return clone

    # ------------------------------------------------------------------
    # Core reduction
    # ------------------------------------------------------------------
    def _reduce(self, aug: int, extra: Optional[Dict[int, int]] = None) -> int:
        """Reduce an augmented row against the committed (and extra) pivots."""
        pivots = self._pivots
        coeffs = aug & ~self._rhs_bit
        while coeffs:
            high = coeffs.bit_length() - 1
            row = pivots.get(high)
            if row is None and extra is not None:
                row = extra.get(high)
            if row is None:
                break
            aug ^= row
            coeffs = aug & ~self._rhs_bit
        return aug

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def try_equations(self, equations: Iterable[Equation]) -> TrialResult:
        """Evaluate a batch of equations without committing them."""
        rhs_bit = self._rhs_bit
        return self.try_augmented(
            (eq.coeffs & (rhs_bit - 1)) | (rhs_bit if eq.rhs else 0)
            for eq in equations
        )

    def try_masks(self, masks_and_rhs: Iterable[Tuple[int, int]]) -> TrialResult:
        """Fast-path version of :meth:`try_equations` taking packed pairs."""
        rhs_bit = self._rhs_bit
        return self.try_augmented(
            (coeffs & (rhs_bit - 1)) | (rhs_bit if rhs else 0)
            for coeffs, rhs in masks_and_rhs
        )

    def try_augmented(self, aug_rows: Iterable[int]) -> TrialResult:
        """Trial evaluation of pre-augmented rows (RHS packed as bit ``n``).

        Accepts the residual rows of an earlier :class:`TrialResult`
        unchanged: residuals are already reduced against the basis of the
        epoch that produced them, so re-trying them after further commits
        only pays for the *newly* committed pivots -- this is what makes the
        encoder's per-epoch residual cache incremental.
        """
        SOLVER_STATS.trials += 1
        extra: Dict[int, int] = {}
        rhs_bit = self._rhs_bit
        for aug in aug_rows:
            aug = self._reduce(aug, extra)
            if aug == rhs_bit:
                return TrialResult(SolveOutcome.INCONSISTENT, 0, [])
            if aug == 0:
                continue
            pivot = (aug & ~rhs_bit).bit_length() - 1
            extra[pivot] = aug
        return TrialResult(
            SolveOutcome.CONSISTENT, len(extra), list(extra.values())
        )

    # ------------------------------------------------------------------
    # Batched trials (numpy-packed uint64 fast path)
    # ------------------------------------------------------------------
    def _byte_tables(self) -> Tuple[List[int], np.ndarray]:
        """Four Russians tables of the fully reduced basis, cached per epoch.

        Returns ``(pivot_bytes, tables)``: ``pivot_bytes`` lists the bytes
        of the packed augmented row that hold a pivot column, and
        ``tables[i, v]`` is the XOR of the basis rows whose pivot column is
        a set bit of ``v`` in byte ``pivot_bytes[i]``.  Treat the array as
        immutable.
        """
        cached = self._tables
        if cached is not None and cached[0] == self._epoch:
            return cached[1], cached[2]
        columns = sorted(self._pivots)
        num_words = (self._n + 1 + 63) // 64
        rows = _pack_ints_to_words([self._pivots[p] for p in columns], num_words)
        columns = np.array(columns, dtype=np.intp)
        pivot_bytes, slot = np.unique(columns >> 3, return_inverse=True)
        # The basis row of every bit of every pivot byte (zero when free).
        bit_rows = np.zeros((len(pivot_bytes), 8, num_words), dtype=np.uint64)
        bit_rows[slot, columns & 7] = rows
        tables = byte_tables(bit_rows)
        pivot_bytes = pivot_bytes.tolist()
        self._tables = (self._epoch, pivot_bytes, tables)
        return pivot_bytes, tables

    def try_positions(
        self, position_rows: Sequence[Sequence[int]]
    ) -> List[Tuple[int, TrialResult]]:
        """Trial-evaluate many candidate systems against the same basis.

        ``position_rows[v]`` is the augmented-row batch of candidate ``v``.
        Shorter batches are padded with zero rows, which change no trial,
        and the rows are packed into uint64 blocks for
        :meth:`try_positions_packed`, whose result this returns: the
        consistent candidates only.
        """
        rows_each = max(1, max(map(len, position_rows), default=0))
        flat: List[int] = []
        for rows in position_rows:
            flat.extend(rows)
            flat.extend([0] * (rows_each - len(rows)))
        num_words = (self._n + 1 + 63) // 64
        return self.try_positions_packed(
            _pack_ints_to_words(flat, num_words), rows_each
        )

    def try_positions_packed(
        self, words: np.ndarray, rows_each: int
    ) -> List[Tuple[int, TrialResult]]:
        """Trial-evaluate pre-packed candidates; return the consistent ones.

        ``words`` holds the augmented rows of all candidates, ``rows_each``
        consecutive rows per candidate; the array is not modified (the
        encoder re-reads each cube's block across seeds -- see
        :meth:`repro.encoding.equations.EquationSystem.precompute_cube_words`).

        Returns ``(candidate, trial)`` pairs in candidate order, one per
        *consistent* candidate: a candidate absent from the list is
        inconsistent.  Each pair's outcome and ``new_pivots`` equal
        :meth:`try_augmented` on the candidate's rows.  Its
        ``reduced_rows`` are the candidate's non-zero pass-1 residuals; they
        span the same space as :meth:`try_augmented`'s rows, so
        :meth:`commit` builds the same basis.
        """
        total_rows = words.shape[0]
        if rows_each <= 0 or total_rows % rows_each:
            raise ValueError(
                f"row count {total_rows} is not a multiple of rows_each "
                f"({rows_each})"
            )
        num_candidates = total_rows // rows_each
        if total_rows < _BATCH_MIN_ROWS:
            ints = _words_to_ints(words)
            trials = (
                self.try_augmented(ints[base : base + rows_each])
                for base in range(0, total_rows, rows_each)
            )
            return [
                (candidate, trial)
                for candidate, trial in enumerate(trials)
                if trial.consistent
            ]
        SOLVER_STATS.batches += 1
        SOLVER_STATS.trials += num_candidates
        num_words = words.shape[1]
        words = np.ascontiguousarray(words, dtype="<u8")
        residual = words.copy()

        # Pass 1: eliminate every committed pivot column.  Each pivot column
        # appears in exactly one fully reduced basis row, so a row's own
        # pivot bits select the basis rows to add, independently of each
        # other: one table lookup per byte that holds a pivot.
        if self._pivots:
            pivot_bytes, tables = self._byte_tables()
            row_bytes = words.view(np.uint8)
            for table, byte in zip(tables, pivot_bytes):
                residual ^= np.take(table, row_bytes[:, byte], axis=0)

        # Pass 2: Gauss-Jordan over the free columns left in the batch, all
        # candidates at once, on word-major (word, candidate, row) planes.
        # A candidate's first row holding a column is its pivot row; adding
        # it to every row holding the column (itself included, so it
        # clears) removes the column for good, so each column is swept
        # once.  No row keeps a coefficient after the sweep, and a candidate
        # is consistent exactly when no row kept its RHS bit.
        rhs_word, rhs_shift = divmod(self._n, 64)
        support = np.bitwise_or.reduce(residual, axis=0).tolist()
        support[rhs_word] &= (1 << rhs_shift) - 1
        blocks = residual.reshape(num_candidates, rows_each, num_words)
        swept = blocks.transpose(2, 0, 1).copy()
        planes = swept.reshape(num_words, total_rows)
        row_base = np.arange(0, total_rows, rows_each)
        new_pivots = np.zeros(num_candidates, dtype=np.intp)
        for word, bits in enumerate(support):
            while bits:
                column = bits & -bits
                bits ^= column
                holds = (swept[word] & np.uint64(column)) != 0
                first = holds.argmax(axis=1) + row_base
                swept ^= np.take(planes, first, axis=1)[:, :, None] * holds
                new_pivots += np.take(holds, first)
        consistent = np.flatnonzero(~swept.any(axis=(0, 2)))

        # Only consistent candidates need rows to commit: their non-zero
        # pass-1 residuals span the same space as a sequential trial's rows.
        blocks = blocks[consistent]
        nonzero = blocks.any(axis=2)
        rows = _words_to_ints(blocks[nonzero])
        results = []
        end = 0
        for candidate, count, rank in zip(
            consistent.tolist(),
            nonzero.sum(axis=1).tolist(),
            new_pivots[consistent].tolist(),
        ):
            results.append(
                (
                    candidate,
                    TrialResult(SolveOutcome.CONSISTENT, rank, rows[end : end + count]),
                )
            )
            end += count
        return results

    def commit(self, trial: TrialResult) -> None:
        """Commit a previously evaluated consistent batch.

        The trial must have been produced by :meth:`try_equations` /
        :meth:`try_masks` on the *current* solver state (no other commits in
        between); the reduced rows are inserted directly.

        Each inserted row is brought to fully reduced form (every other
        pivot column eliminated) and back-substituted into the existing
        basis rows, so the RREF invariant of ``_pivots`` is maintained
        incrementally -- O(rank) big-int XORs per new pivot.
        """
        if not trial.consistent:
            raise ValueError("cannot commit an inconsistent trial")
        rhs_bit = self._rhs_bit
        changed = False
        for aug in trial.reduced_rows:
            row = self._reduce(aug)
            if row == rhs_bit:
                raise ValueError("trial is stale: row became inconsistent")
            if row == 0:
                continue
            pivot = (row & ~rhs_bit).bit_length() - 1
            pivot_bit = 1 << pivot
            # Fully reduce: the leading-bit pass above only stops at the new
            # pivot; pivot columns below it may survive.  Basis rows carry
            # no bits above their own pivot, so each XOR strictly shrinks
            # the referenced-pivot set.
            rest = row & ~rhs_bit & ~pivot_bit & self._pivot_mask
            while rest:
                row ^= self._pivots[rest.bit_length() - 1]
                rest = row & ~rhs_bit & ~pivot_bit & self._pivot_mask
            # Back-substitute the new pivot out of every existing row.
            for other, other_row in self._pivots.items():
                if other_row & pivot_bit:
                    self._pivots[other] = other_row ^ row
            self._pivots[pivot] = row
            self._pivot_mask |= pivot_bit
            SOLVER_STATS.pivots += 1
            changed = True
        SOLVER_STATS.commits += 1
        if changed:
            self._epoch += 1

    def solution(self, free_fill: Optional[Sequence[int]] = None) -> BitVector:
        """An explicit solution of the committed system.

        Free variables are filled with ``free_fill`` values (cycled) or zeros.
        The returned vector is the LFSR *seed* in the reseeding application.
        """
        fill = list(free_fill) if free_fill else [0]
        if any(b not in (0, 1) for b in fill):
            raise ValueError("free_fill entries must be 0 or 1")
        value = 0
        # Assign free variables first.
        pivot_cols = set(self._pivots)
        fill_idx = 0
        for var in range(self._n):
            if var not in pivot_cols:
                if fill[fill_idx % len(fill)]:
                    value |= 1 << var
                fill_idx += 1
        # Assign pivot variables.  Each fully reduced row references only its
        # own pivot and free columns, so the already-assigned free values
        # determine the pivot bit directly.
        for pivot, row in self._pivots.items():
            rhs = 1 if row & self._rhs_bit else 0
            rest = row & ~self._rhs_bit & ~(1 << pivot)
            acc = rhs ^ ((rest & value).bit_count() & 1)
            if acc:
                value |= 1 << pivot
            else:
                value &= ~(1 << pivot)
        return BitVector(self._n, value)
