"""Window-based multi-cube seed computation (Section 2 of the paper).

Every seed is expanded on-chip into a window of ``L`` pseudo-random vectors,
and as many test cubes as possible are *deterministically* encoded into the
window by solving their linear systems jointly.  The greedy algorithm is the
one the paper adopts from reference [11]:

1. The first seed equation batch is the test cube with the most specified
   bits, solved at the *first* vector of the window (this guarantees that the
   first segment of every seed is useful, which the decompressor exploits).
2. Repeatedly, among the still-unencoded cubes with the maximum number of
   specified bits that have at least one solvable system in the window:

   a. keep the solvable (cube, position) systems whose solution replaces the
      fewest free seed variables (fewest new pivots),
   b. among those, keep the systems of the cube that can be encoded the
      fewest times in the window,
   c. finally take the system nearest to the start of the window.

   The selected system's equations are committed and the cube is marked as
   encoded in this seed.
3. When no remaining cube can be solved anywhere in the window, the seed is
   closed: free variables are filled with pseudo-random values and the next
   seed is started.

The expensive step is the solvability scan.  Three observations keep it
tractable in pure Python: committed constraints only ever grow within a seed,
so a position found unsolvable for a cube stays unsolvable for that seed and
is never re-checked; the per-(cube, position) equations depend only on the
hardware, so they are computed once (in a numpy batch per cube) and cached by
the :class:`~repro.encoding.equations.EquationSystem`; and a trial's residual
rows are themselves valid trial input, so the scan caches each cube's
equations *reduced against the committed basis* and every later selection
step only pays for the pivots committed since (see
:meth:`~repro.gf2.solve.IncrementalSolver.try_augmented`).  The first scan of
a cube within a seed reduces all window positions in one numpy batch
(:meth:`~repro.gf2.solve.IncrementalSolver.try_positions_packed`).
Constructing the encoder with ``batch_trials=False`` restores the original
re-reduce-from-scratch scan; the two produce bit-identical results (the
golden-equivalence test relies on this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.encoding.equations import EquationSystem
from repro.encoding.results import CubeEmbedding, EncodingResult, SeedRecord
from repro.gf2.solve import IncrementalSolver, SolveOutcome, TrialResult
from repro.testdata.test_set import TestSet


class EncodingError(RuntimeError):
    """Raised when a test cube cannot be encoded at all.

    This happens when a cube's system is inconsistent at every window
    position even with a fresh (unconstrained) seed -- in practice it means
    the LFSR is too small for the cube's specified-bit count, or the phase
    shifter introduces an unlucky linear dependency.  The fix is a larger
    LFSR or a different phase-shifter seed.
    """


@dataclass
class _Candidate:
    """A solvable (cube, position) system considered by one selection step."""

    cube_index: int
    position: int
    trial: TrialResult
    solvable_count: int


class WindowEncoder:
    """Greedy window-based seed computation.

    Parameters
    ----------
    equations:
        The equation system describing the decompressor hardware.
    fill_seed:
        Seed of the pseudo-random filler used for the free seed variables
        (the paper fills don't-cares with pseudo-random data; a fixed seed
        keeps every run reproducible).
    batch_trials:
        Use the batched/residual-cached solvability scan (default).  False
        restores the unbatched reference scan; results are bit-identical
        either way.
    """

    def __init__(
        self,
        equations: EquationSystem,
        fill_seed: int = 2008,
        batch_trials: bool = True,
    ):
        self._equations = equations
        self._fill_seed = fill_seed
        self._batch_trials = batch_trials

    def encode(self, test_set: TestSet) -> EncodingResult:
        """Compute seeds until every cube of ``test_set`` is encoded."""
        arch = self._equations.architecture
        if test_set.num_cells != arch.num_cells:
            raise ValueError(
                f"test set width {test_set.num_cells} does not match the scan "
                f"architecture ({arch.num_cells} cells)"
            )
        cubes = test_set.cubes
        if self._batch_trials:
            # The hot path works on the packed per-cube row blocks, built
            # for the whole test set in chunked single gemms up front; only
            # the position-0 pair lists are materialised (precheck, first
            # cube).
            self._equations.precompute_cube_words(cubes)
            cube_equations = None
            position0 = [
                self._equations.cube_equations_at(cube, 0) for cube in cubes
            ]
        else:
            self._equations.reserve_cube_capacity(len(cubes))
            cube_equations = [self._equations.cube_equations(cube) for cube in cubes]
            position0 = [equations[0] for equations in cube_equations]
        spec_counts = [cube.specified_count() for cube in cubes]
        self._precheck_encodability(position0)

        remaining = set(range(len(cubes)))
        seeds: List[SeedRecord] = []
        while remaining:
            record = self._build_seed(
                seed_index=len(seeds),
                remaining=remaining,
                cubes=cubes,
                cube_equations=cube_equations,
                position0=position0,
                spec_counts=spec_counts,
            )
            if not record.embeddings:
                unencodable = sorted(remaining)
                raise EncodingError(
                    f"cubes {unencodable[:10]} cannot be encoded anywhere in the "
                    f"window even with an unconstrained seed; increase the LFSR "
                    f"size (currently {self._equations.lfsr_size}) or change the "
                    f"phase shifter"
                )
            for embedding in record.embeddings:
                remaining.discard(embedding.cube_index)
            seeds.append(record)

        return EncodingResult(
            circuit=test_set.name,
            lfsr_size=self._equations.lfsr_size,
            window_length=self._equations.window_length,
            num_scan_chains=arch.num_chains,
            chain_length=arch.chain_length,
            seeds=seeds,
            num_cubes=len(cubes),
        )

    def _precheck_encodability(
        self, position0: List[List[Tuple[int, int]]]
    ) -> None:
        """Fail fast on cubes that no seed can ever encode.

        Linear dependencies among a cube's equation rows are *structural*:
        multiplying every row by ``A^(v*r)`` preserves them, so a cube whose
        system is inconsistent with an unconstrained seed at window position 0
        is inconsistent at every position and in every seed.  Detecting this
        up front costs one cheap solvability check per cube and lets callers
        retry with a different phase shifter (or a larger LFSR) immediately
        instead of after a long encoding run.
        """
        unencodable = []
        for cube_index, equations in enumerate(position0):
            solver = IncrementalSolver(self._equations.lfsr_size)
            if not solver.try_masks(equations).consistent:
                unencodable.append(cube_index)
        if unencodable:
            raise EncodingError(
                f"cubes {unencodable[:10]} have structurally conflicting "
                f"equations (linearly dependent rows with inconsistent values); "
                f"increase the LFSR size (currently {self._equations.lfsr_size}) "
                f"or rebuild the phase shifter with a different seed"
            )

    # ------------------------------------------------------------------
    # Seed construction
    # ------------------------------------------------------------------
    def _build_seed(
        self,
        seed_index: int,
        remaining: set,
        cubes: List,
        cube_equations: Optional[List[List[List[Tuple[int, int]]]]],
        position0: List[List[Tuple[int, int]]],
        spec_counts: List[int],
    ) -> SeedRecord:
        solver = IncrementalSolver(self._equations.lfsr_size)
        window = self._equations.window_length
        embeddings: List[CubeEmbedding] = []
        encoded_here: set = set()
        # Positions still possibly solvable for each cube, for *this* seed.
        open_positions: Dict[int, List[int]] = {}
        # Per-cube trials with equations reduced against the committed basis,
        # tagged with the solver epoch and pivot mask that produced them
        # (refreshed lazily; see _scan_positions).  Reset per seed.
        residuals: Dict[int, Tuple[int, int, Dict[int, Tuple[TrialResult, int]]]] = {}

        first = self._select_first_cube(solver, remaining, position0, spec_counts)
        if first is not None:
            cube_index, trial = first
            solver.commit(trial)
            embeddings.append(CubeEmbedding(cube_index, 0))
            encoded_here.add(cube_index)

        while True:
            candidate = self._select_candidate(
                solver,
                remaining,
                encoded_here,
                cubes,
                cube_equations,
                spec_counts,
                open_positions,
                window,
                residuals,
            )
            if candidate is None:
                break
            solver.commit(candidate.trial)
            embeddings.append(CubeEmbedding(candidate.cube_index, candidate.position))
            encoded_here.add(candidate.cube_index)
            open_positions.pop(candidate.cube_index, None)
            residuals.pop(candidate.cube_index, None)

        seed_value = solver.solution(free_fill=self._free_fill(seed_index))
        return SeedRecord(index=seed_index, seed=seed_value, embeddings=embeddings)

    def _select_first_cube(
        self,
        solver: IncrementalSolver,
        remaining: set,
        position0: List[List[Tuple[int, int]]],
        spec_counts: List[int],
    ) -> Optional[Tuple[int, TrialResult]]:
        """The densest remaining cube solvable at window position 0."""
        order = sorted(remaining, key=lambda i: (-spec_counts[i], i))
        for cube_index in order:
            trial = solver.try_masks(position0[cube_index])
            if trial.consistent:
                return cube_index, trial
        return None

    def _select_candidate(
        self,
        solver: IncrementalSolver,
        remaining: set,
        encoded_here: set,
        cubes: List,
        cube_equations: Optional[List[List[List[Tuple[int, int]]]]],
        spec_counts: List[int],
        open_positions: Dict[int, List[int]],
        window: int,
        residuals: Dict[int, Tuple[int, int, Dict[int, Tuple[TrialResult, int]]]],
    ) -> Optional[_Candidate]:
        """One selection step of the greedy algorithm (criteria a-c)."""
        pending = [i for i in remaining if i not in encoded_here]
        if not pending:
            return None
        # Group by specified-bit count, densest group first.
        by_count: Dict[int, List[int]] = {}
        for cube_index in pending:
            by_count.setdefault(spec_counts[cube_index], []).append(cube_index)

        for count in sorted(by_count, reverse=True):
            candidates: List[_Candidate] = []
            for cube_index in by_count[count]:
                positions = open_positions.setdefault(cube_index, list(range(window)))
                solvable: List[Tuple[int, TrialResult]] = []
                still_open: List[int] = []
                if self._batch_trials:
                    trials = self._scan_positions(
                        solver, cubes[cube_index], positions, residuals, cube_index
                    )
                else:
                    equations = cube_equations[cube_index]
                    trials = [
                        solver.try_masks(equations[position]) for position in positions
                    ]
                for position, trial in zip(positions, trials):
                    if trial.consistent:
                        solvable.append((position, trial))
                        still_open.append(position)
                open_positions[cube_index] = still_open
                for position, trial in solvable:
                    candidates.append(
                        _Candidate(
                            cube_index=cube_index,
                            position=position,
                            trial=trial,
                            solvable_count=len(solvable),
                        )
                    )
            if candidates:
                return self._pick(candidates)
        return None

    def _scan_positions(
        self,
        solver: IncrementalSolver,
        cube,
        positions: List[int],
        residuals: Dict[int, Tuple[int, int, Dict[int, Tuple[TrialResult, int]]]],
        cube_index: int,
    ) -> List[TrialResult]:
        """Solvability trials for a cube's open positions, residual-cached.

        The first scan of a cube within a seed reduces every position's
        hardware equations against the committed basis in one batched numpy
        pass.  Later scans re-try the cached *residual* rows, which only
        pays for pivots committed since the previous scan -- and positions
        whose residual support misses every newly committed pivot column
        (or all of them, when the solver epoch has not advanced) are reused
        without touching the solver at all.  Inconsistent positions never
        recover within a seed, so their residuals (and open slots) are
        dropped by the caller.
        """
        cached = residuals.get(cube_index)
        if cached is not None and cached[0] == solver.epoch:
            return [cached[2][position][0] for position in positions]
        entries: Dict[int, Tuple[TrialResult, int]] = {}
        if cached is None:
            words, rows_each = self._equations.cube_position_words(cube)
            if rows_each == 0:
                trials = [
                    TrialResult(SolveOutcome.CONSISTENT, 0, []) for _ in positions
                ]
                entries = {
                    position: (trial, 0)
                    for position, trial in zip(positions, trials)
                }
                residuals[cube_index] = (solver.epoch, solver.pivot_mask, entries)
                return trials
            # ``open_positions`` and ``residuals`` are filled and dropped
            # together, so a cube's first scan in a seed covers every window
            # position: ``words`` needs no row selection.
            trials = solver.try_positions_packed(words, rows_each)
        else:
            # Only the pivot columns committed since the cached scan can
            # change a trial; a residual batch whose support misses all of
            # them would reduce to itself, so reuse the cached trial as-is.
            delta = solver.pivot_mask & ~cached[1]
            old_entries = cached[2]
            trials = []
            for position in positions:
                trial, support = old_entries[position]
                if support & delta:
                    trial = solver.try_augmented(trial.reduced_rows)
                else:
                    entries[position] = (trial, support)
                trials.append(trial)
        for position, trial in zip(positions, trials):
            if position not in entries and trial.consistent:
                support = 0
                for row in trial.reduced_rows:
                    support |= row
                entries[position] = (trial, support)
        residuals[cube_index] = (solver.epoch, solver.pivot_mask, entries)
        return trials

    @staticmethod
    def _pick(candidates: List[_Candidate]) -> _Candidate:
        """Tie-breaks b and c: fewest replaced variables, rarest cube, earliest."""
        min_pivots = min(c.trial.new_pivots for c in candidates)
        level1 = [c for c in candidates if c.trial.new_pivots == min_pivots]
        min_solvable = min(c.solvable_count for c in level1)
        level2 = [c for c in level1 if c.solvable_count == min_solvable]
        return min(level2, key=lambda c: (c.position, c.cube_index))

    def _free_fill(self, seed_index: int) -> List[int]:
        """Pseudo-random fill bits for the free variables of one seed."""
        rng = random.Random(self._fill_seed * 1_000_003 + seed_index)
        return [rng.getrandbits(1) for _ in range(self._equations.lfsr_size)]


def verify_encoding(
    result: EncodingResult,
    test_set: TestSet,
    equations: EquationSystem,
    windows: Optional[List[List[int]]] = None,
) -> List[Tuple[int, int, int]]:
    """Check every deterministic embedding against the expanded windows.

    Returns a list of violations ``(seed_index, cube_index, position)``; an
    empty list means every encoded cube is really produced by its seed at its
    assigned window position.  This is the ground-truth correctness check the
    tests and the decompressor simulation rely on.

    ``windows`` may carry the already-expanded seed windows (entry ``[s][v]``
    = packed vector of seed ``s`` at position ``v``, exactly
    :meth:`EquationSystem.expand_seeds` output); when omitted the seeds are
    expanded here.  The staged pipeline passes the
    :class:`~repro.context.CompressionContext`-cached expansion so that
    verification, the sequence reducer and any coverage check share one
    expansion instead of three.
    """
    violations = []
    if windows is None:
        windows = equations.expand_seeds([record.seed for record in result.seeds])
    for record, window in zip(result.seeds, windows):
        for embedding in record.embeddings:
            if not embedding.deterministic:
                continue
            cube = test_set[embedding.cube_index]
            if not cube.matches_vector(window[embedding.position]):
                violations.append(
                    (record.index, embedding.cube_index, embedding.position)
                )
    return violations
