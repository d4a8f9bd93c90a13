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
tractable: committed constraints only ever grow within a seed, so a position
found unsolvable for a cube stays unsolvable for that seed and only the
consistent (cube, position) trials of a scan are kept; the per-(cube,
position) equations depend only on the hardware, so each encode builds them
once for the whole test set (chunked numpy products,
:meth:`~repro.encoding.equations.EquationSystem.precompute_cube_words`) and
holds them until it returns; and a trial's residual
rows are themselves valid trial input, so each solvable position keeps its
equations *reduced against the committed basis*, and a later selection step
re-tries only the positions whose residual support meets a pivot committed
since.  The scan runs one specified-bit-count group at a time.  The group's
cubes have the same rows per position, so the cubes not yet scanned in the
seed test every window position in one numpy batch
(:meth:`~repro.gf2.solve.IncrementalSolver.try_positions_packed`), and the
group's stale positions are re-tried in one more batch, zero rows padding
the shorter residuals.  The pick is then one minimum over the group's
solvable positions: the key (new pivots, solvable positions of the cube,
position, cube index) is criteria a-c, the cube index breaking the last
ties.  Constructing the encoder with ``batch_trials=False`` re-reduces every
open position from scratch instead, one
:meth:`~repro.gf2.solve.IncrementalSolver.try_masks` trial each; the two
produce bit-identical results (the golden-equivalence tests rely on this).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.encoding.equations import EquationSystem
from repro.encoding.results import CubeEmbedding, EncodingResult, SeedRecord
from repro.gf2.solve import IncrementalSolver, TrialResult
from repro.testdata.test_set import TestSet


class EncodingError(RuntimeError):
    """Raised when a test cube cannot be encoded at all.

    This happens when a cube's system is inconsistent at every window
    position even with a fresh (unconstrained) seed -- in practice it means
    the LFSR is too small for the cube's specified-bit count, or the phase
    shifter introduces an unlucky linear dependency.  The fix is a larger
    LFSR or a different phase-shifter seed.
    """


class _CubeScan:
    """A pending cube's solvable window positions in the current seed.

    ``trials`` maps each position that is still solvable to its trial,
    whose ``reduced_rows`` are the position's equations reduced against the
    basis of the scan that produced it; ``supports`` holds the OR of those
    rows.  ``epoch`` and ``pivot_mask`` are the solver's at the cube's
    latest scan.
    """

    __slots__ = ("epoch", "pivot_mask", "trials", "supports")

    def __init__(self, epoch: int, pivot_mask: int):
        self.epoch = epoch
        self.pivot_mask = pivot_mask
        self.trials: Dict[int, TrialResult] = {}
        self.supports: Dict[int, int] = {}

    def add(self, position: int, trial: TrialResult) -> None:
        support = 0
        for row in trial.reduced_rows:
            support |= row
        self.trials[position] = trial
        self.supports[position] = support


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
        Scan each specified-bit-count group in packed batches and re-try
        only the stale residuals (default).  False runs the reference scan,
        one from-scratch trial per open position; results are bit-identical
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
            # cube).  They need no gemm, so the precheck runs first and a
            # rejected attempt pays no precompute.
            position0 = [
                self._equations.cube_equations_at(cube, 0) for cube in cubes
            ]
            self._precheck_encodability(position0)
            blocks = self._equations.precompute_cube_words(cubes)
            cube_equations = None
        else:
            cube_equations = [self._equations.cube_equations(cube) for cube in cubes]
            position0 = [equations[0] for equations in cube_equations]
            self._precheck_encodability(position0)
            blocks = None
        spec_counts = [cube.specified_count() for cube in cubes]

        remaining = set(range(len(cubes)))
        seeds: List[SeedRecord] = []
        while remaining:
            record = self._build_seed(
                seed_index=len(seeds),
                remaining=remaining,
                blocks=blocks,
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
        blocks: Optional[List[Tuple[np.ndarray, int]]],
        cube_equations: Optional[List[List[List[Tuple[int, int]]]]],
        position0: List[List[Tuple[int, int]]],
        spec_counts: List[int],
    ) -> SeedRecord:
        solver = IncrementalSolver(self._equations.lfsr_size)
        embeddings: List[CubeEmbedding] = []
        encoded_here: set = set()
        # The scans of the cubes still pending in *this* seed.
        scans: Dict[int, _CubeScan] = {}

        first = self._select_first_cube(solver, remaining, position0, spec_counts)
        if first is not None:
            cube_index, trial = first
            solver.commit(trial)
            embeddings.append(CubeEmbedding(cube_index, 0))
            encoded_here.add(cube_index)

        while True:
            pick = self._select_candidate(
                solver, remaining, encoded_here, blocks, cube_equations, spec_counts, scans
            )
            if pick is None:
                break
            cube_index, position = pick
            solver.commit(scans.pop(cube_index).trials[position])
            embeddings.append(CubeEmbedding(cube_index, position))
            encoded_here.add(cube_index)

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
        blocks: Optional[List[Tuple[np.ndarray, int]]],
        cube_equations: Optional[List[List[List[Tuple[int, int]]]]],
        spec_counts: List[int],
        scans: Dict[int, _CubeScan],
    ) -> Optional[Tuple[int, int]]:
        """One selection step of the greedy algorithm: ``(cube, position)``.

        Groups the pending cubes by specified-bit count, densest first, and
        scans one group at a time.  In the first group with a solvable
        position the pick is the minimum of (new pivots, number of
        solvable positions of the cube, position, cube index): criteria a,
        b and c, with the cube index breaking the last ties.
        """
        by_count: Dict[int, List[int]] = {}
        for cube_index in remaining:
            if cube_index not in encoded_here:
                by_count.setdefault(spec_counts[cube_index], []).append(cube_index)
        for count in sorted(by_count, reverse=True):
            group = by_count[count]
            if self._batch_trials:
                self._scan_group(solver, group, blocks, scans)
            else:
                self._scan_group_reference(solver, group, cube_equations, scans)
            best = min(
                (
                    (trial.new_pivots, len(scans[cube].trials), position, cube)
                    for cube in group
                    for position, trial in scans[cube].trials.items()
                ),
                default=None,
            )
            if best is not None:
                return best[3], best[2]
        return None

    def _scan_group(
        self,
        solver: IncrementalSolver,
        group: List[int],
        blocks: List[Tuple[np.ndarray, int]],
        scans: Dict[int, _CubeScan],
    ) -> None:
        """Bring the scans of one specified-bit-count group up to date.

        The group's cubes have the same number of rows per position, so
        the cubes not yet scanned in this seed test every window position
        in one :meth:`~repro.gf2.solve.IncrementalSolver.try_positions_packed`
        batch.  A scanned cube only re-tries the residual rows of positions
        whose support meets a pivot column committed since its scan: a
        residual that misses all of them would reduce to itself.  Those
        positions of the whole group are re-tried in one more batch.
        Positions found inconsistent never recover within a seed, so only
        the consistent ones are kept.
        """
        epoch, pivot_mask = solver.epoch, solver.pivot_mask
        fresh: List[_CubeScan] = []
        fresh_blocks = []
        stale: List[Tuple[_CubeScan, int]] = []
        stale_rows: List[List[int]] = []
        for cube_index in group:
            scan = scans.get(cube_index)
            if scan is None:
                scan = scans[cube_index] = _CubeScan(epoch, pivot_mask)
                fresh.append(scan)
                fresh_blocks.append(blocks[cube_index])
                continue
            if scan.epoch == epoch:
                continue
            delta = pivot_mask & ~scan.pivot_mask
            for position, support in list(scan.supports.items()):
                if support & delta:
                    del scan.supports[position]
                    stale.append((scan, position))
                    stale_rows.append(scan.trials.pop(position).reduced_rows)
            scan.epoch, scan.pivot_mask = epoch, pivot_mask
        if fresh:
            words = np.concatenate([block for block, _ in fresh_blocks])
            window = self._equations.window_length
            for candidate, trial in solver.try_positions_packed(
                words, fresh_blocks[0][1]
            ):
                slot, position = divmod(candidate, window)
                fresh[slot].add(position, trial)
        if stale:
            for candidate, trial in solver.try_positions(stale_rows):
                scan, position = stale[candidate]
                scan.add(position, trial)

    def _scan_group_reference(
        self,
        solver: IncrementalSolver,
        group: List[int],
        cube_equations: List[List[List[Tuple[int, int]]]],
        scans: Dict[int, _CubeScan],
    ) -> None:
        """The unbatched scan: every open position re-reduced from scratch."""
        for cube_index in group:
            scan = scans.get(cube_index)
            positions = (
                range(self._equations.window_length) if scan is None else list(scan.trials)
            )
            equations = cube_equations[cube_index]
            scan = scans[cube_index] = _CubeScan(solver.epoch, solver.pivot_mask)
            for position in positions:
                trial = solver.try_masks(equations[position])
                if trial.consistent:
                    scan.add(position, trial)

    def _free_fill(self, seed_index: int) -> List[int]:
        """Pseudo-random fill bits for the free variables of one seed."""
        rng = random.Random(self._fill_seed * 1_000_003 + seed_index)
        return [rng.getrandbits(1) for _ in range(self._equations.lfsr_size)]


def verify_encoding(
    result: EncodingResult, cover: np.ndarray
) -> List[Tuple[int, int, int]]:
    """Check every deterministic embedding against the encoding's cover.

    ``cover`` is the :func:`~repro.skip.selection.build_cover` of
    ``result``'s seeds and test set (the staged pipeline reads the
    :class:`~repro.context.CompressionContext`-cached one): bit ``p`` of
    ``cover[c, s]`` (``np.packbits`` order, most significant bit first)
    says whether seed ``s`` produces a vector covering cube ``c`` at window
    position ``p``.  Returns a list of violations ``(seed_index,
    cube_index, position)``; an empty list means every encoded cube is
    really produced by its seed at its assigned window position.
    """
    violations = []
    for seed_slot, record in enumerate(result.seeds):
        for embedding in record.embeddings:
            if not embedding.deterministic:
                continue
            position = embedding.position
            byte = cover[embedding.cube_index, seed_slot, position >> 3]
            if not (byte >> (7 - (position & 7))) & 1:
                violations.append(
                    (record.index, embedding.cube_index, position)
                )
    return violations
