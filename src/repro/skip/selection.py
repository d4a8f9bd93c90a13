"""Useful-segment selection (the covering step of Section 3.2).

Because most cubes specify only a handful of bits, they are *fortuitously*
embedded in many window vectors besides the one they were deterministically
encoded at.  The paper exploits this to minimise the number of segments that
have to be generated in Normal mode:

1. Build the embedding map: for every cube, every (seed, segment) whose
   expanded vectors cover the cube.
2. **Set A** -- cubes embedded in exactly one segment across all windows.
   Their segments are forced useful; every other cube covered by those
   segments is dropped from further consideration.
3. **Set B** -- the remaining cubes are covered greedily: repeatedly pick the
   segment embedding the most still-uncovered cubes (ties broken towards the
   segment closest to the start of its window), mark it useful and drop the
   cubes it covers.

The result is the set of useful segments per seed, plus the bookkeeping the
decompressor and the reporting need (which segment covers which cube).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.encoding.equations import EquationSystem
from repro.encoding.results import EncodingResult
from repro.skip.segments import WindowSegmentation
from repro.testdata.test_set import TestSet, cover_matrix

#: A segment is identified by (seed index, segment index within the window).
SegmentId = Tuple[int, int]


@dataclass
class EmbeddingMap:
    """Which segments embed which cubes (deterministically or fortuitously)."""

    segmentation: WindowSegmentation
    cube_segments: Dict[int, Set[SegmentId]] = field(default_factory=dict)
    segment_cubes: Dict[SegmentId, Set[int]] = field(default_factory=dict)

    def add(self, cube_index: int, segment: SegmentId) -> None:
        self.cube_segments.setdefault(cube_index, set()).add(segment)
        self.segment_cubes.setdefault(segment, set()).add(cube_index)

    def segments_of(self, cube_index: int) -> Set[SegmentId]:
        return self.cube_segments.get(cube_index, set())

    def cubes_of(self, segment: SegmentId) -> Set[int]:
        return self.segment_cubes.get(segment, set())

    def embedding_counts(self) -> Dict[int, int]:
        """Number of embedding segments per cube (fortuitous richness)."""
        return {cube: len(segs) for cube, segs in self.cube_segments.items()}


@dataclass
class UsefulSegmentSelection:
    """Outcome of the useful-segment selection."""

    segmentation: WindowSegmentation
    useful_segments: Set[SegmentId]
    covering_segment: Dict[int, SegmentId]
    set_a_cubes: Set[int]
    greedy_picks: List[SegmentId]

    def useful_per_seed(self, num_seeds: int) -> List[List[int]]:
        """Sorted useful-segment indices for every seed."""
        per_seed: List[List[int]] = [[] for _ in range(num_seeds)]
        for seed_index, segment_index in self.useful_segments:
            per_seed[seed_index].append(segment_index)
        for segments in per_seed:
            segments.sort()
        return per_seed

    @property
    def num_useful(self) -> int:
        return len(self.useful_segments)


#: uint64-entry budget of one broadcast containment intermediate (~32 MB).
#: Cube chunks are sized so ``chunk x positions x words`` stays below it.
_MATCH_CHUNK_BUDGET = 4_000_000


def build_embedding_map(
    result: EncodingResult,
    test_set: TestSet,
    equations: EquationSystem,
    segmentation: WindowSegmentation,
    windows: Optional[List[List[int]]] = None,
    windows_packed: Optional[np.ndarray] = None,
) -> EmbeddingMap:
    """Record every (cube, segment) embedding via packed containment.

    A cube is embedded in a window vector iff ``(vector & care) == value``
    over the uint64 blocks of :meth:`TestCube.packed_words`; broadcasting
    that test over cubes x (seed, position) turns the former triple Python
    loop into a handful of numpy passes.  The produced
    :class:`EmbeddingMap` is identical to
    :func:`build_embedding_map_reference` (the golden tests enforce it).

    ``windows_packed`` may carry the uint64-blocked expansion
    (:meth:`EquationSystem.expand_seeds_packed` /
    :meth:`repro.context.CompressionContext.packed_windows`); ``windows``
    the classic integer form (packed here when it is all that is
    available).  When both are omitted the expansion happens here.
    Passing the context-cached expansion lets an (S, k) sweep over one
    encoding build many embedding maps without ever re-expanding a seed.
    """
    if segmentation.window_length != result.window_length:
        raise ValueError("segmentation window length does not match the encoding")
    embedding = EmbeddingMap(segmentation=segmentation)
    num_cells = equations.architecture.num_cells
    num_words = (num_cells + 63) // 64
    if windows_packed is None:
        if windows is not None:
            windows_packed = _pack_windows(windows, num_words)
        else:
            windows_packed = equations.expand_seeds_packed(
                [record.seed for record in result.seeds]
            )
    num_seeds, window_length, _ = windows_packed.shape
    cubes = test_set.cubes
    if num_seeds and cubes:
        flat = windows_packed.reshape(num_seeds * window_length, num_words)
        words = np.ascontiguousarray(flat.T)  # (W, P): word-major scan
        # Stacked once per test set and cached on it (fingerprint-keyed):
        # repeated builds over one set -- the (S, k) sweep pattern -- skip
        # the per-call np.stack over every cube.
        cares, values = test_set.packed_matrices()
        num_positions = flat.shape[0]
        segment_starts = np.array(
            [segmentation.bounds(s)[0] for s in range(segmentation.num_segments)],
            dtype=np.intp,
        )
        chunk = max(1, _MATCH_CHUNK_BUDGET // max(1, num_positions))
        for start in range(0, len(cubes), chunk):
            stop = start + chunk
            # (chunk, positions): does vector p cover cube c?
            matches = cover_matrix(cares[start:stop], values[start:stop], words)
            # Collapse positions to segments in one pass per seed axis.
            per_window = matches.reshape(-1, num_seeds, window_length)
            per_segment = np.logical_or.reduceat(per_window, segment_starts, axis=2)
            cube_idx, seed_idx, seg_idx = np.nonzero(per_segment)
            for cube_index, seed_index, segment in zip(
                cube_idx.tolist(), seed_idx.tolist(), seg_idx.tolist()
            ):
                embedding.add(start + cube_index, (seed_index, segment))
    _check_deterministic_embeddings(embedding, result, segmentation)
    return embedding


def build_embedding_map_reference(
    result: EncodingResult,
    test_set: TestSet,
    equations: EquationSystem,
    segmentation: WindowSegmentation,
    windows: Optional[List[List[int]]] = None,
) -> EmbeddingMap:
    """The pre-packed pure-Python scan over cubes x seeds x positions.

    Kept as the golden reference for :func:`build_embedding_map`:
    matching a cube against a fully specified vector is two integer
    operations, so this stays usable -- just ~an order of magnitude slower
    than the packed containment test on realistic grids.
    """
    if segmentation.window_length != result.window_length:
        raise ValueError("segmentation window length does not match the encoding")
    embedding = EmbeddingMap(segmentation=segmentation)
    if windows is None:
        windows = equations.expand_seeds([record.seed for record in result.seeds])
    cubes = test_set.cubes
    for seed_index, window in enumerate(windows):
        for position, vector in enumerate(window):
            segment = (seed_index, segmentation.segment_of(position))
            for cube_index, cube in enumerate(cubes):
                if cube.matches_vector(vector):
                    embedding.add(cube_index, segment)
    _check_deterministic_embeddings(embedding, result, segmentation)
    return embedding


def _pack_windows(windows: List[List[int]], num_words: int) -> np.ndarray:
    """uint64-blocked form of integer windows (fallback packing path)."""
    num_seeds = len(windows)
    window_length = len(windows[0]) if windows else 0
    buffer = np.zeros(
        (num_seeds, window_length, num_words * 8), dtype=np.uint8
    )
    nbytes = num_words * 8
    for s, window in enumerate(windows):
        for v, vector in enumerate(window):
            buffer[s, v] = np.frombuffer(
                vector.to_bytes(nbytes, "little"), dtype=np.uint8
            )
    return buffer.view("<u8")


def _check_deterministic_embeddings(
    embedding: EmbeddingMap,
    result: EncodingResult,
    segmentation: WindowSegmentation,
) -> None:
    """Sanity: every deterministically encoded cube must be embedded in the
    segment containing its assigned position."""
    for record in result.seeds:
        for emb in record.embeddings:
            if not emb.deterministic:
                continue
            segment = (record.index, segmentation.segment_of(emb.position))
            if segment not in embedding.segments_of(emb.cube_index):
                raise RuntimeError(
                    f"cube {emb.cube_index} is not covered by its own seed "
                    f"{record.index} at position {emb.position}; the encoding "
                    f"is inconsistent"
                )


def select_useful_segments(
    embedding: EmbeddingMap,
    num_cubes: int,
    num_seeds: int = 0,
    force_first_segment_useful: bool = True,
) -> UsefulSegmentSelection:
    """Set-A / set-B partition followed by the greedy covering of Section 3.2.

    ``force_first_segment_useful`` keeps the first segment of every seed
    useful, matching the paper's decompression architecture: the seed-
    computation algorithm always solves the densest cube at the first window
    vector, and the Mode Select unit relies on the first segment of each seed
    needing no decoding logic.  Disabling it yields the unconstrained minimum
    cover (an ablation studied in ``benchmarks/bench_ablation.py``).
    """
    segmentation = embedding.segmentation
    useful: Set[SegmentId] = set()
    covering: Dict[int, SegmentId] = {}
    uncovered = set(range(num_cubes))

    if force_first_segment_useful and num_seeds > 0:
        for seed_index in range(num_seeds):
            useful.add((seed_index, 0))
        for cube in sorted(uncovered):
            for segment in embedding.segments_of(cube):
                if segment in useful:
                    covering[cube] = segment
                    break
        uncovered -= set(covering)

    # Set A: cubes embedded in exactly one segment force that segment useful.
    set_a = {
        cube
        for cube in uncovered
        if len(embedding.segments_of(cube)) == 1
    }
    for cube in sorted(set_a):
        (segment,) = embedding.segments_of(cube)
        useful.add(segment)
        covering[cube] = segment
    # Every cube (from either set) already covered by a useful segment drops out.
    for cube in sorted(uncovered):
        if cube in covering:
            continue
        for segment in embedding.segments_of(cube):
            if segment in useful:
                covering[cube] = segment
                break
    uncovered -= set(covering)

    # Greedy covering of the remaining (set B) cubes.
    greedy_picks: List[SegmentId] = []
    while uncovered:
        best_segment = None
        best_key = None
        for segment, cubes in embedding.segment_cubes.items():
            gain = len(cubes & uncovered)
            if gain == 0:
                continue
            # Most cubes first; ties towards the segment closest to the start
            # of its window, then towards earlier seeds for determinism.
            key = (-gain, segment[1], segment[0])
            if best_key is None or key < best_key:
                best_key = key
                best_segment = segment
        if best_segment is None:
            missing = sorted(uncovered)
            raise RuntimeError(
                f"cubes {missing[:10]} are not embedded in any segment; "
                f"the embedding map is inconsistent with the encoding"
            )
        useful.add(best_segment)
        greedy_picks.append(best_segment)
        for cube in sorted(embedding.cubes_of(best_segment) & uncovered):
            covering[cube] = best_segment
        uncovered -= embedding.cubes_of(best_segment)

    return UsefulSegmentSelection(
        segmentation=segmentation,
        useful_segments=useful,
        covering_segment=covering,
        set_a_cubes=set_a,
        greedy_picks=greedy_picks,
    )
