"""Useful-segment selection (the covering step of Section 3.2).

Because most cubes specify only a handful of bits, they are *fortuitously*
embedded in many window vectors besides the one they were deterministically
encoded at.  The paper exploits this to minimise the number of segments that
have to be generated in Normal mode:

1. Build the embedding map: for every cube, every (seed, segment) whose
   expanded vectors cover the cube.  It is derived from the encoding's
   *cover* (:func:`build_cover`, one bit per (cube, seed, window position)),
   which does not depend on ``S``, so an (S, k) sweep builds it once.
2. **Set A** -- cubes embedded in exactly one segment across all windows.
   Their segments are forced useful; every other cube covered by those
   segments is dropped from further consideration.
3. **Set B** -- the remaining cubes are covered greedily: repeatedly pick the
   segment embedding the most still-uncovered cubes (ties broken towards the
   segment closest to the start of its window), mark it useful and drop the
   cubes it covers.

The result is the set of useful segments per seed, plus the bookkeeping the
decompressor and the reporting need (which segment covers which cube).  Both
steps run as ``argmax`` passes over the boolean embedding matrix
(:func:`select_useful_segments`); the set-based loop they replaced stays as
the oracle (:func:`select_useful_segments_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Which segments embed which cubes (deterministically or fortuitously).

    ``matrix[c, s, g]`` is true iff some window vector of seed ``s`` inside
    segment ``g`` embeds cube ``c``.
    """

    segmentation: WindowSegmentation
    matrix: np.ndarray

    def segments_of(self, cube_index: int) -> Set[SegmentId]:
        seeds, segments = np.nonzero(self.matrix[cube_index])
        return set(zip(seeds.tolist(), segments.tolist()))


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


def build_cover(windows_packed: np.ndarray, test_set: TestSet) -> np.ndarray:
    """Which window vector embeds which cube, one bit per (cube, seed, position).

    ``windows_packed`` is the ``(seeds, L, words)`` uint64 expansion of
    :meth:`EquationSystem.expand_seeds_packed`.  A cube is embedded in a
    vector iff ``(vector & care) == value`` over the uint64 blocks of
    :meth:`TestSet.packed_matrices`, tested for cube chunks x all positions
    at once.  Row ``[c, s]`` of the result holds the ``L`` position bits of
    seed ``s`` for cube ``c``, ``np.packbits``-packed.  The cover depends
    only on the encoding:
    :meth:`repro.context.CompressionContext.cover` caches it,
    :func:`repro.encoding.window.verify_encoding` checks the deterministic
    embeddings against it, and every segmentation derives its
    :class:`EmbeddingMap` from it.
    """
    num_seeds, window_length, num_words = windows_packed.shape
    num_cubes = len(test_set)
    cover = np.zeros((num_cubes, num_seeds, -(-window_length // 8)), dtype=np.uint8)
    if num_seeds and num_cubes:
        flat = windows_packed.reshape(num_seeds * window_length, num_words)
        words = np.ascontiguousarray(flat.T)  # (W, P): word-major scan
        # Packed once per test set instance and memoised on it.
        cares, values = test_set.packed_matrices()
        chunk = max(1, _MATCH_CHUNK_BUDGET // flat.shape[0])
        for start in range(0, num_cubes, chunk):
            stop = start + chunk
            # (chunk, positions): does vector p cover cube c?
            matches = cover_matrix(cares[start:stop], values[start:stop], words)
            cover[start:stop] = np.packbits(
                matches.reshape(-1, num_seeds, window_length), axis=2
            )
    cover.setflags(write=False)  # cached and shared across reductions
    return cover


def build_embedding_map(
    result: EncodingResult,
    test_set: TestSet,
    equations: EquationSystem,
    segmentation: WindowSegmentation,
    cover: Optional[np.ndarray] = None,
) -> EmbeddingMap:
    """Record every (cube, segment) embedding of one segmentation.

    ``cover`` is the encoding's :func:`build_cover` (the staged pipeline
    passes the context-cached one); it is built here when omitted.  One
    ``logical_or.reduceat`` over its unpacked position bits ORs every
    segment's positions.  The produced :class:`EmbeddingMap` is identical to
    :func:`build_embedding_map_reference` (the golden tests enforce it).
    """
    if segmentation.window_length != result.window_length:
        raise ValueError("segmentation window length does not match the encoding")
    if cover is None:
        cover = build_cover(
            equations.expand_seeds_packed([record.seed for record in result.seeds]),
            test_set,
        )
    length = segmentation.window_length
    positions = np.unpackbits(cover, axis=2, count=length).view(bool)
    starts = np.arange(0, length, segmentation.segment_size)
    embedding = EmbeddingMap(
        segmentation, np.logical_or.reduceat(positions, starts, axis=2)
    )
    _check_deterministic_embeddings(embedding, result)
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
    if windows is None:
        windows = equations.expand_seeds([record.seed for record in result.seeds])
    cubes = test_set.cubes
    matrix = np.zeros(
        (len(cubes), len(windows), segmentation.num_segments), dtype=bool
    )
    for seed_index, window in enumerate(windows):
        for position, vector in enumerate(window):
            segment = segmentation.segment_of(position)
            for cube_index, cube in enumerate(cubes):
                if cube.matches_vector(vector):
                    matrix[cube_index, seed_index, segment] = True
    embedding = EmbeddingMap(segmentation, matrix)
    _check_deterministic_embeddings(embedding, result)
    return embedding


def _check_deterministic_embeddings(
    embedding: EmbeddingMap, result: EncodingResult
) -> None:
    """Sanity: every deterministically encoded cube must be embedded in the
    segment containing its assigned position."""
    segmentation = embedding.segmentation
    for record in result.seeds:
        for emb in record.embeddings:
            if not emb.deterministic:
                continue
            segment = segmentation.segment_of(emb.position)
            if not embedding.matrix[emb.cube_index, record.index, segment]:
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

    Runs on the (cube, column) view of the embedding matrix with columns in
    (segment, seed) order, the order every tie is broken in: a cube's first
    useful segment and the greedy's best segment are first-true and
    first-max ``argmax`` passes.  The greedy keeps a per-column gain vector
    and subtracts the rows of newly covered cubes, so each pick is one
    ``argmax``.  Identical to :func:`select_useful_segments_reference`.
    """
    _, seeds, segments = embedding.matrix.shape
    columns = embedding.matrix[:num_cubes].transpose(0, 2, 1).reshape(
        num_cubes, segments * seeds
    )
    useful = np.zeros(segments * seeds, dtype=bool)
    covering = np.full(num_cubes, -1)

    def cover_by_useful() -> None:
        hits = columns & useful
        newly = (covering < 0) & hits.any(axis=1)
        covering[newly] = hits[newly].argmax(axis=1)

    if force_first_segment_useful:
        useful[:num_seeds] = True  # segment 0 of every seed
        cover_by_useful()
    # Set A: cubes embedded in exactly one segment force that segment useful.
    set_a = (covering < 0) & (columns.sum(axis=1) == 1)
    useful[columns[set_a].argmax(axis=1)] = True
    # Every cube (from either set) already covered by a useful segment drops out.
    cover_by_useful()

    # Greedy covering of the remaining (set B) cubes.
    uncovered = covering < 0
    gain = columns[uncovered].sum(axis=0)
    picks: List[int] = []
    while uncovered.any():
        best = int(gain.argmax())
        if not gain[best]:
            missing = np.flatnonzero(uncovered)[:10].tolist()
            raise RuntimeError(
                f"cubes {missing} are not embedded in any segment; "
                f"the embedding map is inconsistent with the encoding"
            )
        newly = uncovered & columns[:, best]
        covering[newly] = best
        uncovered &= ~newly
        gain -= columns[newly].sum(axis=0)
        useful[best] = True
        picks.append(best)

    def segment_id(column: int) -> SegmentId:
        segment, seed = divmod(column, seeds)
        return seed, segment

    return UsefulSegmentSelection(
        segmentation=embedding.segmentation,
        useful_segments={segment_id(c) for c in np.flatnonzero(useful).tolist()},
        covering_segment={
            cube: segment_id(column) for cube, column in enumerate(covering.tolist())
        },
        set_a_cubes=set(np.flatnonzero(set_a).tolist()),
        greedy_picks=[segment_id(column) for column in picks],
    )


def select_useful_segments_reference(
    embedding: EmbeddingMap,
    num_cubes: int,
    num_seeds: int = 0,
    force_first_segment_useful: bool = True,
) -> UsefulSegmentSelection:
    """The set-based loop :func:`select_useful_segments` replaced, kept as its
    golden reference: it reads the map only through
    :meth:`EmbeddingMap.segments_of` and recounts every segment's gain on
    every greedy pick."""
    # Each cube's segments in (segment, seed) order: ties go to the first.
    segments_of = {
        cube: sorted(embedding.segments_of(cube), key=lambda s: (s[1], s[0]))
        for cube in range(num_cubes)
    }
    segment_cubes: Dict[SegmentId, Set[int]] = {}
    for cube, segments in segments_of.items():
        for segment in segments:
            segment_cubes.setdefault(segment, set()).add(cube)
    useful: Set[SegmentId] = set()
    covering: Dict[int, SegmentId] = {}
    uncovered = set(range(num_cubes))

    def cover_by_useful() -> None:
        for cube in sorted(uncovered):
            for segment in segments_of[cube]:
                if segment in useful:
                    covering[cube] = segment
                    break
        uncovered.difference_update(covering)

    if force_first_segment_useful:
        useful.update((seed_index, 0) for seed_index in range(num_seeds))
        cover_by_useful()
    set_a = {cube for cube in uncovered if len(segments_of[cube]) == 1}
    useful.update(segments_of[cube][0] for cube in set_a)
    cover_by_useful()

    greedy_picks: List[SegmentId] = []
    while uncovered:
        best_segment = None
        best_key = None
        for segment, cubes in segment_cubes.items():
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
        for cube in segment_cubes[best_segment] & uncovered:
            covering[cube] = best_segment
        uncovered -= segment_cubes[best_segment]

    return UsefulSegmentSelection(
        segmentation=embedding.segmentation,
        useful_segments=useful,
        covering_segment=covering,
        set_a_cubes=set_a,
        greedy_picks=greedy_picks,
    )
