"""Test-sequence reduction with State Skip LFSRs (Section 3.2 of the paper).

The window-based encoder gives excellent compression but applies ``L`` vectors
per seed, most of which are useless.  This package implements the paper's
reduction method:

* :class:`~repro.skip.segments.WindowSegmentation` -- partition each window
  into segments of ``S`` vectors.
* :func:`~repro.skip.selection.build_cover` /
  :class:`~repro.skip.selection.EmbeddingMap` /
  :func:`~repro.skip.selection.select_useful_segments` -- find every segment
  in which every cube is (deterministically or fortuitously) embedded, then
  choose a minimal set of *useful* segments covering all cubes (set-A/set-B
  partition followed by the greedy covering step).
* :class:`~repro.skip.reduction.SequenceReducer` -- group seeds by their
  useful-segment count, truncate each window after its last useful segment,
  traverse useless segments in State Skip mode, and account for the resulting
  test sequence length.
"""

from repro.skip.segments import WindowSegmentation
from repro.skip.selection import (
    EmbeddingMap,
    UsefulSegmentSelection,
    build_cover,
    build_embedding_map,
    build_embedding_map_reference,
    select_useful_segments,
    select_useful_segments_reference,
)
from repro.skip.reduction import (
    ReductionConfig,
    ReductionResult,
    SeedSchedule,
    SequenceReducer,
)

__all__ = [
    "WindowSegmentation",
    "EmbeddingMap",
    "UsefulSegmentSelection",
    "build_cover",
    "build_embedding_map",
    "build_embedding_map_reference",
    "select_useful_segments",
    "select_useful_segments_reference",
    "ReductionConfig",
    "ReductionResult",
    "SeedSchedule",
    "SequenceReducer",
]
