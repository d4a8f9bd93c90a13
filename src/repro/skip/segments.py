"""Window segmentation.

Every seed's ``L``-vector window is partitioned into segments of ``S``
vectors (``S`` is the designer-chosen parameter of Section 3.2; the paper
sweeps 2..50).  Segments are the granularity at which the decompressor
switches between Normal and State Skip mode: a *useful* segment (one that
embeds at least one test cube) is generated in Normal mode, a *useless* one
is fast-forwarded in State Skip mode.

When ``S`` does not divide ``L`` the last segment is simply shorter; the paper
always uses divisors but nothing in the method requires it.
"""

from __future__ import annotations

from typing import Tuple


class WindowSegmentation:
    """Partition of an ``L``-vector window into segments of ``S`` vectors."""

    def __init__(self, window_length: int, segment_size: int):
        if window_length < 1:
            raise ValueError("window_length must be positive")
        if not 1 <= segment_size <= window_length:
            raise ValueError(
                "segment_size must be between 1 and the window length"
            )
        self._window_length = window_length
        self._segment_size = segment_size
        self._num_segments = -(-window_length // segment_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def window_length(self) -> int:
        return self._window_length

    @property
    def segment_size(self) -> int:
        return self._segment_size

    @property
    def num_segments(self) -> int:
        """Number of segments per window (``ceil(L / S)``)."""
        return self._num_segments

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def segment_of(self, position: int) -> int:
        """Segment index containing a window-vector position."""
        if not 0 <= position < self._window_length:
            raise IndexError(
                f"position {position} out of range for window {self._window_length}"
            )
        return position // self._segment_size

    def bounds(self, segment: int) -> Tuple[int, int]:
        """Half-open vector range ``[start, end)`` of a segment."""
        if not 0 <= segment < self._num_segments:
            raise IndexError(f"segment {segment} out of range")
        start = segment * self._segment_size
        end = min(start + self._segment_size, self._window_length)
        return start, end

    def length(self, segment: int) -> int:
        """Number of vectors in a segment (the last one may be shorter)."""
        start, end = self.bounds(segment)
        return end - start

    def __repr__(self) -> str:
        return (
            f"WindowSegmentation(L={self._window_length}, S={self._segment_size}, "
            f"segments={self._num_segments})"
        )
