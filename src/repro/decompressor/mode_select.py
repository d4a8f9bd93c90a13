"""The Mode Select unit.

The Mode Select unit is the only core-specific block of the decompressor: it
is a combinational function of the (decoded) Group, Seed and Segment counter
values that raises ``Mode = 1`` (Normal) exactly when the next segment of the
current seed is useful, and ``Mode = 0`` (State Skip) otherwise.

Behaviourally the unit is a lookup ``(group, seed-within-group, segment) ->
useful?``.  For the cost model, the paper's observations are reproduced:

* the first segment of every seed is always useful and needs no decoding
  logic at all;
* only the *extra* useful segments (beyond the first one of each seed) need a
  product term over the decoded counter outputs, so the overhead tracks the
  total number of useful segments, which the greedy selection keeps small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.decompressor.counters import counter_width


@dataclass(frozen=True)
class ModeSelectCost:
    """Decoding-cost breakdown of a Mode Select unit."""

    product_terms: int
    and_gates: int
    or_gates: int
    gate_equivalents: float


class ModeSelectUnit:
    """Behavioural model plus cost estimate of the Mode Select block.

    Parameters
    ----------
    useful_segments_per_seed:
        For every seed (in *application order*, i.e. grouped by useful-segment
        count), the sorted list of its useful segment indices.
    segments_per_window:
        Total number of segments in one window (for counter decoding width).
    """

    def __init__(
        self,
        useful_segments_per_seed: Sequence[Sequence[int]],
        segments_per_window: int,
    ):
        if segments_per_window < 1:
            raise ValueError("segments_per_window must be positive")
        self._segments_per_window = segments_per_window
        self._per_seed: List[Tuple[int, ...]] = []
        for seed_index, segments in enumerate(useful_segments_per_seed):
            ordered = tuple(sorted(segments))
            for segment in ordered:
                if not 0 <= segment < segments_per_window:
                    raise ValueError(
                        f"seed {seed_index}: useful segment {segment} out of range"
                    )
            self._per_seed.append(ordered)
        # Group layout: group g contains the seeds with g useful segments.
        self._groups: Dict[int, List[int]] = {}
        for seed_index, segments in enumerate(self._per_seed):
            self._groups.setdefault(len(segments), []).append(seed_index)

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    @property
    def num_seeds(self) -> int:
        return len(self._per_seed)

    def groups(self) -> Dict[int, List[int]]:
        """Seed indices per group (key = useful segments per seed)."""
        return {count: list(seeds) for count, seeds in sorted(self._groups.items())}

    def mode(self, seed_index: int, segment_index: int) -> int:
        """Mode signal for a segment of a seed: 1 = Normal (useful), 0 = skip."""
        if not 0 <= seed_index < len(self._per_seed):
            raise IndexError(f"seed {seed_index} out of range")
        if not 0 <= segment_index < self._segments_per_window:
            raise IndexError(f"segment {segment_index} out of range")
        return 1 if segment_index in self._per_seed[seed_index] else 0

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def cost(
        self,
        and2_ge: float = 1.25,
        or2_ge: float = 1.25,
        min_overhead_ge: float = 4.0,
    ) -> ModeSelectCost:
        """Decoding cost of the unit in gate equivalents.

        Every useful segment beyond the first one of its seed needs one
        product term that matches the decoded Segment counter value and the
        decoded Seed/Group counter value; the terms are OR-ed into the Mode
        signal.  A term over ``b`` decoded inputs costs ``b - 1`` 2-input AND
        gates.  The first segment of every seed is covered by a single shared
        term (Segment counter equal to zero), accounted in ``min_overhead_ge``.
        """
        segment_bits = counter_width(max(self._segments_per_window - 1, 1))
        seed_bits = counter_width(max(self.num_seeds - 1, 1))
        term_inputs = segment_bits + seed_bits
        extra_terms = sum(max(0, len(s) - 1) for s in self._per_seed)
        and_gates = extra_terms * max(term_inputs - 1, 1)
        or_gates = max(extra_terms - 1, 0) + (1 if extra_terms else 0)
        ge = min_overhead_ge + and_gates * and2_ge + or_gates * or2_ge
        return ModeSelectCost(
            product_terms=extra_terms,
            and_gates=and_gates,
            or_gates=or_gates,
            gate_equivalents=ge,
        )

    def __repr__(self) -> str:
        return (
            f"ModeSelectUnit(seeds={self.num_seeds}, "
            f"segments_per_window={self._segments_per_window})"
        )
