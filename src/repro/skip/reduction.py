"""Test-sequence reduction and accounting (Section 3.2 of the paper).

Given a window-based encoding, the reduction pipeline is:

1. segment every window (:class:`~repro.skip.segments.WindowSegmentation`),
2. map every cube to every segment that embeds it
   (:func:`~repro.skip.selection.build_embedding_map`),
3. choose a minimal set of useful segments
   (:func:`~repro.skip.selection.select_useful_segments`),
4. group the seeds by their useful-segment count and truncate each window
   right after its last useful segment,
5. account for the applied vectors: useful segments are generated in Normal
   mode (one vector per ``r`` clocks), useless segments before the last
   useful one are fast-forwarded in State Skip mode.

The result carries both figures of merit (the shortened TSL, the unchanged
TDV) and the per-seed schedule that the decompressor simulation replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.encoding.equations import EquationSystem
from repro.encoding.results import EncodingResult
from repro.skip.segments import WindowSegmentation
from repro.skip.selection import (
    EmbeddingMap,
    UsefulSegmentSelection,
    build_embedding_map,
    select_useful_segments,
)
from repro.testdata.literature import tsl_improvement
from repro.testdata.test_set import TestSet


@dataclass(frozen=True)
class ReductionConfig:
    """Parameters of the State Skip reduction.

    Attributes
    ----------
    segment_size:
        Segment size ``S`` in vectors.
    speedup:
        State Skip speedup factor ``k`` (states advanced per skip clock).
    alignment:
        ``"exact"`` accounts for the skip-mode clocks a real State Skip LFSR
        needs (``floor(cycles/k)`` jumps plus ``cycles mod k`` normal clocks
        so the register lands exactly on the next segment boundary);
        ``"ideal"`` uses the paper's first-order model of ``ceil(S/k)``
        vectors per useless segment.  The two differ by at most one vector
        per useless segment.
    force_first_segment_useful:
        Keep the first segment of every seed useful (the paper's
        architecture assumption); see
        :func:`repro.skip.selection.select_useful_segments`.
    """

    segment_size: int
    speedup: int
    alignment: str = "exact"
    force_first_segment_useful: bool = True

    def __post_init__(self):
        if self.segment_size < 1:
            raise ValueError("segment_size must be positive")
        if self.speedup < 1:
            raise ValueError("speedup must be at least 1")
        if self.alignment not in ("exact", "ideal"):
            raise ValueError("alignment must be 'exact' or 'ideal'")


@dataclass
class SegmentPlan:
    """How one segment of one seed is traversed by the decompressor."""

    segment_index: int
    useful: bool
    vector_range: Tuple[int, int]
    vectors_applied: int
    lfsr_clocks: int
    skip_clocks: int


@dataclass
class SeedSchedule:
    """Traversal plan of one seed's window after reduction."""

    seed_index: int
    useful_segments: List[int]
    segments: List[SegmentPlan] = field(default_factory=list)

    @property
    def num_useful(self) -> int:
        return len(self.useful_segments)

    @property
    def vectors_applied(self) -> int:
        return sum(plan.vectors_applied for plan in self.segments)


@dataclass
class ReductionResult:
    """Complete outcome of the State Skip reduction for one encoding.

    ``selection`` and ``embedding`` carry the analysis maps the schedules
    were derived from.
    """

    circuit: str
    config: ReductionConfig
    window_length: int
    num_segments_per_window: int
    schedules: List[SeedSchedule]
    original_tsl: int
    test_data_volume: int
    selection: UsefulSegmentSelection
    embedding: EmbeddingMap

    @property
    def test_sequence_length(self) -> int:
        """Vectors applied to the CUT by the proposed (State Skip) scheme."""
        return sum(schedule.vectors_applied for schedule in self.schedules)

    @property
    def improvement_percent(self) -> float:
        """Relation (2) of the paper vs the original window-based scheme."""
        return tsl_improvement(self.test_sequence_length, self.original_tsl)

    @property
    def num_useful_segments(self) -> int:
        return self.selection.num_useful

    def seed_groups(self) -> Dict[int, List[int]]:
        """Seeds grouped by useful-segment count (the Group Counter layout)."""
        groups: Dict[int, List[int]] = {}
        for schedule in self.schedules:
            groups.setdefault(schedule.num_useful, []).append(schedule.seed_index)
        return {count: groups[count] for count in sorted(groups)}

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The schedules and figures of merit as JSON-safe data.

        The canonical form the golden tests compare; the analysis maps
        (``selection``, ``embedding``) are left out.
        """
        return {
            "circuit": self.circuit,
            "config": {
                "segment_size": self.config.segment_size,
                "speedup": self.config.speedup,
                "alignment": self.config.alignment,
                "force_first_segment_useful": self.config.force_first_segment_useful,
            },
            "window_length": self.window_length,
            "num_segments_per_window": self.num_segments_per_window,
            "original_tsl": self.original_tsl,
            "test_data_volume": self.test_data_volume,
            "schedules": [
                {
                    "seed_index": schedule.seed_index,
                    "useful_segments": list(schedule.useful_segments),
                    "segments": [
                        [
                            plan.segment_index,
                            plan.useful,
                            list(plan.vector_range),
                            plan.vectors_applied,
                            plan.lfsr_clocks,
                            plan.skip_clocks,
                        ]
                        for plan in schedule.segments
                    ],
                }
                for schedule in self.schedules
            ],
        }


class SequenceReducer:
    """Applies the Section 3.2 reduction to a window-based encoding."""

    def __init__(self, equations: EquationSystem, config: ReductionConfig):
        if config.segment_size > equations.window_length:
            raise ValueError("segment_size cannot exceed the window length")
        self._equations = equations
        self._config = config
        self._segmentation = WindowSegmentation(
            equations.window_length, config.segment_size
        )

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def reduce(
        self, result: EncodingResult, test_set: TestSet, cover=None
    ) -> ReductionResult:
        """Run the full reduction on an encoding result.

        ``cover`` may carry the encoding's bit-packed cover (see
        :func:`repro.skip.selection.build_cover`); the staged pipeline
        passes the context-cached one, so an (S, k) sweep matches the
        cubes against the windows once per encoding.
        """
        embedding = build_embedding_map(
            result, test_set, self._equations, self._segmentation, cover=cover
        )
        selection = select_useful_segments(
            embedding,
            num_cubes=result.num_cubes,
            num_seeds=result.num_seeds,
            force_first_segment_useful=self._config.force_first_segment_useful,
        )
        per_seed = selection.useful_per_seed(result.num_seeds)
        schedules = [
            self._schedule_seed(seed_index, useful)
            for seed_index, useful in enumerate(per_seed)
        ]
        return ReductionResult(
            circuit=result.circuit,
            config=self._config,
            window_length=result.window_length,
            num_segments_per_window=self._segmentation.num_segments,
            schedules=schedules,
            selection=selection,
            embedding=embedding,
            original_tsl=result.test_sequence_length,
            test_data_volume=result.test_data_volume,
        )

    # ------------------------------------------------------------------
    # Per-seed scheduling
    # ------------------------------------------------------------------
    def _schedule_seed(
        self, seed_index: int, useful_segments: List[int]
    ) -> SeedSchedule:
        """Traversal plan: segments up to the last useful one, then stop."""
        schedule = SeedSchedule(seed_index=seed_index, useful_segments=useful_segments)
        if not useful_segments:
            return schedule
        last_useful = useful_segments[-1]
        useful_set = set(useful_segments)
        chain_length = self._equations.architecture.chain_length
        for segment in range(last_useful + 1):
            seg_vectors = self._segmentation.length(segment)
            if segment in useful_set:
                plan = SegmentPlan(
                    segment_index=segment,
                    useful=True,
                    vector_range=self._segmentation.bounds(segment),
                    vectors_applied=seg_vectors,
                    lfsr_clocks=seg_vectors * chain_length,
                    skip_clocks=0,
                )
            else:
                plan = self._useless_plan(segment, seg_vectors, chain_length)
            schedule.segments.append(plan)
        return schedule

    def _useless_plan(
        self, segment: int, seg_vectors: int, chain_length: int
    ) -> SegmentPlan:
        """Clock/vector accounting for a segment traversed in State Skip mode."""
        k = self._config.speedup
        total_states = seg_vectors * chain_length
        if self._config.alignment == "ideal":
            vectors = -(-seg_vectors // k)  # ceil(S / k), the paper's model
            skip_clocks = -(-total_states // k)
            clocks = skip_clocks
        else:
            skip_clocks = total_states // k
            remainder = total_states % k
            clocks = skip_clocks + remainder
            vectors = -(-clocks // chain_length)
        return SegmentPlan(
            segment_index=segment,
            useful=False,
            vector_range=self._segmentation.bounds(segment),
            vectors_applied=vectors,
            lfsr_clocks=clocks,
            skip_clocks=skip_clocks,
        )
