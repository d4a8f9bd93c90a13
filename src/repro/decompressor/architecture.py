"""Clock-level simulation of the decompression architecture (Fig. 3).

The simulation replays a :class:`~repro.skip.reduction.ReductionResult`
exactly the way the hardware would:

* seeds are applied group by group (Group counter), in ascending order of
  useful-segment count;
* for every seed, segments are generated one after another until the seed's
  last useful segment, as dictated by the Useful Segment counter;
* the Mode Select unit decides per segment whether the State Skip LFSR runs
  in Normal mode (useful segment: ``S * r`` clocks, one test vector every
  ``r`` clocks) or in State Skip mode (useless segment: ``floor(S*r/k)`` skip
  clocks plus ``S*r mod k`` normal clocks, so the register lands exactly on
  the next segment boundary);
* every clock, the phase shifter outputs are shifted into the scan chains.

The outcome reports the applied-vector count (which must equal the reduction's
TSL accounting) and the set of fully-shifted useful vectors, which must cover
every cube of the original test set -- the end-to-end correctness check of
the whole flow.

Two datapath models replay the schedule:

* the **batched** model advances the LFSR and applies the phase
  shifter a whole segment at a time: the segment's register states come from
  a doubling ladder of GF(2) matmuls, all phase-shifter outputs of the
  segment are one BLAS product, and captured vectors / scan-chain contents
  are numpy gathers -- this is what makes ``simulate`` usable inside large
  campaigns.  :func:`simulate_decompression` always runs it;
* the **per-clock** model (``DecompressionController(..., batched=False)``)
  calls :meth:`Decompressor.shift_clock` once per cycle and is kept as the
  golden reference -- both produce identical :class:`SimulationOutcome`\\ s,
  vector for vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.decompressor.mode_select import ModeSelectUnit
from repro.encoding.results import EncodingResult
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix
from repro.lfsr.lfsr import LFSR, LFSRMode
from repro.lfsr.phase_shifter import PhaseShifter
from repro.lfsr.state_skip import StateSkipLFSR
from repro.lru import LRUCache
from repro.scan.architecture import ScanArchitecture
from repro.skip.reduction import ReductionResult
from repro.testdata.test_set import TestSet


@dataclass
class SimulationOutcome:
    """What the decompressor produced when replaying a reduction schedule."""

    seeds_applied: int
    vectors_applied: int
    useful_vectors: List[int]
    lfsr_clocks: int
    skip_clocks: int
    group_sizes: Dict[int, int] = field(default_factory=dict)

    def uncovered_cubes(self, test_set: TestSet) -> List[int]:
        """Cubes not covered by any fully generated useful vector."""
        return test_set.uncovered_cubes(self.useful_vectors)

    def covers(self, test_set: TestSet) -> bool:
        """True when every cube of the test set was applied to the CUT."""
        return not self.uncovered_cubes(test_set)


class Decompressor:
    """The State Skip LFSR + phase shifter + scan-chain datapath."""

    def __init__(
        self,
        transition: GF2Matrix,
        phase_shifter: PhaseShifter,
        architecture: ScanArchitecture,
        speedup: int,
    ):
        if phase_shifter.lfsr_size != transition.ncols:
            raise ValueError("phase shifter width does not match the LFSR size")
        if phase_shifter.num_outputs < architecture.num_chains:
            raise ValueError("phase shifter drives fewer outputs than scan chains")
        self._lfsr = StateSkipLFSR(LFSR(transition), speedup)
        self._phase_shifter = phase_shifter
        self._architecture = architecture
        # Scan-chain shift registers: chains[j][d] = value at depth d.
        self._chains: List[List[int]] = [
            [0] * architecture.chain_length for _ in range(architecture.num_chains)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lfsr(self) -> StateSkipLFSR:
        return self._lfsr

    @property
    def architecture(self) -> ScanArchitecture:
        return self._architecture

    @property
    def phase_shifter(self) -> PhaseShifter:
        return self._phase_shifter

    # ------------------------------------------------------------------
    # Datapath operation
    # ------------------------------------------------------------------
    def load_seed(self, seed: BitVector) -> None:
        self._lfsr.load(seed)

    def shift_clock(self) -> None:
        """One shift clock: phase-shifter outputs enter the chains, LFSR steps.

        The LFSR mode (Normal or State Skip) decides how far the register
        advances; the scan chains shift by one position either way.
        """
        outputs = self._phase_shifter.apply(self._lfsr.state)
        for chain_index, chain in enumerate(self._chains):
            chain.insert(0, outputs[chain_index])
            chain.pop()
        self._lfsr.step()

    def captured_vector(self) -> int:
        """The test vector currently sitting in the scan chains (packed)."""
        value = 0
        arch = self._architecture
        for cell in range(arch.num_cells):
            chain = cell % arch.num_chains
            depth = cell // arch.num_chains
            if self._chains[chain][depth]:
                value |= 1 << cell
        return value

    def set_mode(self, mode: LFSRMode) -> None:
        self._lfsr.set_mode(mode)


#: Shared doubling ladders ``[M, M^2, M^4, ...]`` keyed by mode-matrix
#: content -- effectively the substrate identity (a
#: :class:`~repro.encoding.substrate.SubstrateKey` fixes the transition
#: matrix; the skip parameter ``k`` fixes the skip-circuit matrix).  The
#: lists are mutable and shared: :meth:`_BatchedDatapath.run` extends its
#: ladder in place, so later :func:`simulate_decompression` calls over the
#: same substrate start from every power already computed instead of
#: rebuilding the ladder per call.  Bounded LRU.
_POWERS_CACHE_SIZE = 8
_POWERS_CACHE: LRUCache = LRUCache(_POWERS_CACHE_SIZE)


def _mode_ladder(matrix: GF2Matrix) -> List[np.ndarray]:
    """The shared, extend-in-place doubling ladder of one mode matrix."""
    from repro.encoding.equations import _matrix_to_numpy

    key = (
        tuple(matrix.row_mask(i) for i in range(matrix.nrows)),
        matrix.ncols,
    )
    ladder = _POWERS_CACHE.get(key)
    if ladder is None:
        ladder = [_matrix_to_numpy(matrix).astype(np.float32)]
        _POWERS_CACHE.put(key, ladder)
    return ladder


class _BatchedDatapath:
    """Segment-batched numpy model of the State Skip datapath.

    Bit-exact with per-clock operation of :class:`Decompressor`: the LFSR
    states of a run are built by a doubling ladder of GF(2) matrix products
    (``[s, Ms, M^2 s, ...]`` doubles with one matmul per step), the phase
    shifter is applied to the whole run in a single BLAS product, and the
    scan-chain shift registers / captured vectors are reconstructed from
    the output matrix by pure indexing.
    """

    def __init__(self, decompressor: Decompressor):
        from repro.encoding.equations import _matrix_to_numpy

        arch = decompressor.architecture
        transition = decompressor.lfsr.transition
        self._n = transition.ncols
        self._chain_length = arch.chain_length
        self._num_chains = arch.num_chains
        # Mode matrices (float32 0/1 for the exact BLAS-backed products)
        # and their doubling ladders M^(2^i), extended on demand.  The
        # ladders come from (and stay in) the shared substrate-keyed
        # cache, so a fresh datapath per simulate_decompression call no
        # longer recomputes powers an earlier call already built.
        self._powers = {
            "normal": _mode_ladder(transition),
            "skip": _mode_ladder(decompressor.lfsr.skip_circuit.matrix),
        }
        self._phase = _matrix_to_numpy(decompressor.phase_shifter.matrix)[
            : self._num_chains
        ].astype(np.float32)
        # Scan-chain registers: [j, d] = value at depth d of chain j.
        self._chains = np.zeros(
            (self._num_chains, self._chain_length), dtype=np.uint8
        )
        self._state = np.zeros((self._n, 1), dtype=np.float32)
        cells = np.arange(arch.num_cells)
        self._cell_chain = cells % self._num_chains
        self._cell_depth = cells // self._num_chains

    def load_seed(self, seed: BitVector) -> None:
        col = np.zeros((self._n, 1), dtype=np.float32)
        for index in seed.support():
            col[index, 0] = 1.0
        self._state = col

    @staticmethod
    def _gf2(counts: np.ndarray) -> np.ndarray:
        return (counts.astype(np.uint32) & 1).astype(np.float32)

    def run(self, clocks: int, mode: str) -> np.ndarray:
        """Advance ``clocks`` cycles in ``mode``; returns the outputs.

        The returned ``(num_chains, clocks)`` uint8 matrix holds the
        phase-shifter output of every cycle (column ``t`` is what entered
        the chains on cycle ``t``); the register state and the chain
        contents are updated exactly as ``clocks`` calls of
        :meth:`Decompressor.shift_clock` would leave them.
        """
        if clocks == 0:
            return np.zeros((self._num_chains, 0), dtype=np.uint8)
        powers = self._powers[mode]
        cols = self._state
        level = 0
        while cols.shape[1] < clocks + 1:
            while len(powers) <= level:
                doubled = powers[-1] @ powers[-1]
                powers.append(self._gf2(doubled))
            cols = np.concatenate([cols, self._gf2(powers[level] @ cols)], axis=1)
            level += 1
        outputs = self._gf2(self._phase @ cols[:, :clocks]).astype(np.uint8)
        self._state = cols[:, clocks : clocks + 1]
        r = self._chain_length
        if clocks >= r:
            self._chains = outputs[:, clocks - r : clocks][:, ::-1]
        else:
            self._chains = np.concatenate(
                [outputs[:, ::-1], self._chains[:, : r - clocks]], axis=1
            )
        return outputs

    def captured_vectors(
        self, outputs: np.ndarray, num_vectors: int
    ) -> List[int]:
        """The packed test vectors captured after each ``r``-clock load."""
        r = self._chain_length
        offsets = (
            (np.arange(1, num_vectors + 1) * r)[:, None]
            - 1
            - self._cell_depth[None, :]
        )
        bits = outputs[self._cell_chain[None, :], offsets]
        packed = np.packbits(bits, axis=1, bitorder="little")
        return [
            int.from_bytes(packed[i].tobytes(), "little")
            for i in range(num_vectors)
        ]


class DecompressionController:
    """The controller that sequences seeds and segments.

    ``batched=True`` runs the schedule on the segment-batched numpy
    datapath (:class:`_BatchedDatapath`); the default replays it clock by
    clock through the :class:`Decompressor` -- the two produce identical
    outcomes.
    """

    def __init__(self, decompressor: Decompressor, batched: bool = False):
        self._decompressor = decompressor
        self._batched = _BatchedDatapath(decompressor) if batched else None

    def run(
        self,
        encoding: EncodingResult,
        reduction: ReductionResult,
        collect_vectors: bool = True,
    ) -> SimulationOutcome:
        """Replay a reduction schedule through the datapath.

        The reduction must have been produced with the ``"exact"`` alignment
        model -- the hardware has no way of re-synchronising after the
        fractional jumps assumed by the ``"ideal"`` first-order model.
        """
        if reduction.config.alignment != "exact":
            raise ValueError(
                "the decompressor simulation requires the 'exact' alignment model"
            )
        if reduction.config.speedup != self._decompressor.lfsr.k:
            raise ValueError(
                "reduction speedup does not match the State Skip circuit"
            )
        chain_length = self._decompressor.architecture.chain_length
        mode_select = ModeSelectUnit(
            [schedule.useful_segments for schedule in reduction.schedules],
            reduction.num_segments_per_window,
        )
        groups = reduction.seed_groups()

        useful_vectors: List[int] = []
        vectors_applied = 0
        lfsr_clocks = 0
        skip_clocks = 0
        seeds_applied = 0
        schedules = {s.seed_index: s for s in reduction.schedules}

        for seed_indices in groups.values():
            for seed_index in seed_indices:
                record = encoding.seeds[seed_index]
                schedule = schedules[seed_index]
                if self._batched is not None:
                    self._batched.load_seed(record.seed)
                else:
                    self._decompressor.load_seed(record.seed)
                seeds_applied += 1
                for plan in schedule.segments:
                    useful = mode_select.mode(seed_index, plan.segment_index)
                    if useful:
                        if self._batched is not None:
                            outputs = self._batched.run(
                                plan.vectors_applied * chain_length, "normal"
                            )
                            lfsr_clocks += plan.vectors_applied * chain_length
                            vectors_applied += plan.vectors_applied
                            if collect_vectors:
                                useful_vectors.extend(
                                    self._batched.captured_vectors(
                                        outputs, plan.vectors_applied
                                    )
                                )
                        else:
                            self._decompressor.set_mode(LFSRMode.NORMAL)
                            for _ in range(plan.vectors_applied):
                                for _ in range(chain_length):
                                    self._decompressor.shift_clock()
                                    lfsr_clocks += 1
                                vectors_applied += 1
                                if collect_vectors:
                                    useful_vectors.append(
                                        self._decompressor.captured_vector()
                                    )
                    else:
                        remainder = plan.lfsr_clocks - plan.skip_clocks
                        if self._batched is not None:
                            self._batched.run(plan.skip_clocks, "skip")
                            self._batched.run(remainder, "normal")
                            lfsr_clocks += plan.lfsr_clocks
                            skip_clocks += plan.skip_clocks
                        else:
                            self._decompressor.set_mode(LFSRMode.STATE_SKIP)
                            for _ in range(plan.skip_clocks):
                                self._decompressor.shift_clock()
                                lfsr_clocks += 1
                                skip_clocks += 1
                            self._decompressor.set_mode(LFSRMode.NORMAL)
                            for _ in range(remainder):
                                self._decompressor.shift_clock()
                                lfsr_clocks += 1
                        vectors_applied += plan.vectors_applied

        return SimulationOutcome(
            seeds_applied=seeds_applied,
            vectors_applied=vectors_applied,
            useful_vectors=useful_vectors,
            lfsr_clocks=lfsr_clocks,
            skip_clocks=skip_clocks,
            group_sizes={count: len(seeds) for count, seeds in groups.items()},
        )


def simulate_decompression(
    encoding: EncodingResult,
    reduction: ReductionResult,
    transition: GF2Matrix,
    phase_shifter: PhaseShifter,
    architecture: ScanArchitecture,
) -> SimulationOutcome:
    """Replay a schedule on the segment-batched datapath.

    The per-clock reference replay
    (``DecompressionController(..., batched=False)``) gives the identical
    outcome; the golden tests and the decompressor differential property
    enforce this.
    """
    decompressor = Decompressor(
        transition, phase_shifter, architecture, reduction.config.speedup
    )
    return DecompressionController(decompressor, batched=True).run(
        encoding, reduction
    )
