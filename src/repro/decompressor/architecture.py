"""Simulation of the decompression architecture (Fig. 3).

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

Two models replay the schedule and produce identical
:class:`SimulationOutcome` objects, vector for vector:

* :func:`simulate_decompression` replays it **one segment at a time**, all
  seeds in lockstep: each step applies one transfer matrix per segment
  shape (``A^(v*r)`` if useful, ``A^(clocks - skip) K^skip`` if useless,
  ``K`` being the State Skip circuit's own matrix).  Four Russians tables
  of the scan-capture map then turn the start state of every useful vector
  into the packed vector.  Both read the substrate's :class:`ReplayTables`,
  built from the transition and phase-shifter matrices rather than the
  encoder's equations; K and the transfer matrices are built per replay;
* the **per-clock** :class:`DecompressionController` calls
  :meth:`Decompressor.shift_clock` once per cycle and is the oracle of the
  segment-level replay.

The captured vectors stay uint64 words (cell ``c`` is bit ``c mod 64`` of
word ``c // 64``) through the coverage check; the integer form is built
only for callers that read :attr:`SimulationOutcome.useful_vectors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.decompressor.mode_select import ModeSelectUnit
from repro.encoding.equations import _matrix_to_numpy
from repro.encoding.results import EncodingResult
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix
from repro.gf2.solve import _pack_ints_to_words, _words_to_ints, byte_tables
from repro.lfsr.lfsr import LFSR, LFSRMode
from repro.lfsr.phase_shifter import PhaseShifter
from repro.lfsr.state_skip import StateSkipLFSR
from repro.scan.architecture import ScanArchitecture
from repro.skip.reduction import ReductionResult
from repro.testdata.test_set import TestSet


@dataclass
class SimulationOutcome:
    """What the decompressor produced when replaying a reduction schedule.

    ``vector_words`` holds the fully shifted useful vectors in capture
    order, one ``(vectors, ceil(cells / 64))`` uint64 row each (cell ``c``
    is bit ``c mod 64`` of word ``c // 64``).  Two outcomes are equal when
    those words and every scalar field are.
    """

    seeds_applied: int
    vectors_applied: int
    vector_words: np.ndarray
    lfsr_clocks: int
    skip_clocks: int
    group_sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def useful_vectors(self) -> List[int]:
        """The captured vectors as packed ints (cell ``c`` = bit ``c``)."""
        return _words_to_ints(self.vector_words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationOutcome):
            return NotImplemented
        return (
            self.seeds_applied == other.seeds_applied
            and self.vectors_applied == other.vectors_applied
            and self.lfsr_clocks == other.lfsr_clocks
            and self.skip_clocks == other.skip_clocks
            and self.group_sizes == other.group_sizes
            and np.array_equal(self.vector_words, other.vector_words)
        )

    def uncovered_cubes(self, test_set: TestSet) -> List[int]:
        """Cubes not covered by any fully generated useful vector."""
        return test_set.uncovered_cubes_packed(self.vector_words)

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


def _mode_select_unit(reduction: ReductionResult, speedup: int) -> ModeSelectUnit:
    """The Mode Select unit that sequences a replayable schedule.

    The reduction must have been produced with the ``"exact"`` alignment
    model -- the hardware has no way of re-synchronising after the
    fractional jumps assumed by the ``"ideal"`` first-order model -- and
    for the State Skip circuit's own speedup.
    """
    if reduction.config.alignment != "exact":
        raise ValueError(
            "the decompressor simulation requires the 'exact' alignment model"
        )
    if reduction.config.speedup != speedup:
        raise ValueError("reduction speedup does not match the State Skip circuit")
    return ModeSelectUnit(
        [schedule.useful_segments for schedule in reduction.schedules],
        reduction.num_segments_per_window,
    )


class DecompressionController:
    """The controller that sequences seeds and segments, clock by clock.

    It drives the :class:`Decompressor` one shift clock at a time and is the
    per-clock oracle of :func:`simulate_decompression`.
    """

    def __init__(self, decompressor: Decompressor):
        self._decompressor = decompressor

    def run(
        self, encoding: EncodingResult, reduction: ReductionResult
    ) -> SimulationOutcome:
        """Replay a reduction schedule through the datapath."""
        decompressor = self._decompressor
        mode_select = _mode_select_unit(reduction, decompressor.lfsr.k)
        chain_length = decompressor.architecture.chain_length
        groups = reduction.seed_groups()

        useful_vectors: List[int] = []
        vectors_applied = lfsr_clocks = skip_clocks = seeds_applied = 0
        schedules = {s.seed_index: s for s in reduction.schedules}

        for seed_indices in groups.values():
            for seed_index in seed_indices:
                decompressor.load_seed(encoding.seeds[seed_index].seed)
                seeds_applied += 1
                for plan in schedules[seed_index].segments:
                    if mode_select.mode(seed_index, plan.segment_index):
                        decompressor.set_mode(LFSRMode.NORMAL)
                        for _ in range(plan.vectors_applied):
                            for _ in range(chain_length):
                                decompressor.shift_clock()
                                lfsr_clocks += 1
                            useful_vectors.append(decompressor.captured_vector())
                    else:
                        decompressor.set_mode(LFSRMode.STATE_SKIP)
                        for _ in range(plan.skip_clocks):
                            decompressor.shift_clock()
                            lfsr_clocks += 1
                            skip_clocks += 1
                        decompressor.set_mode(LFSRMode.NORMAL)
                        for _ in range(plan.lfsr_clocks - plan.skip_clocks):
                            decompressor.shift_clock()
                            lfsr_clocks += 1
                    vectors_applied += plan.vectors_applied

        return SimulationOutcome(
            seeds_applied=seeds_applied,
            vectors_applied=vectors_applied,
            vector_words=_pack_ints_to_words(
                useful_vectors, -(-decompressor.architecture.num_cells // 64)
            ),
            lfsr_clocks=lfsr_clocks,
            skip_clocks=skip_clocks,
            group_sizes={count: len(seeds) for count, seeds in groups.items()},
        )


def _gf2(counts: np.ndarray) -> np.ndarray:
    """A float32 product of 0/1 matrices reduced to GF(2) (exact below 2^24)."""
    return (counts.astype(np.int32) & 1).astype(np.float32)


def _gf2_power(matrix: np.ndarray, exponent: int) -> np.ndarray:
    """``matrix ** exponent`` over GF(2), by square-and-multiply."""
    result = np.eye(len(matrix), dtype=np.float32)
    while exponent:
        if exponent & 1:
            result = _gf2(result @ matrix)
        exponent >>= 1
        if exponent:
            matrix = _gf2(matrix @ matrix)
    return result


def _capture_tables(
    square: Callable[[int], np.ndarray],
    phase: np.ndarray,
    architecture: ScanArchitecture,
) -> np.ndarray:
    """Four Russians tables of the scan-capture map.

    ``r`` clocks after a vector's start state ``s``, cell ``c`` holds
    phase-shifter output ``c mod m`` of clock ``r - 1 - floor(c / m)``: row
    ``c mod m`` of ``P A^(r-1-floor(c/m)) s``.  Table ``i`` maps byte ``i``
    of the packed ``s`` to its share of the vector, packed into uint64
    words over the cells.  ``square(i)`` is ``A^(2^i)``.
    """
    m = architecture.num_chains
    r = architecture.chain_length
    n = phase.shape[1]
    # Blocks t = 0 .. r-1 of P A^t, doubled with one product per step.
    outputs = phase[:m]
    step = 0
    while len(outputs) < r * m:
        outputs = np.concatenate([outputs, _gf2(outputs @ square(step))])
        step += 1
    outputs = outputs[: r * m].reshape(r, m, n)
    cells = np.arange(architecture.num_cells)
    capture = outputs[r - 1 - cells // m, cells % m]
    # bit_rows[i, b]: the packed capture column of state bit 8 i + b.
    num_bytes = -(-n // 8)
    num_words = -(-architecture.num_cells // 64)
    bit_rows = np.zeros((num_bytes * 8, num_words * 8), dtype=np.uint8)
    columns = np.packbits(capture.T.astype(np.uint8), axis=1, bitorder="little")
    bit_rows[:n, : columns.shape[1]] = columns
    return byte_tables(bit_rows.view("<u8").reshape(num_bytes, 8, num_words))


class ReplayTables:
    """The replay's hardware constants of one substrate, built once.

    Built from the transition matrix A, the phase shifter P and the scan
    architecture only -- never from the encoder's equations, cover or
    windows -- so a replay that reads them stays an independent check of
    the encoding.  They hold:

    * ``normal``: A as a float32 0/1 matrix;
    * A's squaring ladder ``A^(2^i)``, grown on demand, from which
      :meth:`power` multiplies ``A^r`` and every transfer's ``A^clocks``
      without squaring A again;
    * ``per_vector``: ``A^r``, the move of one vector load;
    * ``capture``: the Four Russians tables of the scan-capture map.

    :attr:`~repro.encoding.substrate.EncoderSubstrate.replay_tables` builds
    them on a substrate's first replay and keeps them for every later (S, k)
    point; K and the transfer matrices are built per replay.  The arrays
    are shared, so they are read-only.
    """

    def __init__(
        self,
        transition: GF2Matrix,
        phase_shifter: PhaseShifter,
        architecture: ScanArchitecture,
    ):
        self.transition = transition
        self.phase_shifter = phase_shifter
        self.architecture = architecture
        self.normal = _matrix_to_numpy(transition).astype(np.float32)
        self.normal.setflags(write=False)
        self._ladder = [self.normal]
        self.per_vector = self.power(architecture.chain_length)
        self.per_vector.setflags(write=False)
        phase = _matrix_to_numpy(phase_shifter.matrix).astype(np.float32)
        self.capture = _capture_tables(self._square, phase, architecture)
        self.capture.setflags(write=False)

    def _square(self, index: int) -> np.ndarray:
        """``A^(2^index)``, squaring the ladder up to it on first use."""
        ladder = self._ladder
        while len(ladder) <= index:
            square = _gf2(ladder[-1] @ ladder[-1])
            square.setflags(write=False)
            ladder.append(square)
        return ladder[index]

    def power(self, exponent: int) -> np.ndarray:
        """``A^exponent``: one product per set bit above the lowest."""
        result = None
        for index in range(exponent.bit_length()):
            if exponent >> index & 1:
                square = self._square(index)
                result = square if result is None else _gf2(result @ square)
        if result is None:
            return np.eye(len(self.normal), dtype=np.float32)
        return result


def _lockstep(
    seeds: np.ndarray, transfers: np.ndarray, shape_of: np.ndarray
) -> np.ndarray:
    """Every seed's state at the start of every segment step.

    ``seeds`` holds one seed per row, ``transfers[i]`` is the transfer
    matrix of shape ``i`` and ``shape_of[step, seed]`` the shape of that
    seed's segment ``step``.  Returns ``starts[step, seed]``.
    """
    num_seeds, n = seeds.shape
    # Row-form blocks: states @ stacked moves every seed under every
    # shape, and each seed keeps its own shape's block.
    stacked = transfers.transpose(2, 0, 1).reshape(n, -1)
    rows = np.arange(num_seeds)
    starts = np.empty((len(shape_of), num_seeds, n), dtype=np.float32)
    states = seeds
    for step, shapes in enumerate(shape_of):
        starts[step] = states
        moved = _gf2(states @ stacked).reshape(num_seeds, len(transfers), n)
        states = moved[rows, shapes]
    return starts


def _capture(
    starts: np.ndarray, counts: np.ndarray, per_vector: np.ndarray, tables: np.ndarray
) -> np.ndarray:
    """The ``(vectors, words)`` packed vectors of useful segments, in order.

    Segment ``u`` starts in state ``starts[u]`` and captures ``counts[u]``
    vectors, vector ``j`` from state ``A^(j r)`` of its start
    (``per_vector`` is ``A^r``) through the capture ``tables``.
    """
    vector_starts = np.empty((len(starts), counts.max(), starts.shape[1]), np.float32)
    vector_starts[:, 0] = starts
    for j in range(1, counts.max()):
        vector_starts[:, j] = _gf2(vector_starts[:, j - 1] @ per_vector.T)
    bits = vector_starts[np.arange(counts.max()) < counts[:, None]]
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    vectors = np.zeros((len(packed), tables.shape[2]), dtype=np.uint64)
    for table, state_bytes in zip(tables, packed.T):
        vectors ^= table[state_bytes]
    return vectors


def simulate_decompression(
    encoding: EncodingResult, reduction: ReductionResult, tables: ReplayTables
) -> SimulationOutcome:
    """Replay a schedule one segment at a time, every seed in lockstep.

    ``tables`` are the substrate's :class:`ReplayTables`; the State Skip
    circuit (with its matrix K), the Mode Select unit and the transfer
    matrices of the schedule's segment shapes are built here, per replay.
    The per-clock :class:`DecompressionController` gives the identical
    outcome; the golden tests and the decompressor differential property
    enforce this.
    """
    architecture = tables.architecture
    decompressor = Decompressor(
        tables.transition,
        tables.phase_shifter,
        architecture,
        reduction.config.speedup,
    )
    mode_select = _mode_select_unit(reduction, decompressor.lfsr.k)
    r = architecture.chain_length
    groups = reduction.seed_groups()
    order = [seed_index for seeds in groups.values() for seed_index in seeds]
    schedules = {s.seed_index: s for s in reduction.schedules}
    steps = max((len(schedules[s].segments) for s in order), default=0)

    # Walk the schedule once: the Mode Select decision, the counters and
    # the (normal clocks, skip clocks) shape of every (seed, segment).
    # Shape 0 is the identity of a seed past its last segment.
    seed_states = np.zeros((len(order), decompressor.lfsr.size), dtype=np.float32)
    shapes: Dict[Tuple[int, int], int] = {}
    shape_of = np.zeros((steps, len(order)), dtype=np.intp)
    useful = []  # (step, seed row, vectors) in application order
    lfsr_clocks = skip_clocks = vectors_applied = 0
    for row, seed_index in enumerate(order):
        seed = encoding.seeds[seed_index].seed
        decompressor.load_seed(seed)  # the register's width check
        seed_states[row, seed.support()] = 1
        for step, plan in enumerate(schedules[seed_index].segments):
            if mode_select.mode(seed_index, plan.segment_index):
                shape = (plan.vectors_applied * r, 0)
                useful.append((step, row, plan.vectors_applied))
            else:
                shape = (plan.lfsr_clocks - plan.skip_clocks, plan.skip_clocks)
            lfsr_clocks += shape[0] + shape[1]
            skip_clocks += shape[1]
            vectors_applied += plan.vectors_applied
            shape_of[step, row] = shapes.setdefault(shape, len(shapes) + 1)

    # Transfer matrix of a shape: A^normal K^skip, with K the State Skip
    # circuit's own matrix.
    n = len(tables.normal)
    skip = _matrix_to_numpy(decompressor.lfsr.skip_circuit.matrix).astype(np.float32)
    transfers = np.empty((len(shapes) + 1, n, n), dtype=np.float32)
    transfers[0] = np.eye(n)
    for (clocks, jumps), index in shapes.items():
        transfers[index] = _gf2(tables.power(clocks) @ _gf2_power(skip, jumps))
    starts = _lockstep(seed_states, transfers, shape_of)

    vector_words = np.zeros((0, tables.capture.shape[2]), dtype=np.uint64)
    if useful:
        at_step, at_row, counts = (np.array(column) for column in zip(*useful))
        vector_words = _capture(
            starts[at_step, at_row], counts, tables.per_vector, tables.capture
        )

    return SimulationOutcome(
        seeds_applied=len(order),
        vectors_applied=vectors_applied,
        vector_words=vector_words,
        lfsr_clocks=lfsr_clocks,
        skip_clocks=skip_clocks,
        group_sizes={count: len(seeds) for count, seeds in groups.items()},
    )
