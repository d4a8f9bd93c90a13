"""Linear-equation construction and seed expansion.

The reseeding architecture of Fig. 1 works as follows: an ``n``-bit seed is
loaded into the LFSR, the LFSR free-runs and the phase shifter feeds the ``m``
scan chains, so that after ``r`` shift cycles one complete test vector sits in
the chains.  A window of ``L`` vectors therefore consumes ``L * r`` LFSR
cycles per seed.

Treating the seed as a vector of unknowns ``a = (a0 .. a(n-1))``, the value
scanned into cell ``c`` of window-vector ``v`` is the GF(2) inner product

    row(c, v) . a      with      row(c, v) = P[chain(c)] * A^(v*r + load_cycle(c))

where ``P`` is the phase-shifter matrix and ``A`` the LFSR transition matrix.
Encoding a test cube at window position ``v`` means adding one equation
``row(c, v) . a = bit`` per specified cell ``c``.

:class:`EquationSystem` precomputes the building blocks of those rows and
serves two consumers:

* the encoder, which asks for the packed equations of every cube at every
  window position (:meth:`EquationSystem.precompute_cube_words`: chunked
  numpy products over the whole test set, held by the encoder for one
  encode), and
* the cover and verification code, which asks for the fully expanded test
  vectors produced by a list of seeds (bulk numpy expansion).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix
from repro.gf2.solve import _words_to_ints
from repro.lfsr.phase_shifter import PhaseShifter
from repro.lfsr.transition import transition_power
from repro.scan.architecture import ScanArchitecture
from repro.testdata.cube import TestCube


def _matrix_to_numpy(matrix: GF2Matrix) -> np.ndarray:
    """Dense uint8 array of a GF2Matrix (shape nrows x ncols)."""
    if matrix.nrows == 0 or matrix.ncols == 0:
        return np.zeros((matrix.nrows, matrix.ncols), dtype=np.uint8)
    nbytes = (matrix.ncols + 7) // 8
    buffer = b"".join(
        matrix.row_mask(i).to_bytes(nbytes, "little") for i in range(matrix.nrows)
    )
    packed = np.frombuffer(buffer, dtype=np.uint8).reshape(matrix.nrows, nbytes)
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, : matrix.ncols])


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact GF(2) product of dense 0/1 arrays, via one BLAS sgemm.

    numpy's integer ``matmul`` is a naive C loop; routing the product
    through float32 hits BLAS instead and is exact as long as the inner
    dimension stays below 2**24 (far beyond any LFSR here).
    """
    counts = a.astype(np.float32) @ b.astype(np.float32)
    return (counts.astype(np.uint32) & 1).astype(np.uint8)


class EquationSystem:
    """Per-cube encoding equations and seed expansion for one core.

    Parameters
    ----------
    transition:
        LFSR transition matrix ``A`` (``n x n``).
    phase_shifter:
        Phase shifter driving the scan chains.
    architecture:
        Scan architecture of the core under test.
    window_length:
        Number of window vectors ``L`` each seed is expanded into.
    """

    def __init__(
        self,
        transition: GF2Matrix,
        phase_shifter: PhaseShifter,
        architecture: ScanArchitecture,
        window_length: int,
    ):
        if window_length < 1:
            raise ValueError("window_length must be at least 1")
        if transition.nrows != transition.ncols:
            raise ValueError("transition matrix must be square")
        if phase_shifter.lfsr_size != transition.ncols:
            raise ValueError("phase shifter width does not match the LFSR size")
        if phase_shifter.num_outputs < architecture.num_chains:
            raise ValueError(
                "phase shifter must drive at least as many outputs as scan chains"
            )
        self._transition = transition
        self._phase_shifter = phase_shifter
        self._architecture = architecture
        self._window_length = window_length
        self._lfsr_size = transition.ncols

        self._cell_rows = self._build_cell_rows()
        n = self._lfsr_size
        # float32 forms feed the BLAS-backed GF(2) matmuls of
        # cube_equations / expand_seeds; built once, reused for every cube.
        # One buffer backs both: A^(v*r) for all v concatenated column-wise
        # (one sgemm computes a cube's rows at every position at once), and
        # its (L, n, n) rearrangement for batched seed expansion is a view.
        self._cell_rows_f32 = self._cell_rows.astype(np.float32)
        self._positions_concat_f32 = np.ascontiguousarray(
            self._build_position_matrices()
            .transpose(1, 0, 2)
            .reshape(n, self._window_length * n)
        ).astype(np.float32)
        self._position_matrices_f32 = self._positions_concat_f32.reshape(
            n, self._window_length, n
        ).transpose(1, 0, 2)

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _build_cell_rows(self) -> np.ndarray:
        """Rows ``P[chain(c)] * A^(load_cycle(c))`` for every scan cell."""
        arch = self._architecture
        n = self._lfsr_size
        phase_np = _matrix_to_numpy(self._phase_shifter.matrix)
        transition_np = _matrix_to_numpy(self._transition)

        # chain_rows[t] = P * A^t for every shift cycle t of one vector load.
        chain_rows = np.empty((arch.chain_length, phase_np.shape[0], n), dtype=np.uint8)
        current = phase_np.copy()
        for t in range(arch.chain_length):
            chain_rows[t] = current
            current = _gf2_matmul(current, transition_np)

        cell_rows = np.empty((arch.num_cells, n), dtype=np.uint8)
        for cell in range(arch.num_cells):
            chain = cell % arch.num_chains
            cycle = arch.load_cycle(cell)
            cell_rows[cell] = chain_rows[cycle, chain]
        return cell_rows

    def _build_position_matrices(self) -> np.ndarray:
        """``A^(v*r)`` for every window position ``v`` (shape L x n x n)."""
        n = self._lfsr_size
        per_vector = transition_power(self._transition, self._architecture.chain_length)
        per_vector_np = _matrix_to_numpy(per_vector)
        matrices = np.empty((self._window_length, n, n), dtype=np.uint8)
        matrices[0] = np.eye(n, dtype=np.uint8)
        for v in range(1, self._window_length):
            matrices[v] = _gf2_matmul(matrices[v - 1], per_vector_np)
        return matrices

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lfsr_size(self) -> int:
        return self._lfsr_size

    @property
    def window_length(self) -> int:
        return self._window_length

    @property
    def architecture(self) -> ScanArchitecture:
        return self._architecture

    # ------------------------------------------------------------------
    # Equations
    # ------------------------------------------------------------------
    def cube_position_words(self, cube: TestCube) -> Tuple[np.ndarray, int]:
        """A cube's augmented equation rows for every position, packed.

        Returns ``(words, rows_per_position)`` where ``words`` is an
        ``(L * s, num_words)`` uint64 block -- ``s`` consecutive augmented
        rows (RHS packed as bit ``n``) per window position, in position
        order -- ready for
        :meth:`repro.gf2.solve.IncrementalSolver.try_positions_packed`.
        Computed on each call with one BLAS product; the encoder builds the
        blocks of a whole test set at once (:meth:`precompute_cube_words`).
        """
        self._check_width(cube)
        cells = cube.specified_cells()
        rhs = np.array([(cube.care_value >> c) & 1 for c in cells], dtype=np.uint8)
        spec_rows = self._cell_rows_f32[cells]  # (s, n)
        # rows_all[v, i] = spec_rows[i] @ A^(v*r) for every position v -- all
        # positions in a single BLAS product against the concatenated
        # position matrices (exact: inner-dimension sums stay < 2**24).
        counts = spec_rows @ self._positions_concat_f32  # (s, L*n)
        return self._pack_cube_words(counts, rhs, len(cells))

    def _pack_cube_words(
        self, counts: np.ndarray, rhs: np.ndarray, num_rows: int
    ) -> Tuple[np.ndarray, int]:
        """Pack one cube's gemm output into augmented uint64 row blocks.

        ``counts`` is the ``(s, L*n)`` float32 product of the cube's
        specified-cell rows with the concatenated position matrices --
        whether it came from a per-cube gemm (:meth:`cube_position_words`)
        or as a slice of the test-set-wide batched gemm
        (:meth:`precompute_cube_words`), the packed result is bit-identical.
        """
        n = self._lfsr_size
        window = self._window_length
        rows_all = (
            (counts.astype(np.uint32) & 1)
            .astype(np.uint8)
            .reshape(num_rows, window, n)
            .swapaxes(0, 1)
        )  # (L, s, n)
        augmented = np.concatenate(
            [rows_all, np.broadcast_to(rhs, (window, num_rows))[:, :, None]],
            axis=2,
        )
        packed = np.packbits(augmented, axis=2, bitorder="little")
        num_words = (n + 1 + 63) // 64
        buffer = np.zeros((window, num_rows, num_words * 8), dtype=np.uint8)
        buffer[:, :, : packed.shape[2]] = packed
        words = buffer.view("<u8").reshape(window * num_rows, num_words)
        return (words, num_rows)

    #: Float32 budget of one batched-gemm intermediate (~8 MB).  The cube
    #: batches of :meth:`precompute_cube_words` are chunked to stay below
    #: it: chunk outputs that fit the last-level cache beat both one huge
    #: gemm (cache-thrashing intermediates) and per-cube gemms (fixed BLAS
    #: overhead per call) -- tuned by timing the encoding scan.
    _BATCH_GEMM_BUDGET = 2_000_000

    def precompute_cube_words(
        self, cubes: Sequence[TestCube]
    ) -> List[Tuple[np.ndarray, int]]:
        """:meth:`cube_position_words` of many cubes, with batched gemms.

        Returns one ``(words, rows_per_position)`` block per cube, in cube
        order; equal cubes share one block.  :meth:`cube_position_words`
        issues one BLAS product per cube; for a whole test set that is
        hundreds of small gemms whose fixed overhead adds up (~15% of
        encode setup on s9234-L200).  Here the specified-cell rows of all
        distinct cubes are stacked and multiplied against the concatenated
        position matrices in one gemm per memory-bounded chunk, then split
        and packed per cube.  Sums of 0/1 floats are exact in float32
        regardless of accumulation order, so the blocks are bit-identical
        to the per-cube path.  Treat the arrays as immutable.
        """
        blocks: Dict[Tuple[int, int, int], Optional[Tuple[np.ndarray, int]]] = {}
        pending: List[Tuple[Tuple[int, int, int], TestCube, List[int]]] = []
        keys = []
        for cube in cubes:
            self._check_width(cube)
            key = (cube.num_cells, cube.care_mask, cube.care_value)
            keys.append(key)
            if key in blocks:
                continue
            cells = cube.specified_cells()
            if not cells:
                blocks[key] = self.cube_position_words(cube)  # no gemm needed
                continue
            blocks[key] = None  # filled by its chunk below
            pending.append((key, cube, cells))
        row_budget = max(
            1,
            self._BATCH_GEMM_BUDGET
            // max(1, self._window_length * self._lfsr_size),
        )
        start = 0
        while start < len(pending):
            chunk = []
            total_rows = 0
            while start < len(pending) and (
                not chunk or total_rows + len(pending[start][2]) <= row_budget
            ):
                chunk.append(pending[start])
                total_rows += len(pending[start][2])
                start += 1
            all_cells = np.concatenate(
                [np.asarray(cells, dtype=np.intp) for _, _, cells in chunk]
            )
            # One gemm for every cube of the chunk at every window position.
            counts = self._cell_rows_f32[all_cells] @ self._positions_concat_f32
            offset = 0
            for key, cube, cells in chunk:
                num_rows = len(cells)
                rhs = np.array(
                    [(cube.care_value >> c) & 1 for c in cells], dtype=np.uint8
                )
                blocks[key] = self._pack_cube_words(
                    counts[offset : offset + num_rows], rhs, num_rows
                )
                offset += num_rows
        return [blocks[key] for key in keys]

    def cube_equations(self, cube: TestCube) -> List[List[Tuple[int, int]]]:
        """Packed equations of a cube for every window position.

        Entry ``v`` of the result is the list of ``(coefficient_mask, rhs)``
        pairs for encoding the cube at window position ``v``, split from
        one :meth:`cube_position_words` block.  The reference scan
        (``WindowEncoder(batch_trials=False)``) reads these lists.
        """
        words, num_rows = self.cube_position_words(cube)
        return [
            self._position_equations(words, num_rows, v)
            for v in range(self._window_length)
        ]

    def cube_equations_at(self, cube: TestCube, position: int) -> List[Tuple[int, int]]:
        """Equations of a cube at one window position.

        Position 0 needs no product at all: its matrix is the identity, so
        its rows are the specified cells' own rows.
        """
        if not 0 <= position < self._window_length:
            raise IndexError(f"window position {position} out of range")
        if position == 0:
            self._check_width(cube)
            cells = cube.specified_cells()
            rows = np.packbits(self._cell_rows[cells], axis=1, bitorder="little")
            value = cube.care_value
            return [
                (int.from_bytes(row.tobytes(), "little"), (value >> cell) & 1)
                for row, cell in zip(rows, cells)
            ]
        words, num_rows = self.cube_position_words(cube)
        return self._position_equations(words, num_rows, position)

    def _check_width(self, cube: TestCube) -> None:
        if cube.num_cells != self._architecture.num_cells:
            raise ValueError(
                f"cube width {cube.num_cells} does not match the scan "
                f"architecture ({self._architecture.num_cells} cells)"
            )

    def _position_equations(
        self, words: np.ndarray, num_rows: int, position: int
    ) -> List[Tuple[int, int]]:
        """The ``(mask, rhs)`` pairs of one position of a packed block."""
        rows = _words_to_ints(words[position * num_rows : (position + 1) * num_rows])
        rhs_bit = 1 << self._lfsr_size
        return [(aug & (rhs_bit - 1), 1 if aug & rhs_bit else 0) for aug in rows]

    # ------------------------------------------------------------------
    # Seed expansion
    # ------------------------------------------------------------------
    def expand_seeds_packed(self, seeds: Sequence[BitVector]) -> np.ndarray:
        """Expand seeds into uint64-blocked windows (the packed core form).

        Returns a ``(num_seeds, L, num_words)`` little-endian uint64 array
        with ``num_words = ceil(num_cells / 64)``; bit ``c`` of word ``w``
        of entry ``[s, v]`` is scan cell ``64*w + c`` of the test vector
        produced by seed ``s`` at window position ``v`` -- the same cell
        packing as :meth:`repro.testdata.test_set.TestSet.packed_matrices`,
        so the cover kernel consumes it directly.
        """
        n = self._lfsr_size
        num_cells = self._architecture.num_cells
        num_seeds = len(seeds)
        num_words = (num_cells + 63) // 64
        buffer = np.zeros(
            (num_seeds, self._window_length, num_words * 8), dtype=np.uint8
        )
        if not seeds:
            return buffer.view("<u8")
        for seed in seeds:
            if seed.length != n:
                raise ValueError("seed length does not match the LFSR size")
        seed_cols = np.zeros((n, num_seeds), dtype=np.uint8)
        for j, seed in enumerate(seeds):
            value = seed.value
            while value:
                low = value & -value
                seed_cols[low.bit_length() - 1, j] = 1
                value ^= low

        # LFSR state at the start of every vector, for every seed, then the
        # scanned cell bits -- two batched BLAS products with a mod-2
        # reduction in between (operands must be 0/1 for exactness).  The
        # window dimension is processed in chunks so the intermediate
        # (chunk, cells, seeds) tensors stay bounded (~16 MB of float32)
        # for large windows/cores instead of materialising all L at once.
        seed_cols_f32 = seed_cols.astype(np.float32)
        chunk = max(1, 4_000_000 // max(1, num_cells * num_seeds))
        for start in range(0, self._window_length, chunk):
            positions = self._position_matrices_f32[start : start + chunk]
            states = np.matmul(positions, seed_cols_f32)  # (chunk, n, seeds)
            states = (states.astype(np.uint32) & 1).astype(np.float32)
            cell_bits = np.matmul(self._cell_rows_f32, states)
            cell_bits = (cell_bits.astype(np.uint32) & 1).astype(np.uint8)
            packed = np.packbits(cell_bits, axis=1, bitorder="little")
            # packed: (chunk, nbytes, seeds) -> per-seed rows of the buffer
            buffer[:, start : start + packed.shape[0], : packed.shape[1]] = (
                packed.transpose(2, 0, 1)
            )
        return buffer.view("<u8")

    def expand_seeds(self, seeds: Sequence[BitVector]) -> List[List[int]]:
        """Expand several seeds into their ``L``-vector windows (bulk numpy).

        Entry ``[s][v]`` of the result is the fully specified test vector
        (packed integer over the scan cells) produced by seed ``s`` at window
        position ``v`` -- the integer view of :meth:`expand_seeds_packed`,
        read by the oracle
        :func:`~repro.skip.selection.build_embedding_map_reference`.
        """
        if not seeds:
            return []
        packed = self.expand_seeds_packed(seeds)
        as_bytes = packed.view(np.uint8).reshape(len(seeds), self._window_length, -1)
        return [
            [int.from_bytes(vector.tobytes(), "little") for vector in window]
            for window in as_bytes
        ]
