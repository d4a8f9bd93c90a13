"""Test sets: ordered collections of test cubes plus their statistics.

A :class:`TestSet` is what the system integrator receives from the core
vendor for an IP core: a list of pre-computed test cubes, all of the same
width, with no structural information attached.  The class also carries the
simple statistics (cube count, maximum and total specified bits) that drive
LFSR sizing and the calibrated synthetic generators, plus a plain-text
serialisation so generated sets can be stored alongside the benchmarks.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.gf2.solve import _pack_ints_to_words
from repro.testdata.cube import TestCube


def cover_matrix(cares: np.ndarray, values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """``[c, p]``: does packed vector ``p`` cover cube ``c``?

    ``cares`` / ``values`` are ``(cubes, W)`` rows of
    :meth:`TestSet.packed_matrices`, ``words`` the vectors word-major as
    ``(W, vectors)``.  ``(vector & care) == value`` is accumulated word by
    word, skipping the words no cube cares about (cubes are sparse).
    """
    matches = np.ones((cares.shape[0], words.shape[1]), dtype=bool)
    for w in range(words.shape[0]):
        if cares[:, w].any():
            matches &= (words[w] & cares[:, w, None]) == values[:, w, None]
    return matches


@dataclass(frozen=True)
class TestSetStats:
    """Summary statistics of a test set."""

    #: Tell pytest this domain class is not a test-case class.
    __test__ = False

    num_cubes: int
    num_cells: int
    max_specified: int
    min_specified: int
    total_specified: int
    mean_specified: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.num_cubes} cubes x {self.num_cells} cells, "
            f"specified bits: max {self.max_specified}, "
            f"mean {self.mean_specified:.1f}, total {self.total_specified}"
        )


class TestSet:
    """An ordered, width-consistent collection of test cubes."""

    #: Tell pytest this domain class is not a test-case class.
    __test__ = False

    #: Boolean-entry budget of one (cubes x vectors) coverage chunk.
    _COVER_CHUNK_BUDGET = 4_000_000

    def __init__(self, name: str, cubes: Sequence[TestCube]):
        if not cubes:
            raise ValueError("a test set needs at least one cube")
        width = cubes[0].num_cells
        for i, cube in enumerate(cubes):
            if cube.num_cells != width:
                raise ValueError(
                    f"cube {i} has {cube.num_cells} cells, expected {width}"
                )
            if cube.is_empty():
                raise ValueError(f"cube {i} has no specified bits")
        self._name = name
        self._cubes = list(cubes)
        self._num_cells = width
        self._fingerprint: Optional[str] = None
        self._packed_matrices: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_cells(self) -> int:
        return self._num_cells

    @property
    def cubes(self) -> List[TestCube]:
        return list(self._cubes)

    def __len__(self) -> int:
        return len(self._cubes)

    def __iter__(self) -> Iterator[TestCube]:
        return iter(self._cubes)

    def __getitem__(self, index: int) -> TestCube:
        return self._cubes[index]

    def stats(self) -> TestSetStats:
        counts = [cube.specified_count() for cube in self._cubes]
        return TestSetStats(
            num_cubes=len(self._cubes),
            num_cells=self._num_cells,
            max_specified=max(counts),
            min_specified=min(counts),
            total_specified=sum(counts),
            mean_specified=statistics.fmean(counts),
        )

    def max_specified(self) -> int:
        """``s_max``: the largest specified-bit count over all cubes."""
        return max(cube.specified_count() for cube in self._cubes)

    def total_specified(self) -> int:
        return sum(cube.specified_count() for cube in self._cubes)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def sorted_by_specified(self, descending: bool = True) -> "TestSet":
        """Cubes ordered by specified-bit count (the encoder's base order)."""
        ordered = sorted(
            self._cubes, key=lambda c: c.specified_count(), reverse=descending
        )
        return TestSet(self._name, ordered)

    # ------------------------------------------------------------------
    # Coverage checking
    # ------------------------------------------------------------------
    def uncovered_cubes(self, vectors: Iterable[int]) -> List[int]:
        """Indices of cubes not covered by any of the given packed vectors."""
        num_words = (self._num_cells + 63) // 64
        return self.uncovered_cubes_packed(_pack_ints_to_words(list(vectors), num_words))

    def uncovered_cubes_packed(self, words: np.ndarray) -> List[int]:
        """Indices of cubes not covered by any row of ``words``.

        ``words`` holds one vector per row as the ``(vectors, num_words)``
        uint64 layout of :meth:`packed_matrices`.  Runs the embedding
        matcher's containment test, :func:`cover_matrix`, in chunks of at
        most ``_COVER_CHUNK_BUDGET`` cube x vector entries.
        """
        cares, values = self.packed_matrices()
        num_cubes = len(cares)
        covered = np.zeros(num_cubes, dtype=bool)
        if len(words):
            columns = np.ascontiguousarray(words.T)
            chunk = max(1, self._COVER_CHUNK_BUDGET // len(words))
            for start in range(0, num_cubes, chunk):
                stop = start + chunk
                matches = cover_matrix(cares[start:stop], values[start:stop], columns)
                covered[start:stop] = matches.any(axis=1)
        return np.flatnonzero(~covered).tolist()

    def all_covered(self, vectors: Iterable[int]) -> bool:
        """True when every cube is covered by at least one vector."""
        return not self.uncovered_cubes(vectors)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of the test set.

        Covers the name, width and every cube string (in order), so two test
        sets with the same fingerprint encode identically.  Computed with
        SHA-256 over the canonical text form, making it safe to use as a
        cache key across processes and interpreter runs -- the campaign
        result store keys every record by ``(fingerprint, config.cache_key())``.
        Memoised: the instance is immutable, so the hash is computed once.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"{self._name}\n{self._num_cells}\n".encode("utf-8"))
            for cube in self._cubes:
                digest.update(cube.to_string().encode("ascii"))
                digest.update(b"\n")
            fingerprint = digest.hexdigest()[:16]
            self._fingerprint = fingerprint
        return fingerprint

    def packed_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked ``(cares, values)`` uint64 matrices of all cubes.

        Row ``i`` holds cube ``i``'s care mask (``cares``) and care values
        (``values``) as little-endian uint64 words: word ``w`` carries
        cells ``64*w .. 64*w+63`` (cell index = bit index, the layout of
        :meth:`~repro.encoding.equations.EquationSystem.expand_seeds_packed`),
        so containment is ``(vector & care) == value`` word by word.  The
        broadcast containment tests (:func:`~repro.skip.selection.build_cover`,
        :meth:`uncovered_cubes_packed`) read the whole test set as these two
        ``(num_cubes, num_words)`` arrays -- an (S, k) sweep replays many
        schedules over one test set, so they are packed once per instance
        and memoised on it.
        The arrays are read-only; treat them as immutable.
        """
        cached = self._packed_matrices
        if cached is None:
            num_words = (self._num_cells + 63) // 64
            cached = (
                _pack_ints_to_words([c.care_mask for c in self._cubes], num_words),
                _pack_ints_to_words([c.care_value for c in self._cubes], num_words),
            )
            for matrix in cached:
                matrix.setflags(write=False)
            self._packed_matrices = cached
        return cached

    def to_text(self) -> str:
        """Serialise as one cube string per line with a small header."""
        lines = [f"# test set {self._name}", f"# cells {self._num_cells}"]
        lines.extend(cube.to_string() for cube in self._cubes)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, name: Optional[str] = None) -> "TestSet":
        """Parse the :meth:`to_text` format (comments start with ``#``)."""
        cubes = []
        parsed_name = name or "testset"
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if name is None and line.startswith("# test set "):
                    parsed_name = line[len("# test set "):].strip()
                continue
            cubes.append(TestCube.from_string(line))
        return cls(parsed_name, cubes)

    def __repr__(self) -> str:
        return (
            f"TestSet(name={self._name!r}, cubes={len(self._cubes)}, "
            f"cells={self._num_cells})"
        )
