"""Result containers for the reseeding encoders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.gf2.bitvec import BitVector


@dataclass(frozen=True)
class CubeEmbedding:
    """Placement of one test cube inside a seed's window.

    Attributes
    ----------
    cube_index:
        Index of the cube in the encoded test set.
    position:
        Window-vector position (0-based) at which the cube's equations were
        solved (deterministic embedding) or at which it was found to match
        fortuitously.
    deterministic:
        True when the cube was encoded by solving its linear system; False
        when it is only known to match fortuitously.
    """

    cube_index: int
    position: int
    deterministic: bool = True


@dataclass
class SeedRecord:
    """One computed seed and everything embedded in its window."""

    index: int
    seed: BitVector
    embeddings: List[CubeEmbedding] = field(default_factory=list)

    @property
    def num_cubes(self) -> int:
        """Number of test cubes deterministically encoded in this seed."""
        return sum(1 for e in self.embeddings if e.deterministic)


@dataclass
class EncodingResult:
    """Complete output of a (window-based) reseeding encoder.

    The two paper-level figures of merit are properties:

    * :attr:`test_data_volume` -- bits stored on the tester
      (``num_seeds * lfsr_size``).
    * :attr:`test_sequence_length` -- vectors applied to the CUT by the
      *original* window-based scheme (``num_seeds * window_length``); the
      State Skip reduction of :mod:`repro.skip` shrinks this number.
    """

    circuit: str
    lfsr_size: int
    window_length: int
    num_scan_chains: int
    chain_length: int
    seeds: List[SeedRecord]
    num_cubes: int

    @property
    def num_seeds(self) -> int:
        return len(self.seeds)

    @property
    def test_data_volume(self) -> int:
        """TDV in bits: one ``lfsr_size``-bit seed per computed seed."""
        return self.num_seeds * self.lfsr_size

    @property
    def test_sequence_length(self) -> int:
        """TSL in vectors for the original window-based scheme."""
        return self.num_seeds * self.window_length

    def cube_assignment(self) -> Dict[int, CubeEmbedding]:
        """Mapping ``cube index -> its deterministic embedding``."""
        assignment: Dict[int, CubeEmbedding] = {}
        for record in self.seeds:
            for embedding in record.embeddings:
                if embedding.deterministic:
                    assignment[embedding.cube_index] = embedding
        return assignment

    def seed_of_cube(self, cube_index: int) -> Optional[int]:
        """Index of the seed that deterministically encodes a cube."""
        for record in self.seeds:
            for embedding in record.embeddings:
                if embedding.deterministic and embedding.cube_index == cube_index:
                    return record.index
        return None

    def cubes_per_seed(self) -> List[int]:
        """Deterministically encoded cube count of every seed."""
        return [record.num_cubes for record in self.seeds]

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by the reporting helpers."""
        per_seed = self.cubes_per_seed()
        return {
            "circuit": self.circuit,
            "lfsr_size": self.lfsr_size,
            "window_length": self.window_length,
            "num_seeds": self.num_seeds,
            "num_cubes": self.num_cubes,
            "tdv_bits": self.test_data_volume,
            "tsl_vectors": self.test_sequence_length,
            "max_cubes_per_seed": max(per_seed) if per_seed else 0,
            "mean_cubes_per_seed": (
                sum(per_seed) / len(per_seed) if per_seed else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Every seed and embedding as JSON-safe data (seeds as bit strings).

        The canonical form the golden tests compare.
        """
        return {
            "circuit": self.circuit,
            "lfsr_size": self.lfsr_size,
            "window_length": self.window_length,
            "num_scan_chains": self.num_scan_chains,
            "chain_length": self.chain_length,
            "num_cubes": self.num_cubes,
            "seeds": [
                {
                    "index": record.index,
                    "seed": record.seed.to_string(),
                    "embeddings": [
                        [e.cube_index, e.position, e.deterministic]
                        for e in record.embeddings
                    ],
                }
                for record in self.seeds
            ],
        }
