"""Calibrated synthetic test-set generation.

The paper's experiments consume uncompacted stuck-at test sets produced by
Atalanta for the large ISCAS'89 circuits.  Those exact artefacts are not
available here, so the generator in this module produces test sets whose
*statistics* -- cube count, specified-bit distribution, maximum specified
bits, clustering of the care bits -- match a
:class:`~repro.testdata.profiles.CircuitProfile`.  The compression and
embedding algorithms only ever look at those statistics, which is what makes
the substitution faithful (see DESIGN.md).

Two properties of real ATPG cubes matter for reseeding and are modelled
explicitly:

* The specified-bit count is heavily skewed: a few cubes (targeting
  hard-to-test faults) specify close to ``s_max`` bits, while the long tail
  specifies only a handful.  A truncated log-normal distribution reproduces
  this shape.
* Care bits cluster on a subset of "popular" cells (the cone of influence of
  frequently targeted fault sites) rather than being uniformly spread.  A
  Zipf-like cell-popularity weighting reproduces the fortuitous-embedding
  behaviour that the paper's Section 3.2 exploits.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from repro.testdata.cube import TestCube
from repro.testdata.profiles import CircuitProfile
from repro.testdata.test_set import TestSet


class SyntheticTestSetGenerator:
    """Generates reproducible test sets matching a circuit profile."""

    def __init__(self, profile: CircuitProfile, seed: int = 1):
        self._profile = profile
        self._seed = seed

    # ------------------------------------------------------------------
    # Distribution helpers
    # ------------------------------------------------------------------
    def _specified_counts(self, rng: random.Random) -> List[int]:
        """Draw the specified-bit count of every cube.

        A log-normal distribution with the profile's mean and sigma,
        truncated to ``[2, max_specified]``; the first cube is forced to
        ``max_specified`` so that ``s_max`` (and hence the required LFSR
        size) is exactly the profile's value.
        """
        profile = self._profile
        mu = math.log(max(profile.mean_specified, 2.0)) - profile.sigma ** 2 / 2.0
        counts = [profile.max_specified]
        for _ in range(profile.num_cubes - 1):
            draw = rng.lognormvariate(mu, profile.sigma)
            count = int(round(draw))
            count = max(2, min(profile.max_specified, count))
            counts.append(count)
        return counts

    def _cell_weights(self) -> List[float]:
        """Zipf-like popularity of scan cells (deterministic per profile)."""
        cells = self._profile.scan_cells
        shuffle_rng = random.Random(self._seed * 7919 + 13)
        ranks = list(range(1, cells + 1))
        shuffle_rng.shuffle(ranks)
        return [1.0 / (rank ** 0.45) for rank in ranks]

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self) -> TestSet:
        """Produce the calibrated test set."""
        profile = self._profile
        rng = random.Random(self._seed)
        counts = self._specified_counts(rng)
        weights = self._cell_weights()
        cells = profile.scan_cells
        cubes = []
        for count in counts:
            chosen = self._weighted_sample(rng, weights, count)
            assignments = {cell: rng.getrandbits(1) for cell in chosen}
            cubes.append(TestCube.from_assignments(cells, assignments))
        return TestSet(profile.name, cubes)

    @staticmethod
    def _weighted_sample(
        rng: random.Random, weights: Sequence[float], count: int
    ) -> List[int]:
        """Sample ``count`` distinct cells with probability ~ weight."""
        population = len(weights)
        count = min(count, population)
        # Efraimidis-Spirakis weighted sampling without replacement:
        # the cells with the largest u^(1/w) keys win.
        keys = []
        for cell, weight in enumerate(weights):
            u = rng.random()
            keys.append((u ** (1.0 / weight), cell))
        keys.sort(reverse=True)
        return [cell for _, cell in keys[:count]]


def generate_test_set(
    profile: CircuitProfile, seed: int = 1, scale: Optional[float] = None
) -> TestSet:
    """Convenience wrapper: generate the calibrated test set for a profile.

    ``scale`` (0, 1] shrinks the cube count proportionally; used by the
    benchmark harness to keep pure-Python run times reasonable while keeping
    every statistic of the individual cubes unchanged.
    """
    if scale is not None:
        profile = profile.scaled(scale)
    return SyntheticTestSetGenerator(profile, seed=seed).generate()
