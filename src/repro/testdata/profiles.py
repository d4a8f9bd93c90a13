"""Calibrated benchmark-circuit profiles.

The paper evaluates on the five largest ISCAS'89 circuits using uncompacted
stuck-at test sets generated by Atalanta, assuming 32 balanced scan chains.
Those test sets (and the circuits' netlists at the sizes used) are not
shipped with this reproduction, so each circuit is described by a *profile*:
its scan-cell count, the LFSR size the paper reports in Table 1, and the
statistical shape of its test set (cube count, specified-bit distribution).
The synthetic generator (:mod:`repro.testdata.synthetic`) turns a profile
into a concrete :class:`~repro.testdata.test_set.TestSet` whose statistics
match the profile, which is what the benchmark harness feeds to the encoder.

The scan-cell counts are the standard full-scan widths (primary inputs plus
state elements) used throughout the test-compression literature; the LFSR
sizes are taken from Table 1 of the paper; cube counts and specified-bit
statistics are calibrated so that the baseline experiment (Table 1) shows the
published trend.  ``DESIGN.md`` documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class CircuitProfile:
    """Statistical description of one benchmark core and its test set.

    Attributes
    ----------
    name:
        Circuit name (e.g. ``"s13207"``).
    scan_cells:
        Test-cube width: primary inputs plus scan elements.
    scan_chains:
        Number of scan chains assumed by the paper (32 everywhere).
    lfsr_size:
        LFSR size ``n`` used by the paper (Table 1); also the upper bound the
        synthetic generator respects for the largest cube.
    num_cubes:
        Number of test cubes in the calibrated synthetic test set.
    max_specified:
        ``s_max`` of the synthetic test set (kept a few bits below
        ``lfsr_size`` so the densest cube stays encodable).
    mean_specified:
        Target mean of the specified-bit distribution.
    sigma:
        Log-normal shape parameter of the specified-bit distribution.
    """

    name: str
    scan_cells: int
    scan_chains: int
    lfsr_size: int
    num_cubes: int
    max_specified: int
    mean_specified: float
    sigma: float = 0.65

    def scaled(self, scale: float) -> "CircuitProfile":
        """A profile with the cube count scaled by ``scale`` (for quick runs).

        All per-cube statistics are preserved; only the number of cubes (and
        therefore the run time of the encoder) changes.  Benchmarks use scaled
        profiles by default so the full harness runs in minutes in pure
        Python; pass ``scale=1.0`` for the full-size calibrated sets.
        """
        if not 0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        count = max(20, int(round(self.num_cubes * scale)))
        return CircuitProfile(
            name=self.name,
            scan_cells=self.scan_cells,
            scan_chains=self.scan_chains,
            lfsr_size=self.lfsr_size,
            num_cubes=count,
            max_specified=self.max_specified,
            mean_specified=self.mean_specified,
            sigma=self.sigma,
        )


#: The five largest ISCAS'89 circuits, as evaluated in the paper.
ISCAS89_PROFILES: Dict[str, CircuitProfile] = {
    "s9234": CircuitProfile(
        name="s9234",
        scan_cells=247,
        scan_chains=32,
        lfsr_size=44,
        num_cubes=480,
        max_specified=36,
        mean_specified=14.0,
    ),
    "s13207": CircuitProfile(
        name="s13207",
        scan_cells=700,
        scan_chains=32,
        lfsr_size=24,
        num_cubes=700,
        max_specified=16,
        mean_specified=8.0,
    ),
    "s15850": CircuitProfile(
        name="s15850",
        scan_cells=611,
        scan_chains=32,
        lfsr_size=39,
        num_cubes=580,
        max_specified=31,
        mean_specified=13.0,
    ),
    "s38417": CircuitProfile(
        name="s38417",
        scan_cells=1664,
        scan_chains=32,
        lfsr_size=85,
        num_cubes=2200,
        max_specified=75,
        mean_specified=40.0,
        sigma=0.55,
    ),
    "s38584": CircuitProfile(
        name="s38584",
        scan_cells=1464,
        scan_chains=32,
        lfsr_size=56,
        num_cubes=800,
        max_specified=46,
        mean_specified=18.0,
    ),
}


def get_profile(name: str) -> CircuitProfile:
    """Look up a benchmark circuit profile by name."""
    try:
        return ISCAS89_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown circuit {name!r}; available: {sorted(ISCAS89_PROFILES)}"
        ) from None


def profile_names() -> List[str]:
    """Names of the available benchmark profiles (paper order)."""
    return ["s9234", "s13207", "s15850", "s38417", "s38584"]


def custom_profile(
    name: str,
    scan_cells: int,
    num_cubes: int,
    max_specified: int,
    mean_specified: float,
    scan_chains: int = 32,
    lfsr_size: Optional[int] = None,
    sigma: float = 0.65,
) -> CircuitProfile:
    """Build a profile for a user-supplied core.

    ``lfsr_size`` defaults to ``max_specified + 4`` -- the usual
    ``s_max`` plus margin rule for reseeding LFSRs.
    """
    if max_specified > scan_cells:
        raise ValueError("max_specified cannot exceed scan_cells")
    if lfsr_size is None:
        lfsr_size = max_specified + 4
    if lfsr_size < max_specified:
        raise ValueError("lfsr_size must be at least max_specified")
    return CircuitProfile(
        name=name,
        scan_cells=scan_cells,
        scan_chains=scan_chains,
        lfsr_size=lfsr_size,
        num_cubes=num_cubes,
        max_specified=max_specified,
        mean_specified=mean_specified,
        sigma=sigma,
    )
