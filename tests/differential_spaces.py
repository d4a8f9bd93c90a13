"""The parameter spaces the differential properties draw from.

Properties of engine pairs that consume the same inputs share one space,
so they cannot drift apart: the ternary-sim (``tests/test_ternary_golden.py``)
and drop-batch (``tests/test_perf_golden.py``) properties draw random
netlists from ``NETLIST_SPACE``; the solver-batch (``tests/test_perf_golden.py``)
and the embedding and decompressor (``tests/test_ternary_golden.py``)
properties encode test sets drawn from ``ENCODING_SPACE``.
"""

from hypothesis import strategies as st

from repro.testdata.profiles import custom_profile
from repro.testdata.synthetic import generate_test_set

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)

#: Netlist inputs, gates and the patterns simulated on it.
NETLIST_SPACE = dict(
    seed=SEEDS,
    num_inputs=st.integers(min_value=6, max_value=18),
    num_gates=st.integers(min_value=20, max_value=120),
    patterns=st.integers(min_value=4, max_value=16),
)

#: Scan cells, cubes, most specified bits per cube, scan chains and the
#: window length L.
ENCODING_SPACE = dict(
    seed=SEEDS,
    num_cells=st.integers(min_value=24, max_value=96),
    num_cubes=st.integers(min_value=6, max_value=24),
    max_specified=st.integers(min_value=4, max_value=12),
    chains=st.integers(min_value=2, max_value=12),
    window=st.integers(min_value=12, max_value=48),
)


def drawn_test_set(seed, num_cells, num_cubes, max_specified, chains):
    """The synthetic test set of one draw from ``ENCODING_SPACE``."""
    profile = custom_profile(
        f"drawn{seed}",
        scan_cells=num_cells,
        num_cubes=num_cubes,
        max_specified=max_specified,
        mean_specified=max_specified / 2,
        scan_chains=chains,
        lfsr_size=max_specified + 8,
    )
    return generate_test_set(profile, seed=seed)
