"""The parameter spaces the differential properties draw from.

Properties of engine pairs that consume the same inputs share one space,
so they cannot drift apart: the ternary-sim (``tests/test_ternary_golden.py``)
and drop-batch (``tests/test_perf_golden.py``) properties draw random
netlists from ``NETLIST_SPACE``; the solver-batch (``tests/test_perf_golden.py``)
and the embedding, selection and decompressor
(``tests/test_ternary_golden.py``) properties encode test sets drawn from
``ENCODING_SPACE``.  The
solver-packed property (``tests/test_perf_golden.py``) draws raw GF(2)
bases and trial batches from ``SOLVER_SPACE``, and the replay-coverage
property (``tests/test_perf_golden.py``) draws cubes and vectors from
``COVERAGE_SPACE``.
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

#: Solver width n, weighted towards the uint64 word edges (the RHS bit of
#: an augmented row is bit n); the columns the committed basis leaves free,
#: weighted towards the few left in the encoder's late scans (n or more
#: means an empty basis); the rows per candidate; and the candidates beyond
#: the fewest that reach the packed batch path.
SOLVER_SPACE = dict(
    seed=SEEDS,
    num_variables=st.one_of(
        st.sampled_from([63, 64, 127, 128]), st.integers(min_value=1, max_value=130)
    ),
    free_columns=st.one_of(
        st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=130)
    ),
    rows_each=st.integers(min_value=1, max_value=12),
    extra_candidates=st.integers(min_value=0, max_value=8),
)

#: Cells per vector (one to four uint64 words, mostly no multiple of 64),
#: cubes and their most specified bits, vectors (zero included) and the
#: cube x vector budget of one coverage chunk (small enough that most
#: draws split the cubes into several chunks).
COVERAGE_SPACE = dict(
    seed=SEEDS,
    num_cells=st.one_of(
        st.sampled_from([63, 64, 65, 128]), st.integers(min_value=1, max_value=200)
    ),
    num_cubes=st.integers(min_value=1, max_value=24),
    max_specified=st.integers(min_value=1, max_value=16),
    num_vectors=st.integers(min_value=0, max_value=300),
    chunk_budget=st.integers(min_value=1, max_value=64),
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
