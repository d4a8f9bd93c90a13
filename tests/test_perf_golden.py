"""Golden-equivalence tests for the vectorized hot kernels.

The perf PR rewrote the encoding solvability scan (batched numpy trials +
residual caching) and the fault simulator (wide words + fanout-cone
evaluation) while keeping the *reference* implementations in-tree
(``batch_trials=False`` / ``engine="packed"``).  These tests pin the
contract that made that rewrite safe: on identical inputs the optimized
paths produce bit-identical results, not merely statistically similar ones.
The hypothesis properties (``test_*_differential``) draw the same pairs on
random inputs.
"""

import random
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import assume, given, settings

from circuit_library import carry_ripple_adder, parity_tree
from differential_spaces import (
    COVERAGE_SPACE,
    ENCODING_SPACE,
    NETLIST_SPACE,
    SOLVER_SPACE,
    drawn_test_set,
)
from repro.circuits.atpg import generate_test_set_for_netlist
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.generator import random_netlist
from repro.circuits.simulator import simulate_parallel
from repro.circuits.ternary import packed_plan
from repro.decompressor.architecture import SimulationOutcome
from repro.encoding.substrate import EncoderSubstrate, SubstrateKey
from repro.encoding.window import EncodingError, WindowEncoder
from repro.gf2 import solve
from repro.gf2.solve import Equation, IncrementalSolver
from repro.testdata.cube import TestCube
from repro.testdata.profiles import get_profile
from repro.testdata.synthetic import generate_test_set
from repro.testdata.test_set import TestSet


# ----------------------------------------------------------------------
# Encoder: batched scan vs reference scan
# ----------------------------------------------------------------------
def _encode_both(test_set, num_chains, lfsr_size, window_length):
    """Encode with batched trials, then with the reference scan.

    A side that cannot encode the test set yields ``None``.
    """
    results = []
    key = SubstrateKey(test_set.num_cells, num_chains, lfsr_size, window_length)
    for batch_trials in (True, False):
        # A fresh substrate per side: no equation cache is shared.
        encoder = WindowEncoder(
            EncoderSubstrate(key).equations, batch_trials=batch_trials
        )
        try:
            results.append(encoder.encode(test_set))
        except EncodingError:
            results.append(None)
    return results


def test_encoder_bit_identical_on_builtin_circuit():
    """ATPG cubes of a built-in circuit: same seeds, same embeddings."""
    netlist = carry_ripple_adder(8)
    atpg = generate_test_set_for_netlist(netlist, fill_seed=3)
    test_set = atpg.test_set
    optimized, reference = _encode_both(
        test_set,
        num_chains=4,
        lfsr_size=test_set.max_specified() + 8,
        window_length=24,
    )
    assert optimized.to_dict() == reference.to_dict()
    assert [record.seed.value for record in optimized.seeds] == [
        record.seed.value for record in reference.seeds
    ]


def test_encoder_bit_identical_on_profile_test_set():
    """Calibrated synthetic cubes: same seeds, same embeddings."""
    profile = get_profile("s9234")
    test_set = generate_test_set(profile, seed=1, scale=0.03)
    optimized, reference = _encode_both(
        test_set,
        num_chains=profile.scan_chains,
        lfsr_size=profile.lfsr_size,
        window_length=40,
    )
    assert optimized.to_dict() == reference.to_dict()


@settings(max_examples=5, deadline=None)
@given(**ENCODING_SPACE)
def test_solver_batch_differential(
    seed, num_cells, num_cubes, max_specified, chains, window
):
    """Batched packed GF(2) solver trials vs the reference position scan."""
    test_set = drawn_test_set(seed, num_cells, num_cubes, max_specified, chains)
    batched, scan = _encode_both(
        test_set,
        num_chains=chains,
        lfsr_size=test_set.max_specified() + 8,
        window_length=window,
    )
    assume(batched is not None or scan is not None)
    assert batched is not None and scan is not None, "only one side encodes"
    assert batched.to_dict() == scan.to_dict()


# ----------------------------------------------------------------------
# Encoder: the selection step's batch shapes, pinned
# ----------------------------------------------------------------------
def _cube_set(seed, num_cells, counts):
    """Random cubes over ``num_cells`` cells, ``counts[i]`` specified bits each."""
    rng = random.Random(seed)
    cubes = []
    for count in counts:
        cells = rng.sample(range(num_cells), count)
        assignments = {cell: rng.getrandbits(1) for cell in cells}
        cubes.append(TestCube.from_assignments(num_cells, assignments))
    return TestSet(f"fixed{seed}", cubes)


def _greedy_embeddings(test_set, equations):
    """Per seed, the ``(cube, position)`` embeddings of the paper's greedy.

    A literal transcription of the ``repro.encoding.window`` docstring that
    shares neither the encoder's scan nor its pick: every step re-tries
    every pending cube at every window position from scratch and applies
    criteria a-c as three filters.
    """
    cubes = test_set.cubes
    window = equations.window_length
    systems = [equations.cube_equations(cube) for cube in cubes]
    counts = [cube.specified_count() for cube in cubes]
    remaining = set(range(len(cubes)))
    seeds = []
    while remaining:
        solver = IncrementalSolver(equations.lfsr_size)
        embeddings = []
        for cube in sorted(remaining, key=lambda i: (-counts[i], i)):
            trial = solver.try_masks(systems[cube][0])
            if trial.consistent:
                solver.commit(trial)
                embeddings.append((cube, 0))
                break
        while True:
            pending = remaining - {cube for cube, _ in embeddings}
            solvable = {}
            for cube in pending:
                for position in range(window):
                    trial = solver.try_masks(systems[cube][position])
                    if trial.consistent:
                        solvable[cube, position] = trial
            if not solvable:
                break
            densest = max(counts[cube] for cube, _ in solvable)
            level = [key for key in solvable if counts[key[0]] == densest]
            fewest = min(solvable[key].new_pivots for key in level)
            level = [key for key in level if solvable[key].new_pivots == fewest]
            ways = Counter(cube for cube, _ in solvable)
            rarest = min(ways[cube] for cube, _ in level)
            level = [key for key in level if ways[key[0]] == rarest]
            earliest = min(position for _, position in level)
            cube = min(cube for cube, position in level if position == earliest)
            solver.commit(solvable[cube, earliest])
            embeddings.append((cube, earliest))
        remaining -= {cube for cube, _ in embeddings}
        seeds.append(embeddings)
    return seeds


#: One ``try_positions_packed`` call of the encoder: its candidates, rows
#: per candidate and, for a re-try, the distinct residual row counts before
#: padding (``None`` for a first scan).
Batch = namedtuple("Batch", "candidates rows_each residual_rows")


def _record_batches(monkeypatch):
    """Record every ``try_positions_packed`` call as a :data:`Batch`."""
    calls = []
    retries = []
    packed = IncrementalSolver.try_positions_packed
    positions = IncrementalSolver.try_positions

    def record_packed(solver, words, rows_each):
        residual_rows = retries.pop() if retries else None
        calls.append(Batch(words.shape[0] // rows_each, rows_each, residual_rows))
        return packed(solver, words, rows_each)

    def record_positions(solver, position_rows):
        retries.append(sorted({len(rows) for rows in position_rows}))
        return positions(solver, position_rows)

    monkeypatch.setattr(IncrementalSolver, "try_positions_packed", record_packed)
    monkeypatch.setattr(IncrementalSolver, "try_positions", record_positions)
    return calls


def _rows(batch):
    return batch.candidates * batch.rows_each


#: case -> (cube seed, cells, specified counts, chains, window L, the batch
#: shape the case must produce).
SELECTION_CASES = {
    # Seven cubes of one count scanned in one packed call.
    "group-first-scan": (
        1, 48, [6] * 8, 4, 16,
        lambda batch, window: batch.residual_rows is None
        and batch.candidates >= 3 * window
        and _rows(batch) >= solve._BATCH_MIN_ROWS,
    ),
    # Stale residuals of different lengths, zero-padded into one packed call.
    "padded-retry": (
        2, 48, [6] * 8 + [4] * 4, 4, 16,
        lambda batch, window: batch.residual_rows is not None
        and len(batch.residual_rows) > 1
        and _rows(batch) >= solve._BATCH_MIN_ROWS,
    ),
    # A several-cube first scan too small for numpy: per-candidate trials.
    "below-min-rows": (
        3, 32, [3] * 6, 4, 4,
        lambda batch, window: batch.residual_rows is None
        and batch.candidates >= 2 * window
        and _rows(batch) < solve._BATCH_MIN_ROWS,
    ),
}


@pytest.mark.parametrize("case", sorted(SELECTION_CASES))
def test_selection_batch_shapes(case, monkeypatch):
    """Fixed cases of each batch shape: scan, oracle and greedy agree."""
    seed, num_cells, counts, chains, window, shape = SELECTION_CASES[case]
    test_set = _cube_set(seed, num_cells, counts)
    key = SubstrateKey(num_cells, chains, max(counts) + 8, window)
    reference = WindowEncoder(
        EncoderSubstrate(key).equations, batch_trials=False
    ).encode(test_set)
    calls = _record_batches(monkeypatch)
    batched = WindowEncoder(EncoderSubstrate(key).equations).encode(test_set)
    monkeypatch.undo()

    assert any(shape(batch, window) for batch in calls), calls
    assert batched.to_dict() == reference.to_dict()
    assert [record.seed.value for record in batched.seeds] == [
        record.seed.value for record in reference.seeds
    ]
    assert [
        [(embedding.cube_index, embedding.position) for embedding in record.embeddings]
        for record in batched.seeds
    ] == _greedy_embeddings(test_set, EncoderSubstrate(key).equations)


# ----------------------------------------------------------------------
# Fault simulator: wide words + cones vs dense 64-bit reference
# ----------------------------------------------------------------------
def _vectors(netlist, count, seed=11):
    rng = random.Random(seed)
    return [rng.getrandbits(netlist.num_inputs) for _ in range(count)]


def test_faultsim_identical_detection_words_without_dropping():
    """word_width 64 dense vs 256 cones: identical per-fault words."""
    netlist = random_netlist("golden", num_inputs=24, num_gates=120, seed=5)
    vectors = _vectors(netlist, 200)
    reference = FaultSimulator(netlist, word_width=64, engine="packed")
    optimized = FaultSimulator(netlist, word_width=256, engine="events")
    ref_result = reference.simulate_vectors(list(vectors), drop=False)
    opt_result = optimized.simulate_vectors(list(vectors), drop=False)
    # Without dropping, every fault sees every pattern, so the full
    # detection words must agree bit for bit across block widths.
    assert ref_result.detected == opt_result.detected


def test_faultsim_vectors_match_patterns():
    """Vector ints packed straight into input words vs per-pattern dicts."""
    netlist = random_netlist("vectors", num_inputs=20, num_gates=100, seed=3)
    rng = random.Random(5)
    # Two and a half 64-pattern blocks; bits above the 20 inputs are ignored.
    vectors = [rng.getrandbits(netlist.num_inputs + 7) for _ in range(160)]
    assert any(vector >> netlist.num_inputs for vector in vectors)
    patterns = [
        {net: (vector >> index) & 1 for index, net in enumerate(netlist.inputs)}
        for vector in vectors
    ]
    for drop in (False, True):
        by_vector = FaultSimulator(netlist, word_width=64)
        by_pattern = FaultSimulator(netlist, word_width=64)
        assert (
            by_vector.simulate_vectors(vectors, drop=drop).detected
            == by_pattern.simulate_patterns(patterns, drop=drop).detected
        )
        assert by_vector.detected_faults == by_pattern.detected_faults


def test_faultsim_identical_detected_set_with_dropping():
    """With fault dropping the detected-fault sets still coincide."""
    netlist = parity_tree(12)
    vectors = _vectors(netlist, 96, seed=2)
    reference = FaultSimulator(netlist, word_width=64, engine="packed")
    optimized = FaultSimulator(netlist, word_width=256, engine="events")
    reference.simulate_vectors(list(vectors), drop=True)
    optimized.simulate_vectors(list(vectors), drop=True)
    assert set(reference.detected_faults) == set(optimized.detected_faults)
    assert reference.coverage_percent == optimized.coverage_percent


def test_faultsim_input_and_gate_faults_match_on_builtin():
    """Cone evaluation handles input faults and gate faults alike."""
    netlist = carry_ripple_adder(4)
    vectors = _vectors(netlist, 64, seed=9)
    reference = FaultSimulator(netlist, word_width=64, engine="packed")
    optimized = FaultSimulator(netlist, word_width=64, engine="events")
    ref_result = reference.simulate_vectors(list(vectors), drop=False)
    opt_result = optimized.simulate_vectors(list(vectors), drop=False)
    assert ref_result.detected == opt_result.detected


@settings(max_examples=25, deadline=None)
@given(**NETLIST_SPACE)
def test_drop_batch_differential(seed, num_inputs, num_gates, patterns):
    """One batched drop-simulation block vs the per-pattern loop.

    Both must drop the same faults, and the block's lowest detecting bit
    must be the pattern that first detects the fault one at a time.
    """
    netlist = random_netlist(f"drop{seed}", num_inputs, num_gates, seed=seed)
    rng = random.Random(seed)
    batch = [
        {net: rng.getrandbits(1) for net in netlist.inputs} for _ in range(patterns)
    ]
    words = {
        net: sum(pattern[net] << position for position, pattern in enumerate(batch))
        for net in netlist.inputs
    }
    by_name = simulate_parallel(netlist, words, patterns)
    # detect_block reads the good block in plan net order.
    good = [by_name[net] for net in packed_plan(netlist).nets]
    batched = FaultSimulator(netlist, word_width=patterns)
    block = batched.detect_block(good, patterns, drop=True)

    per_pattern = FaultSimulator(netlist, word_width=1)
    first_detection = {}
    for position, pattern in enumerate(batch):
        for fault in per_pattern.simulate_patterns([pattern], drop=True).detected:
            first_detection.setdefault(fault, position)

    assert set(batched.detected_faults) == set(per_pattern.detected_faults)
    assert {fault: block.detecting_pattern(fault) for fault in block.detected} == {
        fault: first_detection.get(fault) for fault in block.detected
    }


# ----------------------------------------------------------------------
# Solver: batched position trials vs sequential trials
# ----------------------------------------------------------------------
def _add_equations(solver, equations):
    """Commit a batch of equations if it is consistent."""
    trial = solver.try_equations(equations)
    if trial.consistent:
        solver.commit(trial)


def _by_candidate(pairs, num_candidates):
    """A batch's trial per candidate; an absent candidate is inconsistent."""
    candidates = [candidate for candidate, _ in pairs]
    assert candidates == sorted(set(candidates)), "pairs not in candidate order"
    assert all(trial.consistent for _, trial in pairs)
    trials = dict(pairs)
    return [trials.get(candidate) for candidate in range(num_candidates)]


def test_try_positions_matches_sequential_trials():
    """Ragged batches, zero-padded by ``try_positions``, vs sequential trials."""
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 130)
        solver = IncrementalSolver(n)
        _add_equations(
            solver,
            [
                Equation(rng.getrandbits(n), rng.getrandbits(1))
                for _ in range(rng.randint(0, n))
            ],
        )
        rows_each = rng.randint(1, 10)
        batches = [
            [
                rng.getrandbits(n) | ((1 << n) if rng.getrandbits(1) else 0)
                for _ in range(rng.randint(0, rows_each))
            ]
            for _ in range(rng.randint(1, 20))
        ]
        sequential = [solver.try_augmented(rows) for rows in batches]
        batched = _by_candidate(solver.try_positions(batches), len(batches))
        for seq, bat in zip(sequential, batched):
            assert seq.consistent == (bat is not None)
            if seq.consistent:
                assert seq.new_pivots == bat.new_pivots
                # Committing either trial must leave identical solver state.
                left, right = solver.copy(), solver.copy()
                left.commit(seq)
                right.commit(bat)
                assert sorted(left._pivots) == sorted(right._pivots)
                assert left.solution().value == right.solution().value


def _drawn_batch(rng, n, basis_rows, rows_each):
    """One candidate's augmented rows over ``n`` variables.

    Rows are XORs of a few candidate-local generators (so some are
    dependent), optionally plus a committed basis row, with a flipped RHS
    now and then (so dependent rows can disagree), and include zero rows,
    lone ``0 = 1`` rows and duplicates.  Half the generators hold one to
    three columns, so that a candidate's pivots reach its highest columns.
    """
    generators = []
    for _ in range(rng.randint(1, rows_each)):
        if rng.getrandbits(1):
            generator = rng.getrandbits(n + 1)
        else:
            generator = rng.getrandbits(1) << n
            for column in rng.sample(range(n), min(n, rng.randint(1, 3))):
                generator |= 1 << column
        generators.append(generator)
    rows = []
    for _ in range(rows_each):
        kind = rng.random()
        if kind < 0.1:
            row = 0
        elif kind < 0.2:
            row = 1 << n
        elif kind < 0.3 and rows:
            row = rng.choice(rows)
        else:
            row = 0
            for generator in generators:
                if rng.getrandbits(1):
                    row ^= generator
            if basis_rows and rng.getrandbits(1):
                row ^= rng.choice(basis_rows)
            if rng.random() < 0.1:
                row ^= 1 << n
        rows.append(row)
    return rows


@settings(max_examples=50, deadline=None)
@given(**SOLVER_SPACE)
def test_solver_packed_differential(
    seed, num_variables, free_columns, rows_each, extra_candidates
):
    """Packed batch trials vs sequential ``try_augmented`` trials."""
    rng = random.Random(seed)
    n = num_variables
    solver = IncrementalSolver(n)
    # Distinct leading columns make the rows independent: the committed
    # rank is exactly n - free_columns, from an empty to a full-rank basis.
    # Half the bases pin the lowest columns, so the free ones sit next to
    # the RHS bit and, at the drawn word edges, on a uint64 boundary.
    rank = max(0, n - free_columns)
    pinned = range(rank) if rng.getrandbits(1) else rng.sample(range(n), rank)
    for column in pinned:
        _add_equations(
            solver,
            [Equation((1 << column) | rng.getrandbits(column), rng.getrandbits(1))],
        )
    basis_rows = list(solver._pivots.values())
    candidates = -(-solve._BATCH_MIN_ROWS // rows_each) + extra_candidates
    batches = [
        _drawn_batch(rng, n, basis_rows, rows_each) for _ in range(candidates)
    ]
    sequential = [solver.try_augmented(rows) for rows in batches]
    batches_before = solve.SOLVER_STATS.batches
    packed = _by_candidate(solver.try_positions(batches), len(batches))
    assert solve.SOLVER_STATS.batches == batches_before + 1, "packed path not taken"
    for seq, bat in zip(sequential, packed):
        assert seq.consistent == (bat is not None)
        if seq.consistent:
            assert bat.new_pivots == seq.new_pivots
            left, right = solver.copy(), solver.copy()
            left.commit(seq)
            right.commit(bat)
            assert left._pivots == right._pivots
            assert left.epoch == right.epoch


# ----------------------------------------------------------------------
# Replay coverage check: word matrix vs integer scan
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(**COVERAGE_SPACE)
def test_replay_coverage_differential(
    seed, num_cells, num_cubes, max_specified, num_vectors, chunk_budget
):
    """The chunked word-matrix coverage check vs a per-cube integer scan."""
    rng = random.Random(seed)
    cubes = []
    for _ in range(num_cubes):
        cells = rng.sample(range(num_cells), rng.randint(1, min(max_specified, num_cells)))
        mask = sum(1 << cell for cell in cells)
        cubes.append(TestCube(num_cells, mask, rng.getrandbits(num_cells) & mask))
    test_set = TestSet("coverage", cubes)
    # Half the vectors fill the don't-cares of a cube from a drawn subset,
    # so most draws cover some cubes and leave others.
    targets = rng.sample(cubes, rng.randint(0, num_cubes))
    vectors = []
    for _ in range(num_vectors):
        vector = rng.getrandbits(num_cells)
        if targets and rng.getrandbits(1):
            cube = rng.choice(targets)
            vector = vector & ~cube.care_mask | cube.care_value
        vectors.append(vector)
    num_words = -(-num_cells // 64)
    words = np.array(
        [[vector >> 64 * w & (1 << 64) - 1 for w in range(num_words)] for vector in vectors],
        dtype=np.uint64,
    ).reshape(num_vectors, num_words)
    outcome = SimulationOutcome(
        seeds_applied=0,
        vectors_applied=num_vectors,
        vector_words=words,
        lfsr_clocks=0,
        skip_clocks=0,
    )
    expected = [
        index
        for index, cube in enumerate(cubes)
        if not any(cube.matches_vector(vector) for vector in vectors)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TestSet, "_COVER_CHUNK_BUDGET", chunk_budget)
        assert outcome.uncovered_cubes(test_set) == expected
        assert test_set.uncovered_cubes(vectors) == expected


def test_solver_epoch_and_pivot_mask_track_commits():
    solver = IncrementalSolver(8)
    assert solver.epoch == 0
    assert solver.pivot_mask == 0
    trial = solver.try_equations([Equation(0b1010, 1)])
    solver.commit(trial)
    assert solver.epoch == 1
    assert solver.pivot_mask == 1 << 3
    # A redundant batch commits nothing and must not advance the epoch.
    redundant = solver.try_equations([Equation(0b1010, 1)])
    assert redundant.consistent and redundant.new_pivots == 0
    solver.commit(redundant)
    assert solver.epoch == 1
