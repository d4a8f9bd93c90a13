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

from hypothesis import assume, given, settings

from differential_spaces import ENCODING_SPACE, NETLIST_SPACE, drawn_test_set
from repro.circuits.atpg import generate_test_set_for_netlist
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.generator import random_netlist
from repro.circuits.library import carry_ripple_adder, parity_tree
from repro.circuits.simulator import simulate_parallel
from repro.encoding.encoder import ReseedingEncoder
from repro.encoding.window import EncodingError
from repro.gf2.solve import Equation, IncrementalSolver
from repro.testdata.profiles import get_profile
from repro.testdata.synthetic import generate_test_set


# ----------------------------------------------------------------------
# Encoder: batched scan vs reference scan
# ----------------------------------------------------------------------
def _encode_both(test_set, num_chains, lfsr_size, window_length):
    """Encode with batched trials, then with the reference scan.

    A side that cannot encode the test set yields ``None``.
    """
    results = []
    for batch_trials in (True, False):
        encoder = ReseedingEncoder(
            num_cells=test_set.num_cells,
            num_scan_chains=num_chains,
            lfsr_size=lfsr_size,
            window_length=window_length,
            batch_trials=batch_trials,
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
    good = simulate_parallel(netlist, words, patterns)
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
def test_try_positions_matches_sequential_trials():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 130)
        solver = IncrementalSolver(n)
        solver.add_equations(
            Equation(rng.getrandbits(n), rng.getrandbits(1))
            for _ in range(rng.randint(0, n))
        )
        rows_each = rng.randint(1, 10)
        batches = [
            [
                rng.getrandbits(n) | ((1 << n) if rng.getrandbits(1) else 0)
                for _ in range(rows_each)
            ]
            for _ in range(rng.randint(1, 20))
        ]
        sequential = [solver.try_augmented(rows) for rows in batches]
        batched = solver.try_positions(batches)
        for seq, bat in zip(sequential, batched):
            assert seq.outcome == bat.outcome
            if seq.consistent:
                assert seq.new_pivots == bat.new_pivots
                # Committing either trial must leave identical solver state.
                left, right = solver.copy(), solver.copy()
                left.commit(seq)
                right.commit(bat)
                assert left.pivot_columns() == right.pivot_columns()
                assert left.solution().value == right.solution().value


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
