"""Table 2 -- Test-sequence-length improvement of the proposed method.

For every circuit and window size the original window-based TSL is compared
with the TSL after State Skip reduction; as in the paper, the best result
over segment sizes S in {2, 5, 10} and speedup factors k <= 24 is reported.

Expected shape: large reductions (the paper reports 60%-96%), growing with
the window length L.
"""

import pytest

from repro.reporting import format_table
from repro.testdata import literature
from repro.testdata.profiles import profile_names

from conftest import full_runs_enabled, publish

SEGMENT_SIZES = [2, 5, 10]
SPEEDUPS = [8, 16, 24]


def _rows_for_circuit(workbench, circuit):
    windows = [50, 200] + ([500] if full_runs_enabled() else [])
    rows = []
    for window in windows:
        encoding = workbench.encoding(circuit, window).encoding
        best = workbench.best_reduction(circuit, window, SEGMENT_SIZES, SPEEDUPS)
        published = literature.TABLE2[circuit][window]
        rows.append(
            {
                "circuit": circuit,
                "L": window,
                "orig_tsl": encoding.test_sequence_length,
                "prop_tsl": best.test_sequence_length,
                "impr_pct": round(best.improvement_percent, 1),
                "impr_paper_pct": published["impr"],
            }
        )
    return rows


@pytest.mark.parametrize("circuit", profile_names())
def test_table2_tsl_improvement(benchmark, workbench, circuit):
    rows = benchmark.pedantic(
        _rows_for_circuit, args=(workbench, circuit), rounds=1, iterations=1
    )
    publish(
        f"table2_{circuit}",
        format_table(
            rows,
            title=f"Table 2 ({circuit}): TSL of the window-based baseline vs the "
            f"State Skip method (best over S={SEGMENT_SIZES}, k={SPEEDUPS})",
        ),
    )
    for row in rows:
        # The reduction must be substantial for every configuration...
        assert row["prop_tsl"] < row["orig_tsl"]
        assert row["impr_pct"] > 30.0
    # ...and (as in the paper) improve as the window grows (small tolerance
    # for the noise of the scaled test sets).
    improvements = [row["impr_pct"] for row in rows]
    assert improvements[-1] >= improvements[0] - 1.0
