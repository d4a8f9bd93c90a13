"""Table 1 -- Classical vs window-based LFSR reseeding.

For every circuit the benchmark encodes the calibrated test set with classical
reseeding (L=1) and with window-based reseeding (L=50, 200 and, with
``REPRO_BENCH_FULL=1``, 500), reporting LFSR size, test data volume and test
sequence length next to the paper's published numbers.

Expected shape (the paper's trend, reproduced on scaled test sets): as the
window grows, the number of seeds -- and with it the TDV -- drops, while the
test sequence length grows roughly linearly with L.
"""

import pytest

from repro.reporting import format_table
from repro.testdata import literature
from repro.testdata.profiles import profile_names

from conftest import full_runs_enabled, publish

WINDOWS = [50, 200]


def _rows_for_circuit(workbench, circuit):
    published = literature.TABLE1[circuit]
    rows = []
    classical = workbench.classical(circuit)
    rows.append(
        {
            "circuit": circuit,
            "L": 1,
            "lfsr": classical.lfsr_size,
            "tdv": classical.test_data_volume,
            "tsl": classical.test_sequence_length,
            "tdv_paper": published[1]["tdv"],
            "tsl_paper": published[1]["tsl"],
        }
    )
    windows = WINDOWS + ([500] if full_runs_enabled() else [])
    for window in windows:
        encoding = workbench.encoding(circuit, window).encoding
        rows.append(
            {
                "circuit": circuit,
                "L": window,
                "lfsr": encoding.lfsr_size,
                "tdv": encoding.test_data_volume,
                "tsl": encoding.test_sequence_length,
                "tdv_paper": published[window]["tdv"],
                "tsl_paper": published[window]["tsl"],
            }
        )
    return rows


@pytest.mark.parametrize("circuit", profile_names())
def test_table1_classical_vs_window(benchmark, workbench, circuit):
    rows = benchmark.pedantic(
        _rows_for_circuit, args=(workbench, circuit), rounds=1, iterations=1
    )
    publish(
        f"table1_{circuit}",
        format_table(
            rows,
            columns=["circuit", "L", "lfsr", "tdv", "tsl", "tdv_paper", "tsl_paper"],
            title=f"Table 1 ({circuit}): classical vs window-based reseeding "
            f"(measured on scaled calibrated test sets vs published)",
        ),
    )
    # Shape checks: the window-based encodings beat classical reseeding on
    # TDV and pay for it with longer test sequences, exactly as in the paper.
    classical_row = rows[0]
    for row in rows[1:]:
        assert row["tdv"] <= classical_row["tdv"]
        assert row["tsl"] >= classical_row["tsl"]
    # TDV decreases (weakly) as the window grows.
    tdvs = [row["tdv"] for row in rows[1:]]
    assert tdvs == sorted(tdvs, reverse=True)
