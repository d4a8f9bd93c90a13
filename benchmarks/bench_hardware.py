"""Section 4 hardware-overhead experiments (gate-equivalent costs).

Three experiments mirror the hardware paragraphs of the evaluation:

* the State Skip circuit cost of s13207's 24-bit LFSR as the speedup factor
  grows from 12 to 32 (paper: 52 -> 119 GE);
* the cost of the rest of the decompressor (LFSR, phase shifter, counters,
  control) and of the Mode Select unit over a (L, S) sweep (paper: ~320 GE
  and 44-262 GE respectively);
* the multi-core SoC experiment at L=200, S=10, k=10 where everything but
  the Mode Select units is shared (paper: Mode Select 107-373 GE per core).

Absolute GE values depend on the cell library weights; the assertions check
the paper's *trends* and that the magnitudes stay in the same few-hundred-GE
regime.
"""

from repro.decompressor.hardware import (
    GateCostModel,
    soc_decompressor_cost,
    state_skip_cost,
)
from repro.lfsr.lfsr import LFSR
from repro.lfsr.state_skip import StateSkipCircuit
from repro.pipeline import hardware
from repro.reporting import format_table
from repro.testdata import literature
from repro.testdata.profiles import get_profile

from conftest import publish

SOC_CIRCUITS = ["s9234", "s13207", "s15850"]


def _state_skip_sweep():
    lfsr = LFSR.of_size(get_profile("s13207").lfsr_size)
    model = GateCostModel()
    rows = []
    for k in [12, 16, 20, 24, 28, 32]:
        circuit = StateSkipCircuit(lfsr.transition, k)
        rows.append(
            {
                "k": k,
                "xor_gates": circuit.xor_gate_count(),
                "ge": round(state_skip_cost(circuit, model), 1),
            }
        )
    return rows


def test_state_skip_circuit_cost_vs_k(benchmark):
    rows = benchmark.pedantic(_state_skip_sweep, rounds=1, iterations=1)
    published = literature.HARDWARE["state_skip_s13207"]
    text = format_table(
        rows,
        title="State Skip circuit cost for s13207's 24-bit LFSR "
        f"(paper: {published[12]} GE at k=12, {published[32]} GE at k=32)",
    )
    publish("hardware_state_skip", text)
    by_k = {row["k"]: row["ge"] for row in rows}
    # Published trend: cost grows with k (the paper reports a 2.3x increase
    # from k=12 to k=32) and stays within a few hundred GE.  The absolute
    # level depends on the feedback polynomial and cell-library weights, so
    # only the order of magnitude is checked.
    assert by_k[32] > by_k[12]
    assert by_k[32] / by_k[12] < 5.0
    assert 20.0 <= by_k[12] <= 500.0
    assert 50.0 <= by_k[32] <= 1000.0


def _decompressor_report(workbench, circuit, window, segment_size, speedup):
    return hardware(
        workbench.encoding(circuit, window),
        workbench.reduce(circuit, window, segment_size, speedup),
    )


def test_decompressor_and_mode_select_cost(benchmark, workbench):
    def sweep():
        rows = []
        for window, segment_size in [(50, 2), (50, 10), (200, 10), (200, 25)]:
            report = _decompressor_report(workbench, "s13207", window, segment_size, 10)
            rows.append(
                {
                    "L": window,
                    "S": segment_size,
                    "rest_of_decompressor_ge": round(report.shared, 1),
                    "mode_select_ge": round(report.mode_select, 1),
                    "total_ge": round(report.total, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lo, hi = literature.HARDWARE["mode_select_range"]
    publish(
        "hardware_decompressor",
        format_table(
            rows,
            title="s13207 decompressor cost over (L, S) "
            f"(paper: rest ~{literature.HARDWARE['decompressor_rest_s13207']} GE, "
            f"Mode Select {lo}-{hi} GE)",
        ),
    )
    for row in rows:
        # Same order of magnitude as the paper's figures.
        assert 100.0 <= row["rest_of_decompressor_ge"] <= 1500.0
        assert row["mode_select_ge"] <= 600.0


def test_soc_sharing(benchmark, workbench):
    def build():
        reports = {}
        for circuit in SOC_CIRCUITS:
            reports[circuit] = _decompressor_report(workbench, circuit, 200, 10, 10)
        return reports

    reports = benchmark.pedantic(build, rounds=1, iterations=1)
    soc = soc_decompressor_cost(reports)
    rows = [
        {
            "core": name,
            "mode_select_ge": round(report.mode_select, 1),
            "standalone_total_ge": round(report.total, 1),
        }
        for name, report in reports.items()
    ]
    rows.append(
        {
            "core": "SoC (shared)",
            "mode_select_ge": round(sum(r.mode_select for r in reports.values()), 1),
            "standalone_total_ge": round(soc.total, 1),
        }
    )
    publish(
        "hardware_soc",
        format_table(
            rows,
            title="Multi-core SoC decompressor (L=200, S=10, k=10): shared datapath, "
            "per-core Mode Select",
        ),
    )
    # Sharing must be a clear win over one decompressor per core.
    assert soc.total < 0.8 * sum(report.total for report in reports.values())
