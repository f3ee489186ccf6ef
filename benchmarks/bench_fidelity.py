"""Benchmark: the Table-I fidelity ledger.

Sweeps the paper's Table-I grid (WiMAX LDPC n = 2304, rate 1/2), prints it
in the paper's layout and records ``BENCH_fidelity.json``, one line per paper
row: each cell's paper and model values with the signed error in %, or the
typed reason the model has no point for it.  The record also holds the
summary, the suspect paper cells and the four trend checks, which must all
pass.  Tier-1 pins the same ledger with a per-cell error budget.
"""

from __future__ import annotations

from repro import DecoderSpec, DesignSpaceExplorer
from repro.analysis import build_table1, table1_ledger

from benchmarks.harness import record


def _cell(cell) -> dict:
    """One ledger cell: paper and model values with the errors in %, or why it is missing."""
    paper = cell.paper
    entry = {
        "P": paper.parallelism,
        "paper_mbps": paper.throughput_mbps,
        "paper_mm2": paper.noc_area_mm2,
    }
    if cell.point is None:
        return {**entry, "missing": cell.missing_reason}
    return {
        **entry,
        "model_mbps": round(cell.point.throughput_mbps, 2),
        "model_mm2": round(cell.point.noc_area_mm2, 3),
        "mbps_err_pct": round(100 * cell.error("throughput_mbps"), 2),
        "mm2_err_pct": round(100 * cell.error("noc_area_mm2"), 2),
    }


def test_table1_fidelity_ledger():
    """Every paper Table-I cell against the model, recorded cell by cell."""
    ledger = table1_ledger(DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0))
    summary = ledger.summary()
    print("\n" + build_table1(ledger.points).render())
    print(f"{summary['produced']} cells produced, {summary['missing']} missing; mean |error| "
          f"{summary['throughput_mbps']['mean_abs_error_pct']:.2f}% throughput, "
          f"{summary['noc_area_mm2']['mean_abs_error_pct']:.2f}% area")

    rows: dict[str, list[dict]] = {}
    for cell in ledger.cells:
        row = f"{cell.paper.topology} D={cell.paper.degree} {cell.paper.routing}"
        rows.setdefault(row, []).append(_cell(cell))
    record(
        "fidelity",
        "table1",
        {
            "summary": summary,
            "rows": rows,
            "flags": {cell.label: detail for cell, detail in ledger.flags},
            "trend_checks": {check.name: check.passed for check in ledger.trends},
        },
    )
    assert all(check.passed for check in ledger.trends), ledger.trends
