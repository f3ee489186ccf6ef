#!/usr/bin/env python3
"""Design-space exploration in the style of the paper's Table I.

Sweeps the paper's Table-I grid (6 topology groups x 4 parallelisms x 3
routing algorithms, derived from ``repro.analysis.PAPER_TABLE1``) for the
worst-case WiMAX LDPC code (n = 2304, rate 1/2) and prints throughput / NoC
area per design point next to the values published in the paper, the paper
cells the model has no point for and why, and the qualitative trend checks
(Kautz wins, D = 3 sweet spot, throughput grows with P, weak dependence on
the routing algorithm).

Run with ``python examples/table1_sweep.py``.
"""

from __future__ import annotations

import time

from repro import DecoderSpec, DesignSpaceExplorer
from repro.analysis import build_table1, table1_ledger


def main() -> None:
    explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0)
    start = time.time()
    ledger = table1_ledger(explorer)
    points = ledger.points
    print(f"evaluated {len(points)} Table-I design points in {time.time() - start:.1f} s\n")

    print(build_table1(points).render())
    missing = [cell for cell in ledger.cells if cell.point is None]
    print(f"\n{len(missing)} of {len(ledger.cells)} paper cells have no design point:")
    for cell in missing:
        print(f"  {cell.paper.label}: {cell.missing_reason}")

    print("\nTrend checks (the claims the paper derives from Table I):")
    for check in ledger.trends:
        status = "PASS" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")

    best = explorer.best_point(points, throughput_floor_mbps=70.0)
    print(
        f"\nbest throughput/area point above 70 Mb/s: {best.topology_family} "
        f"D={best.degree} P={best.parallelism} {best.routing_algorithm.value} -> "
        f"{best.cell()} [Mb/s / mm^2]"
    )


if __name__ == "__main__":
    main()
