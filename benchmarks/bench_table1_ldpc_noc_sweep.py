"""Benchmark regenerating paper Table I.

Throughput [Mb/s] / NoC area [mm^2] for the WiMAX LDPC n = 2304, rate-1/2 code
across NoC topologies, parallelism degrees and routing algorithms
(fclk = 300 MHz, Itmax = 10, latcore = 15, RL = 0, SCM, R = 0.5).

The default grid covers every topology group of the paper at two parallelism
degrees (16 and 32); set ``REPRO_BENCH_FULL=1`` to sweep the paper's full
P in {16, 24, 32, 36} grid.

The sweep is submitted as one batch to the NoC sweep scheduler
(:func:`repro.noc.sweep.run_noc_sweep`) by
:class:`~repro.core.design_flow.DesignSpaceExplorer`, with topologies,
routing tables and code mappings shared across the grid and design points
assembled from each outcome's attached job.
"""

from __future__ import annotations

import pytest

from repro import DecoderSpec, DesignSpaceExplorer, wimax_ldpc_code
from repro.analysis import build_table1, check_table1_trends
from repro.noc import RoutingAlgorithm

from benchmarks.harness import full_benchmarks_enabled, record

TOPOLOGIES = [
    ("generalized-de-bruijn", 2),
    ("generalized-kautz", 2),
    ("spidergon", 3),
    ("generalized-kautz", 3),
    ("honeycomb", 4),
    ("generalized-kautz", 4),
]
ALGORITHMS = [RoutingAlgorithm.SSP_RR, RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT]


def _parallelisms() -> list[int]:
    return [16, 24, 32, 36] if full_benchmarks_enabled() else [16, 32]


def _run_sweep() -> list:
    code = wimax_ldpc_code(2304, "1/2")
    explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0)
    return explorer.sweep_ldpc(code, TOPOLOGIES, _parallelisms(), ALGORITHMS)


def test_table1_noc_design_space():
    """Regenerate Table I and verify the paper's qualitative conclusions."""
    points = _run_sweep()
    print("\n" + build_table1(points).render())

    checks = check_table1_trends(points)
    lines = ["Trend checks (paper Section III-B/C conclusions):"]
    for check in checks:
        lines.append(f"  [{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    print("", *lines, sep="\n")
    record(
        "table1",
        "design_space_sweep",
        {
            "design_points": len(points),
            "parallelisms": _parallelisms(),
            "trend_checks": {check.name: bool(check.passed) for check in checks},
            "best_throughput_mbps": round(
                max(point.throughput_mbps for point in points), 2
            ),
        },
    )

    # The reproduction is judged on the trends, not the absolute Mb/s values.
    assert points, "the sweep produced no design points"
    passed = sum(1 for check in checks if check.passed)
    assert passed >= max(1, len(checks) - 1), "more than one Table-I trend failed to reproduce"


@pytest.mark.slow
def test_table1_full_grid():
    """Full paper grid (P in {16, 24, 32, 36}), independent of env knobs.

    Tier-1 keeps the reduced grid above; this run is gated behind the
    ``slow`` marker (``--runslow`` / ``REPRO_RUN_SLOW=1``, used by CI's
    scheduled slow job).
    """
    code = wimax_ldpc_code(2304, "1/2")
    explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0)
    points = explorer.sweep_ldpc(code, TOPOLOGIES, [16, 24, 32, 36], ALGORITHMS)
    print("\n" + build_table1(points).render())

    checks = check_table1_trends(points)
    record(
        "table1",
        "full_grid_sweep",
        {
            "design_points": len(points),
            "parallelisms": [16, 24, 32, 36],
            "trend_checks": {check.name: bool(check.passed) for check in checks},
        },
    )
    assert points, "the full-grid sweep produced no design points"
    passed = sum(1 for check in checks if check.passed)
    assert passed >= max(1, len(checks) - 1), "more than one Table-I trend failed to reproduce"


def test_table1_single_point_cost():
    """One Table-I cell evaluates end to end (mapping + simulation + area model)."""
    code = wimax_ldpc_code(2304, "1/2")
    explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1), seed=0)
    point = explorer.evaluate_ldpc_point(
        code, "generalized-kautz", 3, 32, RoutingAlgorithm.SSP_FL
    )
    assert point.throughput_mbps > 0
