"""Benchmark regenerating paper Table II.

The WiMAX design case: P = 22, degree-3 generalized Kautz NoC, R = 0.5.
Turbo N = 2400 couples at a 75 MHz NoC clock and LDPC n = 2304 rate 1/2 at
300 MHz, for the three routing algorithms (SSP-RR, SSP-FL on the PP node
architecture; ASP-FT on the AP architecture).

A functional companion check runs the same decoder algorithm (layered
normalized min-sum, 10 iterations, the paper's fixed-point formats) through
the batched :class:`repro.sim.runner.BerRunner` to confirm it actually
corrects errors at WiMAX operating points — the architectural numbers above
are only meaningful if the functional core works.
"""

from __future__ import annotations

from repro import DecoderSpec, NocDecoderArchitecture, wimax_ldpc_code
from repro.analysis import PAPER_TABLE2, build_ber_table, build_table2
from repro.core.throughput import meets_wimax_requirement
from repro.noc import RoutingAlgorithm
from repro.sim import BatchLayeredDecoder, BerRunner

from benchmarks.harness import full_benchmarks_enabled, record

ALGORITHMS = [RoutingAlgorithm.SSP_RR, RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT]


def _evaluate_design_case():
    code = wimax_ldpc_code(2304, "1/2")
    ldpc_results = {}
    turbo_results = {}
    for algorithm in ALGORITHMS:
        spec = DecoderSpec(mapping_attempts=2).with_routing(algorithm)
        decoder = NocDecoderArchitecture(spec)
        ldpc_results[algorithm.value] = decoder.evaluate_ldpc(code)
        turbo_results[algorithm.value] = decoder.evaluate_turbo(2400)
    return turbo_results, ldpc_results


def test_table2_wimax_design_case():
    """Regenerate Table II and verify the WiMAX-compliance conclusions."""
    turbo_results, ldpc_results = _evaluate_design_case()
    print("\n" + build_table2(turbo_results, ldpc_results).render())
    record(
        "table2",
        "wimax_design_case",
        {
            mode: {
                routing: {
                    "throughput_mbps": round(result.throughput_mbps, 2),
                    "noc_area_mm2": round(result.area.noc_mm2, 3),
                }
                for routing, result in results.items()
            }
            for mode, results in (("turbo", turbo_results), ("ldpc", ldpc_results))
        },
    )

    summary = ["Conclusions checked against the paper:"]
    # 1. Turbo mode clears the 70 Mb/s WiMAX requirement at a 75 MHz NoC clock.
    turbo_ok = all(
        meets_wimax_requirement(result.throughput_bps) for result in turbo_results.values()
    )
    summary.append(f"  [{'PASS' if turbo_ok else 'FAIL'}] turbo >= 70 Mb/s at 75 MHz for all algorithms")
    # 2. Throughput depends only weakly on the routing algorithm (paper Section III-C).
    for name, results in (("turbo", turbo_results), ("LDPC", ldpc_results)):
        values = [r.throughput_mbps for r in results.values()]
        weak = max(values) / min(values) < 1.25
        summary.append(
            f"  [{'PASS' if weak else 'FAIL'}] {name}: weak dependence on routing algorithm "
            f"(spread {min(values):.1f}..{max(values):.1f} Mb/s)"
        )
    # 3. The AP (ASP-FT) NoC is the smallest one, as in the paper's area column.
    ap_smallest = ldpc_results["ASP-FT"].area.noc_mm2 <= min(
        ldpc_results["SSP-RR"].area.noc_mm2, ldpc_results["SSP-FL"].area.noc_mm2
    ) * 1.05
    summary.append(f"  [{'PASS' if ap_smallest else 'FAIL'}] ASP-FT (AP) NoC is the smallest")
    # 4. Side-by-side with the published numbers.
    for (mode, routing), (throughput, area) in sorted(PAPER_TABLE2.items()):
        ours = turbo_results[routing] if mode == "turbo" else ldpc_results[routing]
        summary.append(
            f"  paper {mode:5s} {routing}: {throughput:6.2f} Mb/s / {area:.2f} mm^2 | "
            f"measured {ours.throughput_mbps:6.2f} Mb/s / {ours.area.noc_mm2:.2f} mm^2"
        )
    print("", *summary, sep="\n")

    assert turbo_ok
    assert ap_smallest


def test_table2_ldpc_design_point_cost():
    """One full system-level LDPC evaluation at the design point delivers every message."""
    decoder = NocDecoderArchitecture(DecoderSpec(mapping_attempts=1))
    code = wimax_ldpc_code(2304, "1/2")
    result = decoder.evaluate_ldpc(code)
    assert result.simulation.all_delivered


def test_table2_functional_ber_of_design_decoder():
    """BER of the Table II decoder algorithm via the batched runner.

    Uses the paper's decoding parameters (layered normalized min-sum,
    sigma = 0.75, 10 iterations, 7-bit channel / 5-bit extrinsic LLRs) on the
    worst-case n=2304 rate-1/2 code (n=576 in the reduced default grid).
    """
    full = full_benchmarks_enabled()
    code = wimax_ldpc_code(2304 if full else 576, "1/2")
    runner = BerRunner(
        code,
        BatchLayeredDecoder(code.h, max_iterations=10, fixed_point=True),
        batch_size=64,
        max_frames=512 if full else 128,
        target_frame_errors=50,
        seed=22,
    )
    ebn0_points = [1.5, 2.0, 2.5] if full else [1.5, 2.0]
    points = runner.run(ebn0_points)
    print(
        "\n"
        + build_ber_table(
            points,
            title=f"Table II decoder functional BER ({code.describe()})",
        ).render()
    )
    record(
        "table2",
        "functional_ber",
        {
            "n": code.n,
            "points": {
                f"{point.ebn0_db:.1f}dB": {
                    "ber": point.ber,
                    "fer": point.fer,
                    "frames": point.frames,
                    "avg_iterations": round(point.avg_iterations, 2),
                }
                for point in points
            },
        },
    )
    # The waterfall must actually fall: monotone BER improvement with SNR.
    bers = [point.ber for point in points]
    assert all(late <= early for early, late in zip(bers, bers[1:]))
    assert points[-1].ber < 1e-2
