"""Ablation bench: the NoC simulation parameters the paper's flow exposes.

Section III-A defines the knobs of the design flow — PE output rate R, local
message routing RL, collision management DCM/SCM, routing algorithm and node
architecture.  This bench sweeps each knob around the WiMAX design point and
prints its effect on ncycles / throughput / FIFO sizing, reproducing the
sensitivity discussion that justifies the paper's chosen configuration
(RL = 0, SCM, R = 0.5, SSP-FL).

Every point runs through the production design path: one
:class:`~repro.core.architecture.NocDecoderArchitecture` per varied
``DecoderSpec.noc`` for the simulation knobs, and one
:meth:`~repro.core.design_flow.DesignSpaceExplorer.sweep_ldpc` call over the
routing algorithms for the node architectures.
"""

from __future__ import annotations

from dataclasses import replace

from repro import DecoderSpec, NocDecoderArchitecture, wimax_ldpc_code
from repro.core.design_flow import DesignSpaceExplorer
from repro.noc import CollisionPolicy, RoutingAlgorithm
from repro.utils import Table

from benchmarks.harness import record


def test_ablation_injection_rate_and_flags():
    """Sweep R, RL and DCM/SCM at the P=22 Kautz-D3 design point."""
    spec = DecoderSpec(mapping_attempts=2)
    code = wimax_ldpc_code(2304, "1/2")
    base = spec.noc
    labels_and_configs = [
        *((f"R = {rate}", replace(base, injection_rate=rate)) for rate in (0.25, 0.5, 1.0)),
        *((f"RL = {int(rl)}", replace(base, route_local=rl)) for rl in (False, True)),
        *((policy.value, replace(base, collision_policy=policy))
          for policy in (CollisionPolicy.SCM, CollisionPolicy.DCM)),
    ]

    by_config = {
        config: NocDecoderArchitecture(replace(spec, noc=config)).evaluate_ldpc(code)
        for config in dict.fromkeys(c for _, c in labels_and_configs)
    }
    rows = [(label, by_config[config]) for label, config in labels_and_configs]

    table = Table(
        title="Ablation of the NoC simulation parameters (LDPC n=2304 r=1/2, P=22 Kautz D=3, SSP-FL)",
        columns=["configuration", "ncycles", "throughput [Mb/s]", "max FIFO", "mean latency"],
    )
    results = {}
    for label, evaluation in rows:
        sim = results[label] = evaluation.simulation
        table.add_row(
            [
                label,
                sim.ncycles,
                f"{evaluation.throughput_mbps:.1f}",
                sim.max_fifo_occupancy,
                f"{sim.statistics.mean_latency:.1f}",
            ]
        )
    print("\n" + table.render())
    record(
        "ablation_noc_params",
        "injection_rate_and_flags",
        {
            label: {
                "ncycles": int(evaluation.simulation.ncycles),
                "throughput_mbps": round(evaluation.throughput_mbps, 2),
                "max_fifo": int(evaluation.simulation.max_fifo_occupancy),
            }
            for label, evaluation in rows
        },
    )

    # Expected orderings: higher R never slows the phase down; routing local
    # messages through the network (RL=1) costs cycles; DCM never beats SCM by
    # a large margin at this load.
    assert results["R = 1.0"].ncycles <= results["R = 0.5"].ncycles <= results["R = 0.25"].ncycles
    assert results["RL = 1"].ncycles >= results["RL = 0"].ncycles
    assert results["DCM"].ncycles >= 0.8 * results["SCM"].ncycles


def test_ablation_node_architecture_fifo_sizing():
    """AP vs PP: FIFO depth (from simulation) drives the NoC area difference."""
    spec = DecoderSpec(mapping_attempts=2)
    code = wimax_ldpc_code(2304, "1/2")
    algorithms = (RoutingAlgorithm.SSP_RR, RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT)
    points = DesignSpaceExplorer(spec, seed=spec.mapping_seed).sweep_ldpc(
        code, [(spec.topology_family, spec.degree)], [spec.parallelism], list(algorithms)
    )
    table = Table(
        title="Node architecture ablation (AP vs PP) at the WiMAX design point",
        columns=["routing", "node arch", "ncycles", "max FIFO", "flit bits", "NoC area [mm^2]"],
    )
    areas = {}
    for point in points:
        areas[point.node_architecture] = point.noc_area_mm2
        config = spec.noc.with_routing(point.routing_algorithm)
        table.add_row(
            [point.routing_algorithm.value, point.node_architecture, point.ncycles,
             point.max_fifo_depth, config.flit_bits(spec.parallelism),
             f"{point.noc_area_mm2:.2f}"]
        )
    print("\n" + table.render())
    record(
        "ablation_noc_params",
        "node_architecture_area",
        {arch: round(area, 3) for arch, area in areas.items()},
    )

    # The AP architecture (no header, capped FIFOs) must yield the smaller NoC.
    assert areas["AP"] <= areas["PP"]
