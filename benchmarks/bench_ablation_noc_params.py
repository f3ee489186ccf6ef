"""Ablation bench: the NoC simulation parameters the paper's flow exposes.

Section III-A defines the knobs of the design flow — PE output rate R, local
message routing RL, collision management DCM/SCM, routing algorithm and node
architecture.  This bench sweeps each knob around the WiMAX design point and
prints its effect on ncycles / throughput / FIFO sizing, reproducing the
sensitivity discussion that justifies the paper's chosen configuration
(RL = 0, SCM, R = 0.5, SSP-FL).

All points run through the sweep scheduler
(:func:`repro.noc.sweep.run_noc_sweep`), seeded with the decoder's already
built topology and routing tables so nothing is recomputed per knob; rows are
matched to their configurations through each outcome's attached job rather
than input ordering.
"""

from __future__ import annotations

from dataclasses import replace

from repro import DecoderSpec, NocDecoderArchitecture, wimax_ldpc_code
from repro.core.throughput import ldpc_throughput_bps
from repro.hw.area import NocAreaModel
from repro.noc import CollisionPolicy, NocSweepJob, RoutingAlgorithm, run_noc_sweep
from repro.utils import Table

from benchmarks.harness import record


def _sweep(decoder: NocDecoderArchitecture, traffic, configs, seed=0):
    """Run one traffic pattern under many configurations via the scheduler.

    Returns ``{config: result}``, keyed through each outcome's job — callers
    look their configuration up instead of relying on submission order.
    """
    spec = decoder.spec
    key = (spec.topology_family, spec.parallelism, spec.degree)
    cache = {key: (decoder.topology, decoder.routing_tables)}
    jobs = [
        NocSweepJob(
            family=spec.topology_family,
            parallelism=spec.parallelism,
            degree=spec.degree,
            config=config,
            traffic=traffic,
            seed=seed,
        )
        for config in configs
    ]
    outcomes = run_noc_sweep(jobs, topology_cache=cache)
    return {outcome.job.config: outcome.result for outcome in outcomes}


def _throughput(spec: DecoderSpec, code, ncycles: int) -> float:
    return ldpc_throughput_bps(
        code.k,
        spec.ldpc_clock_hz,
        spec.ldpc_max_iterations,
        spec.ldpc_core_latency_cycles,
        ncycles,
    ) / 1e6


def test_ablation_injection_rate_and_flags():
    """Sweep R, RL and DCM/SCM at the P=22 Kautz-D3 design point."""
    spec = DecoderSpec(mapping_attempts=2)
    code = wimax_ldpc_code(2304, "1/2")
    decoder = NocDecoderArchitecture(spec)
    mapping = decoder.map_ldpc(code)

    base = spec.noc
    labels_and_configs = [
        *((f"R = {rate}", replace(base, injection_rate=rate)) for rate in (0.25, 0.5, 1.0)),
        *((f"RL = {int(rl)}", replace(base, route_local=rl)) for rl in (False, True)),
        *((policy.value, replace(base, collision_policy=policy))
          for policy in (CollisionPolicy.SCM, CollisionPolicy.DCM)),
    ]

    by_config = _sweep(decoder, mapping.traffic, [c for _, c in labels_and_configs])
    rows = [(label, by_config[config]) for label, config in labels_and_configs]

    table = Table(
        title="Ablation of the NoC simulation parameters (LDPC n=2304 r=1/2, P=22 Kautz D=3, SSP-FL)",
        columns=["configuration", "ncycles", "throughput [Mb/s]", "max FIFO", "mean latency"],
    )
    results = {}
    for label, sim in rows:
        results[label] = sim
        table.add_row(
            [
                label,
                sim.ncycles,
                f"{_throughput(spec, code, sim.ncycles):.1f}",
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
                "ncycles": int(sim.ncycles),
                "throughput_mbps": round(_throughput(spec, code, sim.ncycles), 2),
                "max_fifo": int(sim.max_fifo_occupancy),
            }
            for label, sim in results.items()
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
    decoder = NocDecoderArchitecture(spec)
    mapping = decoder.map_ldpc(code)
    topology = decoder.topology

    algorithms = (RoutingAlgorithm.SSP_RR, RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT)
    area_model = NocAreaModel()
    configs = [spec.noc.with_routing(algorithm) for algorithm in algorithms]
    by_config = _sweep(decoder, mapping.traffic, configs)
    rows = []
    for algorithm, config in zip(algorithms, configs):
        sim = by_config[config]
        area = area_model.noc_area_mm2(
            topology.n_nodes, topology.crossbar_size, config, sim.per_node_max_fifo
        )
        rows.append((algorithm.value, config.node_architecture.value, sim, area))
    table = Table(
        title="Node architecture ablation (AP vs PP) at the WiMAX design point",
        columns=["routing", "node arch", "ncycles", "max FIFO", "flit bits", "NoC area [mm^2]"],
    )
    areas = {}
    for routing, arch, sim, area in rows:
        areas[arch] = area
        config = DecoderSpec().noc.with_routing(RoutingAlgorithm(routing))
        table.add_row(
            [routing, arch, sim.ncycles, sim.max_fifo_occupancy,
             config.flit_bits(22), f"{area:.2f}"]
        )
    print("\n" + table.render())
    record(
        "ablation_noc_params",
        "node_architecture_area",
        {arch: round(area, 3) for arch, area in areas.items()},
    )

    # The AP architecture (no header, capped FIFOs) must yield the smaller NoC.
    assert areas["AP"] <= areas["PP"]
