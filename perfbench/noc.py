"""NoC workload: the paper's Table-I sweep (phase A) and a Monte-Carlo pass (phase B).

Phase A runs ``DesignSpaceExplorer.sweep_ldpc`` over the full Table-I grid
with a fresh explorer each time (explorer seed 0, so the points, and the
fidelity errors against ``PAPER_TABLE1``, never depend on the workload
seed).  Its groups hold one job each, so they run the scalar engine.
Phase B sends 768 random-traffic jobs through ``run_noc_sweep``: 128 streams
per (routing, collision policy) cell, which the calibrated scheduler sends to
the batched kernel.

The traced run replays phase A from the public calls ``sweep_ldpc`` makes —
``build_topology``/``build_routing_tables``, ``map_ldpc_code``,
``run_noc_sweep``, ``ldpc_throughput_bps`` and ``NocAreaModel`` — timing each
layer, and requires the replay's design points to equal the explorer's.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.analysis import check_table1_trends
from repro.analysis.reference import PAPER_TABLE1
from repro.core.config import DecoderSpec
from repro.core.design_flow import DesignPoint, DesignSpaceExplorer
from repro.core.throughput import ldpc_throughput_bps
from repro.errors import ConfigurationError, MappingError, TopologyError
from repro.hw.area import NocAreaModel
from repro.ldpc.wimax import wimax_ldpc_code
from repro.mapping.ldpc_mapping import map_ldpc_code
from repro.noc.config import CollisionPolicy, NocConfiguration, RoutingAlgorithm
from repro.noc.engine import BatchNocSimulator
from repro.noc.routing import build_routing_tables
from repro.noc.simulator import ReferenceNocSimulator
from repro.noc.sweep import NocSweepJob, run_noc_sweep, scheduler_cost_model
from repro.noc.topologies import build_topology
from repro.noc.traffic import random_traffic_streams

from perfbench.common import SETUP_REPEATS, Busy, HostSpeed, Tally, emit, median, peak_rss_mb

TOPOLOGIES = [
    ("generalized-de-bruijn", 2),
    ("generalized-kautz", 2),
    ("spidergon", 3),
    ("generalized-kautz", 3),
    ("honeycomb", 4),
    ("generalized-kautz", 4),
]
PARALLELISMS = [16, 24, 32, 36]
ALGORITHMS = [RoutingAlgorithm.SSP_RR, RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT]
SPEC = DecoderSpec(mapping_attempts=2)
EXPLORER_SEED = 0

#: Phase B: generalized-Kautz D=3, P=16, as the scheduler's own probe.
MC_GRAPH = ("generalized-kautz", 16, 3)
MC_MESSAGES_PER_NODE = 144
MC_STREAMS = 128
MIN_OPS = 2
#: Host probes taken on each side of the calibration and before the first op.
PROBES = 20


def table1_code():
    return wimax_ldpc_code(2304, "1/2")


def sweep_parts(code) -> list:
    """One full Table-I sweep: a ``sweep_ldpc`` call per topology row, one fresh explorer.

    The rows share the explorer's mapping cache as one whole-grid call
    would, and every Table-I job is alone in its scheduler group either
    way, so the concatenated points equal a single call's.  Splitting lets
    host probes run every ~0.5 s instead of every ~3 s.
    """
    explorer = DesignSpaceExplorer(SPEC, seed=EXPLORER_SEED)
    return [
        partial(explorer.sweep_ldpc, code, [row], PARALLELISMS, ALGORITHMS)
        for row in TOPOLOGIES
    ]


def sweep(code) -> list[DesignPoint]:
    """One full Table-I sweep through a fresh explorer."""
    return [point for part in sweep_parts(code) for point in part()]


def mc_parts(jobs: list[NocSweepJob]) -> list:
    """The Monte-Carlo pass as one ``run_noc_sweep`` call per cell (one scheduler group)."""
    return [
        partial(run_noc_sweep, jobs[i : i + MC_STREAMS]) for i in range(0, len(jobs), MC_STREAMS)
    ]


def run_parts(parts, host: HostSpeed) -> tuple[list, float]:
    """Run ``parts`` in order with host probes between them.

    Returns the concatenated results and their raw total time.
    """
    results, total = [], 0.0
    for part in parts:
        start = time.perf_counter()
        results += part()
        elapsed = time.perf_counter() - start
        host.sample_after(elapsed)
        total += elapsed
    return results, total


def table1_errors(points: list[DesignPoint]) -> tuple[float, float, int]:
    """Mean |relative error| in % of throughput and NoC area vs ``PAPER_TABLE1``."""
    paper = {
        (c.topology, c.degree, c.parallelism, c.routing): c for c in PAPER_TABLE1
    }
    mbps, area = [], []
    for p in points:
        cell = paper.get(
            (p.topology_family, p.degree, p.parallelism, p.routing_algorithm.value)
        )
        if cell is None:
            continue
        mbps.append(abs(p.throughput_mbps - cell.throughput_mbps) / cell.throughput_mbps)
        area.append(abs(p.noc_area_mm2 - cell.noc_area_mm2) / cell.noc_area_mm2)
    return 100.0 * float(np.mean(mbps)), 100.0 * float(np.mean(area)), len(mbps)


def mc_cells() -> list[NocConfiguration]:
    return [
        NocConfiguration(collision_policy=policy).with_routing(algorithm)
        for algorithm in RoutingAlgorithm
        for policy in CollisionPolicy
    ]


def mc_jobs(seed: int) -> list[NocSweepJob]:
    family, parallelism, degree = MC_GRAPH
    streams = random_traffic_streams(
        parallelism, MC_MESSAGES_PER_NODE, seed=seed % 2**32, count=MC_STREAMS
    )
    return [
        NocSweepJob(family, parallelism, degree, config, traffic, seed=index)
        for config in mc_cells()
        for index, traffic in enumerate(streams)
    ]


def _observables(result) -> tuple:
    s = result.statistics
    return (
        result.ncycles, result.total_messages, result.delivered_messages,
        result.local_bypassed, result.max_fifo_occupancy, result.max_injection_occupancy,
        tuple(result.per_node_max_fifo), result.link_utilization,
        s.count, s.total_latency, s.max_latency, s.total_hops, s.misrouted,
    )


def replay(code, busy: dict[str, Busy]) -> tuple[list[DesignPoint], int]:
    """``sweep_ldpc`` rebuilt from its public calls, one :class:`Busy` per layer.

    Returns the design points and the total simulated NoC cycles.
    """
    graph, mapping, sim, cost = (busy[k] for k in ("graph", "mapping", "sim", "cost"))
    graphs: dict = {}
    mappings: dict = {}
    jobs, context = [], {}
    for family, degree in TOPOLOGIES:
        for parallelism in PARALLELISMS:
            key = (family, parallelism, degree)
            try:
                if key not in graphs:
                    topology = graph.call(build_topology, family, parallelism, degree)
                    graphs[key] = (topology, graph.call(build_routing_tables, topology))
                if parallelism not in mappings:
                    mappings[parallelism] = mapping.call(
                        map_ldpc_code, code.h, parallelism, seed=EXPLORER_SEED,
                        attempts=SPEC.mapping_attempts,
                        label=f"{code.rate_name}-n{code.n}-P{parallelism}",
                    )
            except (TopologyError, MappingError, ConfigurationError):
                continue  # infeasible cells are dropped, as skip_invalid does
            for algorithm in ALGORITHMS:
                job = NocSweepJob(
                    family, parallelism, degree, SPEC.noc.with_routing(algorithm),
                    mappings[parallelism].traffic, seed=EXPLORER_SEED,
                )
                jobs.append(job)
                context[id(job)] = (mappings[parallelism], graphs[key][0])
    outcomes = sim.call(run_noc_sweep, jobs, topology_cache=graphs)
    area_model = NocAreaModel()
    points = []
    for outcome in outcomes:
        job, result = outcome.job, outcome.result
        code_mapping, topology = context[id(job)]
        throughput = cost.call(
            ldpc_throughput_bps, info_bits=code.k, clock_hz=SPEC.ldpc_clock_hz,
            max_iterations=SPEC.ldpc_max_iterations,
            core_latency_cycles=SPEC.ldpc_core_latency_cycles,
            message_passing_cycles=result.ncycles,
        )
        area = cost.call(
            area_model.noc_area_mm2, n_nodes=job.parallelism,
            crossbar_size=topology.crossbar_size, config=job.config,
            per_node_fifo_depth=result.per_node_max_fifo,
        )
        points.append(DesignPoint(
            topology_family=job.family, degree=job.degree, parallelism=job.parallelism,
            routing_algorithm=job.config.routing_algorithm,
            node_architecture=job.config.node_architecture.value, mode="LDPC",
            ncycles=result.ncycles, throughput_mbps=throughput / 1e6, noc_area_mm2=area,
            max_fifo_depth=result.max_fifo_occupancy, locality=code_mapping.locality,
            mean_latency=result.statistics.mean_latency,
        ))
    return points, sum(o.result.ncycles for o in outcomes)


def _check_reference_point(code, points: list[DesignPoint]) -> bool:
    """One phase-A point re-simulated on the executable-spec simulator."""
    family, parallelism, degree = MC_GRAPH
    algorithm = RoutingAlgorithm.SSP_FL
    (point,) = [
        p for p in points
        if (p.topology_family, p.parallelism, p.degree, p.routing_algorithm)
        == (family, parallelism, degree, algorithm)
    ]
    topology = build_topology(family, parallelism, degree)
    mapping = map_ldpc_code(
        code.h, parallelism, seed=EXPLORER_SEED, attempts=SPEC.mapping_attempts,
        label=f"{code.rate_name}-n{code.n}-P{parallelism}",
    )
    result = ReferenceNocSimulator(
        topology, SPEC.noc.with_routing(algorithm),
        routing_tables=build_routing_tables(topology), seed=EXPLORER_SEED,
    ).run(mapping.traffic)
    return (result.ncycles, result.max_fifo_occupancy, result.statistics.mean_latency) == (
        point.ncycles, point.max_fifo_depth, point.mean_latency
    )


def _check_scalar_jobs(jobs: list[NocSweepJob], outcomes, seed: int) -> bool:
    """Three phase-B jobs (a DCM and two SCM cells) re-run on the scalar engine."""
    rng = np.random.default_rng(seed % 2**32)
    picks = [c * MC_STREAMS + int(rng.integers(MC_STREAMS)) for c in (0, 1, len(mc_cells()) - 1)]
    family, parallelism, degree = MC_GRAPH
    topology = build_topology(family, parallelism, degree)
    tables = build_routing_tables(topology)
    for index in picks:
        job = jobs[index]
        scalar = BatchNocSimulator(topology, job.config, routing_tables=tables, seed=0)
        if _observables(scalar.run(job.traffic, seed=job.seed)) != _observables(
            outcomes[index].result
        ):
            return False
    return True


def _final_checks(code, points, jobs, mc_outcomes, seed, reference, tally) -> bool:
    checks = check_table1_trends(points)
    mbps_err, area_err, cells = table1_errors(points)
    ceiling = reference["table1"]
    results = {
        "Table-I trends": sum(c.passed for c in checks) >= max(1, len(checks) - 1),
        "Table-I fidelity": cells == ceiling["cells"]
        and mbps_err <= ceiling["mbps_err_pct_max"] + 1e-6
        and area_err <= ceiling["area_err_pct_max"] + 1e-6,
        "scalar engine == batched kernel": _check_scalar_jobs(jobs, mc_outcomes, seed),
        "reference simulator == sweep point": _check_reference_point(code, points),
    }
    for name, ok in results.items():
        if not ok:
            tally.fail_existing(f"{name} check failed")
    return all(results.values())


def _setup(host: HostSpeed) -> tuple[object, float, float]:
    """Returns the code, the normalised set-up time and the raw calibration time."""
    times, before = [], host.mean_probe(1)
    for _ in range(SETUP_REPEATS):
        wimax_ldpc_code.cache_clear()  # so every repeat builds the code
        start = time.perf_counter()
        code = table1_code()
        DesignSpaceExplorer(SPEC, seed=EXPLORER_SEED)
        elapsed = time.perf_counter() - start
        after = host.mean_probe(1)
        times.append(host.scale_step(elapsed, before, after))
        before = after
    # The scheduler calibrates once per process; its cost is part of set-up.
    before = host.mean_probe(PROBES)
    start = time.perf_counter()
    scheduler_cost_model()
    calibrate_s = time.perf_counter() - start
    setup_s = median(times) + host.scale_step(calibrate_s, before, host.mean_probe(PROBES))
    # One warm-up operation: a single design point, left out of every timing.
    DesignSpaceExplorer(SPEC, seed=EXPLORER_SEED).evaluate_ldpc_point(
        code, "generalized-kautz", 3, 16, RoutingAlgorithm.SSP_FL
    )
    return code, setup_s, calibrate_s


def _mc_ok(outcomes, expected: int) -> bool:
    return len(outcomes) == expected and all(o.result.all_delivered for o in outcomes)


def run(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    host = HostSpeed()
    code, setup_s, calibrate_s = _setup(host)
    jobs = mc_jobs(seed)
    tally = Tally()
    if not trace:
        sweep_times, mc_times = [], []
        first_points = first_mc = None
        deadline = time.perf_counter() + seconds
        mark = host.mark()
        host.sample(PROBES)
        while (
            len(mc_times) < MIN_OPS or time.perf_counter() < deadline
        ):
            phase_b = len(sweep_times) > len(mc_times)
            start = time.perf_counter()
            try:
                result, elapsed = run_parts(
                    mc_parts(jobs) if phase_b else sweep_parts(code), host
                )
            except Exception as exc:  # a raised error is a failed operation
                tally.record(False, f"{type(exc).__name__}: {exc}")
                (mc_times if phase_b else sweep_times).append(time.perf_counter() - start)
                continue
            if phase_b:
                outcomes = result
                mc_times.append(elapsed)
                first_mc = first_mc or outcomes
                tally.record(
                    _mc_ok(outcomes, len(jobs))
                    and [_observables(o.result) for o in outcomes]
                    == [_observables(o.result) for o in first_mc],
                    "Monte-Carlo pass differs",
                )
                # Hold at most two passes' results, whatever the op count, so
                # peak RSS does not depend on host speed.
                del outcomes
            else:
                points = result
                sweep_times.append(elapsed)
                first_points = first_points or points
                tally.record(bool(points) and points == first_points, "sweep differs")
        correct = first_points is not None and first_mc is not None and _final_checks(
            code, first_points, jobs, first_mc, seed, reference, tally
        )
        factor = host.factor(mark)
        sweep_times = [t * factor for t in sweep_times]
        mc_times = [t * factor for t in mc_times]
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "success_ratio": tally.success_ratio,
            "throughput_per_s": len(jobs) * len(mc_times) / sum(mc_times),
            "latency_mean_ms": 1e3 * sum(sweep_times) / len(sweep_times),
        }
        return emit(correct, tally, values, trace=False)

    # Traced run: each phase once untraced, then once traced.  The overhead
    # ratio compares host-normalised times, so host drift between the two
    # halves does not read as tracing cost.
    def timed(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        host.sample_after(elapsed)
        return out, elapsed

    mark = host.mark()
    host.sample(PROBES)
    points, sweep_plain = timed(sweep, code)
    mc_plain, mc_plain_s = timed(run_noc_sweep, jobs)
    plain_s = (sweep_plain + mc_plain_s) * host.factor(mark)
    mark = host.mark()
    busy = {k: Busy() for k in ("graph", "mapping", "sim", "cost")}
    (replayed, sim_cycles), sweep_traced = timed(replay, code, busy)
    mc = Busy()
    mc_traced, _ = timed(mc.call, run_noc_sweep, jobs)
    traced_s = (sweep_traced + mc.seconds) * host.factor(mark)

    tally.record(replayed == points, "replayed design points differ from sweep_ldpc")
    tally.record(
        _mc_ok(mc_traced, len(jobs))
        and [_observables(o.result) for o in mc_traced]
        == [_observables(o.result) for o in mc_plain],
        "traced Monte-Carlo pass differs",
    )
    correct = _final_checks(code, points, jobs, mc_plain, seed, reference, tally)

    model = scheduler_cost_model()
    mbps_err, area_err, _ = table1_errors(points)
    children = sum(b.seconds for b in busy.values())
    mc_cycles = sum(o.result.ncycles for o in mc_traced)
    wall = sweep_traced + mc.seconds
    values = {
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.wall_s": wall,
        "host.speed_ratio": host.speed_ratio,
        "mapping.busy_s": busy["mapping"].seconds,
        "noc.graph.busy_s": busy["graph"].seconds,
        "noc.sim.busy_s": busy["sim"].seconds,
        "noc.sim.cycles": sim_cycles,
        "noc.sim.us_per_cycle": 1e6 * busy["sim"].seconds / sim_cycles,
        "hw.cost.busy_s": busy["cost"].seconds,
        "design_flow.self_s": sweep_traced - children,
        "noc.mc.busy_s": mc.seconds,
        "noc.mc.cycles": mc_cycles,
        "noc.mc.us_per_cycle": 1e6 * mc.seconds / mc_cycles,
        "noc.mc.batched_groups": sum(
            model.batch_wins(config.collision_policy, MC_STREAMS) for config in mc_cells()
        ),
        "noc.calibrate_s": calibrate_s,
        "noc.table1.mbps_err_pct": mbps_err,
        "noc.table1.area_err_pct": area_err,
    }
    return emit(correct, tally, values, trace=True)
