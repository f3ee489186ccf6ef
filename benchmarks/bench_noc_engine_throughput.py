"""Benchmark: struct-of-arrays NoC cycle engine vs the object reference simulator.

Measures sweep-points/sec over a Table-I/ablation-style grid — generalized
Kautz graphs at the paper's parallelism degrees, all three routing algorithms
and both collision policies at paper-scale traffic (one LDPC-iteration's worth
of messages per PE).  The baseline evaluates every point the way the pre-engine
design flow did: build the topology, build its routing tables, construct the
object simulator, run.  The engine path runs the same jobs through
:func:`repro.noc.sweep.run_noc_sweep`, which shares the precomputed
topologies/routing tables and per-configuration engine state across points
(every job here has a distinct configuration, so the scheduler exercises its
scalar-engine dispatch, not the batched kernel — see
``bench_noc_batch_sweep.py`` for the job-batched measurement).

Both paths produce cycle-exact identical :class:`SimulationResult`s (asserted
here and pinned by ``tests/test_noc_engine.py``); only the time differs.
Headline numbers land in ``benchmarks/BENCH_noc_engine_throughput.json``.
"""

from __future__ import annotations

import os

from repro.noc import (
    CollisionPolicy,
    NocConfiguration,
    NocSweepJob,
    ReferenceNocSimulator,
    RoutingAlgorithm,
    build_routing_tables,
    build_topology,
    random_traffic,
    run_noc_sweep,
)

from benchmarks.harness import full_benchmarks_enabled, record, row, trials

#: (parallelism, messages per PE) — message counts sized like the n=2304
#: rate-1/2 WiMAX LDPC code partitioned over P PEs (~2304/P messages each).
SWEEP_SCALES = [(16, 144), (22, 105), (32, 72), (36, 64)]
TIMING_REPEATS = 3


def _build_jobs() -> list[NocSweepJob]:
    jobs = []
    scales = SWEEP_SCALES if full_benchmarks_enabled() else SWEEP_SCALES[:3]
    for parallelism, messages in scales:
        traffic = random_traffic(parallelism, messages, seed=100 + parallelism)
        for algorithm in RoutingAlgorithm:
            for policy in CollisionPolicy:
                config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
                jobs.append(
                    NocSweepJob(
                        family="generalized-kautz",
                        parallelism=parallelism,
                        degree=3,
                        config=config,
                        traffic=traffic,
                        seed=0,
                    )
                )
    return jobs


def _run_baseline(jobs: list[NocSweepJob]):
    """Per-point object-simulator evaluation, exactly as the pre-engine flow."""
    results = []
    for job in jobs:
        topology = build_topology(job.family, job.parallelism, job.degree)
        tables = build_routing_tables(topology)
        simulator = ReferenceNocSimulator(
            topology, job.config, routing_tables=tables, seed=job.seed
        )
        results.append(simulator.run(job.traffic))
    return results


def test_engine_sweep_throughput():
    """The engine sweep must clear >= 5x sweep-points/sec over the object simulator."""
    jobs = _build_jobs()

    samples, results = trials(
        {"object_simulator": lambda: _run_baseline(jobs), "engine": lambda: run_noc_sweep(jobs)},
        TIMING_REPEATS,
    )
    baseline_results, engine_outcomes = results["object_simulator"], results["engine"]

    # The two paths must agree cycle-exactly before their times mean anything;
    # outcomes carry their jobs, so pair through the job rather than position.
    by_job = {id(outcome.job): outcome.result for outcome in engine_outcomes}
    for job, ref in zip(jobs, baseline_results):
        eng = by_job[id(job)]
        assert (ref.ncycles, ref.delivered_messages, ref.per_node_max_fifo) == (
            eng.ncycles,
            eng.delivered_messages,
            eng.per_node_max_fifo,
        )

    n_points = len(jobs)
    timing = row(samples, "object_simulator")
    baseline_s = timing["arms"]["object_simulator"]["best"]
    engine_s = timing["arms"]["engine"]["best"]
    speedup = baseline_s / engine_s

    print(
        "\nNoC sweep throughput (generalized-kautz D=3, "
        f"{n_points} points, best of {TIMING_REPEATS}):\n"
        f"  object simulator : {n_points / baseline_s:8.1f} points/s ({baseline_s:.3f} s)\n"
        f"  SoA cycle engine : {n_points / engine_s:8.1f} points/s ({engine_s:.3f} s)\n"
        f"  speedup          : {speedup:.2f}x"
    )
    record(
        "noc_engine_throughput",
        "sweep_points_per_sec",
        {
            "sweep_points": n_points,
            "parallelisms": [
                p
                for p, _ in (SWEEP_SCALES if full_benchmarks_enabled() else SWEEP_SCALES[:3])
            ],
            "speedup": round(speedup, 2),
            "timing": timing,
        },
    )

    # The JSON records the measured ratio (~5.3x on a quiet machine).  The
    # hard floor is relaxed on shared CI runners, where a noisy neighbour in
    # one timing window can halve an otherwise stable wall-clock ratio.
    floor = 2.0 if os.environ.get("CI") else 4.0
    assert speedup >= floor, f"engine sweep speedup regressed to {speedup:.2f}x"


def test_single_point_engine_cost():
    """One engine run at the P=22 WiMAX design point delivers every message."""
    topology = build_topology("generalized-kautz", 22, 3)
    tables = build_routing_tables(topology)
    traffic = random_traffic(22, 105, seed=1)
    from repro.noc import BatchNocSimulator

    engine = BatchNocSimulator(topology, NocConfiguration(), routing_tables=tables)
    result = engine.run(traffic)
    assert result.all_delivered
