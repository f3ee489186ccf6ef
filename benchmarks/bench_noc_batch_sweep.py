"""Benchmark: job-batched NoC sweep scheduler vs the PR 3 scalar engine path.

The paper's design-space exploration evaluates each (topology, P, routing,
collision-policy) cell of Table I / the Section III-A ablation; a Monte-Carlo
robustness pass evaluates every cell under J independent traffic streams
(:func:`repro.noc.traffic.random_traffic_streams`).  PR 3 ran those J points
strictly sequentially through the scalar struct-of-arrays engine; the PR 4
scheduler (:func:`repro.noc.sweep.run_noc_sweep`) groups the J points of each
cell and advances them in lockstep through the job-batched cycle kernel
(:class:`repro.noc.engine_batch.BatchedNocKernel`).

This bench measures sweep-points/sec of both paths over the Table-I workload
grid (generalized Kautz D=3 at the paper's parallelism degrees, all three
routing algorithms, both collision policies, one LDPC iteration of traffic
per PE) at several batch sizes, asserts the two paths agree cycle-exactly per
job, and records the numbers in ``benchmarks/BENCH_noc_batch_sweep.json``.

Reading the recorded numbers: batching wins grow with the batch size J and
are largest for DCM cells (pure vector path); SCM cells also pay for the
deflection-draw replay, one scalar walk per cycle over the suspended
(job, node) passes drawing from each job's own ``random.Random`` stream, so
their single-core ratio stays below DCM's.  Groups below the scheduler's
fixed per-policy crossover run the scalar engine — the J = 8 row records
parity, not the former 0.6x regression — and the ``crossover`` row records
the grid those crossovers were sized from.  The scheduler's
``parallel="process"`` mode multiplies the serial ratio by the worker count
on multi-core hosts (and stays serial at one worker); its row records the
workers used.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.noc import (
    BatchedNocKernel,
    BatchNocSimulator,
    CollisionPolicy,
    NocConfiguration,
    NocSweepJob,
    NocSweepOutcome,
    ReferenceNocSimulator,
    RoutingAlgorithm,
    build_routing_tables,
    build_topology,
    run_noc_sweep,
)
from repro.noc.traffic import random_traffic_streams

from benchmarks.conftest import full_benchmarks_enabled

#: (parallelism, degree, messages per PE) — message counts sized like the
#: n=2304 rate-1/2 WiMAX LDPC code partitioned over P PEs (~2304/P each).
SWEEP_SCALES = [(16, 3, 144), (22, 3, 105)]
TIMING_REPEATS = 2

#: Crossover grid: group sizes J and messages per PE timed on generalized
#: Kautz D=3, P=16 (the Table-I scale).  The sweep scheduler's fixed
#: crossovers (:class:`repro.noc.sweep.SweepCostModel`) cite this row.
CROSSOVER_SIZES = [8, 16, 24, 32, 48, 64, 128]
CROSSOVER_MESSAGES = [48, 144]


def _batch_sizes() -> list[int]:
    return [8, 64, 256] if full_benchmarks_enabled() else [8, 32]


def _build_jobs(batch: int) -> list[NocSweepJob]:
    """One Monte-Carlo group of ``batch`` traffic streams per Table-I cell."""
    jobs = []
    for parallelism, degree, messages in SWEEP_SCALES:
        for algorithm in RoutingAlgorithm:
            for policy in CollisionPolicy:
                config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
                streams = random_traffic_streams(
                    parallelism, messages, seed=100 + parallelism, count=batch
                )
                jobs.extend(
                    NocSweepJob(
                        family="generalized-kautz",
                        parallelism=parallelism,
                        degree=degree,
                        config=config,
                        traffic=traffic,
                        seed=stream,
                    )
                    for stream, traffic in enumerate(streams)
                )
    return jobs


def _run_pr3_engine(jobs: list[NocSweepJob]):
    """The PR 3 sweep path: shared graphs and engines, jobs strictly serial."""
    cache: dict = {}
    engines: dict = {}
    results = []
    for job in jobs:
        key = (job.family, job.parallelism, job.degree)
        if key not in cache:
            topology = build_topology(job.family, job.parallelism, job.degree)
            cache[key] = (topology, build_routing_tables(topology))
        topology, tables = cache[key]
        engine_key = (key, job.config, job.max_cycles)
        engine = engines.get(engine_key)
        if engine is None:
            engine = BatchNocSimulator(
                topology, job.config, routing_tables=tables, max_cycles=job.max_cycles
            )
            engines[engine_key] = engine
        results.append(engine.run(job.traffic, seed=job.seed))
    return results


def _best_time(fn, repeats: int = TIMING_REPEATS):
    """(best wall time, last result) over a few repeats — robust to CI noise."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _signature(result):
    return (
        result.ncycles,
        result.delivered_messages,
        result.local_bypassed,
        tuple(result.per_node_max_fifo),
        result.max_injection_occupancy,
        result.statistics.total_hops,
        result.statistics.total_latency,
        result.statistics.misrouted,
    )


def _assert_identical(jobs, pr3_results, outcomes):
    by_job = {id(outcome.job): outcome.result for outcome in outcomes}
    for job, ref in zip(jobs, pr3_results):
        assert _signature(by_job[id(job)]) == _signature(ref)


@pytest.mark.benchmark(group="noc-batch-sweep")
def test_batched_sweep_throughput(benchmark, bench_print, bench_json):
    """Scheduler vs PR 3 engine over the Table-I grid at several batch sizes."""
    per_batch: dict[str, dict] = {}
    lines = ["Job-batched NoC sweep vs PR 3 scalar engine (kautz D=3, best of "
             f"{TIMING_REPEATS}):"]

    def run_sizes():
        largest = _batch_sizes()[-1]
        for batch in _batch_sizes():
            jobs = _build_jobs(batch)
            pr3_s, pr3_results = _best_time(lambda: _run_pr3_engine(jobs))
            sched_s, outcomes = _best_time(lambda: run_noc_sweep(jobs))
            _assert_identical(jobs, pr3_results, outcomes)
            entry = {
                "jobs": len(jobs),
                "pr3_points_per_sec": round(len(jobs) / pr3_s, 2),
                "batched_points_per_sec": round(len(jobs) / sched_s, 2),
                "overall_speedup": round(pr3_s / sched_s, 3),
            }
            if batch == largest:
                # Per-policy split only at the largest batch (the headline):
                # DCM cells run the pure vector path, SCM cells also fund the
                # scalar deflection-draw replay.
                for policy in CollisionPolicy:
                    sub = [j for j in jobs if j.config.collision_policy is policy]
                    pr3_p, _ = _best_time(lambda: _run_pr3_engine(sub))
                    sched_p, _ = _best_time(lambda: run_noc_sweep(sub))
                    entry[f"{policy.value.lower()}_speedup"] = round(pr3_p / sched_p, 3)
            per_batch[str(batch)] = entry
            split = ", ".join(
                f"{p.value} {entry[f'{p.value.lower()}_speedup']:.2f}x"
                for p in CollisionPolicy
                if f"{p.value.lower()}_speedup" in entry
            )
            lines.append(
                f"  J={batch:4d}: {entry['pr3_points_per_sec']:8.1f} -> "
                f"{entry['batched_points_per_sec']:8.1f} pts/s "
                f"(overall {entry['overall_speedup']:.2f}x{', ' + split if split else ''})"
            )
        return per_batch

    benchmark.pedantic(run_sizes, rounds=1, iterations=1)
    bench_print("\n".join(lines))

    largest = per_batch[str(_batch_sizes()[-1])]
    bench_json(
        "noc_batch_sweep",
        "sweep_points_per_sec",
        {
            "grid": {
                "scales": SWEEP_SCALES,
                "algorithms": [a.value for a in RoutingAlgorithm],
                "policies": [p.value for p in CollisionPolicy],
            },
            "batch_sizes": per_batch,
            "best_dcm_speedup": max(
                e.get("dcm_speedup", 0.0) for e in per_batch.values()
            ),
            "best_overall_speedup": max(e["overall_speedup"] for e in per_batch.values()),
            "timing_repeats": TIMING_REPEATS,
        },
    )

    # Perf floors run on developer machines only: shared CI runners measure
    # the reduced J=32 grid under unpredictable neighbour load, where the
    # ratios have no recorded headroom — CI records the JSON (and still
    # enforces cycle-exactness above) without gating on wall-clock ratios.
    # The floors are the PR 5 acceptance bars: DCM ~2x, SCM >= 1.5x and
    # overall >= 1.8x at the largest batch, and no small-batch regression
    # (adaptive dispatch routes J=8 groups to the scalar engine).
    if not os.environ.get("CI"):
        if full_benchmarks_enabled():
            # The acceptance bars only apply at the full grid's J=256; the
            # reduced grid tops out at J=32, barely past the SCM crossover.
            assert largest["dcm_speedup"] >= 1.8, (
                f"DCM batched sweep regressed to {largest['dcm_speedup']}x"
            )
            assert largest["scm_speedup"] >= 1.5, (
                f"SCM batched sweep regressed to {largest['scm_speedup']}x"
            )
            assert largest["overall_speedup"] >= 1.8, (
                f"batched sweep slower than required: {largest['overall_speedup']}x"
            )
        else:
            assert largest["dcm_speedup"] >= 1.25, (
                f"DCM batched sweep regressed to {largest['dcm_speedup']}x"
            )
            # J=32 sits right at the SCM crossover, where either dispatch is
            # within noise of parity: guard against regressions, not noise.
            assert largest["overall_speedup"] >= 0.95, (
                f"batched sweep slower than the PR 3 engine: "
                f"{largest['overall_speedup']}x"
            )
        assert per_batch["8"]["overall_speedup"] >= 0.95, (
            f"adaptive dispatch regressed at J=8: {per_batch['8']['overall_speedup']}x"
        )


@pytest.mark.benchmark(group="noc-batch-sweep")
def test_crossover_grid(benchmark, bench_print, bench_json):
    """Scalar/batched time ratio per (policy, routing, messages) cell and J.

    Each cell times the scalar engine (one reused engine, jobs in turn)
    against one batched-kernel run over the same J jobs, interleaved and
    best of :data:`TIMING_REPEATS`.  A ratio above 1 means batching wins.
    ``measured_crossover`` is, per policy, the smallest J at which every
    routing algorithm and message count wins, and keeps winning at every
    larger J of the grid — the rule the scheduler's constants were sized
    by (``None`` when no J qualifies).  Recorded only; nothing is gated.
    """
    parallelism, degree = 16, 3
    topology = build_topology("generalized-kautz", parallelism, degree)
    tables = build_routing_tables(topology)
    largest = max(CROSSOVER_SIZES)
    seeds = list(range(largest))
    ratios: dict[str, dict[str, float]] = {}

    def measure():
        for messages in CROSSOVER_MESSAGES:
            streams = random_traffic_streams(
                parallelism, messages, seed=17, count=largest
            )
            for policy in CollisionPolicy:
                for algorithm in RoutingAlgorithm:
                    config = NocConfiguration(
                        collision_policy=policy
                    ).with_routing(algorithm)
                    engine = BatchNocSimulator(topology, config, routing_tables=tables)
                    kernel = BatchedNocKernel(topology, config, routing_tables=tables)
                    engine.run(streams[0], seed=0)  # warm both paths
                    kernel.run(streams[:2], seeds[:2])
                    row = {}
                    for size in CROSSOVER_SIZES:
                        scalar_s = batched_s = float("inf")
                        for _ in range(TIMING_REPEATS):
                            start = time.perf_counter()
                            for traffic, seed in zip(streams[:size], seeds[:size]):
                                engine.run(traffic, seed=seed)
                            scalar_s = min(scalar_s, time.perf_counter() - start)
                            start = time.perf_counter()
                            kernel.run(streams[:size], seeds[:size])
                            batched_s = min(batched_s, time.perf_counter() - start)
                        row[str(size)] = round(scalar_s / batched_s, 3)
                    ratios[f"{policy.value}/{algorithm.value}/{messages}"] = row

    benchmark.pedantic(measure, rounds=1, iterations=1)
    measured = {}
    for policy in CollisionPolicy:
        cells = [row for key, row in ratios.items() if key.startswith(policy.value + "/")]
        measured[policy.value] = None
        for size in reversed(CROSSOVER_SIZES):
            if not all(row[str(size)] > 1.0 for row in cells):
                break
            measured[policy.value] = size
    lines = ["Crossover grid, scalar/batched time ratio (kautz D=3, P=16):"]
    lines.append("  " + " " * 22 + "".join(f"J={size:<6d}" for size in CROSSOVER_SIZES))
    for key, row in ratios.items():
        lines.append(f"  {key:22s}" + "".join(f"{row[str(s)]:<8.2f}" for s in CROSSOVER_SIZES))
    lines.append(f"  smallest J where every cell wins: {measured}")
    bench_print("\n".join(lines))
    bench_json(
        "noc_batch_sweep",
        "crossover",
        {
            "graph": ["generalized-kautz", parallelism, degree],
            "sizes": CROSSOVER_SIZES,
            "messages_per_pe": CROSSOVER_MESSAGES,
            "timing": f"interleaved, best of {TIMING_REPEATS}",
            "scalar_over_batched": ratios,
            "measured_crossover": measured,
        },
    )


@pytest.mark.benchmark(group="noc-batch-sweep")
def test_parallel_process_mode(benchmark, bench_print, bench_json):
    """parallel="process" must be bit-identical; its speedup scales with
    workers — and at one worker the scheduler dispatches serially with no
    executor at all, so the row records ~1.0x instead of PR 4's 0.84x pool
    penalty."""
    batch = _batch_sizes()[-1] // 2 or 4
    jobs = _build_jobs(batch)
    serial_s, serial_outcomes = _best_time(lambda: run_noc_sweep(jobs), repeats=1)
    workers = os.cpu_count() or 1

    def run_parallel():
        return run_noc_sweep(jobs, parallel="process", max_workers=workers)

    parallel_s, parallel_outcomes = benchmark.pedantic(
        lambda: _best_time(run_parallel, repeats=1), rounds=1, iterations=1
    )
    by_job = {id(o.job): o.result for o in serial_outcomes}
    for outcome in parallel_outcomes:
        assert _signature(outcome.result) == _signature(by_job[id(outcome.job)])

    bench_print(
        f"process-parallel sweep ({workers} worker(s), J={batch}): "
        f"{len(jobs) / serial_s:.1f} -> {len(jobs) / parallel_s:.1f} pts/s "
        f"({serial_s / parallel_s:.2f}x vs serial scheduler)"
    )
    bench_json(
        "noc_batch_sweep",
        "parallel_process",
        {
            "workers": workers,
            "batch": batch,
            "jobs": len(jobs),
            "serial_points_per_sec": round(len(jobs) / serial_s, 2),
            "parallel_points_per_sec": round(len(jobs) / parallel_s, 2),
            "speedup_vs_serial_scheduler": round(serial_s / parallel_s, 3),
        },
    )
    if not os.environ.get("CI") and workers == 1:
        # Degenerate-case guard: one worker must cost (almost) nothing.
        assert serial_s / parallel_s >= 0.9, (
            f"workers=1 process dispatch regressed: {serial_s / parallel_s:.2f}x"
        )


@pytest.mark.benchmark(group="noc-batch-sweep")
def test_scm_batched_smoke(benchmark, bench_print, bench_json):
    """CI smoke: run SCM-policy groups through the batched kernel directly.

    Groups this small run scalar under the scheduler's crossover, so the
    kernel is driven by hand — pinning the SCM *batched* path (deflection
    replay included) cycle-exact against per-job scalar runs on
    every CI run.
    """
    parallelism, degree, messages = SWEEP_SCALES[0]
    batch = 12
    topology = build_topology("generalized-kautz", parallelism, degree)
    tables = build_routing_tables(topology)
    policy_jobs = []
    for algorithm in RoutingAlgorithm:
        config = NocConfiguration(
            collision_policy=CollisionPolicy.SCM
        ).with_routing(algorithm)
        streams = random_traffic_streams(parallelism, 40, seed=9, count=batch)
        policy_jobs.extend(
            NocSweepJob(
                family="generalized-kautz",
                parallelism=parallelism,
                degree=degree,
                config=config,
                traffic=traffic,
                seed=stream,
            )
            for stream, traffic in enumerate(streams)
        )
    pr3_results = _run_pr3_engine(policy_jobs)

    def run_kernel():
        outcomes = []
        for lo in range(0, len(policy_jobs), batch):
            group = policy_jobs[lo : lo + batch]
            kernel = BatchedNocKernel(topology, group[0].config, routing_tables=tables)
            results = kernel.run([j.traffic for j in group], [j.seed for j in group])
            outcomes.extend(NocSweepOutcome(job=j, result=r) for j, r in zip(group, results))
        return outcomes

    outcomes = benchmark.pedantic(run_kernel, rounds=1, iterations=1)
    _assert_identical(policy_jobs, pr3_results, outcomes)
    misrouted = sum(o.result.statistics.misrouted for o in outcomes)
    assert misrouted > 0, "SCM smoke drew no deflections — not exercising the replay"
    bench_print(
        f"SCM batched smoke: {len(policy_jobs)} jobs cycle-exact, "
        f"{misrouted} deflections replayed"
    )
    bench_json(
        "noc_batch_sweep",
        "scm_smoke",
        {"jobs": len(policy_jobs), "misrouted": misrouted},
    )


@pytest.mark.benchmark(group="noc-batch-sweep")
def test_batched_vs_object_reference(benchmark, bench_print, bench_json):
    """Context row: the batched path vs the pre-engine object simulator."""
    parallelism, degree, messages = SWEEP_SCALES[0]
    batch = 16
    config = NocConfiguration().with_routing(RoutingAlgorithm.SSP_FL)
    streams = random_traffic_streams(parallelism, messages, seed=5, count=batch)
    jobs = [
        NocSweepJob(
            family="generalized-kautz",
            parallelism=parallelism,
            degree=degree,
            config=config,
            traffic=traffic,
            seed=stream,
        )
        for stream, traffic in enumerate(streams)
    ]
    topology = build_topology("generalized-kautz", parallelism, degree)
    tables = build_routing_tables(topology)

    def run_reference():
        return [
            ReferenceNocSimulator(
                topology, config, routing_tables=tables, seed=job.seed
            ).run(job.traffic)
            for job in jobs
        ]

    reference_s, reference_results = _best_time(run_reference, repeats=1)
    batched_s, outcomes = benchmark.pedantic(
        lambda: _best_time(lambda: run_noc_sweep(jobs)), rounds=1, iterations=1
    )
    _assert_identical(jobs, reference_results, outcomes)
    speedup = reference_s / batched_s
    bench_print(
        f"batched sweep vs object reference simulator (J={batch}, SSP-FL SCM): "
        f"{speedup:.1f}x"
    )
    bench_json(
        "noc_batch_sweep",
        "vs_object_reference",
        {"batch": batch, "speedup": round(speedup, 2)},
    )
    if not os.environ.get("CI"):
        assert speedup >= 3.0, f"vs-reference speedup regressed to {speedup:.2f}x"
