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
fixed per-policy crossover run the scalar engine (at J = 8 that is the SCM
cells), and the ``crossover`` row records the grid those crossovers were
sized from.  The ``phase_b_kernel`` row times the kernel alone on the
Monte-Carlo shape of the repository benchmark's ``noc_table1`` workload.
The scheduler's
``parallel="process"`` mode multiplies the serial ratio by the worker count
on multi-core hosts (and stays serial at one worker); its row records the
workers used.
"""

from __future__ import annotations

import os

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

from benchmarks.harness import full_benchmarks_enabled, record, row, trials

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


def _scalar_vs_batched(jobs: list[NocSweepJob]) -> tuple[dict, float]:
    """Interleaved serial-engine / scheduler trials, checked cycle-exact.

    Returns the timed row and the gated statistic: the serial engine's best
    time over the scheduler's.
    """
    samples, results = trials(
        {"scalar": lambda: _run_pr3_engine(jobs), "batched": lambda: run_noc_sweep(jobs)},
        TIMING_REPEATS,
    )
    _assert_identical(jobs, results["scalar"], results["batched"])
    timing = row(samples, "scalar")
    return timing, timing["arms"]["scalar"]["best"] / timing["arms"]["batched"]["best"]


def test_batched_sweep_throughput():
    """Scheduler vs PR 3 engine over the Table-I grid at several batch sizes."""
    per_batch: dict[str, dict] = {}
    lines = ["Job-batched NoC sweep vs PR 3 scalar engine (kautz D=3, best of "
             f"{TIMING_REPEATS}):"]
    for batch in _batch_sizes():
        jobs = _build_jobs(batch)
        timing, speedup = _scalar_vs_batched(jobs)
        entry = {"jobs": len(jobs), "overall_speedup": round(speedup, 3), "timing": timing}
        split = ""
        if batch == _batch_sizes()[-1]:
            # Per-policy split only at the largest batch (the headline):
            # DCM cells run the pure vector path, SCM cells also fund the
            # scalar deflection-draw replay.
            for policy in CollisionPolicy:
                name = policy.value.lower()
                sub = [j for j in jobs if j.config.collision_policy is policy]
                entry[f"{name}_timing"], speedup = _scalar_vs_batched(sub)
                entry[f"{name}_speedup"] = round(speedup, 3)
                split += f", {policy.value} {speedup:.2f}x"
        per_batch[str(batch)] = entry
        best = {arm: len(jobs) / t["best"] for arm, t in timing["arms"].items()}
        lines.append(
            f"  J={batch:4d}: {best['scalar']:8.1f} -> {best['batched']:8.1f} pts/s "
            f"(overall {entry['overall_speedup']:.2f}x{split})"
        )
    print("", *lines, sep="\n")

    largest = per_batch[str(_batch_sizes()[-1])]
    record(
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


#: Phase B of the repository benchmark's ``noc_table1`` workload: every
#: (routing, collision policy) cell of generalized Kautz D=3, P=16 under
#: 128 random streams of 144 messages per PE.
PHASE_B_GRAPH = ("generalized-kautz", 16, 3)
PHASE_B_MESSAGES = 144


def test_phase_b_kernel():
    """The batched kernel vs the scalar engine on phase B's exact shape.

    One trial of an arm runs all six cells: the kernel as one
    ``BatchedNocKernel.run`` per cell (J streams in lockstep), the scalar
    engine as one reused engine per cell, job after job.  Both arms'
    outputs are asserted equal.  J = 128 as in phase B under
    ``REPRO_BENCH_FULL=1``, J = 32 otherwise.
    """
    family, parallelism, degree = PHASE_B_GRAPH
    streams = 128 if full_benchmarks_enabled() else 32
    topology = build_topology(family, parallelism, degree)
    tables = build_routing_tables(topology)
    traffics = random_traffic_streams(parallelism, PHASE_B_MESSAGES, seed=3, count=streams)
    seeds = list(range(streams))
    cells = []
    for algorithm in RoutingAlgorithm:
        for policy in CollisionPolicy:
            config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
            engine = BatchNocSimulator(topology, config, routing_tables=tables)
            kernel = BatchedNocKernel(topology, config, routing_tables=tables)
            engine.run(traffics[0], seed=0)  # warm both paths
            kernel.run(traffics[:2], seeds[:2])
            cells.append((engine, kernel))

    def scalar():
        return [
            engine.run(t, seed=s) for engine, _ in cells for t, s in zip(traffics, seeds)
        ]

    def batched():
        return [r for _, kernel in cells for r in kernel.run(traffics, seeds)]

    samples, results = trials({"scalar": scalar, "batched": batched}, 3)
    assert [_signature(r) for r in results["batched"]] == [
        _signature(r) for r in results["scalar"]
    ]
    timing = row(samples, "scalar")
    speedup = timing["vs"]["batched"]["ratio"]
    jobs = len(cells) * streams
    print(
        f"\nphase B kernel vs scalar engine ({len(cells)} cells x J={streams}): "
        f"{jobs / timing['arms']['scalar']['median']:.0f} -> "
        f"{jobs / timing['arms']['batched']['median']:.0f} jobs/s ({speedup:.2f}x)"
    )
    record(
        "noc_batch_sweep",
        "phase_b_kernel",
        {
            "graph": list(PHASE_B_GRAPH),
            "messages_per_pe": PHASE_B_MESSAGES,
            "streams": streams,
            "jobs": jobs,
            "timing": timing,
        },
    )
    if not os.environ.get("CI"):
        assert speedup > 1.0, f"batched kernel slower than the scalar engine: {speedup:.2f}x"


def test_crossover_grid():
    """Scalar/batched time ratio per (policy, routing, messages) cell and J.

    Each cell times the scalar engine (one reused engine, jobs in turn)
    against one batched-kernel run over the same J jobs, as
    :data:`TIMING_REPEATS` interleaved trials, and records their comparison
    plus ``ratio_best``, the ratio of the best times.  A ratio above 1 means
    batching wins.  ``measured_crossover`` is, per policy, the smallest J at
    which every routing algorithm and message count wins on ``ratio_best``,
    and keeps winning at every larger J of the grid — the rule the
    scheduler's constants were sized by (``None`` when no J qualifies).
    Recorded only; nothing is gated.
    """
    parallelism, degree = 16, 3
    topology = build_topology("generalized-kautz", parallelism, degree)
    tables = build_routing_tables(topology)
    largest = max(CROSSOVER_SIZES)
    seeds = list(range(largest))
    cells: dict[str, dict[str, dict]] = {}
    for messages in CROSSOVER_MESSAGES:
        streams = random_traffic_streams(parallelism, messages, seed=17, count=largest)
        for policy in CollisionPolicy:
            for algorithm in RoutingAlgorithm:
                config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
                engine = BatchNocSimulator(topology, config, routing_tables=tables)
                kernel = BatchedNocKernel(topology, config, routing_tables=tables)
                engine.run(streams[0], seed=0)  # warm both paths
                kernel.run(streams[:2], seeds[:2])
                cell = cells[f"{policy.value}/{algorithm.value}/{messages}"] = {}
                for size in CROSSOVER_SIZES:
                    jobs = list(zip(streams[:size], seeds[:size]))
                    samples, _ = trials(
                        {
                            "scalar": lambda: [engine.run(t, seed=s) for t, s in jobs],
                            "batched": lambda: kernel.run(streams[:size], seeds[:size]),
                        },
                        TIMING_REPEATS,
                    )
                    timing = row(samples, "scalar")
                    best = timing["arms"]["scalar"]["best"] / timing["arms"]["batched"]["best"]
                    cell[str(size)] = {**timing["vs"]["batched"], "ratio_best": round(best, 3)}
    measured = {}
    for policy in CollisionPolicy:
        rows = [cell for key, cell in cells.items() if key.startswith(policy.value + "/")]
        measured[policy.value] = None
        for size in reversed(CROSSOVER_SIZES):
            if not all(cell[str(size)]["ratio_best"] > 1.0 for cell in rows):
                break
            measured[policy.value] = size
    lines = ["Crossover grid, scalar/batched time ratio (kautz D=3, P=16):"]
    lines.append("  " + " " * 22 + "".join(f"J={size:<6d}" for size in CROSSOVER_SIZES))
    for key, cell in cells.items():
        lines.append(
            f"  {key:22s}"
            + "".join(f"{cell[str(s)]['ratio_best']:<8.2f}" for s in CROSSOVER_SIZES)
        )
    lines.append(f"  smallest J where every cell wins: {measured}")
    print("", *lines, sep="\n")
    record(
        "noc_batch_sweep",
        "crossover",
        {
            "graph": ["generalized-kautz", parallelism, degree],
            "sizes": CROSSOVER_SIZES,
            "messages_per_pe": CROSSOVER_MESSAGES,
            "trials": TIMING_REPEATS,
            "scalar_over_batched": cells,
            "measured_crossover": measured,
        },
    )


def test_parallel_process_mode():
    """parallel="process" must be bit-identical; its speedup scales with
    workers — and at one worker the scheduler dispatches serially with no
    executor at all, so the row records ~1.0x instead of PR 4's 0.84x pool
    penalty."""
    batch = _batch_sizes()[-1] // 2 or 4
    jobs = _build_jobs(batch)
    workers = os.cpu_count() or 1
    samples, results = trials(
        {
            "serial": lambda: run_noc_sweep(jobs),
            "parallel": lambda: run_noc_sweep(jobs, parallel="process", max_workers=workers),
        },
        1,
    )
    by_job = {id(o.job): o.result for o in results["serial"]}
    for outcome in results["parallel"]:
        assert _signature(outcome.result) == _signature(by_job[id(outcome.job)])

    timing = row(samples, "serial")
    speedup = timing["vs"]["parallel"]["ratio"]
    print(
        f"\nprocess-parallel sweep ({workers} worker(s), J={batch}): "
        f"{speedup:.2f}x vs serial scheduler"
    )
    record(
        "noc_batch_sweep",
        "parallel_process",
        {
            "workers": workers,
            "batch": batch,
            "jobs": len(jobs),
            "speedup_vs_serial_scheduler": round(speedup, 3),
            "timing": timing,
        },
    )
    if not os.environ.get("CI") and workers == 1:
        # Degenerate-case guard: one worker must cost (almost) nothing.
        assert speedup >= 0.9, f"workers=1 process dispatch regressed: {speedup:.2f}x"


def test_scm_batched_smoke():
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

    outcomes = []
    for lo in range(0, len(policy_jobs), batch):
        group = policy_jobs[lo : lo + batch]
        kernel = BatchedNocKernel(topology, group[0].config, routing_tables=tables)
        results = kernel.run([j.traffic for j in group], [j.seed for j in group])
        outcomes.extend(NocSweepOutcome(job=j, result=r) for j, r in zip(group, results))
    _assert_identical(policy_jobs, pr3_results, outcomes)
    misrouted = sum(o.result.statistics.misrouted for o in outcomes)
    assert misrouted > 0, "SCM smoke drew no deflections — not exercising the replay"
    print(
        f"\nSCM batched smoke: {len(policy_jobs)} jobs cycle-exact, "
        f"{misrouted} deflections replayed"
    )
    record(
        "noc_batch_sweep",
        "scm_smoke",
        {"jobs": len(policy_jobs), "misrouted": misrouted},
    )


def test_batched_vs_object_reference():
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

    samples, results = trials(
        {"reference": run_reference, "batched": lambda: run_noc_sweep(jobs)},
        {"reference": 1, "batched": TIMING_REPEATS},
    )
    _assert_identical(jobs, results["reference"], results["batched"])
    timing = row(samples, "reference")
    speedup = timing["arms"]["reference"]["best"] / timing["arms"]["batched"]["best"]
    print(
        f"\nbatched sweep vs object reference simulator (J={batch}, SSP-FL SCM): "
        f"{speedup:.1f}x"
    )
    record(
        "noc_batch_sweep",
        "vs_object_reference",
        {"batch": batch, "speedup": round(speedup, 2), "timing": timing},
    )
    if not os.environ.get("CI"):
        assert speedup >= 3.0, f"vs-reference speedup regressed to {speedup:.2f}x"
