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
Monte-Carlo shape of the repository benchmark's ``noc_table1`` workload,
DCM and SCM cells apart, and counts the replayed SCM passes by class.
The ``parallel_process`` row times the scheduler's worker pool against
``max_workers=1`` on real shapes: a Table-I row (scalar jobs, pooled), a
phase-B cell (one batched group, kept whole and serial) and the whole
phase-B pass (six whole-group chunks, pooled).  A pool does not multiply
the serial speed by the worker count: it pays for forking its workers and
shipping traffic and results, and the ``table1_prefix_*`` shapes size the
fewest messages (``_POOL_MIN_MESSAGES``) at which it starts to pay.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter

from repro.analysis import TABLE1_PARALLELISMS
from repro.core import DecoderSpec
from repro.ldpc import wimax_ldpc_code
from repro.mapping import map_ldpc_code

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
from repro.noc import engine_batch, scheduler_cost_model, sweep
from repro.noc.traffic import random_traffic_streams

from benchmarks.harness import full_benchmarks_enabled, record, row, stopwatch, trials

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
    # max_workers=1: the row compares engines on one core, not the worker pool.
    samples, results = trials(
        {
            "scalar": lambda: _run_pr3_engine(jobs),
            "batched": lambda: run_noc_sweep(jobs, max_workers=1),
        },
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


def _replay_classes(kernel, traffics, seeds) -> tuple[dict[str, int], float]:
    """One untimed kernel run's suspended SCM passes, by serving positions left.

    Wraps the kernel's deflection replay to count, per replayed pass,
    ``n_occ - w0`` (1: a draw-only row; 2 or more: the serve-loop port),
    and returns the counts with the seconds spent in the replay.
    """
    replay = engine_batch._resume_suspended
    counts: Counter[int] = Counter()
    spent = []

    def counting(st, rows, waves, n_occ, *args):
        counts.update((n_occ[rows] - waves).tolist())
        with stopwatch() as lap:
            replay(st, rows, waves, n_occ, *args)
        spent.append(lap.seconds)

    engine_batch._resume_suspended = counting
    try:
        kernel.run(traffics, seeds)
    finally:
        engine_batch._resume_suspended = replay
    return {str(left): counts[left] for left in sorted(counts)}, sum(spent)


def test_phase_b_kernel():
    """The batched kernel vs the scalar engine on phase B's exact shape.

    One trial runs four interleaved arms: each path over the three DCM cells
    and over the three SCM cells, the kernel as one ``BatchedNocKernel.run``
    per cell (J streams in lockstep), the scalar engine as one reused engine
    per cell, job after job.  ``timing`` pairs the per-trial sums of both
    policies (all six cells, the gated ratio); ``dcm_timing`` and
    ``scm_timing`` split it by policy, so the SCM cells' extra cost — the
    deflection replay — reads against the pure vector path.  One more,
    untimed kernel run per SCM cell records the replayed passes by serving
    positions left (``replay_classes``) and its replay seconds.  Both
    paths' outputs are asserted equal.  J = 128 as in phase B under
    ``REPRO_BENCH_FULL=1``, J = 32 otherwise.
    """
    family, parallelism, degree = PHASE_B_GRAPH
    streams = 128 if full_benchmarks_enabled() else 32
    topology = build_topology(family, parallelism, degree)
    tables = build_routing_tables(topology)
    traffics = random_traffic_streams(parallelism, PHASE_B_MESSAGES, seed=3, count=streams)
    seeds = list(range(streams))
    cells: dict[str, list] = {policy.value.lower(): [] for policy in CollisionPolicy}
    for algorithm in RoutingAlgorithm:
        for policy in CollisionPolicy:
            config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
            engine = BatchNocSimulator(topology, config, routing_tables=tables)
            kernel = BatchedNocKernel(topology, config, routing_tables=tables)
            engine.run(traffics[0], seed=0)  # warm both paths
            kernel.run(traffics[:2], seeds[:2])
            cells[policy.value.lower()].append((algorithm, engine, kernel))

    arms = {}
    for name, group in cells.items():
        arms[f"scalar_{name}"] = lambda group=group: [
            engine.run(t, seed=s) for _, engine, _ in group for t, s in zip(traffics, seeds)
        ]
        arms[f"batched_{name}"] = lambda group=group: [
            r for _, _, kernel in group for r in kernel.run(traffics, seeds)
        ]
    samples, results = trials(arms, 3)
    split = {}
    for name in cells:
        assert [_signature(r) for r in results[f"batched_{name}"]] == [
            _signature(r) for r in results[f"scalar_{name}"]
        ]
        split[f"{name}_timing"] = row(
            {arm: samples[f"{arm}_{name}"] for arm in ("scalar", "batched")}, "scalar"
        )
    timing = row(
        {
            arm: [a + b for a, b in zip(samples[f"{arm}_dcm"], samples[f"{arm}_scm"])]
            for arm in ("scalar", "batched")
        },
        "scalar",
    )
    replay_classes, replay_s = {}, {}
    for algorithm, _, kernel in cells["scm"]:
        replay_classes[algorithm.value], seconds = _replay_classes(kernel, traffics, seeds)
        replay_s[algorithm.value] = round(seconds, 4)
    speedup = timing["vs"]["batched"]["ratio"]
    jobs = 2 * len(RoutingAlgorithm) * streams
    cell_ms = {
        name: split[f"{name}_timing"]["arms"]["batched"]["median"] / len(group) * 1e3
        for name, group in cells.items()
    }
    print(
        f"\nphase B kernel vs scalar engine ({jobs // streams} cells x J={streams}): "
        f"{jobs / timing['arms']['scalar']['median']:.0f} -> "
        f"{jobs / timing['arms']['batched']['median']:.0f} jobs/s ({speedup:.2f}x); "
        f"kernel per cell DCM {cell_ms['dcm']:.0f} ms, SCM {cell_ms['scm']:.0f} ms; "
        f"replay {replay_s} s; suspended passes by positions left {replay_classes}"
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
            **split,
            "replay_classes": replay_classes,
            "replay_s": replay_s,
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


#: The ``parallel_process`` row: one Table-I row (generalized Kautz D=3 at
#: the paper's four P, all three routing algorithms; 12 scalar jobs of one
#: WiMAX 2304 r1/2 iteration, 7 296 messages each), and the prefixes of it
#: that size the pool threshold.
POOL_ROW = ("generalized-kautz", 3)
POOL_PREFIXES = [2, 3, 4, 6]
POOL_TRIALS = 5


def _table1_row_jobs() -> list[NocSweepJob]:
    code = wimax_ldpc_code(2304, "1/2")
    spec = DecoderSpec(mapping_attempts=2)
    family, degree = POOL_ROW
    jobs = []
    for parallelism in TABLE1_PARALLELISMS:
        mapping = map_ldpc_code(
            code.h, parallelism, seed=0, attempts=spec.mapping_attempts,
            label=f"{code.rate_name}-n{code.n}-P{parallelism}",
        )
        jobs.extend(
            NocSweepJob(family, parallelism, degree, spec.noc.with_routing(a), mapping.traffic)
            for a in RoutingAlgorithm
        )
    return jobs


def _phase_b_pass_jobs() -> list[NocSweepJob]:
    """``noc_table1``'s Monte-Carlo pass: 128 streams per (routing, policy) cell."""
    family, parallelism, degree = PHASE_B_GRAPH
    streams = random_traffic_streams(parallelism, PHASE_B_MESSAGES, seed=3, count=128)
    return [
        NocSweepJob(family, parallelism, degree, config, traffic, seed=index)
        for algorithm in RoutingAlgorithm
        for policy in CollisionPolicy
        for config in [NocConfiguration(collision_policy=policy).with_routing(algorithm)]
        for index, traffic in enumerate(streams)
    ]


def test_parallel_process_mode(monkeypatch):
    """The sweep's worker pool against the serial scheduler on real shapes.

    ``serial`` is ``max_workers=1``; ``pool`` is the default worker count,
    where the scheduler itself decides whether to build a pool.  Shapes:

    * ``table1_row``: one Table-I row, 12 scalar chunks — pooled;
    * ``phase_b_cell``: one 128-job batched group, one chunk — stays serial;
    * ``phase_b_pass``: the 768-job pass, 6 whole-group chunks — pooled;
    * ``table1_prefix_<k>``: the first k jobs of the row with the pool
      forced on (threshold 0), which sizes ``_POOL_MIN_MESSAGES``:
      ``measured_threshold`` is the fewest messages from which the pool won
      the median at that prefix and every larger shape.

    Every shape records its jobs, messages, chunks and the pools built
    (their worker counts); both arms' outcomes are asserted bit-identical.
    """
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    pools: list[int] = []
    real_pool = sweep.ProcessPoolExecutor

    def spy(*args, max_workers, **kwargs):
        pools.append(max_workers)
        return real_pool(*args, max_workers=max_workers, **kwargs)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", spy)
    row_jobs = _table1_row_jobs()
    pass_jobs = _phase_b_pass_jobs()
    shapes = {f"table1_prefix_{k}": (row_jobs[:k], True) for k in POOL_PREFIXES}
    shapes["table1_row"] = (row_jobs, False)
    shapes["phase_b_cell"] = (pass_jobs[:128], False)
    shapes["phase_b_pass"] = (pass_jobs, False)
    threshold = sweep._POOL_MIN_MESSAGES
    graphs: dict = {}
    out: dict = {}
    for name, (jobs, forced) in shapes.items():
        monkeypatch.setattr(sweep, "_POOL_MIN_MESSAGES", 0 if forced else threshold)
        pools.clear()
        samples, results = trials(
            {
                "serial": lambda jobs=jobs: run_noc_sweep(jobs, graphs, max_workers=1),
                "pool": lambda jobs=jobs: run_noc_sweep(jobs, graphs, max_workers=workers),
            },
            POOL_TRIALS if name != "phase_b_pass" else 3,
        )
        for s, p in zip(results["serial"], results["pool"]):
            assert _signature(s.result) == _signature(p.result)
        groups: dict = {}
        for index, job in enumerate(jobs):
            key = (job.family, job.parallelism, job.degree, job.config, job.max_cycles)
            groups.setdefault(key, []).append(index)
        timing = row(samples, "serial")
        out[name] = {
            "jobs": len(jobs),
            "messages": sum(job.traffic.total_messages for job in jobs),
            "chunks": len(
                sweep._shard_groups(groups, scheduler_cost_model(), len(jobs), workers)
            ),
            "pool_forced": forced,
            "pools_built": sorted(set(pools)),
            "timing": timing,
        }
        print(
            f"\n{name}: {out[name]['messages']} messages, {out[name]['chunks']} chunks, "
            f"pools {out[name]['pools_built']}: "
            f"{timing['vs']['pool']['ratio']:.2f}x vs serial "
            f"({timing['vs']['pool']['wins']}/{timing['arms']['pool']['n']} wins)"
        )
    by_size = sorted(
        (entry["messages"], entry["timing"]["vs"]["pool"]["ratio"])
        for entry in out.values()
        if entry["pools_built"]
    )
    measured = next(
        (m for i, (m, _) in enumerate(by_size) if all(r > 1 for _, r in by_size[i:])), None
    )
    print(f"measured threshold: {measured} messages (constant: {threshold})")
    record(
        "noc_batch_sweep",
        "parallel_process",
        {
            "workers": workers,
            "start_method": multiprocessing.get_start_method(),
            "pool_min_messages": threshold,
            "measured_threshold": measured,
            "shapes": out,
        },
    )
    assert not out["phase_b_cell"]["pools_built"]  # a batched group stays whole
    if workers > 1:
        assert out["table1_row"]["pools_built"] and out["phase_b_pass"]["pools_built"]
    elif not os.environ.get("CI"):
        # Degenerate-case guard: one worker must cost (almost) nothing.
        speedup = out["table1_row"]["timing"]["vs"]["pool"]["ratio"]
        assert speedup >= 0.9, f"workers=1 dispatch regressed: {speedup:.2f}x"


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
        {"reference": run_reference, "batched": lambda: run_noc_sweep(jobs, max_workers=1)},
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
