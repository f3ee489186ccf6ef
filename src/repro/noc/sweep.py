"""NoC sweep scheduler: group jobs, dispatch each group to its fastest engine.

PR 3's sweep driver walked jobs strictly sequentially through one scalar
engine per (graph, configuration).  This module replaces it with an
*adaptive scheduler*:

1. jobs are **grouped** by ``(family, parallelism, degree, configuration,
   max_cycles)`` — everything the batched kernel shares across a group;
2. each group is dispatched to the job-batched cycle kernel
   (:class:`~repro.noc.engine_batch.BatchedNocKernel`) **or** the scalar
   engine, whichever a measured :class:`SweepCostModel` — calibrated once per
   process on a probe workload and cached — projects to be faster for the
   group's size and collision policy.  Configurations the job axis cannot
   express (bounded-capacity backpressure) always run scalar, inside the
   kernel's own fallback;
3. with ``parallel="process"`` the groups are sharded across a
   :class:`concurrent.futures.ProcessPoolExecutor` — but only when the cost
   model projects the sweep is big enough to amortize the pool: one worker
   (or a sweep projected to finish faster than the pool spins up) dispatches
   serially with no executor at all.  Oversized groups are split into
   worker-sized chunks so the work spreads across the pool and no single
   pickle payload carries a whole grid; chunked results are bit-identical
   because the kernel is cycle-exact *per job* regardless of batch mates.
   Each worker process builds (and caches) topologies and routing tables
   once, so graph construction is paid per worker, not per job.

Results are returned as :class:`NocSweepOutcome` records that carry the
originating :class:`NocSweepJob`, so callers match results to jobs by
identity instead of relying on input ordering (the list still preserves
submission order for convenience).

Engine reuse is explicitly **seed-independent**: engines and kernels are
constructed once per group without any job's seed, and seeds are passed to
``run`` only — two jobs differing only in seed always share one engine and
still reproduce exactly what two freshly seeded engines would.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigurationError
from repro.noc.config import CollisionPolicy, NocConfiguration
from repro.utils.calibration import (
    POOL_SPINUP_S,
    PiecewiseLinearCost,
    best_time,
    pool_amortizes,
)
from repro.noc.engine import BatchNocSimulator
from repro.noc.engine_batch import BatchedNocKernel
from repro.noc.message import MessageStatistics
from repro.noc.results import SimulationResult
from repro.noc.routing import build_routing_tables
from repro.noc.topologies import build_topology
from repro.noc.traffic import TrafficPattern, random_traffic_streams

__all__ = [
    "NocSweepCache",
    "NocSweepJob",
    "NocSweepOutcome",
    "SWEEP_CACHE_CODE_VERSION",
    "SweepCostModel",
    "run_noc_sweep",
    "scheduler_cost_model",
]


@dataclass(frozen=True)
class NocSweepJob:
    """One point of a NoC sweep: a topology spec, a configuration and traffic.

    ``family``/``parallelism``/``degree`` describe the topology so the sweep
    scheduler can share one built topology (and its routing tables) across
    every job that uses the same graph, and batch every job that also shares
    the configuration.
    """

    family: str
    parallelism: int
    degree: int | None
    config: NocConfiguration
    traffic: TrafficPattern
    seed: int = 0
    max_cycles: int = 200_000


@dataclass(frozen=True)
class NocSweepOutcome:
    """One sweep result annotated with the job that produced it."""

    job: NocSweepJob
    result: SimulationResult


#: Hard floor under which batching is never attempted (a batch of one gains
#: nothing from stacking); also the legacy default for explicit ``min_batch``.
MIN_BATCH = 2

#: Version stamp of the *simulation semantics* behind cached sweep results.
#: Bump whenever an engine change may alter any measurement for the same job
#: — every cached entry keyed under the old version then misses and re-runs.
SWEEP_CACHE_CODE_VERSION = 1


class NocSweepCache:
    """Persistent on-disk cache of cycle-exact sweep results.

    One JSON file per result under ``directory``, named by a SHA-256 hash of
    the complete job description — topology spec, every configuration field,
    the full traffic pattern, engine seed, cycle limit — plus
    :data:`SWEEP_CACHE_CODE_VERSION`.  Any change to any of those produces a
    different key, so stale entries are never returned: they are simply
    orphaned (and a version bump orphans all of them at once).

    The cache is transparent by construction: a hit returns a
    :class:`~repro.noc.results.SimulationResult` that round-trips every field
    the engines measure (including the raw latency list behind the
    percentile statistics), so sweeps with and without a cache are
    bit-identical — the differential suite asserts this.  Unreadable or
    corrupt entries (truncated writes, foreign files, schema drift) are
    treated as misses and quietly re-simulated, never raised.
    """

    def __init__(self, directory: str | Path, code_version: int | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_version = (
            SWEEP_CACHE_CODE_VERSION if code_version is None else code_version
        )
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    def key(self, job: NocSweepJob) -> str:
        """Content hash of everything that determines the job's result."""
        config = job.config
        description = {
            "code_version": self.code_version,
            "family": job.family,
            "parallelism": job.parallelism,
            "degree": job.degree,
            "config": {
                "routing_algorithm": config.routing_algorithm.value,
                "node_architecture": config.node_architecture.value,
                "injection_rate": config.injection_rate,
                "route_local": config.route_local,
                "collision_policy": config.collision_policy.value,
                "payload_bits": config.payload_bits,
                "location_bits": config.location_bits,
                "fifo_capacity": config.fifo_capacity,
            },
            "traffic": {
                "n_nodes": job.traffic.n_nodes,
                "label": job.traffic.label,
                "per_node": [
                    [list(node.destinations), list(node.memory_locations)]
                    for node in job.traffic.per_node
                ],
            },
            "seed": job.seed,
            "max_cycles": job.max_cycles,
        }
        canonical = json.dumps(description, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def get(self, job: NocSweepJob) -> SimulationResult | None:
        """The cached result for ``job``, or None on miss or corrupt entry."""
        path = self._entry_path(self.key(job))
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            result = _result_from_payload(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, job: NocSweepJob, result: SimulationResult) -> None:
        """Persist one result; the write is atomic (temp file + rename)."""
        path = self._entry_path(self.key(job))
        payload = json.dumps(_result_to_payload(result), separators=(",", ":"))
        temp = path.with_suffix(f".tmp-{os.getpid()}")
        temp.write_text(payload, encoding="utf-8")
        os.replace(temp, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


def _result_to_payload(result: SimulationResult) -> dict:
    statistics = result.statistics
    return {
        "ncycles": result.ncycles,
        "total_messages": result.total_messages,
        "delivered_messages": result.delivered_messages,
        "local_bypassed": result.local_bypassed,
        "max_fifo_occupancy": result.max_fifo_occupancy,
        "max_injection_occupancy": result.max_injection_occupancy,
        "per_node_max_fifo": list(result.per_node_max_fifo),
        "link_utilization": result.link_utilization,
        "config_label": result.config_label,
        "topology_label": result.topology_label,
        "traffic_label": result.traffic_label,
        "statistics": {
            "count": statistics.count,
            "total_latency": statistics.total_latency,
            "max_latency": statistics.max_latency,
            "total_hops": statistics.total_hops,
            "misrouted": statistics.misrouted,
            "latencies": list(statistics._latencies),
        },
    }


def _result_from_payload(payload: dict) -> SimulationResult:
    stats_payload = payload["statistics"]
    statistics = MessageStatistics(
        count=int(stats_payload["count"]),
        total_latency=int(stats_payload["total_latency"]),
        max_latency=int(stats_payload["max_latency"]),
        total_hops=int(stats_payload["total_hops"]),
        misrouted=int(stats_payload["misrouted"]),
        _latencies=[int(v) for v in stats_payload["latencies"]],
    )
    return SimulationResult(
        ncycles=int(payload["ncycles"]),
        total_messages=int(payload["total_messages"]),
        delivered_messages=int(payload["delivered_messages"]),
        local_bypassed=int(payload["local_bypassed"]),
        max_fifo_occupancy=int(payload["max_fifo_occupancy"]),
        max_injection_occupancy=int(payload["max_injection_occupancy"]),
        per_node_max_fifo=[int(v) for v in payload["per_node_max_fifo"]],
        statistics=statistics,
        link_utilization=float(payload["link_utilization"]),
        config_label=str(payload["config_label"]),
        topology_label=str(payload["topology_label"]),
        traffic_label=str(payload["traffic_label"]),
    )

#: Calibration probe: a Table-I-scale generalized-Kautz workload per
#: collision policy, timed once per process.  The probe must run at the
#: paper's network size *and* sample batch sizes on both sides of the
#: kernel's vectorized-resume threshold (``_VEC_MIN_ROUND``) — the SCM cost
#: curve kinks there, so an affine fit through small batches alone would
#: spuriously conclude SCM batching can never win.  The whole calibration
#: costs well under a second, cached for every later sweep of the process.
_PROBE_SPEC = ("generalized-kautz", 16, 3)
_PROBE_MESSAGES = 48
_PROBE_SIZES = (8, 24, 128)

#: Groups smaller than this always run the scalar engine, with no
#: calibration: every recorded host loses on batches this small (the stacked
#: bookkeeping cannot amortize), and skipping the probe keeps tiny sweeps —
#: single design points, unit tests — free of the calibration cost.
_ADAPTIVE_SCALAR_UNDER = 8

#: Sweeps projected to finish serially faster than this never pay for a
#: process pool (executor spin-up plus per-task pickling costs this order of
#: magnitude on its own).  Shared with the decode service's sharding planner
#: through :mod:`repro.utils.calibration`.
_PROCESS_MIN_SERIAL_S = POOL_SPINUP_S

#: Chunks per worker when sharding groups across a pool: more than one chunk
#: per worker keeps the pool busy when group runtimes differ.
_CHUNKS_PER_WORKER = 2


@dataclass(frozen=True)
class SweepCostModel:
    """Measured per-process cost model behind the scheduler's dispatch choices.

    All times come from one probe workload (:data:`_PROBE_SPEC`):
    ``scalar_point_s`` is the scalar engine's per-point cost, and
    ``batch_samples`` holds the batched kernel's measured whole-group cost at
    each probe batch size.  The batched cost curve is *not* affine — it kinks
    where the kernel's vectorized resume rounds start to engage — so the
    model interpolates it piecewise-linearly between samples (extrapolating
    the outermost segments) and dispatch simply picks, per group, the engine
    with the lower projected cost.
    """

    scalar_point_s: dict[CollisionPolicy, float]
    #: Per policy: ascending ``(J, measured whole-group seconds)`` samples.
    batch_samples: dict[CollisionPolicy, tuple[tuple[int, float], ...]]
    probe_parallelism: int = _PROBE_SPEC[1]

    #: Batching must project at least this relative win before it is picked:
    #: around the bare crossover either engine is within noise of the other,
    #: and the probe's piecewise fit is least trustworthy exactly there, so
    #: the scheduler only leaves the scalar engine for a clear projected win.
    #: SCM's cost curve is the flatter and noisier of the two (the deflection
    #: replay mixes scalar and vectorized regimes), hence its wider margin.
    WIN_MARGIN = {CollisionPolicy.DCM: 0.9, CollisionPolicy.SCM: 0.85}

    #: Dispatch never projects beyond this group size (groups larger than any
    #: crossover the probe could witness simply batch).
    SEARCH_LIMIT = 2048

    def batch_cost_s(self, policy: CollisionPolicy, group_size: int) -> float:
        """Projected batched-kernel cost of one group, piecewise-linear.

        Delegates to :class:`repro.utils.calibration.PiecewiseLinearCost`,
        which scales proportionally below the first probe sample instead of
        extrapolating the first segment downward — a noisy super-linear
        segment would otherwise project negative (i.e. bogusly winning)
        costs for tiny groups.
        """
        return PiecewiseLinearCost(self.batch_samples[policy]).cost(group_size)

    def batch_wins(self, policy: CollisionPolicy, group_size: int) -> bool:
        """Whether the batched kernel clearly wins a group of this size."""
        scalar = self.scalar_point_s[policy] * self.WIN_MARGIN[policy]
        return self.batch_cost_s(policy, group_size) < scalar * group_size

    def min_batch(self, policy: CollisionPolicy) -> int:
        """Smallest group size the batched kernel is projected to clearly win at."""
        for group_size in range(MIN_BATCH, self.SEARCH_LIMIT + 1):
            if self.batch_wins(policy, group_size):
                return group_size
        return 1 << 30

    def projected_serial_s(self, policy: CollisionPolicy, group_size: int,
                           parallelism: int) -> float:
        """Projected serial cost of one group, on whichever engine dispatch picks.

        Scaled linearly from the probe's node count — a deliberately crude
        floor used only to decide whether a process pool is worth spinning up.
        """
        scale = max(parallelism, 1) / self.probe_parallelism
        scalar = self.scalar_point_s[policy] * group_size
        return min(scalar, self.batch_cost_s(policy, group_size)) * scale


def _calibrate() -> SweepCostModel:
    """Time the probe workload through both engines, once per process."""
    family, parallelism, degree = _PROBE_SPEC
    topology = build_topology(family, parallelism, degree)
    tables = build_routing_tables(topology)
    count = max(_PROBE_SIZES)
    scalar_point_s: dict[CollisionPolicy, float] = {}
    batch_samples: dict[CollisionPolicy, tuple[tuple[int, float], ...]] = {}
    scalar_jobs = _PROBE_SIZES[0]
    for policy in CollisionPolicy:
        config = NocConfiguration(collision_policy=policy)
        traffics = random_traffic_streams(
            parallelism, _PROBE_MESSAGES, seed=17, count=count
        )
        seeds = list(range(count))
        engine = BatchNocSimulator(topology, config, routing_tables=tables, seed=0)
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        # Warm both paths so one-time lazy state stays out of the timings.
        engine.run(traffics[0], seed=seeds[0])
        kernel.run(traffics[:2], seeds[:2])
        scalar_s = best_time(
            lambda: [
                engine.run(t, seed=s)
                for t, s in zip(traffics[:scalar_jobs], seeds[:scalar_jobs])
            ]
        )
        scalar_point_s[policy] = scalar_s / scalar_jobs
        samples = []
        for size in _PROBE_SIZES:
            # Best-of-2 everywhere: the largest sample sets the slope the
            # whole-grid extrapolation rides on, so its noise matters most.
            group_s = best_time(
                lambda size=size: kernel.run(traffics[:size], seeds[:size])
            )
            samples.append((size, group_s))
        batch_samples[policy] = tuple(samples)
    return SweepCostModel(
        scalar_point_s=scalar_point_s,
        batch_samples=batch_samples,
    )


#: The calibrated cost model, probed once per process on first use.
_COST_MODEL: SweepCostModel | None = None


def scheduler_cost_model() -> SweepCostModel:
    """The process-wide cost model, calibrated on first use."""
    global _COST_MODEL
    if _COST_MODEL is None:
        _COST_MODEL = _calibrate()
    return _COST_MODEL


def run_noc_sweep(
    jobs: Iterable[NocSweepJob],
    topology_cache: dict | None = None,
    parallel: str | None = None,
    max_workers: int | None = None,
    min_batch: int | None = None,
    cache: NocSweepCache | None = None,
) -> list[NocSweepOutcome]:
    """Run many sweep points through grouped, adaptively batched engines.

    Parameters
    ----------
    jobs:
        The sweep points.  Jobs sharing ``(family, parallelism, degree,
        config, max_cycles)`` form one group and advance in lockstep through
        the batched kernel; jobs with different graphs or configurations fall
        back to separate grouped batches.
    topology_cache:
        Optional dict mapping ``(family, parallelism, degree)`` to
        ``(topology, routing_tables)``; pass one to share built graphs across
        several sweeps.  Used (and populated) by the serial path only — worker
        processes keep their own per-process caches.
    parallel:
        ``None`` (serial, default) or ``"process"`` to shard group chunks
        across a process pool.  Both paths produce bit-identical outcomes,
        and ``"process"`` quietly dispatches serially when only one worker is
        available or the sweep is projected to finish before a pool would
        spin up.
    max_workers:
        Worker count for ``parallel="process"`` (default: ``os.cpu_count()``).
    min_batch:
        ``None`` (default) lets the measured per-process
        :class:`SweepCostModel` pick scalar vs batched per group (the
        crossover depends on the collision policy: SCM groups fund the
        deflection replay and cross over later than DCM groups).  An explicit
        integer restores the static threshold: groups of at least
        ``min_batch`` jobs batch, smaller ones run the scalar engine.
    cache:
        Optional :class:`NocSweepCache`.  Jobs whose exact description was
        simulated before return their persisted result without simulating;
        missing jobs run normally (through whatever engines and parallelism
        the scheduler picks for the *reduced* sweep) and are persisted on
        the way out.  Results are bit-identical with and without a cache.

    Returns
    -------
    list[NocSweepOutcome]
        One outcome per job, in submission order, each carrying its job.
    """
    jobs = list(jobs)
    if parallel not in (None, "process"):
        raise ConfigurationError(
            f"parallel must be None or 'process', got {parallel!r}"
        )
    if min_batch is not None and min_batch < 1:
        raise ConfigurationError(f"min_batch must be positive, got {min_batch}")
    if cache is not None:
        cached: list[SimulationResult | None] = [cache.get(job) for job in jobs]
        miss_indices = [i for i, result in enumerate(cached) if result is None]
        if miss_indices:
            fresh = run_noc_sweep(
                [jobs[i] for i in miss_indices],
                topology_cache=topology_cache,
                parallel=parallel,
                max_workers=max_workers,
                min_batch=min_batch,
            )
            for index, outcome in zip(miss_indices, fresh):
                cache.put(outcome.job, outcome.result)
                cached[index] = outcome.result
        return [
            NocSweepOutcome(job=job, result=result)
            for job, result in zip(jobs, cached)
        ]
    # Group jobs by everything the batched kernel shares.
    groups: dict[tuple, list[int]] = {}
    for index, job in enumerate(jobs):
        key = (job.family, job.parallelism, job.degree, job.config, job.max_cycles)
        groups.setdefault(key, []).append(index)

    # Resolve every group's engine up front (the decision is cheap and the
    # worker processes then never need their own calibration).  Calibration
    # itself only triggers once a group is big enough that batching could
    # plausibly win.  ``floors`` records, per batched group, the smallest
    # chunk that should still run batched, so process sharding never splits a
    # batched group into chunks the model would route scalar.
    model: SweepCostModel | None = None
    thresholds: dict[CollisionPolicy, int] = {}
    decisions: dict[tuple, bool] = {}
    floors: dict[tuple, int] = {}
    for key, indices in groups.items():
        policy = key[3].collision_policy
        if min_batch is not None:
            floor = max(min_batch, MIN_BATCH)
            decisions[key] = len(indices) >= floor
            floors[key] = floor
            continue
        if len(indices) < _ADAPTIVE_SCALAR_UNDER:
            decisions[key] = False
            floors[key] = 1
            continue
        if model is None:
            model = scheduler_cost_model()
        decisions[key] = model.batch_wins(policy, len(indices))
        if decisions[key]:
            floor = thresholds.get(policy)
            if floor is None:
                floor = thresholds[policy] = model.min_batch(policy)
            floors[key] = floor
        else:
            floors[key] = 1

    use_pool = False
    workers = 1
    if parallel == "process":
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        if workers > 1:
            if model is None:
                model = scheduler_cost_model()
            projected = sum(
                model.projected_serial_s(
                    key[3].collision_policy, len(indices), key[1]
                )
                for key, indices in groups.items()
            )
            use_pool = pool_amortizes(projected, _PROCESS_MIN_SERIAL_S)
    results: list[SimulationResult | None] = [None] * len(jobs)
    if not use_pool:
        cache: dict = topology_cache if topology_cache is not None else {}
        for key, indices in groups.items():
            family, parallelism, degree, config, max_cycles = key
            graph_key = (family, parallelism, degree)
            if graph_key not in cache:
                topology = build_topology(family, parallelism, degree)
                cache[graph_key] = (topology, build_routing_tables(topology))
            topology, tables = cache[graph_key]
            group_results = _run_group(
                topology, tables, config, max_cycles,
                [jobs[i].traffic for i in indices],
                [jobs[i].seed for i in indices],
                decisions[key],
            )
            for i, result in zip(indices, group_results):
                results[i] = result
    else:
        chunks = _shard_groups(groups, decisions, floors, len(jobs), workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _process_chunk,
                    key,
                    [jobs[i].traffic for i in indices],
                    [jobs[i].seed for i in indices],
                    batched,
                ): indices
                for key, indices, batched in chunks
            }
            for future, indices in futures.items():
                for i, result in zip(indices, future.result()):
                    results[i] = result
    return [NocSweepOutcome(job=job, result=result) for job, result in zip(jobs, results)]


def _shard_groups(
    groups: dict[tuple, list[int]],
    decisions: dict[tuple, bool],
    floors: dict[tuple, int],
    total_jobs: int,
    workers: int,
) -> list[tuple[tuple, list[int], bool]]:
    """Split oversized groups into worker-sized chunks of one group each.

    The cap targets :data:`_CHUNKS_PER_WORKER` chunks per worker across the
    whole sweep, so a single huge group spreads over the pool instead of
    serializing on one worker — and no single task pickles the entire grid.
    Batched groups are never split below their ``floors[key]`` (the smallest
    size the cost model still projects a batched win at), and a sub-floor
    tail chunk is re-dispatched scalar rather than inheriting the full
    group's decision.  Chunking preserves results exactly: the kernel is
    cycle-exact per job, so a group's jobs can batch in any partition.
    """
    cap = max(total_jobs // (workers * _CHUNKS_PER_WORKER), 1)
    chunks: list[tuple[tuple, list[int], bool]] = []
    for key, indices in groups.items():
        batched = decisions[key]
        size_cap = max(cap, floors[key]) if batched else cap
        if len(indices) <= size_cap:
            chunks.append((key, indices, batched))
            continue
        n_chunks = -(-len(indices) // size_cap)
        size = -(-len(indices) // n_chunks)
        for lo in range(0, len(indices), size):
            chunk = indices[lo : lo + size]
            chunks.append((key, chunk, batched and len(chunk) >= floors[key]))
    return chunks


def _run_group(
    topology, tables, config, max_cycles, traffics, seeds, batched: bool
) -> list[SimulationResult]:
    """Run one (graph, configuration) group on the engine dispatch picked.

    Engines are constructed seed-independently (the kernel takes no seed at
    all; the scalar engine gets ``seed=0`` and per-job seeds at ``run`` only),
    so reuse across same-group jobs with different seeds is exact.
    """
    if batched and len(traffics) >= MIN_BATCH:
        kernel = BatchedNocKernel(
            topology, config, routing_tables=tables, max_cycles=max_cycles
        )
        return kernel.run(traffics, seeds)
    engine = BatchNocSimulator(
        topology, config, routing_tables=tables, seed=0, max_cycles=max_cycles
    )
    return [engine.run(traffic, seed=seed) for traffic, seed in zip(traffics, seeds)]


#: Per-worker-process graph cache: topologies and routing tables are built
#: once per (family, parallelism, degree) in each worker, then shared across
#: every chunk that worker executes.
_WORKER_GRAPHS: dict = {}


def _process_chunk(key, traffics, seeds, batched: bool) -> list[SimulationResult]:
    """Worker entry point: build/cache the graph, then run one group chunk."""
    family, parallelism, degree, config, max_cycles = key
    graph_key = (family, parallelism, degree)
    if graph_key not in _WORKER_GRAPHS:
        topology = build_topology(family, parallelism, degree)
        _WORKER_GRAPHS[graph_key] = (topology, build_routing_tables(topology))
    topology, tables = _WORKER_GRAPHS[graph_key]
    return _run_group(topology, tables, config, max_cycles, traffics, seeds, batched)
