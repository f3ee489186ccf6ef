"""NoC sweep scheduler: group jobs, dispatch each group to its fastest engine.

PR 3's sweep driver walked jobs strictly sequentially through one scalar
engine per (graph, configuration).  This module replaces it with an
*adaptive scheduler*:

1. jobs are **grouped** by ``(family, parallelism, degree, configuration,
   max_cycles)`` — everything the batched kernel shares across a group;
2. each group is dispatched to the job-batched cycle kernel
   (:class:`~repro.noc.engine_batch.BatchedNocKernel`) when it holds at
   least its collision policy's fixed crossover (:class:`SweepCostModel`,
   sized from a committed benchmark grid), and to the scalar engine
   otherwise.  Configurations the job axis cannot express (bounded-capacity
   backpressure) always run scalar, inside the kernel's own fallback;
3. with ``parallel="process"`` and more than one worker, oversized groups
   are split into worker-sized chunks, and the chunks are sharded across a
   :class:`concurrent.futures.ProcessPoolExecutor` when there are at least
   two of them; otherwise the sweep dispatches serially with no executor at
   all.  Chunking spreads the work across the pool and keeps any single
   pickle payload from carrying a whole grid; chunked results are
   bit-identical because the kernel is cycle-exact *per job* regardless of
   batch mates.
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
from repro.noc.engine import BatchNocSimulator, as_seed
from repro.noc.engine_batch import BatchedNocKernel
from repro.noc.message import MessageStatistics
from repro.noc.results import SimulationResult
from repro.noc.routing import build_routing_tables
from repro.noc.topologies import build_topology
from repro.noc.traffic import TrafficPattern

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

    def __post_init__(self):
        # One integer seed whatever integral type the caller passed, so the
        # scalar engine, the batched kernel and the cache key all agree.
        object.__setattr__(self, "seed", as_seed(self.seed))


@dataclass(frozen=True)
class NocSweepOutcome:
    """One sweep result annotated with the job that produced it."""

    job: NocSweepJob
    result: SimulationResult


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
                **{
                    name: hashlib.sha256(getattr(job.traffic, name).tobytes()).hexdigest()
                    for name in ("offsets", "dest", "memory")
                },
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

#: Chunks per worker when sharding groups across a pool: more than one chunk
#: per worker keeps the pool busy when group runtimes differ.
_CHUNKS_PER_WORKER = 2


@dataclass(frozen=True)
class SweepCostModel:
    """The scheduler's dispatch rule: one fixed crossover per collision policy.

    A group runs the batched kernel iff it holds at least its policy's
    crossover jobs.  Each constant is the smallest group size J at which the
    batched kernel beat the scalar engine for every routing algorithm and
    message count, and kept winning at every larger J, in the ``crossover``
    row of ``benchmarks/BENCH_noc_batch_sweep.json`` (generalized Kautz D=3,
    P=16, 48 and 144 messages per PE, 2-core x86 host): the median of three
    runs of the grid on the slot-major kernel, which read DCM 8, 8, 16 and
    SCM 16, 16, 24.  DCM wins already at the grid's smallest size, J = 8.
    SCM crosses over later than DCM because a batched SCM group also funds
    the deflection-draw replay.  Near the crossover both engines are within
    noise of each other, so the exact value only moves a few groups between
    two engines that return bit-identical results.  The rule is fixed rather
    than measured per process so that dispatch is deterministic and costs
    nothing.
    """

    dcm_crossover: int = 8
    scm_crossover: int = 16

    def crossover(self, policy: CollisionPolicy) -> int:
        """Smallest group size that runs batched under ``policy``."""
        if policy is CollisionPolicy.DCM:
            return self.dcm_crossover
        return self.scm_crossover

    def batch_wins(self, policy: CollisionPolicy, group_size: int) -> bool:
        """Whether a group of this size runs the batched kernel."""
        return group_size >= self.crossover(policy)


_COST_MODEL = SweepCostModel()


def scheduler_cost_model() -> SweepCostModel:
    """The scheduler's dispatch rule (a constant; nothing is measured)."""
    return _COST_MODEL


def run_noc_sweep(
    jobs: Iterable[NocSweepJob],
    topology_cache: dict | None = None,
    parallel: str | None = None,
    max_workers: int | None = None,
    cache: NocSweepCache | None = None,
) -> list[NocSweepOutcome]:
    """Run many sweep points through grouped, adaptively batched engines.

    Parameters
    ----------
    jobs:
        The sweep points.  Jobs sharing ``(family, parallelism, degree,
        config, max_cycles)`` form one group.  A group of at least its
        collision policy's crossover (:class:`SweepCostModel`) advances in
        lockstep through the batched kernel; a smaller one runs the scalar
        engine job by job.
    topology_cache:
        Optional dict mapping ``(family, parallelism, degree)`` to
        ``(topology, routing_tables)``; pass one to share built graphs across
        several sweeps.  Used (and populated) by the serial path only — worker
        processes keep their own per-process caches.
    parallel:
        ``None`` (serial, default) or ``"process"`` to shard group chunks
        across a process pool.  Both paths produce bit-identical outcomes,
        and ``"process"`` dispatches serially when only one worker is
        available or the sweep splits into fewer than two chunks.
    max_workers:
        Worker count for ``parallel="process"`` (default: ``os.cpu_count()``);
        a positive ``int`` when given.
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
    if max_workers is not None and (
        isinstance(max_workers, bool) or not isinstance(max_workers, int) or max_workers < 1
    ):
        raise ConfigurationError(
            f"max_workers must be a positive int or None, got {max_workers!r}"
        )
    if cache is not None:
        cached: list[SimulationResult | None] = [cache.get(job) for job in jobs]
        miss_indices = [i for i, result in enumerate(cached) if result is None]
        if miss_indices:
            fresh = run_noc_sweep(
                [jobs[i] for i in miss_indices],
                topology_cache=topology_cache,
                parallel=parallel,
                max_workers=max_workers,
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

    model = scheduler_cost_model()
    workers = 1
    if parallel == "process":
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    chunks = _shard_groups(groups, model, len(jobs), workers) if workers > 1 else []
    results: list[SimulationResult | None] = [None] * len(jobs)
    if len(chunks) < 2:
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
                model.batch_wins(config.collision_policy, len(indices)),
            )
            for i, result in zip(indices, group_results):
                results[i] = result
    else:
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
    model: SweepCostModel,
    total_jobs: int,
    workers: int,
) -> list[tuple[tuple, list[int], bool]]:
    """Split oversized groups into worker-sized chunks of one group each.

    The cap targets :data:`_CHUNKS_PER_WORKER` chunks per worker across the
    whole sweep, so a single huge group spreads over the pool instead of
    serializing on one worker — and no single task pickles the entire grid.
    A batched group is never split below its policy's crossover, so every
    chunk keeps its group's dispatch.  Chunking preserves results exactly:
    the kernel is cycle-exact per job, so a group's jobs can batch in any
    partition.
    """
    cap = max(total_jobs // (workers * _CHUNKS_PER_WORKER), 1)
    chunks: list[tuple[tuple, list[int], bool]] = []
    for key, indices in groups.items():
        policy = key[3].collision_policy
        batched = model.batch_wins(policy, len(indices))
        floor = max(cap, model.crossover(policy)) if batched else cap
        # Even split into chunks of at least ``floor`` jobs each.
        n_chunks = max(len(indices) // floor, 1)
        bounds = [len(indices) * i // n_chunks for i in range(n_chunks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            chunks.append((key, indices[lo:hi], batched))
    return chunks


def _run_group(
    topology, tables, config, max_cycles, traffics, seeds, batched: bool
) -> list[SimulationResult]:
    """Run one (graph, configuration) group on the engine dispatch picked.

    Engines are constructed seed-independently (the kernel takes no seed at
    all; the scalar engine gets ``seed=0`` and per-job seeds at ``run`` only),
    so reuse across same-group jobs with different seeds is exact.
    """
    if batched:
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
