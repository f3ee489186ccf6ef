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
   otherwise.  Every configuration is expressible on the job axis (FIFOs
   are unbounded); only topologies with a node of more than 32 output ports
   run scalar, inside the kernel's own fallback;
3. the sweep is split into **chunks** — a batched group into at most one
   piece per worker, each of at least :data:`_SPLIT_MIN` jobs (a smaller
   group stays whole), and a scalar group into worker-sized pieces — and the
   chunks go to the process's one shared worker pool
   (:mod:`repro.utils.pool`, which the turbo decoder's frame shards use
   too, through the same :func:`~repro.utils.pool.run_on_pool` dispatch)
   only when there are at least two workers, at least two chunks and at
   least :data:`_POOL_MIN_MESSAGES` messages to simulate; otherwise the
   sweep runs serially with no executor at all.  The pool is started at the
   first pooled call and kept for the next ones, so later sweeps pay only
   for shipping each chunk's graph, traffic and results, not for starting
   workers; a call that needs more workers than the live pool has replaces
   it, and a broken pool is dropped.  A pool does not multiply the serial speed
   by the worker count: on two workers a Table-I row (twelve scalar jobs)
   ran 1.6x faster on the kept pool and 1.5x on a pool forked for the call,
   a 128-job phase-B cell split in halves 1.18x and 1.04x, and a batched
   piece smaller than :data:`_SPLIT_MIN` jobs could lose (the
   ``parallel_process`` row of ``benchmarks/BENCH_noc_batch_sweep.json``).
   Results are bit-identical either way: every engine is cycle-exact *per
   job*, and each piece of a split group still runs the batched kernel.

Results are returned in submission order as :class:`NocSweepOutcome`
records, each carrying the :class:`NocSweepJob` that produced it.

Engine reuse is explicitly **seed-independent**: engines and kernels are
constructed once per group without any job's seed, and seeds are passed to
``run`` only — two jobs differing only in seed always share one engine and
still reproduce exactly what two freshly seeded engines would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError, SimulationError
from repro.noc.config import CollisionPolicy, NocConfiguration
from repro.noc.engine import BatchNocSimulator, as_seed
from repro.noc.engine_batch import BatchedNocKernel
from repro.noc.results import SimulationResult
from repro.noc.routing import build_routing_tables
from repro.noc.topologies import build_topology
from repro.noc.traffic import TrafficPattern
from repro.utils.pool import available_cpus, run_on_pool, shared_pool
from repro.utils.validation import require_int

__all__ = [
    "NocSweepJob",
    "NocSweepOutcome",
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
        # scalar engine and the batched kernel agree.
        object.__setattr__(self, "seed", as_seed(self.seed))
        require_int("max_cycles", self.max_cycles, 1, SimulationError)


@dataclass(frozen=True)
class NocSweepOutcome:
    """One sweep result annotated with the job that produced it."""

    job: NocSweepJob
    result: SimulationResult


#: Chunks per worker when sharding scalar groups across a pool: more than one
#: chunk per worker keeps the pool busy when job runtimes differ.
_CHUNKS_PER_WORKER = 2

#: Fewest messages a sweep must simulate before its chunks go to a process
#: pool.  Sized from the ``pool`` (warm, kept pool) arm of the
#: ``parallel_process`` row of ``benchmarks/BENCH_noc_batch_sweep.json``
#: (two workers, fork): the fewest messages from which the pool won the
#: median at that prefix of a Table-I row and at every larger shape.  Three
#: runs of the row read 43 776, 21 888 and 29 184 (the first six, three and
#: four jobs); the constant is their median.
_POOL_MIN_MESSAGES = 29_184

#: Fewest jobs in each piece of a batched group split across the pool: a
#: group of J jobs goes out as ``min(workers, J // _SPLIT_MIN)`` pieces.
#: Sized from the ``split_*`` shapes of the ``parallel_process`` row of
#: ``benchmarks/BENCH_noc_batch_sweep.json`` (groups of 16 to 128 phase-B
#: jobs halved over two workers, warm pool): the smallest piece at which
#: the split won the median for both collision policies, and kept winning
#: at every larger group.  Seven runs of the row have been measured: 24, 16
#: and 32 when the constant was sized (it is their median), then 8, 32, 12
#: and 16 in four later runs (the committed row reads 16).  Pieces of 8 to
#: 16 jobs win or lose within noise, and ``noc_table1``'s 128-job groups
#: split in two under any value from 8 to 64, so the constant stays.
_SPLIT_MIN = 24


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
    max_workers: int | None = None,
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
        several sweeps.  Missing graphs are built into it, and each chunk
        sent to a pool worker carries its group's graph.
    max_workers:
        The most worker processes the sweep may use, a positive ``int``
        (default: the CPUs this process may run on).  ``1`` runs serially.
        With more, the scheduler itself decides whether a pool pays: it
        shards the sweep's chunks (batched groups of at least
        ``2 * _SPLIT_MIN`` jobs split too) across the process's shared pool
        only when there are at least two chunks and at least
        :data:`_POOL_MIN_MESSAGES` messages to simulate.  It asks for one
        worker per chunk, at most ``max_workers``; a live pool with that
        many workers or more serves as it is.  Both paths produce
        bit-identical outcomes.

    Returns
    -------
    list[NocSweepOutcome]
        One outcome per job, in submission order, each carrying its job.

    Raises
    ------
    SimulationError
        If the worker pool breaks (a worker process died, for example
        killed for lack of memory); the pool's error is chained and the
        next pooled sweep builds a fresh pool.  An error raised in a worker
        (such as a job exceeding ``max_cycles``) propagates as raised once
        the call's unstarted chunks are cancelled and its started ones have
        finished, so the pool is idle for the next call.
    """
    jobs = list(jobs)
    if max_workers is not None and (
        isinstance(max_workers, bool) or not isinstance(max_workers, int) or max_workers < 1
    ):
        raise ConfigurationError(
            f"max_workers must be a positive int or None, got {max_workers!r}"
        )
    # Group jobs by everything the batched kernel shares.
    groups: dict[tuple, list[int]] = {}
    for index, job in enumerate(jobs):
        key = (job.family, job.parallelism, job.degree, job.config, job.max_cycles)
        groups.setdefault(key, []).append(index)
    graphs = topology_cache if topology_cache is not None else {}
    for family, parallelism, degree, _, _ in groups:
        graph_key = (family, parallelism, degree)
        if graph_key not in graphs:
            topology = build_topology(family, parallelism, degree)
            graphs[graph_key] = (topology, build_routing_tables(topology))

    model = scheduler_cost_model()
    workers = max_workers if max_workers is not None else available_cpus()
    chunks = _shard_groups(groups, model, len(jobs), workers) if workers > 1 else []
    results: list[SimulationResult | None] = [None] * len(jobs)
    if (
        len(chunks) < 2
        or sum(job.traffic.total_messages for job in jobs) < _POOL_MIN_MESSAGES
    ):
        for key, indices in groups.items():
            group_results = _run_chunk(
                graphs[key[:3]], key,
                [jobs[i].traffic for i in indices],
                [jobs[i].seed for i in indices],
                model.batch_wins(key[3].collision_policy, len(indices)),
            )
            for i, result in zip(indices, group_results):
                results[i] = result
    else:
        chunk_results = run_on_pool(
            shared_pool(min(workers, len(chunks))),
            [
                (
                    _run_chunk,
                    graphs[key[:3]],
                    key,
                    [jobs[i].traffic for i in indices],
                    [jobs[i].seed for i in indices],
                    batched,
                )
                for key, indices, batched in chunks
            ],
            lambda exc: SimulationError(
                f"the sweep's worker pool broke before {len(jobs)} jobs finished "
                f"(a worker process died): {exc}"
            ),
        )
        for (_, indices, _), group_results in zip(chunks, chunk_results):
            for i, result in zip(indices, group_results):
                results[i] = result
    return [NocSweepOutcome(job=job, result=result) for job, result in zip(jobs, results)]


def _shard_groups(
    groups: dict[tuple, list[int]],
    model: SweepCostModel,
    total_jobs: int,
    workers: int,
) -> list[tuple[tuple, list[int], bool]]:
    """Split the sweep into chunks of one group each.

    A batched group of J jobs is split into ``min(workers, J // _SPLIT_MIN)``
    contiguous pieces (whole when that is below two), each still run by the
    batched kernel: smaller pieces would give up more batching than the
    extra workers return.  A scalar group is split evenly into chunks of
    about ``total_jobs / (workers * _CHUNKS_PER_WORKER)`` jobs, so scalar
    work spreads over the pool and no single task pickles the entire grid.
    Chunking preserves results exactly: each engine is cycle-exact per job.
    """
    cap = max(total_jobs // (workers * _CHUNKS_PER_WORKER), 1)
    chunks: list[tuple[tuple, list[int], bool]] = []
    for key, indices in groups.items():
        batched = model.batch_wins(key[3].collision_policy, len(indices))
        if batched:
            n_chunks = min(workers, len(indices) // _SPLIT_MIN)
        else:
            n_chunks = len(indices) // cap
        n_chunks = max(n_chunks, 1)
        bounds = [len(indices) * i // n_chunks for i in range(n_chunks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            chunks.append((key, indices[lo:hi], batched))
    return chunks


def _run_chunk(graph, key, traffics, seeds, batched: bool) -> list[SimulationResult]:
    """Run one chunk of a (graph, configuration) group on the engine picked.

    ``graph`` is the group's ``(topology, routing_tables)``; pool workers
    receive it with the chunk.  Engines are constructed seed-independently
    (the kernel takes no seed at all; the scalar engine gets ``seed=0`` and
    per-job seeds at ``run`` only), so reuse across same-group jobs with
    different seeds is exact.
    """
    _, _, _, config, max_cycles = key
    topology, tables = graph
    if batched:
        kernel = BatchedNocKernel(
            topology, config, routing_tables=tables, max_cycles=max_cycles
        )
        return kernel.run(traffics, seeds)
    engine = BatchNocSimulator(
        topology, config, routing_tables=tables, seed=0, max_cycles=max_cycles
    )
    return [engine.run(traffic, seed=seed) for traffic, seed in zip(traffics, seeds)]
