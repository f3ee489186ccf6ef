"""Sweep-scheduler coverage: grouping, identity, seeds, the worker pool.

:func:`repro.noc.sweep.run_noc_sweep` groups jobs by (graph, configuration),
dispatches groups to the job-batched kernel and returns outcomes that carry
their jobs.  These tests pin the scheduler-level contracts: grouping across
mixed families/configurations is correct, engine reuse is seed-independent,
the worker pool is bit-identical to the serial path and is used only when
its rule holds (two workers, two chunks, ``_POOL_MIN_MESSAGES`` messages),
large batched groups split across it, it is built once and reused, a broken
pool raises a typed error and is rebuilt, forked children and the
interpreter's exit leave no worker behind, group size alone decides the
engine (at each policy's fixed crossover), and topology caches are shared
across sweeps.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.noc.sweep as sweep_mod
import repro.utils.pool as pool_mod
from repro.analysis import TABLE1_PARALLELISMS
from repro.core import DecoderSpec, DesignSpaceExplorer
from repro.errors import ConfigurationError, SimulationError
from repro.noc import (
    BatchedNocKernel,
    BatchNocSimulator,
    CollisionPolicy,
    NocConfiguration,
    NocSweepJob,
    NocSweepOutcome,
    ReferenceNocSimulator,
    RoutingAlgorithm,
    SweepCostModel,
    build_routing_tables,
    build_topology,
    run_noc_sweep,
    scheduler_cost_model,
)
from repro.noc.traffic import random_traffic, random_traffic_streams

_GRAPHS: dict = {}


def _graph(family, parallelism, degree):
    key = (family, parallelism, degree)
    if key not in _GRAPHS:
        topology = build_topology(family, parallelism, degree)
        _GRAPHS[key] = (topology, build_routing_tables(topology))
    return _GRAPHS[key]


def _signature(result):
    return (
        result.ncycles,
        result.delivered_messages,
        result.local_bypassed,
        tuple(result.per_node_max_fifo),
        result.max_injection_occupancy,
        result.statistics.total_hops,
        result.statistics.total_latency,
        result.statistics.max_latency,
        result.statistics.misrouted,
        tuple(result.statistics.latencies),
    )


def _fresh_engine_signature(job: NocSweepJob):
    topology, tables = _graph(job.family, job.parallelism, job.degree)
    engine = BatchNocSimulator(
        topology, job.config, routing_tables=tables, seed=job.seed,
        max_cycles=job.max_cycles,
    )
    return _signature(engine.run(job.traffic))


def _mixed_jobs() -> list[NocSweepJob]:
    """Mixed families, configurations and seeds: several non-trivial groups."""
    jobs: list[NocSweepJob] = []
    for family, parallelism, degree, messages in [
        ("generalized-kautz", 8, 3, 18),
        ("ring", 6, None, 12),
    ]:
        for algorithm in (RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT):
            config = NocConfiguration(
                collision_policy=CollisionPolicy.SCM
            ).with_routing(algorithm)
            streams = random_traffic_streams(parallelism, messages, seed=40, count=3)
            jobs.extend(
                NocSweepJob(
                    family=family,
                    parallelism=parallelism,
                    degree=degree,
                    config=config,
                    traffic=traffic,
                    seed=17 + stream,
                )
                for stream, traffic in enumerate(streams)
            )
    return jobs


class TestGrouping:
    def test_mixed_groups_match_fresh_engines(self):
        """Every job of every group must equal a freshly seeded solo engine."""
        jobs = _mixed_jobs()
        outcomes = run_noc_sweep(jobs)
        assert [outcome.job for outcome in outcomes] == jobs
        for outcome in outcomes:
            assert isinstance(outcome, NocSweepOutcome)
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)

    def test_outcomes_carry_job_identity(self):
        jobs = _mixed_jobs()
        outcomes = run_noc_sweep(jobs)
        # The attached jobs are the very objects submitted, so callers can key
        # results by job instead of relying on input ordering.
        assert all(outcome.job is job for outcome, job in zip(outcomes, jobs))
        by_job = {id(outcome.job): outcome.result for outcome in outcomes}
        assert len(by_job) == len(jobs)

    def test_interleaved_submission_order(self):
        """Grouping must not depend on jobs of one group being adjacent."""
        a = _mixed_jobs()
        interleaved = a[::2] + a[1::2]
        outcomes = run_noc_sweep(interleaved)
        for outcome in outcomes:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)

    def test_batched_dispatch_matches_scalar_dispatch(self, monkeypatch):
        jobs = _mixed_jobs()
        scalar = run_noc_sweep(jobs)  # groups of 3: below every crossover
        monkeypatch.setattr(sweep_mod, "_COST_MODEL", SweepCostModel(2, 2))
        batched = run_noc_sweep(jobs)
        for b, s in zip(batched, scalar):
            assert _signature(b.result) == _signature(s.result)

    @pytest.mark.parametrize("max_workers", [0, -1, 2.0, "2", True])
    def test_rejects_bad_max_workers(self, max_workers):
        """A worker count that cannot size a pool fails instead of
        silently running serially."""
        with pytest.raises(ConfigurationError):
            run_noc_sweep(_mixed_jobs(), max_workers=max_workers)


class TestSeedIndependence:
    def test_same_group_different_seeds_match_fresh_engines(self):
        """Regression for the PR 3 cache-key bug: the first job's seed must
        not leak into engines reused by later same-key jobs."""
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
        traffic = random_traffic(8, 25, seed=3)
        jobs = [
            NocSweepJob(
                family="generalized-kautz", parallelism=8, degree=3,
                config=config, traffic=traffic, seed=seed,
            )
            for seed in (123, 456)
        ]
        outcomes = run_noc_sweep(jobs)
        for outcome in outcomes:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)
        # SCM deflections make different seeds observable: the two jobs must
        # genuinely differ, or this test would not witness seed handling.
        assert _signature(outcomes[0].result) != _signature(outcomes[1].result)

    def test_seed_order_within_group_is_irrelevant(self):
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
        traffic = random_traffic(8, 25, seed=3)

        def job(seed):
            return NocSweepJob(
                family="generalized-kautz", parallelism=8, degree=3,
                config=config, traffic=traffic, seed=seed,
            )

        forward = run_noc_sweep([job(1), job(2)])
        backward = run_noc_sweep([job(2), job(1)])
        assert _signature(forward[0].result) == _signature(backward[1].result)
        assert _signature(forward[1].result) == _signature(backward[0].result)


class TestSeedTypes:
    """Integral seeds of any type drive every engine and the reference
    identically; float seeds are rejected everywhere (Kautz 8/3, 6 messages
    per PE, SCM)."""

    @staticmethod
    def _setup():
        topology, tables = _graph("generalized-kautz", 8, 3)
        return topology, tables, NocConfiguration(), random_traffic(8, 6, seed=1)

    def test_numpy_seed_matches_int_seed_in_both_engines(self):
        topology, tables, config, traffic = self._setup()
        expected = _signature(
            BatchNocSimulator(topology, config, routing_tables=tables, seed=3).run(traffic)
        )
        engine = BatchNocSimulator(topology, config, routing_tables=tables)
        assert _signature(engine.run(traffic, seed=np.int64(3))) == expected
        seeded = BatchNocSimulator(
            topology, config, routing_tables=tables, seed=np.int64(3)
        )
        assert _signature(seeded.run(traffic)) == expected
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        results = kernel.run([traffic, traffic], [np.int64(3), np.int32(3)])
        assert [_signature(r) for r in results] == [expected, expected]
        # The reference records latencies in its own order, so it is
        # compared with itself at the plain-int seed.
        references = [
            ReferenceNocSimulator(topology, config, routing_tables=tables, seed=seed)
            for seed in (3, np.int64(3))
        ]
        assert _signature(references[1].run(traffic)) == _signature(
            references[0].run(traffic)
        )

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_numpy_seed_sweeps_at_the_crossover(self, offset):
        """crossover - 1 jobs (scalar engine) and crossover jobs (batched
        kernel) both accept NumPy seeds and match plain-int fresh engines."""
        _, _, config, traffic = self._setup()
        count = scheduler_cost_model().crossover(config.collision_policy) + offset
        jobs = [
            NocSweepJob(
                family="generalized-kautz", parallelism=8, degree=3,
                config=config, traffic=traffic, seed=np.int64(seed),
            )
            for seed in range(count)
        ]
        for outcome, seed in zip(run_noc_sweep(jobs), range(count)):
            assert outcome.job.seed == seed and type(outcome.job.seed) is int
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)

    @pytest.mark.parametrize("seed", [1.5, 3.0, "3", None])
    def test_non_integral_seed_rejected_everywhere(self, seed):
        topology, tables, config, traffic = self._setup()
        with pytest.raises(SimulationError):
            BatchNocSimulator(topology, config, routing_tables=tables, seed=seed)
        engine = BatchNocSimulator(topology, config, routing_tables=tables)
        if seed is not None:  # run(seed=None) means "the constructor seed"
            with pytest.raises(SimulationError):
                engine.run(traffic, seed=seed)
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        with pytest.raises(SimulationError):
            kernel.run([traffic, traffic], [seed, 0])
        with pytest.raises(SimulationError):
            NocSweepJob(
                family="generalized-kautz", parallelism=8, degree=3,
                config=config, traffic=traffic, seed=seed,
            )
        with pytest.raises(SimulationError):
            ReferenceNocSimulator(topology, config, routing_tables=tables, seed=seed)


def _forbid_pool(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("ProcessPoolExecutor must not be constructed")

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", boom)


def _count_pools(monkeypatch) -> list[int]:
    """Record the worker count of every pool the scheduler builds."""
    pools: list[int] = []
    real = pool_mod.ProcessPoolExecutor

    def spy(*args, max_workers, **kwargs):
        pools.append(max_workers)
        return real(*args, max_workers=max_workers, **kwargs)

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", spy)
    return pools


def _die_in_worker(*args):
    os._exit(1)


#: ``max_cycles`` that marks the jobs :func:`_fail_first_chunk` acts on.
_FAILING_MAX_CYCLES = 100_001
_REAL_RUN_CHUNK = sweep_mod._run_chunk


def _fail_first_chunk(graph, key, traffics, seeds, batched):
    """Of marked jobs, the Kautz SSP-FL chunk raises at once and every other
    chunk runs slowly, so it is still running when the error arrives.
    Unmarked jobs run as usual (forked workers keep this patch)."""
    if key[4] == _FAILING_MAX_CYCLES:
        if key[0] == "generalized-kautz" and key[3].routing_algorithm is RoutingAlgorithm.SSP_FL:
            raise SimulationError("chunk failed")
        time.sleep(0.5)
    return _REAL_RUN_CHUNK(graph, key, traffics, seeds, batched)


def _group_jobs(config, count):
    """One group of ``count`` Kautz 8/3 jobs under ``config``, seeds 0..count-1."""
    streams = random_traffic_streams(8, 10, seed=90, count=count)
    return [
        NocSweepJob(
            family="generalized-kautz", parallelism=8, degree=3,
            config=config, traffic=traffic, seed=stream,
        )
        for stream, traffic in enumerate(streams)
    ]


def _assert_same_outcomes(first, second):
    assert [o.job for o in first] == [o.job for o in second]
    assert [_signature(o.result) for o in first] == [_signature(o.result) for o in second]


class TestWorkerPool:
    @pytest.fixture(autouse=True)
    def _fresh_shared_pool(self):
        """Every test starts and ends without the shared pool, so the pools it
        counts or forbids are built in the test, and fresh workers see the
        test's patches."""
        pool_mod.drop_pool()
        yield
        pool_mod.drop_pool()

    def test_pool_bit_identical_to_serial(self, monkeypatch):
        jobs = _mixed_jobs()
        serial = run_noc_sweep(jobs, max_workers=1)
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        pools = _count_pools(monkeypatch)
        pooled = run_noc_sweep(jobs, max_workers=2)
        assert pools == [2]
        assert [outcome.job for outcome in pooled] == jobs
        for s, p in zip(serial, pooled):
            assert _signature(s.result) == _signature(p.result)

    def test_table1_row_pooled_equals_serial(self, monkeypatch, worst_case_ldpc_code):
        """One real Table-I row (12 scalar jobs of 7 296 messages) clears
        the threshold with no help and gives the serial design points."""
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0)

        def row(max_workers):
            return explorer.sweep_ldpc(
                worst_case_ldpc_code, [("generalized-kautz", 3)], TABLE1_PARALLELISMS,
                list(RoutingAlgorithm), max_workers=max_workers,
            )

        serial = row(1)
        pools = _count_pools(monkeypatch)
        pooled = row(2)
        assert pools == [2]
        assert len(serial) == 12 and pooled == serial

    def test_single_worker_never_spins_up_a_pool(self, monkeypatch):
        """max_workers=1 dispatches serially with no executor at all."""
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        _forbid_pool(monkeypatch)
        jobs = _mixed_jobs()
        outcomes = run_noc_sweep(jobs, max_workers=1)
        for outcome in outcomes:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)

    def test_single_chunk_sweep_never_spins_up_a_pool(self, monkeypatch):
        """A sweep that yields one chunk runs serially even with several
        workers available."""
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        _forbid_pool(monkeypatch)
        jobs = _mixed_jobs()[:1]
        outcomes = run_noc_sweep(jobs, max_workers=4)
        assert _signature(outcomes[0].result) == _fresh_engine_signature(jobs[0])

    def test_sweep_below_the_threshold_never_spins_up_a_pool(self, monkeypatch):
        """Many chunks and workers, but too few messages to pay for a pool;
        at exactly the threshold the scheduler does reach for one."""
        jobs = _mixed_jobs()
        messages = sum(job.traffic.total_messages for job in jobs)
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", messages + 1)
        _forbid_pool(monkeypatch)
        outcomes = run_noc_sweep(jobs, max_workers=4)
        for outcome in outcomes:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", messages)
        with pytest.raises(AssertionError, match="must not be constructed"):
            run_noc_sweep(jobs, max_workers=4)

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        _forbid_pool(monkeypatch)
        run_noc_sweep(_mixed_jobs())  # one CPU: serial, no pool

    def test_scalar_groups_shard_into_chunks(self):
        """More workers than groups: a scalar group splits into chunks of
        about total_jobs / (2 * workers) jobs, so it spreads over the pool."""
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
        key = ("generalized-kautz", 8, 3, config, 200_000)
        chunks = sweep_mod._shard_groups(
            {key: list(range(12))}, SweepCostModel(), total_jobs=12, workers=2
        )
        assert [idx for _, idx, _ in chunks] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]
        ]
        assert not any(batched for _, _, batched in chunks)
        chunks = sweep_mod._shard_groups(
            {key: list(range(12))}, SweepCostModel(), total_jobs=12, workers=4
        )
        assert [idx for _, idx, _ in chunks] == [[i] for i in range(12)]

    @pytest.mark.parametrize("workers", [2, 4, 12])
    def test_batched_groups_split_by_the_rule(self, monkeypatch, workers):
        """A batched group of J jobs goes out as min(workers, J // _SPLIT_MIN)
        contiguous pieces, whole below two, every piece batched; a pooled run
        of such pieces equals the serial whole-group run."""
        monkeypatch.setattr(sweep_mod, "_SPLIT_MIN", 4)
        monkeypatch.setattr(sweep_mod, "_COST_MODEL", SweepCostModel(dcm_crossover=2))
        policy = CollisionPolicy.DCM
        configs = [
            NocConfiguration(collision_policy=policy).with_routing(algorithm)
            for algorithm in (RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT)
        ]
        jobs = _group_jobs(configs[0], 7) + _group_jobs(configs[1], 20)  # 7 // 4: whole
        groups = {
            ("generalized-kautz", 8, 3, configs[0], 200_000): list(range(7)),
            ("generalized-kautz", 8, 3, configs[1], 200_000): list(range(7, 27)),
        }
        chunks = sweep_mod._shard_groups(
            groups, scheduler_cost_model(), total_jobs=len(jobs), workers=workers
        )
        piece = {2: 10, 4: 5, 12: 4}[workers]  # 12 workers: 20 // 4 = 5 pieces
        pieces = [list(range(lo, lo + piece)) for lo in range(7, 27, piece)]
        assert [(idx, batched) for _, idx, batched in chunks] == [
            (list(range(7)), True), *((piece, True) for piece in pieces)
        ]
        serial = run_noc_sweep(jobs, max_workers=1)
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        pools = _count_pools(monkeypatch)
        pooled = run_noc_sweep(jobs, max_workers=workers)
        assert pools == [min(workers, len(chunks))]  # one worker per chunk at most
        _assert_same_outcomes(serial, pooled)

    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_split_128_job_group_pooled_equals_serial(self, monkeypatch, policy):
        """One 128-job group at the real _SPLIT_MIN, split over two workers,
        gives the serial outcomes bit for bit (SCM: deflections included)."""
        jobs = _group_jobs(NocConfiguration(collision_policy=policy), 128)
        groups = {("generalized-kautz", 8, 3, jobs[0].config, 200_000): list(range(128))}
        chunks = sweep_mod._shard_groups(groups, scheduler_cost_model(), 128, 2)
        assert [(len(idx), batched) for _, idx, batched in chunks] == [(64, True)] * 2
        serial = run_noc_sweep(jobs, max_workers=1)
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        pools = _count_pools(monkeypatch)
        pooled = run_noc_sweep(jobs, max_workers=2)
        assert pools == [2]
        _assert_same_outcomes(serial, pooled)
        if policy is CollisionPolicy.SCM:
            assert sum(o.result.statistics.misrouted for o in pooled) > 0

    def test_pool_is_built_once_and_reused(self, monkeypatch):
        """Two pooled calls asking for the same worker count share one pool;
        asking for more replaces it, and asking for fewer reuses the larger
        pool."""
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        pools = _count_pools(monkeypatch)
        jobs = _mixed_jobs()
        first = run_noc_sweep(jobs, max_workers=2)
        pool = pool_mod._POOL
        second = run_noc_sweep(jobs, max_workers=2)
        assert pools == [2] and pool_mod._POOL is pool
        _assert_same_outcomes(first, second)
        run_noc_sweep(jobs, max_workers=3)
        assert pools == [2, 3] and pool_mod._POOL is not pool
        larger = pool_mod._POOL
        _assert_same_outcomes(first, run_noc_sweep(jobs, max_workers=2))
        assert pools == [2, 3] and pool_mod._POOL is larger

    def test_worker_error_propagates_typed_and_pool_survives(self, monkeypatch):
        """A job exceeding max_cycles in a worker raises its SimulationError
        (not a broken pool); the same pool then serves a correct sweep."""
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        pools = _count_pools(monkeypatch)
        jobs = _mixed_jobs()
        short = [
            NocSweepJob(j.family, j.parallelism, j.degree, j.config, j.traffic,
                        seed=j.seed, max_cycles=5)
            for j in jobs
        ]
        with pytest.raises(SimulationError, match="exceeded 5 cycles"):
            run_noc_sweep(short, max_workers=2)
        pooled = run_noc_sweep(jobs, max_workers=2)
        assert pools == [2]
        _assert_same_outcomes(run_noc_sweep(jobs, max_workers=1), pooled)

    def test_forked_child_inherits_no_pool(self, monkeypatch):
        """A process forked from one that holds the shared pool starts
        without it, and with a free lock."""
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        run_noc_sweep(_mixed_jobs(), max_workers=2)
        assert pool_mod._POOL is not None
        pid = os.fork()
        if pid == 0:  # the child: report through the exit status only
            code = 1
            try:
                free = pool_mod._POOL_LOCK.acquire(blocking=False)
                code = 0 if pool_mod._POOL is None and free else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_interpreter_exit_joins_the_pool(self):
        """A process that ran a pooled sweep exits 0, in time, and leaves
        none of its pool workers alive."""
        script = textwrap.dedent(
            """
            import repro.noc.sweep as sweep
            import repro.utils.pool as pool
            from repro.noc import CollisionPolicy, NocConfiguration, NocSweepJob
            from repro.noc.traffic import random_traffic_streams

            sweep._POOL_MIN_MESSAGES = 0
            config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
            jobs = [
                NocSweepJob("generalized-kautz", 8, 3, config, traffic, seed=seed)
                for seed, traffic in enumerate(random_traffic_streams(8, 10, seed=1, count=4))
            ]
            sweep.run_noc_sweep(jobs, max_workers=2)
            print(*pool._POOL._processes)
            """
        )
        src = str(Path(sweep_mod.__file__).resolve().parents[2])
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            workers = [int(pid) for pid in out.split()]
            assert 1 <= len(workers) <= 2
            for pid in workers:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            # Checked above; whatever failed, leave none of its processes behind.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_broken_pool_raises_simulation_error(self, monkeypatch):
        """A worker that dies (as one killed for lack of memory would) breaks
        the pool; the sweep raises the typed error with the pool's chained,
        and the next call builds a fresh pool that matches serial."""
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        pools = _count_pools(monkeypatch)
        jobs = _mixed_jobs()
        serial = run_noc_sweep(jobs, max_workers=1)
        with monkeypatch.context() as patch:
            patch.setattr(sweep_mod, "_run_chunk", _die_in_worker)
            with pytest.raises(SimulationError, match="worker pool broke") as excinfo:
                run_noc_sweep(jobs, max_workers=2)
        assert isinstance(excinfo.value.__cause__, BrokenExecutor)
        assert pool_mod._POOL is None
        _assert_same_outcomes(serial, run_noc_sweep(jobs, max_workers=2))
        assert pools == [2, 2]

    def test_chunk_error_leaves_the_pool_idle(self, monkeypatch):
        """A chunk that raises while a slower one runs: the call raises only
        once the started chunks have finished, so the pool holds no work,
        and the same pool then serves a correct sweep."""
        monkeypatch.setattr(sweep_mod, "_POOL_MIN_MESSAGES", 0)
        jobs = _mixed_jobs()
        serial = run_noc_sweep(jobs, max_workers=1)
        marked = [replace(job, max_cycles=_FAILING_MAX_CYCLES) for job in jobs]
        monkeypatch.setattr(sweep_mod, "_run_chunk", _fail_first_chunk)
        with pytest.raises(SimulationError, match="chunk failed"):
            run_noc_sweep(marked, max_workers=2)
        pool = pool_mod._POOL
        assert pool is not None and not pool._pending_work_items
        _assert_same_outcomes(serial, run_noc_sweep(jobs, max_workers=2))
        assert pool_mod._POOL is pool


class TestDispatchRule:
    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_group_size_decides_the_engine_at_the_crossover(
        self, monkeypatch, policy
    ):
        """crossover - 1 jobs run the scalar engine, crossover jobs run the
        batched kernel; both bit-identical to fresh per-job engines."""
        batched_runs = []
        real_kernel = sweep_mod.BatchedNocKernel

        class SpyKernel(real_kernel):
            def run(self, traffics, seeds=None):
                batched_runs.append(len(traffics))
                return super().run(traffics, seeds)

        monkeypatch.setattr(sweep_mod, "BatchedNocKernel", SpyKernel)
        crossover = scheduler_cost_model().crossover(policy)
        config = NocConfiguration(collision_policy=policy)
        streams = random_traffic_streams(8, 10, seed=77, count=crossover)

        def jobs(count):
            return [
                NocSweepJob(
                    family="generalized-kautz", parallelism=8, degree=3,
                    config=config, traffic=traffic, seed=stream,
                )
                for stream, traffic in enumerate(streams[:count])
            ]

        below = run_noc_sweep(jobs(crossover - 1))
        assert batched_runs == []
        at = run_noc_sweep(jobs(crossover))
        assert batched_runs == [crossover]
        for outcome in below + at:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)

    def test_scheduler_cost_model_is_a_constant(self, monkeypatch):
        """No probe: the model is one fixed object, and asking for it runs
        no engine."""
        def boom(*args, **kwargs):
            raise AssertionError("no engine may run to pick the dispatch")

        monkeypatch.setattr(sweep_mod, "BatchedNocKernel", boom)
        monkeypatch.setattr(sweep_mod, "BatchNocSimulator", boom)
        first = scheduler_cost_model()
        assert scheduler_cost_model() is first
        assert first == SweepCostModel()
        for policy in CollisionPolicy:
            crossover = first.crossover(policy)
            assert first.batch_wins(policy, crossover)
            assert not first.batch_wins(policy, crossover - 1)


class TestTopologyCache:
    def test_cache_shared_across_sweeps(self):
        cache: dict = {}
        first = _mixed_jobs()[:3]
        run_noc_sweep(first, topology_cache=cache)
        assert ("generalized-kautz", 8, 3) in cache
        built = cache[("generalized-kautz", 8, 3)][0]
        run_noc_sweep(_mixed_jobs(), topology_cache=cache)
        assert cache[("generalized-kautz", 8, 3)][0] is built
        assert ("ring", 6, None) in cache


class TestEarlyFinish:
    def test_wildly_different_lengths_in_one_group(self):
        config = NocConfiguration()
        jobs = [
            NocSweepJob(
                family="generalized-kautz", parallelism=8, degree=3,
                config=config, traffic=random_traffic(8, messages, seed=80 + messages),
                seed=messages,
            )
            for messages in (0, 1, 40)
        ]
        outcomes = run_noc_sweep(jobs)
        for outcome in outcomes:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)
        ncycles = [outcome.result.ncycles for outcome in outcomes]
        assert ncycles[0] == 0
        assert ncycles[1] < ncycles[2]
