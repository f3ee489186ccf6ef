"""Sweep-scheduler coverage: grouping, identity, seeds, process parity.

:func:`repro.noc.sweep.run_noc_sweep` groups jobs by (graph, configuration),
dispatches groups to the job-batched kernel and returns outcomes that carry
their jobs.  These tests pin the scheduler-level contracts: grouping across
mixed families/configurations is correct, engine reuse is seed-independent,
``parallel="process"`` is bit-identical to the serial path, group size
alone decides the engine (at each policy's fixed crossover), and topology
caches are shared across sweeps.
"""

from __future__ import annotations

import numpy as np
import pytest

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
    build_routing_tables,
    build_topology,
    run_noc_sweep,
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
        tuple(result.statistics._latencies),
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
        import repro.noc.sweep as sweep_mod
        from repro.noc import SweepCostModel

        jobs = _mixed_jobs()
        scalar = run_noc_sweep(jobs)  # groups of 3: below every crossover
        monkeypatch.setattr(sweep_mod, "_COST_MODEL", SweepCostModel(2, 2))
        batched = run_noc_sweep(jobs)
        for b, s in zip(batched, scalar):
            assert _signature(b.result) == _signature(s.result)

    def test_rejects_unknown_parallel_mode(self):
        with pytest.raises(ConfigurationError):
            run_noc_sweep([], parallel="thread")

    @pytest.mark.parametrize("max_workers", [0, -1, 2.0, "2", True])
    def test_rejects_bad_max_workers(self, max_workers):
        """A worker count that cannot size a pool fails instead of
        silently running serially."""
        with pytest.raises(ConfigurationError):
            run_noc_sweep(_mixed_jobs(), parallel="process", max_workers=max_workers)


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
        from repro.noc import scheduler_cost_model

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


class TestProcessParallel:
    def test_process_mode_bit_identical_to_serial(self):
        jobs = _mixed_jobs()
        serial = run_noc_sweep(jobs)
        parallel = run_noc_sweep(jobs, parallel="process", max_workers=2)
        assert [outcome.job for outcome in parallel] == jobs
        for s, p in zip(serial, parallel):
            assert _signature(s.result) == _signature(p.result)

    def test_single_worker_never_spins_up_a_pool(self, monkeypatch):
        """workers=1 must dispatch serially with no executor at all."""
        import repro.noc.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor must not be constructed")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", boom)
        jobs = _mixed_jobs()
        outcomes = run_noc_sweep(jobs, parallel="process", max_workers=1)
        for outcome in outcomes:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)

    def test_single_chunk_sweep_never_spins_up_a_pool(self, monkeypatch):
        """A sweep that yields one chunk runs serially even with several
        workers available."""
        import repro.noc.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor must not be constructed")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", boom)
        jobs = _mixed_jobs()[:1]
        outcomes = run_noc_sweep(jobs, parallel="process", max_workers=4)
        assert _signature(outcomes[0].result) == _fresh_engine_signature(jobs[0])

    def test_oversized_groups_shard_into_chunks(self):
        """More workers than groups: groups split into worker-sized chunks,
        results stay bit-identical."""
        import repro.noc.sweep as sweep_mod
        from repro.noc import SweepCostModel

        config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
        streams = random_traffic_streams(8, 10, seed=90, count=12)
        jobs = [
            NocSweepJob(
                family="generalized-kautz", parallelism=8, degree=3,
                config=config, traffic=traffic, seed=stream,
            )
            for stream, traffic in enumerate(streams)
        ]
        key = ("k", 8, 3, config, 200_000)
        chunks = sweep_mod._shard_groups(
            {key: list(range(12))},
            SweepCostModel(scm_crossover=2),
            total_jobs=12,
            workers=4,
        )
        assert len(chunks) >= 4  # one group spread over the pool
        assert sorted(i for _, idx, _ in chunks for i in idx) == list(range(12))
        # every chunk at or above the batch floor keeps the batched decision
        assert all(batched == (len(idx) >= 2) for _, idx, batched in chunks)
        # a batched group is never split below its floor
        floored = sweep_mod._shard_groups(
            {key: list(range(12))},
            SweepCostModel(scm_crossover=6),
            total_jobs=12,
            workers=12,
        )
        assert all(len(idx) >= 6 for _, idx, _ in floored)
        serial = run_noc_sweep(jobs)
        parallel = run_noc_sweep(jobs, parallel="process", max_workers=4)
        for s, p in zip(serial, parallel):
            assert _signature(s.result) == _signature(p.result)


class TestDispatchRule:
    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_group_size_decides_the_engine_at_the_crossover(
        self, monkeypatch, policy
    ):
        """crossover - 1 jobs run the scalar engine, crossover jobs run the
        batched kernel; both bit-identical to fresh per-job engines."""
        import repro.noc.sweep as sweep_mod
        from repro.noc import scheduler_cost_model

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
        import repro.noc.sweep as sweep_mod
        from repro.noc import SweepCostModel, scheduler_cost_model

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
