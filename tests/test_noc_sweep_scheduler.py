"""Sweep-scheduler coverage: grouping, identity, seeds, process parity.

:func:`repro.noc.sweep.run_noc_sweep` groups jobs by (graph, configuration),
dispatches groups to the job-batched kernel and returns outcomes that carry
their jobs.  These tests pin the scheduler-level contracts: grouping across
mixed families/configurations is correct, engine reuse is seed-independent,
``parallel="process"`` is bit-identical to the serial path, and topology
caches are shared across sweeps.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.noc import (
    BatchNocSimulator,
    CollisionPolicy,
    NocConfiguration,
    NocSweepJob,
    NocSweepOutcome,
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

    def test_min_batch_routes_small_groups_to_scalar_engine(self):
        jobs = _mixed_jobs()
        batched = run_noc_sweep(jobs)
        scalar_only = run_noc_sweep(jobs, min_batch=10**9)
        for b, s in zip(batched, scalar_only):
            assert _signature(b.result) == _signature(s.result)

    def test_rejects_unknown_parallel_mode(self):
        with pytest.raises(ConfigurationError):
            run_noc_sweep([], parallel="thread")


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


class TestProcessParallel:
    def test_process_mode_bit_identical_to_serial(self, monkeypatch):
        import repro.noc.sweep as sweep_mod

        # Force the pool even though this sweep is small enough that the
        # scheduler would otherwise (correctly) dispatch it serially.
        monkeypatch.setattr(sweep_mod, "_PROCESS_MIN_SERIAL_S", 0.0)
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

    def test_small_sweep_projected_serial_skips_the_pool(self, monkeypatch):
        """A sweep projected to finish before the pool spins up runs serially
        even with several workers available."""
        import repro.noc.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor must not be constructed")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", boom)
        jobs = _mixed_jobs()  # a couple dozen tiny sims: far below the floor
        outcomes = run_noc_sweep(jobs, parallel="process", max_workers=4)
        for outcome in outcomes:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)

    def test_oversized_groups_shard_into_chunks(self, monkeypatch):
        """More workers than groups: groups split into worker-sized chunks,
        results stay bit-identical."""
        import repro.noc.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_PROCESS_MIN_SERIAL_S", 0.0)
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
            {key: True},
            {key: 2},
            total_jobs=12,
            workers=4,
        )
        assert len(chunks) >= 4  # one group spread over the pool
        assert sorted(i for _, idx, _ in chunks for i in idx) == list(range(12))
        # every chunk at or above the batch floor keeps the batched decision
        assert all(batched == (len(idx) >= 2) for _, idx, batched in chunks)
        # a batched group is never split below its floor
        floored = sweep_mod._shard_groups(
            {key: list(range(12))}, {key: True}, {key: 6}, total_jobs=12, workers=12
        )
        assert all(len(idx) >= 6 for _, idx, _ in floored)
        serial = run_noc_sweep(jobs)
        parallel = run_noc_sweep(jobs, parallel="process", max_workers=4)
        for s, p in zip(serial, parallel):
            assert _signature(s.result) == _signature(p.result)


def _affine_samples(fixed_s: float, point_s: float) -> tuple[tuple[int, float], ...]:
    """Synthetic batched-cost samples lying on ``fixed + point * J``."""
    return tuple((j, fixed_s + point_s * j) for j in (8, 24, 128))


class TestAdaptiveDispatch:
    def test_cost_model_crossover_math(self):
        from repro.noc import SweepCostModel

        model = SweepCostModel(
            scalar_point_s={p: 1e-3 for p in CollisionPolicy},
            batch_samples={
                CollisionPolicy.DCM: _affine_samples(10e-3, 0.3e-3),
                # slower than scalar per point: never batches
                CollisionPolicy.SCM: _affine_samples(10e-3, 2e-3),
            },
        )
        # crossover with the DCM 0.9 win margin: 10 / (0.9 - 0.3) = 16.7 ->
        # the first group size whose projected batched cost clearly wins is 17
        assert model.min_batch(CollisionPolicy.DCM) == 17
        assert model.min_batch(CollisionPolicy.SCM) == 1 << 30

    def test_cost_model_sees_the_vectorized_kink(self):
        """A cost curve that only wins past the resume threshold must yield a
        crossover in the last probe segment, not 'never'."""
        from repro.noc import SweepCostModel

        model = SweepCostModel(
            scalar_point_s={p: 1e-3 for p in CollisionPolicy},
            batch_samples={
                # flat-per-point until J=24, then steeply amortizing
                p: ((8, 10e-3), (24, 26e-3), (128, 52e-3))
                for p in CollisionPolicy
            },
        )
        crossover = model.min_batch(CollisionPolicy.SCM)
        assert 24 < crossover < 128
        # and the piecewise projection is what dispatch would compare
        assert model.batch_cost_s(CollisionPolicy.SCM, 128) == pytest.approx(52e-3)
        assert model.batch_cost_s(CollisionPolicy.SCM, 256) == pytest.approx(
            52e-3 + (256 - 128) * (52e-3 - 26e-3) / (128 - 24)
        )

    def test_projected_serial_scales_with_parallelism(self):
        from repro.noc import SweepCostModel

        model = SweepCostModel(
            scalar_point_s={p: 1e-3 for p in CollisionPolicy},
            batch_samples={p: _affine_samples(1e-3, 0.1e-3) for p in CollisionPolicy},
            probe_parallelism=16,
        )
        small = model.projected_serial_s(CollisionPolicy.DCM, 100, 16)
        large = model.projected_serial_s(CollisionPolicy.DCM, 100, 32)
        assert large == pytest.approx(2 * small)
        # the projection takes whichever engine is cheaper for the group
        assert small == pytest.approx(min(100 * 1e-3, 1e-3 + 100 * 0.1e-3))

    def test_adaptive_routes_groups_by_measured_crossover(self, monkeypatch):
        """With a synthetic model, group size decides the engine per policy."""
        import repro.noc.sweep as sweep_mod
        from repro.noc import SweepCostModel

        model = SweepCostModel(
            scalar_point_s={p: 1e-3 for p in CollisionPolicy},
            batch_samples={
                CollisionPolicy.DCM: _affine_samples(8e-3, 0.1e-3),  # crossover ~11
                CollisionPolicy.SCM: _affine_samples(8e-3, 2e-3),  # never batches
            },
        )
        monkeypatch.setattr(sweep_mod, "_COST_MODEL", model)
        built = []
        real_kernel = sweep_mod.BatchedNocKernel

        class SpyKernel(real_kernel):
            def __init__(self, topology, config, **kwargs):
                built.append(config.collision_policy)
                super().__init__(topology, config, **kwargs)

        monkeypatch.setattr(sweep_mod, "BatchedNocKernel", SpyKernel)

        def jobs_for(policy, count):
            config = NocConfiguration(collision_policy=policy)
            streams = random_traffic_streams(8, 10, seed=77, count=count)
            return [
                NocSweepJob(
                    family="generalized-kautz", parallelism=8, degree=3,
                    config=config, traffic=traffic, seed=stream,
                )
                for stream, traffic in enumerate(streams)
            ]

        outcomes = run_noc_sweep(
            jobs_for(CollisionPolicy.DCM, 12) + jobs_for(CollisionPolicy.SCM, 12)
        )
        # DCM group (12 >= 9) batched; SCM group never batches.
        assert built == [CollisionPolicy.DCM]
        for outcome in outcomes:
            assert _signature(outcome.result) == _fresh_engine_signature(outcome.job)

    def test_explicit_min_batch_overrides_the_model(self, monkeypatch):
        import repro.noc.sweep as sweep_mod

        built = []
        real_kernel = sweep_mod.BatchedNocKernel

        class SpyKernel(real_kernel):
            def __init__(self, topology, config, **kwargs):
                built.append(config.collision_policy)
                super().__init__(topology, config, **kwargs)

        monkeypatch.setattr(sweep_mod, "BatchedNocKernel", SpyKernel)
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
        streams = random_traffic_streams(8, 10, seed=78, count=3)
        jobs = [
            NocSweepJob(
                family="generalized-kautz", parallelism=8, degree=3,
                config=config, traffic=traffic, seed=stream,
            )
            for stream, traffic in enumerate(streams)
        ]
        run_noc_sweep(jobs, min_batch=2)
        assert built == [CollisionPolicy.SCM]

    def test_rejects_bad_min_batch(self):
        from repro.errors import ConfigurationError as CfgErr

        with pytest.raises(CfgErr):
            run_noc_sweep([], min_batch=0)

    def test_scheduler_cost_model_is_cached(self, monkeypatch):
        import repro.noc.sweep as sweep_mod
        from repro.noc import scheduler_cost_model

        calls = []
        monkeypatch.setattr(sweep_mod, "_COST_MODEL", None)
        real = sweep_mod._calibrate
        monkeypatch.setattr(
            sweep_mod, "_calibrate", lambda: calls.append(1) or real()
        )
        first = scheduler_cost_model()
        second = scheduler_cost_model()
        assert first is second
        assert len(calls) == 1


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
