"""Persistent sweep-result cache: keying, round-trips, and fallback paths."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core import DecoderSpec, DesignSpaceExplorer
from repro.ldpc import wimax_ldpc_code
from repro.noc import (
    SWEEP_CACHE_CODE_VERSION,
    CollisionPolicy,
    NocConfiguration,
    NocSweepCache,
    NocSweepJob,
    RoutingAlgorithm,
    random_traffic,
    run_noc_sweep,
)


def _jobs(n_points: int = 4, seed: int = 9) -> list[NocSweepJob]:
    jobs = []
    for index in range(n_points):
        config = NocConfiguration(
            injection_rate=0.5 if index % 2 else 1.0,
            collision_policy=CollisionPolicy.SCM if index < 2 else CollisionPolicy.DCM,
        ).with_routing(RoutingAlgorithm.SSP_FL)
        jobs.append(
            NocSweepJob(
                family="generalized-kautz",
                parallelism=8 + 4 * (index % 2),
                degree=3,
                config=config,
                traffic=random_traffic(8 + 4 * (index % 2), 10, seed=seed + index),
                seed=index,
            )
        )
    return jobs


@pytest.fixture()
def cache(tmp_path):
    return NocSweepCache(tmp_path / "sweep-cache")


def _outcome_fields(outcome):
    result = outcome.result
    return (
        result.ncycles,
        result.total_messages,
        result.delivered_messages,
        result.local_bypassed,
        result.max_fifo_occupancy,
        result.max_injection_occupancy,
        tuple(result.per_node_max_fifo),
        result.statistics.mean_latency,
        result.statistics.max_latency,
        result.statistics.mean_hops,
        result.link_utilization,
        result.config_label,
        result.topology_label,
        result.traffic_label,
    )


class TestHitMiss:
    def test_cold_run_misses_then_populates(self, cache):
        jobs = _jobs()
        run_noc_sweep(jobs, cache=cache)
        assert cache.misses == len(jobs)
        assert cache.hits == 0
        assert len(cache) == len(jobs)

    def test_warm_run_hits_everything(self, cache):
        jobs = _jobs()
        run_noc_sweep(jobs, cache=cache)
        cold = cache.misses
        run_noc_sweep(jobs, cache=cache)
        assert cache.hits == len(jobs)
        assert cache.misses == cold  # no new misses
        assert len(cache) == len(jobs)

    def test_partial_hits_only_simulate_misses(self, cache):
        jobs = _jobs()
        run_noc_sweep(jobs[:2], cache=cache)
        run_noc_sweep(jobs, cache=cache)
        assert cache.hits == 2
        assert cache.misses == len(jobs)
        assert len(cache) == len(jobs)


class TestBitIdentical:
    def test_cached_results_identical_to_uncached(self, cache):
        jobs = _jobs()
        baseline = run_noc_sweep(jobs)
        run_noc_sweep(jobs, cache=cache)  # populate
        warm = run_noc_sweep(jobs, cache=cache)  # all hits
        assert [o.job for o in warm] == jobs  # submission order preserved
        for base, cached in zip(baseline, warm):
            assert _outcome_fields(base) == _outcome_fields(cached)

    def test_mixed_hit_miss_preserves_submission_order(self, cache):
        jobs = _jobs()
        run_noc_sweep([jobs[1], jobs[3]], cache=cache)
        outcomes = run_noc_sweep(jobs, cache=cache)
        assert [o.job for o in outcomes] == jobs
        baseline = run_noc_sweep(jobs)
        for base, mixed in zip(baseline, outcomes):
            assert _outcome_fields(base) == _outcome_fields(mixed)


def _bump_traffic(job: NocSweepJob, name: str, index: int, delta: int) -> NocSweepJob:
    """``job`` with entry ``index`` of one traffic array moved by ``delta``."""
    array = getattr(job.traffic, name).copy()
    array[index] += delta
    return dataclasses.replace(
        job, traffic=dataclasses.replace(job.traffic, **{name: array})
    )


class TestKeying:
    def test_key_is_stable(self, cache):
        job = _jobs(1)[0]
        assert cache.key(job) == cache.key(job)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda j: dataclasses.replace(j, seed=j.seed + 1),
            lambda j: dataclasses.replace(j, max_cycles=j.max_cycles + 1),
            lambda j: dataclasses.replace(
                j, parallelism=12, traffic=random_traffic(12, 10, seed=9)
            ),
            lambda j: dataclasses.replace(
                j, config=dataclasses.replace(j.config, injection_rate=0.25)
            ),
            lambda j: dataclasses.replace(
                j, config=dataclasses.replace(j.config, fifo_capacity=3)
            ),
            lambda j: dataclasses.replace(
                j, config=j.config.with_routing(RoutingAlgorithm.ASP_FT)
            ),
            lambda j: dataclasses.replace(
                j, config=dataclasses.replace(j.config, route_local=True)
            ),
            lambda j: dataclasses.replace(j, traffic=random_traffic(j.parallelism, 10, seed=77)),
            lambda j: _bump_traffic(j, "offsets", 1, -1),  # node 0's last message -> node 1
            lambda j: _bump_traffic(j, "memory", 0, 1),
        ],
    )
    def test_any_field_change_changes_key(self, cache, mutate):
        job = _jobs(1)[0]
        assert cache.key(mutate(job)) != cache.key(job)

    def test_numpy_integer_seed_keys_like_plain_int(self, cache):
        job = _jobs(1)[0]
        numpy_seeded = dataclasses.replace(job, seed=np.int64(job.seed))
        assert type(numpy_seeded.seed) is int
        assert cache.key(numpy_seeded) == cache.key(job)

    def test_code_version_invalidates(self, tmp_path, cache):
        job = _jobs(1)[0]
        run_noc_sweep([job], cache=cache)
        future = NocSweepCache(
            cache.directory, code_version=SWEEP_CACHE_CODE_VERSION + 1
        )
        assert future.get(job) is None
        assert future.misses == 1


class TestCorruptEntries:
    def _populate_one(self, cache):
        job = _jobs(1)[0]
        run_noc_sweep([job], cache=cache)
        (path,) = list(cache.directory.glob("*.json"))
        return job, path

    @pytest.mark.parametrize(
        "garbage",
        [b"not json at all {{{", b"", json.dumps({"schema": "wrong"}).encode()],
        ids=["malformed", "empty", "missing-keys"],
    )
    def test_corrupt_file_falls_back_to_simulation(self, cache, garbage):
        job, path = self._populate_one(cache)
        path.write_bytes(garbage)
        outcomes = run_noc_sweep([job], cache=cache)
        assert cache.hits == 0
        baseline = run_noc_sweep([job])
        assert _outcome_fields(outcomes[0]) == _outcome_fields(baseline[0])
        # The re-simulation rewrites a good entry.
        assert cache.get(job) is not None

    def test_missing_directory_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "cache"
        cache = NocSweepCache(nested)
        assert nested.is_dir()
        assert len(cache) == 0


class TestDesignFlowIntegration:
    @pytest.fixture(scope="class")
    def code(self):
        return wimax_ldpc_code(576, "1/2")

    def test_sweep_ldpc_uses_cache(self, tmp_path, code):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1), seed=0)
        cache = NocSweepCache(tmp_path / "flow-cache")
        cold = explorer.sweep_ldpc(
            code, [("generalized-kautz", 3)], [8],
            routing_algorithms=[RoutingAlgorithm.SSP_FL], cache=cache,
        )
        assert cache.misses > 0 and cache.hits == 0
        warm = explorer.sweep_ldpc(
            code, [("generalized-kautz", 3)], [8],
            routing_algorithms=[RoutingAlgorithm.SSP_FL], cache=cache,
        )
        assert cache.hits == cache.misses
        assert [p.ncycles for p in warm] == [p.ncycles for p in cold]

    def test_explore_screened_with_cache(self, tmp_path, code):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1), seed=0)
        cache = NocSweepCache(tmp_path / "explore-cache")
        first = explorer.explore(
            code, [("generalized-kautz", 3), ("spidergon", 3)], [8, 16],
            screen="analytical", confirm_top=6, cache=cache,
        )
        cold_misses = cache.misses
        assert cold_misses == first.n_simulated
        second = explorer.explore(
            code, [("generalized-kautz", 3), ("spidergon", 3)], [8, 16],
            screen="analytical", confirm_top=6, cache=cache,
        )
        assert cache.hits == cold_misses
        assert cache.misses == cold_misses
        assert second.winners.keys() == first.winners.keys()
        for objective in first.winners:
            assert (
                first.winners[objective].ncycles
                == second.winners[objective].ncycles
            )
