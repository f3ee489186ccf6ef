"""Differential harness: the job-batched kernel vs the scalar cycle engine.

:class:`repro.noc.engine_batch.BatchedNocKernel` must be *cycle-exact, per
job*, against :class:`repro.noc.engine.BatchNocSimulator` (which PR 3 pinned
against the object reference simulator): same ncycles, delivered counts,
per-node FIFO high-water marks, hop/latency totals and SCM deflection
decisions for every (topology, configuration, traffic, seed) — whatever other
jobs share the batch.  The hypothesis suite below drives randomized batches
(mixed traffic sizes, empty jobs, distinct seeds) through both and compares
every observable, including the both-raise behaviour when a job exceeds
``max_cycles``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.noc import (
    BatchNocSimulator,
    BatchedNocKernel,
    CollisionPolicy,
    NocConfiguration,
    NodeTraffic,
    RoutingAlgorithm,
    TrafficPattern,
    build_routing_tables,
    build_topology,
    random_traffic,
)
from repro.utils.rng import DeflectionStreams, bounded_draw

TOPOLOGY_SPECS = [
    ("generalized-kautz", 8, 3),
    ("generalized-de-bruijn", 9, 2),
    ("ring", 6, None),
    ("spidergon", 8, None),
    ("mesh", 9, None),
    ("honeycomb", 8, None),
]

_TOPOLOGY_CACHE: dict = {}


def _topology_and_tables(spec):
    if spec not in _TOPOLOGY_CACHE:
        topology = build_topology(*spec)
        _TOPOLOGY_CACHE[spec] = (topology, build_routing_tables(topology))
    return _TOPOLOGY_CACHE[spec]


def _observables(result):
    """Every measurement the batched kernel must reproduce exactly."""
    return {
        "ncycles": result.ncycles,
        "total": result.total_messages,
        "delivered": result.delivered_messages,
        "bypassed": result.local_bypassed,
        "max_fifo": result.max_fifo_occupancy,
        "max_injection": result.max_injection_occupancy,
        "per_node_max_fifo": list(result.per_node_max_fifo),
        "link_utilization": result.link_utilization,
        "count": result.statistics.count,
        "total_latency": result.statistics.total_latency,
        "max_latency": result.statistics.max_latency,
        "total_hops": result.statistics.total_hops,
        "misrouted": result.statistics.misrouted,
        "latencies": list(result.statistics._latencies),
        "describe": result.describe(),
    }


config_strategy = st.builds(
    NocConfiguration,
    routing_algorithm=st.sampled_from(list(RoutingAlgorithm)),
    collision_policy=st.sampled_from(list(CollisionPolicy)),
    injection_rate=st.sampled_from([0.25, 0.4, 0.5, 0.75, 1.0]),
    route_local=st.booleans(),
    # Small capacities force the kernel's scalar fallback (bounded
    # backpressure); large ones exercise the vectorized job axis.
    fifo_capacity=st.sampled_from([3, 4096]),
)


class TestDifferentialKernelVsEngine:
    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=st.sampled_from(TOPOLOGY_SPECS),
        config=config_strategy,
        batch=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 2**20)), min_size=1, max_size=5
        ),
        sim_seed=st.integers(0, 2**20),
    )
    def test_kernel_matches_engine_per_job(self, spec, config, batch, sim_seed):
        """Randomized batches must agree with per-job scalar runs exactly."""
        topology, tables = _topology_and_tables(spec)
        traffics = [
            random_traffic(topology.n_nodes, messages, seed=traffic_seed)
            for messages, traffic_seed in batch
        ]
        seeds = [sim_seed + 31 * index for index in range(len(traffics))]
        kernel = BatchedNocKernel(
            topology, config, routing_tables=tables, max_cycles=30_000
        )
        try:
            expected = [
                _observables(
                    BatchNocSimulator(
                        topology, config, routing_tables=tables, seed=seed,
                        max_cycles=30_000,
                    ).run(traffic)
                )
                for traffic, seed in zip(traffics, seeds)
            ]
        except SimulationError:
            # Tight capacities can deadlock; the batch must diverge too.
            with pytest.raises(SimulationError):
                kernel.run(traffics, seeds)
            return
        actual = [_observables(r) for r in kernel.run(traffics, seeds)]
        assert actual == expected

    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_kernel_matches_engine_on_default_config(self, spec, algorithm):
        """Dense deterministic grid at the paper's default configuration."""
        topology, tables = _topology_and_tables(spec)
        config = NocConfiguration().with_routing(algorithm)
        traffics = [
            random_traffic(topology.n_nodes, messages, seed=7 + messages)
            for messages in (20, 5, 0, 13)
        ]
        seeds = [3, 11, 0, 27]
        expected = [
            _observables(
                BatchNocSimulator(topology, config, routing_tables=tables, seed=s).run(t)
            )
            for t, s in zip(traffics, seeds)
        ]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        assert [_observables(r) for r in kernel.run(traffics, seeds)] == expected

    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_kernel_matches_engine_on_hotspot_traffic(self, policy):
        """All nodes hammering node 0 maximizes contention and deflections."""
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        hotspot = TrafficPattern(
            n_nodes=8,
            per_node=tuple(
                NodeTraffic(
                    node=node, destinations=(0,) * 30,
                    memory_locations=tuple(range(30)),
                )
                for node in range(8)
            ),
            label="hotspot",
        )
        traffics = [hotspot, random_traffic(8, 10, seed=5), hotspot]
        seeds = [1, 2, 3]
        config = NocConfiguration(collision_policy=policy)
        expected = [
            _observables(
                BatchNocSimulator(topology, config, routing_tables=tables, seed=s).run(t)
            )
            for t, s in zip(traffics, seeds)
        ]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        assert [_observables(r) for r in kernel.run(traffics, seeds)] == expected

    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_kernel_matches_engine_on_bounded_fifos(self, spec, policy):
        """``fifo_capacity=3`` backpressure runs the kernel's scalar fallback."""
        topology, tables = _topology_and_tables(spec)
        config = NocConfiguration(collision_policy=policy, fifo_capacity=3)
        traffics = [
            random_traffic(topology.n_nodes, 10, seed=70 + index) for index in range(3)
        ]
        seeds = [0, 4, 9]
        expected = [
            _observables(
                BatchNocSimulator(topology, config, routing_tables=tables, seed=s).run(t)
            )
            for t, s in zip(traffics, seeds)
        ]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        assert [_observables(r) for r in kernel.run(traffics, seeds)] == expected

    @pytest.mark.parametrize("batch", [2, 8, 256])
    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_scm_cycle_exact_across_batch_sizes(self, batch, algorithm):
        """SCM batches stay cycle-exact at every replay regime: tiny batches
        (pure scalar replay), mid batches, and J=256 (vectorized resume
        rounds engage above their minimum round size)."""
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM).with_routing(
            algorithm
        )
        traffics = [random_traffic(8, 6, seed=400 + i) for i in range(batch)]
        seeds = [i * 7 + 1 for i in range(batch)]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        results = kernel.run(traffics, seeds)
        engine = BatchNocSimulator(topology, config, routing_tables=tables, seed=0)
        expected = [
            _observables(engine.run(t, seed=s)) for t, s in zip(traffics, seeds)
        ]
        assert [_observables(r) for r in results] == expected

    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    @pytest.mark.parametrize(
        "spec",
        [
            # small fan-out: dense deflection mask lookups
            ("generalized-kautz", 8, 3),
            # fan-out beyond the mask-table gate: on-the-fly bit math
            ("generalized-de-bruijn", 24, 15),
        ],
    )
    def test_scm_vectorized_resume_rounds_cycle_exact(
        self, spec, algorithm, monkeypatch
    ):
        """Force every resume round through the vectorized lockstep (no
        scalar fallback) and pin it against per-job scalar runs."""
        import repro.noc.engine_batch as engine_batch

        monkeypatch.setattr(engine_batch, "_VEC_MIN_ROUND", 1)
        topology, tables = _topology_and_tables(spec)
        n = topology.n_nodes
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM).with_routing(
            algorithm
        )
        traffics = [random_traffic(n, 25, seed=500 + i) for i in range(4)]
        seeds = [31, 32, 33, 34]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        results = kernel.run(traffics, seeds)
        engine = BatchNocSimulator(topology, config, routing_tables=tables, seed=0)
        expected = [
            _observables(engine.run(t, seed=s)) for t, s in zip(traffics, seeds)
        ]
        assert [_observables(r) for r in results] == expected
        if spec[0] == "generalized-kautz":
            # the degree-3 graph must actually deflect under this load
            assert sum(r.statistics.misrouted for r in results) > 0

    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    @pytest.mark.parametrize(
        "spec", [("generalized-kautz", 8, 3), ("generalized-de-bruijn", 24, 15)]
    )
    def test_scm_scalar_replay_rounds_cycle_exact(self, spec, algorithm, monkeypatch):
        """Force every resume round through the scalar replay, with a
        two-word stream chunk so refills re-enter mid-draw, and pin it
        against per-job scalar runs."""
        import repro.noc.engine_batch as engine_batch

        monkeypatch.setattr(engine_batch, "_VEC_MIN_ROUND", 1 << 30)
        monkeypatch.setattr(DeflectionStreams, "CHUNK", 2)
        topology, tables = _topology_and_tables(spec)
        n = topology.n_nodes
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM).with_routing(
            algorithm
        )
        traffics = [random_traffic(n, 25, seed=500 + i) for i in range(4)]
        seeds = [31, 32, 33, 34]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        results = kernel.run(traffics, seeds)
        engine = BatchNocSimulator(topology, config, routing_tables=tables, seed=0)
        expected = [
            _observables(engine.run(t, seed=s)) for t, s in zip(traffics, seeds)
        ]
        assert [_observables(r) for r in results] == expected
        if spec[0] == "generalized-kautz":
            assert sum(r.statistics.misrouted for r in results) > 0

    def test_deflection_draw_counts_match_scalar_streams(self):
        """The batch consumes exactly the scalar engines' per-job draw counts."""
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
        traffics = [random_traffic(8, 25, seed=900 + i) for i in range(3)]
        seeds = [5, 6, 7]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        results = kernel.run(traffics, seeds)
        # Misroute totals are the per-job witness of the deflection stream:
        # they must match scalar runs (already asserted elsewhere) and at
        # least one job must actually have drawn.
        scalar = [
            BatchNocSimulator(topology, config, routing_tables=tables, seed=s).run(t)
            for t, s in zip(traffics, seeds)
        ]
        assert [r.statistics.misrouted for r in results] == [
            r.statistics.misrouted for r in scalar
        ]
        assert sum(r.statistics.misrouted for r in results) > 0


class TestKernelContract:
    def test_empty_batch(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        kernel = BatchedNocKernel(topology, NocConfiguration(), routing_tables=tables)
        assert kernel.run([]) == []

    def test_single_job_matches_engine(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        config = NocConfiguration()
        traffic = random_traffic(6, 12, seed=4)
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        (result,) = kernel.run([traffic], [9])
        single = BatchNocSimulator(topology, config, routing_tables=tables, seed=9).run(
            traffic
        )
        assert _observables(result) == _observables(single)

    def test_rejects_node_count_mismatch(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        kernel = BatchedNocKernel(topology, NocConfiguration(), routing_tables=tables)
        with pytest.raises(SimulationError):
            kernel.run([random_traffic(6, 5), random_traffic(4, 5)])

    def test_rejects_seed_length_mismatch(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        kernel = BatchedNocKernel(topology, NocConfiguration(), routing_tables=tables)
        with pytest.raises(SimulationError):
            kernel.run([random_traffic(6, 5)], [1, 2])

    def test_rejects_foreign_routing_tables(self):
        topology, _ = _topology_and_tables(("ring", 6, None))
        _, other_tables = _topology_and_tables(("spidergon", 8, None))
        with pytest.raises(SimulationError):
            BatchedNocKernel(topology, NocConfiguration(), routing_tables=other_tables)

    def test_rejects_bad_max_cycles(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        with pytest.raises(SimulationError):
            BatchedNocKernel(
                topology, NocConfiguration(), routing_tables=tables, max_cycles=0
            )

    def test_max_cycles_guard_raises_for_stuck_jobs(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        kernel = BatchedNocKernel(
            topology, NocConfiguration(), routing_tables=tables, max_cycles=2
        )
        with pytest.raises(SimulationError):
            kernel.run([random_traffic(6, 30, seed=2), random_traffic(6, 30, seed=3)])

    def test_default_seeds_are_zero(self):
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        config = NocConfiguration()
        traffics = [random_traffic(8, 15, seed=60), random_traffic(8, 15, seed=61)]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        default = [_observables(r) for r in kernel.run(traffics)]
        explicit = [_observables(r) for r in kernel.run(traffics, [0, 0])]
        assert default == explicit

    @pytest.mark.parametrize(
        "algorithm", [RoutingAlgorithm.SSP_FL, RoutingAlgorithm.SSP_RR]
    )
    def test_high_in_degree_serve_order(self, algorithm):
        """Regression: serve-order keys must stay sound beyond 16 serving
        slots (a dense de Bruijn graph has in-degrees above the old 4-bit
        key packing)."""
        topology = build_topology("generalized-de-bruijn", 24, 15)
        assert int(topology.in_degrees.max()) + 1 > 16
        tables = build_routing_tables(topology)
        config = NocConfiguration().with_routing(algorithm)
        traffics = [random_traffic(24, 12, seed=300 + i) for i in range(3)]
        seeds = [1, 2, 3]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        results = kernel.run(traffics, seeds)
        singles = [
            BatchNocSimulator(topology, config, routing_tables=tables, seed=s).run(t)
            for t, s in zip(traffics, seeds)
        ]
        assert [_observables(r) for r in results] == [_observables(r) for r in singles]

    def test_early_finish_masking(self):
        """Jobs that drain at very different cycles stay pinned per job."""
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        config = NocConfiguration()
        traffics = [
            random_traffic(8, 1, seed=70),   # finishes almost immediately
            random_traffic(8, 60, seed=71),  # runs an order of magnitude longer
            random_traffic(8, 0, seed=72),   # never starts (ncycles == 0)
        ]
        seeds = [1, 2, 3]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        results = kernel.run(traffics, seeds)
        singles = [
            BatchNocSimulator(topology, config, routing_tables=tables, seed=s).run(t)
            for t, s in zip(traffics, seeds)
        ]
        assert [_observables(r) for r in results] == [_observables(r) for r in singles]
        assert results[2].ncycles == 0
        assert results[0].ncycles < results[1].ncycles


class TestDeflectionStreams:
    def test_reproduces_bounded_draw_stream(self):
        """The counter-based word stream equals bounded_draw over getrandbits."""
        seeds = [0, 1, 12345]
        streams = DeflectionStreams(seeds)
        references = [random.Random(seed).getrandbits for seed in seeds]
        draw_pattern = [1, 2, 3, 4, 2, 2, 3, 1, 4, 3] * 40
        for job, reference in enumerate(references):
            for n in draw_pattern:
                assert streams.draw(job, n) == bounded_draw(reference, n)
        assert streams.draw_counts.tolist() == [len(draw_pattern)] * len(seeds)

    def test_streams_are_independent_per_job(self):
        streams = DeflectionStreams([7, 7])
        a = [streams.draw(0, 3) for _ in range(50)]
        b = [streams.draw(1, 3) for _ in range(50)]
        assert a == b  # same seed, same stream
        reference = random.Random(7).getrandbits
        assert a == [bounded_draw(reference, 3) for _ in range(50)]

    def test_refill_crosses_chunk_boundary(self):
        streams = DeflectionStreams([3])
        reference = random.Random(3).getrandbits
        total = DeflectionStreams.CHUNK + 100  # force at least one refill
        for _ in range(total):
            assert streams.draw(0, 4) == bounded_draw(reference, 4)
