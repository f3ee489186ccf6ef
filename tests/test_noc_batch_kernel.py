"""Differential harness: the job-batched kernel vs the scalar cycle engine.

:class:`repro.noc.engine_batch.BatchedNocKernel` must be *cycle-exact, per
job*, against :class:`repro.noc.engine.BatchNocSimulator` (which PR 3 pinned
against the object reference simulator): same ncycles, delivered counts,
per-node FIFO high-water marks, hop/latency totals and SCM deflection
decisions for every (topology, configuration, traffic, seed) — whatever other
jobs share the batch.  The hypothesis suite below drives randomized batches
(mixed traffic sizes, empty jobs, distinct seeds) through both and compares
every observable; the contract tests pin the both-raise behaviour when a job
exceeds ``max_cycles``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.noc import (
    BatchNocSimulator,
    BatchedNocKernel,
    CollisionPolicy,
    NocConfiguration,
    RoutingAlgorithm,
    RoutingTables,
    TrafficPattern,
    build_routing_tables,
    build_topology,
    random_traffic,
    random_traffic_streams,
    scheduler_cost_model,
)
from traffic_lists import traffic_from_lists

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
        "latencies": list(result.statistics.latencies),
        "describe": result.describe(),
    }


config_strategy = st.builds(
    NocConfiguration,
    routing_algorithm=st.sampled_from(list(RoutingAlgorithm)),
    collision_policy=st.sampled_from(list(CollisionPolicy)),
    injection_rate=st.sampled_from([0.25, 0.4, 0.5, 0.75, 1.0]),
    route_local=st.booleans(),
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
        expected = [
            _observables(
                BatchNocSimulator(
                    topology, config, routing_tables=tables, seed=seed, max_cycles=30_000,
                ).run(traffic)
            )
            for traffic, seed in zip(traffics, seeds)
        ]
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
        hotspot = traffic_from_lists([[0] * 30] * 8, label="hotspot")
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

    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_crossover_group_beyond_4096_messages_runs_batched(self, policy):
        """A crossover-sized group of jobs with more than 4 096 messages each
        runs the job axis (no scalar fallback) and matches the scalar engine
        job by job."""
        topology, tables = _topology_and_tables(("generalized-kautz", 16, 3))
        count = scheduler_cost_model().crossover(policy)
        traffics = random_traffic_streams(16, 300, seed=61, count=count)
        assert min(traffic.total_messages for traffic in traffics) > 4096
        seeds = [5 * index + 2 for index in range(count)]
        config = NocConfiguration(collision_policy=policy)
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        actual = [_observables(r) for r in kernel.run(traffics, seeds)]
        assert kernel._scalar is None
        engine = BatchNocSimulator(topology, config, routing_tables=tables)
        assert actual == [
            _observables(engine.run(t, seed=s)) for t, s in zip(traffics, seeds)
        ]

    @pytest.mark.parametrize("batch", [2, 8, 256])
    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    @pytest.mark.parametrize(
        "spec",
        [
            ("generalized-kautz", 8, 3),
            # wide fan-out: deflection candidate sets of up to 15 ports
            ("generalized-de-bruijn", 24, 15),
        ],
    )
    def test_scm_cycle_exact_across_batch_sizes(self, batch, algorithm, spec):
        """SCM batches stay cycle-exact from tiny batches (a few suspended
        passes per cycle) up to J=256 (hundreds of replayed passes per
        cycle, many jobs suspending several nodes)."""
        topology, tables = _topology_and_tables(spec)
        n = topology.n_nodes
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM).with_routing(
            algorithm
        )
        traffics = [random_traffic(n, 6, seed=400 + i) for i in range(batch)]
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
        "spec", [("generalized-kautz", 8, 3), ("generalized-de-bruijn", 24, 15)]
    )
    def test_scm_scalar_replay_rounds_cycle_exact(self, spec, algorithm):
        """Heavier per-job load makes jobs suspend several nodes per cycle,
        so each job's stream is consumed across many replayed passes; pin the
        replay against per-job scalar runs."""
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

    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_split_replay_classes_cycle_exact(self, algorithm, monkeypatch):
        """The replay's two row classes against per-job scalar runs.

        A suspended pass with one serving position left (the draw) replays
        as a batched draw-only row, one with more positions left runs the
        serve loop; both classes must share each job's stream in node
        order.  The wrapped replay records, per cycle, every suspended
        row's job and ``n_occ - w0``: positions 1, 2 and 3 must all occur,
        and some job must hold a single- and a multi-position pass in the
        same cycle.  Under ASP-FT the single rows' deflections also feed
        the traffic-spreading send counts of later cycles.
        """
        import repro.noc.engine_batch as engine_batch

        replay = engine_batch._resume_suspended
        cycles: list[list[tuple[int, int]]] = []

        def recording(st_, rows, waves, n_occ, *args):
            jobs = (rows // st_.n_nodes).tolist()
            cycles.append(list(zip(jobs, (n_occ[rows] - waves).tolist())))
            return replay(st_, rows, waves, n_occ, *args)

        monkeypatch.setattr(engine_batch, "_resume_suspended", recording)
        topology, tables = _topology_and_tables(("generalized-kautz", 16, 3))
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM).with_routing(
            algorithm
        )
        traffics = random_traffic_streams(16, 48, seed=61, count=4)
        seeds = [2, 3, 5, 7]
        results = BatchedNocKernel(topology, config, routing_tables=tables).run(
            traffics, seeds
        )
        engine = BatchNocSimulator(topology, config, routing_tables=tables)
        expected = [_observables(engine.run(t, seed=s)) for t, s in zip(traffics, seeds)]
        assert [_observables(r) for r in results] == expected

        classes = {left for cycle in cycles for _, left in cycle}
        assert {1, 2, 3} <= classes
        assert any(
            {left == 1 for job_, left in cycle if job_ == job} == {True, False}
            for cycle in cycles
            for job in range(len(traffics))
        )

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

    def test_rejects_unsorted_next_hop_ports(self):
        """ASP ties break by port index, which is the tables' list order only
        when every pair lists its ports ascending (as the builder does)."""
        topology, tables = _topology_and_tables(("generalized-kautz", 16, 3))
        reversed_tables = RoutingTables(
            topology=topology,
            distance=tables.distance,
            next_ports=tuple(
                tuple(tuple(reversed(ports)) for ports in row) for row in tables.next_ports
            ),
        )
        kernel = BatchedNocKernel(topology, NocConfiguration(), routing_tables=reversed_tables)
        with pytest.raises(SimulationError, match="ascending"):
            kernel.run([random_traffic(16, 5, seed=1), random_traffic(16, 5, seed=2)])

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

    @pytest.mark.parametrize("degree", [32, 33])
    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_widest_free_port_masks(self, degree, policy, algorithm):
        """Free-port masks are int32: 32 output ports run batched, more run
        the scalar engine.  A port above 31 has no mask bit, so a batched
        SSP DCM group could never grant it and would run to ``max_cycles``."""
        topology, tables = _topology_and_tables(("generalized-de-bruijn", 40, degree))
        assert int(topology.out_degrees.max()) == degree
        config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
        traffics = [random_traffic(40, 12, seed=800 + i) for i in range(3)]
        seeds = [4, 5, 6]
        kernel = BatchedNocKernel(topology, config, routing_tables=tables, max_cycles=5_000)
        engine = BatchNocSimulator(topology, config, routing_tables=tables, max_cycles=5_000)
        expected = [_observables(engine.run(t, seed=s)) for t, s in zip(traffics, seeds)]
        assert [_observables(r) for r in kernel.run(traffics, seeds)] == expected

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


#: Per-job SHA-256 digests of :func:`_observables`, recorded from the kernel
#: before its slot-major rework; regenerate with :func:`golden_digests`.
GOLDEN_PATH = Path(__file__).with_name("noc_batch_kernel_golden.json")

#: Every (routing, collision policy) cell, in phase-B order.
GOLDEN_CELLS = [(a, p) for a in RoutingAlgorithm for p in CollisionPolicy]

#: Graphs spanning serve widths fmax = 3..5 (in-degree + injection port).
GOLDEN_GRAPHS = [
    ("generalized-de-bruijn", 16, 2),
    ("generalized-kautz", 12, 2),
    ("generalized-kautz", 20, 4),
    ("spidergon", 16, None),
]


def _golden_case_ids() -> list[str]:
    ids = [f"phase-b/{p.value}/{a.value}" for a, p in GOLDEN_CELLS]
    for family, parallelism, degree in GOLDEN_GRAPHS:
        for route_local in (False, True):
            for rate in (0.3, 1.0):
                ids.append(f"{family}-{parallelism}-{degree}/RL={int(route_local)}/R={rate}")
    return ids


def _golden_case(case_id: str):
    """``(spec, config, traffics, seeds)`` of one golden case.

    The phase-B cells are the Monte-Carlo pass's exact shape (generalized
    Kautz D=3, P=16, 144 messages per PE) at J = 32; the graph cases rotate
    through the six cells at J = 8 and 40 messages per PE.
    """
    index = _golden_case_ids().index(case_id)
    if index < len(GOLDEN_CELLS):
        algorithm, policy = GOLDEN_CELLS[index]
        config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
        traffics = random_traffic_streams(16, 144, seed=25, count=32)
        return ("generalized-kautz", 16, 3), config, traffics, list(range(32))
    graph, rest = divmod(index - len(GOLDEN_CELLS), 4)
    route_local, rate = [(False, 0.3), (False, 1.0), (True, 0.3), (True, 1.0)][rest]
    algorithm, policy = GOLDEN_CELLS[index % len(GOLDEN_CELLS)]
    spec = GOLDEN_GRAPHS[graph]
    config = NocConfiguration(
        collision_policy=policy, injection_rate=rate, route_local=route_local
    ).with_routing(algorithm)
    traffics = random_traffic_streams(spec[1], 40, seed=100 + index, count=8)
    return spec, config, traffics, [7 * j + index for j in range(8)]


def _job_digest(result) -> str:
    payload = json.dumps(_observables(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def golden_digests(case_id: str) -> list[str]:
    """Per-job digests of one golden case on the current kernel."""
    spec, config, traffics, seeds = _golden_case(case_id)
    topology, tables = _topology_and_tables(spec)
    kernel = BatchedNocKernel(topology, config, routing_tables=tables)
    return [_job_digest(r) for r in kernel.run(traffics, seeds)]


class TestKernelGoldenDigests:
    """The kernel's per-job outputs are frozen: bit-identical across reworks."""

    @pytest.mark.parametrize("case_id", _golden_case_ids())
    def test_digests_match_golden(self, case_id):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden_digests(case_id) == golden[case_id]


def _pattern(n_nodes: int, destinations: dict[int, list[int]], label: str) -> TrafficPattern:
    """Traffic with the given per-node destination lists (others send nothing)."""
    return traffic_from_lists(
        [destinations.get(node, []) for node in range(n_nodes)], label=label
    )


#: Bypass runs in every position (RL = 0 keeps ``dest == node`` local):
#: node 0 leads and trails with a run, node 1 sends only local messages,
#: node 3 has runs between its network messages, node 2 sends nothing.
EDGE_TRAFFIC = _pattern(
    8,
    {
        0: [0, 0, 3, 5, 7, 0, 0, 0],
        1: [1, 1, 1, 1],
        3: [4, 3, 3, 6, 3, 2, 3],
        4: [5, 6, 7, 0, 1, 2],
        5: [5],
        6: [2, 6, 6, 6, 6],
        7: [0, 7, 1, 7, 2, 7, 3],
    },
    "bypass-runs",
)


class TestOpenLoopInjectionSchedule:
    """The precomputed injection schedule against the scalar engine's
    closed-loop credit walk, one batched run per case, checked per job."""

    def _check(self, config, traffics, seeds):
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        kernel = BatchedNocKernel(topology, config, routing_tables=tables)
        engine = BatchNocSimulator(topology, config, routing_tables=tables)
        results = kernel.run(traffics, seeds)
        expected = [_observables(engine.run(t, seed=s)) for t, s in zip(traffics, seeds)]
        assert [_observables(r) for r in results] == expected
        return results

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_bypass_runs_at_inexact_rates(self, rate, policy):
        """Leading, interior and trailing bypass runs and a local-only node,
        at rates whose credit sums are not exact in binary."""
        config = NocConfiguration(collision_policy=policy, injection_rate=rate)
        traffics = [EDGE_TRAFFIC, random_traffic(8, 9, seed=41), EDGE_TRAFFIC]
        results = self._check(config, traffics, [3, 4, 5])
        assert results[0].local_bypassed == 21

    def test_zero_message_and_local_only_jobs_in_a_batch(self):
        """An empty job never runs a cycle; a job of only local messages
        delivers everything at cycle 0 and takes one cycle."""
        config = NocConfiguration(injection_rate=0.3)
        traffics = [
            EDGE_TRAFFIC,
            _pattern(8, {}, "empty"),
            _pattern(8, {1: [1, 1], 6: [6]}, "local-only"),
            random_traffic(8, 5, seed=42),
        ]
        results = self._check(config, traffics, [1, 2, 3, 4])
        assert results[1].ncycles == 0
        assert results[2].ncycles == 1
        assert results[2].local_bypassed == 3

    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_route_local_sends_local_messages_through_the_network(self, algorithm):
        """RL = 1: every message, local ones included, is a network message."""
        config = NocConfiguration(route_local=True, injection_rate=0.7).with_routing(algorithm)
        traffics = [EDGE_TRAFFIC, random_traffic(8, 9, seed=43)]
        results = self._check(config, traffics, [6, 7])
        assert results[0].local_bypassed == 0

    def test_slow_rate_hits_max_cycles_like_the_engine(self):
        """A rate too slow to inject within ``max_cycles`` raises in both."""
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        config = NocConfiguration(injection_rate=0.001)
        traffics = [EDGE_TRAFFIC, random_traffic(8, 3, seed=44)]
        with pytest.raises(SimulationError):
            BatchNocSimulator(topology, config, routing_tables=tables, max_cycles=50).run(
                traffics[0]
            )
        kernel = BatchedNocKernel(topology, config, routing_tables=tables, max_cycles=50)
        with pytest.raises(SimulationError, match="still in flight"):
            kernel.run(traffics, [0, 1])
