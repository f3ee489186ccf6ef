"""Differential harness: the SoA cycle engine vs the object reference simulator.

The struct-of-arrays engine (:class:`repro.noc.engine.BatchNocSimulator`) must
be *cycle-exact* against the per-object reference
(:class:`repro.noc.simulator.ReferenceNocSimulator`): same ncycles, delivered
counts, per-node maximum FIFO occupancies, hop/latency totals and SCM
deflection decisions for any (topology, configuration, traffic, seed).  The
hypothesis suite below drives randomized configurations x seeded traffic
through both simulators and compares every observable.  Every FIFO is
unbounded, so no configuration deadlocks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, SimulationError
from repro.noc import (
    BatchedNocKernel,
    BatchNocSimulator,
    CollisionPolicy,
    NocConfiguration,
    NocSweepJob,
    ReferenceNocSimulator,
    RoutingAlgorithm,
    TrafficPattern,
    build_routing_tables,
    build_topology,
    random_traffic,
    run_noc_sweep,
)
from traffic_lists import node_lists, traffic_from_lists

# Topology specs kept small so one differential case stays ~milliseconds.
TOPOLOGY_SPECS = [
    ("generalized-kautz", 8, 3),
    ("generalized-kautz", 10, 2),
    ("generalized-de-bruijn", 9, 2),
    ("ring", 6, None),
    ("spidergon", 8, None),
    ("mesh", 9, None),
    ("honeycomb", 8, None),
    ("toroidal-mesh", 9, None),
]

_TOPOLOGY_CACHE: dict = {}


def _topology_and_tables(spec):
    if spec not in _TOPOLOGY_CACHE:
        topology = build_topology(*spec)
        _TOPOLOGY_CACHE[spec] = (topology, build_routing_tables(topology))
    return _TOPOLOGY_CACHE[spec]


def _observables(result):
    """Every measurement the engine must reproduce exactly."""
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
        "mean_latency": result.statistics.mean_latency,
        "latencies": sorted(result.statistics.latencies),
        "describe": result.describe(),
    }


#: Pinned non-default configurations: DCM head-of-line blocking under SSP-RR,
#: throttled ASP-FT injection, and local messages routed through the network.
STRESS_CONFIGS = {
    "ssp-rr-dcm": NocConfiguration(
        routing_algorithm=RoutingAlgorithm.SSP_RR,
        collision_policy=CollisionPolicy.DCM,
    ),
    "asp-ft-half-rate": NocConfiguration(
        routing_algorithm=RoutingAlgorithm.ASP_FT,
        injection_rate=0.5,
    ),
    "route-local": NocConfiguration(route_local=True),
}


config_strategy = st.builds(
    NocConfiguration,
    routing_algorithm=st.sampled_from(list(RoutingAlgorithm)),
    collision_policy=st.sampled_from(list(CollisionPolicy)),
    injection_rate=st.sampled_from([0.25, 0.4, 0.5, 0.75, 1.0]),
    route_local=st.booleans(),
)


class TestDifferentialEngineVsReference:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=st.sampled_from(TOPOLOGY_SPECS),
        config=config_strategy,
        traffic_seed=st.integers(0, 2**20),
        messages_per_node=st.integers(0, 25),
        sim_seed=st.integers(0, 2**20),
    )
    def test_engine_matches_reference_cycle_exactly(
        self, spec, config, traffic_seed, messages_per_node, sim_seed
    ):
        """>= 50 randomized config x seed cases must agree on every observable."""
        topology, tables = _topology_and_tables(spec)
        traffic = random_traffic(topology.n_nodes, messages_per_node, seed=traffic_seed)
        reference = ReferenceNocSimulator(
            topology, config, routing_tables=tables, seed=sim_seed, max_cycles=30_000
        )
        engine = BatchNocSimulator(
            topology, config, routing_tables=tables, seed=sim_seed, max_cycles=30_000
        )
        assert _observables(engine.run(traffic)) == _observables(reference.run(traffic))

    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_engine_matches_reference_on_default_config(self, spec, algorithm):
        """Dense deterministic grid at the paper's default configuration."""
        topology, tables = _topology_and_tables(spec)
        config = NocConfiguration().with_routing(algorithm)
        traffic = random_traffic(topology.n_nodes, 20, seed=7)
        expected = _observables(
            ReferenceNocSimulator(topology, config, routing_tables=tables, seed=3).run(
                traffic
            )
        )
        actual = _observables(
            BatchNocSimulator(topology, config, routing_tables=tables, seed=3).run(
                traffic
            )
        )
        assert actual == expected

    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("config_name", list(STRESS_CONFIGS))
    def test_engine_matches_reference_on_stress_configs(self, spec, config_name):
        """Deterministic grid over the pinned non-default configurations."""
        topology, tables = _topology_and_tables(spec)
        config = STRESS_CONFIGS[config_name]
        traffic = random_traffic(topology.n_nodes, 14, seed=31)
        expected = _observables(
            ReferenceNocSimulator(topology, config, routing_tables=tables, seed=5).run(
                traffic
            )
        )
        actual = _observables(
            BatchNocSimulator(topology, config, routing_tables=tables, seed=5).run(
                traffic
            )
        )
        assert actual == expected

    def test_engine_matches_reference_on_hotspot_traffic(self):
        """All nodes hammering node 0 maximizes contention and deflections."""
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        traffic = traffic_from_lists([[0] * 20] * 8, label="hotspot")
        for policy in CollisionPolicy:
            config = NocConfiguration(collision_policy=policy)
            expected = _observables(
                ReferenceNocSimulator(topology, config, routing_tables=tables, seed=1).run(traffic)
            )
            actual = _observables(
                BatchNocSimulator(topology, config, routing_tables=tables, seed=1).run(traffic)
            )
            assert actual == expected

    def test_engine_matches_reference_on_empty_traffic(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        traffic = random_traffic(6, 0, seed=0)
        config = NocConfiguration()
        ref = ReferenceNocSimulator(topology, config, routing_tables=tables).run(traffic)
        eng = BatchNocSimulator(topology, config, routing_tables=tables).run(traffic)
        assert _observables(eng) == _observables(ref)
        assert eng.ncycles == 0


def _hotspot_traffic(n_nodes: int, messages_per_node: int, seed: int):
    """Random traffic with ~40% of every node's messages sent to node 0.

    Node 0 consumes one message per cycle, so its input FIFOs back up to
    tens of messages: a peak occupancy far above uniform traffic's few,
    and still far below the message total — as at the Table-I points
    (7 296 messages, peak occupancy <= 232).
    """
    rng = np.random.default_rng(seed)
    destinations = [
        np.where(
            rng.random(messages_per_node) < 0.4,
            0,
            rng.integers(0, n_nodes, messages_per_node),
        )
        for _ in range(n_nodes)
    ]
    return traffic_from_lists(destinations, label="hotspot")


class TestHighOccupancy:
    """Hotspot traffic backs node 0's input FIFOs up to tens of messages;
    the engine must still match the reference on every observable."""

    @pytest.mark.parametrize("spec", [("generalized-kautz", 8, 3), ("spidergon", 8, None)])
    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_engine_matches_reference_at_high_occupancy(self, spec, policy, algorithm):
        topology, tables = _topology_and_tables(spec)
        traffic = _hotspot_traffic(topology.n_nodes, 40, seed=13)
        config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
        expected, actual = (
            _observables(
                simulator_cls(topology, config, routing_tables=tables, seed=11).run(traffic)
            )
            for simulator_cls in (ReferenceNocSimulator, BatchNocSimulator)
        )
        assert actual == expected
        assert 10 < expected["max_fifo"] < traffic.total_messages // 4


SIMULATORS = pytest.mark.parametrize(
    "simulator_cls", [ReferenceNocSimulator, BatchNocSimulator], ids=lambda cls: cls.__name__
)


class TestEngineContract:
    @SIMULATORS
    def test_rejects_node_count_mismatch(self, simulator_cls):
        topology, tables = _topology_and_tables(("ring", 6, None))
        with pytest.raises(SimulationError):
            simulator_cls(topology, NocConfiguration(), routing_tables=tables).run(
                random_traffic(4, 5)
            )

    @SIMULATORS
    def test_rejects_foreign_routing_tables(self, simulator_cls):
        topology, _ = _topology_and_tables(("ring", 6, None))
        _, other_tables = _topology_and_tables(("spidergon", 8, None))
        with pytest.raises(SimulationError):
            simulator_cls(topology, NocConfiguration(), routing_tables=other_tables)

    @pytest.mark.parametrize("max_cycles", [0, -1, float("nan"), True, 2.5, None, "1000"])
    @pytest.mark.parametrize(
        "entry", [ReferenceNocSimulator, BatchNocSimulator, BatchedNocKernel, NocSweepJob],
        ids=lambda cls: cls.__name__,
    )
    def test_rejects_bad_max_cycles(self, entry, max_cycles):
        """``max_cycles`` is a run's only bound, so every entry point takes
        nothing but an int >= 1: ``nan`` would disable the bound, ``True``
        and ``2.5`` are no cycle counts."""
        topology, tables = _topology_and_tables(("ring", 6, None))
        config = NocConfiguration()
        with pytest.raises(SimulationError, match="max_cycles must be an int >= 1"):
            if entry is NocSweepJob:
                NocSweepJob("ring", 6, None, config, random_traffic(6, 2), max_cycles=max_cycles)
            else:
                entry(topology, config, routing_tables=tables, max_cycles=max_cycles)

    def test_max_cycles_guard_raises(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        simulator = BatchNocSimulator(
            topology, NocConfiguration(), routing_tables=tables, max_cycles=2
        )
        with pytest.raises(SimulationError):
            simulator.run(random_traffic(6, 30, seed=2))

    def test_max_cycles_message_matches_reference(self):
        topology, tables = _topology_and_tables(("ring", 6, None))
        traffic = random_traffic(6, 30, seed=2)
        messages = []
        for simulator_cls in (ReferenceNocSimulator, BatchNocSimulator):
            simulator = simulator_cls(
                topology, NocConfiguration(), routing_tables=tables, max_cycles=3
            )
            with pytest.raises(SimulationError) as excinfo:
                simulator.run(traffic)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "exceeded 3 cycles" in messages[0]

    def test_seed_override_matches_fresh_engine(self):
        topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
        config = NocConfiguration()
        traffic = random_traffic(8, 20, seed=5)
        shared = BatchNocSimulator(topology, config, routing_tables=tables, seed=0)
        for seed in (0, 1, 17):
            fresh = BatchNocSimulator(topology, config, routing_tables=tables, seed=seed)
            assert _observables(shared.run(traffic, seed=seed)) == _observables(
                fresh.run(traffic)
            )


#: Per-node ``(destination, memory location)`` lists over 1-6 nodes.
_NODE_MESSAGES = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 40)), max_size=5),
        min_size=n,
        max_size=n,
    )
)

#: Ways to break exactly one rule of the CSR layout.
_MALFORMATIONS = [
    "dest-too-high", "dest-negative", "offsets-length", "offsets-start",
    "offsets-decreasing", "offsets-end", "memory-length",
]


def _split(messages):
    """Per-node destination lists and memory-location lists."""
    return [[d for d, _ in node] for node in messages], [[m for _, m in node] for node in messages]


def _csr(messages):
    """``(n_nodes, offsets, dest, memory)`` of the per-node lists, as writable arrays."""
    traffic = traffic_from_lists(*_split(messages))
    return len(messages), traffic.offsets.copy(), traffic.dest.copy(), traffic.memory.copy()


class TestTrafficPatternLayout:
    @given(messages=_NODE_MESSAGES)
    @settings(max_examples=60, deadline=None)
    def test_node_slices_equal_input_lists(self, messages):
        destinations, locations = _split(messages)
        traffic = traffic_from_lists(destinations, locations)
        assert traffic.n_nodes == len(messages)
        assert node_lists(traffic) == list(zip(destinations, locations))
        assert traffic.messages_per_node().tolist() == [len(node) for node in messages]
        assert traffic.source.tolist() == [
            node for node, sent in enumerate(messages) for _ in sent
        ]

    @given(messages=_NODE_MESSAGES, kind=st.sampled_from(_MALFORMATIONS), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_malformed_layout_raises(self, messages, kind, data):
        n, offsets, dest, memory = _csr(messages)
        if kind.startswith("dest") and not dest.size:
            offsets[-1] += 1
            dest, memory = np.array([0]), np.array([0])
        index = data.draw(st.integers(0, max(dest.size - 1, 0)))
        if kind == "dest-too-high":
            dest[index] = data.draw(st.integers(n, n + 5))
        elif kind == "dest-negative":
            dest[index] = data.draw(st.integers(-5, -1))
        elif kind == "offsets-length":
            offsets = offsets[:-1] if data.draw(st.booleans()) else np.append(offsets, offsets[-1])
        elif kind == "offsets-start":
            offsets[0] = data.draw(st.integers(-5, -1))
        elif kind == "offsets-decreasing":
            if n < 2:
                offsets, dest, memory = np.array([0, 1, 0, 1]), np.array([0]), np.array([0])
                n = 3
            else:
                node = data.draw(st.integers(1, n - 1))
                offsets[node] = offsets[node + 1] + 1
        elif kind == "offsets-end":
            offsets[-1] += 1
        else:
            memory = np.append(memory, 0)
        with pytest.raises(MappingError):
            TrafficPattern(n, offsets, dest, memory)

    def test_equality_compares_every_field(self):
        traffic = TrafficPattern(2, [0, 2, 3], [1, 0, 0], [0, 1, 0], "a")
        assert traffic == TrafficPattern(2, [0, 2, 3], [1, 0, 0], [0, 1, 0], "a")
        for other in (
            TrafficPattern(2, [0, 2, 3], [1, 0, 0], [0, 1, 0], "b"),
            TrafficPattern(3, [0, 2, 3, 3], [1, 0, 0], [0, 1, 0], "a"),
            TrafficPattern(2, [0, 1, 3], [1, 0, 0], [0, 1, 0], "a"),
            TrafficPattern(2, [0, 2, 3], [1, 1, 0], [0, 1, 0], "a"),
            TrafficPattern(2, [0, 2, 3], [1, 0, 0], [0, 1, 1], "a"),
        ):
            assert traffic != other

    def test_negative_node_count_raises(self):
        with pytest.raises(MappingError):
            TrafficPattern(-1, [0], [], [])

    @pytest.mark.parametrize("name", ["offsets", "dest", "memory"])
    def test_multidimensional_arrays_raise(self, name):
        fields = {"offsets": [0, 1, 2], "dest": [1, 0], "memory": [0, 0]}
        fields[name] = np.atleast_2d(fields[name])
        with pytest.raises(MappingError):
            TrafficPattern(2, **fields)

    def test_never_equal_to_another_type(self):
        traffic = TrafficPattern(1, [0, 1], [0], [0])
        assert traffic != (1, [0, 1], [0], [0])
        assert traffic.__eq__(object()) is NotImplemented

    @given(messages=_NODE_MESSAGES, name=st.sampled_from(["offsets", "dest", "memory"]))
    @settings(max_examples=30, deadline=None)
    def test_arrays_are_read_only(self, messages, name):
        traffic = TrafficPattern(*_csr(messages))
        with pytest.raises(ValueError):
            getattr(traffic, name)[...] = 0
        copy = pickle.loads(pickle.dumps(traffic))
        assert copy == traffic
        with pytest.raises(ValueError):
            getattr(copy, name)[...] = 0


class TestSweepDriver:
    def test_sweep_matches_individual_runs(self):
        jobs = []
        for alg in RoutingAlgorithm:
            for policy in CollisionPolicy:
                jobs.append(
                    NocSweepJob(
                        family="generalized-kautz",
                        parallelism=8,
                        degree=3,
                        config=NocConfiguration(collision_policy=policy).with_routing(alg),
                        traffic=random_traffic(8, 15, seed=21),
                        seed=2,
                    )
                )
        outcomes = run_noc_sweep(jobs)
        assert len(outcomes) == len(jobs)
        for job, outcome in zip(jobs, outcomes):
            assert outcome.job is job
            topology, tables = _topology_and_tables(("generalized-kautz", 8, 3))
            single = BatchNocSimulator(
                topology, job.config, routing_tables=tables, seed=job.seed
            ).run(job.traffic)
            assert _observables(outcome.result) == _observables(single)

    def test_sweep_shares_topology_cache(self):
        cache: dict = {}
        jobs = [
            NocSweepJob(
                family="ring",
                parallelism=6,
                degree=None,
                config=NocConfiguration(injection_rate=rate),
                traffic=random_traffic(6, 10, seed=3),
            )
            for rate in (0.25, 0.5, 1.0)
        ]
        run_noc_sweep(jobs, topology_cache=cache)
        assert list(cache) == [("ring", 6, None)]
        # Reusing the pre-warmed cache must not rebuild anything.
        topology_before = cache[("ring", 6, None)][0]
        run_noc_sweep(jobs, topology_cache=cache)
        assert cache[("ring", 6, None)][0] is topology_before
