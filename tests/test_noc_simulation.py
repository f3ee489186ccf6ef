"""Unit tests for the NoC configuration, buffering, traffic and cycle-accurate simulator."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.errors import ConfigurationError, MappingError, SimulationError
from repro.noc import (
    BatchNocSimulator,
    CollisionPolicy,
    Message,
    MessageFifo,
    NocConfiguration,
    NodeArchitecture,
    RoutingAlgorithm,
    TrafficPattern,
    build_routing_tables,
    build_topology,
    generalized_kautz,
    ring,
)
from repro.noc.message import MessageStatistics
from repro.noc.traffic import traffic_from_permutation
from traffic_lists import node_lists, traffic_from_lists


class TestConfiguration:
    def test_defaults_match_paper_table1_settings(self):
        config = NocConfiguration()
        assert config.injection_rate == 0.5
        assert config.route_local is False
        assert config.collision_policy is CollisionPolicy.SCM
        assert config.routing_algorithm is RoutingAlgorithm.SSP_FL

    def test_header_bits_pp_vs_ap(self):
        pp = NocConfiguration(node_architecture=NodeArchitecture.PP)
        ap = NocConfiguration(node_architecture=NodeArchitecture.AP)
        assert pp.header_bits(22) == 5
        assert ap.header_bits(22) == 0

    def test_flit_bits_include_location_only_for_pp(self):
        pp = NocConfiguration(node_architecture=NodeArchitecture.PP)
        ap = NocConfiguration(node_architecture=NodeArchitecture.AP)
        assert pp.flit_bits(22) == pp.payload_bits + 5 + pp.location_bits
        assert ap.flit_bits(22) == ap.payload_bits

    def test_with_routing_pairs_architecture(self):
        config = NocConfiguration()
        asp = config.with_routing(RoutingAlgorithm.ASP_FT)
        assert asp.node_architecture is NodeArchitecture.AP
        back = asp.with_routing(RoutingAlgorithm.SSP_RR)
        assert back.node_architecture is NodeArchitecture.PP

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            NocConfiguration(injection_rate=0.0)
        with pytest.raises(ConfigurationError):
            NocConfiguration(injection_rate=1.5)
        with pytest.raises(ConfigurationError):
            NocConfiguration(payload_bits=0)

    def test_fifo_depth_is_not_a_parameter(self):
        """FIFO depth is measured by the simulation, never configured."""
        assert [field.name for field in fields(NocConfiguration)] == [
            "routing_algorithm", "node_architecture", "injection_rate", "route_local",
            "collision_policy", "payload_bits", "location_bits",
        ]

    def test_describe_mentions_key_parameters(self):
        text = NocConfiguration().describe()
        assert "SSP-FL" in text and "R=0.5" in text


class TestMessageAndFifo:
    def test_message_latency(self):
        message = Message(identifier=0, source=0, destination=1, injection_cycle=3)
        assert not message.delivered
        assert message.latency == -1
        message.delivery_cycle = 10
        assert message.delivered
        assert message.latency == 7

    def test_statistics_aggregation(self):
        stats = MessageStatistics()
        for latency in (2, 4, 6):
            message = Message(0, 0, 1, injection_cycle=0, delivery_cycle=latency, hops=2)
            stats.record(message)
        assert stats.count == 3
        assert stats.mean_latency == pytest.approx(4.0)
        assert stats.max_latency == 6

    def test_statistics_ignore_undelivered(self):
        stats = MessageStatistics()
        stats.record(Message(0, 0, 1))
        assert stats.count == 0

    def test_fifo_push_pop_order(self):
        fifo = MessageFifo()
        for i in range(3):
            fifo.push(Message(i, 0, 1))
        assert fifo.pop().identifier == 0
        assert fifo.head().identifier == 1
        assert len(fifo) == 2

    def test_fifo_tracks_max_occupancy(self):
        fifo = MessageFifo()
        for i in range(3):
            fifo.push(Message(i, 0, 1))
        fifo.pop()
        assert fifo.max_occupancy == 3

    def test_fifo_is_unbounded(self):
        fifo = MessageFifo()
        for i in range(5000):
            fifo.push(Message(i, 0, 1))
        assert len(fifo) == fifo.max_occupancy == 5000
        assert fifo.pop().identifier == 0

    def test_fifo_empty_pop_raises(self):
        with pytest.raises(SimulationError):
            MessageFifo().pop()


class TestTrafficPattern:
    def _uniform_traffic(self, n_nodes=4, messages_per_node=3):
        return traffic_from_lists(
            [
                [(node + 1 + i) % n_nodes for i in range(messages_per_node)]
                for node in range(n_nodes)
            ],
            label="uniform",
        )

    def test_counts(self):
        traffic = self._uniform_traffic()
        assert traffic.total_messages == 12
        assert traffic.local_messages == 0
        assert traffic.total_messages - traffic.local_messages == 12

    def test_local_message_counting(self):
        traffic = traffic_from_lists([[0, 1], [1]], [[0, 0], [0]])
        assert traffic.local_messages == 2
        assert traffic.total_messages - traffic.local_messages == 1

    def test_destination_histogram(self):
        traffic = self._uniform_traffic(n_nodes=3, messages_per_node=2)
        assert traffic.destination_histogram().sum() == traffic.total_messages

    def test_validation_errors(self):
        with pytest.raises(MappingError):
            TrafficPattern(1, [0, 1], [0], [])
        with pytest.raises(MappingError):
            traffic_from_lists([[5], []])
        with pytest.raises(MappingError):
            TrafficPattern(2, [0, 0], [], [])

    def test_traffic_from_permutation(self):
        permutation = np.array([2, 3, 0, 1])
        owner = np.array([0, 0, 1, 1])
        traffic = traffic_from_permutation(permutation, owner, n_nodes=2)
        assert traffic.total_messages == 4
        # Position 0 (PE 0) sends to position 2's owner (PE 1), etc.
        assert [dests for dests, _ in node_lists(traffic)] == [[1, 1], [0, 0]]
        assert traffic.local_messages == 0

    def test_traffic_from_permutation_validates_shapes(self):
        with pytest.raises(MappingError):
            traffic_from_permutation(np.array([0, 1]), np.array([0]), 2)
        with pytest.raises(MappingError):
            traffic_from_permutation(np.array([0, 1]), np.array([0, 5]), 2)


def _all_to_next_traffic(n_nodes: int, messages_per_node: int) -> TrafficPattern:
    """Every node sends ``messages_per_node`` messages to its successor node."""
    return traffic_from_lists(
        [[(node + 1) % n_nodes] * messages_per_node for node in range(n_nodes)],
        label="all-to-next",
    )


def _random_traffic(n_nodes: int, messages_per_node: int, seed: int = 0) -> TrafficPattern:
    rng = np.random.default_rng(seed)
    return traffic_from_lists(
        [rng.integers(0, n_nodes, messages_per_node) for _ in range(n_nodes)],
        label="random",
    )


class TestSimulator:
    def test_all_messages_delivered(self, small_kautz_topology, small_kautz_routing):
        traffic = _random_traffic(8, 20)
        simulator = BatchNocSimulator(
            small_kautz_topology, NocConfiguration(), routing_tables=small_kautz_routing
        )
        result = simulator.run(traffic)
        assert result.all_delivered
        assert result.delivered_messages == traffic.total_messages

    def test_injection_rate_lower_bounds_cycle_count(self, small_kautz_topology):
        traffic = _all_to_next_traffic(8, 30)
        config = NocConfiguration(injection_rate=0.5)
        result = BatchNocSimulator(small_kautz_topology, config).run(traffic)
        # 30 network messages at R=0.5 need at least 60 injection cycles.
        assert result.ncycles >= 60

    def test_higher_injection_rate_is_faster(self, small_kautz_topology):
        traffic = _all_to_next_traffic(8, 30)
        slow = BatchNocSimulator(small_kautz_topology, NocConfiguration(injection_rate=0.25)).run(traffic)
        fast = BatchNocSimulator(small_kautz_topology, NocConfiguration(injection_rate=1.0)).run(traffic)
        assert fast.ncycles < slow.ncycles

    def test_local_messages_bypass_network_when_rl0(self, small_kautz_topology):
        traffic = traffic_from_lists([[n] * 10 for n in range(8)], label="all-local")
        result = BatchNocSimulator(small_kautz_topology, NocConfiguration(route_local=False)).run(traffic)
        assert result.local_bypassed == 80
        assert result.statistics.total_hops == 0
        assert result.ncycles <= 2

    def test_local_messages_routed_when_rl1(self, small_kautz_topology):
        traffic = traffic_from_lists([[n] * 4 for n in range(8)], label="all-local")
        result = BatchNocSimulator(small_kautz_topology, NocConfiguration(route_local=True)).run(traffic)
        assert result.local_bypassed == 0
        assert result.all_delivered
        assert result.ncycles > 2

    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_every_routing_algorithm_delivers(self, small_kautz_topology, algorithm):
        traffic = _random_traffic(8, 25, seed=3)
        config = NocConfiguration().with_routing(algorithm)
        result = BatchNocSimulator(small_kautz_topology, config).run(traffic)
        assert result.all_delivered

    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_collision_policies_deliver(self, small_kautz_topology, policy):
        traffic = _random_traffic(8, 25, seed=4)
        config = NocConfiguration(collision_policy=policy)
        result = BatchNocSimulator(small_kautz_topology, config).run(traffic)
        assert result.all_delivered

    def test_scm_can_misroute_under_hotspot(self):
        # All nodes hammer node 0 so output-port collisions are guaranteed.
        topology = generalized_kautz(8, 2)
        traffic = traffic_from_lists([[0] * 15] * 8, label="hotspot")
        scm = BatchNocSimulator(topology, NocConfiguration(collision_policy=CollisionPolicy.SCM)).run(
            traffic
        )
        dcm = BatchNocSimulator(topology, NocConfiguration(collision_policy=CollisionPolicy.DCM)).run(
            traffic
        )
        assert scm.all_delivered and dcm.all_delivered
        assert scm.statistics.misrouted >= dcm.statistics.misrouted

    def test_mean_latency_at_least_mean_hops(self, small_kautz_topology):
        traffic = _random_traffic(8, 20, seed=5)
        result = BatchNocSimulator(small_kautz_topology, NocConfiguration()).run(traffic)
        assert result.statistics.mean_latency >= result.statistics.mean_hops

    def test_fifo_occupancy_reported(self, small_kautz_topology):
        traffic = _random_traffic(8, 40, seed=6)
        result = BatchNocSimulator(small_kautz_topology, NocConfiguration()).run(traffic)
        assert result.max_fifo_occupancy >= 1
        assert len(result.per_node_max_fifo) == 8

    def test_link_utilization_in_unit_range(self, small_kautz_topology):
        traffic = _random_traffic(8, 20, seed=7)
        result = BatchNocSimulator(small_kautz_topology, NocConfiguration()).run(traffic)
        assert 0.0 < result.link_utilization <= 1.0

    def test_deterministic_given_seed(self, small_kautz_topology):
        traffic = _random_traffic(8, 25, seed=8)
        first = BatchNocSimulator(small_kautz_topology, NocConfiguration(), seed=1).run(traffic)
        second = BatchNocSimulator(small_kautz_topology, NocConfiguration(), seed=1).run(traffic)
        assert first.ncycles == second.ncycles
        assert first.statistics.total_hops == second.statistics.total_hops

    def test_ring_slower_than_kautz_for_random_traffic(self):
        traffic = _random_traffic(16, 30, seed=9)
        config = NocConfiguration(injection_rate=1.0)
        ring_result = BatchNocSimulator(ring(16), config).run(traffic)
        kautz_result = BatchNocSimulator(generalized_kautz(16, 3), config).run(traffic)
        assert kautz_result.ncycles <= ring_result.ncycles

    def test_node_count_mismatch_rejected(self, small_kautz_topology):
        traffic = _random_traffic(4, 5)
        with pytest.raises(SimulationError):
            BatchNocSimulator(small_kautz_topology, NocConfiguration()).run(traffic)

    def test_max_cycles_guard(self, small_kautz_topology):
        traffic = _random_traffic(8, 50, seed=10)
        simulator = BatchNocSimulator(
            small_kautz_topology, NocConfiguration(), max_cycles=3
        )
        with pytest.raises(SimulationError):
            simulator.run(traffic)

    def test_foreign_routing_tables_rejected(self, small_kautz_topology):
        other_tables = build_routing_tables(build_topology("generalized-kautz", 8, 3))
        with pytest.raises(SimulationError):
            BatchNocSimulator(small_kautz_topology, NocConfiguration(), routing_tables=other_tables)
