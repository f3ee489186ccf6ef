"""Direct unit tests for the routing element (RouterNode) arbitration policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.noc import (
    CollisionPolicy,
    Message,
    NocConfiguration,
    RoutingAlgorithm,
    build_routing_tables,
    generalized_kautz,
)
from repro.noc.node import RouterNode


def _make_node(algorithm: RoutingAlgorithm, node_id: int = 0, seed: int = 0) -> RouterNode:
    topology = generalized_kautz(8, 3)
    tables = build_routing_tables(topology)
    config = NocConfiguration().with_routing(algorithm)
    return RouterNode(
        node_id=node_id,
        out_degree=topology.out_degree(node_id),
        in_degree=topology.in_degree(node_id),
        config=config,
        tables=tables,
        rng=np.random.default_rng(seed),
    )


class TestServingOrder:
    def test_empty_node_serves_nothing(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        assert node.serving_order() == []

    def test_fifo_length_policy_serves_longest_first(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        node.input_fifos[0].push(Message(0, 1, 2))
        for i in range(3):
            node.input_fifos[2].push(Message(10 + i, 1, 2))
        order = node.serving_order()
        assert order[0] == 2  # the three-deep FIFO wins
        assert set(order) == {0, 2}

    def test_round_robin_pointer_rotates(self):
        node = _make_node(RoutingAlgorithm.SSP_RR)
        for port in range(node.in_degree):
            node.input_fifos[port].push(Message(port, 1, 2))
        first = node.serving_order()
        second = node.serving_order()
        # The rotating priority must change which port is served first.
        assert first[0] != second[0] or first != second

    def test_injection_port_participates(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        node.injection_fifo.push(Message(0, 0, 3))
        assert node.serving_order() == [node.in_degree]

    def test_occupancy_statistics(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        for i in range(4):
            node.input_fifos[1].push(Message(i, 1, 2))
        node.injection_fifo.push(Message(9, 0, 3))
        assert node.max_input_occupancy() == 4
        assert node.max_injection_occupancy() == 1


class TestOutputPortSelection:
    def test_ssp_returns_single_port(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        message = Message(0, node.node_id, 5)
        ports = node.desired_output_ports(message)
        assert len(ports) == 1

    def test_asp_may_return_multiple_ports(self):
        node = _make_node(RoutingAlgorithm.ASP_FT)
        widths = set()
        for dest in range(1, 8):
            widths.add(len(node.desired_output_ports(Message(0, node.node_id, dest))))
        assert max(widths) >= 1  # every destination reachable
        assert all(w >= 1 for w in widths)

    def test_local_destination_rejected(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        with pytest.raises(SimulationError):
            node.desired_output_ports(Message(0, node.node_id, node.node_id))

    def test_choose_output_port_requires_free_port(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        message = Message(0, node.node_id, 5)
        allowed = node.desired_output_ports(message)
        assert node.choose_output_port(allowed, set(allowed)) == allowed[0]
        assert node.choose_output_port(allowed, set()) is None

    def test_traffic_spreading_prefers_least_used_port(self):
        node = _make_node(RoutingAlgorithm.ASP_FT)
        # Find a destination with at least two shortest-path ports, if any.
        for dest in range(1, 8):
            allowed = node.desired_output_ports(Message(0, node.node_id, dest))
            if len(allowed) >= 2:
                node.port_sent_count[allowed[0]] = 10
                chosen = node.choose_output_port(allowed, set(allowed))
                assert chosen == allowed[1]
                break

    def test_record_send_updates_statistics(self):
        node = _make_node(RoutingAlgorithm.ASP_FT)
        node.record_send(1)
        node.record_send(1)
        assert node.port_sent_count[1] == 2
        assert node.forwarded == 2


class TestDeflection:
    def test_scm_node_deflects_to_free_port(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        assert node.config.collision_policy is CollisionPolicy.SCM
        port = node.choose_deflection_port({0, 2})
        assert port in {0, 2}

    def test_scm_without_free_ports_returns_none(self):
        node = _make_node(RoutingAlgorithm.SSP_FL)
        assert node.choose_deflection_port(set()) is None

    def test_dcm_node_never_deflects(self):
        topology = generalized_kautz(8, 3)
        tables = build_routing_tables(topology)
        config = NocConfiguration(collision_policy=CollisionPolicy.DCM)
        node = RouterNode(0, 3, topology.in_degree(0), config, tables, np.random.default_rng(0))
        assert node.choose_deflection_port({0, 1, 2}) is None

    def test_deflection_is_deterministic_per_seed(self):
        picks_a = [_make_node(RoutingAlgorithm.SSP_FL, seed=3).choose_deflection_port({0, 1, 2})
                   for _ in range(5)]
        picks_b = [_make_node(RoutingAlgorithm.SSP_FL, seed=3).choose_deflection_port({0, 1, 2})
                   for _ in range(5)]
        assert picks_a == picks_b
