"""Unit tests for NoC topologies and routing tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import TABLE1_PARALLELISMS
from repro.errors import RoutingError, TopologyError
from repro.noc import (
    RoutingAlgorithm,
    Topology,
    build_routing_tables,
    build_topology,
    generalized_de_bruijn,
    generalized_kautz,
    honeycomb_torus,
    mesh_2d,
    ring,
    spidergon,
    toroidal_mesh,
)
from repro.noc.topologies import TOPOLOGY_FAMILIES


class TestTopologyObject:
    def test_arc_indexing(self):
        topology = Topology("t", "test", 3, ((0, 1), (1, 2), (2, 0)))
        assert topology.out_arcs(0) == [(0, 1)]
        assert topology.in_arcs(0) == [(2, 2)]
        assert topology.out_neighbors(1) == [2]
        assert topology.n_arcs == 3

    def test_degree_and_crossbar_size(self):
        topology = ring(6)
        assert topology.degree == 2
        assert topology.crossbar_size == 3

    def test_strong_connectivity_check(self):
        connected = Topology("c", "test", 3, ((0, 1), (1, 2), (2, 0)))
        assert connected.is_strongly_connected()
        disconnected = Topology("d", "test", 3, ((0, 1), (1, 0)))
        assert not disconnected.is_strongly_connected()

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Topology("bad", "test", 3, ((0, 0),))

    def test_rejects_duplicate_arcs(self):
        with pytest.raises(TopologyError):
            Topology("bad", "test", 3, ((0, 1), (0, 1)))

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(TopologyError):
            Topology("bad", "test", 3, ((0, 5),))

    def test_rejects_tiny_networks(self):
        with pytest.raises(TopologyError):
            Topology("bad", "test", 1, ())


class TestTopologyFamilies:
    @pytest.mark.parametrize("n_nodes", [8, 16, 22, 36])
    def test_ring_degree_2(self, n_nodes):
        topology = ring(n_nodes)
        assert topology.degree == 2
        assert topology.is_strongly_connected()

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            ring(2)

    @pytest.mark.parametrize("n_nodes", [16, 24, 36])
    def test_mesh_is_connected_with_degree_at_most_4(self, n_nodes):
        topology = mesh_2d(n_nodes)
        assert topology.degree <= 4
        assert topology.is_strongly_connected()

    def test_mesh_rejects_prime_node_count(self):
        with pytest.raises(TopologyError):
            mesh_2d(17)

    @pytest.mark.parametrize("n_nodes", [16, 24, 36])
    def test_toroidal_mesh_degree_4(self, n_nodes):
        topology = toroidal_mesh(n_nodes)
        assert topology.degree == 4
        assert topology.is_strongly_connected()

    def test_toroidal_mesh_needs_wide_grid(self):
        with pytest.raises(TopologyError):
            toroidal_mesh(8)  # factors as 2 x 4

    @pytest.mark.parametrize("n_nodes", [16, 22, 24, 36])
    def test_spidergon_degree_3(self, n_nodes):
        topology = spidergon(n_nodes)
        assert topology.degree == 3
        assert topology.is_strongly_connected()

    def test_spidergon_rejects_odd_count(self):
        with pytest.raises(TopologyError):
            spidergon(15)

    @pytest.mark.parametrize("n_nodes", TABLE1_PARALLELISMS)
    def test_honeycomb_connected_max_degree_4(self, n_nodes):
        topology = honeycomb_torus(n_nodes)
        assert topology.degree <= 4
        assert topology.is_strongly_connected()

    @pytest.mark.parametrize("degree", [2, 3, 4])
    @pytest.mark.parametrize("n_nodes", [16, 22, 24, 36])
    def test_de_bruijn_and_kautz_out_degree(self, n_nodes, degree):
        for builder in (generalized_de_bruijn, generalized_kautz):
            topology = builder(n_nodes, degree)
            assert topology.degree == degree
            for node in range(n_nodes):
                assert topology.out_degree(node) == degree
            assert topology.is_strongly_connected()

    def test_kautz_diameter_close_to_optimal(self):
        topology = generalized_kautz(22, 3)
        tables = build_routing_tables(topology)
        # Kautz digraphs have diameter ~ ceil(log_D(N)); allow one extra hop
        # for the duplicate-arc fix-ups of the generalized construction.
        assert tables.diameter <= int(np.ceil(np.log(22) / np.log(3))) + 1

    def test_kautz_better_average_distance_than_ring(self):
        kautz = build_routing_tables(generalized_kautz(22, 3))
        ring_tables = build_routing_tables(ring(22))
        assert kautz.average_distance < ring_tables.average_distance

    def test_digraph_requires_degree(self):
        with pytest.raises(TopologyError):
            build_topology("generalized-kautz", 16)

    def test_digraph_rejects_degenerate_parameters(self):
        with pytest.raises(TopologyError):
            generalized_kautz(3, 4)
        with pytest.raises(TopologyError):
            generalized_de_bruijn(8, 1)

    def test_build_topology_dispatch(self):
        for family in TOPOLOGY_FAMILIES:
            degree = 3 if family in ("generalized-de-bruijn", "generalized-kautz") else None
            topology = build_topology(family, 16, degree)
            assert topology.n_nodes == 16

    def test_build_topology_unknown_family(self):
        with pytest.raises(TopologyError):
            build_topology("hypercube", 16)

    def test_build_topology_degree_cross_check(self):
        with pytest.raises(TopologyError):
            build_topology("ring", 16, degree=3)

    @pytest.mark.parametrize(
        "family, n_nodes, degree",
        [("spidergon", 8.0, None), ("ring", True, None), ("generalized-kautz", 8, 2.0)],
    )
    def test_build_topology_rejects_non_integral_sizes(self, family, n_nodes, degree):
        with pytest.raises(TopologyError):
            build_topology(family, n_nodes, degree)


class TestRoutingTables:
    def test_distances_symmetric_for_undirected_topology(self):
        tables = build_routing_tables(ring(8))
        assert np.array_equal(tables.distance, tables.distance.T)

    def test_ring_distances(self):
        tables = build_routing_tables(ring(8))
        assert tables.distance[0, 4] == 4
        assert tables.distance[0, 1] == 1
        assert tables.diameter == 4

    def test_next_ports_lead_closer_to_destination(self, small_kautz_topology, small_kautz_routing):
        topology, tables = small_kautz_topology, small_kautz_routing
        for source in range(topology.n_nodes):
            for dest in range(topology.n_nodes):
                if source == dest:
                    continue
                for port in tables.all_next_ports(source, dest):
                    _, neighbor = topology.out_arcs(source)[port]
                    assert tables.distance[neighbor, dest] == tables.distance[source, dest] - 1

    def test_single_next_port_is_first_of_all(self, small_kautz_routing):
        tables = small_kautz_routing
        assert tables.single_next_port(0, 3) == tables.all_next_ports(0, 3)[0]

    def test_no_route_to_self(self, small_kautz_routing):
        with pytest.raises(RoutingError):
            small_kautz_routing.single_next_port(2, 2)

    def test_routing_table_entries_ssp_vs_asp(self):
        tables = build_routing_tables(toroidal_mesh(16))
        ssp_entries = tables.routing_table_entries(algorithm_uses_all_paths=False)
        asp_entries = tables.routing_table_entries(algorithm_uses_all_paths=True)
        assert ssp_entries == 16 * 15
        assert asp_entries >= ssp_entries

    def test_not_strongly_connected_raises(self):
        broken = Topology("b", "test", 3, ((0, 1), (1, 0), (0, 2)))
        with pytest.raises(RoutingError):
            build_routing_tables(broken)

    def test_average_distance_positive(self, small_kautz_routing):
        assert small_kautz_routing.average_distance >= 1.0

    def test_routing_algorithm_enum_flags(self):
        assert not RoutingAlgorithm.SSP_RR.uses_all_paths
        assert not RoutingAlgorithm.SSP_FL.uses_all_paths
        assert RoutingAlgorithm.ASP_FT.uses_all_paths


_LOAD_TOPOLOGIES = [
    ("ring", 8, None),
    ("toroidal-mesh", 16, None),
    ("spidergon", 8, None),
    ("generalized-de-bruijn", 8, 2),
    ("generalized-kautz", 16, 3),
]


def _demand(n_nodes: int) -> np.ndarray:
    """A fixed, uneven all-to-all demand with a zero diagonal."""
    counts = np.random.default_rng(7).integers(0, 4, size=(n_nodes, n_nodes))
    np.fill_diagonal(counts, 0)
    return counts.astype(np.float64)


class TestHopStatisticsAndArcLoads:
    def test_hop_statistics_weight_distances_by_message_count(self):
        tables = build_routing_tables(ring(8))
        counts = np.zeros((8, 8))
        counts[0, 4] = 1.0  # 4 hops
        counts[0, 1] = 3.0  # 1 hop each
        stats = tables.hop_statistics(counts)
        assert stats.total_messages == 4.0
        assert stats.mean == pytest.approx((4 + 3 * 1) / 4)
        assert stats.second_moment == pytest.approx((16 + 3 * 1) / 4)
        assert stats.maximum == 4

    def test_hop_statistics_of_no_traffic_are_zero(self):
        stats = build_routing_tables(ring(8)).hop_statistics(np.zeros((8, 8)))
        assert (stats.total_messages, stats.mean, stats.second_moment, stats.maximum) == (
            0.0, 0.0, 0.0, 0,
        )

    @pytest.mark.parametrize("method", ["hop_statistics", "ssp_arc_loads", "asp_arc_loads"])
    def test_pair_counts_shape_is_checked(self, method):
        tables = build_routing_tables(ring(8))
        with pytest.raises(RoutingError):
            getattr(tables, method)(np.ones((7, 7)))

    def test_ssp_loads_follow_the_single_shortest_path(self):
        topology = ring(4)
        tables = build_routing_tables(topology)
        counts = np.zeros((4, 4))
        counts[0, 1] = 2.0
        loads = tables.ssp_arc_loads(counts)
        expected = np.zeros(topology.n_arcs)
        expected[topology.arcs.index((0, 1))] = 2.0
        assert np.array_equal(loads, expected)

    def test_asp_loads_split_equally_over_shortest_paths(self):
        # 0 -> 2 on a 4-ring has two 2-hop paths, via 1 and via 3.
        topology = ring(4)
        tables = build_routing_tables(topology)
        counts = np.zeros((4, 4))
        counts[0, 2] = 1.0
        loads = tables.asp_arc_loads(counts)
        expected = np.zeros(topology.n_arcs)
        for arc in ((0, 1), (1, 2), (0, 3), (3, 2)):
            expected[topology.arcs.index(arc)] = 0.5
        assert np.allclose(loads, expected)

    @pytest.mark.parametrize("method", ["ssp_arc_loads", "asp_arc_loads"])
    @pytest.mark.parametrize(("family", "n_nodes", "degree"), _LOAD_TOPOLOGIES)
    def test_arc_loads_conserve_message_hops(self, family, n_nodes, degree, method):
        # Every message crosses exactly its shortest-path distance in arcs,
        # however the routing splits it.
        tables = build_routing_tables(build_topology(family, n_nodes, degree))
        counts = _demand(n_nodes)
        loads = getattr(tables, method)(counts)
        assert loads.shape == (tables.topology.n_arcs,)
        assert (loads >= 0).all()
        assert loads.sum() == pytest.approx((counts * tables.distance).sum())
        assert loads.sum() == pytest.approx(
            tables.hop_statistics(counts).mean * counts.sum()
        )

    @pytest.mark.parametrize("n_nodes", [5, 7, 9])
    def test_asp_equals_ssp_where_shortest_paths_are_unique(self, n_nodes):
        # On an odd ring every pair has one shortest path: nothing to split.
        tables = build_routing_tables(ring(n_nodes))
        assert all(
            len(tables.all_next_ports(a, b)) == 1
            for a in range(n_nodes) for b in range(n_nodes) if a != b
        )
        counts = _demand(n_nodes)
        assert np.array_equal(tables.asp_arc_loads(counts), tables.ssp_arc_loads(counts))

    def test_all_next_ports_has_no_route_to_self(self, small_kautz_routing):
        with pytest.raises(RoutingError):
            small_kautz_routing.all_next_ports(2, 2)
