"""Property tests for the shortest-path routing tables and their dense views.

For every topology family and parallelism degree in the grid:

* every (src, dst) route walked through the dense next-hop table terminates at
  dst in exactly ``distance[src, dst]`` hops, and never in more than the
  topology diameter;
* every ASP port strictly decreases the distance to the destination (so *any*
  greedy choice over the ASP tables terminates);
* ASP-FT fault tolerance: when (src, dst) has alternative shortest-path ports,
  a route taken through any alternative reaches dst without ever traversing
  the primary port's (faulty) link;
* the dense matrices agree entry-for-entry with the tuple tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.noc import build_routing_tables, build_topology

TOPOLOGY_GRID = [
    ("ring", 6, None),
    ("ring", 9, None),
    ("mesh", 9, None),
    ("mesh", 12, None),
    ("toroidal-mesh", 9, None),
    ("spidergon", 8, None),
    ("spidergon", 12, None),
    ("honeycomb", 8, None),
    ("generalized-de-bruijn", 10, 2),
    ("generalized-de-bruijn", 16, 3),
    ("generalized-kautz", 8, 3),
    ("generalized-kautz", 22, 3),
    ("generalized-kautz", 16, 4),
]

_CACHE: dict = {}


def _tables(spec):
    if spec not in _CACHE:
        topology = build_topology(*spec)
        _CACHE[spec] = (topology, build_routing_tables(topology))
    return _CACHE[spec]


def _neighbor_via_port(topology, node, port):
    return int(topology.out_neighbor_matrix[node, port])


@pytest.mark.parametrize("spec", TOPOLOGY_GRID, ids=lambda s: f"{s[0]}-P{s[1]}")
class TestDenseRoutingTables:
    def test_ssp_routes_terminate_within_diameter(self, spec):
        topology, tables = _tables(spec)
        next_port = tables.next_port_matrix
        diameter = tables.diameter
        n = topology.n_nodes
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    assert next_port[src, dst] == -1
                    continue
                node, hops = src, 0
                while node != dst:
                    node = _neighbor_via_port(topology, node, int(next_port[node, dst]))
                    hops += 1
                    assert hops <= diameter, f"route {src}->{dst} exceeded the diameter"
                assert hops == int(tables.distance[src, dst])

    def test_every_asp_port_decreases_distance(self, spec):
        topology, tables = _tables(spec)
        n = topology.n_nodes
        padded = tables.all_ports_matrix
        counts = (padded >= 0).sum(axis=2)
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    assert counts[src, dst] == 0
                    continue
                ports = padded[src, dst, : counts[src, dst]]
                assert len(ports) >= 1
                for port in ports:
                    neighbor = _neighbor_via_port(topology, src, int(port))
                    assert (
                        tables.distance[neighbor, dst] + 1 == tables.distance[src, dst]
                    ), f"ASP port {port} at {src} does not shorten the path to {dst}"

    def test_asp_alternatives_avoid_primary_faulty_link(self, spec):
        """With the primary link at src marked faulty, every alternative ASP
        port still reaches dst within distance(src, dst) hops and never routes
        through the faulty arc."""
        topology, tables = _tables(spec)
        n = topology.n_nodes
        checked = 0
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                ports = tables.all_next_ports(src, dst)
                if len(ports) < 2:
                    continue
                primary = tables.single_next_port(src, dst)
                faulty_arc = (src, _neighbor_via_port(topology, src, primary))
                for alternative in ports:
                    if alternative == primary:
                        continue
                    node = _neighbor_via_port(topology, src, alternative)
                    hops = 1
                    assert (node, src) != faulty_arc
                    while node != dst:
                        port = tables.single_next_port(node, dst)
                        nxt = _neighbor_via_port(topology, node, port)
                        assert (node, nxt) != faulty_arc, (
                            f"alternative route {src}->{dst} re-entered the faulty link"
                        )
                        node = nxt
                        hops += 1
                    assert hops == int(tables.distance[src, dst])
                    checked += 1
        # Kautz/De Bruijn digraphs route over (near-)unique shortest paths;
        # grid-like topologies are the ones that must expose alternatives.
        if spec[0] in ("toroidal-mesh", "mesh"):
            assert checked > 0, "grid topologies must expose alternative paths"

    def test_dense_views_agree_with_tuple_tables(self, spec):
        topology, tables = _tables(spec)
        n = topology.n_nodes
        for src in range(n):
            for dst in range(n):
                ports = tables.next_ports[src][dst]
                if not ports:
                    assert tables.next_port_matrix[src, dst] == -1
                    continue
                assert tables.next_port_matrix[src, dst] == ports[0]
                dense = tables.all_ports_matrix[src, dst]
                assert tuple(dense[: len(ports)]) == ports
                assert (dense[len(ports) :] == -1).all()

    def test_topology_dense_wiring_agrees_with_arcs(self, spec):
        topology, _ = _tables(spec)
        n = topology.n_nodes
        for node in range(n):
            out_arcs = topology.out_arcs(node)
            assert topology.out_degrees[node] == len(out_arcs)
            for port, (arc_index, neighbor) in enumerate(out_arcs):
                assert topology.out_neighbor_matrix[node, port] == neighbor
                input_port = int(topology.dest_input_port_matrix[node, port])
                in_arc_index, source = topology.in_arcs(neighbor)[input_port]
                assert in_arc_index == arc_index
                assert source == node
            assert topology.in_degrees[node] == len(topology.in_arcs(node))

    def test_distance_matrix_is_metric_like(self, spec):
        topology, tables = _tables(spec)
        distance = tables.distance
        n = topology.n_nodes
        assert (np.diag(distance) == 0).all()
        off_diagonal = distance[~np.eye(n, dtype=bool)]
        assert (off_diagonal >= 1).all()
        assert tables.diameter == int(distance.max())
        assert tables.average_distance == pytest.approx(float(off_diagonal.mean()))
