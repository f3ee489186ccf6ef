"""Shortest-path routing tables for the NoC.

The paper's routing algorithms rely on the off-line computation of shortest
paths between all node pairs:

* **SSP** (single shortest path) keeps one next-hop output port per
  (current node, destination) pair — one routing table;
* **ASP** (all local shortest paths) keeps *every* output port that lies on
  some shortest path — multiple routing tables, enabling the traffic-spreading
  policy (ASP-FT).

Both are produced by :func:`build_routing_tables` using breadth-first search
from every destination over the reversed graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.noc.topologies import Topology


@dataclass(frozen=True)
class HopStatistics:
    """Traffic-weighted moments of the shortest-path hop-count distribution.

    Produced by :meth:`RoutingTables.hop_statistics`; the analytical NoC
    model builds its zero-contention latency floor from these moments.
    """

    total_messages: float
    mean: float
    second_moment: float
    maximum: int


@dataclass(frozen=True)
class RoutingTables:
    """Precomputed distance and next-hop information for one topology.

    Attributes
    ----------
    topology:
        The topology the tables were built for.
    distance:
        ``(P, P)`` hop-count matrix.
    next_ports:
        ``next_ports[node][dest]`` is the tuple of *output-port indices* (local
        arc positions, i.e. indices into ``topology.out_arcs(node)``) that lie
        on a shortest path from ``node`` to ``dest``.  Empty for
        ``node == dest``.
    """

    topology: Topology
    distance: np.ndarray
    next_ports: tuple[tuple[tuple[int, ...], ...], ...]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def single_next_port(self, node: int, dest: int) -> int:
        """The SSP output port from ``node`` towards ``dest`` (first shortest path)."""
        ports = self.next_ports[node][dest]
        if not ports:
            raise RoutingError(f"no route from node {node} to node {dest}")
        return ports[0]

    def all_next_ports(self, node: int, dest: int) -> tuple[int, ...]:
        """All output ports of ``node`` lying on a shortest path to ``dest``."""
        ports = self.next_ports[node][dest]
        if not ports:
            raise RoutingError(f"no route from node {node} to node {dest}")
        return ports

    # ------------------------------------------------------------------ #
    # Dense (struct-of-arrays) views used by the vectorized cycle engine
    # ------------------------------------------------------------------ #
    def _dense_views(self) -> dict[str, np.ndarray]:
        """Build (once) dense array views of the per-pair port tuples."""
        cached = self.__dict__.get("_dense_cache")
        if cached is not None:
            return cached
        n = self.topology.n_nodes
        max_ports = 1
        for node in range(n):
            for dest in range(n):
                max_ports = max(max_ports, len(self.next_ports[node][dest]))
        single = np.full((n, n), -1, dtype=np.int64)
        padded = np.full((n, n, max_ports), -1, dtype=np.int64)
        for node in range(n):
            for dest in range(n):
                ports = self.next_ports[node][dest]
                if not ports:
                    continue
                single[node, dest] = ports[0]
                padded[node, dest, : len(ports)] = ports
        views = {"single": single, "padded": padded}
        object.__setattr__(self, "_dense_cache", views)
        return views

    @property
    def next_port_matrix(self) -> np.ndarray:
        """``(P, P)`` SSP next-hop output port per (node, dest); -1 on the diagonal."""
        return self._dense_views()["single"]

    @property
    def all_ports_matrix(self) -> np.ndarray:
        """``(P, P, Kmax)`` every shortest-path output port per pair, -1 padded."""
        return self._dense_views()["padded"]

    @property
    def diameter(self) -> int:
        """Largest shortest-path distance between any node pair."""
        return int(self.distance.max())

    # ------------------------------------------------------------------ #
    # Hop-count statistics and arc loads (analytical-model machinery)
    # ------------------------------------------------------------------ #
    def hop_statistics(self, pair_counts: np.ndarray) -> "HopStatistics":
        """Moments of the hop-count distribution under a traffic demand.

        ``pair_counts`` is a ``(P, P)`` matrix of message counts per
        (source, destination) pair — typically
        :meth:`repro.noc.traffic.TrafficPattern.pair_counts`.  The returned
        moments weight each pair's shortest-path distance by its message
        count; pairs with zero messages contribute nothing.  The maximum is
        always bounded by :attr:`diameter` (shortest-path routing never plans
        a longer route; SCM deflections can exceed it at *simulation* time,
        which is exactly the misroute excess the analytical model corrects
        for separately).
        """
        weights = np.asarray(pair_counts, dtype=np.float64)
        if weights.shape != self.distance.shape:
            raise RoutingError(
                f"pair_counts must be shaped {self.distance.shape}, got {weights.shape}"
            )
        total = float(weights.sum())
        if total <= 0:
            return HopStatistics(
                total_messages=0.0, mean=0.0, second_moment=0.0, maximum=0
            )
        dist = self.distance.astype(np.float64)
        mean = float((weights * dist).sum() / total)
        second = float((weights * dist * dist).sum() / total)
        maximum = int(self.distance[weights > 0].max(initial=0))
        return HopStatistics(
            total_messages=total, mean=mean, second_moment=second, maximum=maximum
        )

    def ssp_arc_loads(self, pair_counts: np.ndarray) -> np.ndarray:
        """``(n_arcs,)`` messages crossing each arc under SSP routing.

        SSP follows exactly one next-hop port per (node, destination), so the
        path of every (source, destination) pair is unique and the per-arc
        load is exact: it is the number of messages whose shortest path uses
        the arc.  Computed by walking all pairs toward their destinations in
        lockstep over the dense next-port matrix (diameter-bounded steps).
        """
        weights = np.asarray(pair_counts, dtype=np.float64)
        n = self.topology.n_nodes
        if weights.shape != (n, n):
            raise RoutingError(f"pair_counts must be shaped ({n}, {n}), got {weights.shape}")
        loads = np.zeros(max(self.topology.n_arcs, 1), dtype=np.float64)
        next_port = self.next_port_matrix
        arc_id = self.topology.arc_id_matrix
        neighbor = self.topology.out_neighbor_matrix
        src, dst = np.nonzero(weights)
        if src.size == 0:
            return loads
        w = weights[src, dst]
        live = src != dst
        current, dest, w = src[live], dst[live], w[live]
        while current.size:
            port = next_port[current, dest]
            np.add.at(loads, arc_id[current, port], w)
            current = neighbor[current, port]
            live = current != dest
            current, dest, w = current[live], dest[live], w[live]
        return loads

    def asp_arc_loads(self, pair_counts: np.ndarray) -> np.ndarray:
        """``(n_arcs,)`` fractional arc loads under equal-split ASP routing.

        ASP-FT spreads each node's traffic over *every* shortest-path output
        port, picking the least-used free one; the analytical model
        approximates that spreading as an equal fractional split.  For each
        destination the demand is relaxed from the farthest nodes inward
        (nodes at distance ``l`` only ever forward to nodes at ``l - 1``), so
        a single pass per destination propagates all flow exactly.
        """
        weights = np.asarray(pair_counts, dtype=np.float64)
        n = self.topology.n_nodes
        if weights.shape != (n, n):
            raise RoutingError(f"pair_counts must be shaped ({n}, {n}), got {weights.shape}")
        loads = np.zeros(max(self.topology.n_arcs, 1), dtype=np.float64)
        arc_id = self.topology.arc_id_matrix
        neighbor = self.topology.out_neighbor_matrix
        for dest in range(n):
            if not weights[:, dest].any():
                continue
            flow = weights[:, dest].copy()
            order = np.argsort(-self.distance[:, dest], kind="stable")
            for node in order:
                node = int(node)
                if node == dest or flow[node] <= 0:
                    continue
                ports = self.next_ports[node][dest]
                share = flow[node] / len(ports)
                for port in ports:
                    loads[arc_id[node, port]] += share
                    flow[neighbor[node, port]] += share
        return loads

    @property
    def average_distance(self) -> float:
        """Mean shortest-path distance over ordered pairs of distinct nodes."""
        n = self.topology.n_nodes
        mask = ~np.eye(n, dtype=bool)
        return float(self.distance[mask].mean())

    def routing_table_entries(self, algorithm_uses_all_paths: bool) -> int:
        """Number of (node, dest) -> port entries stored by the routing memory.

        SSP stores one port per destination per node; ASP stores every
        shortest-path port.  Used by the area model of the PP node
        architecture.
        """
        n = self.topology.n_nodes
        if not algorithm_uses_all_paths:
            return n * (n - 1)
        total = 0
        for node in range(n):
            for dest in range(n):
                if node != dest:
                    total += len(self.next_ports[node][dest])
        return total


def build_routing_tables(topology: Topology) -> RoutingTables:
    """Compute hop distances and shortest-path output ports for every node pair."""
    n = topology.n_nodes
    # Reverse adjacency: for BFS from each destination over reversed arcs.
    reverse_adj: list[list[int]] = [[] for _ in range(n)]
    for src, dst in topology.arcs:
        reverse_adj[dst].append(src)

    distance = np.full((n, n), -1, dtype=np.int64)
    for dest in range(n):
        distance[dest, dest] = 0
        queue: deque[int] = deque([dest])
        while queue:
            node = queue.popleft()
            for predecessor in reverse_adj[node]:
                if distance[predecessor, dest] < 0:
                    distance[predecessor, dest] = distance[node, dest] + 1
                    queue.append(predecessor)
    if (distance < 0).any():
        raise RoutingError(
            f"topology {topology.name} is not strongly connected; routing impossible"
        )

    next_ports: list[list[tuple[int, ...]]] = []
    for node in range(n):
        out_arcs = topology.out_arcs(node)
        per_dest: list[tuple[int, ...]] = []
        for dest in range(n):
            if node == dest:
                per_dest.append(())
                continue
            ports = tuple(
                port_index
                for port_index, (_, neighbor) in enumerate(out_arcs)
                if distance[neighbor, dest] + 1 == distance[node, dest]
            )
            if not ports:
                raise RoutingError(
                    f"inconsistent distances: no shortest-path port from {node} to {dest}"
                )
            per_dest.append(ports)
        next_ports.append(per_dest)

    return RoutingTables(
        topology=topology,
        distance=distance,
        next_ports=tuple(tuple(row) for row in next_ports),
    )
