"""NoC topology generators.

A topology is a directed multigraph over ``P`` router nodes.  Undirected
physical links (mesh, ring, spidergon, honeycomb) are represented by a pair of
opposite arcs.  The *degree* ``D`` of a topology is the maximum out-degree,
and the routing element of each node is an ``F x F`` crossbar with
``F = D + 1`` (the extra port connects the local PE), exactly as in the paper.

The topology set T of Section III-A is provided: ring, 2D mesh, toroidal mesh,
spidergon, rectangular honeycomb (brick-wall torus), generalized De Bruijn and
generalized Kautz digraphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TopologyError


@dataclass(frozen=True)
class Topology:
    """A directed interconnection graph over ``n_nodes`` routers.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"generalized-kautz(P=22,D=3)"``.
    family:
        Topology family key, e.g. ``"generalized-kautz"``.
    n_nodes:
        Number of router nodes (the parallelism degree ``P``).
    arcs:
        Ordered tuple of directed arcs ``(source, destination)``.  The arc
        index defines the *output port number* at the source node (ports are
        numbered in the order the arcs appear per source) and the *input port
        number* at the destination node.
    """

    name: str
    family: str
    n_nodes: int
    arcs: tuple[tuple[int, int], ...]
    _out_ports: dict[int, list[tuple[int, int]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _in_ports: dict[int, list[tuple[int, int]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.n_nodes <= 1:
            raise TopologyError(f"a topology needs at least 2 nodes, got {self.n_nodes}")
        seen: set[tuple[int, int]] = set()
        for src, dst in self.arcs:
            if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                raise TopologyError(f"arc ({src}, {dst}) references a node outside the topology")
            if src == dst:
                raise TopologyError(f"self-loop arc at node {src} is not allowed")
            if (src, dst) in seen:
                raise TopologyError(f"duplicate arc ({src}, {dst})")
            seen.add((src, dst))
        out_ports: dict[int, list[tuple[int, int]]] = {n: [] for n in range(self.n_nodes)}
        in_ports: dict[int, list[tuple[int, int]]] = {n: [] for n in range(self.n_nodes)}
        for arc_index, (src, dst) in enumerate(self.arcs):
            out_ports[src].append((arc_index, dst))
            in_ports[dst].append((arc_index, src))
        object.__setattr__(self, "_out_ports", out_ports)
        object.__setattr__(self, "_in_ports", in_ports)

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def out_arcs(self, node: int) -> list[tuple[int, int]]:
        """Outgoing arcs of ``node`` as ``(arc_index, destination)`` pairs."""
        return list(self._out_ports[node])

    def in_arcs(self, node: int) -> list[tuple[int, int]]:
        """Incoming arcs of ``node`` as ``(arc_index, source)`` pairs."""
        return list(self._in_ports[node])

    def out_neighbors(self, node: int) -> list[int]:
        """Destination nodes reachable in one hop from ``node``."""
        return [dst for _, dst in self._out_ports[node]]

    def out_degree(self, node: int) -> int:
        """Out-degree of a node."""
        return len(self._out_ports[node])

    def in_degree(self, node: int) -> int:
        """In-degree of a node."""
        return len(self._in_ports[node])

    @property
    def degree(self) -> int:
        """Topology degree ``D`` — the maximum out-degree over all nodes."""
        return max(self.out_degree(n) for n in range(self.n_nodes))

    @property
    def crossbar_size(self) -> int:
        """Crossbar size ``F = D + 1`` of the routing element (paper Fig. 1)."""
        return self.degree + 1

    @property
    def n_arcs(self) -> int:
        """Number of directed arcs (unidirectional physical links)."""
        return len(self.arcs)

    # ------------------------------------------------------------------ #
    # Dense (struct-of-arrays) views used by the vectorized cycle engine
    # ------------------------------------------------------------------ #
    def _dense_views(self) -> dict[str, np.ndarray]:
        """Build (once) the dense port-indexed arrays describing this graph."""
        cached = self.__dict__.get("_dense_cache")
        if cached is not None:
            return cached
        n = self.n_nodes
        max_out = max((len(self._out_ports[v]) for v in range(n)), default=0)
        out_degrees = np.zeros(n, dtype=np.int64)
        in_degrees = np.zeros(n, dtype=np.int64)
        out_neighbor = np.full((n, max(max_out, 1)), -1, dtype=np.int64)
        # (node, out port) -> input-port index at the reached neighbour.  The
        # input-port number of an arc is its position in the destination's
        # in_arcs list, mirroring how the simulators wire FIFOs to links.
        dest_input_port = np.full((n, max(max_out, 1)), -1, dtype=np.int64)
        arc_id = np.full((n, max(max_out, 1)), -1, dtype=np.int64)
        arc_input_port: dict[int, int] = {}
        for node in range(n):
            in_degrees[node] = len(self._in_ports[node])
            for input_port, (arc_index, _) in enumerate(self._in_ports[node]):
                arc_input_port[arc_index] = input_port
        for node in range(n):
            out_degrees[node] = len(self._out_ports[node])
            for out_port, (arc_index, neighbor) in enumerate(self._out_ports[node]):
                out_neighbor[node, out_port] = neighbor
                dest_input_port[node, out_port] = arc_input_port[arc_index]
                arc_id[node, out_port] = arc_index
        views = {
            "out_degrees": out_degrees,
            "in_degrees": in_degrees,
            "out_neighbor": out_neighbor,
            "dest_input_port": dest_input_port,
            "arc_id": arc_id,
        }
        object.__setattr__(self, "_dense_cache", views)
        return views

    @property
    def out_degrees(self) -> np.ndarray:
        """``(P,)`` out-degree of every node."""
        return self._dense_views()["out_degrees"]

    @property
    def in_degrees(self) -> np.ndarray:
        """``(P,)`` in-degree of every node."""
        return self._dense_views()["in_degrees"]

    @property
    def out_neighbor_matrix(self) -> np.ndarray:
        """``(P, Dmax)`` neighbour reached through each output port (-1 pad)."""
        return self._dense_views()["out_neighbor"]

    @property
    def dest_input_port_matrix(self) -> np.ndarray:
        """``(P, Dmax)`` input-port index at the neighbour reached through each
        output port (-1 pad) — the link-to-FIFO wiring of the cycle engine."""
        return self._dense_views()["dest_input_port"]

    @property
    def arc_id_matrix(self) -> np.ndarray:
        """``(P, Dmax)`` global arc index behind each (node, output port); -1 pad.

        Used by the analytical model's arc-load accounting: per-arc traffic
        accumulated while walking routing paths indexes directly into a flat
        ``(n_arcs,)`` load vector through this matrix.
        """
        return self._dense_views()["arc_id"]

    def is_strongly_connected(self) -> bool:
        """True when every node can reach every other node."""
        for start in range(self.n_nodes):
            reached = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbor in self.out_neighbors(node):
                    if neighbor not in reached:
                        reached.add(neighbor)
                        frontier.append(neighbor)
            if len(reached) != self.n_nodes:
                return False
        return True

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


# --------------------------------------------------------------------------- #
# Undirected helper
# --------------------------------------------------------------------------- #
def _from_undirected_edges(
    name: str, family: str, n_nodes: int, edges: set[tuple[int, int]]
) -> Topology:
    """Create a topology from undirected edges (two arcs per edge)."""
    arcs: list[tuple[int, int]] = []
    for a, b in sorted(edges):
        arcs.append((a, b))
        arcs.append((b, a))
    return Topology(name=name, family=family, n_nodes=n_nodes, arcs=tuple(arcs))


def _factor_pair(n_nodes: int) -> tuple[int, int]:
    """Factor ``n_nodes`` into the most square ``rows x cols`` grid."""
    best: tuple[int, int] | None = None
    for rows in range(1, int(n_nodes**0.5) + 1):
        if n_nodes % rows == 0:
            best = (rows, n_nodes // rows)
    if best is None or best[0] == 1:
        raise TopologyError(
            f"{n_nodes} nodes cannot be arranged in a non-degenerate 2D grid"
        )
    return best


# --------------------------------------------------------------------------- #
# Topology factories
# --------------------------------------------------------------------------- #
def ring(n_nodes: int) -> Topology:
    """Bidirectional ring, degree 2."""
    if n_nodes < 3:
        raise TopologyError(f"a ring needs at least 3 nodes, got {n_nodes}")
    edges = {(i, (i + 1) % n_nodes) for i in range(n_nodes)}
    normalized = {(min(a, b), max(a, b)) for a, b in edges}
    return _from_undirected_edges(f"ring(P={n_nodes})", "ring", n_nodes, normalized)


def mesh_2d(n_nodes: int) -> Topology:
    """Open 2D mesh (degree up to 4) over the most square factorisation of ``n_nodes``."""
    rows, cols = _factor_pair(n_nodes)
    edges: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.add((node, node + 1))
            if r + 1 < rows:
                edges.add((node, node + cols))
    return _from_undirected_edges(
        f"mesh(P={n_nodes},{rows}x{cols})", "mesh", n_nodes, edges
    )


def toroidal_mesh(n_nodes: int) -> Topology:
    """Toroidal (wrap-around) 2D mesh, degree 4."""
    rows, cols = _factor_pair(n_nodes)
    if rows < 3 or cols < 3:
        # Wrap-around links on a 2-wide dimension would duplicate existing edges.
        raise TopologyError(
            f"a toroidal mesh needs both grid dimensions >= 3, got {rows}x{cols}"
        )
    edges: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add((min(node, right), max(node, right)))
            edges.add((min(node, down), max(node, down)))
    return _from_undirected_edges(
        f"toroidal-mesh(P={n_nodes},{rows}x{cols})", "toroidal-mesh", n_nodes, edges
    )


def spidergon(n_nodes: int) -> Topology:
    """Spidergon: bidirectional ring plus diameter (across) links, degree 3."""
    if n_nodes < 4 or n_nodes % 2 != 0:
        raise TopologyError(f"a spidergon needs an even node count >= 4, got {n_nodes}")
    edges: set[tuple[int, int]] = set()
    half = n_nodes // 2
    for i in range(n_nodes):
        ring_next = (i + 1) % n_nodes
        across = (i + half) % n_nodes
        edges.add((min(i, ring_next), max(i, ring_next)))
        edges.add((min(i, across), max(i, across)))
    return _from_undirected_edges(f"spidergon(P={n_nodes})", "spidergon", n_nodes, edges)


def honeycomb_torus(n_nodes: int) -> Topology:
    """Rectangular (brick-wall) honeycomb with wrap-around links.

    Nodes are arranged on a ``rows x cols`` grid with horizontal wrap-around
    links on every row and vertical links on alternating columns (brick-wall
    pattern), plus vertical wrap-around, giving a maximum degree of 4 — the
    "rectangular honeycomb" configuration used in the paper's Table I.
    """
    rows, cols = _factor_pair(n_nodes)
    edges: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            right = r * cols + (c + 1) % cols
            if right != node:
                edges.add((min(node, right), max(node, right)))
            # Brick-wall vertical links: present when (r + c) is even.
            if rows > 1 and (r + c) % 2 == 0:
                down = ((r + 1) % rows) * cols + c
                if down != node:
                    edges.add((min(node, down), max(node, down)))
    return _from_undirected_edges(
        f"honeycomb(P={n_nodes},{rows}x{cols})", "honeycomb", n_nodes, edges
    )


def generalized_de_bruijn(n_nodes: int, degree: int) -> Topology:
    """Generalized De Bruijn digraph GB(degree, n_nodes).

    Arcs go from node ``i`` to ``(degree * i + k) mod n_nodes`` for
    ``k = 0 .. degree-1``.  Self-loops and duplicate arcs, which appear for a
    few ``(i, k)`` combinations, are redirected to the next free node so every
    node keeps out-degree ``degree`` whenever possible.
    """
    return _iterated_line_digraph(
        n_nodes,
        degree,
        lambda i, k: (degree * i + k) % n_nodes,
        family="generalized-de-bruijn",
    )


def generalized_kautz(n_nodes: int, degree: int) -> Topology:
    """Generalized Kautz digraph GK(degree, n_nodes).

    Arcs go from node ``i`` to ``(-degree * i - k - 1) mod n_nodes`` for
    ``k = 0 .. degree-1``.  Kautz digraphs achieve (near-)optimal diameter for
    a given degree, which is why they dominate the paper's Table I.
    """
    return _iterated_line_digraph(
        n_nodes,
        degree,
        lambda i, k: (-degree * i - k - 1) % n_nodes,
        family="generalized-kautz",
    )


def _iterated_line_digraph(n_nodes, degree, successor, family: str) -> Topology:
    """Shared construction for De Bruijn / Kautz style digraphs."""
    if n_nodes < 2:
        raise TopologyError(f"{family} needs at least 2 nodes, got {n_nodes}")
    if degree < 2:
        raise TopologyError(f"{family} needs degree >= 2, got {degree}")
    if degree >= n_nodes:
        raise TopologyError(
            f"{family} needs degree < n_nodes, got degree={degree}, n_nodes={n_nodes}"
        )
    arcs: list[tuple[int, int]] = []
    for node in range(n_nodes):
        used: set[int] = set()
        for k in range(degree):
            target = successor(node, k)
            # Avoid self-loops and duplicate arcs by moving to the next node.
            attempts = 0
            while (target == node or target in used) and attempts < n_nodes:
                target = (target + 1) % n_nodes
                attempts += 1
            if target == node or target in used:
                raise TopologyError(
                    f"cannot build {family}(P={n_nodes}, D={degree}): "
                    f"no duplicate-free successor for node {node}"
                )
            used.add(target)
            arcs.append((node, target))
    name = f"{family}(P={n_nodes},D={degree})"
    topology = Topology(name=name, family=family, n_nodes=n_nodes, arcs=tuple(arcs))
    if not topology.is_strongly_connected():
        raise TopologyError(f"{name} is not strongly connected")
    return topology


#: Registry used by the design-space exploration: family name -> builder taking
#: (n_nodes, degree) and returning a Topology.  Families whose degree is fixed
#: by construction ignore the degree argument but validate it.
TOPOLOGY_FAMILIES: dict[str, str] = {
    "ring": "degree 2, bidirectional ring",
    "mesh": "degree <= 4, open 2D mesh",
    "toroidal-mesh": "degree 4, wrap-around 2D mesh",
    "spidergon": "degree 3, ring + across links",
    "honeycomb": "degree <= 4, rectangular (brick-wall) honeycomb torus",
    "generalized-de-bruijn": "degree D directed De Bruijn digraph",
    "generalized-kautz": "degree D directed Kautz digraph",
}


def build_topology(family: str, n_nodes: int, degree: int | None = None) -> Topology:
    """Build a topology by family name; ``degree`` is required for digraph families.

    Fixed-degree families (ring, spidergon, toroidal mesh, honeycomb, mesh)
    accept a ``degree`` argument only as a cross-check: a mismatch raises
    :class:`~repro.errors.TopologyError`.
    """
    if family not in TOPOLOGY_FAMILIES:
        raise TopologyError(
            f"unknown topology family {family!r}; known families: {sorted(TOPOLOGY_FAMILIES)}"
        )
    if family == "generalized-de-bruijn":
        if degree is None:
            raise TopologyError("generalized-de-bruijn requires an explicit degree")
        return generalized_de_bruijn(n_nodes, degree)
    if family == "generalized-kautz":
        if degree is None:
            raise TopologyError("generalized-kautz requires an explicit degree")
        return generalized_kautz(n_nodes, degree)
    builders = {
        "ring": ring,
        "mesh": mesh_2d,
        "toroidal-mesh": toroidal_mesh,
        "spidergon": spidergon,
        "honeycomb": honeycomb_torus,
    }
    topology = builders[family](n_nodes)
    if degree is not None and topology.degree != degree:
        raise TopologyError(
            f"{family}(P={n_nodes}) has degree {topology.degree}, requested {degree}"
        )
    return topology
