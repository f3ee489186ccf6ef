"""Balanced k-way graph partitioning (Metis substitute).

The paper maps LDPC check nodes onto NoC nodes with the Metis graph
partitioner.  This module provides a self-contained substitute with the same
objective — balanced part sizes, minimum weighted edge cut — built from:

* a breadth-first *region-growing* initial partition (seeded from several
  starting vertices for diversity), and
* a boundary Kernighan–Lin / Fiduccia–Mattheyses style refinement that
  greedily moves boundary vertices to the neighbouring part with the largest
  cut-weight gain while respecting a balance constraint.

Multiple seeded attempts are made and the best cut is kept, which mirrors the
paper's "framework built around the Metis package [that] checks the produced
interleavers ... selecting the optimal one".

The graph is held as arrays: int64 edge ends ``(E, 2)`` and weights ``(E,)``
in the caller's edge order, and a CSR adjacency that lists each vertex's
neighbours in that same edge order (heavy-edge matching takes the first
strictly heaviest neighbour, so the order decides its ties).  Coarsening and
the cut weight are whole-array operations; region growing and matching are
sequential greedy walks over the CSR lists.

The refinement visits the vertices in order and moves each one to the
feasible part with the largest positive gain (ties to the lowest part id).
Its block search is exact: until a vertex moves, no connection or part load
changes, so the rule's outcome for a whole block of consecutive vertices can
be read at once off a dense ``(n, P)`` matrix of each vertex's edge weight
into each part.  The first vertex of the block whose outcome is a move is the
next move of the one-vertex-at-a-time pass; it is applied (the part loads and
its neighbours' rows updated) and the search resumes at the vertex after it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.utils.graph import merge_parallel_edges, stable_argsort
from repro.utils.rng import make_rng

#: Consecutive vertices whose refinement moves are evaluated as one array.
_BLOCK = 64
_ROWS = np.arange(_BLOCK)


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of one partitioning run.

    Attributes
    ----------
    assignment:
        ``assignment[v]`` is the part (NoC node) of vertex ``v``.
    n_parts:
        Number of parts requested.
    cut_weight:
        Total weight of edges whose endpoints lie in different parts.
    part_sizes:
        Number of vertices in each part.
    """

    assignment: np.ndarray
    n_parts: int
    cut_weight: int
    part_sizes: np.ndarray

    @classmethod
    def from_assignment(
        cls, assignment: np.ndarray, n_parts: int, ends: np.ndarray, weights: np.ndarray
    ) -> "PartitionResult":
        """Measure an assignment of the graph ``(ends, weights)``: its cut weight and part sizes."""
        return cls(
            assignment=assignment,
            n_parts=n_parts,
            cut_weight=_cut_weight(assignment, ends, weights),
            part_sizes=np.bincount(assignment, minlength=n_parts),
        )

    @property
    def imbalance(self) -> float:
        """Max part size divided by the ideal (mean) part size."""
        mean = self.part_sizes.mean()
        return float(self.part_sizes.max() / mean) if mean else 1.0


class _Graph:
    """Edge arrays plus a CSR adjacency keeping each vertex's neighbours in edge order."""

    def __init__(self, n_vertices: int, ends: np.ndarray, weights: np.ndarray):
        self.n_vertices = n_vertices
        self.ends = ends
        self.weights = weights
        # Half-edges interleaved a->b, b->a per edge: a stable sort by source
        # then lists each vertex's neighbours in edge order.  Self-loops are
        # never cut, so they are left out.
        loops = ends[:, 0] == ends[:, 1]
        directed = ends[~loops]
        source = directed.reshape(-1)
        order = stable_argsort(source, n_vertices)
        self.offsets = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(source, minlength=n_vertices), out=self.offsets[1:])
        self.sources = source[order]
        self.neighbors = directed[:, ::-1].reshape(-1)[order]
        self.neighbor_weights = np.repeat(weights[~loops], 2)[order]

    def lists(self) -> tuple[list[int], list[int], list[int]]:
        """The CSR as Python lists, for the sequential walks."""
        return self.offsets.tolist(), self.neighbors.tolist(), self.neighbor_weights.tolist()


def _cut_weight(assignment: np.ndarray, ends: np.ndarray, weights: np.ndarray) -> int:
    """Total weight of the edges whose endpoints lie in different parts."""
    return int(weights[assignment[ends[:, 0]] != assignment[ends[:, 1]]].sum())


def _region_growing_initial(
    graph: _Graph,
    n_parts: int,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grow parts one at a time from BFS frontiers, preferring well-connected vertices."""
    n_vertices = graph.n_vertices
    offsets, neighbors, edge_weights = graph.lists()
    weights = vertex_weights.tolist()
    target = float(np.sum(weights)) / n_parts
    assignment = [-1] * n_vertices
    unassigned = set(range(n_vertices))
    for part in range(n_parts):
        if not unassigned:
            break
        remaining_parts = n_parts - part
        remaining_weight = float(np.sum([weights[v] for v in unassigned]))
        budget = min(remaining_weight / remaining_parts, target)
        member = int(rng.choice(sorted(unassigned)))
        # Grow by repeatedly taking the unassigned vertex with the strongest
        # connection to the current part, lowest id on ties.  ``heap`` holds
        # (-connection, vertex) entries; one whose strength is no longer the
        # vertex's current connection is stale and skipped when popped.
        part_weight = weights[member]
        assignment[member] = part
        unassigned.discard(member)
        connection: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        while part_weight < budget and unassigned:
            # Refresh connection strengths from the most recent member.
            for index in range(offsets[member], offsets[member + 1]):
                neighbor = neighbors[index]
                if assignment[neighbor] == -1:
                    strength = connection.get(neighbor, 0) + edge_weights[index]
                    connection[neighbor] = strength
                    heapq.heappush(heap, (-strength, neighbor))
            if connection:
                strength, member = heapq.heappop(heap)
                while connection.get(member) != -strength:
                    strength, member = heapq.heappop(heap)
                del connection[member]
            else:
                member = int(rng.choice(sorted(unassigned)))
            assignment[member] = part
            unassigned.discard(member)
            part_weight += weights[member]
    # Any leftovers (rounding) go to the lightest parts.
    if unassigned:
        loads = [0.0] * n_parts
        for vertex, part in enumerate(assignment):
            if part >= 0:
                loads[part] += weights[vertex]
        for vertex in sorted(unassigned):
            part = loads.index(min(loads))
            assignment[vertex] = part
            loads[part] += weights[vertex]
    return np.array(assignment, dtype=np.int64)


def _connections(graph: _Graph, assignment: np.ndarray, n_parts: int) -> np.ndarray:
    """``(n, P)`` matrix: the summed weight of each vertex's edges into each part."""
    connections = np.zeros((graph.n_vertices, n_parts), dtype=np.int64)
    np.add.at(
        connections, (graph.sources, assignment[graph.neighbors]), graph.neighbor_weights
    )
    return connections


def _move(
    connections: np.ndarray, graph: _Graph, vertex: int, old: int, new: int
) -> None:
    """Update the neighbours' rows of ``connections`` for ``vertex`` moving ``old -> new``."""
    lo, hi = graph.offsets[vertex], graph.offsets[vertex + 1]
    neighbors, weights = graph.neighbors[lo:hi], graph.neighbor_weights[lo:hi]
    np.subtract.at(connections, (neighbors, old), weights)
    np.add.at(connections, (neighbors, new), weights)


def _refine(
    graph: _Graph,
    assignment: np.ndarray,
    n_parts: int,
    max_passes: int,
    vertex_weights: np.ndarray,
    max_load: float,
) -> np.ndarray:
    """Greedy boundary refinement: move vertices to the part with the best gain.

    In vertex order, a vertex whose removal would leave its part's load at
    or below zero stays; any other moves to the part with the largest
    positive gain (connection to that part minus connection to its own)
    whose load stays within ``max_load``, lowest part id on ties.  Passes
    repeat until one moves nothing.  Each block of vertices is evaluated at
    once and only its first move is made (see the module docstring).
    """
    n_vertices = graph.n_vertices
    assignment = assignment.copy()
    loads = np.bincount(assignment, weights=vertex_weights, minlength=n_parts)
    connections = _connections(graph, assignment, n_parts)
    for _ in range(max_passes):
        moved = 0
        start = 0
        while start < n_vertices:
            stop = min(start + _BLOCK, n_vertices)
            current = assignment[start:stop]
            weight = vertex_weights[start:stop]
            block = connections[start:stop]
            # A vertex's gain towards its own part is 0, so only positive
            # gains towards other parts can win.
            gain = block - block[_ROWS[: stop - start], current][:, None]
            gain[loads + weight[:, None] > max_load] = 0
            movers = np.flatnonzero((gain.max(axis=1) > 0) & (loads[current] - weight > 0))
            if movers.size == 0:
                start = stop
                continue
            first = int(movers[0])
            vertex, old, new = start + first, int(current[first]), int(gain[first].argmax())
            assignment[vertex] = new
            loads[old] -= weight[first]
            loads[new] += weight[first]
            _move(connections, graph, vertex, old, new)
            moved += 1
            start = vertex + 1
        if moved == 0:
            break
    return assignment


def _balance(
    graph: _Graph,
    assignment: np.ndarray,
    n_parts: int,
    vertex_weights: np.ndarray,
    max_load: float,
) -> np.ndarray:
    """Move vertices out of overweight parts, preferring the least-damaging moves.

    While a part is over ``max_load``, move the (vertex, target) pair of
    least cut damage among its vertices and the targets with room, the
    lowest vertex and then the lowest target on ties.
    """
    assignment = assignment.copy()
    n_vertices = graph.n_vertices
    loads = np.bincount(assignment, weights=vertex_weights, minlength=n_parts)
    connections = None
    for part in range(n_parts):
        guard = 0
        while loads[part] > max_load and guard < n_vertices:
            guard += 1
            if connections is None:
                connections = _connections(graph, assignment, n_parts)
            members = np.flatnonzero(assignment == part)
            block = connections[members]
            weight = vertex_weights[members]
            blocked = loads + weight[:, None] > max_load
            blocked[:, part] = True
            if blocked.all():
                break
            cost = block[:, [part]] - block
            cost[blocked] = np.iinfo(np.int64).max
            row, target = divmod(int(cost.argmin()), n_parts)
            vertex = int(members[row])
            assignment[vertex] = target
            loads[part] -= weight[row]
            loads[target] += weight[row]
            _move(connections, graph, vertex, part, target)
    return assignment


def _heavy_edge_matching(
    graph: _Graph,
    vertex_weights: np.ndarray,
    max_vertex_weight: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbour (Metis-style).

    Returns an array mapping every fine vertex to a coarse vertex id.
    """
    offsets, neighbors, edge_weights = graph.lists()
    weights = vertex_weights.tolist()
    matched = [-1] * graph.n_vertices
    coarse_id = 0
    for vertex in rng.permutation(graph.n_vertices).tolist():
        if matched[vertex] >= 0:
            continue
        best_neighbor = -1
        best_weight = 0
        for index in range(offsets[vertex], offsets[vertex + 1]):
            neighbor = neighbors[index]
            if matched[neighbor] >= 0:
                continue
            if weights[vertex] + weights[neighbor] > max_vertex_weight:
                continue
            if edge_weights[index] > best_weight:
                best_weight = edge_weights[index]
                best_neighbor = neighbor
        matched[vertex] = coarse_id
        if best_neighbor >= 0:
            matched[best_neighbor] = coarse_id
        coarse_id += 1
    return np.array(matched, dtype=np.int64)


def _coarsen(
    graph: _Graph, vertex_weights: np.ndarray, fine_to_coarse: np.ndarray
) -> tuple[_Graph, np.ndarray]:
    """Collapse matched vertices into coarse vertices, merging parallel edges.

    Coarse edges come in the order their first fine edge does.
    """
    n_coarse = int(fine_to_coarse.max()) + 1
    coarse_weights = np.bincount(fine_to_coarse, weights=vertex_weights, minlength=n_coarse)
    pairs = fine_to_coarse[graph.ends]
    kept = pairs[:, 0] != pairs[:, 1]
    ends, weights = merge_parallel_edges(
        pairs.min(axis=1)[kept], pairs.max(axis=1)[kept], graph.weights[kept], n_coarse
    )
    return _Graph(n_coarse, ends, weights), coarse_weights


def _multilevel_partition(
    graph: _Graph,
    n_parts: int,
    vertex_weights: np.ndarray,
    refinement_passes: int,
    max_load: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Multilevel partitioning: coarsen by heavy-edge matching, partition, refine back up."""
    n_vertices = graph.n_vertices
    coarsening_target = max(8 * n_parts, 64)
    if n_vertices > coarsening_target:
        # Limit coarse vertex weight so the coarse graph stays partitionable.
        max_vertex_weight = max(
            2.0 * float(np.sum(vertex_weights)) / coarsening_target,
            float(vertex_weights.max()),
        )
        fine_to_coarse = _heavy_edge_matching(graph, vertex_weights, max_vertex_weight, rng)
        coarse, coarse_weights = _coarsen(graph, vertex_weights, fine_to_coarse)
        if n_parts <= coarse.n_vertices < n_vertices:
            coarse_assignment = _multilevel_partition(
                coarse, n_parts, coarse_weights, refinement_passes, max_load, rng
            )
            # Project back to the fine graph and refine at this level.
            return _refine(
                graph, coarse_assignment[fine_to_coarse], n_parts, refinement_passes,
                vertex_weights, max_load,
            )
    initial = _region_growing_initial(graph, n_parts, vertex_weights, rng)
    return _refine(graph, initial, n_parts, refinement_passes, vertex_weights, max_load)


def partition_graph(
    n_vertices: int,
    ends: np.ndarray,
    weights: np.ndarray,
    n_parts: int,
    seed: int = 0,
    attempts: int = 4,
    refinement_passes: int = 8,
    imbalance_tolerance: float = 1.05,
    vertex_weights: np.ndarray | list[int] | None = None,
) -> PartitionResult:
    """Partition a weighted undirected graph into ``n_parts`` balanced parts.

    Parameters
    ----------
    n_vertices:
        Number of vertices (numbered ``0 .. n_vertices-1``).
    ends:
        ``(E, 2)`` integer array, the two vertices of each edge.
    weights:
        ``(E,)`` non-negative integer edge weights.  Edge order breaks the
        matching's ties, so the same graph in another edge order may
        partition differently.
    n_parts:
        Number of parts (the NoC parallelism ``P``).
    seed:
        Base RNG seed; each attempt uses ``seed + attempt``.
    attempts:
        Number of independent seeded attempts; the best cut is returned.
    refinement_passes:
        Maximum boundary-refinement passes per attempt.
    imbalance_tolerance:
        Maximum allowed ratio between the heaviest part and the ideal load.
    vertex_weights:
        Optional per-vertex weights used for the balance constraint (e.g. the
        check degrees, so that *messages* per PE are balanced rather than
        check counts).  Unit weights when omitted.
    """
    if n_parts <= 0:
        raise MappingError(f"n_parts must be positive, got {n_parts}")
    if n_vertices < n_parts:
        raise MappingError(
            f"cannot split {n_vertices} vertices into {n_parts} non-empty parts"
        )
    if attempts <= 0:
        raise MappingError(f"attempts must be positive, got {attempts}")
    ends = np.asarray(ends)
    weights = np.asarray(weights)
    if ends.size == 0 and weights.size == 0:
        ends, weights = ends.reshape(0, 2), weights.reshape(0)
    if ends.ndim != 2 or ends.shape[1] != 2 or weights.shape != (ends.shape[0],):
        raise MappingError(
            f"ends must have shape (E, 2) and weights (E,), got {ends.shape} and {weights.shape}"
        )
    if ends.size and not (
        np.issubdtype(ends.dtype, np.integer) and np.issubdtype(weights.dtype, np.integer)
    ):
        raise MappingError("edge ends and weights must be integers")
    ends, weights = ends.astype(np.int64), weights.astype(np.int64)
    if ends.size and (ends.min() < 0 or ends.max() >= n_vertices):
        raise MappingError(f"an edge references a vertex outside [0, {n_vertices})")
    if weights.size and weights.min() < 0:
        raise MappingError("edge weights must be non-negative")
    if vertex_weights is None:
        weights_arr = np.ones(n_vertices, dtype=np.float64)
    else:
        weights_arr = np.asarray(vertex_weights, dtype=np.float64)
        if weights_arr.shape != (n_vertices,):
            raise MappingError(
                f"vertex_weights must have shape ({n_vertices},), got {weights_arr.shape}"
            )
        if not np.all(np.isfinite(weights_arr) & (weights_arr > 0)):
            raise MappingError("vertex_weights must be finite and strictly positive")
    graph = _Graph(n_vertices, ends, weights)
    ideal = float(weights_arr.sum()) / n_parts
    max_load = max(ideal * imbalance_tolerance, float(weights_arr.max()))

    best: PartitionResult | None = None
    best_key: tuple[float, int] | None = None
    for attempt in range(attempts):
        rng = make_rng(seed + attempt)
        if attempt % 2 == 0:
            # Multilevel (Metis-style) attempt: heavy-edge-matching coarsening,
            # partition of the coarse graph, refinement on the way back up.
            refined = _multilevel_partition(
                graph, n_parts, weights_arr, refinement_passes, max_load, rng
            )
        else:
            # Flat attempt: region growing directly on the fine graph.
            initial = _region_growing_initial(graph, n_parts, weights_arr, rng)
            refined = _refine(graph, initial, n_parts, refinement_passes, weights_arr, max_load)
        refined = _balance(graph, refined, n_parts, weights_arr, max_load)
        result = PartitionResult.from_assignment(refined, n_parts, ends, weights)
        # Rank candidates by the heaviest part first (it lower-bounds ncycles),
        # then by cut weight.
        loads = np.bincount(refined, weights=weights_arr, minlength=n_parts)
        key = (float(loads.max()), result.cut_weight)
        if best_key is None or key < best_key:
            best = result
            best_key = key
    assert best is not None  # attempts >= 1
    return best
