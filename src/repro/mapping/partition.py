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

The passes work on plain Python lists (assignments, loads, vertex weights):
they touch one scalar at a time, where list indexing is several times faster
than ``ndarray`` item access.  NumPy is used only at the boundaries — the
whole-array weight sums, the final assignment, and the cut weight.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.utils.rng import make_rng


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
        cls, assignment: np.ndarray, n_parts: int, edges: dict[tuple[int, int], int]
    ) -> "PartitionResult":
        """Measure an assignment of the graph ``edges``: its cut weight and part sizes."""
        return cls(
            assignment=assignment,
            n_parts=n_parts,
            cut_weight=_cut_weight(assignment, edges),
            part_sizes=np.bincount(assignment, minlength=n_parts),
        )

    @property
    def imbalance(self) -> float:
        """Max part size divided by the ideal (mean) part size."""
        mean = self.part_sizes.mean()
        return float(self.part_sizes.max() / mean) if mean else 1.0


def _build_adjacency(
    n_vertices: int, edges: dict[tuple[int, int], int]
) -> list[list[tuple[int, int]]]:
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for (a, b), weight in edges.items():
        if not (0 <= a < n_vertices and 0 <= b < n_vertices):
            raise MappingError(f"edge ({a}, {b}) references a vertex outside [0, {n_vertices})")
        if a == b:
            continue
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))
    return adjacency


def _cut_weight(assignment: np.ndarray, edges: dict[tuple[int, int], int]) -> int:
    """Total weight of the edges whose endpoints lie in different parts."""
    if not edges:
        return 0
    ends = np.array(list(edges), dtype=np.int64)
    weights = np.fromiter(edges.values(), dtype=np.int64, count=len(edges))
    return int(weights[assignment[ends[:, 0]] != assignment[ends[:, 1]]].sum())


def _part_loads(assignment: list[int], n_parts: int, vertex_weights: list[float]) -> list[float]:
    """Summed vertex weight of each part, accumulated in vertex order."""
    loads = [0.0] * n_parts
    for part, weight in zip(assignment, vertex_weights):
        loads[part] += weight
    return loads


def _region_growing_initial(
    n_vertices: int,
    adjacency: list[list[tuple[int, int]]],
    n_parts: int,
    vertex_weights: list[float],
    rng: np.random.Generator,
) -> list[int]:
    """Grow parts one at a time from BFS frontiers, preferring well-connected vertices."""
    target = float(np.sum(vertex_weights)) / n_parts
    assignment = [-1] * n_vertices
    unassigned = set(range(n_vertices))
    for part in range(n_parts):
        if not unassigned:
            break
        remaining_parts = n_parts - part
        remaining_weight = float(np.sum([vertex_weights[v] for v in unassigned]))
        budget = min(remaining_weight / remaining_parts, target)
        member = int(rng.choice(sorted(unassigned)))
        # Grow by repeatedly taking the unassigned vertex with the strongest
        # connection to the current part, lowest id on ties.  ``heap`` holds
        # (-connection, vertex) entries; one whose strength is no longer the
        # vertex's current connection is stale and skipped when popped.
        part_weight = vertex_weights[member]
        assignment[member] = part
        unassigned.discard(member)
        connection: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        while part_weight < budget and unassigned:
            # Refresh connection strengths from the most recent member.
            for neighbor, weight in adjacency[member]:
                if assignment[neighbor] == -1:
                    strength = connection.get(neighbor, 0) + weight
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
            part_weight += vertex_weights[member]
    # Any leftovers (rounding) go to the lightest parts.
    if unassigned:
        loads = [0.0] * n_parts
        for vertex, part in enumerate(assignment):
            if part >= 0:
                loads[part] += vertex_weights[vertex]
        for vertex in sorted(unassigned):
            part = loads.index(min(loads))
            assignment[vertex] = part
            loads[part] += vertex_weights[vertex]
    return assignment


def _refine(
    assignment: list[int],
    adjacency: list[list[tuple[int, int]]],
    n_parts: int,
    max_passes: int,
    vertex_weights: list[float],
    max_load: float,
) -> list[int]:
    """Greedy boundary refinement: move vertices to the part with the best gain."""
    assignment = assignment.copy()
    loads = _part_loads(assignment, n_parts, vertex_weights)
    for _ in range(max_passes):
        moved = 0
        for vertex, neighbors in enumerate(adjacency):
            current = assignment[vertex]
            weight = vertex_weights[vertex]
            if loads[current] - weight <= 0:
                continue
            # Connection weight of this vertex towards each part.
            weight_to_part: dict[int, int] = {}
            for neighbor, edge_weight in neighbors:
                part = assignment[neighbor]
                weight_to_part[part] = weight_to_part.get(part, 0) + edge_weight
            internal = weight_to_part.get(current, 0)
            best_part = current
            best_gain = 0
            for part, connection in weight_to_part.items():
                if part == current or loads[part] + weight > max_load:
                    continue
                gain = connection - internal
                if gain > best_gain or (gain == best_gain and gain > 0 and part < best_part):
                    best_gain = gain
                    best_part = part
            if best_part != current and best_gain > 0:
                assignment[vertex] = best_part
                loads[current] -= weight
                loads[best_part] += weight
                moved += 1
        if moved == 0:
            break
    return assignment


def _balance(
    assignment: list[int],
    adjacency: list[list[tuple[int, int]]],
    n_parts: int,
    vertex_weights: list[float],
    max_load: float,
) -> list[int]:
    """Move vertices out of overweight parts, preferring the least-damaging moves."""
    assignment = assignment.copy()
    n_vertices = len(assignment)
    loads = _part_loads(assignment, n_parts, vertex_weights)
    for part in range(n_parts):
        guard = 0
        while loads[part] > max_load and guard < n_vertices:
            guard += 1
            best_vertex = -1
            best_target = -1
            best_cost = None
            for vertex in range(n_vertices):
                if assignment[vertex] != part:
                    continue
                weight_to_part: dict[int, int] = {}
                for neighbor, edge_weight in adjacency[vertex]:
                    other = assignment[neighbor]
                    weight_to_part[other] = weight_to_part.get(other, 0) + edge_weight
                internal = weight_to_part.get(part, 0)
                for target in range(n_parts):
                    if target == part:
                        continue
                    if loads[target] + vertex_weights[vertex] > max_load:
                        continue
                    cost = internal - weight_to_part.get(target, 0)
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best_vertex = vertex
                        best_target = target
            if best_vertex < 0:
                break
            assignment[best_vertex] = best_target
            loads[part] -= vertex_weights[best_vertex]
            loads[best_target] += vertex_weights[best_vertex]
    return assignment


def _heavy_edge_matching(
    n_vertices: int,
    adjacency: list[list[tuple[int, int]]],
    vertex_weights: list[float],
    max_vertex_weight: float,
    rng: np.random.Generator,
) -> list[int]:
    """Match each vertex with its heaviest unmatched neighbour (Metis-style).

    Returns a list mapping every fine vertex to a coarse vertex id.
    """
    matched = [-1] * n_vertices
    coarse_id = 0
    for vertex in rng.permutation(n_vertices).tolist():
        if matched[vertex] >= 0:
            continue
        best_neighbor = -1
        best_weight = 0
        for neighbor, weight in adjacency[vertex]:
            if matched[neighbor] >= 0 or neighbor == vertex:
                continue
            if vertex_weights[vertex] + vertex_weights[neighbor] > max_vertex_weight:
                continue
            if weight > best_weight:
                best_weight = weight
                best_neighbor = neighbor
        matched[vertex] = coarse_id
        if best_neighbor >= 0:
            matched[best_neighbor] = coarse_id
        coarse_id += 1
    return matched


def _coarsen(
    edges: dict[tuple[int, int], int],
    vertex_weights: list[float],
    fine_to_coarse: list[int],
) -> tuple[int, dict[tuple[int, int], int], list[float]]:
    """Collapse matched vertices into coarse vertices, merging parallel edges."""
    n_coarse = max(fine_to_coarse) + 1
    coarse_weights = _part_loads(fine_to_coarse, n_coarse, vertex_weights)
    coarse_edges: dict[tuple[int, int], int] = {}
    for (a, b), weight in edges.items():
        ca, cb = fine_to_coarse[a], fine_to_coarse[b]
        if ca == cb:
            continue
        key = (ca, cb) if ca < cb else (cb, ca)
        coarse_edges[key] = coarse_edges.get(key, 0) + weight
    return n_coarse, coarse_edges, coarse_weights


def _multilevel_partition(
    n_vertices: int,
    edges: dict[tuple[int, int], int],
    adjacency: list[list[tuple[int, int]]],
    n_parts: int,
    vertex_weights: list[float],
    refinement_passes: int,
    max_load: float,
    rng: np.random.Generator,
) -> list[int]:
    """Multilevel partitioning: coarsen by heavy-edge matching, partition, refine back up."""
    coarsening_target = max(8 * n_parts, 64)
    if n_vertices <= coarsening_target:
        initial = _region_growing_initial(n_vertices, adjacency, n_parts, vertex_weights, rng)
        return _refine(initial, adjacency, n_parts, refinement_passes, vertex_weights, max_load)

    # Limit coarse vertex weight so the coarse graph stays partitionable.
    max_vertex_weight = max(
        2.0 * float(np.sum(vertex_weights)) / coarsening_target, max(vertex_weights)
    )
    fine_to_coarse = _heavy_edge_matching(
        n_vertices, adjacency, vertex_weights, max_vertex_weight, rng
    )
    n_coarse, coarse_edges, coarse_weights = _coarsen(edges, vertex_weights, fine_to_coarse)
    if n_coarse >= n_vertices or n_coarse < n_parts:
        initial = _region_growing_initial(n_vertices, adjacency, n_parts, vertex_weights, rng)
        return _refine(initial, adjacency, n_parts, refinement_passes, vertex_weights, max_load)

    coarse_assignment = _multilevel_partition(
        n_coarse,
        coarse_edges,
        _build_adjacency(n_coarse, coarse_edges),
        n_parts,
        coarse_weights,
        refinement_passes,
        max_load,
        rng,
    )
    # Project back to the fine graph and refine at this level.
    assignment = [coarse_assignment[coarse] for coarse in fine_to_coarse]
    return _refine(assignment, adjacency, n_parts, refinement_passes, vertex_weights, max_load)


def partition_graph(
    n_vertices: int,
    edges: dict[tuple[int, int], int],
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
    edges:
        Mapping ``(a, b) -> weight`` with ``a < b`` (unordered pairs).
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
    if vertex_weights is None:
        weights_arr = np.ones(n_vertices, dtype=np.float64)
    else:
        weights_arr = np.asarray(vertex_weights, dtype=np.float64)
        if weights_arr.shape != (n_vertices,):
            raise MappingError(
                f"vertex_weights must have shape ({n_vertices},), got {weights_arr.shape}"
            )
        if weights_arr.min() <= 0:
            raise MappingError("vertex_weights must be strictly positive")
    adjacency = _build_adjacency(n_vertices, edges)
    ideal = float(weights_arr.sum()) / n_parts
    max_load = max(ideal * imbalance_tolerance, float(weights_arr.max()))
    weights = weights_arr.tolist()

    best: PartitionResult | None = None
    best_key: tuple[float, int] | None = None
    for attempt in range(attempts):
        rng = make_rng(seed + attempt)
        if attempt % 2 == 0:
            # Multilevel (Metis-style) attempt: heavy-edge-matching coarsening,
            # partition of the coarse graph, refinement on the way back up.
            refined = _multilevel_partition(
                n_vertices, edges, adjacency, n_parts, weights, refinement_passes, max_load, rng
            )
        else:
            # Flat attempt: region growing directly on the fine graph.
            initial = _region_growing_initial(n_vertices, adjacency, n_parts, weights, rng)
            refined = _refine(initial, adjacency, n_parts, refinement_passes, weights, max_load)
        refined = _balance(refined, adjacency, n_parts, weights, max_load)
        result = PartitionResult.from_assignment(
            np.array(refined, dtype=np.int64), n_parts, edges
        )
        # Rank candidates by the heaviest part first (it lower-bounds ncycles),
        # then by cut weight.
        key = (max(_part_loads(refined, n_parts, weights)), result.cut_weight)
        if best_key is None or key < best_key:
            best = result
            best_key = key
    assert best is not None  # attempts >= 1
    return best
