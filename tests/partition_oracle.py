"""Scalar executable spec of the partitioner's graph plumbing and move rules.

Dict graphs ``{(a, b): weight}`` and per-vertex ``(neighbour, weight)``
lists, one scalar at a time: the form the partitioner had before it moved to
edge arrays.  The tests run it beside :mod:`repro.mapping.partition` on the
same inputs and require equal outputs.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np


def edge_arrays(edges: dict[tuple[int, int], int]) -> tuple[np.ndarray, np.ndarray]:
    """``(ends, weights)`` arrays of a dict graph, in insertion order."""
    ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return ends, np.fromiter(edges.values(), dtype=np.int64, count=len(edges))


def check_adjacency_dict(h) -> dict[tuple[int, int], int]:
    """The check adjacency graph of ``h``, accumulated pair by pair over the columns."""
    weights: dict[tuple[int, int], int] = defaultdict(int)
    for variable in range(h.n_cols):
        checks = h.col(variable).tolist()
        for i, a in enumerate(checks):
            for b in checks[i + 1:]:
                weights[(a, b) if a < b else (b, a)] += 1
    return dict(weights)


def adjacency_lists(n_vertices: int, edges: dict) -> list[list[tuple[int, int]]]:
    """Per vertex, its ``(neighbour, weight)`` pairs in edge insertion order."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for (a, b), weight in edges.items():
        if a != b:
            adjacency[a].append((b, weight))
            adjacency[b].append((a, weight))
    return adjacency


def coarsen_dict(edges: dict, fine_to_coarse: list[int]) -> dict[tuple[int, int], int]:
    """Coarse edges: parallel edges merged, in first-occurrence order."""
    coarse: dict[tuple[int, int], int] = {}
    for (a, b), weight in edges.items():
        ca, cb = fine_to_coarse[a], fine_to_coarse[b]
        if ca != cb:
            key = (ca, cb) if ca < cb else (cb, ca)
            coarse[key] = coarse.get(key, 0) + weight
    return coarse


def _loads(assignment, n_parts, vertex_weights) -> list[float]:
    loads = [0.0] * n_parts
    for part, weight in zip(assignment, vertex_weights):
        loads[part] += weight
    return loads


def _weight_to_part(adjacency, assignment, vertex) -> dict[int, int]:
    weight_to_part: dict[int, int] = {}
    for neighbor, edge_weight in adjacency[vertex]:
        part = assignment[neighbor]
        weight_to_part[part] = weight_to_part.get(part, 0) + edge_weight
    return weight_to_part


def refine(assignment, adjacency, n_parts, max_passes, vertex_weights, max_load):
    """One vertex at a time: the largest positive feasible gain, lowest part on ties.

    Returns the refined assignment and a :class:`Counter` of the rule's
    branches taken: ``skipped`` (the vertex's part would be left at or
    below zero load), ``blocked`` (a part with a positive gain is over
    ``max_load`` for it), ``at_bound`` (a part would land exactly on
    ``max_load``), ``tie`` (two feasible parts share the winning gain),
    ``moves`` and ``passes``.
    """
    assignment = list(assignment)
    loads = _loads(assignment, n_parts, vertex_weights)
    seen: Counter = Counter()
    for _ in range(max_passes):
        seen["passes"] += 1
        moved = 0
        for vertex in range(len(assignment)):
            current = assignment[vertex]
            weight = vertex_weights[vertex]
            if loads[current] - weight <= 0:
                seen["skipped"] += 1
                continue
            weight_to_part = _weight_to_part(adjacency, assignment, vertex)
            internal = weight_to_part.get(current, 0)
            best_part, best_gain = current, 0
            gains = []
            for part, connection in weight_to_part.items():
                if part == current:
                    continue
                gain = connection - internal
                seen["at_bound"] += loads[part] + weight == max_load
                if loads[part] + weight > max_load:
                    seen["blocked"] += gain > 0
                    continue
                gains.append(gain)
                if gain > best_gain or (gain == best_gain and gain > 0 and part < best_part):
                    best_gain, best_part = gain, part
            if best_gain > 0 and gains.count(best_gain) > 1:
                seen["tie"] += 1
            if best_part != current and best_gain > 0:
                assignment[vertex] = best_part
                loads[current] -= weight
                loads[best_part] += weight
                moved += 1
        seen["moves"] += moved
        if moved == 0:
            break
    return assignment, seen


def balance(assignment, adjacency, n_parts, vertex_weights, max_load):
    """Empty overweight parts by the least-damaging (vertex, target) moves."""
    assignment = list(assignment)
    n_vertices = len(assignment)
    loads = _loads(assignment, n_parts, vertex_weights)
    for part in range(n_parts):
        guard = 0
        while loads[part] > max_load and guard < n_vertices:
            guard += 1
            best_vertex, best_target, best_cost = -1, -1, None
            for vertex in range(n_vertices):
                if assignment[vertex] != part:
                    continue
                weight_to_part = _weight_to_part(adjacency, assignment, vertex)
                internal = weight_to_part.get(part, 0)
                for target in range(n_parts):
                    if target == part or loads[target] + vertex_weights[vertex] > max_load:
                        continue
                    cost = internal - weight_to_part.get(target, 0)
                    if best_cost is None or cost < best_cost:
                        best_cost, best_vertex, best_target = cost, vertex, target
            if best_vertex < 0:
                break
            assignment[best_vertex] = best_target
            loads[part] -= vertex_weights[best_vertex]
            loads[best_target] += vertex_weights[best_vertex]
    return assignment
