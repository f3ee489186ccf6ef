"""The array partitioner against its scalar executable spec (tests/partition_oracle.py).

The refinement and balance passes, the CSR neighbour order, the coarse-edge
order and the check adjacency graph must equal the scalar dict/list forms
on the same inputs: heavy-edge matching takes the first strictly heaviest
neighbour and the move rules break ties by part id, so any difference in
order or arithmetic would change a mapping.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.ldpc import ParityCheckMatrix, check_adjacency_graph, wimax_ldpc_code
from repro.ldpc.wifi import wifi_ldpc_code
from repro.mapping import partition
from repro.mapping.partition import _balance, _coarsen, _Graph, _refine

import partition_oracle as oracle
from partition_oracle import edge_arrays


def _random_graph(rng: np.random.Generator, n_vertices: int, degree: int = 3) -> dict:
    """Small integer weights (many equal gains).  Some pairs are also keyed the
    other way round, so a vertex lists that neighbour twice, and there are
    self-loops: the partitioner accepts both."""
    edges: dict[tuple[int, int], int] = {}
    for _ in range(degree * n_vertices):
        a, b = sorted(int(v) for v in rng.integers(0, n_vertices, 2))
        edges[(a, b)] = edges.get((a, b), 0) + int(rng.integers(1, 3))
        if rng.random() < 0.1:
            edges[(b, a)] = edges.get((b, a), 0) + 1
    return edges


def _random_case(seed: int):
    """A graph, vertex weights, a start assignment and a load bound.

    One part holds a single vertex, whose move would leave the part's load
    at zero.  The bound is near the ideal load, so some positive-gain moves
    are blocked; with integer vertex weights it is an integer, so some moves
    land exactly on it.  Most cases span more than one refinement block.
    """
    rng = np.random.default_rng(seed)
    n_vertices = int(rng.integers(20, 3 * partition._BLOCK))
    n_parts = int(rng.integers(2, 7))
    edges = _random_graph(rng, n_vertices)
    if seed % 2:
        vertex_weights = rng.choice([0.1, 0.2, 0.3, 1.0], n_vertices)
    else:
        vertex_weights = rng.integers(1, 4, n_vertices).astype(np.float64)
    assignment = rng.integers(0, n_parts - 1, n_vertices)
    assignment[rng.integers(n_vertices)] = n_parts - 1
    ideal = vertex_weights.sum() / n_parts
    max_load = ideal * float(rng.uniform(1.0, 1.4))
    if seed % 2 == 0:
        max_load = float(np.ceil(max_load))
    return n_vertices, edges, n_parts, vertex_weights, assignment, max_load


class TestGraphOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_csr_lists_neighbours_in_edge_order(self, seed):
        rng = np.random.default_rng(seed)
        n_vertices = int(rng.integers(5, 80))
        edges = _random_graph(rng, n_vertices)
        graph = _Graph(n_vertices, *edge_arrays(edges))
        offsets, neighbors, weights = graph.lists()
        csr = [
            list(zip(neighbors[lo:hi], weights[lo:hi]))
            for lo, hi in zip(offsets, offsets[1:])
        ]
        assert csr == oracle.adjacency_lists(n_vertices, edges)

    @pytest.mark.parametrize("seed", range(6))
    def test_coarse_edges_in_first_occurrence_order(self, seed):
        rng = np.random.default_rng(seed)
        n_vertices = int(rng.integers(5, 80))
        edges = _random_graph(rng, n_vertices)
        fine_to_coarse = rng.permutation(n_vertices) % max(n_vertices // 2, 1)
        vertex_weights = rng.choice([0.1, 0.2, 0.7], n_vertices)
        coarse, coarse_weights = _coarsen(
            _Graph(n_vertices, *edge_arrays(edges)), vertex_weights, fine_to_coarse
        )
        expected = oracle.coarsen_dict(edges, fine_to_coarse.tolist())
        assert [tuple(pair) for pair in coarse.ends.tolist()] == list(expected)
        assert coarse.weights.tolist() == list(expected.values())
        loads = [0.0] * coarse.n_vertices
        for vertex, weight in zip(fine_to_coarse.tolist(), vertex_weights.tolist()):
            loads[vertex] += weight
        assert coarse_weights.tolist() == loads

    @pytest.mark.parametrize(
        "h",
        [
            ParityCheckMatrix([[0, 1, 4], [1, 2], [0, 2, 3], [3, 4]], n_cols=5),
            wimax_ldpc_code(576, "1/2").h,
            wimax_ldpc_code(2304, "5/6").h,
            wifi_ldpc_code(1944, "5/6").h,
        ],
        ids=["toy", "wimax576", "wimax2304r56", "wifi1944"],
    )
    def test_check_adjacency_graph_in_dict_order(self, h):
        graph = check_adjacency_graph(h)
        expected = oracle.check_adjacency_dict(h)
        assert [tuple(pair) for pair in graph.ends.tolist()] == list(expected)
        assert graph.weights.tolist() == list(expected.values())
        assert graph.ends.dtype == graph.weights.dtype == np.int64


class TestMoveRules:
    SEEDS = range(40)

    def test_refine_matches_scalar_rule(self):
        """Equal gains across parts, bound-blocked moves, moves onto the bound,
        vertices whose part would empty, and several passes each occur."""
        seen: Counter = Counter()
        for seed in self.SEEDS:
            n_vertices, edges, n_parts, vertex_weights, assignment, max_load = _random_case(seed)
            refined = _refine(
                _Graph(n_vertices, *edge_arrays(edges)), assignment, n_parts, 8,
                vertex_weights, max_load,
            )
            expected, branches = oracle.refine(
                assignment.tolist(), oracle.adjacency_lists(n_vertices, edges), n_parts, 8,
                vertex_weights.tolist(), max_load,
            )
            assert refined.tolist() == expected, f"seed {seed}"
            seen += branches
            seen["multi_pass"] += branches["passes"] > 2
        branches = ("tie", "blocked", "at_bound", "skipped")
        assert min(seen[branch] for branch in branches) > 0, seen
        assert seen["multi_pass"] > 0 and seen["moves"] > 10 * len(self.SEEDS), seen

    def test_balance_matches_scalar_rule(self):
        """Start from a lopsided assignment so the balance pass has work."""
        moved = 0
        for seed in self.SEEDS:
            n_vertices, edges, n_parts, vertex_weights, assignment, max_load = _random_case(seed)
            assignment[: n_vertices // 2] = 0
            balanced = _balance(
                _Graph(n_vertices, *edge_arrays(edges)), assignment, n_parts,
                vertex_weights, max_load,
            )
            expected = oracle.balance(
                assignment.tolist(), oracle.adjacency_lists(n_vertices, edges), n_parts,
                vertex_weights.tolist(), max_load,
            )
            assert balanced.tolist() == expected, f"seed {seed}"
            moved += int((balanced != assignment).sum())
        assert moved > 0
