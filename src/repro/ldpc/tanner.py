"""Check adjacency graph of a parity-check matrix.

The mapping substrate (Section III of the paper) works on a graph derived
from H: for the layered schedule, the *check adjacency graph* whose nodes are
parity checks and whose edges connect checks sharing at least one variable
(weighted by the number of shared variables).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.ldpc.hmatrix import ParityCheckMatrix


@dataclass(frozen=True)
class CheckAdjacencyGraph:
    """Undirected weighted graph over parity checks.

    ``weights[(i, j)]`` (with ``i < j``) counts the variables shared by checks
    ``i`` and ``j``; this is the graph handed to the partitioner.
    """

    n_checks: int
    weights: dict[tuple[int, int], int]


def check_adjacency_graph(h: ParityCheckMatrix) -> CheckAdjacencyGraph:
    """Build the weighted check-to-check adjacency graph of ``h``.

    Two checks are adjacent when they share at least one variable; the edge
    weight is the number of shared variables.  With the layered schedule this
    weight is the number of extrinsic messages exchanged between the two
    checks per iteration, which is exactly the traffic quantity the NoC
    mapping wants to keep local.
    """
    weights: dict[tuple[int, int], int] = defaultdict(int)
    for variable in range(h.n_cols):
        checks = h.col(variable)
        for idx_a in range(checks.size):
            for idx_b in range(idx_a + 1, checks.size):
                a, b = int(checks[idx_a]), int(checks[idx_b])
                key = (a, b) if a < b else (b, a)
                weights[key] += 1
    return CheckAdjacencyGraph(n_checks=h.n_rows, weights=dict(weights))
