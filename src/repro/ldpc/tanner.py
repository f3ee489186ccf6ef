"""Check adjacency graph of a parity-check matrix.

The mapping substrate (Section III of the paper) works on a graph derived
from H: for the layered schedule, the *check adjacency graph* whose nodes are
parity checks and whose edges connect checks sharing at least one variable
(weighted by the number of shared variables).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.utils.graph import merge_parallel_edges, stable_argsort


@dataclass(frozen=True)
class CheckAdjacencyGraph:
    """Undirected weighted graph over the parity checks of H, as edge arrays.

    ``ends[e] = (i, j)`` with ``i < j`` are the two checks of edge ``e`` and
    ``weights[e]`` counts the variables they share; this is the graph handed
    to the partitioner.  Edges come in the order each check pair first occurs
    when the columns of H are walked in order, pairs of one column in
    lexicographic order.
    """

    ends: np.ndarray
    weights: np.ndarray


def check_adjacency_graph(h: ParityCheckMatrix) -> CheckAdjacencyGraph:
    """Build the weighted check-to-check adjacency graph of ``h``.

    Two checks are adjacent when they share at least one variable; the edge
    weight is the number of shared variables.  With the layered schedule this
    weight is the number of extrinsic messages exchanged between the two
    checks per iteration, which is exactly the traffic quantity the NoC
    mapping wants to keep local.
    """
    # Tanner edges column by column, each column's checks ascending.
    variables = np.concatenate(list(h.iter_rows()))
    checks = np.repeat(np.arange(h.n_rows, dtype=np.int64), h.row_degrees())
    by_column = stable_argsort(variables, h.n_cols)
    column_checks = checks[by_column]
    column_degrees = np.bincount(variables, minlength=h.n_cols)
    column_end = np.cumsum(column_degrees)[variables[by_column]]
    # Pair every position with each later position of its column; checks
    # ascend within a column, so each pair comes out as (lower, higher).
    partners = column_end - np.arange(by_column.size) - 1
    first = np.repeat(np.arange(by_column.size), partners)
    rank = np.arange(first.size) - np.repeat(np.cumsum(partners) - partners, partners)
    ends, weights = merge_parallel_edges(
        column_checks[first], column_checks[first + 1 + rank],
        np.ones(first.size, dtype=np.int64), h.n_rows,
    )
    return CheckAdjacencyGraph(ends=ends, weights=weights)
