"""Weighted undirected graphs as edge arrays.

A graph is an int64 ``ends`` array of shape ``(E, 2)`` (one vertex pair per
edge) and an int64 ``weights`` array of shape ``(E,)``.  Edge order is part of
the graph: the partitioner breaks ties by it, so builders keep the order in
which each pair first occurs.

Vertex ids are sorted as the narrowest unsigned type that holds them: NumPy
radix-sorts 8- and 16-bit keys, several times faster than its int64 merge
sort, and the stable order is the same.
"""

from __future__ import annotations

import numpy as np


def stable_argsort(values: np.ndarray, n_values: int) -> np.ndarray:
    """Stable ``argsort`` of integers in ``[0, n_values)``."""
    return np.argsort(values.astype(np.min_scalar_type(max(n_values - 1, 0))), kind="stable")


def merge_parallel_edges(
    lo: np.ndarray, hi: np.ndarray, weights: np.ndarray, n_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the weights of repeated ``(lo, hi)`` pairs into one edge each.

    ``lo`` and ``hi`` are vertex ids in ``[0, n_vertices)``.  Returns
    ``(ends, weights)`` with one row per distinct pair, in the order of each
    pair's first occurrence — the insertion order of a dict accumulating
    ``edges[(lo, hi)] += weight``.
    """
    if lo.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    narrow = np.min_scalar_type(max(n_vertices - 1, 0))
    by_pair = np.lexsort((hi.astype(narrow), lo.astype(narrow)))
    lo, hi = lo[by_pair], hi[by_pair]
    new_pair = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    start = np.flatnonzero(np.concatenate(([True], new_pair)))
    summed = np.add.reduceat(np.asarray(weights, dtype=np.int64)[by_pair], start)
    # The sort is stable, so each run of one pair starts at its first occurrence.
    order = np.argsort(by_pair[start])
    ends = np.stack((lo[start], hi[start]), axis=1).astype(np.int64)
    return ends[order], summed[order]
