"""Mapping an LDPC code onto the NoC: partition + equivalent interleaver.

With the layered schedule, each parity check updates the a-posteriori LLR of
each of its variables once per iteration; the updated value is consumed by the
*next* check (in schedule order) connected to the same variable.  Mapping the
checks onto P PEs therefore turns one decoding iteration into a fixed set of
messages — the *equivalent interleaver* of paper Section III-A:

    for every variable v with connected checks c_0 < c_1 < ... < c_{d-1}:
        check c_i's owner sends one message to check c_{(i+1) mod d}'s owner

The per-PE message lists (ordered by the PE's own check processing sequence)
are exactly the traffic the cycle-accurate NoC simulation drains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.ldpc.tanner import check_adjacency_graph
from repro.mapping.partition import PartitionResult, partition_graph
from repro.noc.traffic import TrafficPattern
from repro.utils.graph import stable_argsort


@dataclass(frozen=True)
class LdpcMapping:
    """A complete LDPC-code-to-NoC mapping.

    Attributes
    ----------
    h:
        The parity-check matrix being mapped.
    n_nodes:
        NoC parallelism P.
    check_owner:
        ``check_owner[l]`` is the PE that processes parity check ``l``.
    traffic:
        The equivalent-interleaver traffic of one decoding iteration.
    partition:
        The partitioner output (cut weight, balance) used to build the mapping.
    """

    h: ParityCheckMatrix
    n_nodes: int
    check_owner: np.ndarray
    traffic: TrafficPattern
    partition: PartitionResult

    @property
    def locality(self) -> float:
        """Fraction of messages whose producer and consumer are on the same PE."""
        total = self.traffic.total_messages
        return self.traffic.local_messages / total if total else 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"LDPC mapping: M={self.h.n_rows} checks on P={self.n_nodes} PEs, "
            f"cut={self.partition.cut_weight}, locality={self.locality:.2%}, "
            f"imbalance={self.partition.imbalance:.3f}"
        )


def build_equivalent_interleaver(
    h: ParityCheckMatrix,
    check_owner: np.ndarray,
    n_nodes: int,
    label: str = "",
) -> TrafficPattern:
    """Derive the per-PE ordered message lists from H and a check->PE assignment.

    Each PE emits its messages in the order it processes its checks (ascending
    check index) and, within a check, in the row's variable order — matching
    the sequential LDPC core of paper Fig. 2.  The destination memory location
    is the within-destination-PE index of the consuming (check, variable) edge.
    """
    owner = np.asarray(check_owner, dtype=np.int64)
    if owner.shape != (h.n_rows,):
        raise MappingError(
            f"check_owner must have one entry per check ({h.n_rows}), got {owner.shape}"
        )
    if owner.size and (owner.min() < 0 or owner.max() >= n_nodes):
        raise MappingError(f"check_owner references PEs outside [0, {n_nodes})")

    # Tanner edges in row order (rows are sorted, so edges ascend by (check,
    # variable)): edge e joins variables[e] to a check owned by edge_owner[e].
    variables = np.concatenate(list(h.iter_rows()))
    edge_owner = np.repeat(owner, h.row_degrees())
    # The consumer of edge e is the same variable's edge at the next check of
    # its column, cyclically: walk each column's edges in check order.
    by_column = stable_argsort(variables, h.n_cols)
    column_degrees = np.bincount(variables, minlength=h.n_cols)
    column_start = np.cumsum(column_degrees) - column_degrees
    column = variables[by_column]
    position = np.arange(by_column.size) - column_start[column]
    consumer = np.empty_like(by_column)
    consumer[by_column] = by_column[
        column_start[column] + (position + 1) % column_degrees[column]
    ]
    # Each PE processes its checks in ascending order, so its edges keep row
    # order; an edge's memory slot is its rank among its owner PE's edges.
    emit_order = stable_argsort(edge_owner, n_nodes)
    node_edges = np.bincount(edge_owner, minlength=n_nodes)
    node_start = np.cumsum(node_edges) - node_edges
    slot = np.empty_like(emit_order)
    slot[emit_order] = np.arange(emit_order.size) - node_start[edge_owner[emit_order]]

    emitted = consumer[emit_order]
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(node_edges, out=offsets[1:])
    return TrafficPattern(n_nodes, offsets, edge_owner[emitted], slot[emitted], label)


def _structured_assignments(n_checks: int, n_nodes: int) -> dict[str, np.ndarray]:
    """Candidate check->PE assignments that exploit the QC structure directly.

    For quasi-cyclic codes the simple round-robin assignment (check index
    modulo P) often aligns with the circulant structure and yields excellent
    locality when P divides the expansion factor; the contiguous assignment is
    the natural choice for codes with banded H.  Both are cheap to generate
    and compete with the graph-partitioned candidate in the selection step.
    """
    indices = np.arange(n_checks, dtype=np.int64)
    return {
        "round-robin": indices % n_nodes,
        "contiguous": (indices * n_nodes) // n_checks,
    }


def map_ldpc_code(
    h: ParityCheckMatrix,
    n_nodes: int,
    seed: int = 0,
    attempts: int = 4,
    label: str = "",
) -> LdpcMapping:
    """Map an LDPC code over ``n_nodes`` PEs and build its traffic pattern.

    This is steps 1-3 of the paper's design flow: check adjacency graph,
    Metis-style partitioning, equivalent-interleaver construction — followed
    by the selection step: several candidate mappings (graph-partitioned and
    QC-structured) are generated and the one with the best length/uniformity
    score (see :mod:`repro.mapping.quality`) is kept.
    """
    # Imported here to avoid a circular import (quality -> traffic only).
    from repro.mapping.quality import evaluate_traffic_quality

    if n_nodes <= 0:
        raise MappingError(f"n_nodes must be positive, got {n_nodes}")
    if n_nodes > h.n_rows:
        raise MappingError(
            f"cannot spread {h.n_rows} checks over {n_nodes} PEs without idle PEs"
        )
    graph = check_adjacency_graph(h)
    traffic_label = label or f"ldpc-M{h.n_rows}-P{n_nodes}"

    candidates: list[tuple[PartitionResult, TrafficPattern]] = []
    partitioned = partition_graph(
        n_vertices=h.n_rows,
        ends=graph.ends,
        weights=graph.weights,
        n_parts=n_nodes,
        seed=seed,
        attempts=attempts,
        # Balance the number of *messages* per PE (one per Tanner edge), not
        # the number of checks, so no PE becomes the injection bottleneck.
        vertex_weights=h.row_degrees(),
    )
    candidates.append(
        (
            partitioned,
            build_equivalent_interleaver(h, partitioned.assignment, n_nodes, traffic_label),
        )
    )
    for assignment in _structured_assignments(h.n_rows, n_nodes).values():
        candidates.append(
            (
                PartitionResult.from_assignment(assignment, n_nodes, graph.ends, graph.weights),
                build_equivalent_interleaver(h, assignment, n_nodes, traffic_label),
            )
        )

    scores = [evaluate_traffic_quality(traffic).score for _, traffic in candidates]
    best_index = int(np.argmin(scores))
    partition, traffic = candidates[best_index]
    return LdpcMapping(
        h=h,
        n_nodes=n_nodes,
        check_owner=partition.assignment,
        traffic=traffic,
        partition=partition,
    )
