"""Quality metrics for candidate mappings / equivalent interleavers.

The paper's pre-processing framework "checks the produced interleavers for
minimum length and uniform message distribution, selecting the optimal one for
each code-topology couple".  This module provides those two criteria (plus
locality) as a scalar score so the design flow can rank candidate mappings
produced with different partitioner seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.traffic import TrafficPattern


@dataclass(frozen=True)
class MappingQuality:
    """Scalar quality figures of one traffic pattern."""

    #: Largest per-PE emitted message count ("interleaver length" per PE).
    max_node_messages: int
    #: Largest per-PE count of messages that actually enter the network.
    max_network_node_messages: int
    #: Mean per-PE emitted message count.
    mean_node_messages: float
    #: Standard deviation of the per-PE received message counts (uniformity).
    destination_spread: float
    #: Fraction of messages that never enter the network.
    locality: float

    @property
    def score(self) -> float:
        """Lower-is-better scalar used to rank candidate mappings.

        The dominant term is the per-PE *network* message-list length (it
        lower-bounds the injection time and therefore ``ncycles``); the
        received-message spread acts as a tie-breaker, following the
        minimum-length / uniform-distribution selection criteria described in
        the paper.
        """
        return float(self.max_network_node_messages) + 0.1 * self.destination_spread


def evaluate_traffic_quality(traffic: TrafficPattern) -> MappingQuality:
    """Compute the selection metrics of one traffic pattern."""
    emitted = traffic.messages_per_node()
    received = traffic.destination_histogram()
    total = traffic.total_messages
    locality = traffic.local_messages / total if total else 0.0
    source = traffic.source
    network_per_node = np.bincount(
        source[traffic.dest != source], minlength=traffic.n_nodes
    )
    return MappingQuality(
        max_node_messages=int(emitted.max()) if emitted.size else 0,
        max_network_node_messages=int(network_per_node.max(initial=0)),
        mean_node_messages=float(emitted.mean()) if emitted.size else 0.0,
        destination_spread=float(received.std()) if received.size else 0.0,
        locality=locality,
    )
