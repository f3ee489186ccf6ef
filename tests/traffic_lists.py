"""Hand-written NoC traffic for the tests: per-node lists in and out of CSR form."""

from __future__ import annotations

import numpy as np

from repro.noc import TrafficPattern


def traffic_from_lists(destinations, memory_locations=None, label: str = "") -> TrafficPattern:
    """A pattern in which node ``n`` emits to ``destinations[n]``, in order.

    ``memory_locations`` defaults to ``0, 1, 2, ...`` on every node.
    """
    counts = [len(node) for node in destinations]
    if memory_locations is None:
        memory_locations = [range(count) for count in counts]
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    dest = [value for node in destinations for value in node]
    memory = [value for node in memory_locations for value in node]
    return TrafficPattern(len(destinations), offsets, dest, memory, label)


def node_lists(traffic: TrafficPattern) -> list[tuple[list[int], list[int]]]:
    """Per node, its ``(destinations, memory locations)`` as Python lists."""
    bounds = traffic.offsets.tolist()
    return [
        (traffic.dest[lo:hi].tolist(), traffic.memory[lo:hi].tolist())
        for lo, hi in zip(bounds, bounds[1:])
    ]
