"""Messages (packets) exchanged over the intra-IP NoC.

One message carries one extrinsic value (an LLDPC ``lambda_k[c]`` update or a
turbo extrinsic) from the PE that produced it to the PE that will consume it
in the next layer / half-iteration, together with the destination memory
location ``t'`` (paper Fig. 1).  The payload contents are irrelevant to the
cycle-accurate simulation — only identity, source, destination and timing are
tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Message:
    """A single-flit packet travelling through the NoC.

    Attributes
    ----------
    identifier:
        Unique message index within the simulated iteration.
    source / destination:
        PE (node) indices.
    memory_location:
        Destination memory address ``t'`` where the payload will be stored.
    injection_cycle:
        Cycle at which the PE pushed the message into its local injection queue.
    delivery_cycle:
        Cycle at which the message reached the destination PE memory
        (-1 while in flight).
    hops:
        Number of router-to-router hops traversed so far.
    misroutes:
        Number of hops taken away from a shortest path (SCM collisions).
    """

    identifier: int
    source: int
    destination: int
    memory_location: int = 0
    injection_cycle: int = 0
    delivery_cycle: int = -1
    hops: int = 0
    misroutes: int = 0

    @property
    def delivered(self) -> bool:
        """True once the message has reached its destination memory."""
        return self.delivery_cycle >= 0

    @property
    def latency(self) -> int:
        """Injection-to-delivery latency in cycles (-1 while in flight)."""
        if not self.delivered:
            return -1
        return self.delivery_cycle - self.injection_cycle


@dataclass
class MessageStatistics:
    """Aggregate statistics over a set of delivered messages.

    ``latencies`` holds every delivered message's latency.  Both engines
    record them in message (CSR) order, source node by source node;
    ``ReferenceNocSimulator`` records them in delivery order, so compare a
    reference run's list with an engine's only as a multiset.
    """

    count: int = 0
    total_latency: int = 0
    max_latency: int = 0
    total_hops: int = 0
    misrouted: int = 0
    latencies: list[int] = field(default_factory=list, repr=False)

    def record(self, message: Message) -> None:
        """Accumulate one delivered message."""
        if not message.delivered:
            return
        self.count += 1
        latency = message.latency
        self.total_latency += latency
        self.max_latency = max(self.max_latency, latency)
        self.total_hops += message.hops
        if message.misroutes:
            self.misrouted += 1
        self.latencies.append(latency)

    @property
    def mean_latency(self) -> float:
        """Average injection-to-delivery latency."""
        return self.total_latency / self.count if self.count else 0.0

    @property
    def mean_hops(self) -> float:
        """Average number of hops per delivered message."""
        return self.total_hops / self.count if self.count else 0.0
