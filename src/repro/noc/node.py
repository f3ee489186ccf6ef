"""The NoC node of paper Fig. 1: routing element, PE injection port and memory port.

Each node couples a Processing Element (PE) to the network through a Routing
Element (RE) built around an ``F x F`` crossbar: ``D`` input FIFOs fed by the
incoming network links plus one injection FIFO fed by the local PE, and ``D``
output registers driving the outgoing links plus one local output delivering
messages to the PE memory.

The routing / arbitration policies of the paper are implemented here:

* serving order of contending input FIFOs — round-robin (RR) or longest FIFO
  first (FL);
* output-port choice — single shortest path (SSP) or all shortest paths with
  traffic spreading (ASP-FT, which keeps a per-port sent-message statistic);
* collision management — DCM (losers wait) or SCM (losers are deflected to a
  free output port).
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import SimulationError
from repro.noc.config import CollisionPolicy, NocConfiguration, RoutingAlgorithm
from repro.noc.fifo import MessageFifo
from repro.noc.message import Message
from repro.noc.routing import RoutingTables
from repro.utils.rng import bounded_draw


class RouterNode:
    """One NoC node (RE + injection queue) driven by the simulator.

    Parameters
    ----------
    node_id:
        Index of this node in the topology.
    out_degree / in_degree:
        Number of outgoing / incoming network links of this node.
    config:
        The NoC configuration (routing algorithm, collision policy).
    tables:
        Precomputed routing tables shared by all nodes.
    rng:
        Source of the SCM deflection randomness: either a
        :class:`random.Random` (the simulators' choice — drawn through
        :func:`~repro.utils.rng.bounded_draw` over its ``getrandbits``, the
        stream the vectorized engine reproduces bit-exactly) or a
        :class:`numpy.random.Generator`.
    """

    def __init__(
        self,
        node_id: int,
        out_degree: int,
        in_degree: int,
        config: NocConfiguration,
        tables: RoutingTables,
        rng: random.Random | np.random.Generator,
    ):
        self.node_id = node_id
        self.out_degree = out_degree
        self.in_degree = in_degree
        self.config = config
        self.tables = tables
        self._rng = rng
        if isinstance(rng, random.Random):
            getrandbits = rng.getrandbits
            self._draw = lambda n: bounded_draw(getrandbits, n)
        else:
            self._draw = lambda n: int(rng.integers(0, n))
        # Input side: one FIFO per incoming link plus the PE injection FIFO.
        self.input_fifos = [
            MessageFifo(name=f"node{node_id}.in{port}") for port in range(in_degree)
        ]
        self.injection_fifo = MessageFifo(name=f"node{node_id}.inject")
        # Round-robin pointer over input ports (including the injection port).
        self._rr_pointer = 0
        # ASP-FT statistic: messages sent per output port so far.
        self.port_sent_count = np.zeros(max(out_degree, 1), dtype=np.int64)
        # Statistics.
        self.delivered_local = 0
        self.forwarded = 0

    # ------------------------------------------------------------------ #
    # Input-side helpers
    # ------------------------------------------------------------------ #
    def all_input_fifos(self) -> list[MessageFifo]:
        """Network input FIFOs followed by the injection FIFO."""
        return [*self.input_fifos, self.injection_fifo]

    def max_input_occupancy(self) -> int:
        """Largest occupancy observed on any network input FIFO."""
        if not self.input_fifos:
            return 0
        return max(f.max_occupancy for f in self.input_fifos)

    def max_injection_occupancy(self) -> int:
        """Largest occupancy observed on the PE injection FIFO."""
        return self.injection_fifo.max_occupancy

    # ------------------------------------------------------------------ #
    # Serving order
    # ------------------------------------------------------------------ #
    def serving_order(self) -> list[int]:
        """Order in which input ports are offered to the crossbar this cycle.

        Port indices: ``0 .. in_degree-1`` are network inputs, ``in_degree``
        is the PE injection port.
        """
        fifos = self.all_input_fifos()
        n_ports = len(fifos)
        occupied = [port for port in range(n_ports) if not fifos[port].is_empty()]
        if not occupied:
            return []
        if self.config.routing_algorithm is RoutingAlgorithm.SSP_RR:
            start = self._rr_pointer % n_ports
            ordered = sorted(occupied, key=lambda port: (port - start) % n_ports)
            self._rr_pointer = (self._rr_pointer + 1) % n_ports
            return ordered
        # SSP-FL and ASP-FT both serve the longest FIFO first; ties are broken
        # by port index for determinism.
        return sorted(occupied, key=lambda port: (-len(fifos[port]), port))

    # ------------------------------------------------------------------ #
    # Output-port selection
    # ------------------------------------------------------------------ #
    def desired_output_ports(self, message: Message) -> tuple[int, ...]:
        """Output ports this message may legally take towards its destination."""
        if message.destination == self.node_id:
            raise SimulationError(
                f"node {self.node_id}: a locally destined message reached port selection"
            )
        if self.config.routing_algorithm.uses_all_paths:
            return self.tables.all_next_ports(self.node_id, message.destination)
        return (self.tables.single_next_port(self.node_id, message.destination),)

    def choose_output_port(
        self, allowed: tuple[int, ...], free_ports: set[int]
    ) -> int | None:
        """Pick one free output port among the allowed ones (traffic spreading for ASP)."""
        candidates = [port for port in allowed if port in free_ports]
        if not candidates:
            return None
        if self.config.routing_algorithm is RoutingAlgorithm.ASP_FT:
            # Spread traffic: prefer the allowed port that has carried the
            # fewest messages so far.
            return min(candidates, key=lambda port: (self.port_sent_count[port], port))
        return candidates[0]

    def choose_deflection_port(self, free_ports: set[int]) -> int | None:
        """SCM: pick a random free output port for a colliding message."""
        if self.config.collision_policy is not CollisionPolicy.SCM or not free_ports:
            return None
        ports = sorted(free_ports)
        return ports[self._draw(len(ports))]

    def record_send(self, output_port: int) -> None:
        """Update the traffic-spreading statistic after a message leaves."""
        self.port_sent_count[output_port] += 1
        self.forwarded += 1
