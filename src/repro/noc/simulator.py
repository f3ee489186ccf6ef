"""Cycle-accurate simulation of the message-passing phase.

Two implementations share one contract:

* :class:`ReferenceNocSimulator` — the original per-object simulator that
  walks Python :class:`~repro.noc.node.RouterNode` / ``MessageFifo`` /
  ``Message`` graphs one cycle at a time.  It is kept as the executable
  specification: slow but transparently close to the SystemC "Turbo NoC"
  tool the paper relies on.
* :class:`~repro.noc.engine.BatchNocSimulator` — the struct-of-arrays cycle
  engine and the production entry point, pinned cycle-exact against the
  reference by ``tests/test_noc_engine.py``.

Per cycle, either implementation performs:

1. link arrivals scheduled on the previous cycle are pushed into the
   destination node's input FIFOs;
2. every node performs one crossbar pass — each input FIFO may forward its
   head message to one output port (network link or local memory port),
   subject to one-message-per-output-port arbitration, the configured serving
   policy (RR / FL), path choice (SSP / ASP-FT) and collision management
   (DCM / SCM);
3. every PE injects new messages at rate ``R`` into its injection FIFO
   (local messages bypass the network when ``RL = 0``).

The number of cycles needed to drain all traffic is ``ncycles`` of paper
eq. (12); the maximum FIFO occupancies size the hardware FIFOs and feed the
area model.
"""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.noc.config import CollisionPolicy, NocConfiguration
from repro.noc.engine import as_seed
from repro.noc.message import Message, MessageStatistics
from repro.noc.node import RouterNode
from repro.noc.results import SimulationResult
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.topologies import Topology
from repro.noc.traffic import TrafficPattern
from repro.utils.validation import require_int

__all__ = ["SimulationResult", "ReferenceNocSimulator"]


class ReferenceNocSimulator:
    """Per-object reference simulator (the executable specification).

    Same constructor and :meth:`run` contract as
    :class:`~repro.noc.engine.BatchNocSimulator`; the differential harness in
    ``tests/test_noc_engine.py`` pins the engine against this implementation
    cycle-exactly.
    """

    def __init__(
        self,
        topology: Topology,
        config: NocConfiguration,
        routing_tables: RoutingTables | None = None,
        seed: int = 0,
        max_cycles: int = 200_000,
    ):
        require_int("max_cycles", max_cycles, 1, SimulationError)
        self.topology = topology
        self.config = config
        self.tables = (
            routing_tables if routing_tables is not None else build_routing_tables(topology)
        )
        if self.tables.topology is not topology:
            raise SimulationError("routing tables were built for a different topology")
        self.seed = as_seed(seed)
        self.max_cycles = max_cycles

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def run(self, traffic: TrafficPattern) -> SimulationResult:
        """Simulate one message-passing phase and return its measurements."""
        if traffic.n_nodes != self.topology.n_nodes:
            raise SimulationError(
                f"traffic references {traffic.n_nodes} nodes but the topology has "
                f"{self.topology.n_nodes}"
            )
        # One shared deflection stream for all nodes, drawn in node/serving
        # order.  random.Random is used (rather than a NumPy generator)
        # because its single-value randrange draw is several times cheaper
        # and the stream is equally deterministic per seed.
        rng = random.Random(self.seed)
        nodes = [
            RouterNode(
                node_id=node,
                out_degree=self.topology.out_degree(node),
                in_degree=self.topology.in_degree(node),
                config=self.config,
                tables=self.tables,
                rng=rng,
            )
            for node in range(self.topology.n_nodes)
        ]
        # Map each arc index to (destination node, input-port index at destination).
        arc_to_input: dict[int, tuple[int, int]] = {}
        for node in range(self.topology.n_nodes):
            for input_port, (arc_index, _) in enumerate(self.topology.in_arcs(node)):
                arc_to_input[arc_index] = (node, input_port)
        # Per node: output port index -> (neighbor node, neighbor input port).
        out_port_map: list[list[tuple[int, int]]] = []
        for node in range(self.topology.n_nodes):
            mapping = []
            for arc_index, _ in self.topology.out_arcs(node):
                mapping.append(arc_to_input[arc_index])
            out_port_map.append(mapping)

        # Per-node message lists, read with plain Python indexing below.
        offsets = traffic.offsets.tolist()
        all_dests, all_locations = traffic.dest.tolist(), traffic.memory.tolist()
        node_lists = [
            (all_dests[lo:hi], all_locations[lo:hi]) for lo, hi in zip(offsets, offsets[1:])
        ]

        stats = MessageStatistics()
        injection_pointer = [0] * traffic.n_nodes
        injection_credit = [0.0] * traffic.n_nodes
        next_message_id = 0
        total_messages = traffic.total_messages
        delivered = 0
        local_bypassed = 0
        total_hops_used = 0
        # Arrivals scheduled for the *next* cycle: list of (node, input_port, message).
        pending_arrivals: list[tuple[int, int, Message]] = []

        cycle = 0
        while delivered < total_messages:
            if cycle > self.max_cycles:
                raise SimulationError(
                    f"simulation exceeded {self.max_cycles} cycles with "
                    f"{total_messages - delivered} messages still in flight"
                )
            # 1. Apply link arrivals scheduled on the previous cycle.
            for node_id, input_port, message in pending_arrivals:
                nodes[node_id].input_fifos[input_port].push(message)
            pending_arrivals = []

            # 2. Crossbar pass on every node.
            for node in nodes:
                delivered_now, hops_now = self._crossbar_pass(
                    node, out_port_map, pending_arrivals, cycle, stats
                )
                delivered += delivered_now
                total_hops_used += hops_now

            # 3. PE injection at rate R.  With RL = 0, messages addressed to the
            # local PE never touch the network interface: they are written to
            # the PE's internal queue as soon as they are produced and do not
            # consume the per-cycle injection budget.
            for node in nodes:
                node_id = node.node_id
                destinations, locations = node_lists[node_id]
                if injection_pointer[node_id] >= len(destinations):
                    continue
                injection_credit[node_id] += self.config.injection_rate
                while injection_pointer[node_id] < len(destinations):
                    idx = injection_pointer[node_id]
                    destination = destinations[idx]
                    location = locations[idx]
                    is_bypass = destination == node_id and not self.config.route_local
                    if not is_bypass and injection_credit[node_id] < 1.0:
                        break
                    message = Message(
                        identifier=next_message_id,
                        source=node_id,
                        destination=destination,
                        memory_location=location,
                        injection_cycle=cycle,
                    )
                    next_message_id += 1
                    injection_pointer[node_id] += 1
                    if is_bypass:
                        message.delivery_cycle = cycle
                        delivered += 1
                        local_bypassed += 1
                        stats.record(message)
                    else:
                        injection_credit[node_id] -= 1.0
                        node.injection_fifo.push(message)
            cycle += 1

        per_node_max = [node.max_input_occupancy() for node in nodes]
        max_injection = max(node.max_injection_occupancy() for node in nodes)
        link_utilization = 0.0
        if cycle > 0 and self.topology.n_arcs > 0:
            link_utilization = total_hops_used / (self.topology.n_arcs * cycle)
        return SimulationResult(
            ncycles=cycle,
            total_messages=total_messages,
            delivered_messages=delivered,
            local_bypassed=local_bypassed,
            max_fifo_occupancy=max(per_node_max) if per_node_max else 0,
            max_injection_occupancy=max_injection,
            per_node_max_fifo=per_node_max,
            statistics=stats,
            link_utilization=link_utilization,
            config_label=self.config.describe(),
            topology_label=self.topology.name,
            traffic_label=traffic.label,
        )

    # ------------------------------------------------------------------ #
    # One crossbar pass for one node
    # ------------------------------------------------------------------ #
    def _crossbar_pass(
        self,
        node: RouterNode,
        out_port_map: list[list[tuple[int, int]]],
        pending_arrivals: list[tuple[int, int, Message]],
        cycle: int,
        stats: MessageStatistics,
    ) -> tuple[int, int]:
        """Route at most one message per input FIFO and per output port; return
        (messages delivered locally, hops consumed).  FIFOs are unbounded, so
        every output port starts the pass free."""
        fifos = node.all_input_fifos()
        port_targets = out_port_map[node.node_id]
        free_ports = set(range(node.out_degree))
        local_port_free = True
        delivered_now = 0
        hops_now = 0

        for input_port in node.serving_order():
            message = fifos[input_port].head()
            if message is None:
                continue
            if message.destination == node.node_id:
                if local_port_free:
                    fifos[input_port].pop()
                    message.delivery_cycle = cycle
                    node.delivered_local += 1
                    delivered_now += 1
                    stats.record(message)
                    local_port_free = False
                # A locally destined message that loses the memory port simply
                # waits; deflecting it away from its destination would be wasteful.
                continue
            allowed = node.desired_output_ports(message)
            output_port = node.choose_output_port(allowed, free_ports)
            deflected = False
            if output_port is None and self.config.collision_policy is CollisionPolicy.SCM:
                output_port = node.choose_deflection_port(free_ports)
                deflected = output_port is not None
            if output_port is None:
                continue  # DCM (or no free port at all): the message waits.
            fifos[input_port].pop()
            free_ports.discard(output_port)
            node.record_send(output_port)
            target_node, target_port = port_targets[output_port]
            message.hops += 1
            hops_now += 1
            if deflected:
                message.misroutes += 1
            pending_arrivals.append((target_node, target_port, message))
        return delivered_now, hops_now
