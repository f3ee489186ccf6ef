"""NoC simulation and architecture parameters.

These mirror the parameter set of the paper's simulator (Section III-A):
PE output rate ``R``, routing algorithm (SSP-RR, SSP-FL, ASP-FT), collision
management (DCM/SCM), local-message routing flag ``RL`` and the node
architecture (All-Precalculated or Partially-Precalculated), which fixes the
packet format (header or not) and where the routing information lives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import ceil, log2

from repro.errors import ConfigurationError


class RoutingAlgorithm(str, Enum):
    """Routing algorithms embedded in the simulator (paper Section III-A)."""

    #: Single shortest path, round-robin serving of contending input FIFOs.
    SSP_RR = "SSP-RR"
    #: Single shortest path, longest-input-FIFO-first serving.
    SSP_FL = "SSP-FL"
    #: All local shortest paths, FIFO-length serving with traffic spreading.
    ASP_FT = "ASP-FT"

    @property
    def uses_all_paths(self) -> bool:
        """True when multiple shortest-path output ports may be used."""
        return self is RoutingAlgorithm.ASP_FT


class CollisionPolicy(str, Enum):
    """What happens to messages that lose crossbar arbitration."""

    #: Delay Colliding Messages: losers stay at the head of their FIFOs.
    DCM = "DCM"
    #: Send Colliding Messages: losers are routed to a free (possibly wrong) port.
    SCM = "SCM"


class NodeArchitecture(str, Enum):
    """Node architectures considered by the paper (from [17])."""

    #: All-Precalculated: routing decisions precomputed off-line, no packet
    #: header, shallow FIFOs, per-node routing memory.
    AP = "AP"
    #: Partially-Precalculated: destination id travels in the packet header,
    #: routing performed on-line from routing tables.
    PP = "PP"


#: Default payload width in bits (extrinsic message: 2 x 5-bit bit-level LLRs,
#: rounded up to include the destination memory location for LDPC R messages).
DEFAULT_PAYLOAD_BITS = 10


@dataclass(frozen=True)
class NocConfiguration:
    """Complete parameter set of one NoC simulation / area evaluation.

    FIFO depth is measured, not configured: every simulator FIFO is
    unbounded, and the peak occupancy a simulation reports is what sizes the
    hardware FIFOs (and feeds the NoC area model).

    Attributes
    ----------
    routing_algorithm:
        One of :class:`RoutingAlgorithm`.
    node_architecture:
        AP or PP.  Following the paper's Table I, ASP-FT is evaluated on the
        AP architecture and the SSP algorithms on the PP architecture, but any
        combination can be configured explicitly.
    injection_rate:
        PE output rate ``R`` in messages per clock cycle (0 < R <= 1).
    route_local:
        ``RL`` flag: route PE-to-same-PE messages through the network (True)
        or keep them in an internal queue (False, the paper's setting).
    collision_policy:
        DCM or SCM (the paper's Table I uses SCM).
    payload_bits:
        Payload width of one message in bits (excluding any header).
    location_bits:
        Width of the destination memory location ``t'`` carried with each
        message (paper Fig. 1); part of the packet for PP, stored in the
        location memory for AP.
    """

    routing_algorithm: RoutingAlgorithm = RoutingAlgorithm.SSP_FL
    node_architecture: NodeArchitecture = NodeArchitecture.PP
    injection_rate: float = 0.5
    route_local: bool = False
    collision_policy: CollisionPolicy = CollisionPolicy.SCM
    payload_bits: int = DEFAULT_PAYLOAD_BITS
    location_bits: int = 11

    def __post_init__(self) -> None:
        if not 0.0 < self.injection_rate <= 1.0:
            raise ConfigurationError(
                f"injection_rate must be in (0, 1], got {self.injection_rate}"
            )
        if self.payload_bits <= 0:
            raise ConfigurationError(f"payload_bits must be positive, got {self.payload_bits}")
        if self.location_bits < 0:
            raise ConfigurationError(
                f"location_bits must be non-negative, got {self.location_bits}"
            )

    # ------------------------------------------------------------------ #
    # Derived packet geometry
    # ------------------------------------------------------------------ #
    def header_bits(self, n_nodes: int) -> int:
        """Packet header width: the destination-node identifier for PP, none for AP."""
        if self.node_architecture is NodeArchitecture.AP:
            return 0
        if n_nodes <= 1:
            raise ConfigurationError(f"n_nodes must be >= 2, got {n_nodes}")
        return ceil(log2(n_nodes))

    def flit_bits(self, n_nodes: int) -> int:
        """Total width of one message as stored in an input FIFO."""
        # The destination memory location travels with the packet on PP nodes;
        # AP nodes read it from their local location memory instead.
        location = self.location_bits if self.node_architecture is NodeArchitecture.PP else 0
        return self.payload_bits + self.header_bits(n_nodes) + location

    def with_routing(self, algorithm: RoutingAlgorithm) -> "NocConfiguration":
        """Copy of this configuration with a different routing algorithm.

        The node architecture always follows the paper's pairing (ASP-FT on
        AP, SSP-* on PP), even when this configuration set the other one
        explicitly; build a non-default pairing with
        :func:`dataclasses.replace` instead.
        """
        architecture = (
            NodeArchitecture.AP if algorithm.uses_all_paths else NodeArchitecture.PP
        )
        return replace(self, routing_algorithm=algorithm, node_architecture=architecture)

    def describe(self) -> str:
        """One-line human-readable summary used in reports."""
        return (
            f"{self.routing_algorithm.value} ({self.node_architecture.value}), "
            f"R={self.injection_rate}, RL={int(self.route_local)}, "
            f"{self.collision_policy.value}"
        )
