"""Traffic patterns: the per-PE ordered message lists of one decoding iteration.

After the mapping substrate has partitioned a code over the P NoC nodes, one
decoding iteration (LDPC) or half-iteration (turbo) becomes, for each PE, an
ordered list of messages to emit: ``(destination PE, destination memory
location)``.  This is the "equivalent interleaver" the paper derives from the
parity-check matrix (Section III-A); for turbo codes it comes directly from
the CTC permutation and the block partitioning.

:class:`TrafficPattern` is the one format of these lists, from the mapping
flow to both NoC engines: per-node offsets into flat destination and
memory-location arrays (compressed sparse rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.utils.rng import make_rng, spawn_rngs


@dataclass(frozen=True, eq=False)
class TrafficPattern:
    """Complete traffic description of one message-passing phase, in CSR form.

    Node ``n`` emits, in order, the messages at flat slots
    ``offsets[n]:offsets[n + 1]``: message ``i`` goes to PE ``dest[i]``,
    memory location ``memory[i]``.  The three arrays are int64 copies made
    read-only on construction, so a pattern can be shared across jobs and
    worker processes like the immutable value it is; ``==`` compares their
    contents.

    Attributes
    ----------
    n_nodes:
        Number of PEs / NoC nodes.
    offsets:
        ``(n_nodes + 1,)`` start slot of each node's messages, then the total.
    dest:
        Destination PE of every message, node by node.
    memory:
        Destination memory location of every message.
    label:
        Human-readable description (code and mapping used).
    """

    n_nodes: int
    offsets: np.ndarray
    dest: np.ndarray
    memory: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_nodes < 0:
            raise MappingError(f"n_nodes must be non-negative, got {self.n_nodes}")
        for name in ("offsets", "dest", "memory"):
            array = np.array(getattr(self, name), dtype=np.int64)
            if array.ndim != 1:
                raise MappingError(f"{name} must be one-dimensional, got shape {array.shape}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        offsets, dest = self.offsets, self.dest
        if offsets.size != self.n_nodes + 1:
            raise MappingError(
                f"offsets must hold n_nodes + 1 = {self.n_nodes + 1} entries, got {offsets.size}"
            )
        if offsets[0] != 0:
            raise MappingError(f"offsets must start at 0, got {offsets[0]}")
        if (offsets[1:] < offsets[:-1]).any():
            raise MappingError("offsets must be non-decreasing")
        if not offsets[-1] == dest.size == self.memory.size:
            raise MappingError(
                f"offsets end at {offsets[-1]} but dest holds {dest.size} and memory "
                f"{self.memory.size} messages"
            )
        outside = (dest < 0) | (dest >= self.n_nodes)
        if outside.any():
            raise MappingError(
                f"destination {dest[outside][0]} outside [0, {self.n_nodes})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficPattern):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.label == other.label
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.dest, other.dest)
            and np.array_equal(self.memory, other.memory)
        )

    def __reduce__(self):
        # Unpickling rebuilds through __init__, so a worker's copy is
        # validated and read-only too.
        return (TrafficPattern, (self.n_nodes, self.offsets, self.dest, self.memory, self.label))

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def source(self) -> np.ndarray:
        """Source PE of every message."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.messages_per_node())

    @property
    def total_messages(self) -> int:
        """Total number of messages emitted per iteration (including local ones)."""
        return int(self.dest.size)

    @property
    def local_messages(self) -> int:
        """Messages whose destination PE equals the source PE."""
        return int(np.count_nonzero(self.dest == self.source))

    def messages_per_node(self) -> np.ndarray:
        """Array of per-node emitted message counts."""
        return np.diff(self.offsets)

    def pair_counts(self) -> np.ndarray:
        """``(P, P)`` message counts per (source, destination) pair.

        The demand-matrix view the analytical NoC model consumes: entry
        ``(s, d)`` is the number of messages node ``s`` emits towards node
        ``d`` (the diagonal holds local messages).
        """
        n = self.n_nodes
        return np.bincount(self.source * n + self.dest, minlength=n * n).reshape(n, n)

    def destination_histogram(self) -> np.ndarray:
        """Number of messages *received* by each node."""
        return np.bincount(self.dest, minlength=self.n_nodes)


def random_traffic(
    n_nodes: int,
    messages_per_node: int,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
    label: str = "",
) -> TrafficPattern:
    """Uniform-random synthetic traffic: every PE addresses random destinations.

    Used by the differential test harness and the engine throughput bench as a
    stand-in for mapped code traffic.  The same ``seed`` always yields the
    same :class:`TrafficPattern` (and hence identical cycle counts on both the
    engine and the reference simulator); pass an explicit ``rng`` to draw from
    an externally managed stream instead.

    Parameters
    ----------
    n_nodes:
        Number of PEs / NoC nodes.
    messages_per_node:
        Number of messages each PE emits per iteration.
    seed:
        Seed for the destination draws (ignored when ``rng`` is given).
    rng:
        Optional generator to draw from (advances its state).
    label:
        Traffic label; defaults to a descriptive ``random(...)`` string.
    """
    if n_nodes <= 0:
        raise MappingError(f"n_nodes must be positive, got {n_nodes}")
    if messages_per_node < 0:
        raise MappingError(
            f"messages_per_node must be non-negative, got {messages_per_node}"
        )
    generator = rng if rng is not None else make_rng(seed)
    destinations = generator.integers(0, n_nodes, size=(n_nodes, messages_per_node))
    if not label:
        label = f"random(P={n_nodes},m={messages_per_node},seed={seed})"
    return TrafficPattern(
        n_nodes,
        offsets=np.arange(n_nodes + 1) * messages_per_node,
        dest=destinations.ravel(),
        memory=np.tile(np.arange(messages_per_node), n_nodes),
        label=label,
    )


def random_traffic_streams(
    n_nodes: int,
    messages_per_node: int,
    seed: int,
    count: int,
) -> list[TrafficPattern]:
    """``count`` statistically independent random patterns from one sweep seed.

    Each sweep point gets its own :class:`numpy.random.SeedSequence`-spawned
    stream, so patterns are mutually distinct yet reproducible from the single
    top-level seed — the same discipline the batched BER runner applies to its
    per-batch noise streams.
    """
    return [
        random_traffic(
            n_nodes,
            messages_per_node,
            seed=None,
            rng=stream_rng,
            label=f"random(P={n_nodes},m={messages_per_node},seed={seed},stream={index})",
        )
        for index, stream_rng in enumerate(spawn_rngs(seed, count))
    ]


def traffic_from_permutation(
    permutation: np.ndarray,
    partition_of_positions: np.ndarray,
    n_nodes: int,
    label: str = "",
) -> TrafficPattern:
    """Build turbo-style traffic from a position permutation and a position->PE map.

    Position ``k`` (natural order) produces one extrinsic message that must be
    delivered to the PE owning position ``permutation[k]`` (interleaved order).
    The destination memory location is the within-PE index of that position.

    Parameters
    ----------
    permutation:
        The interleaver permutation ``P`` (length = number of positions).
    partition_of_positions:
        ``partition_of_positions[k]`` is the PE that owns position ``k``.
    n_nodes:
        Number of PEs.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    owner = np.asarray(partition_of_positions, dtype=np.int64)
    if perm.shape != owner.shape:
        raise MappingError("permutation and partition must have the same length")
    if owner.size and (owner.min() < 0 or owner.max() >= n_nodes):
        raise MappingError(f"partition references PEs outside [0, {n_nodes})")
    # Group positions by owner PE, natural order within a PE: a position's
    # rank in its group is its within-PE memory index, and the grouped
    # order is each PE's emission order.
    by_owner = np.argsort(owner, kind="stable")
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_nodes), out=offsets[1:])
    local_index = np.empty(perm.size, dtype=np.int64)
    local_index[by_owner] = np.arange(perm.size) - offsets[owner[by_owner]]
    target = perm[by_owner]
    return TrafficPattern(n_nodes, offsets, owner[target], local_index[target], label)
