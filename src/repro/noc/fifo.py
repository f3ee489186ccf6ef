"""Input FIFOs of the routing element.

Each input port of the F x F crossbar is buffered by a FIFO (paper Fig. 1).
The simulator uses :class:`MessageFifo` both for those input FIFOs and for
the PE injection queue; the maximum occupancy ever reached is recorded because
it is what sizes the hardware FIFO (and therefore drives the NoC area model).
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.noc.message import Message


class MessageFifo:
    """Bounded FIFO with occupancy statistics."""

    def __init__(self, capacity: int, name: str = "fifo"):
        if capacity <= 0:
            raise SimulationError(f"FIFO capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.name = name
        self._queue: deque[Message] = deque()
        self._max_occupancy = 0

    # ------------------------------------------------------------------ #
    # Queue operations
    # ------------------------------------------------------------------ #
    def push(self, message: Message) -> None:
        """Append a message; raises when the FIFO is full (backpressure bug guard)."""
        if self.is_full():
            raise SimulationError(
                f"{self.name}: push on a full FIFO (capacity {self.capacity}); "
                "the simulator should have applied backpressure"
            )
        self._queue.append(message)
        if len(self._queue) > self._max_occupancy:
            self._max_occupancy = len(self._queue)

    def pop(self) -> Message:
        """Remove and return the head message."""
        if not self._queue:
            raise SimulationError(f"{self.name}: pop on an empty FIFO")
        return self._queue.popleft()

    def head(self) -> Message | None:
        """Peek at the head message without removing it."""
        return self._queue[0] if self._queue else None

    # ------------------------------------------------------------------ #
    # State queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._queue)

    def is_empty(self) -> bool:
        """True when the FIFO holds no messages."""
        return not self._queue

    def is_full(self) -> bool:
        """True when the FIFO is at capacity."""
        return len(self._queue) >= self.capacity

    @property
    def occupancy(self) -> int:
        """Current number of queued messages."""
        return len(self._queue)

    @property
    def max_occupancy(self) -> int:
        """Largest occupancy ever observed (sizes the hardware FIFO)."""
        return self._max_occupancy
