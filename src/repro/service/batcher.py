"""Pure dynamic-batching policy: flush on batch-full OR deadline.

:class:`DynamicBatcher` is the clock-free core of the decode service's
aggregation layer, kept free of asyncio (and of any real clock — callers
pass ``now`` in) so its invariants can be property-tested exhaustively:

* every offered item leaves in exactly one flushed batch (no loss, no
  duplication),
* batches never exceed ``max_batch`` and preserve arrival (FIFO) order,
* a full queue flushes immediately; otherwise an item waits at most
  ``max_delay_s`` past its arrival before :meth:`poll` releases it,
* the queue never holds more than ``capacity`` items — once full,
  :meth:`offer` refuses and the service layer turns that refusal into its
  configured backpressure behaviour (reject-with-retry-after or
  await-a-slot).

One batcher serves one codec: the service keeps a batcher per
``(family, block, rate)`` so only compatible requests (same LLR length,
same decoder) ever share a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.errors import ConfigurationError

__all__ = ["DynamicBatcher", "QueuedItem"]

T = TypeVar("T")


@dataclass(frozen=True)
class QueuedItem(Generic[T]):
    """One queued payload with its arrival time and flush deadline."""

    payload: T
    enqueued_at: float
    deadline: float


class DynamicBatcher(Generic[T]):
    """FIFO aggregation queue for one codec.

    Parameters
    ----------
    max_batch:
        Largest batch ever flushed (the batch engines' sweet spot, e.g. 64).
    max_delay_s:
        Latency budget: an item is released no later than this long after
        arrival, full batch or not (``0`` degenerates to per-item flushes).
        Must be finite: an infinite or NaN deadline would never flush.
    capacity:
        Hard bound on queued items, or ``None`` for unbounded.  ``offer``
        returns ``None`` *without enqueuing* when the bound is hit.
    """

    def __init__(
        self,
        max_batch: int,
        max_delay_s: float,
        capacity: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if not 0.0 <= max_delay_s < math.inf:
            raise ConfigurationError(
                f"max_delay_s must be finite and >= 0, got {max_delay_s}"
            )
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.capacity = capacity
        self._queue: list[QueuedItem[T]] = []

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Number of items currently queued."""
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        """Whether the capacity bound is currently reached."""
        return self.capacity is not None and len(self._queue) >= self.capacity

    def next_deadline(self) -> float | None:
        """Earliest queued deadline, or ``None`` when the queue is empty.

        The queue is FIFO with a constant per-item delay, so the head item
        always carries the earliest deadline.
        """
        return self._queue[0].deadline if self._queue else None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def offer(self, payload: T, now: float) -> list[QueuedItem[T]] | None:
        """Enqueue ``payload`` at time ``now``; return a batch if one is due.

        Returns the flushed batch when the queue reaches ``max_batch``
        (batch-full flush), an empty list when the item was enqueued and is
        still waiting, or ``None`` — *without enqueuing* — when the
        capacity bound is hit (the caller applies backpressure).
        """
        if self.is_full:
            return None
        self._queue.append(
            QueuedItem(payload=payload, enqueued_at=now, deadline=now + self.max_delay_s)
        )
        if len(self._queue) >= self.max_batch:
            return self._pop_batch()
        return []

    def poll(self, now: float) -> list[list[QueuedItem[T]]]:
        """Release every batch whose head deadline has passed by time ``now``.

        After this returns, no queued item has ``deadline <= now``: expired
        items are drained in FIFO order into batches of at most
        ``max_batch``.  A deadline flush takes the *whole* queue up to the
        size cap — riding along with an expired head costs a younger item
        nothing and grows the batch the engines amortize over.
        """
        batches: list[list[QueuedItem[T]]] = []
        while self._queue and self._queue[0].deadline <= now:
            batches.append(self._pop_batch())
        return batches

    def flush_all(self) -> list[list[QueuedItem[T]]]:
        """Drain everything (service shutdown), in FIFO batches of max size."""
        batches: list[list[QueuedItem[T]]] = []
        while self._queue:
            batches.append(self._pop_batch())
        return batches

    def _pop_batch(self) -> list[QueuedItem[T]]:
        batch = self._queue[: self.max_batch]
        del self._queue[: self.max_batch]
        return batch
