"""Property suite for the pure dynamic batcher behind the decode service.

The batcher is clock-free (callers pass ``now``), so hypothesis can drive
it through adversarial arrival patterns — bursts, long idle gaps, offers
and polls interleaved at arbitrary (monotone) times — and check the
invariants the service relies on:

* conservation: every offered item leaves in exactly one batch, no loss,
  no duplication, FIFO order preserved;
* size: no batch exceeds ``max_batch``; reaching ``max_batch`` flushes
  immediately;
* deadline: after ``poll(now)`` no queued item's deadline has passed, and
  an item never waits beyond ``max_delay_s`` past its arrival before some
  ``poll`` at/after its deadline releases it;
* capacity: ``offer`` refuses (and does not enqueue) exactly when the
  configured bound is reached.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.service.batcher import DynamicBatcher

import pytest


# One adversarial schedule: each step advances time by `gap` then either
# offers one item or polls.  Gaps of 0 build bursts; big gaps force
# deadline flushes between arrivals.
_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
        st.sampled_from(["offer", "poll"]),
    ),
    min_size=1,
    max_size=80,
)


def _drive(batcher: DynamicBatcher, steps, max_delay_s: float):
    """Run one schedule; return (offered ids, flushed batches, refused ids)."""
    ids = itertools.count()
    now = 0.0
    offered: list[int] = []
    refused: list[int] = []
    batches: list[list] = []
    for gap, op in steps:
        now += gap
        if op == "offer":
            item_id = next(ids)
            result = batcher.offer(item_id, now)
            if result is None:
                refused.append(item_id)
                continue
            offered.append(item_id)
            if result:
                batches.append(result)
        else:
            batches.extend(batcher.poll(now))
        # Deadline invariant: nothing overdue survives a poll, and offers
        # only leave overdue items when their deadline falls exactly now.
        head = batcher.next_deadline()
        if op == "poll":
            assert head is None or head > now
    batches.extend(batcher.flush_all())
    return offered, batches, refused


@given(steps=_steps, max_batch=st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_conservation_and_order(steps, max_batch):
    """No item lost or duplicated; FIFO order; batch size capped."""
    batcher = DynamicBatcher(max_batch=max_batch, max_delay_s=0.005)
    offered, batches, refused = _drive(batcher, steps, 0.005)
    assert refused == []  # unbounded: nothing is ever refused
    flushed = [item.payload for batch in batches for item in batch]
    assert flushed == offered  # exactly once each, in arrival order
    assert all(1 <= len(batch) <= max_batch for batch in batches)


@given(steps=_steps, max_batch=st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_deadlines_honored(steps, max_batch):
    """Every item leaves in a batch released no later than its deadline allows.

    ``_drive`` already asserts that no overdue item survives a ``poll``;
    here we additionally check each flushed item's recorded deadline is
    consistent with its arrival time and the configured budget.
    """
    max_delay_s = 0.004
    batcher = DynamicBatcher(max_batch=max_batch, max_delay_s=max_delay_s)
    _, batches, _ = _drive(batcher, steps, max_delay_s)
    for batch in batches:
        for item in batch:
            assert item.deadline == item.enqueued_at + max_delay_s
        # FIFO within the batch: deadlines are non-decreasing.
        deadlines = [item.deadline for item in batch]
        assert deadlines == sorted(deadlines)


@given(steps=_steps, capacity=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_capacity_backpressure(steps, capacity):
    """Offers are refused exactly when the queue is at its bound."""
    batcher = DynamicBatcher(max_batch=100, max_delay_s=10.0, capacity=capacity)
    depth = 0
    now = 0.0
    for gap, op in steps:
        now += gap
        if op == "offer":
            was_full = batcher.is_full
            assert was_full == (depth >= capacity)
            result = batcher.offer(object(), now)
            if was_full:
                assert result is None  # refused, not enqueued
            else:
                assert result is not None
                depth = depth + 1 if not result else depth + 1 - len(result)
        else:
            for batch in batcher.poll(now):
                depth -= len(batch)
        assert batcher.depth == depth
        assert depth <= capacity


def test_batch_full_flushes_immediately():
    batcher = DynamicBatcher(max_batch=3, max_delay_s=60.0)
    assert batcher.offer("a", 0.0) == []
    assert batcher.offer("b", 0.0) == []
    flushed = batcher.offer("c", 0.0)
    assert [item.payload for item in flushed] == ["a", "b", "c"]
    assert batcher.depth == 0


def test_poll_rides_younger_items_along():
    """A deadline flush takes the whole queue, not just the overdue head."""
    batcher = DynamicBatcher(max_batch=10, max_delay_s=1.0)
    batcher.offer("old", 0.0)
    batcher.offer("young", 0.9)
    (batch,) = batcher.poll(1.0)  # old is due, young rides along
    assert [item.payload for item in batch] == ["old", "young"]


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        DynamicBatcher(max_batch=0, max_delay_s=0.1)
    with pytest.raises(ConfigurationError):
        DynamicBatcher(max_batch=1, max_delay_s=-0.1)
    with pytest.raises(ConfigurationError):
        DynamicBatcher(max_batch=1, max_delay_s=0.1, capacity=0)


@pytest.mark.parametrize("max_delay_s", [float("nan"), float("inf")])
def test_non_finite_delay_rejected(max_delay_s):
    """A NaN or infinite deadline would never flush its batch."""
    with pytest.raises(ConfigurationError, match="finite"):
        DynamicBatcher(max_batch=1, max_delay_s=max_delay_s)
