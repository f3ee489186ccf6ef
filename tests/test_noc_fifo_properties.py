"""Hypothesis round-trip/invariant tests for ``noc/fifo.py`` and ``noc/message.py``.

A :class:`~repro.noc.fifo.MessageFifo` is modelled against a plain deque: any
interleaving of pushes and pops must preserve FIFO ordering, track the
occupancy high-water mark exactly, and lose no message under full-FIFO
backpressure (a push on a full FIFO raises and leaves the contents intact).
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.noc import Message, MessageFifo
from repro.noc.message import MessageStatistics

# An operation sequence: True = push (next message id), False = pop.
ops_strategy = st.lists(st.booleans(), max_size=80)


class TestFifoAgainstModel:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(capacity=st.integers(1, 8), ops=ops_strategy)
    def test_fifo_matches_deque_model(self, capacity, ops):
        fifo = MessageFifo(capacity, name="model")
        model: deque[int] = deque()
        high_water = 0
        next_id = 0
        for is_push in ops:
            if is_push:
                message = Message(identifier=next_id, source=0, destination=1)
                next_id += 1
                if len(model) >= capacity:
                    # Backpressure: the push must raise and lose nothing.
                    assert fifo.is_full()
                    with pytest.raises(SimulationError):
                        fifo.push(message)
                else:
                    fifo.push(message)
                    model.append(message.identifier)
                    high_water = max(high_water, len(model))
            else:
                if model:
                    assert fifo.pop().identifier == model.popleft()
                else:
                    assert fifo.is_empty()
                    with pytest.raises(SimulationError):
                        fifo.pop()
            # Invariants that must hold after every operation.
            assert len(fifo) == len(model) == fifo.occupancy
            assert fifo.is_empty() == (not model)
            assert fifo.is_full() == (len(model) >= capacity)
            head = fifo.head()
            assert (head.identifier if head is not None else None) == (
                model[0] if model else None
            )
        assert fifo.max_occupancy == high_water
        # Draining returns the survivors in exact arrival order (no loss, no dup).
        drained = [fifo.pop().identifier for _ in range(len(fifo))]
        assert drained == list(model)


class TestMessageProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        injection=st.integers(0, 10_000),
        flight=st.integers(0, 10_000),
        src=st.integers(0, 63),
        dst=st.integers(0, 63),
    )
    def test_latency_round_trip(self, injection, flight, src, dst):
        message = Message(
            identifier=0, source=src, destination=dst, injection_cycle=injection
        )
        assert not message.delivered
        assert message.latency == -1
        message.delivery_cycle = injection + flight
        assert message.delivered
        assert message.latency == flight

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(latencies=st.lists(st.integers(0, 500), min_size=1, max_size=40))
    def test_statistics_against_model(self, latencies):
        stats = MessageStatistics()
        for i, latency in enumerate(latencies):
            stats.record(
                Message(i, 0, 1, injection_cycle=0, delivery_cycle=latency, hops=2)
            )
        assert stats.count == len(latencies)
        assert stats.total_latency == sum(latencies)
        assert stats.max_latency == max(latencies)
        assert stats.mean_latency == pytest.approx(sum(latencies) / len(latencies))
        assert stats.mean_hops == pytest.approx(2.0)

    def test_statistics_ignore_in_flight_messages(self):
        stats = MessageStatistics()
        stats.record(Message(0, 0, 1))
        assert stats.count == 0
        assert stats.mean_latency == 0.0
