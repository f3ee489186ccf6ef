"""Seeding contract of the synthetic traffic generators in ``noc/traffic.py``.

The differential harness and the engine throughput bench rely on two
guarantees: identical seeds yield identical :class:`TrafficPattern` objects
(and hence identical cycle counts on the engine and the object simulator),
and one sweep seed spawns mutually distinct, reproducible per-point streams.
"""

from __future__ import annotations

import pytest

from repro.errors import MappingError
from repro.noc import (
    BatchNocSimulator,
    NocConfiguration,
    ReferenceNocSimulator,
    build_routing_tables,
    build_topology,
    random_traffic,
    random_traffic_streams,
)
from repro.utils.rng import make_rng
from traffic_lists import node_lists


class TestRandomTrafficSeeding:
    def test_identical_seeds_yield_identical_patterns(self):
        for seed in (0, 1, 12345):
            first = random_traffic(8, 30, seed=seed)
            second = random_traffic(8, 30, seed=seed)
            assert first == second
            assert node_lists(first) == node_lists(second)

    def test_distinct_seeds_yield_distinct_patterns(self):
        patterns = [random_traffic(8, 30, seed=seed) for seed in range(8)]
        destinations = {tuple(p.dest[: p.offsets[2]].tolist()) for p in patterns}
        assert len(destinations) == len(patterns)

    def test_same_seed_same_result_on_engine_and_object_simulator(self):
        """One seed -> one pattern -> the same cycle-exact measurement on both."""
        topology = build_topology("generalized-kautz", 8, 3)
        tables = build_routing_tables(topology)
        config = NocConfiguration()
        for seed in (0, 42):
            traffic_a = random_traffic(8, 25, seed=seed)
            traffic_b = random_traffic(8, 25, seed=seed)
            reference = ReferenceNocSimulator(
                topology, config, routing_tables=tables, seed=1
            ).run(traffic_a)
            engine = BatchNocSimulator(
                topology, config, routing_tables=tables, seed=1
            ).run(traffic_b)
            assert engine.ncycles == reference.ncycles
            assert engine.per_node_max_fifo == reference.per_node_max_fifo
            assert engine.statistics.total_hops == reference.statistics.total_hops

    def test_explicit_rng_advances_stream(self):
        rng = make_rng(7)
        first = random_traffic(6, 10, rng=rng)
        second = random_traffic(6, 10, rng=rng)
        assert node_lists(first) != node_lists(second)  # consecutive draws differ

    def test_destinations_stay_in_range(self):
        traffic = random_traffic(5, 200, seed=3)
        assert all(0 <= d < 5 for d in traffic.dest.tolist())

    def test_label_defaults_to_descriptive_string(self):
        assert random_traffic(4, 3, seed=9).label == "random(P=4,m=3,seed=9)"
        assert random_traffic(4, 3, seed=9, label="custom").label == "custom"

    def test_validation(self):
        with pytest.raises(MappingError):
            random_traffic(0, 3)
        with pytest.raises(MappingError):
            random_traffic(4, -1)

    def test_zero_messages(self):
        traffic = random_traffic(4, 0, seed=0)
        assert traffic.total_messages == 0


class TestSpawnedTrafficStreams:
    def test_streams_are_reproducible_from_the_sweep_seed(self):
        first = random_traffic_streams(8, 20, seed=5, count=4)
        second = random_traffic_streams(8, 20, seed=5, count=4)
        assert [node_lists(p) for p in first] == [node_lists(p) for p in second]

    def test_streams_are_mutually_distinct(self):
        streams = random_traffic_streams(8, 20, seed=5, count=6)
        signatures = {tuple(p.dest[: p.offsets[2]].tolist()) for p in streams}
        assert len(signatures) == len(streams)

    def test_streams_differ_across_sweep_seeds(self):
        a = random_traffic_streams(8, 20, seed=5, count=2)
        b = random_traffic_streams(8, 20, seed=6, count=2)
        assert node_lists(a[0]) != node_lists(b[0])

    def test_stream_labels_identify_the_sweep_point(self):
        streams = random_traffic_streams(4, 3, seed=2, count=2)
        assert streams[0].label == "random(P=4,m=3,seed=2,stream=0)"
        assert streams[1].label == "random(P=4,m=3,seed=2,stream=1)"

    def test_count_zero_gives_empty_list(self):
        assert random_traffic_streams(4, 3, seed=0, count=0) == []
