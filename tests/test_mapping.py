"""Unit tests for the mapping substrate (partitioner, LDPC/turbo mappings, quality)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, ReproError
from repro.ldpc import check_adjacency_graph
from repro.ldpc.wifi import wifi_ldpc_code
from repro.ldpc.wimax import wimax_ldpc_code
from repro.mapping import (
    evaluate_traffic_quality,
    map_ldpc_code,
    map_turbo_code,
    partition_graph,
)
from repro.mapping.ldpc_mapping import build_equivalent_interleaver
from repro.mapping.turbo_mapping import contiguous_partition


def _grid_graph(rows: int, cols: int) -> tuple[int, dict[tuple[int, int], int]]:
    """Unweighted 2D grid graph, a friendly case for partitioning."""
    edges: dict[tuple[int, int], int] = {}
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges[(node, node + 1)] = 1
            if r + 1 < rows:
                edges[(node, node + cols)] = 1
    return rows * cols, edges


class TestPartitioner:
    def test_partition_covers_all_vertices(self):
        n, edges = _grid_graph(8, 8)
        result = partition_graph(n, edges, n_parts=4, seed=0)
        assert result.assignment.shape == (n,)
        assert set(np.unique(result.assignment)) == {0, 1, 2, 3}

    def test_partition_is_balanced(self):
        n, edges = _grid_graph(8, 8)
        result = partition_graph(n, edges, n_parts=4, seed=0)
        assert result.part_sizes.sum() == n
        assert result.imbalance <= 1.15

    def test_partition_beats_random_cut_on_grid(self):
        n, edges = _grid_graph(10, 10)
        result = partition_graph(n, edges, n_parts=4, seed=0)
        total_weight = sum(edges.values())
        # A random 4-way split keeps only ~25% of edges internal; the grid is
        # easily partitioned far better than that.
        assert result.cut_weight < 0.5 * total_weight

    def test_cut_weight_matches_assignment(self):
        n, edges = _grid_graph(6, 6)
        result = partition_graph(n, edges, n_parts=3, seed=1)
        recomputed = sum(
            w for (a, b), w in edges.items() if result.assignment[a] != result.assignment[b]
        )
        assert recomputed == result.cut_weight

    def test_vertex_weights_balance_load(self):
        n, edges = _grid_graph(6, 6)
        weights = np.ones(n)
        weights[:6] = 10.0  # one heavy row
        result = partition_graph(n, edges, n_parts=3, seed=0, vertex_weights=weights)
        loads = np.zeros(3)
        for vertex in range(n):
            loads[result.assignment[vertex]] += weights[vertex]
        assert loads.max() <= 1.3 * loads.mean()

    def test_deterministic_for_fixed_seed(self):
        n, edges = _grid_graph(6, 6)
        first = partition_graph(n, edges, n_parts=3, seed=5)
        second = partition_graph(n, edges, n_parts=3, seed=5)
        assert np.array_equal(first.assignment, second.assignment)

    def test_single_part(self):
        n, edges = _grid_graph(4, 4)
        result = partition_graph(n, edges, n_parts=1, seed=0)
        assert result.cut_weight == 0
        assert np.all(result.assignment == 0)

    def test_invalid_arguments(self):
        n, edges = _grid_graph(4, 4)
        with pytest.raises(MappingError):
            partition_graph(n, edges, n_parts=0)
        with pytest.raises(MappingError):
            partition_graph(2, {}, n_parts=4)
        with pytest.raises(MappingError):
            partition_graph(n, edges, n_parts=2, attempts=0)
        with pytest.raises(MappingError):
            partition_graph(n, edges, n_parts=2, vertex_weights=np.zeros(n))
        with pytest.raises(MappingError):
            partition_graph(n, edges, n_parts=2, vertex_weights=np.ones(n + 1))
        with pytest.raises(MappingError):
            partition_graph(3, {(0, 7): 1}, n_parts=2)


@st.composite
def _weighted_graphs(draw):
    """A random graph with few distinct edge and vertex weights (many ties)."""
    n_parts = draw(st.integers(1, 8))
    n_vertices = draw(st.integers(n_parts, 60))
    pairs = st.tuples(st.integers(0, n_vertices - 1), st.integers(0, n_vertices - 1))
    edges = {
        (min(a, b), max(a, b)): weight
        for (a, b), weight in draw(
            st.lists(st.tuples(pairs, st.integers(1, 2)), max_size=4 * n_vertices)
        )
        if a != b
    }
    weights = draw(st.lists(st.integers(1, 3), min_size=n_vertices, max_size=n_vertices))
    return n_vertices, edges, n_parts, np.asarray(weights, dtype=np.float64)


class TestPartitionerProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graph=_weighted_graphs(), seed=st.integers(0, 100), attempts=st.integers(1, 3))
    def test_deterministic_and_balanced(self, graph, seed, attempts):
        """Same inputs, same partition; no part above the load bound.

        With the tolerance leaving room for the heaviest vertex above the
        ideal load, some lighter part can always take a vertex of an
        overweight one, so the balance pass must end with every part within
        the bound.
        """
        n_vertices, edges, n_parts, weights = graph
        ideal = weights.sum() / n_parts
        tolerance = 1.0 + 3.5 / ideal
        first, second = (
            partition_graph(
                n_vertices, edges, n_parts, seed=seed, attempts=attempts,
                imbalance_tolerance=tolerance, vertex_weights=weights,
            )
            for _ in range(2)
        )
        assert np.array_equal(first.assignment, second.assignment)
        assert (first.cut_weight, first.part_sizes.tolist()) == (
            second.cut_weight, second.part_sizes.tolist()
        )
        assert first.assignment.dtype == np.int64
        assert first.part_sizes.sum() == n_vertices
        assert first.cut_weight == sum(
            w for (a, b), w in edges.items() if first.assignment[a] != first.assignment[b]
        )
        loads = np.bincount(first.assignment, weights=weights, minlength=n_parts)
        assert loads.max() <= ideal * tolerance

    def test_leftover_vertices_pinned(self):
        """Weights spanning 16 decades defeat the float budget arithmetic of
        region growing, so some vertices stay unplaced and go to the
        lightest parts (seeds 0, 1, 5, 6, 7 take that pass).  Assignments
        recorded from the NumPy-scalar partitioner the list-native one
        replaced."""
        weights = [1.0, 7e16, 3e16, 3.0, 1.0, 1e16, 2.0]
        edges = {(0, 1): 1, (1, 2): 2, (3, 4): 1, (4, 5): 1, (5, 6): 2}
        split = ([1, 0, 1, 1, 1, 1, 0], 5)
        merged = ([1, 1, 0, 0, 0, 0, 0], 2)
        expected = [split, split, split, merged, merged, merged, split, split]
        for seed, (assignment, cut) in enumerate(expected):
            result = partition_graph(7, edges, 2, seed=seed, attempts=2, vertex_weights=weights)
            assert (result.assignment.tolist(), result.cut_weight) == (assignment, cut)


#: SHA-256 digests of ``map_ldpc_code`` outputs and of the partitioned
#: candidate it weighs (the QC-structured candidates win most 576 cases, so
#: the map digest alone would not pin the partitioner).  Keyed by (family, n,
#: rate, P, attempts, seed): the Table-I grid, then 576 r1/2 over seeds and
#: attempts, then one 802.11n code.  Recorded from the NumPy-scalar
#: partitioner and interleaver the list-native ones replaced.
MAPPING_DIGESTS = {
    ("wimax", 2304, "1/2", 16, 2, 0): (
        "d7be41fc8a3a5991b3870a8f03014530f2b4f627e7a4d28cad2f45f5b095b132",
        "d2f6597c6f5bc0339c6632b26e45e7bf613dfc4f4a7138d4cb3724695fbb4aa5",
    ),
    ("wimax", 2304, "1/2", 24, 2, 0): (
        "1f213586727c1d1ec5f4a60630df8f6b670432869b9f8c0bfafa0ce500d98269",
        "b15737f183c86146ade804993326c0fb3a9e68146852287b1066ee46fd565a6e",
    ),
    ("wimax", 2304, "1/2", 32, 2, 0): (
        "09f756ab390a61f8f748f482e25cdd8ec04880838a29d24f038ae9be4fb0d627",
        "4f56bb8d23f35d7b9d7bcf3b2a422112c41c9708aa5bcd69758cccd9b7c55c8c",
    ),
    ("wimax", 2304, "1/2", 36, 2, 0): (
        "40572ae792df538dbab84336ddb078cf15dd7f7d96328d177bee00d14f814762",
        "d75236112f1aa76fd0d0f6c1f33c6b5d4a24be9ea37fa2534ae24a87c12e37b0",
    ),
    ("wimax", 576, "1/2", 8, 1, 0): (
        "001b26fc6537ab81c7dadf2f307f4c1aeffd6e56b5ad90cc2ef141ba49a24781",
        "a1995cb8c63a165ec22d22275ba8a4c86bece6e35a426ba19140936eb8c59815",
    ),
    ("wimax", 576, "1/2", 8, 1, 1): (
        "001b26fc6537ab81c7dadf2f307f4c1aeffd6e56b5ad90cc2ef141ba49a24781",
        "63b96231cb089ba615d15d96860069adb6a23fce32ca27b71ddbdf69e8939ef5",
    ),
    ("wimax", 576, "1/2", 8, 1, 2): (
        "001b26fc6537ab81c7dadf2f307f4c1aeffd6e56b5ad90cc2ef141ba49a24781",
        "fafa1ae4ab6ea20b81ccf689e931409510942c1c124b857f8b19938b80cb4d7d",
    ),
    ("wimax", 576, "1/2", 8, 4, 0): (
        "001b26fc6537ab81c7dadf2f307f4c1aeffd6e56b5ad90cc2ef141ba49a24781",
        "51ee08143f6b170d0ce291878289a316d11ccbf767506685a3f4a4d690d1c645",
    ),
    ("wimax", 576, "1/2", 8, 4, 1): (
        "001b26fc6537ab81c7dadf2f307f4c1aeffd6e56b5ad90cc2ef141ba49a24781",
        "4cbf729716b22a9f56dbc9d1b3737f801cc79e1e0ddbffb734f21d4de5f3f8ee",
    ),
    ("wimax", 576, "1/2", 8, 4, 2): (
        "001b26fc6537ab81c7dadf2f307f4c1aeffd6e56b5ad90cc2ef141ba49a24781",
        "51ee08143f6b170d0ce291878289a316d11ccbf767506685a3f4a4d690d1c645",
    ),
    ("wimax", 576, "1/2", 12, 1, 0): (
        "530454992a99a78db69d7a0c020ac93a2607bf2d8d5c8587bc6ef17de717c421",
        "cbd7c1d6269ea7586874b3fe3355a90586976cc60f2a7593327f7926c9e23ba7",
    ),
    ("wimax", 576, "1/2", 12, 1, 1): (
        "530454992a99a78db69d7a0c020ac93a2607bf2d8d5c8587bc6ef17de717c421",
        "cdd1a4ee06a0265ce74f73f8eecffdc0aa905e434b116c0a9571980cb2098ccf",
    ),
    ("wimax", 576, "1/2", 12, 1, 2): (
        "530454992a99a78db69d7a0c020ac93a2607bf2d8d5c8587bc6ef17de717c421",
        "5aee54f4694e75e31d9d0209630091023cd2113bc626930378b2188b7c1da083",
    ),
    ("wimax", 576, "1/2", 12, 4, 0): (
        "530454992a99a78db69d7a0c020ac93a2607bf2d8d5c8587bc6ef17de717c421",
        "896640d9ba9b53c0e289c21d614d14c8c722f62191a4c458e44afc4456a97db7",
    ),
    ("wimax", 576, "1/2", 12, 4, 1): (
        "530454992a99a78db69d7a0c020ac93a2607bf2d8d5c8587bc6ef17de717c421",
        "3e5341188b1bb10ced815d72d12df418110565bc515ac3f789c73ae9255afa60",
    ),
    ("wimax", 576, "1/2", 12, 4, 2): (
        "530454992a99a78db69d7a0c020ac93a2607bf2d8d5c8587bc6ef17de717c421",
        "896640d9ba9b53c0e289c21d614d14c8c722f62191a4c458e44afc4456a97db7",
    ),
    ("wimax", 576, "1/2", 24, 1, 0): (
        "ea7386bcc1588c8de9a4e452befdafdba289d12e678072f2e854c7b303c23a13",
        "d26f83273d87c785499d2b6a488f893650a3db3a6a3f2e3baadc4296c4d70a8f",
    ),
    ("wimax", 576, "1/2", 24, 1, 1): (
        "ea7386bcc1588c8de9a4e452befdafdba289d12e678072f2e854c7b303c23a13",
        "4af2d0a068725c66648eaa1bb48b9dda52388db5b4c9eb2648c42a42a65dea76",
    ),
    ("wimax", 576, "1/2", 24, 1, 2): (
        "ea7386bcc1588c8de9a4e452befdafdba289d12e678072f2e854c7b303c23a13",
        "66321a91eda70f2e0baadecdb2359b2925d81ca918d45caacce3ab83b75c1f59",
    ),
    ("wimax", 576, "1/2", 24, 4, 0): (
        "ea7386bcc1588c8de9a4e452befdafdba289d12e678072f2e854c7b303c23a13",
        "d26f83273d87c785499d2b6a488f893650a3db3a6a3f2e3baadc4296c4d70a8f",
    ),
    ("wimax", 576, "1/2", 24, 4, 1): (
        "ea7386bcc1588c8de9a4e452befdafdba289d12e678072f2e854c7b303c23a13",
        "a3623bea93795b1ac0bbd6652d7d787fc0aafdb9e7491c1e0686a898fa157476",
    ),
    ("wimax", 576, "1/2", 24, 4, 2): (
        "ea7386bcc1588c8de9a4e452befdafdba289d12e678072f2e854c7b303c23a13",
        "32d4d8daf9dcad930af5e005495a7bbd46718ac80d92ec8fe01b796dbfc10903",
    ),
    ("wifi", 1944, "5/6", 24, 4, 0): (
        "21a65085d6f452da23244f8778746805405c3cb3f7475de116af87a2692914f1",
        "d7751e5506c9fd9b975f4c586372679e30ded7cce7fc466c607a1ba28e917e78",
    ),
}


def _digest(*arrays, cut_weight: int) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.asarray(array, dtype=np.int64).tobytes())
    digest.update(str(cut_weight).encode())
    return digest.hexdigest()


def _traffic_arrays(traffic):
    bounds = traffic.offsets.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        yield traffic.dest[lo:hi]
        yield traffic.memory[lo:hi]


class TestMappingGoldenDigests:
    @pytest.mark.parametrize(
        "case", list(MAPPING_DIGESTS), ids=lambda case: "{}{}-r{}-P{}-a{}-s{}".format(*case)
    )
    def test_mapping_outputs_match_pinned_digests(self, case):
        family, n, rate, n_nodes, attempts, seed = case
        code = wifi_ldpc_code(n, rate) if family == "wifi" else wimax_ldpc_code(n, rate)
        h = code.h
        mapping = map_ldpc_code(h, n_nodes, seed=seed, attempts=attempts)
        partitioned = partition_graph(
            h.n_rows, check_adjacency_graph(h).weights, n_nodes,
            seed=seed, attempts=attempts, vertex_weights=h.row_degrees(),
        )
        traffic = build_equivalent_interleaver(h, partitioned.assignment, n_nodes)
        assert (
            _digest(
                mapping.check_owner, *_traffic_arrays(mapping.traffic),
                cut_weight=mapping.partition.cut_weight,
            ),
            _digest(
                partitioned.assignment, partitioned.part_sizes, *_traffic_arrays(traffic),
                cut_weight=partitioned.cut_weight,
            ),
        ) == MAPPING_DIGESTS[case]


class TestLdpcMapping:
    def test_mapping_message_count_equals_edges(self, small_ldpc_code):
        mapping = map_ldpc_code(small_ldpc_code.h, n_nodes=8, seed=0, attempts=2)
        assert mapping.traffic.total_messages == small_ldpc_code.h.n_edges

    def test_every_check_is_assigned(self, small_ldpc_code):
        mapping = map_ldpc_code(small_ldpc_code.h, n_nodes=8, seed=0, attempts=2)
        assert mapping.check_owner.shape == (small_ldpc_code.m,)

    def test_locality_beats_random_assignment(self, small_ldpc_code):
        mapping = map_ldpc_code(small_ldpc_code.h, n_nodes=8, seed=0, attempts=2)
        # A random 8-way assignment keeps only ~1/8 = 12.5% of messages local.
        assert mapping.locality > 1.0 / 8

    def test_messages_per_node_balanced(self, small_ldpc_code):
        mapping = map_ldpc_code(small_ldpc_code.h, n_nodes=8, seed=0, attempts=2)
        counts = mapping.traffic.messages_per_node()
        assert counts.max() <= 1.2 * counts.mean()

    def test_each_variable_update_has_one_consumer(self, small_ldpc_code):
        """Per variable of degree d there are exactly d messages (cyclic successor)."""
        h = small_ldpc_code.h
        mapping = map_ldpc_code(h, n_nodes=4, seed=0, attempts=1)
        received = mapping.traffic.destination_histogram()
        # Every edge produces exactly one received message somewhere.
        assert received.sum() == h.n_edges

    def test_memory_locations_unique_per_destination(self, small_ldpc_code):
        mapping = map_ldpc_code(small_ldpc_code.h, n_nodes=4, seed=0, attempts=1)
        slots: dict[int, list[int]] = {node: [] for node in range(4)}
        for dest, slot in zip(mapping.traffic.dest.tolist(), mapping.traffic.memory.tolist()):
            slots[dest].append(slot)
        for node, used in slots.items():
            assert len(used) == len(set(used)), f"duplicate memory slot on node {node}"

    def test_equivalent_interleaver_respects_owner(self, small_ldpc_code):
        h = small_ldpc_code.h
        owner = np.arange(h.n_rows) % 4
        traffic = build_equivalent_interleaver(h, owner, 4)
        # Check 0 is owned by PE 0, so PE 0 must emit exactly deg(check 0) +
        # deg(check 4) + ... messages.
        expected = sum(h.row(check).size for check in range(h.n_rows) if owner[check] == 0)
        assert traffic.messages_per_node()[0] == expected

    def test_invalid_owner_rejected(self, small_ldpc_code):
        h = small_ldpc_code.h
        with pytest.raises(MappingError):
            build_equivalent_interleaver(h, np.zeros(h.n_rows + 1, dtype=int), 4)
        with pytest.raises(MappingError):
            build_equivalent_interleaver(h, np.full(h.n_rows, 9), 4)

    def test_more_nodes_than_checks_rejected(self, small_ldpc_code):
        with pytest.raises(MappingError):
            map_ldpc_code(small_ldpc_code.h, n_nodes=small_ldpc_code.m + 1)

    def test_describe_contains_key_figures(self, small_ldpc_code):
        mapping = map_ldpc_code(small_ldpc_code.h, n_nodes=8, seed=0, attempts=1)
        text = mapping.describe()
        assert "P=8" in text and "locality" in text


class TestTurboMapping:
    def test_contiguous_partition_sizes(self):
        owner = contiguous_partition(100, 8)
        sizes = np.bincount(owner, minlength=8)
        assert sizes.sum() == 100
        assert sizes.max() - sizes.min() <= 1

    def test_contiguous_partition_is_monotone(self):
        owner = contiguous_partition(48, 5)
        assert np.all(np.diff(owner) >= 0)

    def test_turbo_mapping_message_counts(self):
        mapping = map_turbo_code(48, 8)
        assert mapping.traffic_forward.total_messages == 48
        assert mapping.traffic_backward.total_messages == 48

    def test_forward_and_backward_are_inverse_flows(self):
        mapping = map_turbo_code(48, 8)
        forward = mapping.traffic_forward.destination_histogram()
        backward_sent = mapping.traffic_backward.messages_per_node()
        # Messages received in the forward phase are produced in the backward phase.
        assert np.array_equal(forward, backward_sent)

    def test_window_size(self):
        mapping = map_turbo_code(2400, 22)
        assert mapping.window_size == int(np.ceil(2400 / 22))

    def test_locality_is_low_for_good_interleaver(self):
        mapping = map_turbo_code(240, 8)
        # The CTC permutation spreads couples across the frame, so locality
        # should be close to the random 1/P baseline.
        assert mapping.locality < 0.3

    def test_invalid_parameters(self):
        with pytest.raises(MappingError):
            contiguous_partition(4, 0)
        with pytest.raises(MappingError):
            contiguous_partition(4, 8)
        with pytest.raises(ReproError):
            map_turbo_code(1000, 8)  # no interleaver parameters for N=1000

    def test_describe(self):
        assert "N=48" in map_turbo_code(48, 4).describe()


class TestMappingQuality:
    def test_quality_metrics(self, small_ldpc_code):
        mapping = map_ldpc_code(small_ldpc_code.h, n_nodes=8, seed=0, attempts=1)
        quality = evaluate_traffic_quality(mapping.traffic)
        assert quality.max_node_messages >= quality.mean_node_messages
        assert 0.0 <= quality.locality <= 1.0
        assert quality.score > 0

    def test_score_prefers_shorter_lists(self, small_ldpc_code):
        good = map_ldpc_code(small_ldpc_code.h, n_nodes=8, seed=0, attempts=2)
        # A deliberately bad mapping: an unbalanced random assignment.
        rng = np.random.default_rng(0)
        bad_owner = rng.integers(0, 8, small_ldpc_code.m)
        bad_owner[: small_ldpc_code.m // 4] = 0  # overload PE 0
        bad_traffic = build_equivalent_interleaver(small_ldpc_code.h, bad_owner, 8)
        assert (
            evaluate_traffic_quality(good.traffic).score
            < evaluate_traffic_quality(bad_traffic).score
        )

    def test_selected_mapping_beats_random_assignment(self, small_ldpc_code):
        good = map_ldpc_code(small_ldpc_code.h, n_nodes=8, seed=0, attempts=2)
        rng = np.random.default_rng(1)
        random_owner = rng.integers(0, 8, small_ldpc_code.m)
        random_traffic = build_equivalent_interleaver(small_ldpc_code.h, random_owner, 8)
        good_quality = evaluate_traffic_quality(good.traffic)
        random_quality = evaluate_traffic_quality(random_traffic)
        assert good_quality.score <= random_quality.score
        assert good_quality.locality >= random_quality.locality
