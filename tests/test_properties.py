"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import LLRQuantizer, QuantizationSpec
from repro.ldpc import ParityCheckMatrix, min_sum_check_update, wimax_ldpc_code
from repro.ldpc.checknode import first_two_minima
from repro.mapping.partition import partition_graph
from repro.noc import build_routing_tables, generalized_kautz
from repro.turbo import CTCInterleaver, DuoBinaryTrellis, TurboEncoder
from repro.turbo.bits import bit_to_symbol_extrinsic, symbol_to_bit_extrinsic

from partition_oracle import edge_arrays

# Keep hypothesis example counts modest so the suite stays fast.
DEFAULT_SETTINGS = settings(max_examples=50, deadline=None)


class TestQuantizerProperties:
    @DEFAULT_SETTINGS
    @given(
        values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=64),
        total_bits=st.integers(3, 10),
        frac_bits=st.integers(0, 2),
    )
    def test_quantizer_output_within_range_and_idempotent(self, values, total_bits, frac_bits):
        frac_bits = min(frac_bits, total_bits - 1)
        quantizer = LLRQuantizer(QuantizationSpec(total_bits, frac_bits))
        arr = np.array(values)
        levels = quantizer.quantize(arr)
        assert levels.min() >= quantizer.spec.min_level
        assert levels.max() <= quantizer.spec.max_level
        # Quantising an already-quantised value changes nothing.
        roundtrip = quantizer.quantize(quantizer.dequantize(levels))
        assert np.array_equal(levels, roundtrip)

    @DEFAULT_SETTINGS
    @given(values=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=32))
    def test_quantization_error_bounded(self, values):
        quantizer = LLRQuantizer(QuantizationSpec(7, 1))
        arr = np.array(values)
        error = np.abs(arr - quantizer.quantize_to_real(arr))
        assert np.all(error <= quantizer.spec.step / 2 + 1e-9)


class TestCheckNodeProperties:
    @DEFAULT_SETTINGS
    @given(
        q=st.lists(
            st.floats(-30, 30, allow_nan=False).filter(lambda x: abs(x) > 1e-6),
            min_size=2,
            max_size=12,
        )
    )
    def test_min_sum_magnitude_never_exceeds_input_minimum(self, q):
        arr = np.array(q)
        out = min_sum_check_update(arr, scaling=1.0)
        # Every output magnitude is a minimum over a subset of |inputs|.
        assert np.all(np.abs(out) <= np.abs(arr).min() + 1e-9) or np.all(
            np.abs(out) <= np.sort(np.abs(arr))[1] + 1e-9
        )

    @DEFAULT_SETTINGS
    @given(
        q=st.lists(
            st.floats(-30, 30, allow_nan=False).filter(lambda x: abs(x) > 1e-6),
            min_size=2,
            max_size=12,
        )
    )
    def test_min_sum_sign_product_property(self, q):
        arr = np.array(q)
        out = min_sum_check_update(arr, scaling=1.0)
        # sign(out_k) * prod_{n != k} sign(q_n) must be +1 for every edge.
        total_sign = np.prod(np.sign(arr))
        for k in range(arr.size):
            expected = total_sign / np.sign(arr[k])
            assert np.sign(out[k]) == pytest.approx(expected)

    @DEFAULT_SETTINGS
    @given(values=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=20))
    def test_first_two_minima_are_sorted_minima(self, values):
        arr = np.array(values)
        min1, min2, argmin = first_two_minima(arr)
        assert min1 == arr.min()
        assert min1 <= min2
        assert arr[argmin] == min1


class TestInterleaverProperties:
    @DEFAULT_SETTINGS
    @given(
        n_couples=st.sampled_from([24, 36, 48, 96, 240]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_interleave_applies_permutation_and_swaps(self, n_couples, seed):
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, 4, n_couples)
        interleaver = CTCInterleaver.for_block_size(n_couples)
        flags = interleaver.swap_flags()
        swapped = np.where(flags == 1, np.array([0, 2, 1, 3])[symbols], symbols)
        assert np.array_equal(
            interleaver.interleave_symbols(symbols), swapped[interleaver.permutation()]
        )

    @DEFAULT_SETTINGS
    @given(n_couples=st.sampled_from([24, 48, 108, 192, 480, 960, 1440, 1920, 2400]))
    def test_all_standard_sizes_give_permutations(self, n_couples):
        perm = CTCInterleaver.for_block_size(n_couples).permutation()
        assert np.array_equal(np.sort(perm), np.arange(n_couples))


class TestTurboCodeProperties:
    @DEFAULT_SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_circular_encoding_returns_to_start_state(self, seed):
        rng = np.random.default_rng(seed)
        trellis = DuoBinaryTrellis()
        symbols = rng.integers(0, 4, 36)
        start = trellis.circulation_state(symbols)
        state = start
        for symbol in symbols:
            state = trellis.next_state(state, int(symbol))
        assert state == start

    @DEFAULT_SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_encoder_is_systematic(self, seed):
        rng = np.random.default_rng(seed)
        encoder = TurboEncoder(n_couples=24)
        info = rng.integers(0, 2, encoder.k)
        codeword = encoder.encode(info)
        assert np.array_equal(codeword.systematic.reshape(-1), info)

    @DEFAULT_SETTINGS
    @given(
        llr_a=st.floats(-20, 20, allow_nan=False),
        llr_b=st.floats(-20, 20, allow_nan=False),
    )
    def test_bit_symbol_bit_roundtrip(self, llr_a, llr_b):
        bits = np.array([[llr_a, llr_b]])
        recovered = symbol_to_bit_extrinsic(bit_to_symbol_extrinsic(bits))
        assert np.allclose(recovered, bits, atol=1e-9)


class TestLdpcCodeProperties:
    @DEFAULT_SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rate=st.sampled_from(["1/2", "2/3A", "3/4B", "5/6"]),
    )
    def test_random_information_words_encode_to_codewords(self, seed, rate):
        code = wimax_ldpc_code(576, rate)
        rng = np.random.default_rng(seed)
        info = rng.integers(0, 2, code.k)
        assert code.h.is_codeword(code.encode(info))

    @DEFAULT_SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_syndrome_of_flipped_bit_is_column_degree(self, seed):
        code = wimax_ldpc_code(576, "1/2")
        rng = np.random.default_rng(seed)
        info = rng.integers(0, 2, code.k)
        codeword = code.encode(info)
        position = int(rng.integers(0, code.n))
        corrupted = codeword.copy()
        corrupted[position] ^= 1
        syndrome_weight = int(code.h.syndrome(corrupted).sum())
        assert syndrome_weight == code.h.col(position).size


class TestPartitionProperties:
    @DEFAULT_SETTINGS
    @given(
        n_vertices=st.integers(12, 60),
        n_parts=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    def test_partition_always_covers_and_respects_bounds(self, n_vertices, n_parts, seed):
        rng = np.random.default_rng(seed)
        edges: dict[tuple[int, int], int] = {}
        for _ in range(n_vertices * 2):
            a, b = rng.integers(0, n_vertices, 2)
            if a != b:
                key = (min(int(a), int(b)), max(int(a), int(b)))
                edges[key] = edges.get(key, 0) + 1
        result = partition_graph(n_vertices, *edge_arrays(edges), n_parts, seed=seed, attempts=1)
        assert result.assignment.shape == (n_vertices,)
        assert result.assignment.min() >= 0
        assert result.assignment.max() < n_parts
        assert result.part_sizes.sum() == n_vertices
        recomputed = sum(
            w for (a, b), w in edges.items() if result.assignment[a] != result.assignment[b]
        )
        assert recomputed == result.cut_weight


class TestRoutingProperties:
    @DEFAULT_SETTINGS
    @given(
        n_nodes=st.integers(6, 30),
        degree=st.integers(2, 4),
    )
    def test_kautz_routing_triangle_inequality(self, n_nodes, degree):
        if degree >= n_nodes:
            return
        topology = generalized_kautz(n_nodes, degree)
        tables = build_routing_tables(topology)
        distance = tables.distance
        # Moving to any out-neighbour changes the distance by at most 1 hop
        # (and strictly decreases it along a shortest-path port).
        for node in range(n_nodes):
            for port, (arc_index, neighbor) in enumerate(topology.out_arcs(node)):
                for dest in range(n_nodes):
                    if dest == node:
                        continue
                    assert distance[node, dest] <= distance[neighbor, dest] + 1


class TestParityCheckMatrixProperties:
    @DEFAULT_SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_dense_sparse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((8, 16)) < 0.3).astype(np.int8)
        # Ensure no empty rows (required by the constructor).
        for row in range(dense.shape[0]):
            if not dense[row].any():
                dense[row, int(rng.integers(0, 16))] = 1
        h = ParityCheckMatrix([np.flatnonzero(row).tolist() for row in dense], 16)
        assert np.array_equal(h.to_dense(), dense)
        assert h.n_edges == int(dense.sum())
