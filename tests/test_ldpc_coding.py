"""Unit tests for LDPC encoding and decoding.

Covers :mod:`repro.ldpc.encoder` and :mod:`repro.ldpc.checknode`, and
decodes single frames with :class:`~repro.sim.batch.BatchLayeredDecoder` and
:class:`~repro.sim.batch.BatchFloodingDecoder` (a batch of one, row 0 read).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.errors import CodeDefinitionError, DecodingError
from repro.ldpc import (
    LDPCEncoder,
    ParityCheckMatrix,
    first_two_minima,
    list_wifi_codes,
    min_sum_check_update,
    wifi_ldpc_code,
    wimax_ldpc_code,
)
from repro.ldpc.wimax import WIMAX_CODE_RATES
from repro.sim import BatchFloodingDecoder, BatchLayeredDecoder, BerRunner
from tests.conftest import make_ldpc_llrs


def _decode_one(decoder, llrs):
    """Decode one frame of LLRs as a one-frame batch."""
    return decoder.decode_batch(np.asarray(llrs)[None, :])


class TestEncoder:
    def test_codewords_satisfy_parity_checks(self, small_ldpc_code, rng):
        for _ in range(5):
            info = rng.integers(0, 2, small_ldpc_code.k)
            codeword = small_ldpc_code.encode(info)
            assert small_ldpc_code.h.is_codeword(codeword)

    def test_systematic_bits_preserved(self, small_ldpc_code, rng):
        info = rng.integers(0, 2, small_ldpc_code.k)
        codeword = small_ldpc_code.encode(info)
        assert np.array_equal(codeword[small_ldpc_code.encoder.systematic_columns], info)

    def test_all_zero_maps_to_all_zero(self, small_ldpc_code):
        codeword = small_ldpc_code.encode(np.zeros(small_ldpc_code.k, dtype=int))
        assert not codeword.any()

    def test_linearity(self, small_ldpc_code, rng):
        a = rng.integers(0, 2, small_ldpc_code.k)
        b = rng.integers(0, 2, small_ldpc_code.k)
        cw_sum = small_ldpc_code.encode((a + b) % 2)
        cw_xor = (small_ldpc_code.encode(a) + small_ldpc_code.encode(b)) % 2
        assert np.array_equal(cw_sum, cw_xor)

    def test_every_wimax_rate_encodes_valid_codewords(self, rng):
        for rate in ("2/3A", "2/3B", "3/4A", "3/4B", "5/6"):
            code = wimax_ldpc_code(576, rate)
            info = rng.integers(0, 2, code.k)
            assert code.h.is_codeword(code.encode(info))

    def test_rejects_wrong_length(self, small_ldpc_code):
        with pytest.raises(CodeDefinitionError):
            small_ldpc_code.encode(np.zeros(small_ldpc_code.k + 1, dtype=int))

    def test_rejects_non_binary(self, small_ldpc_code):
        bad = np.zeros(small_ldpc_code.k, dtype=int)
        bad[0] = 2
        with pytest.raises(CodeDefinitionError):
            small_ldpc_code.encode(bad)

    def test_rejects_rank_deficient_matrix(self):
        h = ParityCheckMatrix([[0, 1], [0, 1], [2, 3]], n_cols=4)
        with pytest.raises(CodeDefinitionError):
            LDPCEncoder(h)

    def test_permuted_encoder_on_singular_tail(self):
        # The last M columns are singular (column 3 empty in the parity part),
        # forcing the column-permutation fallback.
        h = ParityCheckMatrix([[0, 1, 2], [0, 2], [1, 2]], n_cols=4)
        encoder = LDPCEncoder(h)
        codeword = encoder.encode(np.array([1]))
        assert h.is_codeword(codeword)


def _assert_encodes_like_int64_product(encoder: LDPCEncoder, h, info: np.ndarray) -> None:
    """``encode_batch`` against an oracle that shares no arithmetic with it.

    Each row must be a codeword carrying ``info`` at the systematic
    positions, with the parity positions equal to the int64 GF(2) product
    ``(info @ E.T) % 2`` of the encoder's own parity map ``E``.
    """
    codewords = encoder.encode_batch(info)
    assert codewords.shape == (info.shape[0], encoder.n)
    assert codewords.dtype == np.int8
    for word in codewords:
        assert h.is_codeword(word)
    assert np.array_equal(codewords[:, encoder.systematic_columns], info)
    parity_map = encoder._encode_matrix_t.T.astype(np.int64)  # E, (M, k)
    expected = (info.astype(np.int64) @ parity_map.T) % 2
    assert np.array_equal(codewords[:, encoder._parity_columns], expected)


class TestEncoderProductOracle:
    """The float32 BLAS encode, pinned to an int64 GF(2) product."""

    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize(
        "code",
        [("wimax", n, rate) for n in (576, 2304) for rate in WIMAX_CODE_RATES]
        + [("wifi", n, rate) for n, rate in list_wifi_codes()],
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_standard_codes(self, code, batch):
        family, n, rate = code
        ldpc = (wimax_ldpc_code if family == "wimax" else wifi_ldpc_code)(n, rate)
        info = np.random.default_rng(batch).integers(0, 2, (batch, ldpc.k))
        _assert_encodes_like_int64_product(ldpc.encoder, ldpc.h, info)

    @given(data=st.data(), m=st.integers(2, 5), extra=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_singular_parity_tail_uses_permuted_columns(self, data, m, extra):
        """H = [A | B] with I_m among A's columns (full row rank) and B, the
        last M columns, given two equal columns (singular)."""
        k = m + extra
        a = np.concatenate(
            [np.eye(m, dtype=bool), data.draw(arrays(np.bool_, (m, extra)), label="a")], axis=1
        )
        a = a[:, data.draw(st.permutations(range(k)), label="a_cols")]
        b = data.draw(arrays(np.bool_, (m, m)), label="b")
        i, j = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        b[:, j] = b[:, i]
        dense = np.concatenate([a, b], axis=1)[data.draw(st.permutations(range(m)), label="rows")]
        h = ParityCheckMatrix([np.flatnonzero(row) for row in dense], n_cols=k + m)
        encoder = LDPCEncoder(h)
        assert not np.array_equal(encoder.systematic_columns, np.arange(k))
        batch = data.draw(st.integers(1, 9), label="batch")
        info = np.random.default_rng(data.draw(st.integers(0, 2**16))).integers(
            0, 2, (batch, encoder.k)
        )
        _assert_encodes_like_int64_product(encoder, h, info)


class TestCheckNodeArithmetic:
    def test_first_two_minima_basic(self):
        min1, min2, arg = first_two_minima(np.array([3.0, 1.0, 2.0]))
        assert (min1, min2, arg) == (1.0, 2.0, 1)

    def test_first_two_minima_duplicate_minimum(self):
        min1, min2, _ = first_two_minima(np.array([1.0, 1.0, 5.0]))
        assert min1 == 1.0 and min2 == 1.0

    def test_first_two_minima_rejects_scalar(self):
        with pytest.raises(DecodingError):
            first_two_minima(np.array([1.0]))

    def test_min_sum_magnitudes(self):
        out = min_sum_check_update(np.array([4.0, -1.0, 2.0]), scaling=1.0)
        # Edge with |Q| = 1 sees min of the others (2); others see 1.
        assert np.abs(out).tolist() == [1.0, 2.0, 1.0]

    def test_min_sum_signs_follow_parity(self):
        out = min_sum_check_update(np.array([4.0, -1.0, 2.0]), scaling=1.0)
        # Product of the other signs: edge 0 -> (-)(+) = -, edge 1 -> (+)(+) = +, edge 2 -> (+)(-) = -.
        assert np.sign(out).tolist() == [-1.0, 1.0, -1.0]

    def test_min_sum_scaling_applied(self):
        unscaled = min_sum_check_update(np.array([4.0, -1.0, 2.0]), scaling=1.0)
        scaled = min_sum_check_update(np.array([4.0, -1.0, 2.0]), scaling=0.75)
        assert np.allclose(scaled, 0.75 * unscaled)

    def test_min_sum_rejects_single_edge(self):
        with pytest.raises(DecodingError):
            min_sum_check_update(np.array([1.0]))


class TestLayeredDecoder:
    def test_noiseless_frame_decodes_in_one_iteration(self, small_ldpc_code, rng):
        info = rng.integers(0, 2, small_ldpc_code.k)
        codeword = small_ldpc_code.encode(info)
        llrs = 10.0 * (1 - 2 * codeword.astype(float))
        result = _decode_one(BatchLayeredDecoder(small_ldpc_code.h, max_iterations=5), llrs)
        assert result.converged[0]
        assert result.iterations[0] == 1
        assert np.array_equal(result.hard_bits[0], codeword)

    def test_moderate_noise_corrected(self, small_ldpc_code, rng):
        codeword, llrs = make_ldpc_llrs(small_ldpc_code, ebn0_db=3.0, rng=rng)
        result = _decode_one(BatchLayeredDecoder(small_ldpc_code.h, max_iterations=20), llrs)
        assert result.converged[0]
        assert np.array_equal(result.hard_bits[0], codeword)

    def test_fixed_point_mode_still_corrects(self, small_ldpc_code, rng):
        codeword, llrs = make_ldpc_llrs(small_ldpc_code, ebn0_db=3.5, rng=rng)
        decoder = BatchLayeredDecoder(small_ldpc_code.h, max_iterations=20, fixed_point=True)
        result = _decode_one(decoder, llrs)
        assert np.array_equal(result.hard_bits[0], codeword)

    def test_unsatisfied_history_is_non_increasing_at_high_snr(self, small_ldpc_code, rng):
        _, llrs = make_ldpc_llrs(small_ldpc_code, ebn0_db=3.0, rng=rng)
        result = _decode_one(BatchLayeredDecoder(small_ldpc_code.h, max_iterations=20), llrs)
        history = result.unsatisfied_history[0]
        assert history[-1] == 0

    def test_no_early_termination_runs_all_iterations(self, small_ldpc_code, rng):
        _, llrs = make_ldpc_llrs(small_ldpc_code, ebn0_db=4.0, rng=rng)
        decoder = BatchLayeredDecoder(
            small_ldpc_code.h, max_iterations=7, early_termination=False
        )
        assert _decode_one(decoder, llrs).iterations[0] == 7

    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    def test_rejects_wrong_llr_length(self, small_ldpc_code, extra):
        decoder = BatchLayeredDecoder(small_ldpc_code.h)
        with pytest.raises(DecodingError):
            _decode_one(decoder, np.zeros(small_ldpc_code.n + extra))
        with pytest.raises(DecodingError):  # one frame without its batch axis
            decoder.decode_batch(np.zeros(small_ldpc_code.n))

    def test_rejects_bad_parameters(self, small_ldpc_code):
        with pytest.raises(DecodingError):
            BatchLayeredDecoder(small_ldpc_code.h, max_iterations=0)


class TestFloodingDecoder:
    def test_noiseless_frame(self, small_ldpc_code, rng):
        info = rng.integers(0, 2, small_ldpc_code.k)
        codeword = small_ldpc_code.encode(info)
        llrs = 10.0 * (1 - 2 * codeword.astype(float))
        result = _decode_one(BatchFloodingDecoder(small_ldpc_code.h, max_iterations=5), llrs)
        assert result.converged[0]
        assert np.array_equal(result.hard_bits[0], codeword)

    def test_min_sum_kernel_corrects_noise(self, small_ldpc_code, rng):
        codeword, llrs = make_ldpc_llrs(small_ldpc_code, ebn0_db=3.0, rng=rng)
        decoder = BatchFloodingDecoder(small_ldpc_code.h, max_iterations=30, kernel="min-sum")
        result = _decode_one(decoder, llrs)
        assert np.array_equal(result.hard_bits[0], codeword)

    def test_layered_converges_in_fewer_iterations_than_flooding(self, small_ldpc_code):
        """The paper's motivation for layered scheduling: ~2x faster convergence."""
        rng = np.random.default_rng(7)
        modulator = BPSKModulator()
        sigma = ebn0_to_noise_sigma(2.6, small_ldpc_code.rate)
        layered_iters, flooding_iters = [], []
        for _ in range(6):
            info = rng.integers(0, 2, small_ldpc_code.k)
            codeword = small_ldpc_code.encode(info)
            channel = AWGNChannel(sigma, rng)
            llrs = modulator.demodulate_llr(
                channel.transmit(modulator.modulate(codeword)),
                channel.llr_noise_variance(False),
            )
            layered = _decode_one(BatchLayeredDecoder(small_ldpc_code.h, max_iterations=40), llrs)
            flooding = _decode_one(
                BatchFloodingDecoder(small_ldpc_code.h, max_iterations=40, kernel="min-sum"),
                llrs,
            )
            if layered.converged[0] and flooding.converged[0]:
                layered_iters.append(layered.iterations[0])
                flooding_iters.append(flooding.iterations[0])
        assert layered_iters, "no frame converged under both schedules"
        assert np.mean(layered_iters) < np.mean(flooding_iters)

    def test_rejects_unknown_kernel(self, small_ldpc_code):
        with pytest.raises(DecodingError):
            BatchFloodingDecoder(small_ldpc_code.h, kernel="approximate")

    def test_rejects_wrong_llr_length(self, small_ldpc_code):
        with pytest.raises(DecodingError):
            _decode_one(BatchFloodingDecoder(small_ldpc_code.h), np.zeros(10))


class TestWifiScenarios:
    @pytest.mark.parametrize("rate,ebn0", [("1/2", 2.5), ("5/6", 4.5)])
    def test_wifi_codes_decode_through_runner(self, rate, ebn0):
        code = wifi_ldpc_code(1944, rate)
        assert code.n == 1944
        point = BerRunner(
            code,
            BatchLayeredDecoder(code.h, max_iterations=10),
            batch_size=16,
            max_frames=32,
            target_frame_errors=None,
            seed=0,
        ).run_point(ebn0)
        assert point.frames == 32
        assert point.ber < 1e-2

    def test_wifi_codewords_satisfy_parity(self):
        code = wifi_ldpc_code(1944, "1/2")
        rng = np.random.default_rng(0)
        codewords = code.encode_batch(rng.integers(0, 2, size=(4, code.k)))
        dense = code.h.to_dense()
        assert not ((dense @ codewords.T) % 2).any()

    def test_wifi_advertised_by_service_registry(self):
        from repro.service.registry import CodecSpec, default_registry

        registry = default_registry()
        assert "wifi" in registry.families
        specs = registry.specs()
        assert CodecSpec("wifi", 1944, "1/2") in specs
        assert CodecSpec("wifi", 1944, "5/6") in specs
        entry = registry.resolve("wifi", 1944, "5/6")
        assert entry.n_bits == 1944
        assert entry.k_bits == 1620

    def test_wifi_rejects_unknown_parameters(self):
        with pytest.raises(CodeDefinitionError):
            wifi_ldpc_code(648, "1/2")
        with pytest.raises(CodeDefinitionError):
            wifi_ldpc_code(1944, "3/4")
