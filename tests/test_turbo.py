"""Unit tests for the turbo substrate.

Covers :mod:`repro.turbo.trellis`, :mod:`repro.turbo.ctc_interleaver`,
:mod:`repro.turbo.encoder`, :mod:`repro.turbo.bcjr`, :mod:`repro.turbo.bits`
and :mod:`repro.turbo.decoder`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.errors import CodeDefinitionError, DecodingError
from repro.turbo import (
    BCJRDecoder,
    CTCInterleaver,
    DuoBinaryTrellis,
    TurboDecoder,
    TurboEncoder,
    bit_to_symbol_extrinsic,
    supported_ctc_block_sizes,
    symbol_to_bit_extrinsic,
)


class TestTrellis:
    def test_dimensions(self):
        trellis = DuoBinaryTrellis()
        assert len(trellis.transitions) == 32

    def test_transitions_are_deterministic_and_complete(self):
        trellis = DuoBinaryTrellis()
        table = trellis.next_state_table()
        assert table.shape == (8, 4)
        assert table.min() >= 0 and table.max() <= 7

    def test_recursive_code_each_state_reached_four_times(self):
        # The map (state, symbol) -> next_state is 4-to-1 onto the state set.
        trellis = DuoBinaryTrellis()
        counts = np.bincount(trellis.next_state_table().reshape(-1), minlength=8)
        assert counts.tolist() == [4] * 8

    def test_distinct_symbols_lead_to_distinct_states(self):
        trellis = DuoBinaryTrellis()
        for state in range(8):
            successors = {trellis.next_state(state, symbol) for symbol in range(4)}
            assert len(successors) == 4

    def test_parity_table_is_binary(self):
        parity = DuoBinaryTrellis().parity_table()
        assert set(np.unique(parity)) <= {0, 1}

    def test_circulation_state_is_a_fixed_point(self, rng):
        trellis = DuoBinaryTrellis()
        symbols = rng.integers(0, 4, 48)
        start = trellis.circulation_state(symbols)
        state = start
        for symbol in symbols:
            state = trellis.next_state(state, int(symbol))
        assert state == start

    def test_circulation_state_rejects_empty_block(self):
        with pytest.raises(CodeDefinitionError):
            DuoBinaryTrellis().circulation_state(np.array([], dtype=int))


class TestCTCInterleaver:
    def test_supported_sizes_include_wimax_largest(self):
        sizes = supported_ctc_block_sizes()
        assert 2400 in sizes and 24 in sizes

    def test_permutation_is_a_bijection(self):
        for n in (24, 48, 240, 2400):
            interleaver = CTCInterleaver.for_block_size(n)
            perm = interleaver.permutation()
            assert np.unique(perm).size == n

    def test_interleave_applies_permutation_and_swaps(self, rng):
        interleaver = CTCInterleaver.for_block_size(48)
        symbols = rng.integers(0, 4, 48)
        # Step 1 swaps the couple bits (1 <-> 2) where flagged; step 2 permutes.
        swapped = np.where(interleaver.swap_flags() == 1, np.array([0, 2, 1, 3])[symbols], symbols)
        expected = swapped[interleaver.permutation()]
        assert np.array_equal(interleaver.interleave_symbols(symbols), expected)

    def test_swap_flags_alternate(self):
        flags = CTCInterleaver.for_block_size(24).swap_flags()
        assert flags.tolist() == [0, 1] * 12

    def test_swap_exchanges_symbols_1_and_2(self):
        interleaver = CTCInterleaver.for_block_size(24)
        natural = np.ones(24, dtype=np.int64)  # symbol 1 = (A=0, B=1)
        interleaved = interleaver.interleave_symbols(natural)
        perm = interleaver.permutation()
        swapped_from_odd = interleaver.swap_flags()[perm].astype(bool)
        assert np.all(interleaved[swapped_from_odd] == 2)
        assert np.all(interleaved[~swapped_from_odd] == 1)

    def test_spread_positive(self):
        assert CTCInterleaver.for_block_size(2400).spread() >= 1

    def test_unknown_block_size_rejected(self):
        with pytest.raises(CodeDefinitionError):
            CTCInterleaver.for_block_size(1000)

    def test_wrong_length_rejected(self):
        interleaver = CTCInterleaver.for_block_size(24)
        with pytest.raises(CodeDefinitionError):
            interleaver.interleave_symbols(np.zeros(25, dtype=int))

    def test_describe_mentions_parameters(self):
        assert "P0=53" in CTCInterleaver.for_block_size(2400).describe()


class TestTurboEncoder:
    def test_dimensions_rate_half(self, small_turbo_encoder):
        assert small_turbo_encoder.k == 96
        assert small_turbo_encoder.n == 192

    def test_dimensions_rate_third(self):
        encoder = TurboEncoder(n_couples=24, rate="1/3")
        assert encoder.n == 3 * encoder.k

    def test_codeword_streams_shapes(self, small_turbo_encoder, rng):
        info = rng.integers(0, 2, small_turbo_encoder.k)
        codeword = small_turbo_encoder.encode(info)
        assert codeword.systematic.shape == (48, 2)
        assert codeword.parity1.shape == (48, 2)
        assert codeword.parity2.shape == (48, 2)
        assert codeword.to_bit_array().size == small_turbo_encoder.n

    def test_systematic_part_matches_info(self, small_turbo_encoder, rng):
        info = rng.integers(0, 2, small_turbo_encoder.k)
        codeword = small_turbo_encoder.encode(info)
        assert np.array_equal(codeword.systematic.reshape(-1), info)

    def test_bits_to_symbols_packs_couples(self, rng):
        bits = rng.integers(0, 2, 40)
        symbols = TurboEncoder.bits_to_symbols(bits)
        assert np.array_equal(symbols, 2 * bits[0::2] + bits[1::2])

    def test_bits_to_symbols_rejects_odd_length(self):
        with pytest.raises(CodeDefinitionError):
            TurboEncoder.bits_to_symbols(np.zeros(3, dtype=int))

    def test_rejects_wrong_info_length(self, small_turbo_encoder):
        with pytest.raises(CodeDefinitionError):
            small_turbo_encoder.encode(np.zeros(10, dtype=int))

    def test_rejects_unknown_rate(self):
        with pytest.raises(CodeDefinitionError):
            TurboEncoder(n_couples=24, rate="3/4")

    def test_different_info_gives_different_parity(self, small_turbo_encoder, rng):
        a = rng.integers(0, 2, small_turbo_encoder.k)
        b = a.copy()
        b[0] ^= 1
        cw_a = small_turbo_encoder.encode(a)
        cw_b = small_turbo_encoder.encode(b)
        assert not np.array_equal(cw_a.parity1, cw_b.parity1)


class TestBCJR:
    def _noiseless_llrs(self, encoder, info):
        codeword = encoder.encode(info)
        scale = 8.0
        sys_llrs = scale * (1 - 2 * codeword.systematic.astype(float))
        par1 = np.zeros_like(sys_llrs)
        par1[:, 0] = scale * (1 - 2 * codeword.parity1[:, 0].astype(float))
        return codeword, sys_llrs, par1

    def test_noiseless_decoding_recovers_symbols(self, small_turbo_encoder, rng):
        info = rng.integers(0, 2, small_turbo_encoder.k)
        codeword, sys_llrs, par1 = self._noiseless_llrs(small_turbo_encoder, info)
        decoder = BCJRDecoder()
        result = decoder.decode(sys_llrs, par1)
        expected = TurboEncoder.bits_to_symbols(info)
        assert np.array_equal(result.hard_symbols, expected)

    def test_aposteriori_reference_element_is_zero(self, small_turbo_encoder, rng):
        info = rng.integers(0, 2, small_turbo_encoder.k)
        _, sys_llrs, par1 = self._noiseless_llrs(small_turbo_encoder, info)
        result = BCJRDecoder().decode(sys_llrs, par1)
        assert np.allclose(result.aposteriori[:, 0], 0.0)

    def test_log_map_and_max_log_agree_at_high_snr(self, small_turbo_encoder, rng):
        info = rng.integers(0, 2, small_turbo_encoder.k)
        _, sys_llrs, par1 = self._noiseless_llrs(small_turbo_encoder, info)
        max_log = BCJRDecoder(algorithm="max-log").decode(sys_llrs, par1)
        log_map = BCJRDecoder(algorithm="log-map").decode(sys_llrs, par1)
        assert np.array_equal(max_log.hard_symbols, log_map.hard_symbols)

    def test_extrinsic_scale_applied(self, small_turbo_encoder, rng):
        info = rng.integers(0, 2, small_turbo_encoder.k)
        _, sys_llrs, par1 = self._noiseless_llrs(small_turbo_encoder, info)
        full = BCJRDecoder(extrinsic_scale=1.0).decode(sys_llrs, par1)
        scaled = BCJRDecoder(extrinsic_scale=0.5).decode(sys_llrs, par1)
        assert np.allclose(scaled.extrinsic, 0.5 * full.extrinsic)

    def test_rejects_bad_algorithm(self):
        with pytest.raises(DecodingError):
            BCJRDecoder(algorithm="viterbi")

    def test_rejects_shape_mismatch(self):
        decoder = BCJRDecoder()
        with pytest.raises(DecodingError):
            decoder.decode(np.zeros((10, 2)), np.zeros((9, 2)))

    def test_rejects_bad_apriori_shape(self):
        decoder = BCJRDecoder()
        with pytest.raises(DecodingError):
            decoder.decode(np.zeros((10, 2)), np.zeros((10, 2)), apriori=np.zeros((10, 3)))


class TestBitSymbolConversion:
    def test_symbol_to_bit_signs(self):
        # Strongly favour symbol 3 = (A=1, B=1): both bit LLRs should be negative.
        symbol_ext = np.array([[0.0, 1.0, 1.0, 9.0]])
        bits = symbol_to_bit_extrinsic(symbol_ext)
        assert bits[0, 0] < 0 and bits[0, 1] < 0

    def test_bit_to_symbol_favours_consistent_symbol(self):
        bits = np.array([[-4.0, -4.0]])  # both bits likely 1
        symbols = bit_to_symbol_extrinsic(bits)
        assert np.argmax(symbols[0]) == 3

    def test_roundtrip_preserves_rank1_structure(self):
        bits = np.array([[2.0, -1.0], [0.5, 0.25]])
        recovered = symbol_to_bit_extrinsic(bit_to_symbol_extrinsic(bits))
        assert np.allclose(recovered, bits)

    def test_exact_marginalisation_differs_from_maxlog(self):
        symbol_ext = np.array([[0.0, 0.5, 0.4, 0.1]])
        approx = symbol_to_bit_extrinsic(symbol_ext, exact=False)
        exact = symbol_to_bit_extrinsic(symbol_ext, exact=True)
        assert not np.allclose(approx, exact)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DecodingError):
            symbol_to_bit_extrinsic(np.zeros((3, 3)))
        with pytest.raises(DecodingError):
            bit_to_symbol_extrinsic(np.zeros((3, 3)))


class TestTurboDecoder:
    def _transmit(self, encoder, info, ebn0_db, rng):
        codeword = encoder.encode(info)
        modulator = BPSKModulator()
        sigma = ebn0_to_noise_sigma(ebn0_db, 0.5)
        channel = AWGNChannel(sigma, rng)
        bits = codeword.to_bit_array()
        llrs = modulator.demodulate_llr(
            channel.transmit(modulator.modulate(bits)), channel.llr_noise_variance(False)
        )
        return llrs

    def test_noiseless_decoding(self, small_turbo_encoder, rng):
        info = rng.integers(0, 2, small_turbo_encoder.k)
        decoder = TurboDecoder(small_turbo_encoder, max_iterations=4)
        llrs = 8.0 * (1 - 2 * small_turbo_encoder.encode(info).to_bit_array().astype(float))
        result = decoder.decode(*decoder.split_llrs(llrs))
        assert np.array_equal(result.hard_bits, info)

    def test_awgn_decoding_at_moderate_snr(self, small_turbo_encoder, rng):
        decoder = TurboDecoder(small_turbo_encoder, max_iterations=8)
        errors = 0
        for _ in range(4):
            info = rng.integers(0, 2, small_turbo_encoder.k)
            llrs = self._transmit(small_turbo_encoder, info, ebn0_db=2.5, rng=rng)
            result = decoder.decode(*decoder.split_llrs(llrs))
            errors += int(np.count_nonzero(result.hard_bits != info))
        assert errors == 0

    def test_bit_level_exchange_still_decodes(self, small_turbo_encoder, rng):
        decoder = TurboDecoder(
            small_turbo_encoder, max_iterations=8, bit_level_exchange=True
        )
        info = rng.integers(0, 2, small_turbo_encoder.k)
        llrs = self._transmit(small_turbo_encoder, info, ebn0_db=3.0, rng=rng)
        result = decoder.decode(*decoder.split_llrs(llrs))
        assert np.array_equal(result.hard_bits, info)

    def test_early_termination_reports_convergence(self, small_turbo_encoder, rng):
        decoder = TurboDecoder(small_turbo_encoder, max_iterations=8)
        info = rng.integers(0, 2, small_turbo_encoder.k)
        llrs = self._transmit(small_turbo_encoder, info, ebn0_db=4.0, rng=rng)
        result = decoder.decode(*decoder.split_llrs(llrs))
        assert result.converged
        assert result.iterations <= 8

    def test_iterations_help_at_low_snr(self, small_turbo_encoder):
        rng = np.random.default_rng(3)
        one_it = TurboDecoder(small_turbo_encoder, max_iterations=1, early_termination=False)
        many_it = TurboDecoder(small_turbo_encoder, max_iterations=8, early_termination=False)
        errors_one, errors_many = 0, 0
        for _ in range(6):
            info = rng.integers(0, 2, small_turbo_encoder.k)
            llrs = self._transmit(small_turbo_encoder, info, ebn0_db=1.5, rng=rng)
            sys_llrs, par1, par2 = one_it.split_llrs(llrs)
            errors_one += int(np.count_nonzero(one_it.decode(sys_llrs, par1, par2).hard_bits != info))
            errors_many += int(
                np.count_nonzero(many_it.decode(sys_llrs, par1, par2).hard_bits != info)
            )
        assert errors_many <= errors_one

    def test_split_llrs_shapes(self, small_turbo_encoder):
        decoder = TurboDecoder(small_turbo_encoder)
        sys_llrs, par1, par2 = decoder.split_llrs(np.zeros(small_turbo_encoder.n))
        assert sys_llrs.shape == (48, 2)
        assert par1.shape == (48, 2)
        assert np.all(par1[:, 1] == 0)  # W punctured at rate 1/2
        assert par2.shape == (48, 2)

    def test_split_llrs_rejects_wrong_length(self, small_turbo_encoder):
        decoder = TurboDecoder(small_turbo_encoder)
        with pytest.raises(DecodingError):
            decoder.split_llrs(np.zeros(small_turbo_encoder.n + 1))

    def test_decode_rejects_wrong_shapes(self, small_turbo_encoder):
        decoder = TurboDecoder(small_turbo_encoder)
        with pytest.raises(DecodingError):
            decoder.decode(np.zeros((10, 2)), np.zeros((10, 2)), np.zeros((10, 2)))

    def test_rejects_bad_iteration_count(self, small_turbo_encoder):
        with pytest.raises(DecodingError):
            TurboDecoder(small_turbo_encoder, max_iterations=0)
