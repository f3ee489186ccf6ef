"""End-to-end integration tests across substrates.

These tests walk the same paths as the examples and the benchmark harness:
transmit chain -> functional decoding, and code -> mapping -> cycle-accurate
simulation -> throughput/area/power roll-up, for both operating modes of the
flexible decoder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import (
    AWGNChannel,
    BPSKModulator,
    ErrorRateAccumulator,
    ebn0_to_noise_sigma,
)
from repro.core import DecoderSpec, DesignSpaceExplorer, NocDecoderArchitecture
from repro.ldpc import wimax_ldpc_code
from repro.noc import RoutingAlgorithm
from repro.sim import BatchFloodingDecoder, BatchLayeredDecoder, BatchTurboDecoder
from repro.turbo import TurboEncoder


class TestLdpcChainIntegration:
    """Random bits -> WiMAX LDPC encode -> BPSK -> AWGN -> layered decode."""

    def _run_chain(self, code, decoder, ebn0_db, frames, seed=0):
        rng = np.random.default_rng(seed)
        modulator = BPSKModulator()
        sigma = ebn0_to_noise_sigma(ebn0_db, code.rate)
        accumulator = ErrorRateAccumulator()
        for _ in range(frames):
            info = rng.integers(0, 2, code.k)
            codeword = code.encode(info)
            channel = AWGNChannel(sigma, rng)
            llrs = modulator.demodulate_llr(
                channel.transmit(modulator.modulate(codeword)),
                channel.llr_noise_variance(False),
            )
            result = decoder.decode_batch(llrs[None, :])
            accumulator.update(codeword, result.hard_bits[0])
        return accumulator.report()

    def test_rate_half_chain_error_free_at_high_snr(self, small_ldpc_code):
        decoder = BatchLayeredDecoder(small_ldpc_code.h, max_iterations=15)
        report = self._run_chain(small_ldpc_code, decoder, ebn0_db=3.0, frames=4)
        assert report.bit_errors == 0

    def test_high_rate_chain_error_free_at_high_snr(self, small_high_rate_code):
        decoder = BatchLayeredDecoder(small_high_rate_code.h, max_iterations=20)
        report = self._run_chain(small_high_rate_code, decoder, ebn0_db=5.5, frames=4)
        assert report.bit_errors == 0

    def test_coding_gain_over_uncoded_transmission(self, small_ldpc_code):
        """At 3 dB the coded chain must beat hard-decision uncoded BPSK."""
        rng = np.random.default_rng(5)
        modulator = BPSKModulator()
        sigma = ebn0_to_noise_sigma(3.0, small_ldpc_code.rate)
        decoder = BatchLayeredDecoder(small_ldpc_code.h, max_iterations=15)
        coded_errors, uncoded_errors = 0, 0
        for _ in range(4):
            info = rng.integers(0, 2, small_ldpc_code.k)
            codeword = small_ldpc_code.encode(info)
            channel = AWGNChannel(sigma, rng)
            received = channel.transmit(modulator.modulate(codeword))
            llrs = modulator.demodulate_llr(received, channel.llr_noise_variance(False))
            coded_errors += int(
                np.count_nonzero(decoder.decode_batch(llrs[None, :]).hard_bits[0] != codeword)
            )
            uncoded_errors += int(np.count_nonzero((received < 0).astype(int) != codeword))
        assert coded_errors < uncoded_errors

    def test_layered_and_flooding_agree_on_clean_frames(self, small_ldpc_code, rng):
        info = rng.integers(0, 2, small_ldpc_code.k)
        codeword = small_ldpc_code.encode(info)
        llrs = 6.0 * (1 - 2 * codeword.astype(float))
        layered = BatchLayeredDecoder(small_ldpc_code.h).decode_batch(llrs[None, :])
        flooding = BatchFloodingDecoder(small_ldpc_code.h).decode_batch(llrs[None, :])
        assert np.array_equal(layered.hard_bits, flooding.hard_bits)


class TestTurboChainIntegration:
    """Random bits -> CTC encode -> BPSK -> AWGN -> iterative turbo decode."""

    def test_symbol_vs_bit_level_exchange_both_converge(self):
        encoder = TurboEncoder(n_couples=96)
        rng = np.random.default_rng(11)
        modulator = BPSKModulator()
        sigma = ebn0_to_noise_sigma(2.5, 0.5)
        for bit_level in (False, True):
            decoder = BatchTurboDecoder(encoder, max_iterations=8, bit_level_exchange=bit_level)
            info = rng.integers(0, 2, encoder.k)
            channel = AWGNChannel(sigma, rng)
            llrs = modulator.demodulate_llr(
                channel.transmit(modulator.modulate(encoder.encode(info).to_bit_array())),
                channel.llr_noise_variance(False),
            )
            result = decoder.decode_batch(llrs[None, :])
            assert np.array_equal(result.hard_bits[0], info)


class TestSystemLevelIntegration:
    """Full design-flow integration on small instances."""

    def test_flexible_decoder_supports_both_modes(self, small_decoder_architecture):
        """The same decoder instance evaluates and functionally decodes both code types."""
        code = wimax_ldpc_code(576, "1/2")
        ldpc_eval = small_decoder_architecture.evaluate_ldpc(code)
        turbo_eval = small_decoder_architecture.evaluate_turbo(240)
        assert ldpc_eval.simulation.all_delivered
        assert turbo_eval.simulation.all_delivered
        # Same silicon: identical area breakdown regardless of the mode evaluated.
        assert ldpc_eval.area.core_mm2 == pytest.approx(turbo_eval.area.core_mm2)

    def test_full_wimax_ldpc_code_set_maps_onto_one_decoder(self):
        arch = NocDecoderArchitecture(DecoderSpec(parallelism=8, degree=3, mapping_attempts=1))
        for rate in ("1/2", "2/3A", "3/4A", "5/6"):
            code = wimax_ldpc_code(576, rate)
            simulation = arch.evaluate_ldpc(code).simulation
            assert simulation.all_delivered
            assert simulation.total_messages == code.h.n_edges

    def test_routing_algorithm_comparison_on_same_mapping(self):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1), seed=0)
        code = wimax_ldpc_code(576, "1/2")
        points = {
            algorithm: explorer.evaluate_ldpc_point(
                code, "generalized-kautz", 3, 8, algorithm
            )
            for algorithm in RoutingAlgorithm
        }
        throughputs = [p.throughput_mbps for p in points.values()]
        assert max(throughputs) / min(throughputs) < 1.5  # weak dependence, as in the paper
        # The AP architecture (ASP-FT) must not be larger than the PP ones.
        assert points[RoutingAlgorithm.ASP_FT].noc_area_mm2 <= min(
            points[RoutingAlgorithm.SSP_RR].noc_area_mm2,
            points[RoutingAlgorithm.SSP_FL].noc_area_mm2,
        ) * 1.05

    def test_larger_noc_gives_smaller_message_passing_phase(self):
        code = wimax_ldpc_code(1152, "1/2")
        small = NocDecoderArchitecture(
            DecoderSpec(parallelism=8, degree=3, mapping_attempts=1)
        ).evaluate_ldpc(code).simulation
        large = NocDecoderArchitecture(
            DecoderSpec(parallelism=24, degree=3, mapping_attempts=1)
        ).evaluate_ldpc(code).simulation
        assert large.ncycles < small.ncycles

    def test_wimax_turbo_and_ldpc_requirement_at_moderate_parallelism(self):
        """P=24 comfortably clears the 70 Mb/s WiMAX requirement in both modes."""
        arch = NocDecoderArchitecture(DecoderSpec(parallelism=24, mapping_attempts=2))
        ldpc = arch.evaluate_ldpc(wimax_ldpc_code(2304, "1/2"))
        turbo = arch.evaluate_turbo(2400)
        assert ldpc.throughput_mbps >= 70
        assert turbo.throughput_mbps >= 70
