"""Unit tests for :mod:`repro.channel`."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.channel import (
    AWGNChannel,
    BPSKModulator,
    ErrorRateAccumulator,
    LLRQuantizer,
    QuantizationSpec,
    ebn0_to_noise_sigma,
    snr_db_to_linear,
)
from repro.channel.quantize import CHANNEL_LLR_SPEC, EXTRINSIC_SPEC
from repro.errors import ConfigurationError, DecodingError
from repro.sim import BatchLayeredDecoder, BerRunner


class TestBPSK:
    def test_mapping(self):
        symbols = BPSKModulator().modulate(np.array([0, 1, 0, 1]))
        assert symbols.tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_llr_sign_matches_bits(self):
        mod = BPSKModulator()
        bits = np.array([0, 1, 1, 0])
        llrs = mod.demodulate_llr(mod.modulate(bits), noise_variance=0.5)
        decisions = (llrs < 0).astype(int)
        assert decisions.tolist() == bits.tolist()

    def test_llr_scale(self):
        mod = BPSKModulator()
        llr = mod.demodulate_llr(np.array([0.7]), noise_variance=0.5)
        assert llr[0] == pytest.approx(2 * 0.7 / 0.5)

    def test_rejects_non_binary(self):
        with pytest.raises(DecodingError):
            BPSKModulator().modulate(np.array([0, 2]))

    def test_batched_input_matches_rowwise(self):
        mod = BPSKModulator()
        bits = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
        symbols = mod.modulate(bits)
        assert symbols.shape == bits.shape
        for row in range(bits.shape[0]):
            assert np.array_equal(symbols[row], mod.modulate(bits[row]))
        llrs = mod.demodulate_llr(symbols, noise_variance=0.5)
        assert llrs.shape == bits.shape
        assert ((llrs < 0).astype(int) == bits).all()

    def test_rejects_scalar_input(self):
        with pytest.raises(DecodingError):
            BPSKModulator().modulate(np.array(1))

    def test_rejects_bad_noise_variance(self):
        with pytest.raises(ConfigurationError):
            BPSKModulator().demodulate_llr(np.array([1.0]), noise_variance=0.0)

    def test_rejects_non_integral_floats(self):
        # Regression: 0.5 passed the min/max range check and was silently
        # truncated to bit 0 by the int8 cast.
        with pytest.raises(DecodingError):
            BPSKModulator().modulate(np.array([0.0, 0.5]))

    def test_accepts_integral_floats_and_bools(self):
        mod = BPSKModulator()
        assert mod.modulate(np.array([0.0, 1.0])).tolist() == [1.0, -1.0]
        assert mod.modulate(np.array([False, True])).tolist() == [1.0, -1.0]

    def test_rejects_channel_gains(self):
        # ``gains=`` survives only as a keyword that forwarding wrappers may
        # pass as None; BPSK over AWGN has no channel-state information.
        mod = BPSKModulator()
        assert mod.demodulate_llr(np.array([0.7]), 0.5, gains=None)[0] == pytest.approx(2.8)
        with pytest.raises(DecodingError, match="gains"):
            mod.demodulate_llr(np.array([0.7]), 0.5, gains=np.array([2.0]))


class TestAWGN:
    def test_noise_statistics(self):
        channel = AWGNChannel(0.5, np.random.default_rng(0))
        clean = np.zeros(200_000)
        noisy = channel.transmit(clean)
        assert np.std(noisy) == pytest.approx(0.5, rel=0.02)
        assert np.mean(noisy) == pytest.approx(0.0, abs=0.01)

    def test_complex_noise_both_dimensions(self):
        channel = AWGNChannel(0.3, np.random.default_rng(1))
        noisy = channel.transmit(np.zeros(100_000, dtype=complex))
        assert np.std(noisy.real) == pytest.approx(0.3, rel=0.05)
        assert np.std(noisy.imag) == pytest.approx(0.3, rel=0.05)

    def test_llr_noise_variance_convention(self):
        channel = AWGNChannel(0.5)
        assert channel.llr_noise_variance(False) == pytest.approx(0.25)
        assert channel.llr_noise_variance(True) == pytest.approx(0.5)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ConfigurationError):
            AWGNChannel(0.0)

    def test_snr_db_to_linear(self):
        assert snr_db_to_linear(0.0) == pytest.approx(1.0)
        assert snr_db_to_linear(10.0) == pytest.approx(10.0)

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 1e300])
    def test_snr_db_to_linear_rejects_non_finite(self, snr_db):
        # Regression: nan came back as nan and 1e300 escaped as a raw
        # OverflowError.
        with pytest.raises(ConfigurationError, match="snr_db"):
            snr_db_to_linear(snr_db)

    def test_ebn0_to_noise_sigma_closed_form(self):
        # Rate 1/2 BPSK at 0 dB: Es/N0 = 1/2, so sigma^2 = 1 / (2 * 1/2) = 1.
        assert ebn0_to_noise_sigma(0.0, 0.5) == pytest.approx(1.0)
        assert ebn0_to_noise_sigma(10.0, 0.5) == pytest.approx(math.sqrt(0.1))

    def test_ebn0_to_noise_sigma_decreases_with_snr(self):
        low = ebn0_to_noise_sigma(0.0, 0.5)
        high = ebn0_to_noise_sigma(4.0, 0.5)
        assert high < low

    def test_ebn0_accounts_for_rate(self):
        half = ebn0_to_noise_sigma(2.0, 0.5)
        five_sixth = ebn0_to_noise_sigma(2.0, 5.0 / 6.0)
        assert five_sixth < half

    def test_ebn0_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            ebn0_to_noise_sigma(2.0, 0.0)
        with pytest.raises(ConfigurationError):
            ebn0_to_noise_sigma(2.0, 1.5)


def _run_point(code, ebn0_db):
    BerRunner(code, BatchLayeredDecoder(code.h), max_frames=1).run_point(ebn0_db)


@pytest.mark.parametrize(
    "call",
    [
        # Regressions: these escaped as ValueError / OverflowError /
        # ZeroDivisionError from the runner, or as NaN or all-zero LLRs.
        lambda code: _run_point(code, math.nan),
        lambda code: _run_point(code, math.inf),
        lambda code: _run_point(code, -math.inf),
        lambda code: _run_point(code, 1e300),
        lambda code: _run_point(code, -1e300),
        lambda code: ebn0_to_noise_sigma(math.nan, 0.5),
        lambda code: AWGNChannel(math.nan),
        lambda code: AWGNChannel(math.inf),
        lambda code: BPSKModulator().demodulate_llr(np.ones(4), math.nan),
        lambda code: BPSKModulator().demodulate_llr(np.ones(4), math.inf),
    ],
    ids=[
        "run_point-nan",
        "run_point-inf",
        "run_point-neg-inf",
        "run_point-1e300",
        "run_point-neg-1e300",
        "ebn0_to_noise_sigma-nan",
        "awgn-sigma-nan",
        "awgn-sigma-inf",
        "demodulate-nan",
        "demodulate-inf",
    ],
)
def test_non_finite_channel_inputs_rejected(small_ldpc_code, call):
    with pytest.raises(ConfigurationError):
        call(small_ldpc_code)


class TestQuantizer:
    def test_paper_formats(self):
        assert CHANNEL_LLR_SPEC.total_bits == 7
        assert EXTRINSIC_SPEC.total_bits == 5

    def test_spec_range(self):
        spec = QuantizationSpec(total_bits=5, frac_bits=0)
        assert spec.max_level == 15
        assert spec.min_level == -16
        assert spec.step == 1.0

    def test_spec_fractional_step(self):
        spec = QuantizationSpec(total_bits=7, frac_bits=1)
        assert spec.step == 0.5
        assert spec.max_level * spec.step == pytest.approx(31.5)

    def test_spec_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            QuantizationSpec(total_bits=1)
        with pytest.raises(ConfigurationError):
            QuantizationSpec(total_bits=4, frac_bits=4)

    def test_quantize_saturates_symmetrically_by_default(self):
        # Regression: the default used to clip to the asymmetric two's-
        # complement floor -2**(b-1), whose negation overflows the format —
        # poison for min-sum sign flips.  The decoder-datapath default is now
        # symmetric saturation at -max_level.
        quant = LLRQuantizer(QuantizationSpec(5, 0))
        levels = quant.quantize(np.array([100.0, -100.0]))
        assert levels.tolist() == [15, -15]
        assert quant.lowest_level == -15

    def test_asymmetric_mode_is_opt_in(self):
        quant = LLRQuantizer(QuantizationSpec(5, 0), symmetric=False)
        levels = quant.quantize(np.array([100.0, -100.0]))
        assert levels.tolist() == [15, -16]
        assert quant.lowest_level == -16

    def test_symmetric_negation_closure(self):
        quant = LLRQuantizer(QuantizationSpec(5, 0))
        values = np.linspace(-40.0, 40.0, 401)
        levels = quant.quantize(values)
        flipped = quant.quantize(-values)
        assert np.array_equal(flipped, -levels)

    def test_quantize_rounds(self):
        quant = LLRQuantizer(QuantizationSpec(5, 0))
        assert quant.quantize(np.array([2.4, 2.6])).tolist() == [2, 3]

    def test_roundtrip_error_bounded_by_half_step(self):
        quant = LLRQuantizer(QuantizationSpec(7, 1))
        values = np.linspace(-20, 20, 101)
        recovered = quant.quantize_to_real(values)
        assert np.max(np.abs(values - recovered)) <= quant.spec.step / 2 + 1e-12

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_quantize_to_real_equals_integer_round_trip(self, symmetric):
        """Bit patterns match the int32 round-trip; -0.0 leaves as +0.0."""
        quant = LLRQuantizer(QuantizationSpec(7, 1), symmetric=symmetric)
        values = np.concatenate([[-0.0, -0.2, 0.2, -1e9, 1e9], np.linspace(-40, 40, 641)])
        expected = quant.dequantize(quant.quantize(values)).view(np.int64)
        assert np.array_equal(quant.quantize_to_real(values).view(np.int64), expected)

    def test_quantizer_requires_spec(self):
        with pytest.raises(ConfigurationError):
            LLRQuantizer("7bits")  # type: ignore[arg-type]


class TestErrorRate:
    def test_counts_bit_and_frame_errors(self):
        acc = ErrorRateAccumulator()
        acc.update(np.array([0, 0, 0, 0]), np.array([0, 1, 0, 1]))
        acc.update(np.array([1, 1, 1, 1]), np.array([1, 1, 1, 1]))
        report = acc.report()
        assert report.frames == 2
        assert report.bit_errors == 2
        assert report.frame_errors == 1
        assert report.ber == pytest.approx(0.25)
        assert report.fer == pytest.approx(0.5)

    def test_update_returns_frame_errors(self):
        acc = ErrorRateAccumulator()
        assert acc.update(np.array([0, 1]), np.array([1, 1])) == 1

    def test_reset(self):
        acc = ErrorRateAccumulator()
        acc.update(np.array([0]), np.array([1]))
        acc.reset()
        report = acc.report()
        assert report.frames == 0 and report.ber == 0.0

    def test_shape_mismatch_rejected(self):
        acc = ErrorRateAccumulator()
        with pytest.raises(DecodingError):
            acc.update(np.array([0, 1]), np.array([0]))

    def test_report_str_contains_rates(self):
        acc = ErrorRateAccumulator()
        acc.update(np.array([0, 1]), np.array([0, 1]))
        assert "BER" in str(acc.report())
