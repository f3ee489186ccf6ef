"""Unit tests for :mod:`repro.channel`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import (
    AWGNChannel,
    BPSKModulator,
    ErrorRateAccumulator,
    LLRQuantizer,
    QAM16Modulator,
    QPSKModulator,
    QuantizationSpec,
    RayleighFadingChannel,
    ebn0_to_noise_sigma,
    snr_db_to_linear,
)
from repro.channel.quantize import CHANNEL_LLR_SPEC, EXTRINSIC_SPEC
from repro.errors import ConfigurationError, DecodingError


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

    def test_gains_scale_llrs(self):
        mod = BPSKModulator()
        llr = mod.demodulate_llr(np.array([0.7]), 0.5, gains=np.array([2.0]))
        assert llr[0] == pytest.approx(2 * 2.0 * 0.7 / 0.5)

    def test_rejects_complex_gains_for_real_constellation(self):
        with pytest.raises(DecodingError):
            BPSKModulator().demodulate_llr(
                np.array([1.0]), 0.5, gains=np.array([1.0 + 1j])
            )


class TestQPSK:
    def test_unit_energy(self):
        mod = QPSKModulator()
        symbols = mod.modulate(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
        assert np.allclose(np.abs(symbols), 1.0)

    def test_gray_mapping_independent_axes(self):
        mod = QPSKModulator()
        symbols = mod.modulate(np.array([0, 1]))
        assert symbols[0].real > 0 and symbols[0].imag < 0

    def test_llr_recovers_bits_noiseless(self):
        mod = QPSKModulator()
        bits = np.array([0, 1, 1, 0, 1, 1, 0, 0])
        llrs = mod.demodulate_llr(mod.modulate(bits), noise_variance=1.0)
        assert ((llrs < 0).astype(int) == bits).all()

    def test_rejects_odd_bit_count(self):
        with pytest.raises(DecodingError):
            QPSKModulator().modulate(np.array([0, 1, 0]))

    def test_llr_magnitude_pinned_with_channel_convention(self):
        # Regression for the AWGNChannel.noise_variance bug: demapping QPSK
        # with the per-dimension sigma^2 instead of llr_noise_variance(True)
        # produced LLRs exactly 2x too hot.  Pin the correct magnitude.
        mod = QPSKModulator()
        channel = AWGNChannel(0.5)
        nv = channel.llr_noise_variance(True)  # 2 * 0.5^2 = 0.5
        llrs = mod.demodulate_llr(np.array([0.7 + 0.2j]), nv)
        assert llrs[0] == pytest.approx(2 * np.sqrt(2) * 0.7 / 0.5)
        assert llrs[1] == pytest.approx(2 * np.sqrt(2) * 0.2 / 0.5)

    def test_csi_gains_equalize_and_reweight(self):
        mod = QPSKModulator()
        bits = np.array([0, 1, 1, 0])
        clean = mod.modulate(bits)
        h = np.array([0.5 * np.exp(1j * 0.7), 2.0 * np.exp(-1j * 1.1)])
        faded = clean * h
        llrs = mod.demodulate_llr(faded, 0.5, gains=h)
        # Equalised observation is the clean symbol; LLR scale is |h|^2.
        base = mod.demodulate_llr(clean, 0.5)
        expected = base * np.repeat(np.abs(h) ** 2, 2)
        assert np.allclose(llrs, expected)


class TestQAM16:
    def test_unit_average_energy(self):
        mod = QAM16Modulator()
        # All 16 bit patterns once: average symbol energy is exactly 1.
        bits = np.array(
            [[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)]
        ).reshape(1, -1)
        symbols = mod.modulate(bits)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0)

    def test_gray_mapping_neighbours_differ_in_one_bit(self):
        mod = QAM16Modulator()
        patterns = [(s, m) for s in (0, 1) for m in (0, 1)]
        level_of = {}
        for sign, mag in patterns:
            sym = mod.modulate(np.array([sign, mag, 0, 0]))
            level_of[(sign, mag)] = sym[0].real * np.sqrt(10)
        ordered = sorted(level_of.items(), key=lambda kv: kv[1])
        for (bits_a, _), (bits_b, _) in zip(ordered, ordered[1:]):
            hamming = sum(a != b for a, b in zip(bits_a, bits_b))
            assert hamming == 1

    def test_llr_recovers_bits_noiseless(self):
        mod = QAM16Modulator()
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(3, 64))
        llrs = mod.demodulate_llr(mod.modulate(bits), noise_variance=0.5)
        assert ((llrs < 0).astype(int) == bits).all()

    def test_rejects_bit_count_not_multiple_of_four(self):
        with pytest.raises(DecodingError):
            QAM16Modulator().modulate(np.array([0, 1, 0]))

    def test_batched_matches_rowwise(self):
        mod = QAM16Modulator()
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(4, 16))
        symbols = mod.modulate(bits)
        noisy = symbols + 0.2 * (
            rng.normal(size=symbols.shape) + 1j * rng.normal(size=symbols.shape)
        )
        llrs = mod.demodulate_llr(noisy, 0.3)
        for row in range(bits.shape[0]):
            assert np.array_equal(symbols[row], mod.modulate(bits[row]))
            assert np.allclose(llrs[row], mod.demodulate_llr(noisy[row], 0.3))


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

    def test_noise_variance_property_is_deprecated(self):
        # Regression: the property claimed to return the demapper total
        # (2*sigma^2 for complex) but returned sigma^2; it is now deprecated
        # in favour of llr_noise_variance.
        channel = AWGNChannel(0.5)
        with pytest.warns(DeprecationWarning, match="llr_noise_variance"):
            value = channel.noise_variance
        assert value == pytest.approx(0.25)
        assert channel.llr_noise_variance(True) == pytest.approx(2 * value)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ConfigurationError):
            AWGNChannel(0.0)

    def test_snr_db_to_linear(self):
        assert snr_db_to_linear(0.0) == pytest.approx(1.0)
        assert snr_db_to_linear(10.0) == pytest.approx(10.0)

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


class TestRayleighFading:
    def test_per_symbol_gains_shape_and_statistics(self):
        channel = RayleighFadingChannel(0.01, np.random.default_rng(0))
        symbols = np.ones((100, 500), dtype=complex)
        received, gains = channel.transmit(symbols)
        assert gains.shape == symbols.shape
        assert received.shape == symbols.shape
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_block_fading_one_gain_per_frame(self):
        channel = RayleighFadingChannel(
            0.01, np.random.default_rng(1), block_fading=True
        )
        symbols = np.ones((8, 64), dtype=complex)
        received, gains = channel.transmit(symbols)
        assert gains.shape == (8, 1)
        assert len(np.unique(gains)) == 8

    def test_real_symbols_get_rayleigh_amplitudes(self):
        channel = RayleighFadingChannel(0.01, np.random.default_rng(2))
        received, gains = channel.transmit(np.ones((4, 32)))
        assert not np.iscomplexobj(gains)
        assert (gains > 0).all()
        assert not np.iscomplexobj(received)
        assert np.mean(gains**2) == pytest.approx(1.0, rel=0.25)

    def test_llr_noise_variance_matches_awgn_convention(self):
        channel = RayleighFadingChannel(0.5)
        awgn = AWGNChannel(0.5)
        assert channel.llr_noise_variance(True) == awgn.llr_noise_variance(True)
        assert channel.llr_noise_variance(False) == awgn.llr_noise_variance(False)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ConfigurationError):
            RayleighFadingChannel(0.0)

    def test_csi_demap_recovers_bits_at_high_snr(self):
        mod = QPSKModulator()
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(16, 128))
        channel = RayleighFadingChannel(0.01, np.random.default_rng(4))
        received, gains = channel.transmit(mod.modulate(bits))
        llrs = mod.demodulate_llr(
            received, channel.llr_noise_variance(True), gains=gains
        )
        assert ((llrs < 0).astype(int) == bits).all()


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
        assert spec.max_value == pytest.approx(31.5)

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

    def test_saturating_add(self):
        quant = LLRQuantizer(QuantizationSpec(5, 0))
        out = quant.saturating_add(np.array([10]), np.array([10]))
        assert out.tolist() == [15]
        out = quant.saturating_add(np.array([-10]), np.array([-10]))
        assert out.tolist() == [-15]
        asym = LLRQuantizer(QuantizationSpec(5, 0), symmetric=False)
        assert asym.saturating_add(np.array([-10]), np.array([-10])).tolist() == [-16]

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
