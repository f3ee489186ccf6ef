"""Hypothesis property suites for the modulators and the LLR quantiser.

Round-trip laws the channel layer must satisfy for *every* constellation and
batch shape, plus the fixed-point quantiser's idempotence / saturation /
negation-closure contracts — the properties the decoder datapaths lean on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
    BPSKModulator,
    LLRQuantizer,
    QAM16Modulator,
    QPSKModulator,
    QuantizationSpec,
    RayleighFadingChannel,
)

MODULATORS = [BPSKModulator(), QPSKModulator(), QAM16Modulator()]


def random_bits(rng: np.random.Generator, batch: int, n_symbols: int, mod) -> np.ndarray:
    return rng.integers(0, 2, size=(batch, n_symbols * mod.bits_per_symbol))


@st.composite
def bits_and_modulator(draw):
    mod = draw(st.sampled_from(MODULATORS))
    batch = draw(st.integers(min_value=1, max_value=5))
    n_symbols = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    bits = random_bits(np.random.default_rng(seed), batch, n_symbols, mod)
    return mod, bits


class TestModulatorRoundTrip:
    @given(case=bits_and_modulator())
    @settings(max_examples=60, deadline=None)
    def test_noiseless_demap_sign_recovers_bits(self, case):
        mod, bits = case
        symbols = mod.modulate(bits)
        llrs = mod.demodulate_llr(symbols, noise_variance=0.7)
        assert llrs.shape == bits.shape
        assert ((llrs < 0).astype(int) == bits).all()

    @given(case=bits_and_modulator())
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_rowwise(self, case):
        mod, bits = case
        symbols = mod.modulate(bits)
        rng = np.random.default_rng(0)
        noisy = symbols + 0.1 * rng.normal(size=symbols.shape)
        if np.iscomplexobj(symbols):
            noisy = noisy + 0.1j * rng.normal(size=symbols.shape)
        llrs = mod.demodulate_llr(noisy, 0.4)
        for row in range(bits.shape[0]):
            assert np.array_equal(mod.modulate(bits[row]), symbols[row])
            assert np.allclose(mod.demodulate_llr(noisy[row], 0.4), llrs[row])

    @given(case=bits_and_modulator(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_noiseless_fading_demap_recovers_bits(self, case, seed):
        # Near-noiseless fading with perfect CSI must still recover every bit:
        # the equalise-and-reweight path may scale LLRs but never flip signs.
        mod, bits = case
        symbols = mod.modulate(bits)
        channel = RayleighFadingChannel(
            1e-4,
            np.random.default_rng(seed),
            block_fading=bool(seed % 2),
        )
        received, gains = channel.transmit(symbols)
        llrs = mod.demodulate_llr(
            received,
            channel.llr_noise_variance(np.iscomplexobj(symbols)),
            gains=gains,
        )
        assert ((llrs < 0).astype(int) == bits).all()

    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        case=bits_and_modulator(),
    )
    @settings(max_examples=30, deadline=None)
    def test_llrs_scale_inversely_with_noise_variance(self, scale, case):
        mod, bits = case
        symbols = mod.modulate(bits)
        base = mod.demodulate_llr(symbols, 0.5)
        scaled = mod.demodulate_llr(symbols, 0.5 * scale)
        assert np.allclose(scaled * scale, base, rtol=1e-9, atol=1e-12)


@st.composite
def quantizer_spec(draw):
    total_bits = draw(st.integers(min_value=2, max_value=10))
    frac_bits = draw(st.integers(min_value=0, max_value=total_bits - 1))
    return QuantizationSpec(total_bits=total_bits, frac_bits=frac_bits)


@st.composite
def values_array(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    spread = draw(st.floats(min_value=0.01, max_value=1000.0))
    return np.random.default_rng(seed).uniform(-spread, spread, size=n)


class TestQuantizerProperties:
    @given(spec=quantizer_spec(), values=values_array(), symmetric=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_idempotent(self, spec, values, symmetric):
        quant = LLRQuantizer(spec, symmetric=symmetric)
        once = quant.quantize_to_real(values)
        twice = quant.quantize_to_real(once)
        assert np.array_equal(once, twice)

    @given(spec=quantizer_spec(), values=values_array(), symmetric=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_levels_stay_within_saturation_bounds(self, spec, values, symmetric):
        quant = LLRQuantizer(spec, symmetric=symmetric)
        levels = quant.quantize(values)
        assert levels.max() <= spec.max_level
        assert levels.min() >= quant.lowest_level
        if symmetric:
            assert levels.min() >= -spec.max_level

    @given(spec=quantizer_spec(), values=values_array())
    @settings(max_examples=80, deadline=None)
    def test_symmetric_negation_closure(self, spec, values):
        # Every representable level's negation is representable, and
        # quantisation commutes with sign flips — the min-sum invariant.
        quant = LLRQuantizer(spec)
        levels = quant.quantize(values)
        assert np.array_equal(quant.quantize(-values), -levels)
        assert np.array_equal(quant.quantize(quant.dequantize(-levels)), -levels)

    @given(spec=quantizer_spec(), values=values_array())
    @settings(max_examples=40, deadline=None)
    def test_in_range_error_bounded_by_half_step(self, spec, values):
        quant = LLRQuantizer(spec)
        max_value = spec.max_level * spec.step
        clipped = np.clip(values, -max_value, max_value)
        recovered = quant.quantize_to_real(clipped)
        assert np.max(np.abs(clipped - recovered)) <= spec.step / 2 + 1e-9

    def test_asymmetric_floor_negation_overflows_by_construction(self):
        # Documents *why* symmetric is the datapath default: the asymmetric
        # floor has no representable negation.
        spec = QuantizationSpec(5, 0)
        asym = LLRQuantizer(spec, symmetric=False)
        floor_level = asym.quantize(np.array([-1000.0]))[0]
        assert floor_level == spec.min_level
        assert -floor_level > spec.max_level

    def test_rejects_non_spec(self):
        with pytest.raises(Exception):
            LLRQuantizer(object())  # type: ignore[arg-type]
