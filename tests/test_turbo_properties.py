"""Property tests for the CTC interleaver and the BTS/STB bit conversions.

Hypothesis-driven invariants over :mod:`repro.turbo.ctc_interleaver` (the
two-step WiMAX permutation must be a bijection with an exact inverse for
every standard parameter set) and :mod:`repro.turbo.bits` (the symbol <->
bit extrinsic marginalisation/rebuild pair), including the leading-batch-axis
generalisation the batched turbo engine relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError
from repro.turbo import (
    CTC_INTERLEAVER_PARAMETERS,
    CTCInterleaver,
    bit_to_symbol_extrinsic,
    supported_ctc_block_sizes,
    symbol_to_bit_extrinsic,
)

_SIZES = sorted(CTC_INTERLEAVER_PARAMETERS)
_LOG2 = float(np.log(2.0))


class TestInterleaverProperties:
    @pytest.mark.parametrize("n_couples", _SIZES)
    def test_every_paper_parameter_set_is_a_bijection(self, n_couples):
        """All standard (P0..P3) sets produce a permutation with spread >= 1."""
        interleaver = CTCInterleaver.for_block_size(n_couples)
        perm = interleaver.permutation()
        assert np.array_equal(np.sort(perm), np.arange(n_couples))
        assert interleaver.spread() >= 1

    @pytest.mark.parametrize("n_couples", _SIZES)
    def test_permutation_matches_standard_formula(self, n_couples):
        """The vectorised construction equals the per-index standard formula."""
        interleaver = CTCInterleaver.for_block_size(n_couples)
        p0, p1, p2, p3 = interleaver.p0, interleaver.p1, interleaver.p2, interleaver.p3
        half = n_couples // 2
        perm = interleaver.permutation()
        for j in range(0, n_couples, max(1, n_couples // 25)):
            offset = (0, half + p1, p2, half + p3)[j % 4]
            assert perm[j] == (p0 * j + 1 + offset) % n_couples

    @given(
        size_index=st.integers(0, len(_SIZES) - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleave_is_swap_then_permute(self, size_index, seed):
        """interleave(x)[i] is x[perm[i]] with its couple bits swapped where
        the natural index perm[i] is flagged, for random symbol blocks."""
        n = _SIZES[size_index]
        interleaver = CTCInterleaver.for_block_size(n)
        symbols = np.random.default_rng(seed).integers(0, 4, n)
        perm = interleaver.permutation()
        picked = symbols[perm]
        swap = interleaver.swap_flags()[perm] == 1
        expected = np.where(swap, np.array([0, 2, 1, 3])[picked], picked)
        assert np.array_equal(interleaver.interleave_symbols(symbols), expected)

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_batched_interleave_matches_per_frame(self, seed, batch):
        """A leading batch axis must not change any frame's permutation."""
        interleaver = CTCInterleaver.for_block_size(48)
        symbols = np.random.default_rng(seed).integers(0, 4, (batch, 48))
        stacked = interleaver.interleave_symbols(symbols)
        for frame in range(batch):
            assert np.array_equal(
                stacked[frame], interleaver.interleave_symbols(symbols[frame])
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_interleave_preserves_symbol_multiset_per_bit_weight(self, seed):
        """The swap exchanges symbols 1 and 2 but keeps {0} and {3} fixed.

        Symbols 0 (A=B=0) and 3 (A=B=1) are invariant under the intra-couple
        swap, so their counts are preserved exactly; 1 and 2 may trade places
        but their combined count is preserved.
        """
        interleaver = CTCInterleaver.for_block_size(96)
        symbols = np.random.default_rng(seed).integers(0, 4, 96)
        interleaved = interleaver.interleave_symbols(symbols)
        before = np.bincount(symbols, minlength=4)
        after = np.bincount(interleaved, minlength=4)
        assert after[0] == before[0]
        assert after[3] == before[3]
        assert after[1] + after[2] == before[1] + before[2]


def _symbol_vectors(draw_shape=(4,)):
    return st.lists(
        st.floats(-20.0, 20.0), min_size=4, max_size=4
    ).map(lambda vals: np.array([0.0, vals[1], vals[2], vals[3]]))


class TestBitSymbolConversionProperties:
    @given(
        llr_a=st.floats(-15.0, 15.0, allow_nan=False),
        llr_b=st.floats(-15.0, 15.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_rank1_roundtrip_is_exact_under_maxlog(self, llr_a, llr_b):
        """bit -> symbol -> bit recovers rank-1 (independent-bit) extrinsics.

        For a rank-1 symbol vector the max-log marginalisation is exact up to
        floating point, so the round trip must reproduce the bit LLRs.
        """
        bits = np.array([[llr_a, llr_b]])
        recovered = symbol_to_bit_extrinsic(bit_to_symbol_extrinsic(bits))
        assert np.allclose(recovered, bits, atol=1e-9)

    @given(vals=_symbol_vectors())
    @settings(max_examples=80, deadline=None)
    def test_maxlog_marginalisation_within_jacobian_bound(self, vals):
        """|log-sum-exp - max-log| <= 2*log(2): each max* pair errs by at most log 2."""
        approx = symbol_to_bit_extrinsic(vals[None, :])
        exact = np.array([[
            np.logaddexp(vals[0], vals[1]) - np.logaddexp(vals[2], vals[3]),
            np.logaddexp(vals[0], vals[2]) - np.logaddexp(vals[1], vals[3]),
        ]])
        assert np.all(np.abs(exact - approx) <= 2.0 * _LOG2 + 1e-9)

    @given(vals=_symbol_vectors())
    @settings(max_examples=60, deadline=None)
    def test_strongly_decided_symbol_fixes_bit_signs(self, vals):
        """If one symbol dominates by a wide margin, both bit LLRs follow it."""
        winner = int(np.argmax(vals))
        boosted = vals.copy()
        boosted[winner] += 100.0
        bits = symbol_to_bit_extrinsic(boosted[None, :])[0]
        a_bit, b_bit = (winner >> 1) & 1, winner & 1
        # Positive LLR means bit 0 under the repo-wide convention.
        assert (bits[0] < 0) == bool(a_bit)
        assert (bits[1] < 0) == bool(b_bit)

    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 4),
        n=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_leading_axes_match_per_frame(self, seed, batch, n):
        """The (..., 4)/(..., 2) generalisation equals frame-by-frame calls."""
        rng = np.random.default_rng(seed)
        symbol_ext = rng.normal(0.0, 5.0, (batch, n, 4))
        bit_llrs = rng.normal(0.0, 5.0, (batch, n, 2))
        stb = symbol_to_bit_extrinsic(symbol_ext)
        bts = bit_to_symbol_extrinsic(bit_llrs)
        assert stb.shape == (batch, n, 2)
        assert bts.shape == (batch, n, 4)
        for frame in range(batch):
            assert np.array_equal(stb[frame], symbol_to_bit_extrinsic(symbol_ext[frame]))
            assert np.array_equal(bts[frame], bit_to_symbol_extrinsic(bit_llrs[frame]))

    def test_bit_to_symbol_reference_element_and_rank1_structure(self):
        rng = np.random.default_rng(3)
        bits = rng.normal(0.0, 4.0, (10, 2))
        symbols = bit_to_symbol_extrinsic(bits)
        assert np.all(symbols[:, 0] == 0.0)
        # Rank-1 structure: element 3 = element 1 + element 2.
        assert np.allclose(symbols[:, 3], symbols[:, 1] + symbols[:, 2])

    def test_rejects_bad_shapes(self):
        with pytest.raises(DecodingError):
            symbol_to_bit_extrinsic(np.zeros(4))
        with pytest.raises(DecodingError):
            symbol_to_bit_extrinsic(np.zeros((2, 3)))
        with pytest.raises(DecodingError):
            bit_to_symbol_extrinsic(np.zeros(2))
        with pytest.raises(DecodingError):
            bit_to_symbol_extrinsic(np.zeros((2, 3)))

    def test_supported_sizes_exposed(self):
        assert supported_ctc_block_sizes() == tuple(_SIZES)
