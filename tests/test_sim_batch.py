"""Batch-vs-sequential equivalence and unit tests for :mod:`repro.sim`.

The load-bearing property: stacking frames on the batch axis changes
*nothing* — the batched decoders return the same hard bits, the same
iteration counts, the same convergence flags (and the same a-posteriori LLRs
and unsatisfied-check histories) for every frame as that frame decoded alone
in a batch of one, for both schedules, both kernels, with and without early
termination and fixed-point quantisation.

That equivalence says nothing about the arithmetic itself.
:func:`_check_serial_layered` is the independent oracle: the seed's
check-by-check loop over the scalar check kernel, with no edge index, no
layers and no batch axis.  The layer-parallel
batch decoder is pinned to it bit for bit (LLR bit patterns, ``-0.0``
included).  :func:`_check_serial_flooding` does the same for the flooding
decoder's two kernels.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.channel import (
    CHANNEL_LLR_SPEC,
    EXTRINSIC_SPEC,
    AWGNChannel,
    BPSKModulator,
    LLRQuantizer,
    QuantizationSpec,
    ebn0_to_noise_sigma,
)
from repro.errors import ConfigurationError, DecodingError
from repro.ldpc import (
    ParityCheckMatrix,
    wifi_ldpc_code,
    wimax_ldpc_code,
)
from repro.ldpc.checknode import min_sum_check_update
from repro.sim import (
    BatchBCJR,
    BatchDecoder,
    BatchFloodingDecoder,
    BatchLayeredDecoder,
    BatchTurboDecoder,
    BerRunner,
    EdgeIndex,
    min_sum_update,
    resolve_code_rate,
    sum_product_update,
    wilson_interval,
)
from repro.sim.batch import _EXTRINSIC_TABLE, _Q_MAX, extrinsic_table
from repro.turbo import TurboEncoder


def _llr_batch(code, batch: int, ebn0_db: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random codewords and their AWGN channel LLRs, stacked on a batch axis."""
    rng = np.random.default_rng(seed)
    modulator = BPSKModulator()
    channel = AWGNChannel(ebn0_to_noise_sigma(ebn0_db, code.rate), rng)
    info = rng.integers(0, 2, (batch, code.k))
    codewords = code.encode_batch(info)
    received = channel.transmit(modulator.modulate(codewords))
    return codewords, modulator.demodulate_llr(
        received, channel.llr_noise_variance(False)
    )


_CHANNEL_QUANTIZER = LLRQuantizer(CHANNEL_LLR_SPEC)
_EXTRINSIC_QUANTIZER = LLRQuantizer(EXTRINSIC_SPEC)


def _round_trip(quantizer: LLRQuantizer, values: np.ndarray) -> np.ndarray:
    """Quantise through the integer levels the fixed-point memories hold."""
    return quantizer.dequantize(quantizer.quantize(values))


def _check_serial_layered(h, channel_llrs, *, max_iterations, fixed_point,
                          early_termination, update):
    """Check-by-check layered decode of one frame (paper eqs. (6)-(11)).

    ``update`` is the check kernel applied to the ``(d,)`` messages of one
    check.  Returns ``(llrs, iterations, converged, unsatisfied_history)``
    with the batch decoder's semantics: ``converged`` is "was a codeword
    after some iteration" AND a zero final syndrome.
    """
    rows = [h.row(r) for r in range(h.n_rows)]
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    lam = _round_trip(_CHANNEL_QUANTIZER, llrs) if fixed_point else llrs.copy()
    r_messages = [np.zeros(cols.size) for cols in rows]
    history: list[int] = []
    was_codeword = False
    for _ in range(max_iterations):
        for check, cols in enumerate(rows):
            q_values = lam[cols] - r_messages[check]
            r_new = update(q_values)
            if fixed_point:
                r_new = _round_trip(_EXTRINSIC_QUANTIZER, r_new)
            updated = q_values + r_new
            if fixed_point:
                updated = _round_trip(_CHANNEL_QUANTIZER, updated)
            lam[cols] = updated
            r_messages[check] = r_new
        history.append(int(h.syndrome(lam < 0).sum()))
        if history[-1] == 0:
            was_codeword = True
            if early_termination:
                break
    final_weight = int(h.syndrome(lam < 0).sum())
    return lam, len(history), was_codeword and final_weight == 0, history


def _min_sum_check(q_values: np.ndarray) -> np.ndarray:
    return min_sum_check_update(q_values, scaling=0.75)


def _assert_matches_oracle(h, llrs, result, **oracle_kwargs) -> None:
    for frame in range(llrs.shape[0]):
        lam, iterations, converged, history = _check_serial_layered(
            h, llrs[frame], **oracle_kwargs
        )
        assert np.array_equal(result.llrs[frame].view(np.int64), lam.view(np.int64))
        assert int(result.iterations[frame]) == iterations
        assert bool(result.converged[frame]) == converged
        assert result.unsatisfied_history[frame] == history


#: The codes the oracle pins, including two-degree (1152 r2/3B) and
#: non-WiMAX (802.11n) block rows.
_ORACLE_CODES = {
    "wimax576-1/2": lambda: wimax_ldpc_code(576, "1/2"),
    "wimax576-5/6": lambda: wimax_ldpc_code(576, "5/6"),
    "wimax1152-2/3B": lambda: wimax_ldpc_code(1152, "2/3B"),
    "wimax2304-5/6": lambda: wimax_ldpc_code(2304, "5/6"),
    "wifi1944-1/2": lambda: wifi_ldpc_code(1944, "1/2"),
}


def _mixed_snr_llrs(code, seed: int) -> np.ndarray:
    """Four frames from clean to hopeless, so some converge and some do not."""
    rng = np.random.default_rng(seed)
    symbols = 1.0 - 2.0 * code.encode_batch(rng.integers(0, 2, (4, code.k)))
    sigmas = np.array(
        [ebn0_to_noise_sigma(ebn0, code.rate) for ebn0 in (6.0, 3.5, 0.0, -2.0)]
    )[:, None]
    received = symbols + sigmas * rng.standard_normal(symbols.shape)
    return 2.0 * received / sigmas**2


#: Channel LLRs at the quantiser's corners: exact zeros of both signs,
#: half-step ties (0.25 and 0.75 are 0.5 and 1.5 channel steps) and
#: saturating magnitudes.
_EDGE_LLRS = np.array([0.0, -0.0, 0.25, -0.25, 0.75, -0.75, 1e9, -1e9])


def _edge_case_llrs(code, seed: int) -> np.ndarray:
    """The mixed-SNR frames, one of them seeded with the corner LLRs, plus an
    all-corner frame."""
    llrs = _mixed_snr_llrs(code, seed)
    llrs[1, ::9] = np.resize(_EDGE_LLRS, llrs[1, ::9].size)
    return np.vstack([llrs, np.resize(_EDGE_LLRS, code.n)])


#: Decoders whose ``_min_sum_levels`` runs on int16 (widest check 8) and
#: int32 (widest check 300) min-two keys.
_LEVEL_DECODERS = {
    wide: BatchLayeredDecoder(
        ParityCheckMatrix([list(range(degree))], degree), fixed_point=True
    )
    for wide, degree in ((False, 8), (True, 300))
}


class TestLayeredOracle:
    """Layer-parallel decoding == the check-serial schedule, bit for bit."""

    @pytest.mark.parametrize("code_name", sorted(_ORACLE_CODES))
    @pytest.mark.parametrize("fixed_point", [False, True])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_min_sum(self, code_name, fixed_point, early_termination):
        code = _ORACLE_CODES[code_name]()
        llrs = _mixed_snr_llrs(code, seed=17)
        decoder = BatchLayeredDecoder(
            code.h, max_iterations=6, fixed_point=fixed_point,
            early_termination=early_termination,
        )
        result = decoder.decode_batch(llrs)
        # Some frames reach a codeword and some never do.
        assert 0 < sum(0 in h for h in result.unsatisfied_history) < llrs.shape[0]
        _assert_matches_oracle(
            code.h, llrs, result, max_iterations=6, fixed_point=fixed_point,
            early_termination=early_termination, update=_min_sum_check,
        )

    @given(
        rows=st.lists(
            st.sets(st.integers(0, 7), min_size=2, max_size=4), min_size=2, max_size=8
        ),
        seed=st.integers(0, 2**16),
        fixed_point=st.booleans(),
        early_termination=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_non_qc_matrix(self, rows, seed, fixed_point, early_termination):
        assume(any(a & b for a, b in zip(rows, rows[1:])))
        h = ParityCheckMatrix([sorted(row) for row in rows], 8)
        llrs = np.random.default_rng(seed).normal(1.0, 2.0, (3, 8))
        decoder = BatchLayeredDecoder(
            h, max_iterations=4, fixed_point=fixed_point,
            early_termination=early_termination,
        )
        _assert_matches_oracle(
            h, llrs, decoder.decode_batch(llrs), max_iterations=4,
            fixed_point=fixed_point, early_termination=early_termination,
            update=_min_sum_check,
        )

    @pytest.mark.parametrize("code_name", sorted(_ORACLE_CODES))
    def test_fixed_point_min_sum_edge_llrs(self, code_name):
        """Every iteration runs (no early exit), so saturated λ keeps recirculating."""
        code = _ORACLE_CODES[code_name]()
        llrs = _edge_case_llrs(code, seed=17)
        decoder = BatchLayeredDecoder(
            code.h, max_iterations=6, fixed_point=True, early_termination=False
        )
        _assert_matches_oracle(
            code.h, llrs, decoder.decode_batch(llrs), max_iterations=6,
            fixed_point=True, early_termination=False, update=_min_sum_check,
        )

    @pytest.mark.parametrize("code_name", ["wimax576-1/2", "wimax2304-5/6"])
    @pytest.mark.parametrize("batch", [1, 19])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_fixed_point_edge_llrs_at_batch(self, code_name, batch, early_termination):
        """A lone frame and an odd 19-frame batch, both seeded with corner LLRs."""
        code = _ORACLE_CODES[code_name]()
        blocks = np.vstack([_edge_case_llrs(code, seed) for seed in range(17, 21)])
        # Row 1 is the first frame seeded with the corner LLRs.
        llrs = blocks[1 : 1 + batch]
        decoder = BatchLayeredDecoder(
            code.h, max_iterations=6, fixed_point=True, early_termination=early_termination
        )
        _assert_matches_oracle(
            code.h, llrs, decoder.decode_batch(llrs), max_iterations=6,
            fixed_point=True, early_termination=early_termination, update=_min_sum_check,
        )

    def test_fixed_point_min_sum_wide_check(self):
        """A degree-300 check needs int32 min-two keys; still the oracle's result."""
        # Loud LLRs and the degree-2 checks, which move λ between visits of
        # the wide one, push its |Q| = |λ - R| past 63 levels.
        h = ParityCheckMatrix(
            [list(range(300))] + [[c, c + 1] for c in range(0, 300, 2)], 300
        )
        llrs = np.random.default_rng(3).normal(1.0, 40.0, (3, 300))
        llrs[0, :8] = _EDGE_LLRS
        decoder = BatchLayeredDecoder(h, max_iterations=3, fixed_point=True)
        _assert_matches_oracle(
            h, llrs, decoder.decode_batch(llrs), max_iterations=3, fixed_point=True,
            early_termination=True, update=_min_sum_check,
        )

    @given(data=st.data(), wide=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_min_sum_levels_matches_scalar_loop(self, data, wide):
        """``_min_sum_levels`` on degree-major ``(d, z, batch)`` int16 levels ==
        per-check scalar min-sum: min over the other edges, sign product, table.

        ``wide`` runs the same tensors through the int32 min-two keys of a
        decoder whose widest check exceeds degree 256.  A zero Q counts as
        either sign in the scalar loop: the result must not depend on it.
        """
        decoder = _LEVEL_DECODERS[wide]
        d = data.draw(st.integers(2, 8), label="degree")
        z = data.draw(st.integers(1, 4), label="checks")
        batch = data.draw(st.integers(1, 70), label="batch")
        q = data.draw(arrays(np.int16, (d, z, batch), elements=st.integers(-_Q_MAX, _Q_MAX)))
        # Force min1 ties on some checks: edges 0 and 1 both at the minimum.
        tie = data.draw(arrays(np.bool_, (z, batch)))
        smallest = np.abs(q).min(axis=0)
        for edge in (0, 1):
            q[edge] = np.where(tie, np.where(q[edge] < 0, -smallest, smallest), q[edge])
        zero_negative = data.draw(arrays(np.bool_, (d, z, batch)))
        r_new = decoder._min_sum_levels(q.copy())
        assert r_new.dtype == np.int16 and r_new.shape == q.shape
        negative = (q < 0) | ((q == 0) & zero_negative)
        for j in range(z):
            for b in range(batch):
                for i in range(d):
                    others = [k for k in range(d) if k != i]
                    magnitude = int(np.abs(q[others, j, b]).min())
                    sign = -1 if np.count_nonzero(negative[others, j, b]) % 2 else 1
                    assert r_new[i, j, b] == sign * _EXTRINSIC_TABLE[magnitude]

    @given(scaling=st.floats(0.0, 1.0, exclude_min=True))
    @settings(max_examples=80, deadline=None)
    def test_extrinsic_table_is_the_quantised_scaled_magnitude(self, scaling):
        """Entry m == the 5-bit round trip of ``scaling * m`` LLR steps, ties included."""
        table = extrinsic_table(scaling)
        # |Q| = |lambda - R| <= 63 + 2 * 15 channel levels.
        assert table.dtype == np.int16 and table.shape == (94,)
        magnitudes = np.arange(94) * CHANNEL_LLR_SPEC.step
        expected = _round_trip(_EXTRINSIC_QUANTIZER, scaling * magnitudes)
        assert np.array_equal(table * CHANNEL_LLR_SPEC.step, expected)


def _check_serial_flooding(h, channel_llrs, *, max_iterations, early_termination, update):
    """Check-by-check two-phase (flooding) decode of one frame.

    Every check reads the previous iteration's posterior, and each column
    then sums its incoming messages from zero in ascending check order.  Returns
    ``(llrs, iterations, converged, unsatisfied_history)`` with the batch
    decoder's semantics: ``converged`` latches at the first iteration whose
    hard decision is a codeword.
    """
    rows = [h.row(r) for r in range(h.n_rows)]
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    posterior = llrs.copy()
    r_messages = [np.zeros(cols.size) for cols in rows]
    history: list[int] = []
    for _ in range(max_iterations):
        r_messages = [update(posterior[cols] - r) for cols, r in zip(rows, r_messages)]
        incoming: list[list[float]] = [[] for _ in range(h.n_cols)]
        for cols, r_new in zip(rows, r_messages):
            for col, message in zip(cols.tolist(), r_new):
                incoming[col].append(message)
        posterior = llrs + np.array([reduce(add, m, 0.0) for m in incoming])
        history.append(int(h.syndrome(posterior < 0).sum()))
        if history[-1] == 0 and early_termination:
            break
    return posterior, len(history), 0 in history, history


def _sum_product_check(q_values: np.ndarray) -> np.ndarray:
    return sum_product_update(q_values[None, :])[0]


_FLOODING_UPDATES = {"min-sum": _min_sum_check, "sum-product": _sum_product_check}


def _assert_matches_flooding_oracle(h, llrs, result, **oracle_kwargs) -> None:
    for frame in range(llrs.shape[0]):
        posterior, iterations, converged, history = _check_serial_flooding(
            h, llrs[frame], **oracle_kwargs
        )
        assert np.array_equal(result.llrs[frame].view(np.int64), posterior.view(np.int64))
        assert int(result.iterations[frame]) == iterations
        assert bool(result.converged[frame]) == converged
        assert result.unsatisfied_history[frame] == history
        assert int(result.syndrome_weights[frame]) == int(h.syndrome(posterior < 0).sum())


class TestFloodingOracle:
    """Edge-parallel flooding == the check-serial two-phase schedule, bit for bit.

    Only this scalar oracle witnesses either kernel's arithmetic: the
    batch ≡ batch=1 tests run the same code on both sides.
    """

    @pytest.mark.parametrize("code_name", sorted(_ORACLE_CODES))
    @pytest.mark.parametrize("kernel", ["min-sum", "sum-product"])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_flooding(self, code_name, kernel, early_termination):
        code = _ORACLE_CODES[code_name]()
        llrs = _mixed_snr_llrs(code, seed=29)
        decoder = BatchFloodingDecoder(
            code.h, max_iterations=6, kernel=kernel, early_termination=early_termination
        )
        result = decoder.decode_batch(llrs)
        # Some frames reach a codeword and some never do.
        assert 0 < sum(0 in h for h in result.unsatisfied_history) < llrs.shape[0]
        _assert_matches_flooding_oracle(
            code.h, llrs, result, max_iterations=6,
            early_termination=early_termination, update=_FLOODING_UPDATES[kernel],
        )

    @pytest.mark.parametrize("code_name", sorted(_ORACLE_CODES))
    @pytest.mark.parametrize("kernel", ["min-sum", "sum-product"])
    def test_edge_llrs(self, code_name, kernel):
        """Signed zeros and ±1e9 LLRs (clipped by sum-product) run every iteration."""
        code = _ORACLE_CODES[code_name]()
        llrs = _edge_case_llrs(code, seed=17)
        decoder = BatchFloodingDecoder(
            code.h, max_iterations=6, kernel=kernel, early_termination=False
        )
        _assert_matches_flooding_oracle(
            code.h, llrs, decoder.decode_batch(llrs), max_iterations=6,
            early_termination=False, update=_FLOODING_UPDATES[kernel],
        )

    @pytest.mark.parametrize("kernel", ["min-sum", "sum-product"])
    def test_wide_check(self, kernel):
        """A degree-300 check next to degree-2 ones: two check groups, one pass."""
        h = ParityCheckMatrix(
            [list(range(300))] + [[c, c + 1] for c in range(0, 300, 2)], 300
        )
        llrs = np.random.default_rng(3).normal(1.0, 4.0, (3, 300))
        llrs[0, :8] = _EDGE_LLRS
        decoder = BatchFloodingDecoder(h, max_iterations=3, kernel=kernel)
        _assert_matches_flooding_oracle(
            h, llrs, decoder.decode_batch(llrs), max_iterations=3,
            early_termination=True, update=_FLOODING_UPDATES[kernel],
        )

    @pytest.mark.parametrize("kernel", ["min-sum", "sum-product"])
    @given(
        rows=st.lists(
            st.sets(st.integers(0, 7), min_size=2, max_size=4), min_size=2, max_size=8
        ),
        seed=st.integers(0, 2**16),
        early_termination=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_non_qc_matrix(self, kernel, rows, seed, early_termination):
        h = ParityCheckMatrix([sorted(row) for row in rows], 8)
        llrs = np.random.default_rng(seed).normal(1.0, 2.0, (3, 8))
        decoder = BatchFloodingDecoder(
            h, max_iterations=4, kernel=kernel, early_termination=early_termination
        )
        _assert_matches_flooding_oracle(
            h, llrs, decoder.decode_batch(llrs), max_iterations=4,
            early_termination=early_termination, update=_FLOODING_UPDATES[kernel],
        )


_LDPC_DECODERS = (BatchLayeredDecoder, BatchFloodingDecoder)

#: Constructor options with values each LDPC decoder must reject: counts are
#: ints, and flags are bools (``"no"`` is truthy, never a switched-off flag).
_BAD_LDPC_OPTIONS = (
    [(cls, "max_iterations", value) for cls in _LDPC_DECODERS for value in (0.5, 2.5, True, "3")]
    + [
        (BatchLayeredDecoder, "fixed_point", value)
        for value in ("no", "yes", 1, None, np.array([1, 0]))
    ]
    + [(cls, "early_termination", value) for cls in _LDPC_DECODERS for value in ("false", 0)]
)


class TestIterationValidation:
    @pytest.mark.parametrize(
        "decoder_cls, option, value",
        _BAD_LDPC_OPTIONS,
        ids=[f"{cls.__name__}-{option}-{value!r}" for cls, option, value in _BAD_LDPC_OPTIONS],
    )
    def test_batch_constructors_reject_bad_options(
        self, small_ldpc_code, decoder_cls, option, value
    ):
        with pytest.raises(DecodingError, match=option):
            decoder_cls(small_ldpc_code.h, **{option: value})
        # NumPy booleans are flags too, stored as plain bools.
        decoder = decoder_cls(small_ldpc_code.h, early_termination=np.bool_(False))
        assert decoder.early_termination is False


#: Every option the decoders take at construction, with a value to try
#: assigning afterwards.  ``scaling`` and ``extrinsic_scale`` are no options
#: at all (sigma is a constant), so assigning them must not create a silently
#: ignored attribute.
_SET_ONCE_OPTIONS = [
    (BatchLayeredDecoder, "max_iterations", 0),
    (BatchLayeredDecoder, "scaling", 0.8),
    (BatchLayeredDecoder, "fixed_point", "yes"),
    (BatchLayeredDecoder, "early_termination", False),
    (BatchFloodingDecoder, "max_iterations", 3),
    (BatchFloodingDecoder, "kernel", "bogus"),
    (BatchFloodingDecoder, "scaling", 0.8),
    (BatchFloodingDecoder, "early_termination", False),
    (BatchTurboDecoder, "encoder", None),
    (BatchTurboDecoder, "max_iterations", -3),
    (BatchTurboDecoder, "extrinsic_scale", 0.5),
    (BatchTurboDecoder, "bit_level_exchange", True),
    (BatchTurboDecoder, "early_termination", False),
    (BatchBCJR, "trellis", None),
]


@pytest.mark.parametrize(
    "decoder_cls, option, value",
    _SET_ONCE_OPTIONS,
    ids=[f"{cls.__name__}-{option}" for cls, option, _ in _SET_ONCE_OPTIONS],
)
def test_options_are_set_once(
    small_ldpc_code, small_turbo_encoder, decoder_cls, option, value
):
    """A decoder is configured at construction only: assigning an option raises."""
    if decoder_cls is BatchBCJR:
        decoder = BatchBCJR()
    elif decoder_cls is BatchTurboDecoder:
        decoder = BatchTurboDecoder(small_turbo_encoder)
    else:
        decoder = decoder_cls(small_ldpc_code.h)
    before = getattr(decoder, option, None)
    with pytest.raises(AttributeError):
        setattr(decoder, option, value)
    assert getattr(decoder, option, None) is before


def _assert_row_matches_alone(result, frame: int, alone) -> None:
    """Row ``frame`` of a stacked decode equals the one-frame decode ``alone``."""
    assert alone.batch_size == 1
    assert np.array_equal(result.hard_bits[frame], alone.hard_bits[0])
    assert np.array_equal(_bits(result.llrs[frame]), _bits(alone.llrs[0]))
    assert result.iterations[frame] == alone.iterations[0]
    assert result.converged[frame] == alone.converged[0]
    assert result.syndrome_weights[frame] == alone.syndrome_weights[0]
    assert result.unsatisfied_history[frame] == alone.unsatisfied_history[0]


class TestBatchSequentialEquivalence:
    """The tentpole property: batch == each frame decoded alone, field for field."""

    @pytest.mark.parametrize("kernel", ["sum-product", "min-sum"])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_flooding_schedule(self, small_ldpc_code, kernel, early_termination):
        # 1.4 dB leaves a mix of converging and non-converging frames.
        _, llrs = _llr_batch(small_ldpc_code, 6, ebn0_db=1.4, seed=11)
        decoder = BatchFloodingDecoder(
            small_ldpc_code.h,
            max_iterations=8,
            kernel=kernel,
            early_termination=early_termination,
        )
        result = decoder.decode_batch(llrs)
        assert 0 < result.converged.sum() < llrs.shape[0]
        for frame in range(llrs.shape[0]):
            _assert_row_matches_alone(result, frame, decoder.decode_batch(llrs[frame][None]))

    @pytest.mark.parametrize("fixed_point", [False, True])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_layered_schedule(self, small_ldpc_code, fixed_point, early_termination):
        _, llrs = _llr_batch(small_ldpc_code, 6, ebn0_db=1.2, seed=23)
        decoder = BatchLayeredDecoder(
            small_ldpc_code.h,
            max_iterations=8,
            fixed_point=fixed_point,
            early_termination=early_termination,
        )
        result = decoder.decode_batch(llrs)
        assert 0 < result.converged.sum() < llrs.shape[0]
        for frame in range(llrs.shape[0]):
            _assert_row_matches_alone(result, frame, decoder.decode_batch(llrs[frame][None]))

    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_layered_rejects_single_edge_check(self, fixed_point):
        decoder = BatchLayeredDecoder(
            ParityCheckMatrix([[0], [0, 1]], 2), fixed_point=fixed_point
        )
        with pytest.raises(DecodingError, match="at least two edge messages"):
            decoder.decode_batch(np.ones((1, 2)))

    @pytest.mark.parametrize("kernel", ["min-sum", "sum-product"])
    def test_flooding_rejects_single_edge_check(self, kernel):
        decoder = BatchFloodingDecoder(ParityCheckMatrix([[0], [0, 1]], 2), kernel=kernel)
        with pytest.raises(DecodingError, match="at least two edge messages"):
            decoder.decode_batch(np.ones((1, 2)))

    def test_both_decoders_satisfy_protocol(self, small_ldpc_code):
        assert isinstance(BatchFloodingDecoder(small_ldpc_code.h), BatchDecoder)
        assert isinstance(BatchLayeredDecoder(small_ldpc_code.h), BatchDecoder)

    def test_rejects_wrong_shape(self, small_ldpc_code):
        decoder = BatchFloodingDecoder(small_ldpc_code.h)
        with pytest.raises(DecodingError):
            decoder.decode_batch(np.zeros(small_ldpc_code.n))
        with pytest.raises(DecodingError):
            decoder.decode_batch(np.zeros((2, small_ldpc_code.n + 1)))


#: Min-sum inputs: random LLRs, integer-valued LLRs (tied non-zero minima)
#: and the signed zeros / denormal-scale magnitudes of the sign convention.
_MIN_SUM_LLRS = st.one_of(
    st.floats(-12.0, 12.0),
    st.floats(-12.0, 12.0).map(lambda v: float(np.round(v))),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
)


def _bits(values: np.ndarray) -> np.ndarray:
    """IEEE-754 bit patterns, so ``-0.0`` and ``0.0`` compare unequal."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


class TestKernels:
    @given(st.lists(_MIN_SUM_LLRS, min_size=2, max_size=9), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_min_sum_matches_scalar_reference(self, values, batch):
        """Batched min-sum equals the scalar MEU arithmetic on every row."""
        q = np.tile(np.array(values, dtype=np.float64), (batch, 1))
        out = min_sum_update(q, scaling=0.75)
        reference = min_sum_check_update(np.array(values), scaling=0.75)
        for row in range(batch):
            assert np.array_equal(_bits(out[row]), _bits(reference))

    @pytest.mark.parametrize("scaling", [0.5, 0.625, 0.8, 0.875, 1.0])
    def test_min_sum_scaling_matches_scalar_reference(self, scaling):
        """The kernel's sigma argument: every edge equals the scalar update bitwise."""
        q = np.random.default_rng(5).normal(0.0, 6.0, (4, 7))
        q[0, :4] = [0.0, -0.0, 1e9, -1e9]
        out = min_sum_update(q, scaling=scaling)
        for row in range(q.shape[0]):
            reference = min_sum_check_update(q[row], scaling=scaling)
            assert np.array_equal(_bits(out[row]), _bits(reference))

    def test_min_sum_negative_zero_regression(self):
        """``-0.0`` counts as negative (signbit convention)."""
        q = np.array([-0.0, 3.0, 5.0])
        reference = min_sum_check_update(q)
        # Edges 1 and 2 see min magnitude 0.0 with a negative sign product:
        # the flip survives only in the sign bit (-0.0), which an ``arr < 0``
        # sign test would lose.
        assert np.signbit(reference[1]) and np.signbit(reference[2])
        assert np.array_equal(_bits(min_sum_update(q)), _bits(reference))

    @given(st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_sum_product_leave_one_out(self, values):
        """Each output must equal 2*atanh of the product of the *other* tanh."""
        q = np.array(values, dtype=np.float64)
        out = sum_product_update(q[None, :])[0]
        tanh_half = np.tanh(np.clip(q, -30, 30) / 2.0)
        for k in range(q.size):
            others = np.prod(np.delete(tanh_half, k))
            expected = 2.0 * np.arctanh(np.clip(others, -0.999999999999, 0.999999999999))
            assert out[k] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_sum_product_stable_at_zero_message(self):
        """A zero message must not trip division-by-zero (the seed's O(d^2) case)."""
        q = np.array([0.0, 3.0, -2.0, 0.0])
        out = sum_product_update(q[None, :])[0]
        assert np.isfinite(out).all()
        # Edges other than the zero ones see a zero factor -> zero message.
        assert out[1] == 0.0 and out[2] == 0.0

    def test_rejects_single_edge(self):
        with pytest.raises(DecodingError):
            min_sum_update(np.zeros((3, 1)))
        with pytest.raises(DecodingError):
            sum_product_update(np.zeros((3, 1)))


class TestEdgeIndex:
    def test_unsatisfied_counts_match_syndrome(self, small_ldpc_code, rng):
        edges = EdgeIndex(small_ldpc_code.h)
        words = rng.integers(0, 2, (5, small_ldpc_code.n))
        counts = edges.unsatisfied_counts(words)
        for frame in range(words.shape[0]):
            assert counts[frame] == int(small_ldpc_code.h.syndrome(words[frame]).sum())

    def test_accumulate_columns_is_batch_invariant(self, rng):
        """802.11n columns have degree 11: a frame sums the same alone or stacked."""
        edges = EdgeIndex(wifi_ldpc_code(1944, "1/2").h)
        values = rng.normal(0.0, 10.0, (4, edges.n_edges))
        accumulated = edges.accumulate_columns(values)
        for frame in range(values.shape[0]):
            alone = edges.accumulate_columns(values[frame : frame + 1])[0]
            assert np.array_equal(alone.view(np.int64), accumulated[frame].view(np.int64))

    def test_accumulate_columns_matches_rowwise_scatter(self, small_ldpc_code, rng):
        edges = EdgeIndex(small_ldpc_code.h)
        values = rng.normal(size=(3, edges.n_edges))
        accumulated = edges.accumulate_columns(values)
        expected = np.zeros((3, edges.n_cols))
        for frame in range(3):
            for row in range(edges.n_rows):
                span = slice(edges.row_ptr[row], edges.row_ptr[row + 1])
                expected[frame, small_ldpc_code.h.row(row)] += values[frame, span]
        assert np.allclose(accumulated, expected)

    def test_group_shapes_cover_every_edge(self, small_ldpc_code):
        edges = EdgeIndex(small_ldpc_code.h)
        check_edges = np.concatenate([g.edges.ravel() for g in edges.check_groups])
        variable_edges = np.concatenate([g.edges.ravel() for g in edges.variable_groups])
        assert np.array_equal(np.sort(check_edges), np.arange(edges.n_edges))
        assert np.array_equal(np.sort(variable_edges), np.arange(edges.n_edges))


    @given(
        bits=arrays(np.bool_, st.tuples(st.integers(1, 20), st.just(576))),
        dtype=st.sampled_from([np.bool_, np.int8, np.int64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_unsatisfied_counts_property(self, small_ldpc_code, bits, dtype):
        """Every hard-bit dtype and layout the decoders pass counts like
        ``h.syndrome``, frames-first or variable-major.

        Batches of 1-20 frames cross the byte-lane word sizes and the 8- and
        16-frame padding; the strided views and the ``int8`` words holding
        -1 (odd, like 1) must count the same as the contiguous 0/1 words.
        """
        edges = EdgeIndex(small_ldpc_code.h)
        batch = bits.shape[0]
        words = bits.astype(dtype)
        counts = edges.unsatisfied_counts(words)
        assert counts.dtype == np.int64
        assert counts.shape == (batch,)
        for frame, word in enumerate(bits):
            assert counts[frame] == int(small_ldpc_code.h.syndrome(word).sum())
        variable_major = np.ascontiguousarray(words.T)
        assert np.array_equal(edges.unsatisfied_counts(variable_major, axis=0), counts)
        # A .T view of a variable-major array, read frames-first.
        assert np.array_equal(edges.unsatisfied_counts(variable_major.T, axis=-1), counts)
        # A column slice of a wider variable-major array.
        wide = np.zeros((words.shape[1], 2 * batch + 1), dtype=dtype)
        wide[:, 1::2] = words.T
        assert np.array_equal(edges.unsatisfied_counts(wide[:, 1::2], axis=0), counts)
        assert np.array_equal(edges.unsatisfied_counts(-bits.astype(np.int8)), counts)


class TestLayers:
    @pytest.mark.parametrize(
        "n, rate, n_layers, size",
        [(576, "1/2", 12, 24), (2304, "5/6", 4, 96), (1152, "2/3B", 8, 48)],
    )
    def test_wimax_block_rows(self, n, rate, n_layers, size):
        layers = EdgeIndex(wimax_ldpc_code(n, rate).h).layers()
        assert len(layers) == n_layers
        assert all(len(layer.rows) == size for layer in layers)

    @given(
        rows=st.lists(
            st.sets(st.integers(0, 9), min_size=2, max_size=4), min_size=1, max_size=12
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_layers_partition_checks_greedily(self, rows):
        h = ParityCheckMatrix([sorted(row) for row in rows], 10)
        edges = EdgeIndex(h)
        layers = edges.layers()
        assert [r for layer in layers for r in layer.rows] == list(range(len(rows)))
        for layer in layers:
            assert layer.edges == slice(
                int(edges.row_ptr[layer.rows.start]), int(edges.row_ptr[layer.rows.stop])
            )
            assert np.unique(layer.cols).size == layer.cols.size
            # Degree-major: one column of ``cols`` per check.
            assert layer.cols.shape == (len(rows[layer.rows.start]), len(layer.rows))
            for i, row in enumerate(layer.rows):
                assert np.array_equal(layer.cols[:, i], h.row(row))
        # Greedy: each layer starts where its first check could not join the
        # previous one.
        for before, layer in zip(layers, layers[1:]):
            first = set(rows[layer.rows.start])
            assert len(first) != before.cols.shape[0] or first & set(
                before.cols.ravel().tolist()
            )

    def test_chained_rows_are_singletons(self):
        h = ParityCheckMatrix([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
        layers = EdgeIndex(h).layers()
        assert [len(layer.rows) for layer in layers] == [1, 1, 1, 1]

    def test_degree_change_splits_disjoint_rows(self):
        h = ParityCheckMatrix([[0, 1], [2, 3], [4, 5, 6]], 7)
        assert [len(layer.rows) for layer in EdgeIndex(h).layers()] == [2, 1]


class TestEncodeBatch:
    def test_matches_per_frame_encode(self, small_ldpc_code, rng):
        """``encode`` is a batch of one; this pins the shapes and dtypes of
        both entry points (``TestEncoderProductOracle`` pins the values)."""
        info = rng.integers(0, 2, (4, small_ldpc_code.k))
        batch = small_ldpc_code.encode_batch(info)
        assert batch.shape == (4, small_ldpc_code.n) and batch.dtype == np.int8
        for frame in range(4):
            single = small_ldpc_code.encode(info[frame])
            assert single.shape == (small_ldpc_code.n,) and single.dtype == np.int8
            assert np.array_equal(batch[frame], single)

    def test_rejects_wrong_shape(self, small_ldpc_code):
        from repro.errors import CodeDefinitionError

        with pytest.raises(CodeDefinitionError):
            small_ldpc_code.encode_batch(np.zeros((2, small_ldpc_code.k + 1), dtype=int))


class TestWilsonInterval:
    @given(st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_contains_point_estimate_and_is_ordered(self, errors, extra):
        trials = errors + extra
        lower, upper = wilson_interval(errors, trials)
        assert 0.0 <= lower <= upper <= 1.0
        if trials:
            assert lower <= errors / trials <= upper

    def test_zero_errors_has_zero_lower_bound(self):
        lower, upper = wilson_interval(0, 1000)
        assert lower == 0.0
        assert 0.0 < upper < 0.01

    def test_narrows_with_trials(self):
        wide = wilson_interval(5, 50)
        narrow = wilson_interval(500, 5000)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 4)
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 10, confidence=0.5)


class TestBerRunner:
    def test_runs_and_is_reproducible(self, small_ldpc_code):
        def build():
            return BerRunner(
                small_ldpc_code,
                BatchLayeredDecoder(small_ldpc_code.h, max_iterations=10),
                batch_size=16,
                max_frames=48,
                target_frame_errors=None,
                seed=3,
            )

        first = build().run_point(2.0)
        second = build().run_point(2.0)
        assert first.frames == 48
        assert first.total_bits == 48 * small_ldpc_code.n
        assert first.bit_errors == second.bit_errors
        assert first.frame_errors == second.frame_errors
        assert first.ber_interval[0] <= first.ber <= first.ber_interval[1]

    def test_error_target_stops_early(self, small_ldpc_code):
        runner = BerRunner(
            small_ldpc_code,
            BatchLayeredDecoder(small_ldpc_code.h, max_iterations=4),
            batch_size=8,
            max_frames=4096,
            target_frame_errors=3,
            seed=0,
        )
        point = runner.run_point(0.0)  # noisy enough that errors come fast
        assert point.frame_errors >= 3
        assert point.frames < 4096

    def test_sweep_returns_one_point_per_ebn0(self, small_ldpc_code):
        runner = BerRunner(
            small_ldpc_code,
            BatchFloodingDecoder(small_ldpc_code.h, max_iterations=5, kernel="min-sum"),
            batch_size=8,
            max_frames=8,
            target_frame_errors=None,
        )
        points = runner.run([1.0, 2.0])
        assert [p.ebn0_db for p in points] == [1.0, 2.0]

    @pytest.mark.parametrize(
        "argument",
        [
            {"batch_size": 2.5},
            {"batch_size": True},
            {"batch_size": 0},
            {"max_frames": 3.7},
            {"max_frames": False},
            {"max_frames": 0},
            {"target_frame_errors": 2.5},
            {"target_frame_errors": True},
            {"target_frame_errors": 0},
            {"seed": 1.5},
            {"seed": True},
            {"seed": -1},
            {"confidence": 0.8},
            {"confidence": "0.95"},
        ],
        ids=lambda argument: "{}={!r}".format(*next(iter(argument.items()))),
    )
    def test_rejects_invalid_arguments_at_construction(self, small_ldpc_code, argument):
        with pytest.raises(ConfigurationError):
            BerRunner(small_ldpc_code, BatchLayeredDecoder(small_ldpc_code.h), **argument)

    def test_accepts_numpy_integers(self, small_ldpc_code):
        runner = BerRunner(
            small_ldpc_code,
            BatchLayeredDecoder(small_ldpc_code.h),
            batch_size=np.int64(8),
            max_frames=np.int32(16),
            target_frame_errors=None,
            seed=np.uint32(7),
        )
        assert (runner.batch_size, runner.max_frames, runner.seed) == (8, 16, 7)

    def test_rejects_mismatched_decoder(self, small_ldpc_code):
        other = wimax_ldpc_code(672, "1/2")
        with pytest.raises(ConfigurationError):
            BerRunner(
                small_ldpc_code,
                BatchLayeredDecoder(other.h),
            )
        with pytest.raises(ConfigurationError):
            BerRunner(
                small_ldpc_code,
                BatchLayeredDecoder(small_ldpc_code.h),
                batch_size=0,
            )

    def test_unknown_channel_name_rejected(self, small_ldpc_code):
        decoder = BatchLayeredDecoder(small_ldpc_code.h)
        with pytest.raises(ConfigurationError, match="rician"):
            BerRunner(small_ldpc_code, decoder, channel="rician")
        with pytest.raises(ConfigurationError):
            BerRunner(small_ldpc_code, decoder, channel=123)  # type: ignore[arg-type]

    def test_custom_channel_factory_accepted(self, small_ldpc_code):
        # Wrappers (timing proxies, say) pass the channel as a factory.
        def point(channel):
            return BerRunner(
                small_ldpc_code,
                BatchLayeredDecoder(small_ldpc_code.h, max_iterations=10),
                channel=channel,
                batch_size=16,
                max_frames=16,
                target_frame_errors=None,
                seed=0,
            ).run_point(2.0)

        custom = point(lambda sigma, rng: AWGNChannel(sigma, rng))
        assert custom == point("awgn")


class TestFixedPointScenarios:
    THRESHOLD = 2e-4
    GRID = (2.0, 2.25, 2.5, 2.75, 3.0)

    @staticmethod
    def _crossing(points, threshold):
        """First grid Eb/N0 from which BER stays at or below ``threshold``."""
        for index, point in enumerate(points):
            if all(later.ber <= threshold for later in points[index:]):
                return point.ebn0_db
        return None

    def test_quantized_within_half_db_of_float(self, small_ldpc_code):
        # The paper's fixed-point datapath (7/1 channel LLRs through the
        # runner's quantiser, 5/0 extrinsics) costs at most 0.5 dB against
        # float at the BER~1e-4 crossing of a reduced sweep.
        def sweep(decoder, llr_quantizer=None):
            return BerRunner(
                small_ldpc_code,
                decoder,
                llr_quantizer=llr_quantizer,
                batch_size=64,
                max_frames=384,
                target_frame_errors=None,
                seed=11,
            ).run(self.GRID)

        h = small_ldpc_code.h
        float_points = sweep(BatchLayeredDecoder(h, max_iterations=10))
        fixed_points = sweep(
            BatchLayeredDecoder(h, max_iterations=10, fixed_point=True),
            LLRQuantizer(CHANNEL_LLR_SPEC),
        )
        float_crossing = self._crossing(float_points, self.THRESHOLD)
        fixed_crossing = self._crossing(fixed_points, self.THRESHOLD)
        assert float_crossing is not None, "float sweep never reached BER~1e-4"
        assert fixed_crossing is not None, "fixed-point sweep never reached BER~1e-4"
        assert fixed_crossing - float_crossing <= 0.5 + 1e-9

    def test_runner_counts_match_hand_built_chain(self, small_ldpc_code):
        # Rebuild the runner's fixed-point chain by hand on the same seed
        # tree (two batches): bits -> encode -> BPSK -> AWGN -> demap ->
        # 7-bit quantiser -> fixed-point layered decode.
        decoder = BatchLayeredDecoder(small_ldpc_code.h, max_iterations=10, fixed_point=True)
        quantizer = LLRQuantizer(CHANNEL_LLR_SPEC)
        runner = BerRunner(
            small_ldpc_code,
            decoder,
            llr_quantizer=quantizer,
            batch_size=8,
            max_frames=16,
            target_frame_errors=None,
            seed=9,
        )
        point = runner.run_point(1.5)
        modulator = BPSKModulator()
        sigma = ebn0_to_noise_sigma(1.5, 0.5)
        bit_errors = frame_errors = iterations = 0
        for child in runner._point_seed_sequence(1.5).spawn(2):
            rng = np.random.default_rng(child)
            codewords = small_ldpc_code.encode_batch(
                rng.integers(0, 2, size=(8, small_ldpc_code.k))
            )
            channel = AWGNChannel(sigma, rng)
            received = channel.transmit(modulator.modulate(codewords))
            llrs = modulator.demodulate_llr(received, channel.llr_noise_variance(False))
            result = decoder.decode_batch(quantizer.quantize_to_real(llrs))
            errors = np.count_nonzero(np.asarray(result.hard_bits) != codewords, axis=1)
            bit_errors += int(errors.sum())
            frame_errors += int(np.count_nonzero(errors))
            iterations += int(result.iterations.sum())
        assert bit_errors > 0, "the point should carry errors to compare"
        assert (point.bit_errors, point.frame_errors) == (bit_errors, frame_errors)
        assert point.avg_iterations == iterations / 16

    def test_runner_quantizes_turbo_llrs(self):
        encoder = TurboEncoder(n_couples=24)
        point = BerRunner(
            encoder,
            BatchTurboDecoder(encoder, max_iterations=4),
            llr_quantizer=LLRQuantizer(CHANNEL_LLR_SPEC),
            batch_size=8,
            max_frames=8,
            target_frame_errors=None,
            seed=1,
        ).run_point(2.0)
        assert point.total_bits == 8 * encoder.k

    def test_runner_quantization_actually_bites(self, small_ldpc_code):
        # A coarse 3-bit quantiser saturates at +-3: the decoder must see
        # only its levels, not the float channel LLRs.
        seen = []
        layered = BatchLayeredDecoder(small_ldpc_code.h, max_iterations=10)

        class Recording:
            n_bits = small_ldpc_code.n

            def decode_batch(self, llrs):
                seen.append(llrs)
                return layered.decode_batch(llrs)

        quantizer = LLRQuantizer(QuantizationSpec(3, 0))
        BerRunner(
            small_ldpc_code,
            Recording(),
            llr_quantizer=quantizer,
            batch_size=8,
            max_frames=8,
            target_frame_errors=None,
            seed=2,
        ).run_point(1.5)
        (llrs,) = seen
        assert set(np.unique(llrs)) <= {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}
        assert np.abs(llrs).max() == 3.0

    def test_runner_rejects_bad_quantizer(self, small_ldpc_code):
        with pytest.raises(ConfigurationError):
            BerRunner(
                small_ldpc_code,
                BatchLayeredDecoder(small_ldpc_code.h),
                llr_quantizer="7bits",  # type: ignore[arg-type]
            )


class TestResolveCodeRateValidation:
    def test_rejects_out_of_range_rates(self):
        # Regression: "5/4" (=1.25) and negative fractions used to parse
        # fine and only blow up later inside ebn0_to_noise_sigma.
        for bad in ("5/4", "-1/2", 1.25, -0.5, 0.0, "0"):
            with pytest.raises(ConfigurationError):
                resolve_code_rate(bad)

    def test_accepts_boundary_and_interior(self):
        assert resolve_code_rate(1.0) == pytest.approx(1.0)
        assert resolve_code_rate("5/6") == pytest.approx(5 / 6)
