"""Batch-vs-sequential equivalence tests for :mod:`repro.sim.turbo_batch`.

The load-bearing properties, mirroring ``tests/test_sim_batch.py`` for the
LDPC engine:

* the batched BCJR is *bit-identical* to the seed repository's per-frame
  recursion (a straight port of which is kept below as the pinning
  reference) for both max* flavours, including extrinsics and the circular
  state metrics,
* stacking frames on the batch axis changes nothing — the batched turbo
  decoder returns the same hard bits, iteration counts, convergence flags
  and decision-change histories as the per-frame ``decode`` for every frame,
  for both algorithms, both extrinsic-exchange modes, with and without early
  termination, and for any batch split,
* ``TurboEncoder.encode_batch`` equals looped per-frame ``encode``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.errors import CodeDefinitionError, ConfigurationError, DecodingError
from repro.sim import (
    BatchBCJR,
    BatchDecoder,
    BatchTurboDecoder,
    BerRunner,
    resolve_code_rate,
)
from repro.sim.turbo_batch import _CHUNK
from repro.turbo import BCJRDecoder, DuoBinaryTrellis, TurboDecoder, TurboEncoder

_NEG_INF = -1.0e30


class _SeedBCJR:
    """Straight port of the seed repository's per-frame BCJR recursion.

    Kept verbatim (same scatter/reduce order, same normalisations) as the
    reference the vectorised kernel must reproduce bit-for-bit.
    """

    def __init__(self, algorithm: str = "max-log", extrinsic_scale: float = 0.75):
        trellis = DuoBinaryTrellis()
        self.algorithm = algorithm
        self.extrinsic_scale = 1.0 if algorithm == "log-map" else float(extrinsic_scale)
        self._next_state = trellis.next_state_table()
        self._parity = trellis.parity_table()
        symbols = np.arange(4)
        self._sym_a = (symbols >> 1) & 1
        self._sym_b = symbols & 1

    def _maxstar_reduce(self, values, axis):
        if self.algorithm == "max-log":
            return values.max(axis=axis)
        return np.log(
            np.sum(np.exp(values - values.max(axis=axis, keepdims=True)), axis=axis)
        ) + values.max(axis=axis)

    def _scatter_logsumexp(self, indices, values):
        result = np.full(8, _NEG_INF)
        for state in range(8):
            group = values[indices == state]
            if group.size:
                peak = group.max()
                result[state] = peak + np.log(np.exp(group - peak).sum())
        return result

    def decode(self, sys_llrs, par_llrs, apriori=None, initial_alpha=None, initial_beta=None):
        n = sys_llrs.shape[0]
        apriori = np.zeros((n, 4)) if apriori is None else np.asarray(apriori, float)
        sys_metric = 0.5 * (
            (1 - 2 * self._sym_a)[None, :] * sys_llrs[:, 0:1]
            + (1 - 2 * self._sym_b)[None, :] * sys_llrs[:, 1:2]
        )
        y_bits = self._parity[:, :, 0]
        w_bits = self._parity[:, :, 1]
        par_metric = 0.5 * (
            (1 - 2 * y_bits)[None, :, :] * par_llrs[:, 0][:, None, None]
            + (1 - 2 * w_bits)[None, :, :] * par_llrs[:, 1][:, None, None]
        )
        gamma = par_metric + sys_metric[:, None, :] + apriori[:, None, :]

        def norm(init):
            if init is None:
                return np.zeros(8)
            arr = np.asarray(init, float)
            return arr - arr.max()

        alpha = np.zeros((n + 1, 8))
        beta = np.zeros((n + 1, 8))
        alpha[0] = norm(initial_alpha)
        beta[n] = norm(initial_beta)
        next_flat = self._next_state.reshape(-1)
        for k in range(n):
            candidates = (alpha[k][:, None] + gamma[k]).reshape(-1)
            new_alpha = np.full(8, _NEG_INF)
            if self.algorithm == "max-log":
                np.maximum.at(new_alpha, next_flat, candidates)
            else:
                new_alpha = self._scatter_logsumexp(next_flat, candidates)
            new_alpha -= new_alpha.max()
            alpha[k + 1] = new_alpha
        for k in range(n - 1, -1, -1):
            incoming = beta[k + 1][self._next_state] + gamma[k]
            new_beta = self._maxstar_reduce(incoming, axis=1)
            new_beta -= new_beta.max()
            beta[k] = new_beta

        b_metric = alpha[:-1][:, :, None] + gamma + beta[1:][
            np.arange(n)[:, None, None], self._next_state[None, :, :]
        ]
        apo_raw = self._maxstar_reduce(b_metric, axis=1)
        apo = apo_raw - apo_raw[:, 0:1]
        sys_diff = sys_metric - sys_metric[:, 0:1]
        apr_diff = apriori - apriori[:, 0:1]
        extrinsic = self.extrinsic_scale * (apo - sys_diff - apr_diff)
        hard = np.argmax(apo, axis=1).astype(np.int64)
        return apo, extrinsic, hard, alpha[n].copy(), beta[0].copy()


def _turbo_llr_batch(
    encoder: TurboEncoder, batch: int, ebn0_db: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random info bits, their codewords and flat AWGN channel LLRs."""
    rng = np.random.default_rng(seed)
    modulator = BPSKModulator()
    channel = AWGNChannel(
        ebn0_to_noise_sigma(ebn0_db, resolve_code_rate(encoder.rate)), rng
    )
    info = rng.integers(0, 2, (batch, encoder.k))
    codewords = encoder.encode_batch(info)
    received = channel.transmit(modulator.modulate(codewords))
    return info, codewords, modulator.demodulate_llr(
        received, channel.llr_noise_variance(False)
    )


class TestBCJRPinnedToSeedReference:
    """The vectorised kernel reproduces the seed recursion bit-for-bit."""

    @pytest.mark.parametrize("algorithm", ["max-log", "log-map"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    # The fused recursion gathers branch metrics _CHUNK steps at a time, so
    # pin lengths on both sides of every chunk edge.
    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 48])
    def test_bit_identical_including_extrinsics_and_state_metrics(self, algorithm, seed, n):
        rng = np.random.default_rng(seed)
        sys_llrs = rng.normal(0.0, 4.0, (n, 2))
        par_llrs = rng.normal(0.0, 4.0, (n, 2))
        par_llrs[rng.random((n, 2)) < 0.3] = 0.0  # punctured positions
        apriori = rng.normal(0.0, 1.0, (n, 4))
        apriori[:, 0] = 0.0
        init_alpha = rng.normal(0.0, 1.0, 8)
        init_beta = rng.normal(0.0, 1.0, 8)

        result = BCJRDecoder(algorithm=algorithm).decode(
            sys_llrs, par_llrs, apriori=apriori,
            initial_alpha=init_alpha, initial_beta=init_beta,
        )
        apo, ext, hard, falpha, fbeta = _SeedBCJR(algorithm=algorithm).decode(
            sys_llrs, par_llrs, apriori=apriori,
            initial_alpha=init_alpha, initial_beta=init_beta,
        )
        assert np.array_equal(result.aposteriori, apo)
        assert np.array_equal(result.extrinsic, ext)
        assert np.array_equal(result.hard_symbols, hard)
        assert np.array_equal(result.final_alpha, falpha)
        assert np.array_equal(result.final_beta, fbeta)

    @pytest.mark.parametrize("algorithm", ["max-log", "log-map"])
    def test_ctc2400_batch_matches_seed_frame_by_frame(self, algorithm):
        # A full WiMAX CTC 2400 activation on a batch of two frames, each
        # compared with the seed recursion on its own.
        rng = np.random.default_rng(2400)
        batch, n = 2, 2400
        sys_llrs = rng.normal(0.0, 4.0, (batch, n, 2))
        par_llrs = rng.normal(0.0, 4.0, (batch, n, 2))
        par_llrs[:, :, 1] = 0.0  # rate 1/2 punctures every W
        apriori = rng.normal(0.0, 1.0, (batch, n, 4))
        apriori[:, :, 0] = 0.0
        init_alpha = rng.normal(0.0, 1.0, (batch, 8))
        init_beta = rng.normal(0.0, 1.0, (batch, 8))

        result = BatchBCJR(algorithm=algorithm).decode_batch(
            sys_llrs, par_llrs, apriori=apriori,
            initial_alpha=init_alpha, initial_beta=init_beta,
        )
        seed = _SeedBCJR(algorithm=algorithm)
        for frame in range(batch):
            apo, ext, hard, falpha, fbeta = seed.decode(
                sys_llrs[frame], par_llrs[frame], apriori=apriori[frame],
                initial_alpha=init_alpha[frame], initial_beta=init_beta[frame],
            )
            assert np.array_equal(result.aposteriori[frame], apo)
            assert np.array_equal(result.extrinsic[frame], ext)
            assert np.array_equal(result.hard_symbols[frame], hard)
            assert np.array_equal(result.final_alpha[frame], falpha)
            assert np.array_equal(result.final_beta[frame], fbeta)

    def test_batched_activation_matches_per_frame(self):
        rng = np.random.default_rng(5)
        batch, n = 5, 36
        sys_llrs = rng.normal(0.0, 3.0, (batch, n, 2))
        par_llrs = rng.normal(0.0, 3.0, (batch, n, 2))
        apriori = rng.normal(0.0, 1.0, (batch, n, 4))
        init_alpha = rng.normal(0.0, 1.0, (batch, 8))
        init_beta = rng.normal(0.0, 1.0, (batch, 8))
        for algorithm in ("max-log", "log-map"):
            kernel = BatchBCJR(algorithm=algorithm)
            result = kernel.decode_batch(
                sys_llrs, par_llrs, apriori=apriori,
                initial_alpha=init_alpha, initial_beta=init_beta,
            )
            per_frame = BCJRDecoder(algorithm=algorithm)
            for frame in range(batch):
                single = per_frame.decode(
                    sys_llrs[frame], par_llrs[frame], apriori=apriori[frame],
                    initial_alpha=init_alpha[frame], initial_beta=init_beta[frame],
                )
                assert np.array_equal(result.aposteriori[frame], single.aposteriori)
                assert np.array_equal(result.extrinsic[frame], single.extrinsic)
                assert np.array_equal(result.hard_symbols[frame], single.hard_symbols)
                assert np.array_equal(result.final_alpha[frame], single.final_alpha)
                assert np.array_equal(result.final_beta[frame], single.final_beta)

    def test_rejects_bad_shapes_and_parameters(self):
        kernel = BatchBCJR()
        with pytest.raises(DecodingError):
            kernel.decode_batch(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(DecodingError):
            kernel.decode_batch(np.zeros((1, 4, 2)), np.zeros((1, 5, 2)))
        with pytest.raises(DecodingError):
            kernel.decode_batch(
                np.zeros((1, 4, 2)), np.zeros((1, 4, 2)), apriori=np.zeros((1, 4, 3))
            )
        with pytest.raises(DecodingError):
            kernel.decode_batch(
                np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), initial_alpha=np.zeros(8)
            )
        with pytest.raises(DecodingError):
            BatchBCJR(algorithm="viterbi")
        with pytest.raises(DecodingError):
            BatchBCJR(extrinsic_scale=0.0)


class TestBatchTurboEquivalence:
    """Stacking frames changes nothing — field for field."""

    @pytest.mark.parametrize("algorithm", ["max-log", "log-map"])
    @pytest.mark.parametrize("bit_level", [False, True])
    def test_batch_matches_per_frame(self, small_turbo_encoder, algorithm, bit_level):
        # 1.0 dB leaves a mix of converging and non-converging frames.
        _, _, llrs = _turbo_llr_batch(small_turbo_encoder, 8, ebn0_db=1.0, seed=17)
        batch_decoder = BatchTurboDecoder(
            small_turbo_encoder,
            max_iterations=6,
            algorithm=algorithm,
            bit_level_exchange=bit_level,
        )
        per_frame = TurboDecoder(
            small_turbo_encoder,
            max_iterations=6,
            algorithm=algorithm,
            bit_level_exchange=bit_level,
        )
        result = batch_decoder.decode_batch(llrs)
        assert 0 < result.converged.sum() < llrs.shape[0]
        for frame in range(llrs.shape[0]):
            reference = per_frame.decode(*per_frame.split_llrs(llrs[frame]))
            assert np.array_equal(result.hard_bits[frame], reference.hard_bits)
            assert np.array_equal(result.hard_symbols[frame], reference.hard_symbols)
            assert int(result.iterations[frame]) == reference.iterations
            assert bool(result.converged[frame]) == reference.converged
            assert result.decision_changes[frame] == reference.decision_changes

    def test_without_early_termination(self, small_turbo_encoder):
        _, _, llrs = _turbo_llr_batch(small_turbo_encoder, 5, ebn0_db=1.5, seed=3)
        batch_decoder = BatchTurboDecoder(
            small_turbo_encoder, max_iterations=5, early_termination=False
        )
        per_frame = TurboDecoder(
            small_turbo_encoder, max_iterations=5, early_termination=False
        )
        result = batch_decoder.decode_batch(llrs)
        assert np.all(result.iterations == 5)
        for frame in range(llrs.shape[0]):
            reference = per_frame.decode(*per_frame.split_llrs(llrs[frame]))
            assert np.array_equal(result.hard_bits[frame], reference.hard_bits)
            assert bool(result.converged[frame]) == reference.converged
            assert result.decision_changes[frame] == reference.decision_changes

    def test_batch_split_invariance(self, small_turbo_encoder):
        """Decoding a batch in one call equals decoding any partition of it."""
        _, _, llrs = _turbo_llr_batch(small_turbo_encoder, 9, ebn0_db=1.2, seed=29)
        decoder = BatchTurboDecoder(small_turbo_encoder, max_iterations=6)
        whole = decoder.decode_batch(llrs)
        for split in ([3, 6], [1, 8], [4, 5]):
            parts = np.split(np.arange(llrs.shape[0]), split)
            for part in parts:
                if part.size == 0:
                    continue
                sub = decoder.decode_batch(llrs[part])
                assert np.array_equal(sub.hard_bits, whole.hard_bits[part])
                assert np.array_equal(sub.aposteriori, whole.aposteriori[part])
                assert np.array_equal(sub.iterations, whole.iterations[part])
                assert np.array_equal(sub.converged, whole.converged[part])

    def test_split_llrs_batch_matches_sequential(self, small_turbo_encoder):
        rng = np.random.default_rng(0)
        decoder = BatchTurboDecoder(small_turbo_encoder)
        per_frame = TurboDecoder(small_turbo_encoder)
        flat = rng.normal(size=(3, small_turbo_encoder.n))
        sys_b, par1_b, par2_b = decoder.split_llrs_batch(flat)
        for frame in range(3):
            sys_s, par1_s, par2_s = per_frame.split_llrs(flat[frame])
            assert np.array_equal(sys_b[frame], sys_s)
            assert np.array_equal(par1_b[frame], par1_s)
            assert np.array_equal(par2_b[frame], par2_s)

    def test_rate_third_path(self):
        encoder = TurboEncoder(n_couples=24, rate="1/3")
        info, _, llrs = _turbo_llr_batch(encoder, 4, ebn0_db=3.0, seed=11)
        decoder = BatchTurboDecoder(encoder, max_iterations=8)
        result = decoder.decode_batch(llrs)
        assert result.hard_bits.shape == (4, encoder.k)
        assert np.count_nonzero(result.hard_bits != info) == 0

    def test_satisfies_protocol(self, small_turbo_encoder):
        decoder = BatchTurboDecoder(small_turbo_encoder)
        assert isinstance(decoder, BatchDecoder)
        assert decoder.n_bits == small_turbo_encoder.n
        # The runner keys the error-count reference off this flag.
        assert decoder.decides_info_bits is True

    def test_facade_setter_keeps_validation(self, small_turbo_encoder):
        decoder = TurboDecoder(small_turbo_encoder)
        with pytest.raises(DecodingError):
            decoder.max_iterations = 0
        decoder.max_iterations = 3
        assert decoder.max_iterations == 3

    def test_rejects_wrong_shapes(self, small_turbo_encoder):
        decoder = BatchTurboDecoder(small_turbo_encoder)
        with pytest.raises(DecodingError):
            decoder.decode_batch(np.zeros(small_turbo_encoder.n))
        with pytest.raises(DecodingError):
            decoder.decode_batch(np.zeros((2, small_turbo_encoder.n + 1)))
        with pytest.raises(DecodingError):
            decoder.decode_split(
                np.zeros((2, 10, 2)), np.zeros((2, 10, 2)), np.zeros((2, 10, 2))
            )
        with pytest.raises(DecodingError):
            BatchTurboDecoder(small_turbo_encoder, max_iterations=0)

    @pytest.mark.parametrize("value", [0.5, 2.5, True, "3"])
    @pytest.mark.parametrize("decoder_cls", [BatchTurboDecoder, TurboDecoder])
    def test_constructors_reject_non_integer_iterations(
        self, small_turbo_encoder, decoder_cls, value
    ):
        with pytest.raises(DecodingError, match="max_iterations"):
            decoder_cls(small_turbo_encoder, max_iterations=value)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_facade_setter_rejects_non_integer_iterations(self, small_turbo_encoder, value):
        decoder = TurboDecoder(small_turbo_encoder, max_iterations=4)
        with pytest.raises(DecodingError, match="max_iterations"):
            decoder.max_iterations = value
        assert decoder.max_iterations == 4

    @pytest.mark.parametrize("scale", [True, "0.5"])
    def test_rejects_non_numeric_extrinsic_scale(self, small_turbo_encoder, scale):
        with pytest.raises(DecodingError, match="extrinsic_scale"):
            BatchBCJR(extrinsic_scale=scale)
        with pytest.raises(DecodingError, match="extrinsic_scale"):
            BatchTurboDecoder(small_turbo_encoder, extrinsic_scale=scale)


class TestTurboEncodeBatch:
    @pytest.mark.parametrize("rate", ["1/2", "1/3"])
    def test_matches_per_frame_encode(self, rate):
        encoder = TurboEncoder(n_couples=24, rate=rate)
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, (5, encoder.k))
        batch = encoder.encode_batch(info)
        assert batch.shape == (5, encoder.n)
        for frame in range(5):
            assert np.array_equal(
                batch[frame], encoder.encode(info[frame]).to_bit_array()
            )

    def test_rejects_wrong_shape_and_values(self, small_turbo_encoder):
        with pytest.raises(CodeDefinitionError):
            small_turbo_encoder.encode_batch(np.zeros(small_turbo_encoder.k, dtype=int))
        with pytest.raises(CodeDefinitionError):
            small_turbo_encoder.encode_batch(
                np.zeros((2, small_turbo_encoder.k + 1), dtype=int)
            )
        with pytest.raises(CodeDefinitionError):
            small_turbo_encoder.encode_batch(
                np.full((2, small_turbo_encoder.k), 2, dtype=int)
            )


class TestTrellisBatchedTables:
    def test_incoming_table_inverts_next_state(self):
        trellis = DuoBinaryTrellis()
        next_state = trellis.next_state_table()
        in_state, in_symbol = trellis.incoming_table()
        for target in range(8):
            for edge in range(4):
                assert next_state[in_state[target, edge], in_symbol[target, edge]] == target
        # Every (state, symbol) pair appears exactly once.
        pairs = {(int(s), int(u)) for s, u in zip(in_state.ravel(), in_symbol.ravel())}
        assert len(pairs) == 32

    def test_circulation_states_match_scalar(self, rng):
        trellis = DuoBinaryTrellis()
        symbols = rng.integers(0, 4, (6, 48))
        batched = trellis.circulation_states(symbols)
        for frame in range(6):
            assert int(batched[frame]) == trellis.circulation_state(symbols[frame])

    def test_circulation_states_rejects_bad_shapes(self):
        trellis = DuoBinaryTrellis()
        with pytest.raises(CodeDefinitionError):
            trellis.circulation_states(np.zeros((2, 0), dtype=int))
        with pytest.raises(CodeDefinitionError):
            trellis.circulation_states(np.zeros(10, dtype=int))


class TestTurboBerRunner:
    """The unified runner drives the turbo family like the LDPC one."""

    def test_runs_reproducibly_and_counts_info_bits(self, small_turbo_encoder):
        def build():
            return BerRunner(
                small_turbo_encoder,
                BatchTurboDecoder(small_turbo_encoder, max_iterations=6),
                batch_size=8,
                max_frames=24,
                target_frame_errors=None,
                seed=9,
            )

        first = build().run_point(1.5)
        second = build().run_point(1.5)
        assert first.frames == 24
        # Turbo decisions cover the information bits, not the codeword.
        assert first.total_bits == 24 * small_turbo_encoder.k
        assert first.bit_errors == second.bit_errors
        assert first.frame_errors == second.frame_errors
        assert first.avg_iterations <= 6.0

    def test_high_snr_point_is_error_free(self, small_turbo_encoder):
        runner = BerRunner(
            small_turbo_encoder,
            BatchTurboDecoder(small_turbo_encoder, max_iterations=8),
            batch_size=8,
            max_frames=16,
            target_frame_errors=None,
            seed=2,
        )
        point = runner.run_point(4.0)
        assert point.bit_errors == 0
        assert point.ber == 0.0

    def test_rejects_mismatched_code_and_decoder(self, small_turbo_encoder):
        other = TurboEncoder(n_couples=24)
        with pytest.raises(ConfigurationError):
            BerRunner(small_turbo_encoder, BatchTurboDecoder(other))


class TestResolveCodeRate:
    def test_parses_fractions_and_floats(self):
        assert resolve_code_rate("1/2") == pytest.approx(0.5)
        assert resolve_code_rate("1/3") == pytest.approx(1 / 3)
        assert resolve_code_rate(0.75) == pytest.approx(0.75)
        assert resolve_code_rate("0.25") == pytest.approx(0.25)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            resolve_code_rate("a/b")
        with pytest.raises(ConfigurationError):
            resolve_code_rate("1/0")
