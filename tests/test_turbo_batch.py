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
* the turbo decoder and ``BCJRDecoder`` reproduce SHA-256 digests of all
  their outputs recorded before the state-major exchange (the facades
  delegate to the batch engine, so only recorded outputs can witness a
  change in it),
* ``TurboEncoder.encode_batch`` equals a scalar per-couple encoder loop
  (kept below as the oracle) and looped per-frame ``encode``.
"""

from __future__ import annotations

import hashlib

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


def _result_digest(*arrays, extra: str = "") -> str:
    """SHA-256 over the raw bytes of ``arrays`` (dtype and shape included)."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    digest.update(extra.encode())
    return digest.hexdigest()


def _turbo_digest_cases():
    """The pinned grid: both max* flavours x both exchange modes x early exit
    on/off x both rates x n in {24, 240} x batch in {1, 3, 32}, plus CTC 2400
    at batch 32 with max-log only."""
    cases = []
    for algorithm in ("max-log", "log-map"):
        for exchange in ("symbol", "bit"):
            for early in (True, False):
                for rate in ("1/2", "1/3"):
                    for n in (24, 240, 2400):
                        for batch in (1, 3, 32):
                            if n == 2400 and (batch != 32 or algorithm != "max-log"):
                                continue
                            cases.append((algorithm, exchange, early, rate, n, batch))
    return cases


def _turbo_case_digest(case) -> str:
    algorithm, exchange, early, rate, n, batch = case
    encoder = TurboEncoder(n_couples=n, rate=rate)
    # 1.0 dB leaves a mix of stable and unstable frames at every size.
    _, _, llrs = _turbo_llr_batch(encoder, batch, ebn0_db=1.0, seed=n + batch)
    result = BatchTurboDecoder(
        encoder,
        max_iterations=8,
        algorithm=algorithm,
        bit_level_exchange=exchange == "bit",
        early_termination=early,
    ).decode_batch(llrs)
    return _result_digest(
        result.hard_bits,
        result.hard_symbols,
        result.aposteriori,
        result.iterations,
        result.converged,
        extra=repr(result.decision_changes),
    )


def _bcjr_case_digest(case) -> str:
    algorithm, n, seed = case
    rng = np.random.default_rng(seed)
    sys_llrs = rng.normal(0.0, 4.0, (n, 2))
    par_llrs = rng.normal(0.0, 4.0, (n, 2))
    par_llrs[rng.random((n, 2)) < 0.3] = 0.0
    apriori = rng.normal(0.0, 1.0, (n, 4))
    apriori[:, 0] = 0.0
    result = BCJRDecoder(algorithm=algorithm).decode(
        sys_llrs, par_llrs, apriori=apriori,
        initial_alpha=rng.normal(0.0, 1.0, 8), initial_beta=rng.normal(0.0, 1.0, 8),
    )
    return _result_digest(
        result.aposteriori,
        result.extrinsic,
        result.hard_symbols,
        result.final_alpha,
        result.final_beta,
    )


#: SHA-256 of every ``BatchTurboResult`` field per grid case, recorded with
#: the decoder as it stood before the state-major exchange and workspace.
TURBO_DIGESTS: dict = {
    ("max-log", "symbol", True, "1/2", 24, 1):
        "8c2586cd65ae928dc61bc2a2342287cd5c26aa66f5f0a7940499f8c59aef6098",
    ("max-log", "symbol", True, "1/2", 24, 3):
        "bdb0ca50ca1451c246aacf18fdce9d859b7b8416ed79a199c2b78a2b905cf31a",
    ("max-log", "symbol", True, "1/2", 24, 32):
        "965e5748784d80772138ae7f83a6fe8ffca3cb57ae7a9be6729fbf9603d1ccef",
    ("max-log", "symbol", True, "1/2", 240, 1):
        "77153c1bf2debd999acb34ff69ac9cd9418a2c4779d3914413a0caa60e80818c",
    ("max-log", "symbol", True, "1/2", 240, 3):
        "382b4c10e11cfff6ceddf7a6ee0f7d5c57bebb4975b4631e9d0900383f9444d1",
    ("max-log", "symbol", True, "1/2", 240, 32):
        "6942082b51b2e1424f9619810fab8700e95f54b31d753dc3071537342e43f5ee",
    ("max-log", "symbol", True, "1/2", 2400, 32):
        "7b1973955a9d83e44a042e788fa523f1ce264c6fe2dc6e3c533b7b07eeb67da6",
    ("max-log", "symbol", True, "1/3", 24, 1):
        "5bb2eac819dfd89e8c6e043b44d2d5e0486fbf19c37d2ed7eebc65c1c4a5701f",
    ("max-log", "symbol", True, "1/3", 24, 3):
        "565330a568e1191181c0a4a2acdda6e510fce1839ae729ac880f099c02d0ebfe",
    ("max-log", "symbol", True, "1/3", 24, 32):
        "768632805850e17cffc2a7bb02b85416fe728ee227214158ae6e64bacddff178",
    ("max-log", "symbol", True, "1/3", 240, 1):
        "7e2b7b6ba399ffcf531007a0f75edc20da07c8ddd259a22bd2ade955b5495ce8",
    ("max-log", "symbol", True, "1/3", 240, 3):
        "2e364baddaa7aed8d27eda252e9a65931cfbfb173d5ca7af427e122fc663d23a",
    ("max-log", "symbol", True, "1/3", 240, 32):
        "a165646ed6bdba51aeb61bc08e2aca051652ba94ef8a1c572671b18f0922b8b4",
    ("max-log", "symbol", True, "1/3", 2400, 32):
        "e94dcd59673fbb6d0b282f0df49745d75797684f4b9151c7019fdef51b09c8de",
    ("max-log", "symbol", False, "1/2", 24, 1):
        "40f9d175e8e26821db3050f00ddb81cdbd221eaddc86c45ec65c11e50c420000",
    ("max-log", "symbol", False, "1/2", 24, 3):
        "3b50a8cbba1e70182998efc5149a9189130dd702ce2611ee97612fbeff91a80a",
    ("max-log", "symbol", False, "1/2", 24, 32):
        "a5859676650137d5fbdfe22ba153025c36f265486eb23306b0fdd397caf931e6",
    ("max-log", "symbol", False, "1/2", 240, 1):
        "bf9512cd350d70db6e372aa3c6efe65a5448ca9b0b5874f60599f4e7016fd990",
    ("max-log", "symbol", False, "1/2", 240, 3):
        "1b2317d7e786ec360edca2f80fa3fcad1b8cbca44338b0b60bcb8b73364f385c",
    ("max-log", "symbol", False, "1/2", 240, 32):
        "2b5e05cdae921c9cf0d3e74765e875e2f5a04f735c6fea14b4151886a0e6ef7b",
    ("max-log", "symbol", False, "1/2", 2400, 32):
        "0e9d9f12652b361895156c897e9b17495a4cd8955d8296187717e793974db57e",
    ("max-log", "symbol", False, "1/3", 24, 1):
        "a8c59bd64f4073199730619081324e1433bf0bcc5f5ca83369662691577a9f54",
    ("max-log", "symbol", False, "1/3", 24, 3):
        "449bd0634aead51ac4af40ff771d805ee2c26a96455d3496096335ca0ebdf008",
    ("max-log", "symbol", False, "1/3", 24, 32):
        "20542996ce27230528c03d616954a65f2fc1a504e98cf04992458c5d48b9af26",
    ("max-log", "symbol", False, "1/3", 240, 1):
        "c68dd350fcdc5d9b50febddfc218da6decb04904ff74a88768cb956850d03982",
    ("max-log", "symbol", False, "1/3", 240, 3):
        "89273aecb16386edd8347375bacfe4b95c1e3998c74085394e7b148ac88adc90",
    ("max-log", "symbol", False, "1/3", 240, 32):
        "e9477d43b8d9668c1eef2e63c06f1ab4f68ea0a9913cf12e37b22797a29ec1a0",
    ("max-log", "symbol", False, "1/3", 2400, 32):
        "2ae5f1c1c8ad7f3966138afebc188aa2e8a6e325b21f2e37c2004b48c2d967a5",
    ("max-log", "bit", True, "1/2", 24, 1):
        "c6d553d0238a1a5a07b2ee3b104cb26b4d7cc9ccea423405e56ec9fb75535fc1",
    ("max-log", "bit", True, "1/2", 24, 3):
        "40c86a4b044c7bca0acdfb24ea5066bea8f51b65aebe1cb4d90c5800a21dd4f2",
    ("max-log", "bit", True, "1/2", 24, 32):
        "c60cea7bebf4dd23d819cd0625dedb403f5a53272464f19a3c411c0f114ba68d",
    ("max-log", "bit", True, "1/2", 240, 1):
        "e2759fd41cc393a7e9c6c07db542ff97772bf5af85979555ef4630bb849717a1",
    ("max-log", "bit", True, "1/2", 240, 3):
        "243a22eda13dd73b4706a4b41a80df6b82617e6d9d25165aca5db3a2235772d6",
    ("max-log", "bit", True, "1/2", 240, 32):
        "d1a0b78752d435e0f76121cca3f99d1c2ebe5f6fcdabd50839e115c48a054680",
    ("max-log", "bit", True, "1/2", 2400, 32):
        "ab132c702a52fc21c0c264f5155f5b7afde6a5a1d8211bc9f94234c4348637ef",
    ("max-log", "bit", True, "1/3", 24, 1):
        "f9bec49a06e1826cd0e360e6153fd3f3c10e9a212f1b8df8c38c3c3312b1a05d",
    ("max-log", "bit", True, "1/3", 24, 3):
        "fb7dc67d2e92ec36e0eb6ee053af06af3af8a1d1340fc73fe8488c724b4484e9",
    ("max-log", "bit", True, "1/3", 24, 32):
        "519b9f0e4acd685f9af2bc59e5e4eb12338f1f0f0a7d179d939e875741977f95",
    ("max-log", "bit", True, "1/3", 240, 1):
        "dff7660a4bb452c7f89ebe95a30138b966bc5012d112956ebef2cdf5cc0f4147",
    ("max-log", "bit", True, "1/3", 240, 3):
        "58acbbb049cfb1fccda1db6ddae2af423cc5f83d70c6c5704de6e78deb5555c3",
    ("max-log", "bit", True, "1/3", 240, 32):
        "dce9aba88b22427de83f5fa4d33a6e6cf238e3c9cc320759fc9a7af309b1f3e1",
    ("max-log", "bit", True, "1/3", 2400, 32):
        "a5cffd90688a302d17b4f99ad4a9ea318060404dc28004098241a50871244d5e",
    ("max-log", "bit", False, "1/2", 24, 1):
        "ddc6ec3a3a2679f2be748e5128f900c902914a98457cfef173058217a1078c53",
    ("max-log", "bit", False, "1/2", 24, 3):
        "3a3a54871c5fdc21597a9cfd990b4126fe55a1e894d40c5bde536d82fdc15d72",
    ("max-log", "bit", False, "1/2", 24, 32):
        "e2330871225324561c684a9825051f3cbf19af85923986c3b4a95cd17c940268",
    ("max-log", "bit", False, "1/2", 240, 1):
        "e2759fd41cc393a7e9c6c07db542ff97772bf5af85979555ef4630bb849717a1",
    ("max-log", "bit", False, "1/2", 240, 3):
        "243a22eda13dd73b4706a4b41a80df6b82617e6d9d25165aca5db3a2235772d6",
    ("max-log", "bit", False, "1/2", 240, 32):
        "cd745ed24a4081368662f8324e156a4496d5d9ef45a99199134457bab8bb7568",
    ("max-log", "bit", False, "1/2", 2400, 32):
        "ab132c702a52fc21c0c264f5155f5b7afde6a5a1d8211bc9f94234c4348637ef",
    ("max-log", "bit", False, "1/3", 24, 1):
        "1594ab5472a319f18a19378a236d49702f6c918d43dbe8261560405aff2748a7",
    ("max-log", "bit", False, "1/3", 24, 3):
        "945f355d5c2394944f5c45acfa555c1a46e7f8c44ed83724d0e4d49234ed4c18",
    ("max-log", "bit", False, "1/3", 24, 32):
        "1b08540c93531f32ece15494e706c75eead37b67d3f8554846c0a980e0c3a7da",
    ("max-log", "bit", False, "1/3", 240, 1):
        "9ff602e63fc51bfc93da662e97d32644ea321e332ea8091be59a13aca6e12190",
    ("max-log", "bit", False, "1/3", 240, 3):
        "759ddee7d4440fcbf1ab9e78d926d7096bc70c9d0e6362c5cd4198bb75ad30af",
    ("max-log", "bit", False, "1/3", 240, 32):
        "c23bd11d902127e8bd10b2aaf5bf4f2b367dca8071d2057880ac471948058fea",
    ("max-log", "bit", False, "1/3", 2400, 32):
        "9fcd4b77c288bc8452e3156c4cfd538f828563e31e527c450b85ed76ff8ace41",
    ("log-map", "symbol", True, "1/2", 24, 1):
        "6a1ecff7bf9d206ae35148ba335bc145e00cf8f5012bbab6431ff2c296a3181f",
    ("log-map", "symbol", True, "1/2", 24, 3):
        "886420865f6bc5f72775f9363502cb4a8aad819d72c4342bb2202455c3f204da",
    ("log-map", "symbol", True, "1/2", 24, 32):
        "6adce4eeb8cb6da8b8ac41792de7f8824cdaf0c5dff3843a0a325d75a251fc8a",
    ("log-map", "symbol", True, "1/2", 240, 1):
        "96d2638e325e81042fd7e8d7f5cf820f49a95ca9b22841f23778e0ef3cd3affa",
    ("log-map", "symbol", True, "1/2", 240, 3):
        "765168302c44953636191ea8234ee88dc3e22107f0df507097b641ee685d18a6",
    ("log-map", "symbol", True, "1/2", 240, 32):
        "9bf4da875302732afc8c4e44f75edd1423f6ced317b1f0902d00bd32f721fb91",
    ("log-map", "symbol", True, "1/3", 24, 1):
        "0ef1748d500473464c62cf4e9a3be0ed007951c81024719d81f9ba0fd387093d",
    ("log-map", "symbol", True, "1/3", 24, 3):
        "4eb02abf889b54f54574f2d2349cf9d159f75c89322ad15ad9c3415ee849f34b",
    ("log-map", "symbol", True, "1/3", 24, 32):
        "3ecdb0fd23a25e603d67dc24cf370ec8ec216d90245846551f1e7bb114f73a52",
    ("log-map", "symbol", True, "1/3", 240, 1):
        "8195ef079d3b427831cd9b3031621f33deb6b1d779dbbd922611e9976187a679",
    ("log-map", "symbol", True, "1/3", 240, 3):
        "ee34fe76ed6a680588da05eacc43d81d138dfde8b29d7403dfaa01fecc90778c",
    ("log-map", "symbol", True, "1/3", 240, 32):
        "24c89005afd5b16b0d8c0e1ad1a702aca7163e66667b665770f154fafbe103d3",
    ("log-map", "symbol", False, "1/2", 24, 1):
        "a34955faaf8e1381a59446b787fcda5c4f3ad38ec8c22330bc988bd7b5aa5cbb",
    ("log-map", "symbol", False, "1/2", 24, 3):
        "0d91f8d25c4abc9cd40ba6d183cf18f8764b58444e344bd07d83f52495171162",
    ("log-map", "symbol", False, "1/2", 24, 32):
        "b2cc3c5e9c6e2cf319856e04f4058700155344c6fa58f6dd6810a7bb679b259b",
    ("log-map", "symbol", False, "1/2", 240, 1):
        "2c791377cb21a713dfe6b1e3a7ff031613a7765d0be769e2d3e5e3114658057c",
    ("log-map", "symbol", False, "1/2", 240, 3):
        "d67e379538bc41376542cb5f2236ea8711beeb0722bf3c4929e8e7d27c932636",
    ("log-map", "symbol", False, "1/2", 240, 32):
        "d6d2d1faa4586f4b277e21cc360b9696d74ffb73b513a1377ea6f18a7b2c78fb",
    ("log-map", "symbol", False, "1/3", 24, 1):
        "1238e3a9fdcddfea8e6bd8834796807c8c021633eeff4fce859709f2d0045b1a",
    ("log-map", "symbol", False, "1/3", 24, 3):
        "b8a007edf8e31df367e330f4041931b61c2b33b81d90b5dbdfe1a8c3a8bb16cc",
    ("log-map", "symbol", False, "1/3", 24, 32):
        "53355bbc3a8b5045206299b92d46157f216a9cbb8535d5beb89dcaaba643146b",
    ("log-map", "symbol", False, "1/3", 240, 1):
        "771ac1c379565413bc8ad125014905c26355e5b55d8c386b73207caa3bf2aafc",
    ("log-map", "symbol", False, "1/3", 240, 3):
        "937e82e371b8c4eca9b14e41c78aba765a19e7ef5cb5d53e0cef140a9cd30d1c",
    ("log-map", "symbol", False, "1/3", 240, 32):
        "0cfdd29051d55c7a4ee03f7ba516a717bf0362720061fdb68e97bb3fdb3f0d36",
    ("log-map", "bit", True, "1/2", 24, 1):
        "971c3cec070a06dadf322b91f39a6bcfa21f099d17073e62874f7009142deccb",
    ("log-map", "bit", True, "1/2", 24, 3):
        "cf4b04c7c8d8661bf431a9f6cc1d28a302416397b905cd2bfec5ee0cce48c063",
    ("log-map", "bit", True, "1/2", 24, 32):
        "ddbad24053c129053b8a07099fd1ded8480a8a26de4ab3b42f531ae8f78189a5",
    ("log-map", "bit", True, "1/2", 240, 1):
        "542c15d2218432e35a930b0271192ecbc6d7517b216bace0a4b9a9fa01e32d55",
    ("log-map", "bit", True, "1/2", 240, 3):
        "9616abdcf30123dd6a5345be6ffd7deffa4cfa2986308f78e7c8a311679aca3f",
    ("log-map", "bit", True, "1/2", 240, 32):
        "93315b4ce0e0eda04e880643aa065a2035c3f562a4d1a7e7275df8310c3c8f8e",
    ("log-map", "bit", True, "1/3", 24, 1):
        "05a1d728f37879b47b4fb0de17897156c003bd6e5aba540b1c5e7d26b3999d67",
    ("log-map", "bit", True, "1/3", 24, 3):
        "2abaaf819be2da3c37837028a7a66e614d8abb1855f681b4d6af26b106702173",
    ("log-map", "bit", True, "1/3", 24, 32):
        "3e1f6f1888de026d0ce4b37e488f7b6a8090fa2e038383bd3406bd1530255d69",
    ("log-map", "bit", True, "1/3", 240, 1):
        "37bad6f0af0dea68e8b9249da93af74a80e5ff25a00b10486d9e5977c57af7d2",
    ("log-map", "bit", True, "1/3", 240, 3):
        "01ccdfc912ada28bd58d3c398eb767a01163779e69a2822e49b85f0b91277ffa",
    ("log-map", "bit", True, "1/3", 240, 32):
        "b7c501ef719aa5866cac5ff243bd4680253ae751ca78c4f80518f91c76faa1a7",
    ("log-map", "bit", False, "1/2", 24, 1):
        "971c3cec070a06dadf322b91f39a6bcfa21f099d17073e62874f7009142deccb",
    ("log-map", "bit", False, "1/2", 24, 3):
        "b0649d32937c154d367c666cbc85dd9ec87178ad7fb6fd5ba8aca34d5a4546fa",
    ("log-map", "bit", False, "1/2", 24, 32):
        "9a2c538058a70773101e0a370f94f24fbb09919e72b7d790161eb8f519d2a2e8",
    ("log-map", "bit", False, "1/2", 240, 1):
        "c1257c9e8371ccd247dd899e20e1eb3b710260567ff19b396d1a75c4103cd3c7",
    ("log-map", "bit", False, "1/2", 240, 3):
        "9616abdcf30123dd6a5345be6ffd7deffa4cfa2986308f78e7c8a311679aca3f",
    ("log-map", "bit", False, "1/2", 240, 32):
        "2d2910c98d197d650aa1865fb4a4324cac18c4af06a3e72ce23520d452ccf6fe",
    ("log-map", "bit", False, "1/3", 24, 1):
        "208d15b489a321c49df88c84b343ee9cb02b08806c5235774924ce00e9542c29",
    ("log-map", "bit", False, "1/3", 24, 3):
        "fc5ac034aac02aa7153e0520098b0689e6be28f2138db3c5d3b480cccef1b970",
    ("log-map", "bit", False, "1/3", 24, 32):
        "be73596cb6a389b62b9b1b6f00f121c5947d32be757c71d815ce6c4a3f8571e3",
    ("log-map", "bit", False, "1/3", 240, 1):
        "7932b35a5d8bdadc1bba9a5a14247bb2d492e3cced2edb434a7965f92682a697",
    ("log-map", "bit", False, "1/3", 240, 3):
        "3c34e9c86bf1e4d8532a4443fa06246e0f52a010c80f8aaf11fba6a8aaf54d93",
    ("log-map", "bit", False, "1/3", 240, 32):
        "d126299227cd0e3a548655257f69bc3e771dcb5d52bde1189f94cc76beb1ec8e",
}

#: SHA-256 of every ``BCJRResult`` field with random circular inits.
BCJR_DIGESTS: dict = {
    ("max-log", 1, 0):
        "49d23eb4938337f59bb5a357fb9f2f22c9158ac8f8b3b8d9123159ba0c0d46f6",
    ("max-log", 63, 1):
        "8ea845fd583927fe78dd638318eb6e976f3ab0d7433135cc4e1c334c1e6f43da",
    ("max-log", 131, 2):
        "9ab417b23f8b1943d389254113dc79ad09b3b22c09e836535d2cfdd2fb0139d9",
    ("max-log", 2400, 3):
        "3d6d4095a3d6cde2a5c54d084b1dd40b5bd987288967aa873f32de0ecce89c8d",
    ("log-map", 1, 0):
        "19dd7f2d46d83ec0636f1c25ae9081b6911f2cfd33299dac55b39a8236c630b8",
    ("log-map", 63, 1):
        "31df7a44fbaaffa9732bdcdb1638eb8ce4d3755826b8dd27cebaa3f36a675cb3",
    ("log-map", 131, 2):
        "fae2b3c1e64fa8def8a222bc60d4a2e5d431230bbaa5ada99b0942ddab323110",
    ("log-map", 2400, 3):
        "57438527ac5afd3aa760196023c64ba220e16b08b4d65e8881ea39db78fb69ae",
}


class TestTurboGoldenDigests:
    """Turbo outputs pinned to recorded digests, independent of the facades
    (which delegate to the batch engine and so cannot witness a change)."""

    @pytest.mark.parametrize(
        "case",
        _turbo_digest_cases(),
        ids=lambda case: "{}-{}-et{:d}-r{}-n{}-b{}".format(*case),
    )
    def test_batch_turbo_matches_pinned_digest(self, case):
        assert _turbo_case_digest(case) == TURBO_DIGESTS[case]

    @pytest.mark.parametrize(
        "case",
        [(alg, n, seed) for alg in ("max-log", "log-map") for n, seed in
         ((1, 0), (63, 1), (131, 2), (2400, 3))],
        ids=lambda case: "{}-n{}-s{}".format(*case),
    )
    def test_bcjr_matches_pinned_digest(self, case):
        assert _bcjr_case_digest(case) == BCJR_DIGESTS[case]


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


def _oracle_constituent_parity(trellis: DuoBinaryTrellis, symbols: np.ndarray) -> np.ndarray:
    """The scalar circular constituent encoder: one couple per Python step."""
    start_state = trellis.circulation_state(symbols)
    parity = np.zeros((symbols.size, 2), dtype=np.int8)
    state = start_state
    for idx, symbol in enumerate(symbols):
        parity[idx, 0], parity[idx, 1] = trellis.parity(state, int(symbol))
        state = trellis.next_state(state, int(symbol))
    assert state == start_state
    return parity


class TestTurboEncodeBatch:
    @pytest.mark.parametrize("rate", ["1/2", "1/3"])
    @pytest.mark.parametrize("batch", [1, 3, 32])
    @pytest.mark.parametrize("n_couples", [24, 2400])
    def test_matches_scalar_oracle(self, rate, batch, n_couples):
        encoder = TurboEncoder(n_couples=n_couples, rate=rate)
        trellis = DuoBinaryTrellis()
        info = np.random.default_rng(n_couples + batch).integers(0, 2, (batch, encoder.k))
        codewords = encoder.encode_batch(info)
        for frame in range(batch):
            symbols = TurboEncoder.bits_to_symbols(info[frame])
            parity1 = _oracle_constituent_parity(trellis, symbols)
            parity2 = _oracle_constituent_parity(
                trellis, encoder.interleaver.interleave_symbols(symbols)
            )
            kept = (slice(None), 0) if rate == "1/2" else (slice(None), slice(None))
            expected = np.concatenate(
                [info[frame], parity1[kept].ravel(), parity2[kept].ravel()]
            )
            assert np.array_equal(codewords[frame], expected)
            if batch == 1:
                codeword = encoder.encode(info[frame])
                assert np.array_equal(codeword.parity1, parity1)
                assert np.array_equal(codeword.parity2, parity2)

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
        batched = trellis.circular_states(symbols)[:, 0]
        for frame in range(6):
            assert int(batched[frame]) == trellis.circulation_state(symbols[frame])

    def test_circular_states_follow_the_trellis(self, rng):
        trellis = DuoBinaryTrellis()
        symbols = rng.integers(0, 4, (4, 48))
        states = trellis.circular_states(symbols)
        assert np.array_equal(states[:, -1], states[:, 0])
        next_state = trellis.next_state_table()
        assert np.array_equal(states[:, 1:], next_state[states[:, :-1], symbols])

    def test_circulation_states_rejects_bad_shapes(self):
        trellis = DuoBinaryTrellis()
        with pytest.raises(CodeDefinitionError):
            trellis.circular_states(np.zeros((2, 0), dtype=int))
        with pytest.raises(CodeDefinitionError):
            trellis.circular_states(np.zeros(10, dtype=int))


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
