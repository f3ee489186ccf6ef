"""Batch-vs-sequential equivalence tests for :mod:`repro.sim.turbo_batch`.

The load-bearing properties, mirroring ``tests/test_sim_batch.py`` for the
LDPC engine:

* the batched BCJR is *bit-identical* to the seed repository's per-frame
  Max-Log-MAP recursion (a straight port of which is kept below as the
  pinning reference), including extrinsics and the circular state metrics,
* stacking frames on the batch axis changes nothing — the batched turbo
  decoder returns the same hard bits, iteration counts, convergence flags
  and decision-change histories for every frame as that frame decoded alone
  in a batch of one, for both extrinsic-exchange modes, with and without
  early termination, and for any batch split,
* the turbo decoder and one-frame ``BatchBCJR`` activations reproduce
  SHA-256 digests of all their outputs recorded before the state-major
  exchange (batch ≡ batch=1 runs the same code on both sides, so only
  recorded outputs can witness a change in it),
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
from repro.turbo import DuoBinaryTrellis, TurboEncoder

_NEG_INF = -1.0e30


class _SeedBCJR:
    """Straight port of the seed repository's per-frame Max-Log-MAP recursion.

    Kept verbatim (same scatter/reduce order, same normalisations) as the
    reference the vectorised kernel must reproduce bit-for-bit.
    """

    def __init__(self):
        trellis = DuoBinaryTrellis()
        self._next_state = trellis.next_state_table()
        self._parity = trellis.parity_table()
        symbols = np.arange(4)
        self._sym_a = (symbols >> 1) & 1
        self._sym_b = symbols & 1

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
            np.maximum.at(new_alpha, next_flat, candidates)
            new_alpha -= new_alpha.max()
            alpha[k + 1] = new_alpha
        for k in range(n - 1, -1, -1):
            incoming = beta[k + 1][self._next_state] + gamma[k]
            new_beta = incoming.max(axis=1)
            new_beta -= new_beta.max()
            beta[k] = new_beta

        b_metric = alpha[:-1][:, :, None] + gamma + beta[1:][
            np.arange(n)[:, None, None], self._next_state[None, :, :]
        ]
        apo_raw = b_metric.max(axis=1)
        apo = apo_raw - apo_raw[:, 0:1]
        sys_diff = sys_metric - sys_metric[:, 0:1]
        apr_diff = apriori - apriori[:, 0:1]
        extrinsic = 0.75 * (apo - sys_diff - apr_diff)
        hard = np.argmax(apo, axis=1).astype(np.int64)
        return apo, extrinsic, hard, alpha[n].copy(), beta[0].copy()


def _bcjr_one_frame(sys_llrs, par_llrs, apriori=None, initial_alpha=None, initial_beta=None):
    """One ``BatchBCJR`` activation on a one-frame batch, returned as
    ``_SeedBCJR.decode`` returns it: ``(apo, ext, hard, alpha, beta)`` of row 0."""

    def lift(array):
        return None if array is None else np.asarray(array)[None]

    result = BatchBCJR().decode_batch(
        lift(sys_llrs), lift(par_llrs), apriori=lift(apriori),
        initial_alpha=lift(initial_alpha), initial_beta=lift(initial_beta),
    )
    return (
        result.aposteriori[0], result.extrinsic[0], result.hard_symbols[0],
        result.final_alpha[0], result.final_beta[0],
    )


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    # The fused recursion gathers branch metrics _CHUNK steps at a time, so
    # pin lengths on both sides of every chunk edge.
    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 48])
    def test_bit_identical_including_extrinsics_and_state_metrics(self, seed, n):
        rng = np.random.default_rng(seed)
        sys_llrs = rng.normal(0.0, 4.0, (n, 2))
        par_llrs = rng.normal(0.0, 4.0, (n, 2))
        par_llrs[rng.random((n, 2)) < 0.3] = 0.0  # punctured positions
        apriori = rng.normal(0.0, 1.0, (n, 4))
        apriori[:, 0] = 0.0
        init_alpha = rng.normal(0.0, 1.0, 8)
        init_beta = rng.normal(0.0, 1.0, 8)

        result = _bcjr_one_frame(
            sys_llrs, par_llrs, apriori=apriori,
            initial_alpha=init_alpha, initial_beta=init_beta,
        )
        expected = _SeedBCJR().decode(
            sys_llrs, par_llrs, apriori=apriori,
            initial_alpha=init_alpha, initial_beta=init_beta,
        )
        for got, want in zip(result, expected, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 48])
    def test_default_apriori_and_state_metrics_bit_identical(self, seed, n):
        """No a-priori and no circular inits: the first half-iteration's call."""
        rng = np.random.default_rng(seed)
        sys_llrs = rng.normal(0.0, 4.0, (n, 2))
        par_llrs = rng.normal(0.0, 4.0, (n, 2))
        par_llrs[rng.random((n, 2)) < 0.3] = 0.0  # punctured positions

        result = _bcjr_one_frame(sys_llrs, par_llrs)
        expected = _SeedBCJR().decode(sys_llrs, par_llrs)
        for got, want in zip(result, expected, strict=True):
            assert np.array_equal(got, want)

    def test_ctc2400_batch_matches_seed_frame_by_frame(self):
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

        result = BatchBCJR().decode_batch(
            sys_llrs, par_llrs, apriori=apriori,
            initial_alpha=init_alpha, initial_beta=init_beta,
        )
        seed = _SeedBCJR()
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
        """Random circular inits and a-priori per frame: stacking changes nothing."""
        rng = np.random.default_rng(5)
        batch, n = 5, 36
        sys_llrs = rng.normal(0.0, 3.0, (batch, n, 2))
        par_llrs = rng.normal(0.0, 3.0, (batch, n, 2))
        apriori = rng.normal(0.0, 1.0, (batch, n, 4))
        init_alpha = rng.normal(0.0, 1.0, (batch, 8))
        init_beta = rng.normal(0.0, 1.0, (batch, 8))
        result = BatchBCJR().decode_batch(
            sys_llrs, par_llrs, apriori=apriori,
            initial_alpha=init_alpha, initial_beta=init_beta,
        )
        stacked = (
            result.aposteriori, result.extrinsic, result.hard_symbols,
            result.final_alpha, result.final_beta,
        )
        for frame in range(batch):
            alone = _bcjr_one_frame(
                sys_llrs[frame], par_llrs[frame], apriori=apriori[frame],
                initial_alpha=init_alpha[frame], initial_beta=init_beta[frame],
            )
            for rows, row in zip(stacked, alone, strict=True):
                assert np.array_equal(rows[frame], row)

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
        for init in ("initial_alpha", "initial_beta"):
            with pytest.raises(DecodingError):
                kernel.decode_batch(np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), **{init: np.zeros(8)})


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
    """The pinned grid: both exchange modes x early exit on/off x both rates
    x n in {24, 240} x batch in {1, 3, 32}, plus CTC 2400 at batch 32.  The
    keys lead with ``"max-log"``, the one SISO arithmetic, as recorded."""
    cases = []
    for exchange in ("symbol", "bit"):
        for early in (True, False):
            for rate in ("1/2", "1/3"):
                for n in (24, 240, 2400):
                    for batch in (1, 3, 32):
                        if n == 2400 and batch != 32:
                            continue
                        cases.append(("max-log", exchange, early, rate, n, batch))
    return cases


def _turbo_case_digest(case, ebn0_db: float = 1.0) -> str:
    algorithm, exchange, early, rate, n, batch = case
    encoder = TurboEncoder(n_couples=n, rate=rate)
    # 1.0 dB leaves a mix of stable and unstable frames at every size; at
    # 2.0 dB most frames stop early, so the exit bookkeeping dominates.
    _, _, llrs = _turbo_llr_batch(encoder, batch, ebn0_db=ebn0_db, seed=n + batch)
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


def _bcjr_case_digest(case, inits: bool = True) -> str:
    _, n, seed = case
    rng = np.random.default_rng(seed)
    sys_llrs = rng.normal(0.0, 4.0, (n, 2))
    par_llrs = rng.normal(0.0, 4.0, (n, 2))
    par_llrs[rng.random((n, 2)) < 0.3] = 0.0
    if inits:
        apriori = rng.normal(0.0, 1.0, (n, 4))
        apriori[:, 0] = 0.0
        result = _bcjr_one_frame(
            sys_llrs, par_llrs, apriori=apriori,
            initial_alpha=rng.normal(0.0, 1.0, 8), initial_beta=rng.normal(0.0, 1.0, 8),
        )
    else:
        result = _bcjr_one_frame(sys_llrs, par_llrs)
    return _result_digest(*result)


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
}

#: SHA-256 of every ``BatchBCJRResult`` field of a one-frame activation
#: (row 0) with random circular inits.
BCJR_DIGESTS: dict = {
    ("max-log", 1, 0):
        "49d23eb4938337f59bb5a357fb9f2f22c9158ac8f8b3b8d9123159ba0c0d46f6",
    ("max-log", 63, 1):
        "8ea845fd583927fe78dd638318eb6e976f3ab0d7433135cc4e1c334c1e6f43da",
    ("max-log", 131, 2):
        "9ab417b23f8b1943d389254113dc79ad09b3b22c09e836535d2cfdd2fb0139d9",
    ("max-log", 2400, 3):
        "3d6d4095a3d6cde2a5c54d084b1dd40b5bd987288967aa873f32de0ecce89c8d",
}

#: The same grid at 2.0 dB, recorded with the decoder as it stood before the
#: Max-Log-MAP recursion became the only SISO arithmetic.
TURBO_DIGESTS_2DB: dict = {
    ("max-log", "symbol", True, "1/2", 24, 1):
        "af15cb671ea3b0d8bfb29565365b483000593d8e39111c7a9ffe053cc5cad5a5",
    ("max-log", "symbol", True, "1/2", 24, 3):
        "e468b5c8880eb317695c80d1eab4ec532062486984915097e862adbf71310a9b",
    ("max-log", "symbol", True, "1/2", 24, 32):
        "506beb59a493b3f67552bcdec6ca0ad8ac6673640f12dc41c3f4a8e14e84bdd9",
    ("max-log", "symbol", True, "1/2", 240, 1):
        "9f455bda3debdf903de6c68a8d408c662be41b4abec87ed6724c34eed2417a05",
    ("max-log", "symbol", True, "1/2", 240, 3):
        "1ec64aab774e106e89d4a452d9fc236496f311db42f5acab8555cd5a20d3d983",
    ("max-log", "symbol", True, "1/2", 240, 32):
        "07752fd5be09f928a58c5cd22556ef7a69595e9ec17d5b9d62e6d6b6cf3aea21",
    ("max-log", "symbol", True, "1/2", 2400, 32):
        "5db3e783f9e514ddb73dbd03e6b054a4db1df0f5aa2305cc68e2f2ef8664b40c",
    ("max-log", "symbol", True, "1/3", 24, 1):
        "ac77e16a221a85bda843885b50665239a062b5c4d810e3688948553e84e09af0",
    ("max-log", "symbol", True, "1/3", 24, 3):
        "055051f077e8dd409d6d3375e06c372f6bb1fe7289bf6b49a4999d0a2c7de845",
    ("max-log", "symbol", True, "1/3", 24, 32):
        "cfc00916daf6a6ea369b0a4293bf6a73761b437707a0d0aeafc256ce48ea295d",
    ("max-log", "symbol", True, "1/3", 240, 1):
        "e35a8e630038db79fe1ceb9beee3a52497c0bd59f347de4af30ade92787036bb",
    ("max-log", "symbol", True, "1/3", 240, 3):
        "f07a70fa082598ff0b6e088281ab1edf56156c8c21fd08f608dd86a67969812b",
    ("max-log", "symbol", True, "1/3", 240, 32):
        "fcdc9a0a7e547dc1bfa13b40275dc57b26488c21ef373c2fb55ae87d1b923085",
    ("max-log", "symbol", True, "1/3", 2400, 32):
        "e41d7bc9ca81fffeb0dd3b4d1c7c82e6db47d96a0a8fe6bc62873db3f336e9b9",
    ("max-log", "symbol", False, "1/2", 24, 1):
        "f81e06ac7432c7e4edeb3ae749dfe9dfa4c0da8cb01e5dcbfe8e90b082571f12",
    ("max-log", "symbol", False, "1/2", 24, 3):
        "01f366ac4d45b9953515bde70b401b2a6a7b18a66607b3aab4dc62a2847d57ca",
    ("max-log", "symbol", False, "1/2", 24, 32):
        "2d5294b1f0184db59bd70fb4d2349ac7e19e6db2ff4d46484f7273d316378a87",
    ("max-log", "symbol", False, "1/2", 240, 1):
        "e425395db496cd54b5353cd362cf5090970526f1e04daa873188cf4c52655297",
    ("max-log", "symbol", False, "1/2", 240, 3):
        "cd509822bf9762d18a17da50cde13fc5f25ab85aba3ea3cedd7c73b96dbe434c",
    ("max-log", "symbol", False, "1/2", 240, 32):
        "1f2dd61940aeb795f70c5f586a4e680832f33ee65a46c7e4b1deb3233157bab4",
    ("max-log", "symbol", False, "1/2", 2400, 32):
        "502bb682048376fabab136e2bb3c1b194aa0a0af91b7206c945cffc2742d6acc",
    ("max-log", "symbol", False, "1/3", 24, 1):
        "83c2c5366934bbea8b094e73ea26361343db5ed0eaf7869715db5c5fc7fed301",
    ("max-log", "symbol", False, "1/3", 24, 3):
        "ef182b75888d77ac1dd7c8ef14e6cefbcb50275988372c7e5aa4d171c9dd2374",
    ("max-log", "symbol", False, "1/3", 24, 32):
        "4d98358aaa8cdd0be1749d4e5a48611648a81ff5074b9a05877d0192ee620f8e",
    ("max-log", "symbol", False, "1/3", 240, 1):
        "9b612a22e2d1b4b7a15f5da06c704bc1ce7f4415ca8f914b3189614e07fc9ba5",
    ("max-log", "symbol", False, "1/3", 240, 3):
        "5fc96131e70f05e2bfdb7c48d991001969a242a237ecd92c051dc358538da23b",
    ("max-log", "symbol", False, "1/3", 240, 32):
        "55466968338ff921cec8efb232337021f2f56d7eab07a0e0401093379510b6b5",
    ("max-log", "symbol", False, "1/3", 2400, 32):
        "1963fea2fbcf2a4cd04a7e04b6c5bac5eeed9b71a9459140e17acaeba82223da",
    ("max-log", "bit", True, "1/2", 24, 1):
        "e51a8ca0f8e3d7f35ccaf392921a4c2f6b3031dcb08ee130302e00b27923a95c",
    ("max-log", "bit", True, "1/2", 24, 3):
        "ae693925a22630ec8dd0f9e3c035f6df4020d6f92c73f47d9e0bb46902796534",
    ("max-log", "bit", True, "1/2", 24, 32):
        "8143bf9cdf6c3ce5e759f42009f578fd422cc4eabb1df648c629a0fd41c12285",
    ("max-log", "bit", True, "1/2", 240, 1):
        "1889703d64400193140ece8cf988def44c6fca2a1f580e3df4d079ce83a862b4",
    ("max-log", "bit", True, "1/2", 240, 3):
        "a700210618f2bf01346efcc024ff53a5840a82861d192d3e0f09239d26649b47",
    ("max-log", "bit", True, "1/2", 240, 32):
        "09c5b6fa4ceb949cf9e90499d752d568d2d004718cde3349ebcb6e5f6c3a37a0",
    ("max-log", "bit", True, "1/2", 2400, 32):
        "62ba676e16693b5bd323b1b287b271d318e63e19c3ce46294738e73dfa3fe642",
    ("max-log", "bit", True, "1/3", 24, 1):
        "387de91262d50c5b55bb8962cf6fb20e996f97fe3094628185e5336324c3853b",
    ("max-log", "bit", True, "1/3", 24, 3):
        "46a2856375d1d130c26eb97554c2b8b4634e1c4ea2d80b27ab801f7087949d44",
    ("max-log", "bit", True, "1/3", 24, 32):
        "aee8196206f468134bae2d8ee669d6a450511897e7695cbe844a25ab82a13f4d",
    ("max-log", "bit", True, "1/3", 240, 1):
        "a03a79b03f5247514875fb72a0ae0ebe474b83c5cb895d13557dc4af3a4f69ef",
    ("max-log", "bit", True, "1/3", 240, 3):
        "3949ae0536f2360985e4af09e4b61f464b9b1ec3c67f5e54e24e99f01c993d3d",
    ("max-log", "bit", True, "1/3", 240, 32):
        "892ca2787ecd054bd76dad8b70406e19931d80025f7f8dbb5f1dbbe0a870bd2f",
    ("max-log", "bit", True, "1/3", 2400, 32):
        "9fb53d340accae1eb1873429b75d3adde9feba0987c605e26fcb7eea73aa9a53",
    ("max-log", "bit", False, "1/2", 24, 1):
        "e0fcd325bee87b4189626114efcafbd4bca0470e07d5a3ae46eb50914b386849",
    ("max-log", "bit", False, "1/2", 24, 3):
        "a265a8b96329680a6c44a69dc7c6252b8d1a32073d876a3aa5ab7d9a2213789b",
    ("max-log", "bit", False, "1/2", 24, 32):
        "994160936a34b3cc12338dd66b0304273155ed318a7dbe9aa2831b718f83c94e",
    ("max-log", "bit", False, "1/2", 240, 1):
        "2e701e1b5fa7e5eea29bd3365c6a46587cad84cf44679c66eb3ee7ed40ba909f",
    ("max-log", "bit", False, "1/2", 240, 3):
        "ceae094b9f593286d347ad3240128824850e9063c3f707e94033eeb13e0dd5c1",
    ("max-log", "bit", False, "1/2", 240, 32):
        "df0f59d2a3df240d399d14c09e34c4d470895056771cbfcc97cab30c214c6ca0",
    ("max-log", "bit", False, "1/2", 2400, 32):
        "c4e6c64378a0b14b21d5f5195cb2719595718b224cee03c1e66d31c55381a0af",
    ("max-log", "bit", False, "1/3", 24, 1):
        "c25274b112f04d2753b5e749333d8b4429a333ae2ad6586743a1eecba1a6c308",
    ("max-log", "bit", False, "1/3", 24, 3):
        "c565e575192cbf157533bd37aee3485b6635dc08cade14f749ba452a8af4b893",
    ("max-log", "bit", False, "1/3", 24, 32):
        "cf21270439e675c5b7ba132a0458bc3dd833f77a58592a48440f0986c1e95640",
    ("max-log", "bit", False, "1/3", 240, 1):
        "52a0d16df8ba48f5ef711b2f416cc6693df0d515a8f2d3f8919121851b81ecd3",
    ("max-log", "bit", False, "1/3", 240, 3):
        "83841db77993c2df678df7e5864933baa64514228e3f81e3b38392aca17f99a4",
    ("max-log", "bit", False, "1/3", 240, 32):
        "c65de364f87581e510dac477bddc5b9e5ab09d0524351de896192cc0f73e2ad6",
    ("max-log", "bit", False, "1/3", 2400, 32):
        "41ccc752b88c1974b0ae9bb350398ceb29efe8fc7851959ae984d4bc7cbda334",
}

#: SHA-256 of every ``BatchBCJRResult`` field of a one-frame activation
#: (row 0) with no a-priori input and no circular inits, recorded alongside :data:`TURBO_DIGESTS_2DB`.
BCJR_DEFAULT_INIT_DIGESTS: dict = {
    ("max-log", 1, 0):
        "d7a9c94de6ea72a72f5e8b94b848f8a2688983ffebf6e75e81a46d8d39238eaf",
    ("max-log", 63, 1):
        "8ff012c0452a512f2a10c7a787f6e4a7d2fadd525aee3590ad2c6dec9b65d40c",
    ("max-log", 131, 2):
        "d25ab97952555733ad08ef4fa16014f3da66a201b9ba3cbdae36b6c34e195ebb",
    ("max-log", 2400, 3):
        "03a2fa0fea235633743db95c3c2b77745b085bafa989c8293b5639d1f67e57b7",
}


class TestTurboGoldenDigests:
    """Turbo outputs pinned to recorded digests: batch ≡ batch=1 runs the same
    code on both sides, so it cannot witness a change in the engine."""

    @pytest.mark.parametrize(
        "case",
        _turbo_digest_cases(),
        ids=lambda case: "{}-{}-et{:d}-r{}-n{}-b{}".format(*case),
    )
    def test_batch_turbo_matches_pinned_digest(self, case):
        assert _turbo_case_digest(case) == TURBO_DIGESTS[case]

    @pytest.mark.parametrize(
        "case",
        [("max-log", n, seed) for n, seed in ((1, 0), (63, 1), (131, 2), (2400, 3))],
        ids=lambda case: "{}-n{}-s{}".format(*case),
    )
    def test_bcjr_matches_pinned_digest(self, case):
        assert _bcjr_case_digest(case) == BCJR_DIGESTS[case]

    @pytest.mark.parametrize(
        "case",
        _turbo_digest_cases(),
        ids=lambda case: "{}-{}-et{:d}-r{}-n{}-b{}".format(*case),
    )
    def test_batch_turbo_matches_pinned_digest_at_2db(self, case):
        assert _turbo_case_digest(case, ebn0_db=2.0) == TURBO_DIGESTS_2DB[case]

    @pytest.mark.parametrize(
        "case",
        [("max-log", n, seed) for n, seed in ((1, 0), (63, 1), (131, 2), (2400, 3))],
        ids=lambda case: "{}-n{}-s{}".format(*case),
    )
    def test_bcjr_default_inits_match_pinned_digest(self, case):
        assert _bcjr_case_digest(case, inits=False) == BCJR_DEFAULT_INIT_DIGESTS[case]


def _assert_turbo_row_matches_alone(decoder, llrs, result, frame: int) -> None:
    """Row ``frame`` of a stacked decode equals that frame decoded alone."""
    alone = decoder.decode_batch(llrs[frame][None])
    assert alone.batch_size == 1
    assert np.array_equal(result.hard_bits[frame], alone.hard_bits[0])
    assert np.array_equal(result.hard_symbols[frame], alone.hard_symbols[0])
    assert np.array_equal(result.aposteriori[frame], alone.aposteriori[0])
    assert result.iterations[frame] == alone.iterations[0]
    assert result.converged[frame] == alone.converged[0]
    assert result.decision_changes[frame] == alone.decision_changes[0]


class TestBatchTurboEquivalence:
    """Stacking frames changes nothing — field for field."""

    @pytest.mark.parametrize("bit_level", [False, True])
    def test_batch_matches_per_frame(self, small_turbo_encoder, bit_level):
        # 1.0 dB leaves a mix of converging and non-converging frames.
        _, _, llrs = _turbo_llr_batch(small_turbo_encoder, 8, ebn0_db=1.0, seed=17)
        decoder = BatchTurboDecoder(
            small_turbo_encoder, max_iterations=6, bit_level_exchange=bit_level
        )
        result = decoder.decode_batch(llrs)
        assert 0 < result.converged.sum() < llrs.shape[0]
        for frame in range(llrs.shape[0]):
            _assert_turbo_row_matches_alone(decoder, llrs, result, frame)

    @pytest.mark.parametrize("bit_level", [False, True])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_rate_third_batch_matches_per_frame(self, bit_level, early_termination):
        encoder = TurboEncoder(n_couples=48, rate="1/3")
        _, _, llrs = _turbo_llr_batch(encoder, 8, ebn0_db=0.0, seed=17)
        options = dict(
            max_iterations=6, bit_level_exchange=bit_level,
            early_termination=early_termination,
        )
        decoder = BatchTurboDecoder(encoder, **options)
        result = decoder.decode_batch(llrs)
        assert 0 < result.converged.sum() < llrs.shape[0]
        for frame in range(llrs.shape[0]):
            _assert_turbo_row_matches_alone(decoder, llrs, result, frame)

    def test_without_early_termination(self, small_turbo_encoder):
        _, _, llrs = _turbo_llr_batch(small_turbo_encoder, 5, ebn0_db=1.5, seed=3)
        decoder = BatchTurboDecoder(
            small_turbo_encoder, max_iterations=5, early_termination=False
        )
        result = decoder.decode_batch(llrs)
        assert np.all(result.iterations == 5)
        for frame in range(llrs.shape[0]):
            _assert_turbo_row_matches_alone(decoder, llrs, result, frame)

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

    @pytest.mark.parametrize("rate", ["1/2", "1/3"])
    def test_split_llrs_batch_matches_sequential(self, rate):
        encoder = TurboEncoder(n_couples=48, rate=rate)
        rng = np.random.default_rng(0)
        decoder = BatchTurboDecoder(encoder)
        flat = rng.normal(size=(3, encoder.n))
        stacked = decoder.split_llrs_batch(flat)
        for frame in range(3):
            alone = decoder.split_llrs_batch(flat[frame][None])
            for rows, row in zip(stacked, alone, strict=True):
                assert row.shape == (1, 48, 2)
                assert np.array_equal(rows[frame], row[0])

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

    @pytest.mark.parametrize(
        "option, value",
        [("max_iterations", value) for value in (0.5, 2.5, True, "3")]
        # Max-Log-MAP is the one SISO arithmetic: the keyword takes one value.
        + [("algorithm", value) for value in ("log-map", "viterbi", "Max-Log", None)]
        # Flags take bools only: "no" is truthy, never a switched-off flag.
        + [("bit_level_exchange", value) for value in ("no", 1, None)]
        + [("early_termination", value) for value in ("false", 0, np.array([1, 0]))],
    )
    def test_constructors_reject_bad_options(self, small_turbo_encoder, option, value):
        with pytest.raises(DecodingError, match=option):
            BatchTurboDecoder(small_turbo_encoder, **{option: value})
        BatchTurboDecoder(
            small_turbo_encoder, algorithm="max-log", bit_level_exchange=np.bool_(True)
        )


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
