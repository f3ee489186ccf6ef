"""Benchmark: batched turbo engine vs the seed per-frame BCJR path.

The turbo twin of ``bench_batch_throughput.py``.  The *baseline* is a
faithful re-implementation of the seed repository's per-frame turbo decoding
(symbol-level BCJR with a Python loop over trellis steps and a
``np.maximum.at`` scatter, one frame at a time); the *contender* is
:class:`repro.sim.turbo_batch.BatchTurboDecoder`, whose fused alpha/beta
recursion advances every frame of the batch on one ``(4, 16, batch)`` slab
per trellis step.  Early termination is disabled on both sides so the
comparison is a fixed amount of work.  The acceptance target at
``N_COUPLES = 96``, batch 64, is >= 10x frames/sec.

A second row times the ``ber_ctc2400`` operating point (CTC 2400 couples,
batch 32, max-log, 1.0 dB): seed per-frame, batch with early exit and batch
exhaustive.  Every row is interleaved trials (:mod:`benchmarks.harness`)
recorded per frame as median, IQR, n and best; the gates read best times.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_turbo_batch_throughput.py -q -s``.
"""

from __future__ import annotations

import numpy as np
from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.sim import BatchTurboDecoder, resolve_code_rate
from repro.turbo import DuoBinaryTrellis, TurboEncoder

from benchmarks.harness import per_item, record, row, trials

BATCH = 64
MAX_ITERATIONS = 8
EBN0_DB = 1.2
N_COUPLES = 96
#: Frames timed on the (slow) seed baseline; frames/sec extrapolates.
BASELINE_FRAMES = 4
#: Interleaved trials of the gated rows; the gates compare best times.
TRIALS = 3

#: The ``ber_ctc2400`` operating point: one seed frame and two batch decodes
#: per interleaved trial.
CTC2400_COUPLES = 2400
CTC2400_BATCH = 32
CTC2400_EBN0_DB = 1.0
CTC2400_TRIALS = 5

_NEG_INF = -1.0e30


# --------------------------------------------------------------------------- #
# Seed-repository per-frame algorithm (Max-Log-MAP, per-step Python loops).
# --------------------------------------------------------------------------- #
class _SeedTurboDecoder:
    """The seed per-frame turbo decode loop (max-log, symbol-level exchange)."""

    def __init__(self, encoder: TurboEncoder, max_iterations: int):
        trellis = DuoBinaryTrellis()
        self._next_state = trellis.next_state_table()
        self._parity = trellis.parity_table()
        symbols = np.arange(4)
        self._sym_a = (symbols >> 1) & 1
        self._sym_b = symbols & 1
        self._perm = encoder.interleaver.permutation()
        self._flags = encoder.interleaver.swap_flags().astype(bool)
        self.max_iterations = max_iterations

    def _bcjr(self, sys_llrs, par_llrs, apriori, init_alpha, init_beta):
        n = sys_llrs.shape[0]
        sys_metric = 0.5 * (
            (1 - 2 * self._sym_a)[None, :] * sys_llrs[:, 0:1]
            + (1 - 2 * self._sym_b)[None, :] * sys_llrs[:, 1:2]
        )
        par_metric = 0.5 * (
            (1 - 2 * self._parity[:, :, 0])[None, :, :] * par_llrs[:, 0][:, None, None]
            + (1 - 2 * self._parity[:, :, 1])[None, :, :] * par_llrs[:, 1][:, None, None]
        )
        gamma = par_metric + sys_metric[:, None, :] + apriori[:, None, :]
        alpha = np.zeros((n + 1, 8))
        beta = np.zeros((n + 1, 8))
        alpha[0] = np.zeros(8) if init_alpha is None else init_alpha - init_alpha.max()
        beta[n] = np.zeros(8) if init_beta is None else init_beta - init_beta.max()
        next_flat = self._next_state.reshape(-1)
        for k in range(n):
            candidates = (alpha[k][:, None] + gamma[k]).reshape(-1)
            new_alpha = np.full(8, _NEG_INF)
            np.maximum.at(new_alpha, next_flat, candidates)
            new_alpha -= new_alpha.max()
            alpha[k + 1] = new_alpha
        for k in range(n - 1, -1, -1):
            new_beta = (beta[k + 1][self._next_state] + gamma[k]).max(axis=1)
            new_beta -= new_beta.max()
            beta[k] = new_beta
        b_metric = alpha[:-1][:, :, None] + gamma + beta[1:][
            np.arange(n)[:, None, None], self._next_state[None, :, :]
        ]
        apo_raw = b_metric.max(axis=1)
        apo = apo_raw - apo_raw[:, 0:1]
        extrinsic = 0.75 * (apo - (sys_metric - sys_metric[:, 0:1]) - (apriori - apriori[:, 0:1]))
        return apo, extrinsic, alpha[n].copy(), beta[0].copy()

    def _interleave(self, values):
        reordered = values[self._perm].copy()
        swapped = self._flags[self._perm]
        reordered[swapped] = reordered[swapped][:, [0, 2, 1, 3]]
        return reordered

    def _deinterleave(self, values):
        natural = np.empty_like(values)
        natural[self._perm] = values
        natural[self._flags] = natural[self._flags][:, [0, 2, 1, 3]]
        return natural

    def decode(self, sys_llrs, par1, par2):
        n = sys_llrs.shape[0]
        sys_int = sys_llrs[self._perm].copy()
        swapped = self._flags[self._perm]
        sys_int[swapped] = sys_int[swapped][:, ::-1]
        ext = np.zeros((n, 4))
        alpha1 = beta1 = alpha2 = beta2 = None
        for _ in range(self.max_iterations):
            apo1, ext1, alpha1, beta1 = self._bcjr(sys_llrs, par1, ext, alpha1, beta1)
            apo2, ext2, alpha2, beta2 = self._bcjr(
                sys_int, par2, self._interleave(ext1), alpha2, beta2
            )
            ext = self._deinterleave(ext2)
        return np.argmax(self._deinterleave(apo2), axis=1)


def _make_llr_batch(
    encoder: TurboEncoder, batch: int, seed: int = 7, ebn0_db: float = EBN0_DB
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    modulator = BPSKModulator()
    channel = AWGNChannel(
        ebn0_to_noise_sigma(ebn0_db, resolve_code_rate(encoder.rate)), rng
    )
    info = rng.integers(0, 2, (batch, encoder.k))
    codewords = encoder.encode_batch(info)
    received = channel.transmit(modulator.modulate(codewords))
    return modulator.demodulate_llr(received, channel.llr_noise_variance(False))


def test_turbo_batch_throughput_speedup():
    """The batched turbo engine must beat the seed per-frame path >= 10x."""
    encoder = TurboEncoder(n_couples=N_COUPLES)
    llrs = _make_llr_batch(encoder, BATCH)
    batch_decoder = BatchTurboDecoder(
        encoder, max_iterations=MAX_ITERATIONS, early_termination=False
    )
    seed_decoder = _SeedTurboDecoder(encoder, max_iterations=MAX_ITERATIONS)
    split = batch_decoder.split_llrs_batch(llrs)

    # The baseline must decode the same frames to the same hard symbols.
    batch_result = batch_decoder.decode_batch(llrs)
    for frame in range(BASELINE_FRAMES):
        seed_symbols = seed_decoder.decode(
            split[0][frame], split[1][frame], split[2][frame]
        )
        assert np.array_equal(seed_symbols, batch_result.hard_symbols[frame])

    def run_seed():
        for frame in range(BASELINE_FRAMES):
            seed_decoder.decode(split[0][frame], split[1][frame], split[2][frame])

    samples, _ = trials(
        {"seed": run_seed, "batch": lambda: batch_decoder.decode_batch(llrs)}, TRIALS
    )
    timing = row(per_item(samples, {"seed": BASELINE_FRAMES, "batch": BATCH}), "seed", "s/frame")
    seed, batch = timing["arms"]["seed"]["best"], timing["arms"]["batch"]["best"]
    speedup = seed / batch
    print(
        f"\nturbo max-log (N={N_COUPLES} couples, {MAX_ITERATIONS} it): "
        f"seed per-frame {1 / seed:8.1f} frames/s | "
        f"batch {BATCH} {1 / batch:8.1f} frames/s | speedup {speedup:6.1f}x (best of {TRIALS})"
    )
    record(
        "turbo_batch_throughput",
        "max_log",
        {
            "n_couples": N_COUPLES,
            "batch": BATCH,
            "max_iterations": MAX_ITERATIONS,
            "ebn0_db": EBN0_DB,
            "speedup": round(speedup, 2),
            "timing": timing,
        },
    )
    assert speedup >= 10.0


def test_turbo_batch_early_exit_gain():
    """Per-frame early exit pays: fewer iterations on average, same decisions."""
    encoder = TurboEncoder(n_couples=N_COUPLES)
    llrs = _make_llr_batch(encoder, BATCH, seed=11)
    eager = BatchTurboDecoder(encoder, max_iterations=MAX_ITERATIONS)
    exhaustive = BatchTurboDecoder(
        encoder, max_iterations=MAX_ITERATIONS, early_termination=False
    )
    eager_result = eager.decode_batch(llrs)
    # At this operating point most frames stabilise early and leave the
    # active set (the converged flags latch), so the batch finishes in fewer
    # SISO activations than the exhaustive run.
    assert eager_result.converged.mean() > 0.5

    samples, _ = trials(
        {
            "exhaustive": lambda: exhaustive.decode_batch(llrs),
            "early_exit": lambda: eager.decode_batch(llrs),
        },
        TRIALS,
    )
    timing = row(samples, "exhaustive")
    gain = timing["arms"]["exhaustive"]["best"] / timing["arms"]["early_exit"]["best"]
    avg_iterations = float(eager_result.iterations.mean())
    print(
        f"\nturbo early exit at {EBN0_DB} dB: avg {avg_iterations:.1f}/{MAX_ITERATIONS} it, "
        f"gain {gain:.2f}x frames/s over exhaustive (best of {TRIALS})"
    )
    record(
        "turbo_batch_throughput",
        "early_exit",
        {
            "n_couples": N_COUPLES,
            "batch": BATCH,
            "ebn0_db": EBN0_DB,
            "avg_iterations": round(avg_iterations, 2),
            "gain": round(gain, 3),
            "timing": timing,
        },
    )
    assert avg_iterations <= MAX_ITERATIONS
    assert gain >= 0.9  # early exit must never cost throughput


def test_turbo_ctc2400_throughput():
    """CTC 2400 at batch 32: early-exit and exhaustive frames/s vs the seed path."""
    encoder = TurboEncoder(n_couples=CTC2400_COUPLES)
    llrs = _make_llr_batch(encoder, CTC2400_BATCH, ebn0_db=CTC2400_EBN0_DB)
    eager = BatchTurboDecoder(encoder, max_iterations=MAX_ITERATIONS)
    exhaustive = BatchTurboDecoder(
        encoder, max_iterations=MAX_ITERATIONS, early_termination=False
    )
    seed_decoder = _SeedTurboDecoder(encoder, max_iterations=MAX_ITERATIONS)
    sys_llrs, par1, par2 = exhaustive.split_llrs_batch(llrs)

    def run_seed():
        return seed_decoder.decode(sys_llrs[0], par1[0], par2[0])

    # The baseline decodes the timed frame to the same hard symbols.
    assert np.array_equal(run_seed(), exhaustive.decode_batch(llrs).hard_symbols[0])
    eager.decode_batch(llrs)  # warm-up
    samples, _ = trials(
        {
            "seed": run_seed,
            "early_exit": lambda: eager.decode_batch(llrs),
            "exhaustive": lambda: exhaustive.decode_batch(llrs),
        },
        CTC2400_TRIALS,
    )
    frames = {"seed": 1, "early_exit": CTC2400_BATCH, "exhaustive": CTC2400_BATCH}
    timing = row(per_item(samples, frames), "seed", "s/frame")
    fps = {name: 1 / arm["median"] for name, arm in timing["arms"].items()}
    speedups = {name: vs["ratio"] for name, vs in timing["vs"].items()}
    print(
        f"\nturbo max-log CTC {CTC2400_COUPLES} couples, batch {CTC2400_BATCH}, "
        f"{CTC2400_EBN0_DB} dB, {CTC2400_TRIALS} interleaved trials (median frames/s): "
        f"seed per-frame {fps['seed']:.2f} | "
        f"early exit {fps['early_exit']:.1f} ({speedups['early_exit']:.1f}x) | "
        f"exhaustive {fps['exhaustive']:.1f} ({speedups['exhaustive']:.1f}x)"
    )
    record(
        "turbo_batch_throughput",
        "ctc2400_max_log",
        {
            "n_couples": CTC2400_COUPLES,
            "batch": CTC2400_BATCH,
            "max_iterations": MAX_ITERATIONS,
            "ebn0_db": CTC2400_EBN0_DB,
            "timing": timing,
        },
    )
