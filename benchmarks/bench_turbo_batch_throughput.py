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
exhaustive.  A third, ``ctc2400_workspace``, pits the decoder against an
inline copy of the batch-major exchange it replaced (fresh metrics and
lattice arrays and transposes in every SISO activation) at the same point,
with the minor page faults of each decode.  Every row is interleaved trials
(:mod:`benchmarks.harness`) recorded per frame as median, IQR, n and best;
the first two gates read best times, the workspace gate the median ratio.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_turbo_batch_throughput.py -q -s``.
"""

from __future__ import annotations

import resource

import numpy as np
from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.sim import BatchTurboDecoder, resolve_code_rate
from repro.sim.turbo_batch import EXTRINSIC_SCALE
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
#: Interleaved trials of the workspace row (one batch decode per arm each).
WORKSPACE_TRIALS = 7

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


# --------------------------------------------------------------------------- #
# The replaced batch-major exchange (fresh SISO arrays per activation).
# --------------------------------------------------------------------------- #
class _BatchMajorTurboDecoder:
    """The decoder loop as it was before the state-major exchange.

    Every SISO activation allocates its own ``(n, 16, b)`` metrics and
    ``(n + 1, 16, b)`` lattice and transposes its a-priori, extrinsic and
    a-posteriori between ``(b, n, 4)`` and ``(n, 4, b)``; the exchange is
    batch-major.  The recursion and a-posteriori kernels are the current
    ones, unchanged by the rewrite.
    """

    def __init__(self, decoder: BatchTurboDecoder):
        self._decoder = decoder
        self._siso = decoder._siso

    def _activation(self, sys_llrs, par_llrs, apriori, initial_alpha, initial_beta):
        siso = self._siso
        batch, n = sys_llrs.shape[:2]
        apr_t = apriori.transpose(1, 2, 0)
        systematic = siso._systematic_metrics(sys_llrs.transpose(1, 2, 0))
        par_t = par_llrs.transpose(1, 2, 0)
        y_llr, w_llr = par_t[:, 0], par_t[:, 1]
        parity = np.empty((n, 4, batch), dtype=np.float64)
        np.add(y_llr, w_llr, out=parity[:, 0])
        np.subtract(y_llr, w_llr, out=parity[:, 1])
        np.subtract(w_llr, y_llr, out=parity[:, 2])
        np.negative(parity[:, 0], out=parity[:, 3])
        parity *= 0.5
        metrics = parity[:, :, None] + systematic[:, None]
        metrics += apr_t[:, None]
        metrics = metrics.reshape(n, 16, batch)
        lattice = np.empty((n + 1, 16, batch), dtype=np.float64)
        for row_slice, init in ((slice(0, 8), initial_alpha), (slice(8, 16), initial_beta)):
            if init is None:
                lattice[0, row_slice] = 0.0
            else:
                lattice[0, row_slice] = (init - np.amax(init, axis=1, keepdims=True)).T
        siso._recurse(metrics, lattice)
        apo_raw = siso._aposteriori(metrics, lattice)
        final_alpha = np.ascontiguousarray(lattice[n, :8].T)
        final_beta = np.ascontiguousarray(lattice[n, 8:].T)
        del metrics, lattice
        apo = apo_raw - apo_raw[:, 0:1]
        extrinsic = apo - (systematic - systematic[:, 0:1])
        extrinsic -= apr_t - apr_t[:, 0:1]
        extrinsic *= EXTRINSIC_SCALE
        aposteriori = np.ascontiguousarray(apo.transpose(2, 0, 1))
        np.argmax(aposteriori, axis=2)  # the hard decisions the loop discarded
        return (
            aposteriori,
            np.ascontiguousarray(extrinsic.transpose(2, 0, 1)),
            final_alpha,
            final_beta,
        )

    @staticmethod
    def _reorder(values, flat_index):
        return values.reshape(values.shape[0], -1).take(flat_index, axis=1).reshape(values.shape)

    def decode(self, sys_llrs, par1, par2):
        """Hard symbols, a-posteriori and iterations of an early-exit decode."""
        dec = self._decoder
        batch, n = sys_llrs.shape[:2]
        iterations = np.zeros(batch, dtype=np.int64)
        hard_out = np.zeros((batch, n), dtype=np.int64)
        apo_out = np.zeros((batch, n, 4), dtype=np.float64)
        act_idx = np.arange(batch)
        act_sys, act_par1, act_par2 = sys_llrs, par1, par2
        act_sys_int = self._reorder(sys_llrs, dec._interleave_bits)
        ext_2_to_1 = np.zeros((batch, n, 4), dtype=np.float64)
        alpha1 = beta1 = alpha2 = beta2 = None
        previous = None
        for iteration in range(dec.max_iterations):
            if act_idx.size == 0:
                break
            _, ext1, alpha1, beta1 = self._activation(
                act_sys, act_par1, ext_2_to_1, alpha1, beta1
            )
            ext_1_to_2 = self._reorder(ext1, dec._interleave_symbols)
            apo2, ext2, alpha2, beta2 = self._activation(
                act_sys_int, act_par2, ext_1_to_2, alpha2, beta2
            )
            ext_2_to_1 = self._reorder(ext2, dec._deinterleave_symbols)
            apo_natural = self._reorder(apo2, dec._deinterleave_symbols)
            hard = np.argmax(apo_natural, axis=2).astype(np.int64)
            iterations[act_idx] = iteration + 1
            hard_out[act_idx] = hard
            apo_out[act_idx] = apo_natural
            if previous is None:
                previous = hard
                continue
            keep = np.count_nonzero(hard != previous, axis=1) != 0
            act_idx = act_idx[keep]
            act_sys, act_sys_int = act_sys[keep], act_sys_int[keep]
            act_par1, act_par2 = act_par1[keep], act_par2[keep]
            ext_2_to_1 = ext_2_to_1[keep]
            alpha1, beta1 = alpha1[keep], beta1[keep]
            alpha2, beta2 = alpha2[keep], beta2[keep]
            previous = hard[keep]
        return hard_out, apo_out, iterations


def _counting_faults(call, faults: list[int]):
    """Wrap ``call`` to append the minor page faults each run takes."""

    def run():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    return run


def test_turbo_ctc2400_workspace():
    """State-major exchange with one workspace per decode vs the replaced loop."""
    encoder = TurboEncoder(n_couples=CTC2400_COUPLES)
    llrs = _make_llr_batch(encoder, CTC2400_BATCH, ebn0_db=CTC2400_EBN0_DB)
    decoder = BatchTurboDecoder(encoder, max_iterations=MAX_ITERATIONS)
    baseline = _BatchMajorTurboDecoder(decoder)
    split = decoder.split_llrs_batch(llrs)
    # The replaced split handed over contiguous batch-major sub-blocks.
    split_batch_major = [np.ascontiguousarray(block) for block in split]

    current = decoder.decode_split(*split)
    hard, apo, iterations = baseline.decode(*split_batch_major)
    assert np.array_equal(current.hard_symbols, hard)
    assert np.array_equal(current.aposteriori, apo)
    assert np.array_equal(current.iterations, iterations)

    faults: dict[str, list[int]] = {"baseline": [], "current": []}
    samples, _ = trials(
        {
            "baseline": _counting_faults(
                lambda: baseline.decode(*split_batch_major), faults["baseline"]
            ),
            "current": _counting_faults(lambda: decoder.decode_split(*split), faults["current"]),
        },
        WORKSPACE_TRIALS,
    )
    frames = {"baseline": CTC2400_BATCH, "current": CTC2400_BATCH}
    timing = row(per_item(samples, frames), "baseline", "s/frame")
    vs = timing["vs"]["current"]
    minor_faults = {name: int(np.median(counts)) for name, counts in faults.items()}
    print(
        f"\nturbo CTC {CTC2400_COUPLES} batch {CTC2400_BATCH} workspace: "
        f"{1 / timing['arms']['current']['median']:.1f} frames/s, {vs['ratio']:.2f}x the "
        f"batch-major exchange ({vs['wins']}/{WORKSPACE_TRIALS} wins); minor faults per "
        f"decode {minor_faults['baseline']} -> {minor_faults['current']}"
    )
    record(
        "turbo_batch_throughput",
        "ctc2400_workspace",
        {
            "n_couples": CTC2400_COUPLES,
            "batch": CTC2400_BATCH,
            "max_iterations": MAX_ITERATIONS,
            "ebn0_db": CTC2400_EBN0_DB,
            "minor_faults_per_decode": minor_faults,
            "timing": timing,
        },
    )
    assert vs["ratio"] > 1.0
