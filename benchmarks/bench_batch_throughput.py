"""Benchmark: batched BER engine vs the seed per-frame decoders.

The ROADMAP asks for hot-path speedups; this bench quantifies the one the
batch engine delivers.  The *baseline* is a faithful re-implementation of the
seed repository's per-frame message passing (Python loop over per-row message
lists, one frame at a time) for both schedules; the *contender* is the
``(batch, n)`` engine of :mod:`repro.sim` at batch 64.  The acceptance target
is >= 10x frames/sec on the flooding schedule; in practice the margin is much
larger.

A last row justifies the flooding decoder's kernel choice on multi-degree
codes: the flat segment min-sum (:func:`min_sum_update_segments`) against the
per-degree-group dense loop it replaces, on the same ``(64, n_edges)``
variable-to-check array of WiMAX 2304 r3/4A, timed as interleaved trials.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_batch_throughput.py -q -s``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.ldpc import wimax_ldpc_code
from repro.ldpc.checknode import hard_decision, min_sum_check_update
from repro.sim import BatchFloodingDecoder, BatchLayeredDecoder, EdgeIndex
from repro.sim.kernels import min_sum_update, min_sum_update_segments

BATCH = 64
MAX_ITERATIONS = 10
EBN0_DB = 2.0
#: Frames timed on the (slow) seed baseline; frames/sec extrapolates.
BASELINE_FRAMES = 8
#: Interleaved (segment, dense) trial pairs of the kernel-choice row.
KERNEL_TRIALS = 31


def _make_llr_batch(code, batch: int, seed: int = 7, ebn0_db: float = EBN0_DB) -> np.ndarray:
    rng = np.random.default_rng(seed)
    modulator = BPSKModulator()
    channel = AWGNChannel(ebn0_to_noise_sigma(ebn0_db, code.rate), rng)
    info = rng.integers(0, 2, (batch, code.k))
    codewords = code.encode_batch(info)
    received = channel.transmit(modulator.modulate(codewords))
    return modulator.demodulate_llr(received, channel.llr_noise_variance(False))


# --------------------------------------------------------------------------- #
# Seed-repository per-frame algorithms (list-of-arrays message passing).
# --------------------------------------------------------------------------- #
def _seed_flooding_decode(h, rows, llrs_in: np.ndarray) -> np.ndarray:
    """The seed FloodingDecoder.decode loop (min-sum kernel, no early exit)."""
    n_rows = h.n_rows
    c2v = [np.zeros(row.size, dtype=np.float64) for row in rows]
    posterior = llrs_in.copy()
    for _ in range(MAX_ITERATIONS):
        v2c = [posterior[rows[r]] - c2v[r] for r in range(n_rows)]
        c2v = [min_sum_check_update(v2c[r], scaling=0.75) for r in range(n_rows)]
        posterior = llrs_in.copy()
        for r in range(n_rows):
            posterior[rows[r]] += c2v[r]
    return hard_decision(posterior)


def _seed_layered_decode(h, rows, llrs_in: np.ndarray) -> np.ndarray:
    """The seed LayeredMinSumDecoder.decode loop (float, no early exit)."""
    lam = llrs_in.copy()
    r_messages = [np.zeros(row.size, dtype=np.float64) for row in rows]
    for _ in range(MAX_ITERATIONS):
        for check_idx, cols in enumerate(rows):
            q_values = lam[cols] - r_messages[check_idx]
            r_new = min_sum_check_update(q_values, scaling=0.75)
            lam[cols] = q_values + r_new
            r_messages[check_idx] = r_new
    return hard_decision(lam)


def _frames_per_second(fn, frames: int, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return frames / best


def _compare(code, seed_decode, batch_decoder, llrs, bench_print, label):
    rows = [code.h.row(r) for r in range(code.h.n_rows)]

    def run_seed():
        for frame in range(BASELINE_FRAMES):
            seed_decode(code.h, rows, llrs[frame])

    def run_batch():
        batch_decoder.decode_batch(llrs)

    run_seed()  # warm-up
    run_batch()
    seed_fps = _frames_per_second(run_seed, BASELINE_FRAMES)
    batch_fps = _frames_per_second(run_batch, BATCH)
    speedup = batch_fps / seed_fps
    bench_print(
        f"{label}: seed per-frame {seed_fps:8.1f} frames/s | "
        f"batch {BATCH} {batch_fps:8.1f} frames/s | speedup {speedup:6.1f}x"
    )
    return speedup, run_batch


@pytest.mark.benchmark(group="batch-throughput")
def test_batch_flooding_throughput_speedup(benchmark, bench_print, bench_json):
    """Flooding min-sum: the batch engine must beat the seed path >= 10x."""
    code = wimax_ldpc_code(576, "1/2")
    llrs = _make_llr_batch(code, BATCH)
    decoder = BatchFloodingDecoder(
        code.h, max_iterations=MAX_ITERATIONS, kernel="min-sum", early_termination=False
    )
    speedup, run_batch = _compare(
        code, _seed_flooding_decode, decoder, llrs, bench_print,
        f"flooding  (n={code.n}, {MAX_ITERATIONS} it)",
    )
    bench_json(
        "batch_throughput",
        "flooding",
        {"n": code.n, "batch": BATCH, "max_iterations": MAX_ITERATIONS,
         "ebn0_db": EBN0_DB, "speedup": round(speedup, 2)},
    )
    benchmark(run_batch)
    assert speedup >= 10.0


@pytest.mark.benchmark(group="batch-throughput")
@pytest.mark.parametrize(
    "n, rate, ebn0_db, key",
    [(576, "1/2", EBN0_DB, "layered"), (2304, "5/6", 4.0, "layered_2304_r5/6")],
)
def test_batch_layered_throughput_speedup(
    benchmark, bench_print, bench_json, n, rate, ebn0_db, key
):
    """Layered min-sum, one step per layer of column-disjoint checks: >= 10x the seed path."""
    code = wimax_ldpc_code(n, rate)
    llrs = _make_llr_batch(code, BATCH, ebn0_db=ebn0_db)
    decoder = BatchLayeredDecoder(
        code.h, max_iterations=MAX_ITERATIONS, early_termination=False
    )
    speedup, run_batch = _compare(
        code, _seed_layered_decode, decoder, llrs, bench_print,
        f"layered   (n={code.n} r{rate}, {MAX_ITERATIONS} it)",
    )
    bench_json(
        "batch_throughput",
        key,
        {"n": code.n, "rate": rate, "batch": BATCH, "max_iterations": MAX_ITERATIONS,
         "ebn0_db": ebn0_db, "speedup": round(speedup, 2)},
    )
    benchmark(run_batch)
    assert speedup >= 10.0


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_s": float(median), "iqr_s": float(q3 - q1)}


@pytest.mark.benchmark(group="batch-throughput")
def test_segment_min_sum_beats_dense_groups(benchmark, bench_print, bench_json):
    """Flooding check phase on a two-degree code: one segment call vs one dense call per group."""
    code = wimax_ldpc_code(2304, "3/4A")
    edges = EdgeIndex(code.h)
    assert len(edges.check_groups) > 1  # the case the decoder routes to segments
    # Row-major like the decoder's v2c (gathered posterior minus the previous
    # check messages); the bare column gather would be Fortran-ordered.
    v2c = np.ascontiguousarray(edges.gather(_make_llr_batch(code, BATCH)))

    def segment():
        return min_sum_update_segments(v2c, edges.row_ptr)

    def dense():
        out = np.empty_like(v2c)
        for group in edges.check_groups:
            out[:, group.edges] = min_sum_update(v2c[:, group.edges])
        return out

    assert np.array_equal(segment().view(np.int64), dense().view(np.int64))
    times = {segment: [], dense: []}
    for trial in range(KERNEL_TRIALS):
        for fn in (segment, dense) if trial % 2 == 0 else (dense, segment):
            start = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - start)
    seg, den = _quartiles(times[segment]), _quartiles(times[dense])
    ratio = den["median_s"] / seg["median_s"]
    pair_ratios = np.array(times[dense]) / np.array(times[segment])
    won = int((pair_ratios > 1.0).sum())
    bench_print(
        f"check phase (n={code.n} r3/4A, batch {BATCH}, {edges.n_edges} edges): "
        f"segment {1e3 * seg['median_s']:.2f} ms (IQR {1e3 * seg['iqr_s']:.2f}) | "
        f"dense per group {1e3 * den['median_s']:.2f} ms (IQR {1e3 * den['iqr_s']:.2f}) | "
        f"dense/segment {ratio:.2f}x (segment won {won}/{KERNEL_TRIALS} pairs)"
    )
    bench_json(
        "batch_throughput",
        "segment_vs_dense_2304_r3/4A",
        {"n": code.n, "rate": "3/4A", "batch": BATCH, "n_edges": edges.n_edges,
         "check_degrees": sorted({g.degree for g in edges.check_groups}),
         "trials": KERNEL_TRIALS,
         "segment": {k: round(v, 6) for k, v in seg.items()},
         "dense_per_group": {k: round(v, 6) for k, v in den.items()},
         "dense_over_segment": round(ratio, 3),
         "pair_ratio_median": round(float(np.median(pair_ratios)), 3),
         "segment_won_pairs": won},
    )
    benchmark(segment)
    assert ratio >= 1.0
