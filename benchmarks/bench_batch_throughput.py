"""Benchmark: batched BER engine vs the seed per-frame decoders.

The ROADMAP asks for hot-path speedups; this bench quantifies the one the
batch engine delivers.  The *baseline* is a faithful re-implementation of the
seed repository's per-frame message passing (Python loop over per-row message
lists, one frame at a time) for both schedules; the *contender* is the
``(batch, n)`` engine of :mod:`repro.sim` at batch 64.  The acceptance target
is >= 10x frames/sec on the flooding schedule; in practice the margin is much
larger.  Both sides run as interleaved trials (:mod:`benchmarks.harness`),
and the gate reads each side's best time per frame.

The ``fixed_vs_float`` rows time the layered decoder's two datapaths against
each other (no gate): the fixed-point one on int16 levels in a
variable-major layout, the float64 one (the baseline) frames-first.

The ``fx_layout`` rows time the fixed-point layered decoder, whose layer
tensors are degree-major ``(d, z, batch)``, against an inline copy of the
check-major ``(z, d, batch)`` layer step and min-sum kernel it replaced,
at batches 1, 3 and 64; the batch-3 and batch-64 rows are gated on the
degree-major step winning, and the batch-1 rows, whose margin is within
host noise, are recorded only.

The ``encode`` and ``syndrome`` rows time the BER chain's two LDPC stages
outside the check kernel against inline copies of the implementations they
replaced: the int64 GF(2) encode product, and the syndrome count on
unpacked ``uint8`` edge bits.  The syndrome rows are gated on the byte-lane
count winning at every batch size, the decode service's batches of 1-3
included.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_batch_throughput.py -q -s``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.errors import DecodingError
from repro.ldpc import wimax_ldpc_code
from repro.ldpc.checknode import hard_decision, min_sum_check_update
from repro.sim import BatchFloodingDecoder, BatchLayeredDecoder, EdgeIndex
from repro.sim.batch import _EXTRINSIC_TABLE, _LAMBDA_MAX, _LAMBDA_MIN

from benchmarks.harness import per_item, record, row, trials

BATCH = 64
MAX_ITERATIONS = 10
EBN0_DB = 2.0
#: Frames timed on the (slow) seed baseline; frames/sec extrapolates.
BASELINE_FRAMES = 8
#: Interleaved (seed, batch) trials; the gate compares best times.
TRIALS = 3
#: Interleaved (float, fixed) trials of the fixed_vs_float rows.
DATAPATH_TRIALS = 7
#: Interleaved (check-major, degree-major) trials of the fx_layout rows.
LAYOUT_TRIALS = 9
#: Interleaved (baseline, current) trials of the encode and syndrome rows,
#: and the calls each arm's trial times (so that one trial spans milliseconds).
STAGE_TRIALS = 15
STAGE_CALLS = {
    "encode": {"baseline": 1, "current": 10},
    "syndrome": {"baseline": 200, "current": 200},
}


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
    """The seed repository's per-frame flooding loop (min-sum kernel, no early exit)."""
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
    """The seed repository's per-frame layered loop (float, no early exit)."""
    lam = llrs_in.copy()
    r_messages = [np.zeros(row.size, dtype=np.float64) for row in rows]
    for _ in range(MAX_ITERATIONS):
        for check_idx, cols in enumerate(rows):
            q_values = lam[cols] - r_messages[check_idx]
            r_new = min_sum_check_update(q_values, scaling=0.75)
            lam[cols] = q_values + r_new
            r_messages[check_idx] = r_new
    return hard_decision(lam)


def _compare(code, seed_decode, batch_decoder, llrs, label) -> tuple[dict, float]:
    """Interleaved seed/batch trials, per frame: (timed row, gated speedup).

    The gate reads the seed path's best time over the batch engine's.
    """
    rows = [code.h.row(r) for r in range(code.h.n_rows)]

    def run_seed():
        for frame in range(BASELINE_FRAMES):
            seed_decode(code.h, rows, llrs[frame])

    def run_batch():
        batch_decoder.decode_batch(llrs)

    run_seed()  # warm-up
    run_batch()
    samples, _ = trials({"seed": run_seed, "batch": run_batch}, TRIALS)
    timing = row(per_item(samples, {"seed": BASELINE_FRAMES, "batch": BATCH}), "seed", "s/frame")
    seed, batch = timing["arms"]["seed"]["best"], timing["arms"]["batch"]["best"]
    print(
        f"\n{label}: seed per-frame {1 / seed:8.1f} frames/s | "
        f"batch {BATCH} {1 / batch:8.1f} frames/s | "
        f"speedup {seed / batch:6.1f}x (best of {TRIALS})"
    )
    return timing, seed / batch


def test_batch_flooding_throughput_speedup():
    """Flooding min-sum: the batch engine must beat the seed path >= 10x."""
    code = wimax_ldpc_code(576, "1/2")
    llrs = _make_llr_batch(code, BATCH)
    decoder = BatchFloodingDecoder(
        code.h, max_iterations=MAX_ITERATIONS, kernel="min-sum", early_termination=False
    )
    timing, speedup = _compare(
        code, _seed_flooding_decode, decoder, llrs,
        f"flooding  (n={code.n}, {MAX_ITERATIONS} it)",
    )
    record(
        "batch_throughput",
        "flooding",
        {"n": code.n, "batch": BATCH, "max_iterations": MAX_ITERATIONS,
         "ebn0_db": EBN0_DB, "speedup": round(speedup, 2), "timing": timing},
    )
    assert speedup >= 10.0


@pytest.mark.parametrize(
    "n, rate, ebn0_db, key",
    [(576, "1/2", EBN0_DB, "layered"), (2304, "5/6", 4.0, "layered_2304_r5/6")],
)
def test_batch_layered_throughput_speedup(n, rate, ebn0_db, key):
    """Layered min-sum, one step per layer of column-disjoint checks: >= 10x the seed path."""
    code = wimax_ldpc_code(n, rate)
    llrs = _make_llr_batch(code, BATCH, ebn0_db=ebn0_db)
    decoder = BatchLayeredDecoder(
        code.h, max_iterations=MAX_ITERATIONS, early_termination=False
    )
    timing, speedup = _compare(
        code, _seed_layered_decode, decoder, llrs,
        f"layered   (n={code.n} r{rate}, {MAX_ITERATIONS} it)",
    )
    record(
        "batch_throughput",
        key,
        {"n": code.n, "rate": rate, "batch": BATCH, "max_iterations": MAX_ITERATIONS,
         "ebn0_db": ebn0_db, "speedup": round(speedup, 2), "timing": timing},
    )
    assert speedup >= 10.0


@pytest.mark.parametrize("batch", [BATCH, 1])
@pytest.mark.parametrize("n, rate, ebn0_db", [(576, "1/2", EBN0_DB), (2304, "5/6", 4.0)])
def test_layered_fixed_vs_float(n, rate, ebn0_db, batch):
    """Layered min-sum, fixed-point vs float64 datapath, at batch 64 and batch 1.

    Each arm decodes the same 64 frames, ``batch`` at a time; no gate.
    """
    code = wimax_ldpc_code(n, rate)
    llrs = _make_llr_batch(code, BATCH, ebn0_db=ebn0_db)
    chunks = [llrs[start:start + batch] for start in range(0, BATCH, batch)]

    def arm(fixed_point: bool):
        decoder = BatchLayeredDecoder(
            code.h, max_iterations=MAX_ITERATIONS, fixed_point=fixed_point,
            early_termination=False,
        )

        def run():
            for chunk in chunks:
                decoder.decode_batch(chunk)

        run()  # warm-up
        return run

    samples, _ = trials({"float": arm(False), "fixed": arm(True)}, DATAPATH_TRIALS)
    timing = row(per_item(samples, {"float": BATCH, "fixed": BATCH}), "float", "s/frame")
    ratio = timing["vs"]["fixed"]["ratio"]
    print(
        f"\nlayered n={n} r{rate} batch {batch}: fixed-point / float64 speed "
        f"{ratio:5.2f}x (median of {DATAPATH_TRIALS}, "
        f"{timing['vs']['fixed']['wins']}/{DATAPATH_TRIALS} wins)"
    )
    record(
        "batch_throughput",
        f"fixed_vs_float_{n}_r{rate}_b{batch}",
        {"n": n, "rate": rate, "batch": batch, "max_iterations": MAX_ITERATIONS,
         "ebn0_db": ebn0_db, "timing": timing},
    )


class _CheckMajorLayeredDecoder(BatchLayeredDecoder):
    """The replaced fixed-point layer step: check-major ``(z, d, active)`` tensors.

    ``decode_batch`` is inherited, so the two arms differ in the layer step
    and the min-sum kernel only.
    """

    __slots__ = ()

    def __init__(self, h):
        super().__init__(h, max_iterations=MAX_ITERATIONS, fixed_point=True)
        self._layers = tuple(
            layer._replace(cols=np.ascontiguousarray(layer.cols.T)) for layer in self._layers
        )
        self._positions = self._positions.reshape(-1, 1)

    def _level_layer(self, lam, r, layer):
        q = np.take(lam, layer.cols, axis=0)  # (z, d, active)
        q -= r[layer.edges].reshape(q.shape)
        r_new = self._min_sum_levels(q)
        q += r_new
        np.clip(q, _LAMBDA_MIN, _LAMBDA_MAX, out=q)
        lam[layer.cols] = q
        r[layer.edges] = r_new.reshape(-1, q.shape[-1])

    def _min_sum_levels(self, q):
        if q.shape[1] < 2:
            raise DecodingError("check update needs at least two edge messages")
        shift = self._key_shift
        keys = np.abs(q).astype(self._positions.dtype, copy=False)
        keys <<= shift
        keys |= self._positions[: q.shape[1]]
        min1 = keys.min(axis=1, keepdims=True)
        keys -= min1 + 1
        min2 = keys.view(f"u{keys.itemsize}").min(axis=1, keepdims=True).view(keys.dtype)
        min2 += min1 + 1
        holder = keys >> (8 * keys.itemsize - 1)
        negative = q >> 15
        parity = np.bitwise_xor.reduce(negative, axis=1, keepdims=True)
        first = (_EXTRINSIC_TABLE[min1 >> shift] ^ parity) - parity
        second = (_EXTRINSIC_TABLE[min2 >> shift] ^ parity) - parity
        r_new = holder & (second - first)
        r_new += first
        r_new ^= negative
        r_new -= negative
        return r_new.astype(np.int16, copy=False)


@pytest.mark.parametrize("batch", [1, 3, BATCH])
@pytest.mark.parametrize("n, rate, ebn0_db", [(576, "1/2", EBN0_DB), (2304, "5/6", 4.0)])
def test_fixed_point_degree_major_vs_check_major(n, rate, ebn0_db, batch):
    """Fixed-point layered decodes, degree-major vs check-major layer tensors.

    Each arm decodes the same 64 frames, ``batch`` at a time, with early
    termination; the degree-major step must win from batch 3 up.
    """
    code = wimax_ldpc_code(n, rate)
    llrs = _make_llr_batch(code, BATCH, ebn0_db=ebn0_db)
    chunks = [llrs[start:start + batch] for start in range(0, BATCH, batch)]
    decoders = {
        "baseline": _CheckMajorLayeredDecoder(code.h),
        "current": BatchLayeredDecoder(code.h, max_iterations=MAX_ITERATIONS, fixed_point=True),
    }
    for chunk in chunks:
        before, after = (d.decode_batch(chunk) for d in decoders.values())
        assert np.array_equal(before.llrs, after.llrs)
        assert np.array_equal(before.iterations, after.iterations)

    def arm(decoder):
        def run():
            for chunk in chunks:
                decoder.decode_batch(chunk)

        return run

    samples, _ = trials({name: arm(d) for name, d in decoders.items()}, LAYOUT_TRIALS)
    timing = row(per_item(samples, dict.fromkeys(decoders, BATCH)), "baseline", "s/frame")
    vs = timing["vs"]["current"]
    print(
        f"\nfx_layout n={n} r{rate} batch {batch}: degree-major "
        f"{vs['ratio']:5.2f}x check-major ({vs['wins']}/{LAYOUT_TRIALS} wins, "
        f"median of {LAYOUT_TRIALS})"
    )
    record(
        "batch_throughput",
        f"fx_layout_{n}_r{rate}_b{batch}",
        {"n": n, "rate": rate, "batch": batch, "max_iterations": MAX_ITERATIONS,
         "ebn0_db": ebn0_db, "timing": timing},
    )
    if batch > 1:
        assert vs["ratio"] > 1.0


# --------------------------------------------------------------------------- #
# The BER chain outside the check kernel: encode and syndrome count.
# --------------------------------------------------------------------------- #
def _int64_encode_batch(encoder, parity_map: np.ndarray, info: np.ndarray) -> np.ndarray:
    """The replaced ``LDPCEncoder.encode_batch``: an int64 GF(2) product (no BLAS)."""
    bits = np.asarray(info, dtype=np.int64)
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("information bits must be 0/1 values")
    parity = (bits @ parity_map.astype(np.int64).T) % 2
    codewords = np.zeros((bits.shape[0], encoder.n), dtype=np.int8)
    codewords[:, encoder.systematic_columns] = bits.astype(np.int8)
    codewords[:, encoder._parity_columns] = parity.astype(np.int8)
    return codewords


def _unpacked_unsatisfied_counts(edges, hard_bits: np.ndarray, axis: int = -1) -> np.ndarray:
    """The replaced ``EdgeIndex.unsatisfied_counts``: one byte per edge bit."""
    bits = np.asarray(hard_bits).astype(np.uint8, copy=False)
    edge_bits = np.take(bits, edges.edge_cols, axis=axis)
    parity = np.bitwise_xor.reduceat(edge_bits, edges.row_ptr[:-1], axis=axis) & 1
    return parity.sum(axis=axis, dtype=np.int64)


def _stage_row(stage: str, arms: dict, key: str, meta: dict) -> dict:
    """Interleaved baseline/current trials of one stage, seconds per call."""
    calls = STAGE_CALLS[stage]

    def repeat(call, count):
        def run():
            for _ in range(count):
                call()

        return run

    runs = {name: repeat(call, calls[name]) for name, call in arms.items()}
    for run in runs.values():
        run()  # warm-up
    samples, _ = trials(runs, STAGE_TRIALS)
    timing = row(per_item(samples, calls), "baseline", "s/call")
    vs = timing["vs"]["current"]
    print(
        f"\n{key}: {timing['arms']['current']['median'] * 1e6:8.1f} us/call, "
        f"{vs['ratio']:5.2f}x the replaced path "
        f"({vs['wins']}/{STAGE_TRIALS} wins, median of {STAGE_TRIALS})"
    )
    record("batch_throughput", key, {**meta, "timing": timing})
    return vs


@pytest.mark.parametrize("n, rate", [(576, "1/2"), (2304, "5/6")])
def test_encode_float32_vs_int64(n, rate):
    """``encode_batch`` at batch 64: the float32 BLAS product vs the int64 one.

    No gate: on a 2-core host, back-to-back float32 products at 576 stall
    for ~16 ms in some trials (OpenBLAS worker threads; none with
    ``OPENBLAS_NUM_THREADS=1``), which the row's spread records.
    """
    code = wimax_ldpc_code(n, rate)
    encoder = code.encoder
    # E, (M, k) uint8, as the replaced encoder held it.
    parity_map = np.ascontiguousarray(encoder._encode_matrix_t.T)
    info = np.random.default_rng(7).integers(0, 2, (BATCH, code.k))
    assert np.array_equal(
        encoder.encode_batch(info), _int64_encode_batch(encoder, parity_map, info)
    )
    _stage_row(
        "encode",
        {
            "baseline": lambda: _int64_encode_batch(encoder, parity_map, info),
            "current": lambda: encoder.encode_batch(info),
        },
        f"encode_{n}_r{rate}_b{BATCH}",
        {"n": n, "rate": rate, "batch": BATCH},
    )


@pytest.mark.parametrize("batch", [1, 3, BATCH])
@pytest.mark.parametrize("n, rate", [(576, "1/2"), (2304, "5/6")])
def test_syndrome_byte_lanes_vs_unpacked(n, rate, batch):
    """``unsatisfied_counts`` on the decoders' in-loop input, ``(n, batch)`` bools."""
    code = wimax_ldpc_code(n, rate)
    edges = EdgeIndex(code.h)
    hard = np.ascontiguousarray(_make_llr_batch(code, batch, ebn0_db=0.0).T < 0)
    assert np.array_equal(
        edges.unsatisfied_counts(hard, axis=0), _unpacked_unsatisfied_counts(edges, hard, 0)
    )
    vs = _stage_row(
        "syndrome",
        {
            "baseline": lambda: _unpacked_unsatisfied_counts(edges, hard, 0),
            "current": lambda: edges.unsatisfied_counts(hard, axis=0),
        },
        f"syndrome_{n}_r{rate}_b{batch}",
        {"n": n, "rate": rate, "batch": batch, "layout": "(n, batch) bool"},
    )
    assert vs["ratio"] > 1.0
