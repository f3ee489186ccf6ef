"""Benchmark of the functional (BER-level) claims behind the architecture.

The paper's algorithmic choices rest on claims from Section II / IV:

* the layered schedule converges roughly twice as fast as two-phase flooding,
* the normalized-min-sum approximation and Max-Log-MAP are adequate,
* exchanging bit-level instead of symbol-level turbo extrinsics (the BTS/STB
  path used on the NoC) costs only a small amount of BER performance.

Full BER curves are slow in pure Python (the repro band for this paper calls
this out), so these benches run short Monte-Carlo comparisons that check the
*ordering* of the claims; set ``REPRO_BENCH_FULL=1`` for more frames.
"""

from __future__ import annotations

import numpy as np

from repro.channel import AWGNChannel, BPSKModulator, ErrorRateAccumulator, ebn0_to_noise_sigma
from repro.ldpc import wimax_ldpc_code
from repro.sim import BatchFloodingDecoder, BatchLayeredDecoder, BatchTurboDecoder
from repro.turbo import TurboEncoder

from benchmarks.harness import full_benchmarks_enabled, per_item, record, row, trials

#: Trials of the software-throughput row, and one-frame decodes timed per trial.
SOFTWARE_TRIALS = 9
SOFTWARE_DECODES_PER_TRIAL = 50


def _frames(default: int) -> int:
    return default * 4 if full_benchmarks_enabled() else default


def _ldpc_frame_llrs(code, ebn0_db, rng):
    modulator = BPSKModulator()
    sigma = ebn0_to_noise_sigma(ebn0_db, code.rate)
    info = rng.integers(0, 2, code.k)
    codeword = code.encode(info)
    channel = AWGNChannel(sigma, rng)
    llrs = modulator.demodulate_llr(
        channel.transmit(modulator.modulate(codeword)), channel.llr_noise_variance(False)
    )
    return codeword, llrs


def _decode_one(decoder, llrs):
    """Decode one frame as a one-frame batch: ``(hard_bits, iterations, converged)``."""
    return decoder.decode_batch(llrs[None, :]).frame(0)


def test_layered_vs_flooding_convergence():
    """Layered scheduling needs roughly half the iterations of flooding (Section II-B)."""
    code = wimax_ldpc_code(576, "1/2")
    frames = _frames(12)

    rng = np.random.default_rng(42)
    layered = BatchLayeredDecoder(code.h, max_iterations=40)
    flooding = BatchFloodingDecoder(code.h, max_iterations=40, kernel="min-sum")
    layered_iters, flooding_iters = [], []
    for _ in range(frames):
        _, llrs = _ldpc_frame_llrs(code, 2.6, rng)
        _, layered_iterations, layered_converged = _decode_one(layered, llrs)
        _, flooding_iterations, flooding_converged = _decode_one(flooding, llrs)
        if layered_converged and flooding_converged:
            layered_iters.append(layered_iterations)
            flooding_iters.append(flooding_iterations)
    layered_mean, flooding_mean = float(np.mean(layered_iters)), float(np.mean(flooding_iters))
    ratio = flooding_mean / layered_mean
    print(
        "\nConvergence speed (mean iterations to a valid codeword, WiMAX n=576 r=1/2 at 2.6 dB):\n"
        f"  layered min-sum : {layered_mean:.2f}\n"
        f"  flooding min-sum: {flooding_mean:.2f}\n"
        f"  speed-up        : {ratio:.2f}x (paper: ~2x)"
    )
    record(
        "functional_claims",
        "layered_vs_flooding_convergence",
        {"n": code.n, "ebn0_db": 2.6, "frames": frames,
         "layered_mean_iterations": round(layered_mean, 2),
         "flooding_mean_iterations": round(flooding_mean, 2),
         "convergence_speedup": round(ratio, 2)},
    )
    assert ratio > 1.4


def test_fixed_point_quantization_loss():
    """The 7-bit / 5-bit fixed-point datapath tracks the floating-point decoder."""
    code = wimax_ldpc_code(576, "1/2")
    frames = _frames(15)

    rng = np.random.default_rng(7)
    float_decoder = BatchLayeredDecoder(code.h, max_iterations=10)
    fixed_decoder = BatchLayeredDecoder(code.h, max_iterations=10, fixed_point=True)
    float_acc, fixed_acc = ErrorRateAccumulator(), ErrorRateAccumulator()
    for _ in range(frames):
        codeword, llrs = _ldpc_frame_llrs(code, 2.2, rng)
        float_acc.update(codeword, _decode_one(float_decoder, llrs)[0])
        fixed_acc.update(codeword, _decode_one(fixed_decoder, llrs)[0])
    float_report, fixed_report = float_acc.report(), fixed_acc.report()
    print(
        "\nFixed-point (7b channel / 5b extrinsic) vs floating point, n=576 r=1/2 at 2.2 dB:\n"
        f"  floating point : {float_report}\n"
        f"  fixed point    : {fixed_report}"
    )
    record(
        "functional_claims",
        "fixed_point_quantization",
        {"n": code.n, "ebn0_db": 2.2, "frames": frames,
         "float_bit_errors": int(float_report.bit_errors),
         "fixed_bit_errors": int(fixed_report.bit_errors),
         "float_frame_errors": int(float_report.frame_errors),
         "fixed_frame_errors": int(fixed_report.frame_errors)},
    )
    # The quantised decoder may lose a little but must stay in the same regime.
    assert fixed_report.frame_errors <= float_report.frame_errors + max(2, frames // 4)


def test_bit_level_extrinsic_exchange_loss():
    """Bit-level exchange (BTS/STB) degrades the turbo decoder only mildly (Section IV-B)."""
    encoder = TurboEncoder(n_couples=96)
    frames = _frames(15)

    rng = np.random.default_rng(11)
    modulator = BPSKModulator()
    sigma = ebn0_to_noise_sigma(1.6, 0.5)
    symbol_decoder = BatchTurboDecoder(encoder, max_iterations=8, bit_level_exchange=False)
    bit_decoder = BatchTurboDecoder(encoder, max_iterations=8, bit_level_exchange=True)
    symbol_acc, bit_acc = ErrorRateAccumulator(), ErrorRateAccumulator()
    for _ in range(frames):
        info = rng.integers(0, 2, encoder.k)
        channel = AWGNChannel(sigma, rng)
        llrs = modulator.demodulate_llr(
            channel.transmit(modulator.modulate(encoder.encode(info).to_bit_array())),
            channel.llr_noise_variance(False),
        )
        inputs = symbol_decoder.split_llrs_batch(llrs[None, :])
        symbol_acc.update(info, symbol_decoder.decode_split(*inputs).hard_bits[0])
        bit_acc.update(info, bit_decoder.decode_split(*inputs).hard_bits[0])
    symbol_report, bit_report = symbol_acc.report(), bit_acc.report()
    print(
        "\nTurbo extrinsic exchange, WiMAX CTC N=96 couples at 1.6 dB:\n"
        f"  symbol-level (3 values/message) : {symbol_report}\n"
        f"  bit-level    (2 values/message) : {bit_report}\n"
        "  paper claim: ~1/3 NoC payload reduction for ~0.2 dB loss"
    )
    record(
        "functional_claims",
        "bit_level_extrinsic_exchange",
        {"n_couples": encoder.n_couples, "ebn0_db": 1.6, "frames": frames,
         "symbol_level_bit_errors": int(symbol_report.bit_errors),
         "bit_level_bit_errors": int(bit_report.bit_errors)},
    )
    # Bit-level exchange must not collapse: within a small factor of symbol level.
    assert bit_report.bit_errors <= symbol_report.bit_errors + encoder.k * frames // 20


def test_ldpc_decoding_throughput_software():
    """Software decoding speed of the layered core (context for the repro band note).

    One decode takes a millisecond or two and single decodes stall now and
    then, so each trial times a block of decodes, after one untimed block,
    and the row records seconds per decode.
    """
    code = wimax_ldpc_code(2304, "1/2")
    decoder = BatchLayeredDecoder(code.h, max_iterations=10)
    rng = np.random.default_rng(0)
    codeword, llrs = _ldpc_frame_llrs(code, 3.0, rng)

    def block():
        for _ in range(SOFTWARE_DECODES_PER_TRIAL):
            result = _decode_one(decoder, llrs)
        return result

    block()  # warm-up, untimed
    samples, results = trials({"decode": block}, SOFTWARE_TRIALS)
    timing = row(per_item(samples, {"decode": SOFTWARE_DECODES_PER_TRIAL}))
    record(
        "functional_claims",
        "ldpc_software_throughput",
        {"n": code.n, "max_iterations": 10,
         "frames_per_sec_per_frame_path": round(1.0 / timing["arms"]["decode"]["median"], 2),
         "timing": timing},
    )
    assert (results["decode"][0] == codeword).all()
