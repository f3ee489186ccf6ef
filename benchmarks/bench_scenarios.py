"""Benchmark of the scenario matrix the batched chain now covers.

One run sweeps the full modulation x channel grid (BPSK / QPSK / 16-QAM
against AWGN, per-symbol Rayleigh and block Rayleigh), the fixed-point
channel-LLR front-end versus float, and the 802.11n n=1944 codes — every
point through the *same* ``BerRunner`` chain, which is the tentpole claim:
new scenarios ride the existing loop, they do not get loops of their own.

Each point is recorded with its Wilson interval into
``BENCH_scenarios.json`` so scenario-level BER regressions show up as JSON
diffs across PRs.  Frame budgets are deliberately small (this is a smoke
bench, not a curve); set ``REPRO_BENCH_FULL=1`` for x4 frames.
"""

from __future__ import annotations

from repro.channel import (
    CHANNEL_LLR_SPEC,
    BPSKModulator,
    LLRQuantizer,
    QAM16Modulator,
    QPSKModulator,
)
from repro.ldpc import wifi_ldpc_code, wimax_ldpc_code
from repro.sim import BatchLayeredDecoder, BerRunner

from benchmarks.harness import full_benchmarks_enabled, record

#: (modulator factory, label) x (channel name, Eb/N0 grid per channel).
_MODULATORS = [
    (BPSKModulator, "bpsk"),
    (QPSKModulator, "qpsk"),
    (QAM16Modulator, "qam16"),
]
#: Fading needs far more Eb/N0 than AWGN for comparable error rates, so each
#: channel gets its own operating point (same point for every modulator —
#: Eb/N0 normalisation makes them comparable).
_CHANNELS = [
    ("awgn", 2.5),
    ("rayleigh", 8.0),
    ("rayleigh-block", 14.0),
]


def _frames(default: int) -> int:
    return default * 4 if full_benchmarks_enabled() else default


def _point_payload(point) -> dict:
    lo, hi = point.ber_interval
    return {
        "ebn0_db": point.ebn0_db,
        "frames": point.frames,
        "bit_errors": point.bit_errors,
        "ber": point.ber,
        "ber_wilson_low": lo,
        "ber_wilson_high": hi,
        "fer": point.fer,
        "avg_iterations": round(point.avg_iterations, 2),
    }


def test_modulation_channel_matrix():
    """BER with Wilson intervals across the modulation x channel grid."""
    code = wimax_ldpc_code(576, "1/2")
    decoder = BatchLayeredDecoder(code.h, max_iterations=10)
    frames = _frames(64)

    points = {}
    for mod_factory, mod_name in _MODULATORS:
        for channel, ebn0_db in _CHANNELS:
            runner = BerRunner(
                code,
                decoder,
                mod_factory(),
                channel=channel,
                batch_size=32,
                max_frames=frames,
                target_frame_errors=None,
                seed=17,
            )
            points[f"{mod_name}/{channel}"] = runner.run_point(ebn0_db)
    lines = ["Scenario matrix (WiMAX n=576 r=1/2, layered min-sum, 10 it):"]
    for key, point in points.items():
        lines.append(f"  {key:22s}: {point}")
        record("scenarios", f"matrix/{key}", _point_payload(point))
    print("", *lines, sep="\n")
    # The chain must at least close at these operating points: AWGN error-free
    # region, fading merely not collapsed to coin-flipping.
    assert points["bpsk/awgn"].ber < 1e-2
    for key, point in points.items():
        assert point.ber < 0.5, f"{key} collapsed: {point}"


def test_fixed_point_front_end():
    """Quantised (7/1 channel, 5/0 extrinsic) vs float through the runner."""
    code = wimax_ldpc_code(576, "1/2")
    frames = _frames(128)
    ebn0_db = 2.5

    float_point = BerRunner(
        code,
        BatchLayeredDecoder(code.h, max_iterations=10),
        batch_size=64,
        max_frames=frames,
        target_frame_errors=None,
        seed=11,
    ).run_point(ebn0_db)
    fixed_point = BerRunner(
        code,
        BatchLayeredDecoder(code.h, max_iterations=10, fixed_point=True),
        llr_quantizer=LLRQuantizer(CHANNEL_LLR_SPEC),
        batch_size=64,
        max_frames=frames,
        target_frame_errors=None,
        seed=11,
    ).run_point(ebn0_db)
    print(
        f"\nFixed-point channel front-end, n=576 r=1/2 BPSK at {ebn0_db} dB:\n"
        f"  float : {float_point}\n"
        f"  fixed : {fixed_point}"
    )
    record("scenarios", "fixed_point/float", _point_payload(float_point))
    record("scenarios", "fixed_point/quantized", _point_payload(fixed_point))
    # Same regime, not collapsed (the 0.5 dB acceptance test lives in
    # tests/test_scenarios.py with a proper sweep).
    assert fixed_point.fer <= float_point.fer + max(4, frames // 16)


def test_wifi_codes_through_runner():
    """802.11n n=1944 rates 1/2 and 5/6 through the same batched chain."""
    frames = _frames(32)
    operating_points = {"1/2": 2.5, "5/6": 4.5}

    points = {}
    for rate, ebn0_db in operating_points.items():
        code = wifi_ldpc_code(1944, rate)
        runner = BerRunner(
            code,
            BatchLayeredDecoder(code.h, max_iterations=10),
            batch_size=16,
            max_frames=frames,
            target_frame_errors=None,
            seed=0,
        )
        points[rate] = runner.run_point(ebn0_db)
    lines = ["802.11n LDPC n=1944 through BerRunner (layered min-sum, 10 it):"]
    for rate, point in points.items():
        lines.append(f"  rate {rate}: {point}")
        record(
            "scenarios", f"wifi/1944:{rate}", _point_payload(point)
        )
    print("", *lines, sep="\n")
    for rate, point in points.items():
        assert point.ber < 1e-2, f"wifi 1944 {rate} collapsed: {point}"
