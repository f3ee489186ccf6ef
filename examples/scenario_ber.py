#!/usr/bin/env python3
"""BER sweeps over the scenario matrix: modulation x channel x quantisation.

Every scenario rides the same :class:`repro.sim.runner.BerRunner` chain —
pick a code family (WiMAX or 802.11n LDPC), a constellation (BPSK, Gray
QPSK or Gray 16-QAM), a channel (AWGN, per-symbol Rayleigh or block
Rayleigh, with perfect-CSI demapping under fading) and optionally the
paper's fixed-point channel-LLR front-end (7-bit/1-frac, symmetric
saturation).  No scenario gets its own simulation loop; only the runner's
arguments change.

Examples::

    python examples/scenario_ber.py                          # defaults
    python examples/scenario_ber.py --modulation qam16 --channel rayleigh \
        --points 6 8 10 12
    python examples/scenario_ber.py --family wifi --rate 5/6 --points 3 4 5
    python examples/scenario_ber.py --quantized --points 2.0 2.5 3.0
"""

from __future__ import annotations

import argparse

from repro.analysis import build_ber_table
from repro.channel import (
    CHANNEL_LLR_SPEC,
    BPSKModulator,
    LLRQuantizer,
    QAM16Modulator,
    QPSKModulator,
)
from repro.ldpc import wifi_ldpc_code, wimax_ldpc_code
from repro.sim import CHANNEL_FACTORIES, BatchLayeredDecoder, BerRunner

MODULATORS = {
    "bpsk": BPSKModulator,
    "qpsk": QPSKModulator,
    "qam16": QAM16Modulator,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--family", choices=("wimax", "wifi"), default="wimax",
        help="LDPC code family (wimax n=576 or 802.11n n=1944)",
    )
    parser.add_argument("--rate", default="1/2", help="code rate string")
    parser.add_argument(
        "--modulation", choices=sorted(MODULATORS), default="qpsk"
    )
    parser.add_argument(
        "--channel", choices=sorted(CHANNEL_FACTORIES), default="awgn"
    )
    parser.add_argument(
        "--quantized", action="store_true",
        help="round-trip channel LLRs through the 7-bit/1-frac quantiser "
        "and run the layered decoder's internal fixed-point datapath",
    )
    parser.add_argument(
        "--points", type=float, nargs="+", default=[1.5, 2.0, 2.5, 3.0],
        help="Eb/N0 points in dB",
    )
    parser.add_argument("--frames", type=int, default=512)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.family == "wifi":
        code = wifi_ldpc_code(1944, args.rate)
    else:
        code = wimax_ldpc_code(576, args.rate)
    decoder = BatchLayeredDecoder(
        code.h, max_iterations=10, fixed_point=args.quantized
    )
    runner = BerRunner(
        code,
        decoder,
        MODULATORS[args.modulation](),
        channel=args.channel,
        llr_quantizer=LLRQuantizer(CHANNEL_LLR_SPEC) if args.quantized else None,
        batch_size=args.batch,
        max_frames=args.frames,
        target_frame_errors=50,
        seed=args.seed,
    )
    title = (
        f"{args.family} {code.describe()}, {args.modulation}, {args.channel}"
        + (", fixed-point" if args.quantized else ", float")
    )
    print(f"Scenario: {title}")
    print(f"(batch {args.batch}, <= {args.frames} frames/point, stop at 50 frame errors)")
    print()
    print(build_ber_table(runner.run(args.points), title=title).render())
    if args.channel != "awgn":
        print()
        print("note: fading points assume perfect CSI at the demapper; at equal "
              "Eb/N0 they sit well above the AWGN curve (diversity loss).")


if __name__ == "__main__":
    main()
