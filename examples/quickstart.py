#!/usr/bin/env python3
"""Quickstart: evaluate and use the NoC-based turbo/LDPC decoder in one page.

This walks the paper's WiMAX design case end to end:

1. build the decoder instance of Table II (22 PEs, degree-3 generalized Kautz
   NoC, SSP-FL routing, R = 0.5),
2. map the worst-case WiMAX LDPC code (n = 2304, rate 1/2) onto it, run the
   cycle-accurate message-passing simulation and report throughput / area /
   power (paper eq. (12) and Table III quantities),
3. do the same for the WiMAX turbo code (N = 2400 couples),
4. functionally decode one noisy LDPC frame with the same architecture.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import numpy as np

from repro import DecoderSpec, NocDecoderArchitecture, wimax_ldpc_code
from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. The paper's WiMAX design case.
    # ------------------------------------------------------------------ #
    spec = DecoderSpec()  # defaults = Table II operating point
    decoder = NocDecoderArchitecture(spec)
    print(decoder.describe())
    print()

    # ------------------------------------------------------------------ #
    # 2. LDPC mode: worst-case WiMAX code.
    # ------------------------------------------------------------------ #
    code = wimax_ldpc_code(2304, "1/2")
    ldpc = decoder.evaluate_ldpc(code)
    print("LDPC mode,", code.describe())
    print(f"  mapping      : {ldpc.mapping.describe()}")
    print(f"  ncycles      : {ldpc.simulation.ncycles} cycles per iteration")
    print(f"  throughput   : {ldpc.throughput_mbps:.2f} Mb/s @ {spec.ldpc_clock_hz / 1e6:.0f} MHz "
          f"(paper: 72.00 Mb/s)")
    print(f"  area         : {ldpc.area.describe()}")
    print(f"  power        : {ldpc.power.describe()}")
    print()

    # ------------------------------------------------------------------ #
    # 3. Turbo mode: N = 2400 couples (4800 information bits).
    # ------------------------------------------------------------------ #
    turbo = decoder.evaluate_turbo(2400)
    print("Turbo mode,", turbo.code_label)
    print(f"  ncycles      : {turbo.simulation.ncycles} cycles per half-iteration")
    print(f"  throughput   : {turbo.throughput_mbps:.2f} Mb/s @ {spec.turbo_noc_clock_hz / 1e6:.0f} MHz "
          f"NoC clock (paper: 74.26 Mb/s)")
    print(f"  power        : {turbo.power.describe()}  (paper: 59 mW)")
    print()

    # ------------------------------------------------------------------ #
    # 4. Functional decoding of one noisy frame (smaller code for speed).
    # ------------------------------------------------------------------ #
    small = wimax_ldpc_code(576, "1/2")
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, small.k)
    codeword = small.encode(info)
    modulator = BPSKModulator()
    channel = AWGNChannel(ebn0_to_noise_sigma(2.5, small.rate), rng)
    llrs = modulator.demodulate_llr(
        channel.transmit(modulator.modulate(codeword)), channel.llr_noise_variance(False)
    )
    bits, iterations, converged = decoder.decode_ldpc_frame(small, llrs).frame(0)
    errors = int(np.count_nonzero(bits != codeword))
    print(
        f"functional decode of one n={small.n} frame at Eb/N0 = 2.5 dB: "
        f"{errors} bit errors after {iterations} iterations "
        f"(converged: {converged})"
    )


if __name__ == "__main__":
    main()
