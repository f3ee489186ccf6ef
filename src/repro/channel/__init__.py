"""Channel substrate: BPSK modulation, AWGN noise, LLR quantisation, error counting.

The paper evaluates its decoder on WiMAX codes over BPSK/AWGN, whose soft
inputs are log-likelihood ratios (LLRs) quantised to 7 bits (channel and
a-posteriori values) and 5 bits (extrinsic values).  This package provides
that transmit chain — BPSK mapping with the exact AWGN demapper, the AWGN
channel and its Eb/N0 conversion, and the uniform quantiser — plus BER/FER
counters used by the functional benchmarks.  See the "LLR scaling
conventions" section of ``docs/batching.md`` for the noise-variance
convention.
"""

from repro.channel.modulation import BPSKModulator
from repro.channel.awgn import AWGNChannel, ebn0_to_noise_sigma, snr_db_to_linear
from repro.channel.quantize import (
    CHANNEL_LLR_SPEC,
    EXTRINSIC_SPEC,
    LLRQuantizer,
    QuantizationSpec,
)
from repro.channel.metrics import ErrorRateAccumulator, ErrorRateReport

__all__ = [
    "BPSKModulator",
    "AWGNChannel",
    "ebn0_to_noise_sigma",
    "snr_db_to_linear",
    "LLRQuantizer",
    "QuantizationSpec",
    "CHANNEL_LLR_SPEC",
    "EXTRINSIC_SPEC",
    "ErrorRateAccumulator",
    "ErrorRateReport",
]
