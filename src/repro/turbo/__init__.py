"""Turbo substrate: WiMAX double-binary convolutional turbo code (CTC).

The WiMAX CTC concatenates two 8-state double-binary circular recursive
systematic convolutional (CRSC) constituent encoders through the standard's
almost-regular permutation.  This package provides:

* :class:`~repro.turbo.trellis.DuoBinaryTrellis` — the 8-state duo-binary
  trellis (states, transitions, output labels),
* :class:`~repro.turbo.ctc_interleaver.CTCInterleaver` — the two-step WiMAX
  CTC interleaver,
* :class:`~repro.turbo.encoder.TurboEncoder` — circular encoding and rate-1/2
  puncturing,
* :mod:`~repro.turbo.bits` — bit-level <-> symbol-level extrinsic conversion
  (the BTS/STB units of paper Fig. 3).

The decoders live in :mod:`repro.sim.turbo_batch`:
:class:`~repro.sim.turbo_batch.BatchBCJR` is the Max-Log-MAP symbol-level
BCJR of paper eqs. (1)-(5) with the fixed extrinsic scaling
``sigma = 0.75``, and :class:`~repro.sim.turbo_batch.BatchTurboDecoder` the
iterative exchange of extrinsic information between the two SISOs.  Both
decode a batch of frames; one frame is a batch of one.
"""

from repro.turbo.trellis import DuoBinaryTrellis, TrellisTransition
from repro.turbo.ctc_interleaver import (
    CTC_INTERLEAVER_PARAMETERS,
    CTCInterleaver,
    supported_ctc_block_sizes,
)
from repro.turbo.encoder import TurboEncoder, TurboCodeword
from repro.turbo.bits import symbol_to_bit_extrinsic, bit_to_symbol_extrinsic

__all__ = [
    "DuoBinaryTrellis",
    "TrellisTransition",
    "CTC_INTERLEAVER_PARAMETERS",
    "CTCInterleaver",
    "supported_ctc_block_sizes",
    "TurboEncoder",
    "TurboCodeword",
    "symbol_to_bit_extrinsic",
    "bit_to_symbol_extrinsic",
]
