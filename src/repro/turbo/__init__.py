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
* :class:`~repro.turbo.bcjr.BCJRDecoder` — Max-Log-MAP symbol-level BCJR
  (paper eqs. (1)-(5)) with the fixed extrinsic scaling ``sigma = 0.75``,
* :class:`~repro.turbo.decoder.TurboDecoder` — the iterative exchange of
  extrinsic information between the two SISOs,
* :mod:`~repro.turbo.bits` — bit-level <-> symbol-level extrinsic conversion
  (the BTS/STB units of paper Fig. 3).

The per-frame decoders delegate to the batched turbo engine in
:mod:`repro.sim.turbo_batch` with ``batch=1``; for Monte-Carlo BER work use
:class:`repro.sim.turbo_batch.BatchTurboDecoder` through
:class:`repro.sim.runner.BerRunner`.
"""

from repro.turbo.trellis import DuoBinaryTrellis, TrellisTransition
from repro.turbo.ctc_interleaver import (
    CTC_INTERLEAVER_PARAMETERS,
    CTCInterleaver,
    supported_ctc_block_sizes,
)
from repro.turbo.encoder import TurboEncoder, TurboCodeword
from repro.turbo.bcjr import BCJRDecoder, BCJRResult
from repro.turbo.decoder import TurboDecoder, TurboDecoderResult
from repro.turbo.bits import symbol_to_bit_extrinsic, bit_to_symbol_extrinsic

__all__ = [
    "DuoBinaryTrellis",
    "TrellisTransition",
    "CTC_INTERLEAVER_PARAMETERS",
    "CTCInterleaver",
    "supported_ctc_block_sizes",
    "TurboEncoder",
    "TurboCodeword",
    "BCJRDecoder",
    "BCJRResult",
    "TurboDecoder",
    "TurboDecoderResult",
    "symbol_to_bit_extrinsic",
    "bit_to_symbol_extrinsic",
]
