"""LDPC substrate: QC-LDPC codes, the WiMAX (IEEE 802.16e) code class and decoders.

The paper's design case is the full set of WiMAX LDPC codes; the worst case
driving the NoC sizing is the ``n = 2304``, rate-1/2 code (1152 parity checks
of degree 6/7).  This package provides:

* :class:`~repro.ldpc.hmatrix.ParityCheckMatrix` — sparse H representation,
* :class:`~repro.ldpc.qc.QCBaseMatrix` — quasi-cyclic base matrices and their
  expansion,
* :mod:`~repro.ldpc.wimax` — the 802.16e code class (all rates and lengths),
* :mod:`~repro.ldpc.wifi` — the 802.11n (Wi-Fi) n=1944 code set, rates 1/2
  and 5/6, exercising the multi-standard claim through the same machinery,
* :class:`~repro.ldpc.encoder.LDPCEncoder` — systematic encoding,
* :class:`~repro.ldpc.layered.LayeredMinSumDecoder` — the layered
  normalized-min-sum decoder of paper eqs. (6)-(11),
* :class:`~repro.ldpc.flooding.FloodingDecoder` — two-phase belief propagation
  used as a reference baseline,
* :func:`~repro.ldpc.tanner.check_adjacency_graph` — the weighted
  check-to-check graph the mapping substrate partitions.

Both decoders decode one frame per call; for Monte-Carlo work over many
frames use their batched twins in :mod:`repro.sim`, which the per-frame
classes delegate to (``batch=1``) and match bit-for-bit.
"""

from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.ldpc.qc import QCBaseMatrix, expand_base_matrix
from repro.ldpc.wimax import (
    WIMAX_CODE_RATES,
    WIMAX_EXPANSION_FACTORS,
    WimaxLdpcCode,
    wimax_ldpc_code,
    list_wimax_codes,
)
from repro.ldpc.wifi import (
    WIFI_CODE_RATES,
    WifiLdpcCode,
    wifi_ldpc_code,
    list_wifi_codes,
)
from repro.ldpc.encoder import LDPCEncoder
from repro.ldpc.tanner import check_adjacency_graph
from repro.ldpc.layered import LayeredMinSumDecoder, LayeredDecoderResult
from repro.ldpc.flooding import FloodingDecoder, FloodingDecoderResult
from repro.ldpc.checknode import first_two_minima, min_sum_check_update

__all__ = [
    "ParityCheckMatrix",
    "QCBaseMatrix",
    "expand_base_matrix",
    "WIMAX_CODE_RATES",
    "WIMAX_EXPANSION_FACTORS",
    "WimaxLdpcCode",
    "wimax_ldpc_code",
    "list_wimax_codes",
    "WIFI_CODE_RATES",
    "WifiLdpcCode",
    "wifi_ldpc_code",
    "list_wifi_codes",
    "LDPCEncoder",
    "check_adjacency_graph",
    "LayeredMinSumDecoder",
    "LayeredDecoderResult",
    "FloodingDecoder",
    "FloodingDecoderResult",
    "first_two_minima",
    "min_sum_check_update",
]
