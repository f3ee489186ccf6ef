"""repro — reproduction of "A Network-on-Chip-based turbo/LDPC decoder architecture".

This package re-implements, in Python, the system presented by Condo, Martina
and Masera at DATE 2012: a flexible multi-standard forward-error-correction
decoder in which parallel processing elements (each able to act as a turbo
SISO or as a layered LDPC check processor) are interconnected by an intra-IP
Network-on-Chip, together with the design flow used to choose the NoC
topology, parallelism, routing algorithm and node architecture for the WiMAX
code set.

Top-level convenience imports cover the most common entry points; the full
API lives in the sub-packages:

* :mod:`repro.core` — the decoder architecture and the design-space explorer,
* :mod:`repro.ldpc`, :mod:`repro.turbo` — the WiMAX code substrates,
* :mod:`repro.noc`, :mod:`repro.mapping` — the network and the code-to-NoC mapping,
* :mod:`repro.pe`, :mod:`repro.hw` — processing-element and hardware cost models,
* :mod:`repro.channel` — modulation, AWGN and quantisation,
* :mod:`repro.sim` — batched decoders and the Monte-Carlo BER runner,
* :mod:`repro.analysis` — paper reference data and table builders.
"""

from repro.core import (
    DecoderSpec,
    DesignPoint,
    DesignSpaceExplorer,
    NocDecoderArchitecture,
    WIMAX_DECODER_SPEC,
)
from repro.ldpc import WimaxLdpcCode, wimax_ldpc_code
from repro.noc import NocConfiguration, RoutingAlgorithm
from repro.sim import (
    BatchFloodingDecoder,
    BatchLayeredDecoder,
    BatchTurboDecoder,
    BerPoint,
    BerRunner,
)
from repro.turbo import TurboEncoder

__version__ = "1.0.0"

__all__ = [
    "DecoderSpec",
    "WIMAX_DECODER_SPEC",
    "NocDecoderArchitecture",
    "DesignSpaceExplorer",
    "DesignPoint",
    "wimax_ldpc_code",
    "WimaxLdpcCode",
    "BatchFloodingDecoder",
    "BatchLayeredDecoder",
    "BatchTurboDecoder",
    "BerRunner",
    "BerPoint",
    "TurboEncoder",
    "NocConfiguration",
    "RoutingAlgorithm",
    "__version__",
]
