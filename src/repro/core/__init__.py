"""Core of the reproduction: the flexible NoC-based turbo/LDPC decoder architecture.

This package ties the substrates together into the paper's contribution:

* :class:`~repro.core.config.DecoderSpec` — the architectural parameters of
  one decoder instance (topology family, parallelism P, degree D, NoC
  configuration, clock frequencies, iteration counts),
* :class:`~repro.core.architecture.NocDecoderArchitecture` — a decoder
  instance that can map WiMAX codes onto its NoC, run the cycle-accurate
  message-passing simulation, evaluate throughput (paper eq. (12)), area and
  power, and functionally decode frames in either mode,
* :class:`~repro.core.design_flow.DesignSpaceExplorer` — the design flow of
  Section III that sweeps topologies, parallelism degrees and routing
  algorithms to produce Table-I-style results.
"""

from repro.core.config import DecoderSpec, WIMAX_DECODER_SPEC
from repro.core.throughput import ldpc_throughput_bps, turbo_throughput_bps
from repro.core.architecture import DecoderEvaluation, NocDecoderArchitecture
from repro.core.design_flow import (
    EXPLORATION_OBJECTIVES,
    DesignPoint,
    DesignSpaceExplorer,
    ExplorationReport,
    ScreenedCandidate,
)

__all__ = [
    "DecoderSpec",
    "WIMAX_DECODER_SPEC",
    "ldpc_throughput_bps",
    "turbo_throughput_bps",
    "NocDecoderArchitecture",
    "DecoderEvaluation",
    "DesignPoint",
    "EXPLORATION_OBJECTIVES",
    "ExplorationReport",
    "ScreenedCandidate",
    "DesignSpaceExplorer",
]
