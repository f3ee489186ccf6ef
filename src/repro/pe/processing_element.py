"""The dual-mode processing element hosted by every NoC node (paper Fig. 1).

A :class:`ProcessingElement` bundles the LDPC core model, the SISO core model
and the node's share of the decoder memories, and exposes the quantities the
system-level models need: message injection rate in each mode, busy cycles per
iteration, memory traffic and a structural description for the architecture
tour.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import ModelError
from repro.hw.memory import DecoderMemoryPlan
from repro.pe.ldpc_core import LdpcCoreModel
from repro.pe.siso_core import SisoCoreModel


class DecoderMode(str, Enum):
    """Operating mode of the flexible decoder."""

    LDPC = "LDPC"
    TURBO = "turbo"


@dataclass(frozen=True)
class ProcessingElement:
    """One PE: LDPC core + SISO core + a slice of the shared memories.

    Attributes
    ----------
    index:
        PE / NoC node index.
    ldpc_core:
        Timing model of the LDPC core.
    siso_core:
        Timing model of the SISO.
    memory_plan:
        Decoder-wide shared-memory plan (this PE holds ``1/P``-th of it).
    """

    index: int
    ldpc_core: LdpcCoreModel
    siso_core: SisoCoreModel
    memory_plan: DecoderMemoryPlan

    def injection_rate(self, mode: DecoderMode) -> float:
        """Messages injected into the NoC per NoC cycle in the given mode."""
        if mode is DecoderMode.LDPC:
            return self.ldpc_core.output_rate
        return self.siso_core.noc_injection_rate

    def busy_cycles(self, mode: DecoderMode, workload: np.ndarray | int) -> int:
        """NoC cycles of processing for one iteration (LDPC) or half-iteration (turbo).

        ``workload`` is the array of check degrees owned by this PE in LDPC
        mode, or the window size in couples in turbo mode.
        """
        if mode is DecoderMode.LDPC:
            return self.ldpc_core.iteration_timing(np.asarray(workload)).busy_cycles
        if not isinstance(workload, (int, np.integer)):
            raise ModelError("turbo workload must be the window size in couples")
        return self.siso_core.half_iteration_timing(int(workload)).busy_noc_cycles

    def structure(self) -> dict[str, dict[str, str]]:
        """Structural description of the PE (used by the architecture tour)."""
        return {
            "LDPC decoding core": self.ldpc_core.structure(),
            "Turbo decoding core (SISO)": self.siso_core.structure(),
            "shared memories": {
                "7-bit memory": (
                    f"{self.memory_plan.wide_locations} locations decoder-wide "
                    "(lambda_old[c] in LDPC mode, alpha/beta in turbo mode)"
                ),
                "5-bit memory": (
                    f"{self.memory_plan.narrow_locations} locations decoder-wide "
                    "(R_lk in LDPC mode, lambda[c(e)] in turbo mode)"
                ),
            },
        }
