"""Model of the LDPC decoding core (paper Fig. 2).

The core processes the parity checks assigned to its PE *sequentially*: for
each check it reads the incoming ``lambda_old`` values and the stored
``R_old`` values, computes ``Q = lambda_old - R_old``, feeds the magnitudes
through the Minimum Extraction Unit (which keeps the first two minima), then
writes back the updated ``lambda_new`` (sent over the NoC) and ``R_new``
(stored locally for the next iteration).  The datapath is pipelined; the
pipeline depth is the ``latcore = 15`` cycles the paper plugs into eq. (12).

The model is purely architectural (cycle counts, memory traffic, structure);
the bit-true arithmetic lives in :class:`repro.sim.batch.BatchLayeredDecoder`,
pinned to the scalar check update of :mod:`repro.ldpc.checknode`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError

#: Pipeline latency of the LDPC core datapath in clock cycles (paper Section V).
LDPC_CORE_LATENCY_CYCLES = 15

#: Messages the core can emit per clock cycle (one lambda_new write per cycle).
LDPC_CORE_PEAK_OUTPUT_RATE = 1.0


@dataclass(frozen=True)
class LdpcCoreTiming:
    """Cycle-level summary of one PE's LDPC workload for one iteration."""

    n_checks: int
    total_edges: int
    processing_cycles: int
    pipeline_latency: int
    memory_reads: int
    memory_writes: int

    @property
    def busy_cycles(self) -> int:
        """Total cycles the core is busy for one iteration (latency + streaming)."""
        return self.pipeline_latency + self.processing_cycles


class LdpcCoreModel:
    """Timing / structure model of the sequential layered LDPC core.

    Parameters
    ----------
    output_rate:
        Messages produced per clock cycle towards the NoC (the ``R`` parameter
        of the NoC simulation, 0.5 in the paper's Table I).
    pipeline_latency:
        Datapath latency in cycles (``latcore``).
    """

    def __init__(
        self,
        output_rate: float = 0.5,
        pipeline_latency: int = LDPC_CORE_LATENCY_CYCLES,
    ):
        if not 0.0 < output_rate <= LDPC_CORE_PEAK_OUTPUT_RATE:
            raise ModelError(
                f"output_rate must be in (0, {LDPC_CORE_PEAK_OUTPUT_RATE}], got {output_rate}"
            )
        if pipeline_latency <= 0:
            raise ModelError(f"pipeline_latency must be positive, got {pipeline_latency}")
        self.output_rate = float(output_rate)
        self.pipeline_latency = int(pipeline_latency)

    def iteration_timing(self, check_degrees: np.ndarray | list[int]) -> LdpcCoreTiming:
        """Timing of one iteration for a PE that owns checks of the given degrees.

        The sequential core streams one edge per cycle through the MEU, so
        one iteration needs ``sum(degrees) / output_rate`` cycles to emit all
        updated messages, plus the pipeline latency once.
        """
        degrees = np.asarray(check_degrees, dtype=np.int64)
        if degrees.ndim != 1 or degrees.size == 0:
            raise ModelError("check_degrees must be a non-empty one-dimensional sequence")
        if degrees.min() < 2:
            raise ModelError("every parity check must involve at least two variables")
        total_edges = int(degrees.sum())
        processing_cycles = int(np.ceil(total_edges / self.output_rate))
        # Per edge: read lambda_old, read R_old, write lambda_new, write R_new.
        memory_reads = 2 * total_edges
        memory_writes = 2 * total_edges
        return LdpcCoreTiming(
            n_checks=int(degrees.size),
            total_edges=total_edges,
            processing_cycles=processing_cycles,
            pipeline_latency=self.pipeline_latency,
            memory_reads=memory_reads,
            memory_writes=memory_writes,
        )

    def memory_accesses_per_iteration(self, check_degrees: np.ndarray | list[int]) -> int:
        """Shared-memory word accesses of one iteration (reads + writes)."""
        timing = self.iteration_timing(check_degrees)
        return timing.memory_reads + timing.memory_writes

    @staticmethod
    def structure() -> dict[str, str]:
        """Block-level structure of Fig. 2, used by the architecture-tour example."""
        return {
            "lambda memory": "stores incoming lambda_old[c] messages received from the NoC",
            "R memory": "stores R_old / R_new check-to-variable messages between iterations",
            "address generator": "produces read/write addresses following the layered schedule",
            "MEU": "Minimum Extraction Unit: streams |Q| values, keeps the two smallest",
            "CMP": "selects min1 or min2 per edge and applies the sign / scaling",
            "output": "lambda_new[c] messages towards the NoC, R_new towards the R memory",
        }
