"""Shared-memory sizing of the processing cores (paper Section IV-B).

The SISO and the LDPC core of each PE share their internal memories:

* a 7-bit memory sized by the worst-case LDPC workload — one location per
  Tanner-graph edge of the ``n = 2304``, rate-1/2 code (1152 checks of degree
  up to 7) — onto which the turbo mode maps its alpha/beta state metrics
  (8 + 8 metrics for each of the 3 windows of every SISO);
* a 5-bit memory sized by the larger of the turbo branch-metric storage
  (2400 x 4 values of ``lambda_k[c(e)]``) and the LDPC ``R_lk`` storage
  (1152 x 7 values).

The plan is computed for arbitrary code sets so the model also answers
"what if" questions (e.g. WiFi-only LDPC support), but the defaults reproduce
the WiMAX numbers above.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError


@dataclass(frozen=True)
class DecoderMemoryPlan:
    """Sizes of the shared PE memories for a given code set and parallelism.

    All counts are totals across the decoder (the per-PE memories hold
    ``1/P``-th of each).
    """

    n_pes: int
    wide_locations: int
    wide_bits_per_location: int
    narrow_locations: int
    narrow_bits_per_location: int
    #: Individual requirements that produced the sizing (for reporting).
    ldpc_lambda_locations: int
    turbo_state_metric_locations: int
    turbo_branch_locations: int
    ldpc_r_locations: int

    @property
    def total_bits(self) -> int:
        """Total shared-memory capacity in bits."""
        return (
            self.wide_locations * self.wide_bits_per_location
            + self.narrow_locations * self.narrow_bits_per_location
        )

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        return (
            f"shared memories for P={self.n_pes}: "
            f"{self.wide_locations} x {self.wide_bits_per_location}b "
            f"(LDPC lambda {self.ldpc_lambda_locations}, turbo alpha/beta "
            f"{self.turbo_state_metric_locations}) + "
            f"{self.narrow_locations} x {self.narrow_bits_per_location}b "
            f"(turbo branch {self.turbo_branch_locations}, LDPC R {self.ldpc_r_locations}) "
            f"= {self.total_bits} bits"
        )


def plan_shared_memories(
    n_pes: int = 22,
    ldpc_max_checks: int = 1152,
    ldpc_max_check_degree: int = 7,
    turbo_max_couples: int = 2400,
    turbo_windows_per_siso: int = 3,
    trellis_states: int = 8,
    wide_bits: int = 7,
    narrow_bits: int = 5,
) -> DecoderMemoryPlan:
    """Size the shared 7-bit and 5-bit memories for a turbo/LDPC code set.

    Defaults correspond to full WiMAX support with P = 22 PEs, reproducing the
    sizing discussed in the paper.
    """
    if n_pes <= 0:
        raise ModelError(f"n_pes must be positive, got {n_pes}")
    if min(ldpc_max_checks, ldpc_max_check_degree, turbo_max_couples) <= 0:
        raise ModelError("code-set sizing parameters must be positive")
    if min(turbo_windows_per_siso, trellis_states, wide_bits, narrow_bits) <= 0:
        raise ModelError("architecture sizing parameters must be positive")

    # 7-bit memory: incoming LDPC messages (one per edge, worst case degree)
    # versus the turbo alpha/beta state metrics mapped onto the same locations.
    ldpc_lambda_locations = ldpc_max_checks * ldpc_max_check_degree
    turbo_state_metric_locations = n_pes * turbo_windows_per_siso * 2 * trellis_states
    wide_locations = max(ldpc_lambda_locations, turbo_state_metric_locations)

    # 5-bit memory: turbo branch-metric (lambda[c(e)]) storage versus LDPC R storage.
    turbo_branch_locations = turbo_max_couples * 4
    ldpc_r_locations = ldpc_max_checks * ldpc_max_check_degree
    narrow_locations = max(turbo_branch_locations, ldpc_r_locations)

    return DecoderMemoryPlan(
        n_pes=n_pes,
        wide_locations=wide_locations,
        wide_bits_per_location=wide_bits,
        narrow_locations=narrow_locations,
        narrow_bits_per_location=narrow_bits,
        ldpc_lambda_locations=ldpc_lambda_locations,
        turbo_state_metric_locations=turbo_state_metric_locations,
        turbo_branch_locations=turbo_branch_locations,
        ldpc_r_locations=ldpc_r_locations,
    )
