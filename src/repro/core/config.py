"""Configuration of one NoC-based decoder instance."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.noc.config import NocConfiguration, RoutingAlgorithm
from repro.utils.validation import require_int, require_real


@dataclass(frozen=True)
class DecoderSpec:
    """Architectural parameters of one flexible turbo/LDPC decoder instance.

    The defaults describe the paper's WiMAX design case: 22 PEs on a degree-3
    generalized Kautz NoC, SSP-FL routing on the PP node architecture,
    ``R = 0.5``, 300 MHz in LDPC mode and a 75 MHz NoC clock in turbo mode
    (SISOs at half that), 10 LDPC / 8 turbo iterations, ``latcore = 15``.
    """

    topology_family: str = "generalized-kautz"
    parallelism: int = 22
    degree: int = 3
    noc: NocConfiguration = field(default_factory=NocConfiguration)
    ldpc_clock_hz: float = 300.0e6
    turbo_noc_clock_hz: float = 75.0e6
    ldpc_max_iterations: int = 10
    turbo_max_iterations: int = 8
    ldpc_core_latency_cycles: int = 15
    siso_core_latency_cycles: int = 15
    mapping_seed: int = 0
    mapping_attempts: int = 3

    def __post_init__(self) -> None:
        for name, minimum in (
            ("parallelism", 2),
            ("degree", 2),
            ("ldpc_max_iterations", 1),
            ("turbo_max_iterations", 1),
            ("ldpc_core_latency_cycles", 0),
            ("siso_core_latency_cycles", 0),
            ("mapping_seed", 0),
            ("mapping_attempts", 1),
        ):
            require_int(name, getattr(self, name), minimum)
        for name in ("ldpc_clock_hz", "turbo_noc_clock_hz"):
            require_real(name, getattr(self, name), allow_zero=False)

    @property
    def turbo_siso_clock_hz(self) -> float:
        """SISO clock: half of the NoC clock in turbo mode (paper Section V)."""
        return 0.5 * self.turbo_noc_clock_hz

    def with_routing(self, algorithm: RoutingAlgorithm) -> "DecoderSpec":
        """Copy of this spec with a different routing algorithm (AP/PP follows)."""
        return replace(self, noc=self.noc.with_routing(algorithm))

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.topology_family}(P={self.parallelism}, D={self.degree}) "
            f"{self.noc.describe()}, LDPC @{self.ldpc_clock_hz / 1e6:.0f} MHz x"
            f"{self.ldpc_max_iterations} it, turbo NoC @{self.turbo_noc_clock_hz / 1e6:.0f} MHz x"
            f"{self.turbo_max_iterations} it"
        )


#: The paper's WiMAX design case (Table II / Table III operating point).
WIMAX_DECODER_SPEC = DecoderSpec()
