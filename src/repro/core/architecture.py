"""The flexible NoC-based turbo/LDPC decoder architecture.

:class:`NocDecoderArchitecture` is the paper's contribution seen as one
object: a set of P processing elements interconnected by an intra-IP NoC,
configurable at run time for LDPC (layered normalized min-sum) or turbo
(Max-Log-MAP double-binary) decoding.  It offers three families of services:

* **mapping + cycle-accurate evaluation** — place a WiMAX code on the NoC,
  simulate the message-passing phase and report ``ncycles``, throughput
  (eq. (12)), FIFO sizing, area and power;
* **functional decoding** — bit-true frame decoding in either mode (the NoC
  changes *when* messages arrive, not their values, so the functional path
  reuses the substrate decoders directly);
* **reporting** — structural and cost breakdowns used by the examples and the
  benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DecoderSpec
from repro.core.throughput import ldpc_throughput_bps, turbo_throughput_bps
from repro.errors import ConfigurationError
from repro.hw.area import AreaBreakdown, decoder_area
from repro.hw.memory import DecoderMemoryPlan, plan_shared_memories
from repro.hw.power import PowerModel, PowerReport
from repro.ldpc.layered import LayeredDecoderResult, LayeredMinSumDecoder
from repro.ldpc.wimax import WimaxLdpcCode
from repro.mapping.ldpc_mapping import LdpcMapping, map_ldpc_code
from repro.mapping.turbo_mapping import TurboMapping, map_turbo_code
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.engine import BatchNocSimulator
from repro.noc.results import SimulationResult
from repro.noc.topologies import Topology, build_topology
from repro.pe.ldpc_core import LdpcCoreModel
from repro.pe.processing_element import ProcessingElement
from repro.pe.siso_core import SisoCoreModel
from repro.turbo.decoder import TurboDecoder, TurboDecoderResult
from repro.turbo.encoder import TurboEncoder


@dataclass(frozen=True)
class LdpcEvaluation:
    """System-level evaluation of one LDPC code on one decoder instance."""

    code_label: str
    mapping: LdpcMapping
    simulation: SimulationResult
    throughput_bps: float
    area: AreaBreakdown
    power: PowerReport

    @property
    def throughput_mbps(self) -> float:
        """Throughput in Mb/s."""
        return self.throughput_bps / 1.0e6


@dataclass(frozen=True)
class TurboEvaluation:
    """System-level evaluation of one turbo code on one decoder instance."""

    code_label: str
    mapping: TurboMapping
    simulation: SimulationResult
    throughput_bps: float
    area: AreaBreakdown
    power: PowerReport

    @property
    def throughput_mbps(self) -> float:
        """Throughput in Mb/s."""
        return self.throughput_bps / 1.0e6


@dataclass
class NocDecoderArchitecture:
    """A flexible turbo/LDPC decoder built around an intra-IP NoC.

    Parameters
    ----------
    spec:
        Architectural parameters; defaults to the paper's WiMAX design case.
    """

    spec: DecoderSpec = field(default_factory=DecoderSpec)

    def __post_init__(self) -> None:
        self._topology: Topology | None = None
        self._routing: RoutingTables | None = None
        self._memory_plan: DecoderMemoryPlan | None = None
        self._ldpc_mappings: dict[str, LdpcMapping] = {}
        self._turbo_mappings: dict[int, TurboMapping] = {}

    # ------------------------------------------------------------------ #
    # Lazily built structural views
    # ------------------------------------------------------------------ #
    @property
    def topology(self) -> Topology:
        """The NoC topology of this decoder instance."""
        if self._topology is None:
            self._topology = build_topology(
                self.spec.topology_family, self.spec.parallelism, self.spec.degree
            )
        return self._topology

    @property
    def routing_tables(self) -> RoutingTables:
        """Shortest-path routing tables for the topology."""
        if self._routing is None:
            self._routing = build_routing_tables(self.topology)
        return self._routing

    @property
    def memory_plan(self) -> DecoderMemoryPlan:
        """Shared-memory plan for full WiMAX support at this parallelism."""
        if self._memory_plan is None:
            self._memory_plan = plan_shared_memories(n_pes=self.spec.parallelism)
        return self._memory_plan

    def processing_elements(self) -> list[ProcessingElement]:
        """The P processing elements of this decoder."""
        ldpc_core = LdpcCoreModel(
            output_rate=self.spec.noc.injection_rate,
            pipeline_latency=self.spec.ldpc_core_latency_cycles,
        )
        siso_core = SisoCoreModel(pipeline_latency=self.spec.siso_core_latency_cycles)
        return [
            ProcessingElement(
                index=index,
                ldpc_core=ldpc_core,
                siso_core=siso_core,
                memory_plan=self.memory_plan,
            )
            for index in range(self.spec.parallelism)
        ]

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #
    def map_ldpc(self, code: WimaxLdpcCode) -> LdpcMapping:
        """Partition an LDPC code over the PEs (cached per code)."""
        key = f"{code.rate_name}:{code.n}"
        if key not in self._ldpc_mappings:
            self._ldpc_mappings[key] = map_ldpc_code(
                code.h,
                self.spec.parallelism,
                seed=self.spec.mapping_seed,
                attempts=self.spec.mapping_attempts,
                label=f"wimax-ldpc-{code.rate_name}-n{code.n}-P{self.spec.parallelism}",
            )
        return self._ldpc_mappings[key]

    def map_turbo(self, n_couples: int) -> TurboMapping:
        """Partition a turbo frame over the SISOs (cached per block size)."""
        if n_couples not in self._turbo_mappings:
            self._turbo_mappings[n_couples] = map_turbo_code(
                n_couples,
                self.spec.parallelism,
                label=f"wimax-ctc-N{n_couples}-P{self.spec.parallelism}",
            )
        return self._turbo_mappings[n_couples]

    # ------------------------------------------------------------------ #
    # Cycle-accurate evaluation
    # ------------------------------------------------------------------ #
    def _simulator(self, injection_rate: float | None = None) -> BatchNocSimulator:
        config = self.spec.noc
        if injection_rate is not None and injection_rate != config.injection_rate:
            from dataclasses import replace

            config = replace(config, injection_rate=injection_rate)
        return BatchNocSimulator(
            self.topology,
            config,
            routing_tables=self.routing_tables,
            seed=self.spec.mapping_seed,
        )

    def simulate_ldpc_iteration(self, code: WimaxLdpcCode) -> SimulationResult:
        """Simulate the message-passing phase of one LDPC iteration."""
        mapping = self.map_ldpc(code)
        return self._simulator().run(mapping.traffic)

    def simulate_turbo_half_iteration(self, n_couples: int) -> SimulationResult:
        """Simulate the message-passing phase of one turbo half-iteration.

        The injection rate is the configured ``R`` (the paper's Table II uses
        R = 0.5 for both modes); use :class:`~repro.pe.siso_core.SisoCoreModel`
        to reason about the SISO-limited rate of R = 1/3 separately.
        """
        mapping = self.map_turbo(n_couples)
        return self._simulator().run(mapping.traffic_forward)

    def evaluate_ldpc(self, code: WimaxLdpcCode) -> LdpcEvaluation:
        """Full system-level evaluation of one LDPC code (throughput, area, power)."""
        mapping = self.map_ldpc(code)
        simulation = self.simulate_ldpc_iteration(code)
        throughput = ldpc_throughput_bps(
            info_bits=code.k,
            clock_hz=self.spec.ldpc_clock_hz,
            max_iterations=self.spec.ldpc_max_iterations,
            core_latency_cycles=self.spec.ldpc_core_latency_cycles,
            message_passing_cycles=simulation.ncycles,
        )
        area = self.area(simulation)
        power = self.power_ldpc(code, simulation, area, throughput)
        return LdpcEvaluation(
            code_label=code.describe(),
            mapping=mapping,
            simulation=simulation,
            throughput_bps=throughput,
            area=area,
            power=power,
        )

    def evaluate_turbo(self, n_couples: int) -> TurboEvaluation:
        """Full system-level evaluation of one CTC block size."""
        mapping = self.map_turbo(n_couples)
        simulation = self.simulate_turbo_half_iteration(n_couples)
        info_bits = 2 * n_couples
        throughput = turbo_throughput_bps(
            info_bits=info_bits,
            noc_clock_hz=self.spec.turbo_noc_clock_hz,
            max_iterations=self.spec.turbo_max_iterations,
            core_latency_cycles=self.spec.siso_core_latency_cycles,
            half_iteration_cycles=simulation.ncycles,
        )
        area = self.area(simulation)
        power = self.power_turbo(n_couples, simulation, area, throughput)
        return TurboEvaluation(
            code_label=f"WiMAX CTC N={n_couples} couples ({info_bits} bits)",
            mapping=mapping,
            simulation=simulation,
            throughput_bps=throughput,
            area=area,
            power=power,
        )

    # ------------------------------------------------------------------ #
    # Cost models
    # ------------------------------------------------------------------ #
    def area(self, simulation: SimulationResult | None = None) -> AreaBreakdown:
        """Area breakdown; FIFO depths come from a simulation result when given."""
        if simulation is not None and simulation.per_node_max_fifo:
            fifo_depths: list[int] | int = simulation.per_node_max_fifo
        else:
            fifo_depths = 4
        return decoder_area(
            n_pes=self.spec.parallelism,
            crossbar_size=self.topology.crossbar_size,
            config=self.spec.noc,
            per_node_fifo_depth=fifo_depths,
            memory_plan=self.memory_plan,
        )

    def noc_area_mm2(self, simulation: SimulationResult) -> float:
        """NoC-only area (the quantity reported in the paper's Table I)."""
        return self.area(simulation).noc_mm2

    def power_ldpc(
        self,
        code: WimaxLdpcCode,
        simulation: SimulationResult,
        area: AreaBreakdown,
        throughput_bps: float,
    ) -> PowerReport:
        """Power estimate in LDPC mode."""
        frame_duration = code.k / throughput_bps
        core = LdpcCoreModel(output_rate=self.spec.noc.injection_rate)
        accesses_per_iteration = core.memory_accesses_per_iteration(code.h.row_degrees())
        accesses_per_frame = accesses_per_iteration * self.spec.ldpc_max_iterations
        hops_per_frame = (
            simulation.statistics.total_hops * self.spec.ldpc_max_iterations
        )
        return PowerModel().estimate(
            mode="LDPC",
            n_pes=self.spec.parallelism,
            pe_clock_hz=self.spec.ldpc_clock_hz,
            frame_duration_s=frame_duration,
            memory_accesses_per_frame=accesses_per_frame,
            message_hops_per_frame=hops_per_frame,
            flit_bits=self.spec.noc.flit_bits(self.spec.parallelism),
            total_area_mm2=area.total_mm2,
        )

    def power_turbo(
        self,
        n_couples: int,
        simulation: SimulationResult,
        area: AreaBreakdown,
        throughput_bps: float,
    ) -> PowerReport:
        """Power estimate in turbo mode."""
        info_bits = 2 * n_couples
        frame_duration = info_bits / throughput_bps
        siso = SisoCoreModel(pipeline_latency=self.spec.siso_core_latency_cycles)
        window = -(-n_couples // self.spec.parallelism)
        accesses_per_half = (
            siso.memory_accesses_per_half_iteration(window) * self.spec.parallelism
        )
        accesses_per_frame = accesses_per_half * 2 * self.spec.turbo_max_iterations
        hops_per_frame = (
            simulation.statistics.total_hops * 2 * self.spec.turbo_max_iterations
        )
        return PowerModel().estimate(
            mode="turbo",
            n_pes=self.spec.parallelism,
            pe_clock_hz=self.spec.turbo_siso_clock_hz,
            frame_duration_s=frame_duration,
            memory_accesses_per_frame=accesses_per_frame,
            message_hops_per_frame=hops_per_frame,
            flit_bits=self.spec.noc.flit_bits(self.spec.parallelism),
            total_area_mm2=area.total_mm2,
        )

    # ------------------------------------------------------------------ #
    # Functional decoding
    # ------------------------------------------------------------------ #
    def decode_ldpc_frame(
        self,
        code: WimaxLdpcCode,
        channel_llrs: np.ndarray,
        fixed_point: bool = True,
    ) -> LayeredDecoderResult:
        """Bit-true LDPC decoding of one frame with the layered min-sum core."""
        decoder = LayeredMinSumDecoder(
            code.h,
            max_iterations=self.spec.ldpc_max_iterations,
            fixed_point=fixed_point,
        )
        return decoder.decode(channel_llrs)

    def decode_turbo_frame(
        self,
        encoder: TurboEncoder,
        systematic_llrs: np.ndarray,
        parity1_llrs: np.ndarray,
        parity2_llrs: np.ndarray,
        bit_level_exchange: bool = True,
    ) -> TurboDecoderResult:
        """Bit-true turbo decoding of one frame with the Max-Log-MAP SISOs."""
        if encoder.n_couples < self.spec.parallelism:
            raise ConfigurationError(
                f"frame of {encoder.n_couples} couples cannot occupy "
                f"{self.spec.parallelism} SISOs"
            )
        decoder = TurboDecoder(
            encoder,
            max_iterations=self.spec.turbo_max_iterations,
            bit_level_exchange=bit_level_exchange,
        )
        return decoder.decode(systematic_llrs, parity1_llrs, parity2_llrs)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Multi-line structural summary of the decoder instance."""
        lines = [
            "NoC-based flexible turbo/LDPC decoder",
            f"  spec      : {self.spec.describe()}",
            f"  topology  : {self.topology.name}, diameter {self.routing_tables.diameter}, "
            f"avg distance {self.routing_tables.average_distance:.2f}",
            f"  memories  : {self.memory_plan.describe()}",
        ]
        return "\n".join(lines)
