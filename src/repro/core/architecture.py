"""The flexible NoC-based turbo/LDPC decoder architecture.

:class:`NocDecoderArchitecture` is the paper's contribution seen as one
object: a set of P processing elements interconnected by an intra-IP NoC,
configurable at run time for LDPC (layered normalized min-sum) or turbo
(Max-Log-MAP double-binary) decoding.  It offers three families of services:

* **mapping + cycle-accurate evaluation** — place a WiMAX code on the NoC,
  simulate the message-passing phase and report ``ncycles``, throughput
  (eq. (12)), FIFO sizing, area and power.  Mapping, simulation and eq. (12)
  go through the :class:`~repro.core.design_flow.DesignSpaceExplorer`'s
  path, the one that produces the Table-I points, with the spec's NoC
  configuration exactly as given; this class adds the full decoder area
  and the power;
* **functional decoding** — bit-true frame decoding in either mode (the NoC
  changes *when* messages arrive, not their values, so the functional path
  runs the batch decoders of :mod:`repro.sim` on a one-frame batch);
* **reporting** — structural and cost breakdowns used by the examples and the
  benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.config import DecoderSpec
from repro.core.design_flow import DesignSpaceExplorer
from repro.errors import ConfigurationError, DecodingError
from repro.hw.area import AreaBreakdown, decoder_area
from repro.hw.memory import DecoderMemoryPlan, plan_shared_memories
from repro.hw.power import PowerModel, PowerReport
from repro.ldpc.wimax import WimaxLdpcCode
from repro.mapping.ldpc_mapping import LdpcMapping
from repro.mapping.turbo_mapping import TurboMapping
from repro.noc.results import SimulationResult
from repro.noc.routing import RoutingTables
from repro.noc.topologies import Topology
from repro.pe.ldpc_core import LdpcCoreModel
from repro.pe.processing_element import ProcessingElement
from repro.pe.siso_core import SisoCoreModel
from repro.sim.batch import BatchDecodeResult, BatchLayeredDecoder
from repro.sim.turbo_batch import BatchTurboDecoder, BatchTurboResult
from repro.turbo.encoder import TurboEncoder


@dataclass(frozen=True)
class DecoderEvaluation:
    """System-level evaluation of one LDPC code or CTC block size on one decoder instance."""

    code_label: str
    mapping: LdpcMapping | TurboMapping
    simulation: SimulationResult
    throughput_bps: float
    area: AreaBreakdown
    power: PowerReport

    @property
    def throughput_mbps(self) -> float:
        """Throughput in Mb/s."""
        return self.throughput_bps / 1.0e6


@dataclass(frozen=True)
class NocDecoderArchitecture:
    """A flexible turbo/LDPC decoder built around an intra-IP NoC.

    Frozen: everything cached below was built from ``spec``.

    Parameters
    ----------
    spec:
        Architectural parameters; defaults to the paper's WiMAX design case.
    """

    spec: DecoderSpec = field(default_factory=DecoderSpec)

    # ------------------------------------------------------------------ #
    # Lazily built structural views
    # ------------------------------------------------------------------ #
    @cached_property
    def _explorer(self) -> DesignSpaceExplorer:
        # Mapping, simulation and eq. (12) go through the design-space
        # explorer's path; it also caches this instance's graph and mappings.
        return DesignSpaceExplorer(self.spec, seed=self.spec.mapping_seed)

    def _graph(self) -> tuple[Topology, RoutingTables]:
        spec = self.spec
        return self._explorer._cached_graph(spec.topology_family, spec.degree, spec.parallelism)

    @property
    def topology(self) -> Topology:
        """The NoC topology of this decoder instance."""
        return self._graph()[0]

    @property
    def routing_tables(self) -> RoutingTables:
        """Shortest-path routing tables for the topology."""
        return self._graph()[1]

    @cached_property
    def memory_plan(self) -> DecoderMemoryPlan:
        """Shared-memory plan for full WiMAX support at this parallelism."""
        return plan_shared_memories(n_pes=self.spec.parallelism)

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
    # Cycle-accurate evaluation
    # ------------------------------------------------------------------ #
    def _simulated(
        self, code: WimaxLdpcCode | int
    ) -> tuple[LdpcMapping | TurboMapping, SimulationResult, float]:
        """Mapping, simulation and eq. (12) bits/s of ``code`` on ``spec.noc`` as given."""
        spec = self.spec
        cell = (spec.topology_family, spec.degree, spec.parallelism, spec.noc)
        ((_, mapping, simulation, throughput),) = self._explorer._evaluate(code, [cell])
        return mapping, simulation, throughput

    def evaluate_ldpc(self, code: WimaxLdpcCode) -> DecoderEvaluation:
        """Full system-level evaluation of one LDPC code (throughput, area, power).

        The simulation covers the message-passing phase of one iteration.
        """
        mapping, simulation, throughput = self._simulated(code)
        area = self.area(simulation)
        return DecoderEvaluation(
            code_label=code.describe(),
            mapping=mapping,
            simulation=simulation,
            throughput_bps=throughput,
            area=area,
            power=self.power_ldpc(code, simulation, area, throughput),
        )

    def evaluate_turbo(self, n_couples: int) -> DecoderEvaluation:
        """Full system-level evaluation of one CTC block size.

        The simulation covers one half-iteration at the configured injection
        rate ``R`` (the paper's Table II uses R = 0.5 for both modes); use
        :class:`~repro.pe.siso_core.SisoCoreModel` to reason about the
        SISO-limited rate of R = 1/3 separately.
        """
        mapping, simulation, throughput = self._simulated(n_couples)
        area = self.area(simulation)
        return DecoderEvaluation(
            code_label=f"WiMAX CTC N={n_couples} couples ({2 * n_couples} bits)",
            mapping=mapping,
            simulation=simulation,
            throughput_bps=throughput,
            area=area,
            power=self.power_turbo(n_couples, simulation, area, throughput),
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
    ) -> BatchDecodeResult:
        """Bit-true LDPC decoding of one frame with the layered min-sum core.

        ``channel_llrs`` is one ``(n,)`` frame; the result is a one-frame
        batch, so the frame is row 0 of each array.
        """
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        if llrs.shape != (code.n,):
            raise DecodingError(f"expected {code.n} channel LLRs, got shape {llrs.shape}")
        decoder = BatchLayeredDecoder(
            code.h,
            max_iterations=self.spec.ldpc_max_iterations,
            fixed_point=fixed_point,
        )
        return decoder.decode_batch(llrs[None, :])

    def decode_turbo_frame(
        self,
        encoder: TurboEncoder,
        systematic_llrs: np.ndarray,
        parity1_llrs: np.ndarray,
        parity2_llrs: np.ndarray,
        bit_level_exchange: bool = True,
    ) -> BatchTurboResult:
        """Bit-true turbo decoding of one frame with the Max-Log-MAP SISOs.

        Each LLR array is one frame's ``(n_couples, 2)`` sub-block; the
        result is a one-frame batch, so the frame is row 0 of each array.
        """
        if encoder.n_couples < self.spec.parallelism:
            raise ConfigurationError(
                f"frame of {encoder.n_couples} couples cannot occupy "
                f"{self.spec.parallelism} SISOs"
            )
        expected = (encoder.n_couples, 2)
        blocks = []
        for name, llrs in (
            ("systematic", systematic_llrs),
            ("parity1", parity1_llrs),
            ("parity2", parity2_llrs),
        ):
            arr = np.asarray(llrs, dtype=np.float64)
            if arr.shape != expected:
                raise DecodingError(f"{name} LLRs must have shape {expected}, got {arr.shape}")
            blocks.append(arr[None, :, :])
        decoder = BatchTurboDecoder(
            encoder,
            max_iterations=self.spec.turbo_max_iterations,
            bit_level_exchange=bit_level_exchange,
        )
        return decoder.decode_split(*blocks)

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
