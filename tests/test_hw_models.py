"""Unit tests for the hardware cost models (area, memory, power, technology)."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.hw import (
    NocAreaModel,
    PowerModel,
    ProcessingCoreAreaModel,
    TECH_45NM,
    TECH_65NM,
    TECH_90NM,
    decoder_area,
    plan_shared_memories,
    scale_area,
)
from repro.hw.area import AP_MAX_FIFO_DEPTH
from repro.noc.config import NocConfiguration, NodeArchitecture, RoutingAlgorithm


class TestTechnology:
    def test_scale_area_quadratic(self):
        assert scale_area(3.17, 90, 65) == pytest.approx(3.17 * (65 / 90) ** 2)

    def test_scale_area_identity(self):
        assert scale_area(1.0, 90, 90) == pytest.approx(1.0)

    def test_scale_area_matches_paper_normalisation(self):
        # Paper Table III: 3.17 mm^2 at 90 nm -> 1.65 mm^2 normalised to 65 nm.
        assert scale_area(3.17, 90, 65) == pytest.approx(1.65, abs=0.02)

    def test_smaller_nodes_have_smaller_bit_areas(self):
        assert TECH_65NM.sram_bit_area_um2 < TECH_90NM.sram_bit_area_um2
        assert TECH_45NM.gate_area_um2 < TECH_65NM.gate_area_um2

    def test_scale_area_rejects_bad_input(self):
        with pytest.raises(ModelError):
            scale_area(-1.0, 90, 65)
        with pytest.raises(ModelError):
            scale_area(1.0, 0, 65)


class TestMemoryPlan:
    def test_wimax_default_plan_matches_paper_sizing(self):
        plan = plan_shared_memories()
        # 7-bit memory sized by the 1152 x 7 LDPC worst case,
        # 5-bit memory by the 2400 x 4 turbo branch storage.
        assert plan.wide_locations == 1152 * 7
        assert plan.narrow_locations == 2400 * 4
        assert plan.total_bits == 1152 * 7 * 7 + 2400 * 4 * 5

    def test_turbo_state_metrics_fit_in_wide_memory(self):
        plan = plan_shared_memories(n_pes=22)
        assert plan.turbo_state_metric_locations == 22 * 3 * 2 * 8
        assert plan.turbo_state_metric_locations <= plan.wide_locations

    def test_smaller_code_set_needs_less_memory(self):
        wifi_only = plan_shared_memories(ldpc_max_checks=972, turbo_max_couples=240)
        assert wifi_only.total_bits < plan_shared_memories().total_bits

    def test_describe_mentions_bits(self):
        assert "bits" in plan_shared_memories().describe()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            plan_shared_memories(n_pes=0)
        with pytest.raises(ModelError):
            plan_shared_memories(ldpc_max_checks=0)
        with pytest.raises(ModelError):
            plan_shared_memories(wide_bits=0)


class TestNocAreaModel:
    def test_node_area_scales_with_fifo_depth(self):
        model = NocAreaModel()
        shallow = model.node_area_um2(4, 26, fifo_depth=2)
        deep = model.node_area_um2(4, 26, fifo_depth=16)
        assert deep > 2 * shallow

    def test_node_area_scales_with_crossbar_size(self):
        model = NocAreaModel()
        assert model.node_area_um2(5, 26, 4) > model.node_area_um2(3, 26, 4)

    def test_pp_wider_flit_than_ap(self):
        pp = NocConfiguration(node_architecture=NodeArchitecture.PP)
        ap = NocConfiguration(node_architecture=NodeArchitecture.AP)
        model = NocAreaModel()
        pp_area = model.noc_area_mm2(22, 4, pp, per_node_fifo_depth=4)
        ap_area = model.noc_area_mm2(22, 4, ap, per_node_fifo_depth=4)
        assert pp_area > ap_area

    def test_ap_fifo_depth_capped(self):
        ap = NocConfiguration(node_architecture=NodeArchitecture.AP)
        model = NocAreaModel()
        deep = model.noc_area_mm2(22, 4, ap, per_node_fifo_depth=64)
        capped = model.noc_area_mm2(22, 4, ap, per_node_fifo_depth=AP_MAX_FIFO_DEPTH)
        assert deep == pytest.approx(capped)

    def test_wimax_ap_noc_area_in_paper_ballpark(self):
        """22-node degree-3 Kautz AP NoC: the paper reports ~0.34 mm^2."""
        ap = NocConfiguration(node_architecture=NodeArchitecture.AP,
                              routing_algorithm=RoutingAlgorithm.ASP_FT)
        area = NocAreaModel().noc_area_mm2(22, 4, ap, per_node_fifo_depth=4)
        assert 0.15 <= area <= 0.7

    def test_per_node_depth_list_accepted(self):
        config = NocConfiguration()
        area = NocAreaModel().noc_area_mm2(4, 4, config, per_node_fifo_depth=[2, 4, 8, 2])
        assert area > 0

    def test_rejects_bad_inputs(self):
        model = NocAreaModel()
        with pytest.raises(ModelError):
            model.node_area_um2(1, 26, 4)
        with pytest.raises(ModelError):
            model.node_area_um2(4, 0, 4)
        with pytest.raises(ModelError):
            model.noc_area_mm2(0, 4, NocConfiguration(), 4)
        with pytest.raises(ModelError):
            model.noc_area_mm2(4, 4, NocConfiguration(), [1, 2])


class TestCoreAreaAndBreakdown:
    def test_core_breakdown_matches_paper_shares(self):
        """Paper Section V: memories 61.8 %, SISO logic 18.6 %, LDPC logic 19.6 % of 2.56 mm^2."""
        breakdown = ProcessingCoreAreaModel().core_area_mm2(22, plan_shared_memories(n_pes=22))
        assert breakdown.core_mm2 == pytest.approx(2.56, rel=0.15)
        assert breakdown.memory_share == pytest.approx(0.618, abs=0.06)

    def test_total_area_near_paper_value(self):
        breakdown = decoder_area(
            n_pes=22,
            crossbar_size=4,
            config=NocConfiguration(),
            per_node_fifo_depth=4,
            memory_plan=plan_shared_memories(n_pes=22),
        )
        assert breakdown.total_mm2 == pytest.approx(3.17, rel=0.20)
        assert 0.05 <= breakdown.noc_share <= 0.30

    def test_breakdown_sums(self):
        breakdown = decoder_area(
            n_pes=8,
            crossbar_size=4,
            config=NocConfiguration(),
            per_node_fifo_depth=4,
            memory_plan=plan_shared_memories(n_pes=8),
        )
        assert breakdown.total_mm2 == pytest.approx(breakdown.core_mm2 + breakdown.noc_mm2)
        assert "mm^2" in breakdown.describe()

    def test_rejects_bad_pe_count(self):
        with pytest.raises(ModelError):
            ProcessingCoreAreaModel().core_area_mm2(0, plan_shared_memories())


class TestPowerModel:
    def _estimate(self, mode, clock_hz, frame_duration, accesses, hops):
        return PowerModel().estimate(
            mode=mode,
            n_pes=22,
            pe_clock_hz=clock_hz,
            frame_duration_s=frame_duration,
            memory_accesses_per_frame=accesses,
            message_hops_per_frame=hops,
            flit_bits=26,
            total_area_mm2=3.0,
        )

    def test_ldpc_mode_consumes_more_than_turbo_mode(self):
        """The paper's key power claim: turbo mode is far below LDPC mode."""
        ldpc = self._estimate("LDPC", 300e6, 16e-6, 300_000, 120_000)
        turbo = self._estimate("turbo", 37.5e6, 65e-6, 190_000, 80_000)
        assert ldpc.total_mw > 3 * turbo.total_mw

    def test_ldpc_power_in_paper_ballpark(self):
        ldpc = self._estimate("LDPC", 300e6, 16e-6, 300_000, 120_000)
        assert 200 <= ldpc.total_mw <= 700

    def test_components_positive_and_sum(self):
        report = self._estimate("LDPC", 300e6, 16e-6, 300_000, 120_000)
        assert report.total_mw == pytest.approx(
            report.pe_dynamic_mw + report.memory_dynamic_mw + report.noc_dynamic_mw + report.leakage_mw
        )
        assert report.pe_dynamic_mw > 0 and report.leakage_mw > 0

    def test_describe(self):
        report = self._estimate("LDPC", 300e6, 16e-6, 1000, 1000)
        assert "LDPC" in report.describe()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            self._estimate("LDPC", 300e6, 0.0, 1, 1)
        with pytest.raises(ModelError):
            PowerModel().estimate(
                mode="x", n_pes=0, pe_clock_hz=1e6, frame_duration_s=1e-6,
                memory_accesses_per_frame=1, message_hops_per_frame=1,
                flit_bits=10, total_area_mm2=1.0,
            )
        with pytest.raises(ModelError):
            PowerModel().estimate(
                mode="x", n_pes=2, pe_clock_hz=1e6, frame_duration_s=1e-6,
                memory_accesses_per_frame=1, message_hops_per_frame=1,
                flit_bits=10, total_area_mm2=1.0, pe_activity=1.5,
            )
