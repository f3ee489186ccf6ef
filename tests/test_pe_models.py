"""Unit tests for the processing-element models (paper Figs. 2-3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.hw.memory import plan_shared_memories
from repro.pe import (
    DecoderMode,
    LdpcCoreModel,
    ProcessingElement,
    SisoCoreModel,
)
from repro.pe.ldpc_core import LDPC_CORE_LATENCY_CYCLES
from repro.pe.siso_core import SISO_TO_NOC_CLOCK_RATIO


class TestLdpcCoreModel:
    def test_default_latency_matches_paper(self):
        assert LdpcCoreModel().pipeline_latency == LDPC_CORE_LATENCY_CYCLES == 15

    def test_iteration_timing_counts_edges(self):
        core = LdpcCoreModel(output_rate=0.5)
        timing = core.iteration_timing([6, 7, 6])
        assert timing.total_edges == 19
        assert timing.processing_cycles == int(np.ceil(19 / 0.5))
        assert timing.busy_cycles == timing.processing_cycles + 15

    def test_memory_accesses_four_per_edge(self):
        core = LdpcCoreModel()
        assert core.memory_accesses_per_iteration([6, 6]) == 4 * 12

    def test_output_rate_one_message_per_cycle(self):
        timing = LdpcCoreModel(output_rate=1.0).iteration_timing([6, 6])
        assert timing.processing_cycles == 12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            LdpcCoreModel(output_rate=0.0)
        with pytest.raises(ModelError):
            LdpcCoreModel(output_rate=1.5)
        with pytest.raises(ModelError):
            LdpcCoreModel(pipeline_latency=0)

    def test_rejects_bad_workload(self):
        core = LdpcCoreModel()
        with pytest.raises(ModelError):
            core.iteration_timing([])
        with pytest.raises(ModelError):
            core.iteration_timing([1, 6])

    def test_structure_mentions_meu(self):
        assert "MEU" in LdpcCoreModel.structure()


class TestSisoCoreModel:
    def test_injection_rate_is_one_third(self):
        # 2 outputs per 3 SISO cycles at half the NoC clock -> 1/3 per NoC cycle.
        assert SisoCoreModel().noc_injection_rate == pytest.approx(1.0 / 3.0)

    def test_half_iteration_timing(self):
        siso = SisoCoreModel()
        timing = siso.half_iteration_timing(110)
        assert timing.siso_cycles == 55 * 3
        assert timing.noc_cycles == int(round(timing.siso_cycles / SISO_TO_NOC_CLOCK_RATIO))
        assert timing.busy_noc_cycles > timing.noc_cycles

    def test_memory_accesses(self):
        assert SisoCoreModel().memory_accesses_per_half_iteration(10) == 50

    def test_odd_window_rounds_up(self):
        timing = SisoCoreModel().half_iteration_timing(5)
        assert timing.siso_cycles == 9  # ceil(5/2) groups of 3 cycles

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            SisoCoreModel(pipeline_latency=0)
        with pytest.raises(ModelError):
            SisoCoreModel(windows_per_siso=0)
        with pytest.raises(ModelError):
            SisoCoreModel().half_iteration_timing(0)

    def test_structure_mentions_bmu_and_ecu(self):
        structure = SisoCoreModel.structure()
        assert "BMU" in structure and "ECU" in structure


class TestProcessingElement:
    @pytest.fixture()
    def pe(self):
        return ProcessingElement(
            index=0,
            ldpc_core=LdpcCoreModel(output_rate=0.5),
            siso_core=SisoCoreModel(),
            memory_plan=plan_shared_memories(n_pes=22),
        )

    def test_injection_rates_per_mode(self, pe):
        assert pe.injection_rate(DecoderMode.LDPC) == 0.5
        assert pe.injection_rate(DecoderMode.TURBO) == pytest.approx(1.0 / 3.0)

    def test_busy_cycles_ldpc(self, pe):
        assert pe.busy_cycles(DecoderMode.LDPC, np.array([6, 6, 7])) > 0

    def test_busy_cycles_turbo(self, pe):
        assert pe.busy_cycles(DecoderMode.TURBO, 110) > 0

    def test_busy_cycles_turbo_rejects_array(self, pe):
        with pytest.raises(ModelError):
            pe.busy_cycles(DecoderMode.TURBO, np.array([1, 2]))

    def test_structure_lists_both_cores(self, pe):
        structure = pe.structure()
        assert "LDPC decoding core" in structure
        assert "Turbo decoding core (SISO)" in structure
        assert "shared memories" in structure
