"""Unit and integration tests for the core decoder architecture and throughput models."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    DecoderSpec,
    NocDecoderArchitecture,
    WIMAX_DECODER_SPEC,
    ldpc_throughput_bps,
    turbo_throughput_bps,
)
from repro.core.throughput import meets_wimax_requirement
from repro.errors import ConfigurationError, ModelError
from repro.ldpc import wimax_ldpc_code
from repro.noc import RoutingAlgorithm
from repro.turbo import TurboEncoder
from tests.conftest import make_ldpc_llrs


class TestDecoderSpec:
    def test_default_is_paper_design_case(self):
        spec = WIMAX_DECODER_SPEC
        assert spec.topology_family == "generalized-kautz"
        assert spec.parallelism == 22
        assert spec.degree == 3
        assert spec.ldpc_clock_hz == 300e6
        assert spec.turbo_noc_clock_hz == 75e6
        assert spec.ldpc_max_iterations == 10
        assert spec.turbo_max_iterations == 8

    def test_siso_clock_is_half_noc_clock(self):
        assert WIMAX_DECODER_SPEC.turbo_siso_clock_hz == pytest.approx(37.5e6)

    def test_with_routing_and_parallelism(self):
        spec = replace(WIMAX_DECODER_SPEC.with_routing(RoutingAlgorithm.ASP_FT), parallelism=16)
        assert spec.noc.routing_algorithm is RoutingAlgorithm.ASP_FT
        assert spec.parallelism == 16

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            DecoderSpec(parallelism=1)
        with pytest.raises(ConfigurationError):
            DecoderSpec(degree=1)
        with pytest.raises(ConfigurationError):
            DecoderSpec(ldpc_clock_hz=0)
        with pytest.raises(ConfigurationError):
            DecoderSpec(ldpc_max_iterations=0)
        with pytest.raises(ConfigurationError):
            DecoderSpec(mapping_attempts=0)

    def test_describe(self):
        assert "generalized-kautz" in WIMAX_DECODER_SPEC.describe()


class TestThroughputFormulas:
    def test_ldpc_formula_matches_paper_example(self):
        """Paper eq. (12): 1152 info bits, 300 MHz, 10 iterations, latcore 15."""
        throughput = ldpc_throughput_bps(1152, 300e6, 10, 15, 465)
        assert throughput == pytest.approx(1152 * 300e6 / (480 * 10))
        assert throughput / 1e6 == pytest.approx(72.0, rel=0.01)

    def test_ldpc_throughput_decreases_with_ncycles(self):
        fast = ldpc_throughput_bps(1152, 300e6, 10, 15, 300)
        slow = ldpc_throughput_bps(1152, 300e6, 10, 15, 600)
        assert fast > slow

    def test_turbo_formula_counts_two_half_iterations(self):
        single = turbo_throughput_bps(4800, 75e6, 1, 15, 300)
        double = turbo_throughput_bps(4800, 75e6, 2, 15, 300)
        assert single == pytest.approx(2 * double)

    def test_turbo_formula_paper_ballpark(self):
        # ~290 cycles per half-iteration reproduces the paper's 74 Mb/s figure.
        throughput = turbo_throughput_bps(4800, 75e6, 8, 15, 290)
        assert 65e6 <= throughput <= 80e6

    def test_wimax_requirement_check(self):
        assert meets_wimax_requirement(72e6)
        assert not meets_wimax_requirement(60e6)
        with pytest.raises(ModelError):
            meets_wimax_requirement(-1.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ModelError):
            ldpc_throughput_bps(0, 300e6, 10, 15, 100)
        with pytest.raises(ModelError):
            ldpc_throughput_bps(1152, 300e6, 10, 15, 0)
        with pytest.raises(ModelError):
            turbo_throughput_bps(4800, 0, 8, 15, 100)
        with pytest.raises(ModelError):
            turbo_throughput_bps(4800, 75e6, 0, 15, 100)


class TestArchitectureStructure:
    def test_topology_matches_spec(self, small_decoder_architecture):
        arch = small_decoder_architecture
        assert arch.topology.n_nodes == 8
        assert arch.topology.degree == 3
        assert arch.routing_tables.diameter >= 1

    def test_processing_elements_count(self, small_decoder_architecture):
        pes = small_decoder_architecture.processing_elements()
        assert len(pes) == 8
        assert pes[3].index == 3

    def test_memory_plan_cached(self, small_decoder_architecture):
        assert small_decoder_architecture.memory_plan is small_decoder_architecture.memory_plan

    def test_describe_contains_topology(self, small_decoder_architecture):
        assert "generalized-kautz" in small_decoder_architecture.describe()


class TestArchitectureEvaluation:
    def test_ldpc_mapping_cached_per_code(self, small_decoder_architecture, small_ldpc_code):
        first = small_decoder_architecture.map_ldpc(small_ldpc_code)
        second = small_decoder_architecture.map_ldpc(small_ldpc_code)
        assert first is second

    def test_turbo_mapping_cached_per_block(self, small_decoder_architecture):
        assert small_decoder_architecture.map_turbo(48) is small_decoder_architecture.map_turbo(48)

    def test_ldpc_evaluation_consistency(self, small_decoder_architecture, small_ldpc_code):
        evaluation = small_decoder_architecture.evaluate_ldpc(small_ldpc_code)
        assert evaluation.simulation.all_delivered
        assert evaluation.throughput_mbps > 0
        expected = ldpc_throughput_bps(
            small_ldpc_code.k,
            small_decoder_architecture.spec.ldpc_clock_hz,
            small_decoder_architecture.spec.ldpc_max_iterations,
            small_decoder_architecture.spec.ldpc_core_latency_cycles,
            evaluation.simulation.ncycles,
        )
        assert evaluation.throughput_bps == pytest.approx(expected)
        assert evaluation.area.total_mm2 > evaluation.area.noc_mm2
        assert evaluation.power.total_mw > 0

    def test_turbo_evaluation_consistency(self, small_decoder_architecture):
        evaluation = small_decoder_architecture.evaluate_turbo(240)
        assert evaluation.simulation.all_delivered
        assert evaluation.throughput_mbps > 0
        assert evaluation.power.total_mw > 0
        assert evaluation.mapping.n_nodes == 8

    def test_turbo_mode_power_below_ldpc_mode_power(
        self, small_decoder_architecture, small_ldpc_code
    ):
        ldpc = small_decoder_architecture.evaluate_ldpc(small_ldpc_code)
        turbo = small_decoder_architecture.evaluate_turbo(240)
        assert turbo.power.total_mw < ldpc.power.total_mw

    def test_functional_ldpc_decoding_through_architecture(
        self, small_decoder_architecture, small_ldpc_code, rng
    ):
        codeword, llrs = make_ldpc_llrs(small_ldpc_code, ebn0_db=3.0, rng=rng)
        result = small_decoder_architecture.decode_ldpc_frame(small_ldpc_code, llrs)
        assert np.array_equal(result.hard_bits, codeword)

    def test_functional_turbo_decoding_through_architecture(self, small_decoder_architecture, rng):
        encoder = TurboEncoder(n_couples=48, rate="1/2")
        info = rng.integers(0, 2, encoder.k)
        llrs = 8.0 * (1 - 2 * encoder.encode(info).to_bit_array().astype(float))
        from repro.turbo import TurboDecoder

        sys_llrs, par1, par2 = TurboDecoder(encoder).split_llrs(llrs)
        result = small_decoder_architecture.decode_turbo_frame(encoder, sys_llrs, par1, par2)
        assert np.array_equal(result.hard_bits, info)

    def test_turbo_frame_smaller_than_parallelism_rejected(self):
        arch = NocDecoderArchitecture(DecoderSpec(parallelism=30, degree=3, mapping_attempts=1))
        encoder = TurboEncoder(n_couples=24)
        with pytest.raises(ConfigurationError):
            arch.decode_turbo_frame(
                encoder, np.zeros((24, 2)), np.zeros((24, 2)), np.zeros((24, 2))
            )


class TestWimaxDesignCase:
    """Slower checks against the paper's P=22 design point (n=2304 code)."""

    @pytest.fixture(scope="class")
    def wimax_architecture(self):
        return NocDecoderArchitecture(DecoderSpec(mapping_attempts=2))

    @pytest.fixture(scope="class")
    def wimax_ldpc_evaluation(self, wimax_architecture):
        return wimax_architecture.evaluate_ldpc(wimax_ldpc_code(2304, "1/2"))

    @pytest.fixture(scope="class")
    def wimax_turbo_evaluation(self, wimax_architecture):
        return wimax_architecture.evaluate_turbo(2400)

    def test_ldpc_throughput_in_paper_range(self, wimax_ldpc_evaluation):
        # Paper: 72 Mb/s; our partitioner is a Metis substitute, so allow a
        # wider band while still requiring the right order of magnitude.
        assert 45 <= wimax_ldpc_evaluation.throughput_mbps <= 110

    def test_turbo_throughput_meets_wimax_requirement(self, wimax_turbo_evaluation):
        assert wimax_turbo_evaluation.throughput_mbps >= 70

    def test_total_area_close_to_paper(self, wimax_ldpc_evaluation):
        assert wimax_ldpc_evaluation.area.total_mm2 == pytest.approx(3.17, rel=0.25)

    def test_memory_dominates_core_area(self, wimax_ldpc_evaluation):
        assert wimax_ldpc_evaluation.area.memory_share > 0.5

    def test_noc_share_about_one_fifth(self, wimax_ldpc_evaluation):
        assert 0.05 <= wimax_ldpc_evaluation.area.noc_share <= 0.35

    def test_turbo_power_much_lower_than_ldpc_power(
        self, wimax_ldpc_evaluation, wimax_turbo_evaluation
    ):
        assert wimax_turbo_evaluation.power.total_mw < 0.5 * wimax_ldpc_evaluation.power.total_mw
