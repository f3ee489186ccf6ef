"""Tests for the design-space explorer and the analysis/reporting layer."""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    build_table1,
    build_table2,
    build_table3,
    check_table1_trends,
)
from repro.analysis.reference import PAPER_CORE_BREAKDOWN
from repro.core import DecoderSpec, DesignPoint, DesignSpaceExplorer, NocDecoderArchitecture
from repro.core import design_flow
from repro.errors import ConfigurationError, MappingError, TopologyError
from repro.ldpc import wimax_ldpc_code
from repro.noc import RoutingAlgorithm, run_noc_sweep


@pytest.fixture(scope="module")
def small_sweep():
    """A small but structurally complete sweep on the n=576 code."""
    explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1), seed=0)
    code = wimax_ldpc_code(576, "1/2")
    return explorer.sweep_ldpc(
        code,
        topologies=[("generalized-kautz", 2), ("generalized-kautz", 3), ("spidergon", 3)],
        parallelisms=[8, 12],
        routing_algorithms=[RoutingAlgorithm.SSP_RR, RoutingAlgorithm.SSP_FL],
    )


#: The Table-I grid of the paper (WiMAX 2304 r1/2) and its pinned outputs.
TABLE1_TOPOLOGIES = [
    ("generalized-de-bruijn", 2),
    ("generalized-kautz", 2),
    ("spidergon", 3),
    ("generalized-kautz", 3),
    ("honeycomb", 4),
    ("generalized-kautz", 4),
]
TABLE1_PARALLELISMS = [16, 24, 32, 36]
TABLE1_ALGORITHMS = [RoutingAlgorithm.SSP_RR, RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT]
#: SHA-256 of ``repr`` of its 60 design points (``mapping_attempts=2``, seed
#: 0); only an intended change to mapping, simulation or costing re-records it.
TABLE1_POINTS_DIGEST = "816e8889eac05d7285673c64420f9680f4a9ea4f5c897b87b5f74746ffac2bba"
#: ``evaluate_turbo_point(240, "generalized-kautz", 3, 8, SSP-FL)``, pinned the same way.
TURBO_POINT = DesignPoint(
    topology_family="generalized-kautz", degree=3, parallelism=8,
    routing_algorithm=RoutingAlgorithm.SSP_FL, node_architecture="PP", mode="turbo",
    ncycles=53, throughput_mbps=33.088235294117645, noc_area_mm2=0.1420096,
    max_fifo_depth=2, locality=0.16666666666666666, mean_latency=2.5416666666666665,
)


class TestDesignSpaceExplorer:
    def test_sweep_covers_all_valid_points(self, small_sweep):
        assert len(small_sweep) == 3 * 2 * 2

    def test_every_point_has_positive_metrics(self, small_sweep):
        for point in small_sweep:
            assert point.throughput_mbps > 0
            assert point.noc_area_mm2 > 0
            assert point.ncycles > 0
            assert point.cell().count("/") == 1

    def test_throughput_improves_with_parallelism(self, small_sweep):
        kautz3 = {
            p.parallelism: p.throughput_mbps
            for p in small_sweep
            if p.topology_family == "generalized-kautz"
            and p.degree == 3
            and p.routing_algorithm is RoutingAlgorithm.SSP_FL
        }
        assert kautz3[12] >= kautz3[8] * 0.9

    def test_degree_three_beats_degree_two(self, small_sweep):
        def mean(degree):
            values = [
                p.throughput_mbps
                for p in small_sweep
                if p.topology_family == "generalized-kautz" and p.degree == degree
            ]
            return sum(values) / len(values)

        assert mean(3) >= mean(2)

    def test_invalid_points_skipped(self):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1))
        code = wimax_ldpc_code(576, "1/2")
        # 13 nodes cannot form a 2D grid at all, so the toroidal-mesh point is
        # skipped and the sweep still returns the Kautz points.
        points = explorer.sweep_ldpc(
            code,
            topologies=[("toroidal-mesh", 4), ("generalized-kautz", 3)],
            parallelisms=[13],
            routing_algorithms=[RoutingAlgorithm.SSP_FL],
        )
        assert {p.topology_family for p in points} == {"generalized-kautz"}

    def test_infeasible_single_point_raises(self):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1))
        code = wimax_ldpc_code(576, "1/2")
        with pytest.raises(TopologyError):
            explorer.evaluate_ldpc_point(
                code, "toroidal-mesh", 4, 13, RoutingAlgorithm.SSP_FL
            )

    @pytest.mark.parametrize("seed", [1.5, -1, True, "0"])
    def test_rejects_invalid_seed(self, seed):
        with pytest.raises(ConfigurationError):
            DesignSpaceExplorer(DecoderSpec(mapping_attempts=1), seed=seed)

    def test_sweep_explore_and_single_points_agree(self):
        """The three LDPC entry points give equal points in grid order."""
        code = wimax_ldpc_code(576, "1/2")
        topologies = [("toroidal-mesh", 4), ("spidergon", 3), ("generalized-kautz", 2)]
        parallelisms = [8, 12, 13]
        algorithms = [RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT]

        def explorer():
            return DesignSpaceExplorer(DecoderSpec(mapping_attempts=1), seed=3)

        swept = explorer().sweep_ldpc(code, topologies, parallelisms, algorithms)
        explored = explorer().explore(code, topologies, parallelisms, algorithms).points
        single = explorer()
        one_by_one = []
        for family, degree in topologies:
            for parallelism in parallelisms:
                for algorithm in algorithms:
                    try:
                        one_by_one.append(single.evaluate_ldpc_point(
                            code, family, degree, parallelism, algorithm
                        ))
                    except (TopologyError, MappingError):
                        continue
        # Feasible cells: the mesh at 12, the spidergon at 8 and 12, the Kautz
        # graph at all three P.
        assert len(swept) == 6 * 2
        assert swept == explored == one_by_one

    def test_each_entry_point_makes_one_sweep_call_in_grid_order(self, monkeypatch):
        calls = []

        def recording_sweep(jobs, **kwargs):
            calls.append([(j.family, j.degree, j.parallelism, j.config.routing_algorithm)
                          for j in jobs])
            return run_noc_sweep(jobs, **kwargs)

        monkeypatch.setattr(design_flow, "run_noc_sweep", recording_sweep)
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1))
        code = wimax_ldpc_code(576, "1/2")
        topologies = [("spidergon", 3), ("generalized-kautz", 2)]
        algorithms = [RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT]
        grid = [
            (family, degree, parallelism, algorithm)
            for family, degree in topologies
            for parallelism in (8, 12)
            for algorithm in algorithms
        ]
        explorer.sweep_ldpc(code, topologies, [8, 12], algorithms)
        explorer.explore(code, topologies, [8, 12], algorithms)
        explorer.explore(code, topologies, [8, 12], algorithms, screen="analytical",
                         confirm_top=1)
        explorer.evaluate_ldpc_point(code, *grid[0])
        explorer.evaluate_turbo_point(240, *grid[-1])
        assert calls[:2] == [grid, grid]
        screened = calls[2]
        assert 0 < len(screened) < len(grid)
        assert screened == [combo for combo in grid if combo in screened]
        assert calls[3:] == [[grid[0]], [grid[-1]]]

    def test_turbo_point_evaluation(self):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1))
        point = explorer.evaluate_turbo_point(
            240, "generalized-kautz", 3, 8, RoutingAlgorithm.SSP_FL
        )
        assert point == TURBO_POINT

    def test_best_point_selection(self, small_sweep):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1))
        best = explorer.best_point(small_sweep)
        ratios = [p.throughput_mbps / p.noc_area_mm2 for p in small_sweep]
        assert best.throughput_mbps / best.noc_area_mm2 == pytest.approx(max(ratios))

    def test_best_point_with_floor(self, small_sweep):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=1))
        floor = sorted(p.throughput_mbps for p in small_sweep)[len(small_sweep) // 2]
        best = explorer.best_point(small_sweep, throughput_floor_mbps=floor)
        assert best.throughput_mbps >= floor

    def test_best_point_requires_points(self):
        with pytest.raises(ConfigurationError):
            DesignSpaceExplorer().best_point([])


class TestGridInput:
    """A malformed grid raises ConfigurationError before any cell is built."""

    CODE = wimax_ldpc_code(576, "1/2")

    @staticmethod
    def explorer():
        return DesignSpaceExplorer(DecoderSpec(mapping_attempts=1))

    @pytest.mark.parametrize(
        "topologies, parallelisms",
        [
            ([("spidergon", 3)], [8.0]),
            ([("spidergon", 3)], [True]),
            ([("spidergon", 3.0)], [8]),
            ([("spidergon", True)], [8]),
        ],
    )
    def test_non_integral_parallelism_or_degree_rejected(self, topologies, parallelisms):
        explorer = self.explorer()
        with pytest.raises(ConfigurationError):
            explorer.sweep_ldpc(self.CODE, topologies, parallelisms)
        with pytest.raises(ConfigurationError):
            explorer.explore(self.CODE, topologies, parallelisms)
        family, degree = topologies[0]
        with pytest.raises(ConfigurationError):
            explorer.evaluate_ldpc_point(
                self.CODE, family, degree, parallelisms[0], RoutingAlgorithm.SSP_FL
            )

    @pytest.mark.parametrize("topology", [["spidergon", 3], ("spidergon",), (3, "spidergon")])
    def test_topology_must_be_a_family_degree_pair(self, topology):
        with pytest.raises(ConfigurationError):
            self.explorer().sweep_ldpc(self.CODE, [topology], [8])

    def test_empty_routing_algorithms_rejected_and_none_means_all(self):
        explorer = self.explorer()
        with pytest.raises(ConfigurationError):
            explorer.sweep_ldpc(self.CODE, [("spidergon", 3)], [8], [])
        with pytest.raises(ConfigurationError):
            explorer.explore(self.CODE, [("spidergon", 3)], [8], [])
        points = explorer.sweep_ldpc(self.CODE, [("spidergon", 3)], [8], None)
        assert [p.routing_algorithm for p in points] == list(RoutingAlgorithm)

    @pytest.mark.parametrize(
        "topologies, parallelisms, algorithms",
        [
            ([("spidergon", 3)], [8, 8], None),
            ([("spidergon", 3), ("spidergon", 3)], [8], None),
            ([("spidergon", 3)], [8], [RoutingAlgorithm.SSP_FL, RoutingAlgorithm.SSP_FL]),
        ],
    )
    def test_duplicate_grid_values_rejected(self, topologies, parallelisms, algorithms):
        explorer = self.explorer()
        with pytest.raises(ConfigurationError, match="duplicate"):
            explorer.sweep_ldpc(self.CODE, topologies, parallelisms, algorithms)
        with pytest.raises(ConfigurationError, match="duplicate"):
            explorer.explore(self.CODE, topologies, parallelisms, algorithms)


class TestExplorerGolden:
    def test_table1_points_match_pinned_digest(self, worst_case_ldpc_code):
        explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0)
        points = explorer.sweep_ldpc(
            worst_case_ldpc_code, TABLE1_TOPOLOGIES, TABLE1_PARALLELISMS, TABLE1_ALGORITHMS
        )
        assert len(points) == 60
        assert hashlib.sha256(repr(points).encode()).hexdigest() == TABLE1_POINTS_DIGEST


class TestPaperReferenceData:
    def test_table1_has_full_grid(self):
        # 6 (topology, degree) groups x 4 parallelisms x 3 routing algorithms.
        assert len(PAPER_TABLE1) == 6 * 4 * 3

    def test_table1_contains_best_point(self):
        best = max(PAPER_TABLE1, key=lambda c: c.throughput_mbps)
        assert best.throughput_mbps == pytest.approx(109.37)

    def test_table2_design_point_above_requirement(self):
        for (_, _), (throughput, _) in PAPER_TABLE2.items():
            assert throughput > 70

    def test_table3_this_work_row(self):
        this_work = PAPER_TABLE3[0]
        assert this_work.total_area_mm2 == pytest.approx(3.17)
        assert this_work.ldpc_throughput_mbps == pytest.approx(72.0)
        assert this_work.turbo_throughput_mbps == pytest.approx(74.26)

    def test_core_breakdown_shares_sum_to_one(self):
        total = (
            PAPER_CORE_BREAKDOWN["memories_share"]
            + PAPER_CORE_BREAKDOWN["siso_logic_share"]
            + PAPER_CORE_BREAKDOWN["ldpc_logic_share"]
        )
        assert total == pytest.approx(1.0, abs=0.01)


class TestTableBuilders:
    def test_build_table1_renders_measured_and_paper_cells(self, small_sweep):
        table = build_table1(small_sweep)
        rendered = table.render()
        assert "Table I" in rendered
        assert "P=8" in rendered and "P=12" in rendered
        assert "generalized-kautz (D=3)" in rendered

    def test_check_table1_trends_returns_checks(self, small_sweep):
        checks = check_table1_trends(small_sweep)
        assert checks, "expected at least one trend check"
        for check in checks:
            assert check.detail

    def test_build_table2_and_table3(self):
        arch = NocDecoderArchitecture(DecoderSpec(parallelism=8, degree=3, mapping_attempts=1))
        ldpc_eval = arch.evaluate_ldpc(wimax_ldpc_code(576, "1/2"))
        turbo_eval = arch.evaluate_turbo(240)
        table2 = build_table2({"SSP-FL": turbo_eval}, {"SSP-FL": ldpc_eval})
        assert "Table II" in table2.render()
        assert "SSP-RR" in table2.render()
        table3 = build_table3(ldpc_eval, turbo_eval)
        rendered = table3.render()
        assert "This work (reproduction model)" in rendered
        assert "FlexiChaP" in rendered
