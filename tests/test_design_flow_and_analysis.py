"""Tests for the design-space explorer and the analysis/reporting layer."""

from __future__ import annotations

import hashlib
from itertools import product
from types import SimpleNamespace

import pytest

from perfbench import noc as perfbench_noc
from repro.analysis import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    TABLE1_PARALLELISMS,
    TABLE1_ROUTINGS,
    TABLE1_TOPOLOGIES,
    build_table1,
    build_table2,
    build_table3,
    check_table1_trends,
    table1_ledger,
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


@pytest.fixture(scope="module")
def table1():
    """The paper's Table-I sweep (WiMAX 2304 r1/2), run once, as its fidelity ledger."""
    explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0)
    return SimpleNamespace(explorer=explorer, ledger=table1_ledger(explorer))


#: SHA-256 of ``repr`` of the 60 Table-I design points (``mapping_attempts=2``,
#: seed 0); only an intended change to mapping, simulation or costing re-records it.
TABLE1_POINTS_DIGEST = "816e8889eac05d7285673c64420f9680f4a9ea4f5c897b87b5f74746ffac2bba"
#: Per-cell |error| budget in %, today's |error| rounded up to 0.1: per
#: (topology, degree, routing) row, throughput then NoC area at P = 16, 24,
#: 32, 36.  Ratchet a budget down when a modelling fix lowers its error.
TABLE1_ERROR_BUDGET_PCT = {
    ("generalized-de-bruijn", 2, "SSP-RR"): ((14.2, 7.5, 14.4, 25.3), (20.9, 23.6, 24.8, 44.8)),
    ("generalized-de-bruijn", 2, "SSP-FL"): ((16.2, 14.1, 18.7, 28.9), (41.8, 38.2, 274.9, 28.0)),
    ("generalized-de-bruijn", 2, "ASP-FT"): ((18.3, 14.4, 20.2, 31.3), (49.2, 47.8, 36.8, 34.5)),
    ("generalized-kautz", 2, "SSP-RR"): ((18.2, 3.5, 15.8, 12.9), (28.6, 39.0, 25.0, 49.2)),
    ("generalized-kautz", 2, "SSP-FL"): ((17.2, 6.4, 22.3, 21.3), (39.0, 30.3, 34.0, 346.1)),
    ("generalized-kautz", 2, "ASP-FT"): ((18.6, 6.4, 24.8, 21.3), (49.6, 39.0, 36.1, 31.4)),
    ("spidergon", 3, "SSP-RR"): ((4.4, 26.1, 29.3, 32.7), (111.7, 163.2, 80.5, 84.4)),
    ("spidergon", 3, "SSP-FL"): ((4.2, 21.4, 26.2, 31.3), (18.7, 37.2, 9.8, 9.8)),
    ("spidergon", 3, "ASP-FT"): ((4.5, 16.2, 18.1, 25.6), (28.5, 17.0, 27.4, 28.4)),
    ("generalized-kautz", 3, "SSP-RR"): ((6.0, 2.6, 3.7, 4.5), (4.8, 1.3, 13.2, 5.1)),
    ("generalized-kautz", 3, "SSP-FL"): ((6.0, 3.8, 4.5, 4.2), (4.8, 6.3, 4.6, 3.5)),
    ("generalized-kautz", 3, "ASP-FT"): ((6.2, 3.8, 5.4, 4.2), (31.0, 14.4, 2.0, 7.2)),
    ("generalized-kautz", 4, "SSP-RR"): ((6.6, 11.8, 48.1, 7.4), (10.4, 10.7, 30.1, 32.9)),
    ("generalized-kautz", 4, "SSP-FL"): ((6.6, 3.8, 43.8, 11.3), (18.0, 8.8, 26.5, 24.2)),
    ("generalized-kautz", 4, "ASP-FT"): ((6.6, 3.3, 3.3, 10.7), (44.3, 30.7, 19.6, 12.8)),
}
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
    def test_table1_points_match_pinned_digest(self, table1):
        points = table1.ledger.points
        assert len(points) == 60
        assert hashlib.sha256(repr(points).encode()).hexdigest() == TABLE1_POINTS_DIGEST

    def test_all_four_table1_trends_hold(self, table1):
        assert len(table1.ledger.trends) == 4
        assert all(check.passed for check in table1.ledger.trends), table1.ledger.trends

    def test_ledger_cells_within_error_budget(self, table1):
        cells = table1.ledger.cells
        assert len(cells) == 72
        assert [c.paper for c in cells if c.point is not None] == [
            c.paper for c in cells if c.paper.topology != "honeycomb"
        ]
        for cell in cells:
            if cell.point is None:
                assert cell.missing_reason == (
                    f"TopologyError: honeycomb(P={cell.paper.parallelism}) has degree 3,"
                    " requested 4"
                )
                continue
            paper = cell.paper
            budgets = TABLE1_ERROR_BUDGET_PCT[(paper.topology, paper.degree, paper.routing)]
            index = TABLE1_PARALLELISMS.index(paper.parallelism)
            for metric, budget in zip(("throughput_mbps", "noc_area_mm2"), budgets):
                assert 100 * abs(cell.error(metric)) <= budget[index], (paper.label, metric)

    def test_ledger_summary_matches_perfbench_errors(self, table1):
        summary = table1.ledger.summary()
        assert (summary["produced"], summary["missing"]) == (60, 12)
        throughput, area = summary["throughput_mbps"], summary["noc_area_mm2"]
        assert (throughput["mean_abs_error_pct"], area["mean_abs_error_pct"]) == (
            perfbench_noc.table1_errors(table1.ledger.points)[:2]
        )
        assert round(throughput["mean_abs_error_pct"], 3) == 14.452
        assert round(area["mean_abs_error_pct"], 3) == 39.888
        assert (throughput["within_10pct"], area["within_10pct"]) == (26, 12)
        assert round(throughput["median_error_pct"]["SSP-RR"], 1) == -7.4
        assert round(area["median_error_pct"]["ASP-FT"], 1) == -30.8

    def test_skipped_cell_that_evaluates_raises(self, table1, monkeypatch):
        points = table1.ledger.points
        monkeypatch.setattr(table1.explorer, "sweep_ldpc", lambda *args, **kwargs: points[1:])
        with pytest.raises(ConfigurationError, match="evaluates but the sweep skipped it"):
            table1_ledger(table1.explorer)

    def test_perfbench_grid_is_the_derived_grid(self):
        assert perfbench_noc.TOPOLOGIES == list(TABLE1_TOPOLOGIES)
        assert perfbench_noc.PARALLELISMS == list(TABLE1_PARALLELISMS)
        assert perfbench_noc.ALGORITHMS == list(TABLE1_ROUTINGS)


class TestPaperReferenceData:
    def test_table1_has_full_grid(self):
        # 6 (topology, degree) groups x 4 parallelisms x 3 routing algorithms.
        assert len(PAPER_TABLE1) == 6 * 4 * 3

    def test_table1_contains_best_point(self):
        best = max(PAPER_TABLE1, key=lambda c: c.throughput_mbps)
        assert best.throughput_mbps == pytest.approx(109.37)

    def test_derived_grid_is_exactly_the_paper_cells(self):
        grid = [
            (family, degree, parallelism, routing.value)
            for (family, degree), parallelism, routing in product(
                TABLE1_TOPOLOGIES, TABLE1_PARALLELISMS, TABLE1_ROUTINGS
            )
        ]
        assert len(grid) == 72
        assert set(grid) == {(c.topology, c.degree, c.parallelism, c.routing) for c in PAPER_TABLE1}
        assert list(TABLE1_PARALLELISMS) == sorted(TABLE1_PARALLELISMS)

    def test_ledger_flags_suspect_paper_cells(self, table1):
        flags = {cell.label: detail for cell, detail in table1.ledger.flags}
        repeats = [label for label, detail in flags.items() if "ASP-FT" in detail]
        assert repeats == [
            "generalized-de-bruijn D=2 P=32 SSP-FL", "generalized-kautz D=2 P=36 SSP-FL"
        ]
        dips = {label: detail for label, detail in flags.items() if "ASP-FT" not in detail}
        assert len(dips) == 5
        assert dips["generalized-kautz D=4 P=32 SSP-FL"].startswith("throughput -7.5% from P=24")
        assert dips["generalized-kautz D=4 P=32 SSP-RR"].startswith("throughput -3.2% from P=24")

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
