"""Builders that render reproduced results in the layout of the paper's tables,
and the Table-I fidelity ledger that joins a sweep with every paper cell."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from repro.analysis.reference import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    TABLE1_PARALLELISMS,
    TABLE1_ROUTINGS,
    TABLE1_TOPOLOGIES,
    Table1Cell,
)
from repro.core.architecture import DecoderEvaluation
from repro.core.design_flow import DesignPoint, DesignSpaceExplorer
from repro.errors import ConfigurationError, ReproError
from repro.hw.technology import scale_area
from repro.ldpc import wimax_ldpc_code
from repro.sim.runner import BerPoint
from repro.utils.tables import Table, format_ratio_cell

#: The one join of model and paper: paper Table-I cells by (topology, degree, P, routing).
_PAPER_CELLS: dict[tuple[str, int, int, str], Table1Cell] = {
    (c.topology, c.degree, c.parallelism, c.routing): c for c in PAPER_TABLE1
}


def _point_key(point: DesignPoint) -> tuple[str, int, int, str]:
    return (point.topology_family, point.degree, point.parallelism, point.routing_algorithm.value)


def build_table1(points: list[DesignPoint]) -> Table:
    """Render a sweep in the layout of paper Table I, with the paper's cells alongside.

    Rows are (topology, degree, routing); columns are the parallelism degrees.
    Each cell shows ``measured T/A`` and, when available, ``paper T/A``.
    """
    parallelisms = sorted({p.parallelism for p in points})
    table = Table(
        title="Table I - throughput [Mb/s] / NoC area [mm^2], WiMAX LDPC n=2304 r=1/2",
        columns=["topology (D)", "routing", *[f"P={p}" for p in parallelisms]],
    )
    by_key: dict[tuple[str, int, int, str], DesignPoint] = {}
    for point in points:
        by_key.setdefault(_point_key(point), point)
    groups = sorted({(p.topology_family, p.degree, p.routing_algorithm.value) for p in points})
    for family, degree, routing in groups:
        cells: list[str] = [f"{family} (D={degree})", routing]
        for parallelism in parallelisms:
            key = (family, degree, parallelism, routing)
            point = by_key.get(key)
            if point is None:
                cells.append("-")
                continue
            text = format_ratio_cell(point.throughput_mbps, point.noc_area_mm2)
            paper = _PAPER_CELLS.get(key)
            if paper is not None:
                text += f" (paper {format_ratio_cell(paper.throughput_mbps, paper.noc_area_mm2)})"
            cells.append(text)
        table.add_row(cells)
    return table


def build_ber_table(points: Sequence[BerPoint], title: str = "BER sweep") -> Table:
    """Render a Monte-Carlo BER sweep with its Wilson confidence intervals.

    One row per :class:`~repro.sim.runner.BerPoint`; intervals follow the
    point estimates so a reader can judge whether two curves are actually
    distinguishable at the simulated frame counts.
    """
    table = Table(
        title=title,
        columns=[
            "Eb/N0 [dB]",
            "frames",
            "BER",
            "BER 95% CI",
            "FER",
            "FER 95% CI",
            "avg iters",
        ],
    )
    for point in points:
        ber_lo, ber_hi = point.ber_interval
        fer_lo, fer_hi = point.fer_interval
        table.add_row(
            [
                f"{point.ebn0_db:.2f}",
                str(point.frames),
                f"{point.ber:.3e}",
                f"[{ber_lo:.1e}, {ber_hi:.1e}]",
                f"{point.fer:.3e}",
                f"[{fer_lo:.1e}, {fer_hi:.1e}]",
                f"{point.avg_iterations:.1f}",
            ]
        )
    return table


def build_table2(
    turbo_by_routing: dict[str, DecoderEvaluation],
    ldpc_by_routing: dict[str, DecoderEvaluation],
) -> Table:
    """Render paper Table II: the P=22 Kautz D=3 WiMAX design case."""
    table = Table(
        title=(
            "Table II - P=22, D=3 generalized Kautz: throughput [Mb/s] / NoC area [mm^2] "
            "(turbo N=2400 @75 MHz, LDPC n=2304 r=1/2 @300 MHz)"
        ),
        columns=["routing", "turbo (measured)", "turbo (paper)", "LDPC (measured)", "LDPC (paper)"],
    )
    for routing in ("SSP-RR", "SSP-FL", "ASP-FT"):
        row = [routing]
        turbo = turbo_by_routing.get(routing)
        if turbo is None:
            row.append("-")
        else:
            row.append(format_ratio_cell(turbo.throughput_mbps, turbo.area.noc_mm2))
        paper_turbo = PAPER_TABLE2.get(("turbo", routing))
        row.append(format_ratio_cell(*paper_turbo) if paper_turbo else "-")
        ldpc = ldpc_by_routing.get(routing)
        if ldpc is None:
            row.append("-")
        else:
            row.append(format_ratio_cell(ldpc.throughput_mbps, ldpc.area.noc_mm2))
        paper_ldpc = PAPER_TABLE2.get(("LDPC", routing))
        row.append(format_ratio_cell(*paper_ldpc) if paper_ldpc else "-")
        table.add_row(row)
    return table


def build_table3(ldpc: DecoderEvaluation, turbo: DecoderEvaluation) -> Table:
    """Render paper Table III: this work's modelled row plus the published competitors."""
    table = Table(
        title="Table III - flexible turbo/LDPC decoder comparison (competitors as published)",
        columns=[
            "decoder",
            "P",
            "tech",
            "Acore [mm^2]",
            "Atot [mm^2]",
            "A@65nm [mm^2]",
            "fclk [MHz]",
            "Pow [mW]",
            "It (L/T)",
            "T LDPC [Mb/s]",
            "T turbo [Mb/s]",
        ],
    )
    area = ldpc.area
    normalized = scale_area(area.total_mm2, 90.0, 65.0)
    table.add_row(
        [
            "This work (reproduction model)",
            "22",
            "90nm",
            f"{area.core_mm2:.2f}",
            f"{area.total_mm2:.2f}",
            f"{normalized:.2f}",
            "300 / 75",
            f"{ldpc.power.total_mw:.0f} / {turbo.power.total_mw:.0f}",
            "10 / 8",
            f"{ldpc.throughput_mbps:.2f} (min.)",
            f"{turbo.throughput_mbps:.2f} (min.)",
        ]
    )
    for row in PAPER_TABLE3:
        iterations = (
            f"{row.max_iterations_ldpc or '-'} / {row.max_iterations_turbo or '-'}"
        )
        table.add_row(
            [
                row.label,
                str(row.parallelism) if row.parallelism is not None else "-",
                f"{row.technology_nm}nm",
                f"{row.core_area_mm2:.2f}" if row.core_area_mm2 is not None else "-",
                f"{row.total_area_mm2:.2f}" if row.total_area_mm2 is not None else "-",
                f"{row.normalized_area_mm2:.2f}"
                if row.normalized_area_mm2 is not None
                else "-",
                f"{row.clock_mhz:.0f}",
                f"{row.power_mw:.0f}" if row.power_mw is not None else "n/a",
                iterations,
                f"{row.ldpc_throughput_mbps:.2f}"
                if row.ldpc_throughput_mbps is not None
                else "-",
                f"{row.turbo_throughput_mbps:.2f}"
                if row.turbo_throughput_mbps is not None
                else "-",
            ]
        )
    return table


@dataclass(frozen=True)
class TrendCheck:
    """One qualitative claim of the paper checked against reproduced data."""

    name: str
    passed: bool
    detail: str


def check_table1_trends(points: list[DesignPoint]) -> list[TrendCheck]:
    """Verify the qualitative claims the paper draws from Table I.

    * generalized Kautz outperforms the other topologies of the same degree,
    * D = 3 improves on D = 2 for the same topology family,
    * throughput does not decrease when P grows (same topology/routing),
    * SSP-FL performs at least comparably to SSP-RR on average.
    """
    checks: list[TrendCheck] = []

    def mean_throughput(predicate) -> float:
        selected = [p.throughput_mbps for p in points if predicate(p)]
        return sum(selected) / len(selected) if selected else 0.0

    kautz3 = mean_throughput(
        lambda p: p.topology_family == "generalized-kautz" and p.degree == 3
    )
    spidergon3 = mean_throughput(lambda p: p.topology_family == "spidergon")
    if kautz3 and spidergon3:
        checks.append(
            TrendCheck(
                name="Kautz D=3 beats spidergon D=3 (mean throughput)",
                passed=kautz3 >= spidergon3 * 0.98,
                detail=f"kautz={kautz3:.1f} Mb/s vs spidergon={spidergon3:.1f} Mb/s",
            )
        )
    kautz2 = mean_throughput(
        lambda p: p.topology_family == "generalized-kautz" and p.degree == 2
    )
    if kautz2 and kautz3:
        checks.append(
            TrendCheck(
                name="D=3 Kautz beats D=2 Kautz (mean throughput)",
                passed=kautz3 > kautz2,
                detail=f"D3={kautz3:.1f} Mb/s vs D2={kautz2:.1f} Mb/s",
            )
        )
    # Throughput grows with P for Kautz D=3 / SSP-FL.
    series = sorted(
        (
            (p.parallelism, p.throughput_mbps)
            for p in points
            if p.topology_family == "generalized-kautz"
            and p.degree == 3
            and p.routing_algorithm.value == "SSP-FL"
        ),
    )
    if len(series) >= 2:
        non_decreasing = all(
            series[i + 1][1] >= series[i][1] * 0.90 for i in range(len(series) - 1)
        )
        checks.append(
            TrendCheck(
                name="throughput grows with P (Kautz D=3, SSP-FL)",
                passed=non_decreasing,
                detail=" -> ".join(f"P={p}:{t:.1f}" for p, t in series),
            )
        )
    ssp_fl = mean_throughput(lambda p: p.routing_algorithm.value == "SSP-FL")
    ssp_rr = mean_throughput(lambda p: p.routing_algorithm.value == "SSP-RR")
    if ssp_fl and ssp_rr:
        checks.append(
            TrendCheck(
                name="SSP-FL at least comparable to SSP-RR (mean throughput)",
                passed=ssp_fl >= ssp_rr * 0.95,
                detail=f"SSP-FL={ssp_fl:.1f} Mb/s vs SSP-RR={ssp_rr:.1f} Mb/s",
            )
        )
    return checks


@dataclass(frozen=True)
class LedgerCell:
    """One paper Table-I cell and the model's point for it, or the typed reason there is none."""

    paper: Table1Cell
    point: DesignPoint | None
    missing_reason: str | None = None

    def error(self, metric: str) -> float:
        """Signed relative error ``(model - paper) / paper`` of ``throughput_mbps`` or
        ``noc_area_mm2``."""
        paper = getattr(self.paper, metric)
        return (getattr(self.point, metric) - paper) / paper


def _paper_flags() -> tuple[tuple[Table1Cell, str], ...]:
    """Suspect paper cells, judged from ``PAPER_TABLE1`` alone, each with its evidence:
    an SSP-FL cell equal to the ASP-FT cell of its (topology, P), and a throughput
    that falls as P grows along a (topology, routing) row."""
    flags = []
    for (family, degree, parallelism, routing), cell in _PAPER_CELLS.items():
        values = (cell.throughput_mbps, cell.noc_area_mm2)
        twin = _PAPER_CELLS[(family, degree, parallelism, "ASP-FT")]
        if routing == "SSP-FL" and values == (twin.throughput_mbps, twin.noc_area_mm2):
            flags.append((cell, f"equals the ASP-FT cell {format_ratio_cell(*values)}"))
        index = TABLE1_PARALLELISMS.index(parallelism)
        if index == 0:
            continue
        before = _PAPER_CELLS[(family, degree, TABLE1_PARALLELISMS[index - 1], routing)]
        if cell.throughput_mbps < before.throughput_mbps:
            change = 100 * (cell.throughput_mbps / before.throughput_mbps - 1)
            flags.append((cell, f"throughput {change:+.1f}% from P={before.parallelism} "
                                f"({before.throughput_mbps:.2f} -> {cell.throughput_mbps:.2f} Mb/s)"))
    return tuple(flags)


@dataclass(frozen=True)
class Table1Ledger:
    """Every paper Table-I cell against the model, the trend checks, and the suspect
    paper cells with their evidence."""

    cells: tuple[LedgerCell, ...]
    trends: tuple[TrendCheck, ...]
    flags: tuple[tuple[Table1Cell, str], ...]

    @property
    def points(self) -> list[DesignPoint]:
        """The swept design points, in grid order."""
        return [cell.point for cell in self.cells if cell.point is not None]

    def summary(self) -> dict:
        """The cell counts and, per metric over the produced cells, the mean |error|,
        the cells within 10% and the median signed error per routing (errors in %)."""
        produced = [c for c in self.cells if c.point is not None]
        routings = np.array([c.paper.routing for c in produced])
        summary: dict = {"produced": len(produced), "missing": len(self.cells) - len(produced)}
        for metric in ("throughput_mbps", "noc_area_mm2"):
            errors = np.array([c.error(metric) for c in produced])
            summary[metric] = {
                "mean_abs_error_pct": 100.0 * float(np.mean(np.abs(errors))),
                "within_10pct": int(np.count_nonzero(np.abs(errors) <= 0.10)),
                "median_error_pct": {
                    r.value: 100.0 * float(np.median(errors[routings == r.value]))
                    for r in TABLE1_ROUTINGS
                },
            }
        return summary


def table1_ledger(explorer: DesignSpaceExplorer) -> Table1Ledger:
    """Sweep the paper's Table-I grid on ``explorer`` (WiMAX n=2304 r=1/2) and join
    the points with all 72 paper cells, in grid order.

    A paper cell the sweep skipped is evaluated once more on ``explorer`` for the
    typed reason; a cell that evaluates should have been swept, so it raises
    ``ConfigurationError``.
    """
    code = wimax_ldpc_code(2304, "1/2")
    points = explorer.sweep_ldpc(code, TABLE1_TOPOLOGIES, TABLE1_PARALLELISMS, TABLE1_ROUTINGS)
    by_key = {_point_key(point): point for point in points}
    cells = []
    for (family, degree), parallelism, routing in product(
        TABLE1_TOPOLOGIES, TABLE1_PARALLELISMS, TABLE1_ROUTINGS
    ):
        key = (family, degree, parallelism, routing.value)
        if key in by_key:
            cells.append(LedgerCell(_PAPER_CELLS[key], by_key[key]))
            continue
        try:
            explorer.evaluate_ldpc_point(code, family, degree, parallelism, routing)
        except ReproError as exc:
            cells.append(LedgerCell(_PAPER_CELLS[key], None, f"{type(exc).__name__}: {exc}"))
            continue
        raise ConfigurationError(f"{_PAPER_CELLS[key].label} evaluates but the sweep skipped it")
    return Table1Ledger(tuple(cells), tuple(check_table1_trends(points)), _paper_flags())
