"""Published numbers from the paper, used as reference in the benchmark output.

Three data sets are embedded:

* ``PAPER_TABLE1`` — throughput [Mb/s] / NoC area [mm^2] for the WiMAX LDPC
  n = 2304, r = 1/2 code over topologies, parallelism degrees and routing
  algorithms (paper Table I; 300 MHz, Itmax = 10, latcore = 15, RL = 0, SCM,
  R = 0.5), whose grid axes ``TABLE1_TOPOLOGIES``, ``TABLE1_PARALLELISMS``
  and ``TABLE1_ROUTINGS`` are derived from it;
* ``PAPER_TABLE2`` — the P = 22 generalized-Kautz design case (paper Table II);
* ``PAPER_TABLE3`` — the state-of-the-art comparison (paper Table III).

These values are *reference data quoted from the publication*, not
measurements of this reproduction; the benches print both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.config import RoutingAlgorithm


@dataclass(frozen=True)
class Table1Cell:
    """One cell of paper Table I: a (topology, P, routing) evaluation."""

    topology: str
    degree: int
    parallelism: int
    routing: str
    node_architecture: str
    throughput_mbps: float
    noc_area_mm2: float

    @property
    def label(self) -> str:
        """The cell's grid coordinates, e.g. ``generalized-kautz D=3 P=32 SSP-FL``."""
        return f"{self.topology} D={self.degree} P={self.parallelism} {self.routing}"


#: Rows below: topology, degree, P, routing, node architecture, Mb/s, mm^2.
_t1 = Table1Cell


#: Paper Table I (WiMAX LDPC n=2304, r=1/2).
PAPER_TABLE1: tuple[Table1Cell, ...] = (
    # D = 2, generalized De Bruijn.
    _t1("generalized-de-bruijn", 2, 16, "SSP-RR", "PP", 37.77, 2.02),
    _t1("generalized-de-bruijn", 2, 24, "SSP-RR", "PP", 41.19, 3.16),
    _t1("generalized-de-bruijn", 2, 32, "SSP-RR", "PP", 50.16, 3.68),
    _t1("generalized-de-bruijn", 2, 36, "SSP-RR", "PP", 50.31, 4.02),
    _t1("generalized-de-bruijn", 2, 16, "SSP-FL", "PP", 42.15, 1.82),
    _t1("generalized-de-bruijn", 2, 24, "SSP-FL", "PP", 45.47, 3.27),
    _t1("generalized-de-bruijn", 2, 32, "SSP-FL", "PP", 55.12, 0.65),
    _t1("generalized-de-bruijn", 2, 36, "SSP-FL", "PP", 56.20, 4.18),
    _t1("generalized-de-bruijn", 2, 16, "ASP-FT", "AP", 42.15, 0.40),
    _t1("generalized-de-bruijn", 2, 24, "ASP-FT", "AP", 45.47, 0.59),
    _t1("generalized-de-bruijn", 2, 32, "ASP-FT", "AP", 55.12, 0.65),
    _t1("generalized-de-bruijn", 2, 36, "ASP-FT", "AP", 56.84, 0.71),
    # D = 2, generalized Kautz.
    _t1("generalized-kautz", 2, 16, "SSP-RR", "PP", 38.10, 2.05),
    _t1("generalized-kautz", 2, 24, "SSP-RR", "PP", 49.23, 2.79),
    _t1("generalized-kautz", 2, 32, "SSP-RR", "PP", 48.20, 3.67),
    _t1("generalized-kautz", 2, 36, "SSP-RR", "PP", 55.47, 3.84),
    _t1("generalized-kautz", 2, 16, "SSP-FL", "PP", 41.69, 1.84),
    _t1("generalized-kautz", 2, 24, "SSP-FL", "PP", 53.09, 2.68),
    _t1("generalized-kautz", 2, 32, "SSP-FL", "PP", 55.74, 3.61),
    _t1("generalized-kautz", 2, 36, "SSP-FL", "PP", 61.71, 0.68),
    _t1("generalized-kautz", 2, 16, "ASP-FT", "AP", 41.69, 0.40),
    _t1("generalized-kautz", 2, 24, "ASP-FT", "AP", 53.09, 0.51),
    _t1("generalized-kautz", 2, 32, "ASP-FT", "AP", 55.74, 0.64),
    _t1("generalized-kautz", 2, 36, "ASP-FT", "AP", 61.71, 0.68),
    # D = 3, spidergon.
    _t1("spidergon", 3, 16, "SSP-RR", "PP", 55.74, 0.35),
    _t1("spidergon", 3, 24, "SSP-RR", "PP", 67.11, 1.34),
    _t1("spidergon", 3, 32, "SSP-RR", "PP", 70.67, 2.69),
    _t1("spidergon", 3, 36, "SSP-RR", "PP", 71.11, 3.14),
    _t1("spidergon", 3, 16, "SSP-FL", "PP", 55.47, 0.30),
    _t1("spidergon", 3, 24, "SSP-FL", "PP", 69.82, 1.11),
    _t1("spidergon", 3, 32, "SSP-FL", "PP", 75.62, 2.59),
    _t1("spidergon", 3, 36, "SSP-FL", "PP", 75.79, 3.20),
    _t1("spidergon", 3, 16, "ASP-FT", "AP", 55.31, 0.30),
    _t1("spidergon", 3, 24, "ASP-FT", "AP", 72.45, 0.42),
    _t1("spidergon", 3, 32, "ASP-FT", "AP", 76.63, 0.64),
    _t1("spidergon", 3, 36, "ASP-FT", "AP", 78.37, 0.73),
    # D = 3, generalized Kautz.
    _t1("generalized-kautz", 3, 16, "SSP-RR", "PP", 55.74, 0.29),
    _t1("generalized-kautz", 3, 24, "SSP-RR", "PP", 78.37, 0.47),
    _t1("generalized-kautz", 3, 32, "SSP-RR", "PP", 93.66, 0.96),
    _t1("generalized-kautz", 3, 36, "SSP-RR", "PP", 92.65, 1.22),
    _t1("generalized-kautz", 3, 16, "SSP-FL", "PP", 55.74, 0.28),
    _t1("generalized-kautz", 3, 24, "SSP-FL", "PP", 77.49, 0.43),
    _t1("generalized-kautz", 3, 32, "SSP-FL", "PP", 97.63, 0.69),
    _t1("generalized-kautz", 3, 36, "SSP-FL", "PP", 101.05, 0.86),
    _t1("generalized-kautz", 3, 16, "ASP-FT", "AP", 55.74, 0.29),
    _t1("generalized-kautz", 3, 24, "ASP-FT", "AP", 77.49, 0.35),
    _t1("generalized-kautz", 3, 32, "ASP-FT", "AP", 97.08, 0.42),
    _t1("generalized-kautz", 3, 36, "ASP-FT", "AP", 101.05, 0.46),
    # D = 4, rectangular honeycomb.
    _t1("honeycomb", 4, 16, "SSP-RR", "PP", 55.12, 0.42),
    _t1("honeycomb", 4, 24, "SSP-RR", "PP", 77.49, 0.61),
    _t1("honeycomb", 4, 32, "SSP-RR", "PP", 98.46, 0.72),
    _t1("honeycomb", 4, 36, "SSP-RR", "PP", 97.90, 1.03),
    _t1("honeycomb", 4, 16, "SSP-FL", "PP", 55.47, 0.39),
    _t1("honeycomb", 4, 24, "SSP-FL", "PP", 78.01, 0.53),
    _t1("honeycomb", 4, 32, "SSP-FL", "PP", 98.18, 0.63),
    _t1("honeycomb", 4, 36, "SSP-FL", "PP", 106.67, 0.87),
    _t1("honeycomb", 4, 16, "ASP-FT", "AP", 55.65, 0.40),
    _t1("honeycomb", 4, 24, "ASP-FT", "AP", 78.01, 0.48),
    _t1("honeycomb", 4, 32, "ASP-FT", "AP", 99.03, 0.55),
    _t1("honeycomb", 4, 36, "ASP-FT", "AP", 109.37, 0.58),
    # D = 4, generalized Kautz.
    _t1("generalized-kautz", 4, 16, "SSP-RR", "PP", 55.74, 0.31),
    _t1("generalized-kautz", 4, 24, "SSP-RR", "PP", 72.45, 0.60),
    _t1("generalized-kautz", 4, 32, "SSP-RR", "PP", 70.10, 1.06),
    _t1("generalized-kautz", 4, 36, "SSP-RR", "PP", 104.73, 0.76),
    _t1("generalized-kautz", 4, 16, "SSP-FL", "PP", 55.74, 0.29),
    _t1("generalized-kautz", 4, 24, "SSP-FL", "PP", 77.84, 0.49),
    _t1("generalized-kautz", 4, 32, "SSP-FL", "PP", 72.00, 0.98),
    _t1("generalized-kautz", 4, 36, "SSP-FL", "PP", 109.37, 0.72),
    _t1("generalized-kautz", 4, 16, "ASP-FT", "AP", 55.74, 0.39),
    _t1("generalized-kautz", 4, 24, "ASP-FT", "AP", 78.01, 0.47),
    _t1("generalized-kautz", 4, 32, "ASP-FT", "AP", 100.47, 0.54),
    _t1("generalized-kautz", 4, 36, "ASP-FT", "AP", 108.68, 0.58),
)

# The one definition of the Table-I grid: each axis in the order its values
# first appear in ``PAPER_TABLE1`` (a sweep over it runs in that order).
TABLE1_TOPOLOGIES = tuple(dict.fromkeys((c.topology, c.degree) for c in PAPER_TABLE1))
TABLE1_PARALLELISMS = tuple(dict.fromkeys(c.parallelism for c in PAPER_TABLE1))
TABLE1_ROUTINGS = tuple(dict.fromkeys(RoutingAlgorithm(c.routing) for c in PAPER_TABLE1))


#: Paper Table II: P=22, D=3 generalized Kautz, R=0.5.
#: Keys: (mode, routing) -> (throughput Mb/s, NoC area mm^2).
PAPER_TABLE2: dict[tuple[str, str], tuple[float, float]] = {
    ("turbo", "SSP-RR"): (74.25, 0.63),
    ("turbo", "SSP-FL"): (74.26, 0.60),
    ("turbo", "ASP-FT"): (73.29, 0.69),
    ("LDPC", "SSP-RR"): (72.45, 0.46),
    ("LDPC", "SSP-FL"): (72.30, 0.39),
    ("LDPC", "ASP-FT"): (72.91, 0.34),
}


@dataclass(frozen=True)
class Table3Row:
    """One decoder of the paper's Table III comparison."""

    label: str
    parallelism: int | None
    technology_nm: int
    core_area_mm2: float | None
    total_area_mm2: float | None
    normalized_area_mm2: float | None
    clock_mhz: float
    power_mw: float | None
    max_iterations_ldpc: int | None
    max_iterations_turbo: int | None
    ldpc_throughput_mbps: float | None
    turbo_throughput_mbps: float | None
    notes: str = ""


#: Paper Table III (competitor numbers as published; this work's row is the
#: paper's own result and is regenerated by the model in the bench).
PAPER_TABLE3: tuple[Table3Row, ...] = (
    Table3Row(
        label="This work (paper)",
        parallelism=22,
        technology_nm=90,
        core_area_mm2=2.56,
        total_area_mm2=3.17,
        normalized_area_mm2=1.65,
        clock_mhz=300.0,
        power_mw=415.0,
        max_iterations_ldpc=10,
        max_iterations_turbo=8,
        ldpc_throughput_mbps=72.00,
        turbo_throughput_mbps=74.26,
        notes="worst case; turbo NoC at 75 MHz, SISO at 37.5 MHz, 59 mW",
    ),
    Table3Row(
        label="Murugappa et al. [9]",
        parallelism=8,
        technology_nm=90,
        core_area_mm2=2.44,
        total_area_mm2=2.6,
        normalized_area_mm2=1.36,
        clock_mhz=520.0,
        power_mw=None,
        max_iterations_ldpc=10,
        max_iterations_turbo=6,
        ldpc_throughput_mbps=62.5,
        turbo_throughput_mbps=173.0,
        notes="LDPC worst case, turbo best case",
    ),
    Table3Row(
        label="FlexiChaP (Alles et al.) [5]",
        parallelism=1,
        technology_nm=65,
        core_area_mm2=None,
        total_area_mm2=0.62,
        normalized_area_mm2=0.62,
        clock_mhz=400.0,
        power_mw=76.8,
        max_iterations_ldpc=20,
        max_iterations_turbo=5,
        ldpc_throughput_mbps=27.7,
        turbo_throughput_mbps=18.6,
        notes="ASIP; below the WiMAX throughput requirement",
    ),
    Table3Row(
        label="Gentile et al. [7]",
        parallelism=12,
        technology_nm=45,
        core_area_mm2=None,
        total_area_mm2=0.9,
        normalized_area_mm2=1.88,
        clock_mhz=150.0,
        power_mw=86.1,
        max_iterations_ldpc=8,
        max_iterations_turbo=8,
        ldpc_throughput_mbps=71.05,
        turbo_throughput_mbps=73.46,
        notes="minimum throughputs",
    ),
    Table3Row(
        label="Naessens et al. [6]",
        parallelism=384,
        technology_nm=45,
        core_area_mm2=None,
        total_area_mm2=0.94,
        normalized_area_mm2=1.96,
        clock_mhz=333.0,
        power_mw=1000.0,
        max_iterations_ldpc=25,
        max_iterations_turbo=None,
        ldpc_throughput_mbps=333.0,
        turbo_throughput_mbps=None,
        notes="average LDPC throughput; no minimum reported",
    ),
    Table3Row(
        label="Sun & Cavallaro [8]",
        parallelism=12,
        technology_nm=90,
        core_area_mm2=1.18,
        total_area_mm2=3.20,
        normalized_area_mm2=1.67,
        clock_mhz=500.0,
        power_mw=None,
        max_iterations_ldpc=15,
        max_iterations_turbo=6,
        ldpc_throughput_mbps=600.0,
        turbo_throughput_mbps=450.0,
        notes="best-case throughputs; WiMAX CTC not supported",
    ),
)

#: Memory / logic breakdown of the paper's processing core (Section V).
PAPER_CORE_BREAKDOWN = {
    "memories_share": 0.618,
    "siso_logic_share": 0.186,
    "ldpc_logic_share": 0.196,
    "noc_area_mm2": 0.61,
    "noc_share_of_total": 0.20,
}
