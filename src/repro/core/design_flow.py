"""Design-space exploration: the NoC design flow of paper Section III.

The :class:`DesignSpaceExplorer` sweeps the Cartesian product of

* topology (family, degree),
* parallelism degree P,
* routing algorithm (and hence node architecture),

maps the target code on every point (graph partitioning + equivalent
interleaver), runs the cycle-accurate simulation and reports, per point,
``ncycles``, throughput (eq. (12)), NoC area and FIFO sizing — exactly the
quantities tabulated in the paper's Table I.

Every entry point — the LDPC and turbo single-point evaluations,
:meth:`~DesignSpaceExplorer.sweep_ldpc` and
:meth:`~DesignSpaceExplorer.explore` — goes through one path: its (family,
degree, P, routing) combos become :class:`~repro.noc.sweep.NocSweepJob`s in
grid order, submitted in one :func:`~repro.noc.sweep.run_noc_sweep` call.
The scheduler groups them by (graph, configuration), sends each group to the
job-axis cycle kernel when it reaches its collision policy's fixed crossover
and to the scalar engine otherwise, and itself decides whether a sweep is
large enough to shard across a worker pool.  Outcomes come back in
submission order, and each is costed into a :class:`DesignPoint` (eq. (12)
throughput and the NoC area model).  Topologies, routing tables and code
mappings are each built once per explorer and shared across all the points
that reuse them.

A grid cell is simulated with the base NoC configuration re-paired for its
routing algorithm.  :class:`~repro.core.architecture.NocDecoderArchitecture`
takes the same path for one cell whose configuration it passes as given,
and keeps the mapping, simulation and eq. (12) bits/s behind each point.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.core.config import DecoderSpec
from repro.core.throughput import ldpc_throughput_bps, turbo_throughput_bps
from repro.errors import ConfigurationError, MappingError, TopologyError
from repro.hw.area import NocAreaModel
from repro.ldpc.wimax import WimaxLdpcCode
from repro.mapping.ldpc_mapping import LdpcMapping, map_ldpc_code
from repro.mapping.turbo_mapping import TurboMapping, map_turbo_code
from repro.noc.analytical import AnalyticalEstimate, AnalyticalNocModel
from repro.noc.config import NocConfiguration, RoutingAlgorithm
from repro.noc.results import SimulationResult
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.sweep import NocSweepJob, run_noc_sweep
from repro.noc.topologies import Topology, build_topology
from repro.utils.validation import require_int

#: Objectives the exploration ranks candidates and picks winners by.
EXPLORATION_OBJECTIVES = ("throughput", "throughput_per_area")

#: One design-grid cell: (topology family, degree, parallelism, routing).
Combo = tuple[str, int, int, RoutingAlgorithm]
#: One cell to simulate: (topology family, degree, parallelism, NoC configuration).
Cell = tuple[str, int, int, NocConfiguration]


def objective_score(objective: str, throughput_mbps: float, noc_area_mm2: float) -> float:
    """Score of one exploration objective (higher is better).

    The one scoring rule behind analytical screening, the simulated winners
    and :meth:`DesignSpaceExplorer.best_point`.
    """
    if objective == "throughput":
        return throughput_mbps
    return throughput_mbps / max(noc_area_mm2, 1e-9)


def _read_grid(
    topologies: list[tuple[str, int]],
    parallelisms: list[int],
    routing_algorithms: list[RoutingAlgorithm] | None,
) -> list[RoutingAlgorithm]:
    """Check a design grid's axes and return its routing algorithms.

    Every topology is a ``(family, degree)`` pair with an int degree >= 1,
    every parallelism an int >= 1, and no axis repeats a value.
    ``routing_algorithms=None`` means all of them; an empty list is an
    error, as is an empty topology or parallelism axis.
    """
    algorithms = list(RoutingAlgorithm) if routing_algorithms is None else routing_algorithms
    for topology in topologies:
        if not (isinstance(topology, tuple) and len(topology) == 2
                and isinstance(topology[0], str)):
            raise ConfigurationError(
                f"each topology must be a (family, degree) pair, got {topology!r}"
            )
        require_int("topology degree", topology[1], 1)
    for parallelism in parallelisms:
        require_int("parallelism", parallelism, 1)
    for algorithm in algorithms:
        if not isinstance(algorithm, RoutingAlgorithm):
            raise ConfigurationError(
                f"routing algorithms must be RoutingAlgorithm members, got {algorithm!r}"
            )
    for name, axis in (
        ("topologies", topologies),
        ("parallelisms", parallelisms),
        ("routing_algorithms", algorithms),
    ):
        if len(axis) == 0:
            raise ConfigurationError(f"{name} must not be empty")
        if len(set(axis)) != len(axis):
            raise ConfigurationError(f"{name} has duplicate values: {list(axis)!r}")
    return list(algorithms)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated point of the design space (one cell of Table I)."""

    topology_family: str
    degree: int
    parallelism: int
    routing_algorithm: RoutingAlgorithm
    node_architecture: str
    mode: str
    ncycles: int
    throughput_mbps: float
    noc_area_mm2: float
    max_fifo_depth: int
    locality: float
    mean_latency: float

    def cell(self) -> str:
        """Table-I-style ``throughput/area`` cell."""
        return f"{self.throughput_mbps:.2f}/{self.noc_area_mm2:.2f}"


@dataclass(frozen=True)
class ScreenedCandidate:
    """One design point ranked analytically, before (or instead of) simulation.

    ``est_throughput_mbps`` and ``est_noc_area_mm2`` come from the analytical
    NoC model's estimates plugged into the same throughput and area formulas
    the simulated design points use, so analytical and simulated rankings are
    directly comparable.
    """

    topology_family: str
    degree: int
    parallelism: int
    routing_algorithm: RoutingAlgorithm
    estimate: AnalyticalEstimate
    est_throughput_mbps: float
    est_noc_area_mm2: float


@dataclass(frozen=True)
class ExplorationReport:
    """Outcome of one (optionally screened) design-space exploration.

    ``points`` holds every *simulated* design point; ``winners`` maps each
    objective to the simulated point that maximizes it.  With analytical
    screening, ``n_skipped`` candidates of the ``n_candidates``-point grid
    never paid for cycle-exact simulation — ``screened`` records the full
    analytical ranking that decided which ones.
    """

    points: list[DesignPoint]
    winners: dict[str, DesignPoint]
    screen: str | None
    n_candidates: int
    n_simulated: int
    n_skipped: int
    screened: list[ScreenedCandidate]

    def describe(self) -> str:
        """One-line summary used by reports and the CI smoke run."""
        parts = [
            f"screen={self.screen or 'none'}",
            f"simulated {self.n_simulated}/{self.n_candidates}"
            f" (skipped {self.n_skipped})",
        ]
        for objective, point in self.winners.items():
            parts.append(
                f"{objective}: {point.topology_family}-D{point.degree}"
                f"-P{point.parallelism}-{point.routing_algorithm.value}"
            )
        return " | ".join(parts)


class DesignSpaceExplorer:
    """Sweeps NoC design points for a given LDPC code and/or turbo block size.

    Parameters
    ----------
    base_spec:
        Decoder spec providing clock frequencies, iteration counts and the
        base NoC configuration; topology family, degree, parallelism and
        routing algorithm are overridden per design point.
    seed:
        Partitioner / simulator seed, an ``int >= 0`` (kept constant across
        the sweep so that differences between points are architectural, not
        stochastic).
    """

    def __init__(self, base_spec: DecoderSpec | None = None, seed: int = 0):
        require_int("seed", seed, 0)
        self.base_spec = base_spec if base_spec is not None else DecoderSpec()
        self.seed = seed
        self._area_model = NocAreaModel()
        # Analytical screening model, created on first screened exploration;
        # its per-(family, degree, algorithm, policy) contention fits then
        # persist across explore() calls on this explorer.
        self._analytical: AnalyticalNocModel | None = None
        # The code->PE mapping depends only on the code and the parallelism,
        # not on the topology or routing algorithm, so it is cached across the
        # sweep (the paper's flow likewise partitions once per (code, P) pair).
        self._mapping_cache: dict[tuple, object] = {}
        # Topologies and routing tables are shared across every sweep point
        # that uses the same graph (three routing algorithms per cell in the
        # Table-I grid).  The dict uses the sweep scheduler's key order so it
        # doubles as the scheduler's ``topology_cache``.
        self._graph_cache: dict[
            tuple[str, int, int | None], tuple[Topology, RoutingTables]
        ] = {}

    def _cached_graph(
        self, family: str, degree: int | None, parallelism: int
    ) -> tuple[Topology, RoutingTables]:
        key = (family, parallelism, degree)
        if key not in self._graph_cache:
            topology = build_topology(family, parallelism, degree)
            self._graph_cache[key] = (topology, build_routing_tables(topology))
        return self._graph_cache[key]

    def _cached_mapping(self, code: WimaxLdpcCode | int, parallelism: int):
        """The code->PE mapping of ``code`` on ``parallelism`` PEs and its NoC traffic.

        ``code`` is an LDPC code, or a CTC block size in couples for turbo.
        """
        if isinstance(code, numbers.Integral):
            key = ("ctc", code, parallelism)
            if key not in self._mapping_cache:
                self._mapping_cache[key] = map_turbo_code(
                    code, parallelism, label=f"ctc-N{code}-P{parallelism}"
                )
            mapping = self._mapping_cache[key]
            return mapping, mapping.traffic_forward
        key = (code.n, code.rate_name, parallelism)
        if key not in self._mapping_cache:
            self._mapping_cache[key] = map_ldpc_code(
                code.h,
                parallelism,
                seed=self.seed,
                attempts=self.base_spec.mapping_attempts,
                label=f"{code.rate_name}-n{code.n}-P{parallelism}",
            )
        mapping = self._mapping_cache[key]
        return mapping, mapping.traffic

    # ------------------------------------------------------------------ #
    # Costing (eq. (12) and the NoC area model)
    # ------------------------------------------------------------------ #
    def _throughput_bps(self, code: WimaxLdpcCode | int, ncycles: int) -> float:
        """Eq. (12) for ``ncycles`` NoC cycles per iteration (LDPC) or half-iteration (turbo)."""
        spec = self.base_spec
        if isinstance(code, numbers.Integral):
            return turbo_throughput_bps(
                info_bits=2 * code,
                noc_clock_hz=spec.turbo_noc_clock_hz,
                max_iterations=spec.turbo_max_iterations,
                core_latency_cycles=spec.siso_core_latency_cycles,
                half_iteration_cycles=ncycles,
            )
        return ldpc_throughput_bps(
            info_bits=code.k,
            clock_hz=spec.ldpc_clock_hz,
            max_iterations=spec.ldpc_max_iterations,
            core_latency_cycles=spec.ldpc_core_latency_cycles,
            message_passing_cycles=ncycles,
        )

    # ------------------------------------------------------------------ #
    # The one grid-to-points path
    # ------------------------------------------------------------------ #
    def _feasible_combos(
        self,
        code: WimaxLdpcCode,
        topologies: list[tuple[str, int]],
        parallelisms: list[int],
        routing_algorithms: list[RoutingAlgorithm] | None,
    ) -> list[Combo]:
        """The grid's combos in grid order, infeasible (family, degree, P) cells skipped.

        A cell is infeasible when its topology cannot be built (e.g. a
        toroidal mesh whose node count has no valid grid) or the code cannot
        be mapped on it — the paper likewise reports only feasible points.
        A malformed grid raises :class:`~repro.errors.ConfigurationError`
        before any cell is built.
        """
        algorithms = _read_grid(topologies, parallelisms, routing_algorithms)
        combos: list[Combo] = []
        for family, degree in topologies:
            for parallelism in parallelisms:
                try:
                    self._cached_graph(family, degree, parallelism)
                    self._cached_mapping(code, parallelism)
                except (TopologyError, MappingError, ConfigurationError):
                    continue
                combos.extend((family, degree, parallelism, a) for a in algorithms)
        return combos

    def _evaluate(
        self,
        code: WimaxLdpcCode | int,
        cells: list[Cell],
        max_workers: int | None = None,
    ) -> list[tuple[DesignPoint, LdpcMapping | TurboMapping, SimulationResult, float]]:
        """Map, simulate and cost ``cells``, in cell order.

        ``code`` is an LDPC code, or a CTC block size in couples for turbo
        points.  Each cell is simulated with its configuration as given.
        All cells go to the sweep scheduler in one call, so it groups and
        shards across the whole set; ``max_workers`` caps its worker
        processes (mapping and costing stay in-process).  Returns, per cell,
        its point, the mapping, the simulation and the eq. (12) bits/s.
        """
        jobs: list[NocSweepJob] = []
        contexts: list[tuple] = []
        for family, degree, parallelism, config in cells:
            topology, _ = self._cached_graph(family, degree, parallelism)
            mapping, traffic = self._cached_mapping(code, parallelism)
            jobs.append(
                NocSweepJob(
                    family=family,
                    parallelism=parallelism,
                    degree=degree,
                    config=config,
                    traffic=traffic,
                    seed=self.seed,
                )
            )
            contexts.append((mapping, topology))
        outcomes = run_noc_sweep(
            jobs, topology_cache=self._graph_cache, max_workers=max_workers
        )
        mode = "turbo" if isinstance(code, numbers.Integral) else "LDPC"
        evaluated = []
        for (mapping, topology), job, outcome in zip(contexts, jobs, outcomes):
            result = outcome.result
            throughput = self._throughput_bps(code, result.ncycles)
            point = DesignPoint(
                topology_family=job.family,
                degree=job.degree,
                parallelism=job.parallelism,
                routing_algorithm=job.config.routing_algorithm,
                node_architecture=job.config.node_architecture.value,
                mode=mode,
                ncycles=result.ncycles,
                throughput_mbps=throughput / 1e6,
                noc_area_mm2=self._area_model.noc_area_mm2(
                    n_nodes=job.parallelism,
                    crossbar_size=topology.crossbar_size,
                    config=job.config,
                    per_node_fifo_depth=result.per_node_max_fifo,
                ),
                max_fifo_depth=result.max_fifo_occupancy,
                locality=mapping.locality,
                mean_latency=result.statistics.mean_latency,
            )
            evaluated.append((point, mapping, result, throughput))
        return evaluated

    def _points(
        self,
        code: WimaxLdpcCode | int,
        combos: list[Combo],
        max_workers: int | None = None,
    ) -> list[DesignPoint]:
        """The points of ``combos``, each simulated with the base NoC
        configuration re-paired for its routing algorithm (AP/PP follows)."""
        noc = self.base_spec.noc
        cells = [(f, d, p, noc.with_routing(a)) for f, d, p, a in combos]
        return [point for point, *_ in self._evaluate(code, cells, max_workers)]

    # ------------------------------------------------------------------ #
    # Single-point evaluation
    # ------------------------------------------------------------------ #
    def evaluate_ldpc_point(
        self,
        code: WimaxLdpcCode,
        topology_family: str,
        degree: int,
        parallelism: int,
        routing_algorithm: RoutingAlgorithm,
    ) -> DesignPoint:
        """Map, simulate and cost one LDPC design point.

        Raises the topology or mapping error of an infeasible point.
        """
        _read_grid([(topology_family, degree)], [parallelism], [routing_algorithm])
        (point,) = self._points(
            code, [(topology_family, degree, parallelism, routing_algorithm)]
        )
        return point

    def evaluate_turbo_point(
        self,
        n_couples: int,
        topology_family: str,
        degree: int,
        parallelism: int,
        routing_algorithm: RoutingAlgorithm,
    ) -> DesignPoint:
        """Map, simulate and cost one turbo design point.

        Raises the topology or mapping error of an infeasible point.
        """
        _read_grid([(topology_family, degree)], [parallelism], [routing_algorithm])
        (point,) = self._points(
            n_couples, [(topology_family, degree, parallelism, routing_algorithm)]
        )
        return point

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def sweep_ldpc(
        self,
        code: WimaxLdpcCode,
        topologies: list[tuple[str, int]],
        parallelisms: list[int],
        routing_algorithms: list[RoutingAlgorithm] | None = None,
        max_workers: int | None = None,
    ) -> list[DesignPoint]:
        """Evaluate the Cartesian product of topologies, parallelisms and algorithms.

        ``topologies`` is a list of ``(family, degree)`` pairs.  Infeasible
        cells (e.g. a toroidal mesh whose node count has no valid grid) are
        skipped, mirroring the paper's practice of only reporting feasible
        points; the points come in grid order.  ``max_workers`` caps the
        sweep scheduler's worker processes
        (:func:`~repro.noc.sweep.run_noc_sweep`).
        """
        combos = self._feasible_combos(code, topologies, parallelisms, routing_algorithms)
        return self._points(code, combos, max_workers)

    # ------------------------------------------------------------------ #
    # Screened exploration
    # ------------------------------------------------------------------ #
    def _screen_candidate(self, code: WimaxLdpcCode, combo: Combo) -> ScreenedCandidate:
        """Rank one candidate analytically: estimated throughput and area."""
        family, degree, parallelism, routing_algorithm = combo
        config = self.base_spec.noc.with_routing(routing_algorithm)
        topology, tables = self._cached_graph(family, degree, parallelism)
        _, traffic = self._cached_mapping(code, parallelism)
        assert self._analytical is not None
        estimate = self._analytical.estimate(
            family, degree, config, traffic, tables=tables
        )
        est_throughput = self._throughput_bps(
            code, max(int(round(estimate.ncycles)), 1)
        )
        fifo_depth = max(int(round(estimate.max_fifo_occupancy)), 1)
        est_area = self._area_model.noc_area_mm2(
            n_nodes=parallelism,
            crossbar_size=topology.crossbar_size,
            config=config,
            per_node_fifo_depth=[fifo_depth] * parallelism,
        )
        return ScreenedCandidate(
            topology_family=family,
            degree=degree,
            parallelism=parallelism,
            routing_algorithm=routing_algorithm,
            estimate=estimate,
            est_throughput_mbps=est_throughput / 1e6,
            est_noc_area_mm2=est_area,
        )

    def explore(
        self,
        code: WimaxLdpcCode,
        topologies: list[tuple[str, int]],
        parallelisms: list[int],
        routing_algorithms: list[RoutingAlgorithm] | None = None,
        screen: str | None = None,
        confirm_top: int = 4,
        max_workers: int | None = None,
    ) -> ExplorationReport:
        """Explore the design grid, optionally screening it analytically.

        With ``screen=None`` every feasible grid point is simulated — the
        exhaustive Table-I flow, the same points as :meth:`sweep_ldpc`.  With
        ``screen="analytical"`` the whole grid is first *ranked* by the
        analytical NoC model (closed-form hop statistics + per-family fitted
        contention correction, no simulation) and only the union of the top
        ``confirm_top`` candidates per objective of
        :data:`EXPLORATION_OBJECTIVES` is dispatched through the cycle-exact
        sweep; everything else is skipped.  Winners are always chosen from
        *simulated* numbers, so screening can only miss a winner if the
        analytical ranking drops it below ``confirm_top`` —
        docs/noc-analytical.md quantifies when that is safe.
        ``max_workers`` caps the simulation's worker processes, as in
        :meth:`sweep_ldpc`.
        """
        if screen not in (None, "analytical"):
            raise ConfigurationError(
                f"screen must be None or 'analytical', got {screen!r}"
            )
        require_int("confirm_top", confirm_top, 1)
        candidates = self._feasible_combos(
            code, topologies, parallelisms, routing_algorithms
        )
        screened: list[ScreenedCandidate] = []
        to_simulate = candidates
        if screen == "analytical" and len(candidates) > confirm_top:
            if self._analytical is None:
                self._analytical = AnalyticalNocModel()
            screened = [self._screen_candidate(code, c) for c in candidates]
            selected: set[Combo] = set()
            for objective in EXPLORATION_OBJECTIVES:
                ranked = sorted(
                    zip(candidates, screened),
                    key=lambda pair: objective_score(
                        objective, pair[1].est_throughput_mbps, pair[1].est_noc_area_mm2
                    ),
                    reverse=True,
                )
                selected.update(combo for combo, _ in ranked[:confirm_top])
            to_simulate = [c for c in candidates if c in selected]

        points = self._points(code, to_simulate, max_workers)
        if not points:
            raise ConfigurationError("explore produced no feasible design points")
        winners = {
            objective: max(
                points,
                key=lambda p: objective_score(objective, p.throughput_mbps, p.noc_area_mm2),
            )
            for objective in EXPLORATION_OBJECTIVES
        }
        return ExplorationReport(
            points=points,
            winners=winners,
            screen=screen,
            n_candidates=len(candidates),
            n_simulated=len(to_simulate),
            n_skipped=len(candidates) - len(to_simulate),
            screened=screened,
        )

    def best_point(
        self, points: list[DesignPoint], throughput_floor_mbps: float = 0.0
    ) -> DesignPoint:
        """The point with the best throughput-to-area ratio above a throughput floor."""
        if not points:
            raise ConfigurationError("best_point requires a non-empty sweep")
        eligible = [p for p in points if p.throughput_mbps >= throughput_floor_mbps]
        if not eligible:
            eligible = points
        return max(
            eligible,
            key=lambda p: objective_score(
                "throughput_per_area", p.throughput_mbps, p.noc_area_mm2
            ),
        )
