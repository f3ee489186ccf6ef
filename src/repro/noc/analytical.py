"""Closed-form analytical estimator for the cycle-accurate NoC engine.

The cycle engine (:mod:`repro.noc.engine`) answers "how many cycles does one
message-passing phase take?" exactly, at the cost of simulating every cycle.
This module answers the same question *approximately but instantly*, from
three ingredients:

1. **Hop-count statistics** — closed-form moments of the shortest-path hop
   distribution weighted by the traffic demand matrix
   (:meth:`~repro.noc.routing.RoutingTables.hop_statistics`).  A message over
   ``h`` hops needs at least ``h + 1`` cycles from injection to delivery, so
   the hop moments give exact zero-contention floors for every latency
   moment.

2. **A provable zero-contention lower bound** on the drain time
   (:func:`zero_contention_bound`), derived from the engine's timing
   discipline (see docs/noc-analytical.md for the derivation):

   * *injection pacing* — the ``k``-th network message a PE emits cannot
     inject before cycle ``ceil(k / R) - 1`` and then needs ``hops + 2``
     further cycles to clear the network (one FIFO entry cycle, ``hops``
     link traversals, one delivery cycle);
   * *destination serialization* — a node delivers at most one message per
     cycle through its local port, so ``n_d`` messages addressed to node
     ``d`` need ``n_d`` cycles after the earliest possible arrival;
   * *arc capacity* (single shortest path + DCM only, where every message
     follows its unique planned path) — an arc crossed by ``l`` messages
     needs ``l`` cycles of service plus entry/delivery slack.

3. **A fitted contention correction** — everything the bound cannot see
   (crossbar arbitration conflicts, FIFO queueing cascades, SCM deflection
   detours) is absorbed by a small non-negative linear model on
   dimensionless congestion features, fitted *once per (family, degree,
   routing algorithm, collision policy)* against a probe set of small
   cycle-exact simulations and cached on the model instance.  Probes use
   small networks (P <= 16); accuracy on larger networks is extrapolation,
   measured in docs/noc-analytical.md and enforced by the differential test
   suite at the :data:`ERROR_TOLERANCES` bands.

The estimator is intended for *screening*: ranking large design grids so
that only the most promising points pay for cycle-exact simulation
(:meth:`repro.core.design_flow.DesignSpaceExplorer.explore`).  It is not a
replacement for the engine — Table-I numbers still come from simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.noc.config import CollisionPolicy, NocConfiguration, RoutingAlgorithm
from repro.noc.engine import BatchNocSimulator
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.topologies import Topology, build_topology
from repro.noc.traffic import TrafficPattern, random_traffic

__all__ = [
    "ANALYTICAL_MODEL_VERSION",
    "ERROR_TOLERANCES",
    "AnalyticalEstimate",
    "AnalyticalNocModel",
    "ContentionFit",
    "MetricTolerance",
    "zero_contention_bound",
]

#: Bumped whenever the estimator's features, floors or fitting protocol
#: change; cached fits and screening caches key on it.
ANALYTICAL_MODEL_VERSION = 1

#: Families whose graph is parameterized by an explicit degree; for all other
#: families the degree is a function of (family, P) and the fit key drops it.
_DEGREE_FAMILIES = frozenset({"generalized-de-bruijn", "generalized-kautz"})

#: Metrics the contention correction carries a fitted head for.
_METRICS = ("ncycles", "mean_latency", "latency_std", "max_latency", "max_fifo")


@dataclass(frozen=True)
class MetricTolerance:
    """Documented relative-error tolerance band for one estimated metric.

    The differential suite asserts ``|estimate - simulated| <= band *
    max(simulated, slack)`` — ``slack`` keeps the relative test meaningful
    when the simulated value itself is a handful of cycles.  The measured
    fields record the out-of-sample error envelope (400 random
    configurations spanning every family, policy and traffic mix, networks
    up to P=32) that the band was derived from; see docs/noc-analytical.md.
    """

    band: float
    slack: float
    measured_mean: float
    measured_p90: float
    measured_max: float


#: Enforced tolerance per metric.  Bands are the measured out-of-sample
#: maximum plus ~40% headroom (the differential suite draws fresh
#: configurations, so the enforced band must dominate unseen draws, not just
#: the measurement sample).  ``ncycles`` — the screening objective — is tight;
#: the latency moments are single-seed extreme statistics and honestly wider;
#: ``max_fifo`` is a coarse area-ranking signal only.
ERROR_TOLERANCES: Mapping[str, MetricTolerance] = {
    "ncycles": MetricTolerance(
        band=0.50, slack=8.0, measured_mean=0.052, measured_p90=0.114,
        measured_max=0.343,
    ),
    "mean_latency": MetricTolerance(
        band=1.60, slack=4.0, measured_mean=0.177, measured_p90=0.391,
        measured_max=1.136,
    ),
    "latency_std": MetricTolerance(
        band=2.00, slack=3.0, measured_mean=0.209, measured_p90=0.481,
        measured_max=1.377,
    ),
    "max_latency": MetricTolerance(
        band=2.00, slack=6.0, measured_mean=0.306, measured_p90=0.649,
        measured_max=1.408,
    ),
    "max_fifo": MetricTolerance(
        band=3.40, slack=4.0, measured_mean=0.303, measured_p90=0.671,
        measured_max=1.830,
    ),
}


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Closed-form estimate of one simulated message-passing phase.

    Mirrors the measurements of :class:`~repro.noc.results.SimulationResult`
    that the design flow consumes.  ``zero_contention_bound`` is the provable
    lower bound on the drain time — both this estimate's ``ncycles`` and the
    engine's measured ``ncycles`` are always >= it.
    """

    ncycles: float
    mean_latency: float
    latency_std: float
    max_latency: float
    max_fifo_occupancy: float
    mean_hops: float
    max_hops: int
    zero_contention_bound: int
    total_messages: int
    network_messages: int


@dataclass(frozen=True)
class ContentionFit:
    """Fitted contention correction for one (family, degree, algorithm, policy).

    ``thetas`` maps each metric head to its non-negative coefficient vector
    over the shared feature basis (see ``AnalyticalNocModel._features``).
    """

    family: str
    degree: int | None
    routing_algorithm: RoutingAlgorithm
    collision_policy: CollisionPolicy
    thetas: Mapping[str, tuple[float, ...]]
    n_probes: int


def zero_contention_bound(
    tables: RoutingTables,
    config: NocConfiguration,
    traffic: TrafficPattern,
    ssp_loads: np.ndarray | None = None,
) -> int:
    """Provable lower bound on the engine's ``ncycles`` for this workload.

    Three terms, each a necessary condition of the engine's timing
    discipline (docs/noc-analytical.md derives them from the cycle loop):

    * ``B1`` (injection + path): the ``k``-th network message a PE emits
      (1-based, in traffic order) is credit-paced to inject no earlier than
      cycle ``ceil(k / R) - 1`` and is delivered no earlier than ``hops + 2``
      cycles later.  Local messages with RL=0 bypass the network and are
      delivered at the preceding network message's injection cycle.
    * ``B2`` (destination serialization): node ``d`` delivers at most one
      message per cycle, so its ``n_d`` addressed messages finish no earlier
      than ``n_d`` cycles after the earliest possible first arrival.
    * ``B3`` (arc capacity, SSP + DCM only): with a unique planned path per
      message and no deflections, an arc carrying ``l`` messages is busy
      for ``l`` cycles, plus one cycle to enter the network and one to
      deliver.  Under SCM deflections (or ASP path spreading) messages can
      leave overloaded arcs, so the term does not apply.

    ``ncycles`` is the last delivery cycle + 1, hence the ``+1``-style
    offsets baked into each term.  The engine can never finish below this
    bound; the differential suite asserts exactly that.
    """
    if traffic.total_messages == 0:
        return 0
    rate = config.injection_rate
    route_local = config.route_local
    source, dest = traffic.source, traffic.dest
    network = np.ones(dest.size, dtype=bool) if route_local else dest != source
    # 1-based network-message index of each slot within its node; at an RL=0
    # bypass slot (network False) the inclusive count equals the count of the
    # node's preceding network messages, which is exactly the ``k`` the
    # bypass delivery is paced by.
    seen = np.cumsum(network)
    k = seen - np.concatenate(([0], seen))[traffic.offsets[:-1]][source]
    inject = np.ceil(k / rate).astype(np.int64) - 1
    b1 = 1
    bypass = ~network
    if bypass.any():
        # Bypass delivery happens when the preceding network message injects
        # (or at cycle 0 if there is none): ncycles >= t + 1.
        t_bypass = np.where(k[bypass] > 0, inject[bypass], 0)
        b1 = max(b1, int(t_bypass.max()) + 1)
    b2 = 1
    if network.any():
        net_dests = dest[network]
        hops = tables.distance[source[network], net_dests].astype(np.int64)
        arrival = inject[network] + hops + 1
        b1 = max(b1, int(arrival.max()) + 1)
        earliest = np.full(traffic.n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(earliest, net_dests, arrival)
        deliveries = np.bincount(net_dests, minlength=traffic.n_nodes)
        addressed = deliveries > 0
        b2 = max(b2, int((earliest[addressed] + deliveries[addressed]).max()))
    bound = max(b1, b2)
    if (
        config.routing_algorithm is not RoutingAlgorithm.ASP_FT
        and config.collision_policy is CollisionPolicy.DCM
    ):
        if ssp_loads is None:
            pair_counts = traffic.pair_counts().astype(np.float64)
            if not route_local:
                np.fill_diagonal(pair_counts, 0.0)
            ssp_loads = tables.ssp_arc_loads(pair_counts)
        max_load = int(ssp_loads.max()) if ssp_loads.size else 0
        if max_load:
            bound = max(bound, max_load + 2)
    return bound


def _nnls(features: np.ndarray, targets: np.ndarray, iters: int = 800) -> np.ndarray:
    """Non-negative least squares by projected gradient descent.

    Small and dependency-free (no scipy in the image).  Columns are scaled
    to unit norm so one Lipschitz step size serves every feature; 800
    iterations converge far past the noise floor of the probe targets.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    scale = np.linalg.norm(X, axis=0)
    scale[scale == 0] = 1.0
    Xs = X / scale
    lipschitz = np.linalg.norm(Xs.T @ Xs, 2)
    if lipschitz == 0:
        return np.zeros(X.shape[1])
    theta = np.zeros(X.shape[1])
    for _ in range(iters):
        grad = Xs.T @ (Xs @ theta - y)
        theta = np.clip(theta - grad / lipschitz, 0.0, None)
    return theta / scale


@dataclass(frozen=True)
class _Analysis:
    """Closed-form quantities for one (graph, config, traffic) workload."""

    lower_bound: int
    base: float
    features: tuple[float, ...]
    latency_floor: float
    latency_std_floor: float
    max_latency_floor: float
    mean_hops: float
    max_hops: int
    total_messages: int
    network_messages: int


class AnalyticalNocModel:
    """Analytical estimator with per-family fitted contention corrections.

    Fits are cached per ``(family, degree, routing algorithm, collision
    policy)`` — one probe campaign (27 small cycle-exact runs) covers every
    (P, injection rate, traffic) query sharing that key, which is what makes
    analytical screening of large grids cheap.
    """

    #: Probe grid: messages per node x injection rates, at three family-
    #: specific small parallelisms.  Rates span the values the screening
    #: grids use; queries far outside this envelope extrapolate.
    PROBE_MESSAGES = (4, 16, 32)
    PROBE_RATES = (0.25, 0.5, 1.0)
    #: Seed of the synthetic probe traffic the contention correction is
    #: fitted against.
    PROBE_SEED = 101
    #: Seed passed to the cycle engine when running probes.
    ENGINE_SEED = 7
    #: Safety ceiling for probe simulations.
    MAX_PROBE_CYCLES = 200_000

    def __init__(self) -> None:
        self._fits: dict[tuple, ContentionFit] = {}
        self._graphs: dict[tuple, tuple[Topology, RoutingTables]] = {}

    # ------------------------------------------------------------------ #
    # Graph plumbing
    # ------------------------------------------------------------------ #
    def _graph(
        self, family: str, parallelism: int, degree: int | None
    ) -> tuple[Topology, RoutingTables]:
        degree_key = degree if family in _DEGREE_FAMILIES else None
        key = (family, parallelism, degree_key)
        if key not in self._graphs:
            topology = build_topology(family, parallelism, degree_key)
            self._graphs[key] = (topology, build_routing_tables(topology))
        return self._graphs[key]

    @staticmethod
    def _probe_parallelisms(family: str) -> tuple[int, ...]:
        """Small-network probe sizes, adjusted to each family's validity set."""
        if family == "toroidal-mesh":
            return (9, 12, 16)
        if family == "ring":
            return (6, 10, 16)
        return (8, 12, 16)

    # ------------------------------------------------------------------ #
    # Closed-form analysis
    # ------------------------------------------------------------------ #
    def _analyze(
        self,
        tables: RoutingTables,
        config: NocConfiguration,
        traffic: TrafficPattern,
    ) -> _Analysis:
        pair_counts_all = traffic.pair_counts().astype(np.float64)
        pair_counts = pair_counts_all.copy()
        if not config.route_local:
            np.fill_diagonal(pair_counts, 0.0)
        if config.routing_algorithm is RoutingAlgorithm.ASP_FT:
            loads = tables.asp_arc_loads(pair_counts)
            ssp_loads = None
        else:
            loads = tables.ssp_arc_loads(pair_counts)
            ssp_loads = loads
        bound = zero_contention_bound(tables, config, traffic, ssp_loads=ssp_loads)
        hop_stats = tables.hop_statistics(pair_counts)
        network_messages = hop_stats.total_messages
        total_messages = int(pair_counts_all.sum())
        max_load = float(loads.max()) if loads.size else 0.0
        mean_load = float(loads.mean()) if loads.size else 0.0
        # The correction's reference scale: the bound, or the most loaded
        # arc's busy period when that is the larger — under SCM/ASP the arc
        # term is not a provable bound, but it is the right congestion scale.
        base = float(max(bound, int(np.ceil(max_load)) + 2 if max_load else bound))
        utilization = min(max_load / base, 0.999) if base else 0.0
        mean_utilization = min(mean_load / base, 0.999) if base else 0.0
        capped = min(utilization, 0.95)
        saturation = capped / (1.0 - capped)
        features = (
            utilization,
            utilization * utilization,
            saturation,
            mean_utilization,
            config.injection_rate,
            1.0,
        )
        # Zero-contention latency floors over ALL messages: a network message
        # over h hops takes >= h + 1 cycles, an RL=0 local bypass takes 0.
        if total_messages:
            latency_floor = network_messages * (hop_stats.mean + 1.0) / total_messages
            second_moment_floor = (
                network_messages
                * (hop_stats.second_moment + 2.0 * hop_stats.mean + 1.0)
                / total_messages
            )
        else:
            latency_floor = second_moment_floor = 0.0
        latency_std_floor = math.sqrt(
            max(second_moment_floor - latency_floor * latency_floor, 0.0)
        )
        max_latency_floor = float(hop_stats.maximum + 1) if network_messages else 0.0
        return _Analysis(
            lower_bound=bound,
            base=base,
            features=features,
            latency_floor=latency_floor,
            latency_std_floor=latency_std_floor,
            max_latency_floor=max_latency_floor,
            mean_hops=hop_stats.mean,
            max_hops=hop_stats.maximum,
            total_messages=total_messages,
            network_messages=network_messages,
        )

    @staticmethod
    def _head_scales(analysis: _Analysis) -> dict[str, tuple[float, float]]:
        """Per metric head: (floor, correction scale).

        Every head predicts ``floor + scale * max(0, theta . features)``;
        the fit targets are the matching ``(observed - floor) / scale``.
        The drain time and FIFO heads scale with the congestion base (queueing
        is additive in cycles); the latency heads scale with their own floor
        (waiting inflates latencies multiplicatively), clamped to >= 1 so
        near-zero floors — mostly-local traffic — stay well-conditioned.
        """
        return {
            "ncycles": (analysis.base, analysis.base),
            "mean_latency": (analysis.latency_floor, max(analysis.latency_floor, 1.0)),
            "latency_std": (
                analysis.latency_std_floor,
                max(analysis.latency_std_floor, 1.0),
            ),
            "max_latency": (
                analysis.max_latency_floor,
                max(analysis.max_latency_floor, 1.0),
            ),
            "max_fifo": (1.0, analysis.base),
        }

    # ------------------------------------------------------------------ #
    # Probe fitting
    # ------------------------------------------------------------------ #
    def fit_for(
        self,
        family: str,
        degree: int | None,
        routing_algorithm: RoutingAlgorithm,
        collision_policy: CollisionPolicy,
    ) -> ContentionFit:
        """The cached contention fit for one model key, fitting on first use."""
        degree_key = degree if family in _DEGREE_FAMILIES else None
        key = (family, degree_key, routing_algorithm, collision_policy)
        if key not in self._fits:
            self._fits[key] = self._fit(*key)
        return self._fits[key]

    def _fit(
        self,
        family: str,
        degree: int | None,
        routing_algorithm: RoutingAlgorithm,
        collision_policy: CollisionPolicy,
    ) -> ContentionFit:
        features: list[tuple[float, ...]] = []
        targets: dict[str, list[float]] = {metric: [] for metric in _METRICS}
        n_probes = 0
        for parallelism in self._probe_parallelisms(family):
            try:
                topology, tables = self._graph(family, parallelism, degree)
            except TopologyError:
                continue
            for messages in self.PROBE_MESSAGES:
                for rate in self.PROBE_RATES:
                    config = NocConfiguration(
                        injection_rate=rate, collision_policy=collision_policy
                    ).with_routing(routing_algorithm)
                    traffic = random_traffic(
                        parallelism, messages, seed=self.PROBE_SEED
                    )
                    engine = BatchNocSimulator(
                        topology,
                        config,
                        routing_tables=tables,
                        seed=self.ENGINE_SEED,
                        max_cycles=self.MAX_PROBE_CYCLES,
                    )
                    result = engine.run(traffic)
                    analysis = self._analyze(tables, config, traffic)
                    scales = self._head_scales(analysis)
                    features.append(analysis.features)
                    observed = {
                        "ncycles": float(result.ncycles),
                        "mean_latency": result.statistics.mean_latency,
                        "latency_std": _latency_std(result),
                        "max_latency": float(result.statistics.max_latency),
                        "max_fifo": float(result.max_fifo_occupancy),
                    }
                    for metric in _METRICS:
                        floor, scale = scales[metric]
                        targets[metric].append((observed[metric] - floor) / scale)
                    n_probes += 1
        if not n_probes:
            raise ConfigurationError(
                f"no valid probe networks for family {family!r} "
                f"(degree {degree!r}); cannot fit the analytical model"
            )
        feature_matrix = np.array(features, dtype=np.float64)
        thetas = {
            metric: tuple(_nnls(feature_matrix, np.array(values)))
            for metric, values in targets.items()
        }
        return ContentionFit(
            family=family,
            degree=degree if family in _DEGREE_FAMILIES else None,
            routing_algorithm=routing_algorithm,
            collision_policy=collision_policy,
            thetas=thetas,
            n_probes=n_probes,
        )

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        family: str,
        degree: int | None,
        config: NocConfiguration,
        traffic: TrafficPattern,
        tables: RoutingTables | None = None,
    ) -> AnalyticalEstimate:
        """Estimate one workload's simulation measurements without simulating.

        ``tables`` may be passed to reuse routing tables the caller already
        built; otherwise they are built (and cached) from ``(family,
        traffic.n_nodes, degree)``.
        """
        if tables is None:
            _, tables = self._graph(family, traffic.n_nodes, degree)
        if traffic.total_messages == 0:
            return AnalyticalEstimate(
                ncycles=0.0, mean_latency=0.0, latency_std=0.0, max_latency=0.0,
                max_fifo_occupancy=0.0, mean_hops=0.0, max_hops=0,
                zero_contention_bound=0, total_messages=0, network_messages=0,
            )
        fit = self.fit_for(
            family, degree, config.routing_algorithm, config.collision_policy
        )
        analysis = self._analyze(tables, config, traffic)
        scales = self._head_scales(analysis)
        feature_vector = np.asarray(analysis.features)

        def head(metric: str) -> float:
            floor, scale = scales[metric]
            correction = max(0.0, float(np.dot(feature_vector, fit.thetas[metric])))
            return floor + scale * correction

        return AnalyticalEstimate(
            ncycles=max(head("ncycles"), float(analysis.lower_bound)),
            mean_latency=head("mean_latency"),
            latency_std=head("latency_std"),
            max_latency=head("max_latency"),
            max_fifo_occupancy=max(head("max_fifo"), 1.0),
            mean_hops=analysis.mean_hops,
            max_hops=analysis.max_hops,
            zero_contention_bound=analysis.lower_bound,
            total_messages=analysis.total_messages,
            network_messages=analysis.network_messages,
        )


def _latency_std(result) -> float:
    """Population standard deviation of the delivered-message latencies."""
    latencies = result.statistics.latencies
    if not latencies:
        return 0.0
    return float(np.std(np.asarray(latencies, dtype=np.float64)))
