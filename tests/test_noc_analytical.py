"""Differential harness pinning the analytical NoC model to the cycle engine.

Three layers of assertions:

* **Exact structural invariants** — the provable facts the model is built
  on: weighted hop counts never exceed the graph diameter, the engine never
  finishes below the zero-contention lower bound, simulated latencies never
  undercut their hop-count floors, and the estimator never predicts below
  the bound / floors it is clamped to.

* **Documented tolerance bands** — for every metric the estimate must land
  within :data:`repro.noc.ERROR_TOLERANCES`'s band of the simulated value:
  ``|est - sim| <= band * max(sim, slack)``.  The bands are the measured
  out-of-sample error envelopes (docs/noc-analytical.md) plus headroom;
  every (family, routing algorithm, collision policy) combination is
  exercised, plus a Hypothesis sweep over random workloads.

* **Screening equivalence** — `DesignSpaceExplorer.explore` with analytical
  screening reproduces the exhaustive winners on a reduced Table-I grid
  while actually skipping simulations.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DecoderSpec, DesignSpaceExplorer
from repro.errors import ConfigurationError
from repro.ldpc import wimax_ldpc_code
from repro.noc import (
    ERROR_TOLERANCES,
    AnalyticalNocModel,
    BatchNocSimulator,
    CollisionPolicy,
    NocConfiguration,
    RoutingAlgorithm,
    build_routing_tables,
    build_topology,
    random_traffic,
    zero_contention_bound,
)

#: One representative of every topology family in the Table-I universe.
FAMILIES = [
    ("ring", None),
    ("mesh", None),
    ("toroidal-mesh", None),
    ("spidergon", None),
    ("honeycomb", None),
    ("generalized-de-bruijn", 2),
    ("generalized-kautz", 3),
]

ALGORITHMS = list(RoutingAlgorithm)
POLICIES = list(CollisionPolicy)

#: Family-valid parallelisms for differential workloads (distinct from the
#: model's probe sizes where the family's validity set allows it).
_WORKLOAD_P = {
    "ring": (8, 14),
    "mesh": (12, 20),
    "toroidal-mesh": (12, 20),
    "spidergon": (10, 18),
    "honeycomb": (12, 18),
    "generalized-de-bruijn": (10, 20),
    "generalized-kautz": (10, 20),
}


@pytest.fixture(scope="module")
def model():
    """One shared model so contention fits are paid once per key."""
    return AnalyticalNocModel()


@pytest.fixture(scope="module")
def graphs():
    cache = {}

    def build(family, parallelism, degree):
        key = (family, parallelism, degree)
        if key not in cache:
            topology = build_topology(family, parallelism, degree)
            cache[key] = (topology, build_routing_tables(topology))
        return cache[key]

    return build


def _check_differential(model, graphs, family, degree, parallelism, config, traffic):
    """Run engine + estimator on one workload and enforce every contract."""
    topology, tables = graphs(family, parallelism, degree)
    engine = BatchNocSimulator(topology, config, routing_tables=tables, seed=3)
    result = engine.run(traffic)
    estimate = model.estimate(family, degree, config, traffic, tables=tables)

    # --- exact structural invariants -------------------------------------
    bound = zero_contention_bound(tables, config, traffic)
    assert estimate.zero_contention_bound == bound
    assert result.ncycles >= bound, "engine finished below the provable bound"
    assert estimate.ncycles >= bound, "estimate clamped below its own bound"
    assert estimate.max_hops <= tables.diameter
    assert 0 <= estimate.mean_hops <= estimate.max_hops
    if estimate.total_messages:
        latency_floor = (
            estimate.network_messages * (estimate.mean_hops + 1.0)
            / estimate.total_messages
        )
        assert result.statistics.mean_latency >= latency_floor - 1e-9
        assert estimate.mean_latency >= latency_floor - 1e-9
        if estimate.network_messages:
            assert result.statistics.max_latency >= estimate.max_hops + 1
            assert estimate.max_latency >= estimate.max_hops + 1

    # --- documented tolerance bands --------------------------------------
    simulated = {
        "ncycles": float(result.ncycles),
        "mean_latency": result.statistics.mean_latency,
        "max_latency": float(result.statistics.max_latency),
        "max_fifo": float(result.max_fifo_occupancy),
    }
    estimated = {
        "ncycles": estimate.ncycles,
        "mean_latency": estimate.mean_latency,
        "max_latency": estimate.max_latency,
        "max_fifo": estimate.max_fifo_occupancy,
    }
    for metric, tolerance in ERROR_TOLERANCES.items():
        if metric not in simulated:
            continue
        error = abs(estimated[metric] - simulated[metric])
        limit = tolerance.band * max(simulated[metric], tolerance.slack)
        assert error <= limit, (
            f"{metric}: estimate {estimated[metric]:.2f} vs simulated "
            f"{simulated[metric]:.2f} exceeds documented band {tolerance.band} "
            f"({family} P={parallelism} {config.describe()})"
        )
    return result, estimate


class TestToleranceBands:
    """Documented bands hold on every (family, algorithm, policy) combo."""

    @pytest.mark.parametrize("family,degree", FAMILIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_combo_within_documented_bands(
        self, model, graphs, family, degree, algorithm, policy
    ):
        for parallelism, messages, rate in (
            (_WORKLOAD_P[family][0], 12, 1.0),
            (_WORKLOAD_P[family][1], 24, 0.5),
        ):
            config = NocConfiguration(
                injection_rate=rate, collision_policy=policy
            ).with_routing(algorithm)
            traffic = random_traffic(parallelism, messages, seed=2024)
            _check_differential(
                model, graphs, family, degree, parallelism, config, traffic
            )

    def test_route_local_traffic_within_bands(self, model, graphs):
        config = NocConfiguration(
            injection_rate=0.5, route_local=True, collision_policy=CollisionPolicy.SCM
        )
        traffic = random_traffic(12, 16, seed=55)
        _check_differential(model, graphs, "generalized-kautz", 3, 12, config, traffic)


class TestDifferentialHypothesis:
    """Randomized workloads: invariants + bands on fresh draws."""

    @given(
        combo=st.sampled_from(FAMILIES),
        p_index=st.integers(min_value=0, max_value=1),
        messages=st.integers(min_value=1, max_value=28),
        rate=st.sampled_from([0.25, 0.4, 0.5, 0.75, 1.0]),
        algorithm=st.sampled_from(ALGORITHMS),
        policy=st.sampled_from(POLICIES),
        route_local=st.booleans(),
        traffic_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_workloads(
        self, model, graphs, combo, p_index, messages, rate, algorithm, policy,
        route_local, traffic_seed,
    ):
        family, degree = combo
        parallelism = _WORKLOAD_P[family][p_index]
        config = NocConfiguration(
            injection_rate=rate,
            route_local=route_local,
            collision_policy=policy,
        ).with_routing(algorithm)
        traffic = random_traffic(parallelism, messages, seed=traffic_seed)
        _check_differential(
            model, graphs, family, degree, parallelism, config, traffic
        )


class TestModelMechanics:
    def test_empty_traffic_estimates_zero(self, model):
        traffic = random_traffic(8, 0, seed=0)
        estimate = model.estimate(
            "generalized-kautz", 3, NocConfiguration(), traffic
        )
        assert estimate.ncycles == 0
        assert estimate.zero_contention_bound == 0

    def test_fit_cached_per_key(self, model):
        fit_a = model.fit_for(
            "spidergon", None, RoutingAlgorithm.SSP_FL, CollisionPolicy.SCM
        )
        fit_b = model.fit_for(
            "spidergon", 3, RoutingAlgorithm.SSP_FL, CollisionPolicy.SCM
        )
        # Fixed-degree families drop the degree from the key: same fit object.
        assert fit_a is fit_b
        assert fit_a.n_probes > 0
        assert set(fit_a.thetas) == {
            "ncycles", "mean_latency", "latency_std", "max_latency", "max_fifo",
        }

    def test_digraph_fits_keyed_by_degree(self, model):
        fit_d2 = model.fit_for(
            "generalized-kautz", 2, RoutingAlgorithm.SSP_FL, CollisionPolicy.DCM
        )
        fit_d3 = model.fit_for(
            "generalized-kautz", 3, RoutingAlgorithm.SSP_FL, CollisionPolicy.DCM
        )
        assert fit_d2 is not fit_d3
        assert fit_d2.degree == 2 and fit_d3.degree == 3

    def test_nonnegative_corrections(self, model):
        fit = model.fit_for(
            "ring", None, RoutingAlgorithm.SSP_RR, CollisionPolicy.SCM
        )
        for metric, theta in fit.thetas.items():
            assert all(value >= 0.0 for value in theta), metric

    def test_tolerances_documented_for_every_metric(self):
        for metric, tolerance in ERROR_TOLERANCES.items():
            assert tolerance.band > tolerance.measured_max, (
                f"{metric}: enforced band must dominate the measured envelope"
            )
            assert tolerance.slack > 0


class TestScreenedExploration:
    """explore(screen="analytical") vs the exhaustive Table-I flow."""

    GRID_TOPOLOGIES = [("generalized-kautz", 3), ("spidergon", 3)]
    GRID_PARALLELISMS = [8, 16]

    @pytest.fixture(scope="class")
    def explorer(self):
        return DesignSpaceExplorer(DecoderSpec(mapping_attempts=1), seed=0)

    @pytest.fixture(scope="class")
    def code(self):
        return wimax_ldpc_code(576, "1/2")

    @pytest.fixture(scope="class")
    def exhaustive(self, explorer, code):
        return explorer.explore(
            code, self.GRID_TOPOLOGIES, self.GRID_PARALLELISMS, screen=None
        )

    @pytest.fixture(scope="class")
    def screened(self, explorer, code):
        # confirm_top=6 covers the whole near-tied top parallelism tier, which
        # is the documented condition for screening to be winner-safe.
        return explorer.explore(
            code, self.GRID_TOPOLOGIES, self.GRID_PARALLELISMS,
            screen="analytical", confirm_top=6,
        )

    def test_exhaustive_simulates_everything(self, exhaustive):
        assert exhaustive.n_candidates == 2 * 2 * 3
        assert exhaustive.n_simulated == exhaustive.n_candidates
        assert exhaustive.n_skipped == 0
        assert exhaustive.screened == []

    def test_screened_skips_simulations(self, screened, exhaustive):
        assert screened.n_candidates == exhaustive.n_candidates
        assert screened.n_skipped > 0
        assert screened.n_simulated + screened.n_skipped == screened.n_candidates
        assert len(screened.points) == screened.n_simulated
        assert len(screened.screened) == screened.n_candidates

    def test_screened_reproduces_exhaustive_winners(self, screened, exhaustive):
        for objective in ("throughput", "throughput_per_area"):
            full_winner = exhaustive.winners[objective]
            screen_winner = screened.winners[objective]
            assert (
                full_winner.topology_family, full_winner.degree,
                full_winner.parallelism, full_winner.routing_algorithm,
            ) == (
                screen_winner.topology_family, screen_winner.degree,
                screen_winner.parallelism, screen_winner.routing_algorithm,
            ), f"screening changed the {objective} winner"

    def test_report_describe_mentions_skips(self, screened):
        text = screened.describe()
        assert "screen=analytical" in text
        assert f"skipped {screened.n_skipped}" in text

    def test_winners_use_simulated_not_estimated_values(self, screened):
        for objective, winner in screened.winners.items():
            values = [
                DesignSpaceExplorer._objective_value(p, objective)
                for p in screened.points
            ]
            assert DesignSpaceExplorer._objective_value(
                winner, objective
            ) == pytest.approx(max(values))

    def test_explore_validates_arguments(self, explorer, code):
        with pytest.raises(ConfigurationError):
            explorer.explore(code, self.GRID_TOPOLOGIES, [8], screen="oracle")
        with pytest.raises(ConfigurationError):
            explorer.explore(code, self.GRID_TOPOLOGIES, [8], confirm_top=0)
        with pytest.raises(ConfigurationError):
            explorer.explore(
                code, self.GRID_TOPOLOGIES, [8], objectives=("latency",)
            )
        with pytest.raises(ConfigurationError):
            explorer.explore(code, self.GRID_TOPOLOGIES, [8], objectives=())
