"""Benchmark: struct-of-arrays NoC cycle engine vs the object reference simulator.

Measures sweep-points/sec over a Table-I/ablation-style grid — generalized
Kautz graphs at the paper's parallelism degrees, all three routing algorithms
and both collision policies at paper-scale traffic (one LDPC-iteration's worth
of messages per PE).  The baseline evaluates every point the way the pre-engine
design flow did: build the topology, build its routing tables, construct the
object simulator, run.  The engine path runs the same jobs through
:func:`repro.noc.sweep.run_noc_sweep`, which shares the precomputed
topologies/routing tables and per-configuration engine state across points
(every job here has a distinct configuration, so the scheduler exercises its
scalar-engine dispatch, not the batched kernel — see
``bench_noc_batch_sweep.py`` for the job-batched measurement).

Both paths produce cycle-exact identical :class:`SimulationResult`s (asserted
here and pinned by ``tests/test_noc_engine.py``); only the time differs.

The ``map_table1_grid`` row times the other half of a Table-I design point,
the mapping flow (check partition, equivalent interleaver, selection), over
the Table-I parallelisms of WiMAX LDPC 2304 r1/2 at ``attempts=2``: the
list-native :func:`repro.mapping.map_ldpc_code` against an inline copy of the
NumPy-scalar partitioner and interleaver it replaced.  Both return the same
mapping (asserted); the row is gated on the current flow winning.

Headline numbers land in ``benchmarks/BENCH_noc_engine_throughput.json``.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np

from repro.ldpc import TannerGraph, wimax_ldpc_code
from repro.mapping import evaluate_traffic_quality, map_ldpc_code
from repro.noc import (
    CollisionPolicy,
    NocConfiguration,
    NocSweepJob,
    ReferenceNocSimulator,
    RoutingAlgorithm,
    TrafficPattern,
    build_routing_tables,
    build_topology,
    random_traffic,
    run_noc_sweep,
)
from repro.utils.rng import make_rng

from benchmarks.harness import full_benchmarks_enabled, record, row, trials

#: (parallelism, messages per PE) — message counts sized like the n=2304
#: rate-1/2 WiMAX LDPC code partitioned over P PEs (~2304/P messages each).
SWEEP_SCALES = [(16, 144), (22, 105), (32, 72), (36, 64)]
TIMING_REPEATS = 3
#: The Table-I parallelisms; the default run maps at the first and third.
TABLE1_PARALLELISMS = [16, 24, 32, 36]
MAPPING_ATTEMPTS = 2
MAPPING_TRIALS = 5


def _build_jobs() -> list[NocSweepJob]:
    jobs = []
    scales = SWEEP_SCALES if full_benchmarks_enabled() else SWEEP_SCALES[:3]
    for parallelism, messages in scales:
        traffic = random_traffic(parallelism, messages, seed=100 + parallelism)
        for algorithm in RoutingAlgorithm:
            for policy in CollisionPolicy:
                config = NocConfiguration(collision_policy=policy).with_routing(algorithm)
                jobs.append(
                    NocSweepJob(
                        family="generalized-kautz",
                        parallelism=parallelism,
                        degree=3,
                        config=config,
                        traffic=traffic,
                        seed=0,
                    )
                )
    return jobs


def _run_baseline(jobs: list[NocSweepJob]):
    """Per-point object-simulator evaluation, exactly as the pre-engine flow."""
    results = []
    for job in jobs:
        topology = build_topology(job.family, job.parallelism, job.degree)
        tables = build_routing_tables(topology)
        simulator = ReferenceNocSimulator(
            topology, job.config, routing_tables=tables, seed=job.seed
        )
        results.append(simulator.run(job.traffic))
    return results


def test_engine_sweep_throughput():
    """The engine sweep must clear >= 5x sweep-points/sec over the object simulator."""
    jobs = _build_jobs()

    samples, results = trials(
        {"object_simulator": lambda: _run_baseline(jobs), "engine": lambda: run_noc_sweep(jobs)},
        TIMING_REPEATS,
    )
    baseline_results, engine_outcomes = results["object_simulator"], results["engine"]

    # The two paths must agree cycle-exactly before their times mean anything;
    # outcomes carry their jobs, so pair through the job rather than position.
    by_job = {id(outcome.job): outcome.result for outcome in engine_outcomes}
    for job, ref in zip(jobs, baseline_results):
        eng = by_job[id(job)]
        assert (ref.ncycles, ref.delivered_messages, ref.per_node_max_fifo) == (
            eng.ncycles,
            eng.delivered_messages,
            eng.per_node_max_fifo,
        )

    n_points = len(jobs)
    timing = row(samples, "object_simulator")
    baseline_s = timing["arms"]["object_simulator"]["best"]
    engine_s = timing["arms"]["engine"]["best"]
    speedup = baseline_s / engine_s

    print(
        "\nNoC sweep throughput (generalized-kautz D=3, "
        f"{n_points} points, best of {TIMING_REPEATS}):\n"
        f"  object simulator : {n_points / baseline_s:8.1f} points/s ({baseline_s:.3f} s)\n"
        f"  SoA cycle engine : {n_points / engine_s:8.1f} points/s ({engine_s:.3f} s)\n"
        f"  speedup          : {speedup:.2f}x"
    )
    record(
        "noc_engine_throughput",
        "sweep_points_per_sec",
        {
            "sweep_points": n_points,
            "parallelisms": [
                p
                for p, _ in (SWEEP_SCALES if full_benchmarks_enabled() else SWEEP_SCALES[:3])
            ],
            "speedup": round(speedup, 2),
            "timing": timing,
        },
    )

    # The JSON records the measured ratio (~5.3x on a quiet machine).  The
    # hard floor is relaxed on shared CI runners, where a noisy neighbour in
    # one timing window can halve an otherwise stable wall-clock ratio.
    floor = 2.0 if os.environ.get("CI") else 4.0
    assert speedup >= floor, f"engine sweep speedup regressed to {speedup:.2f}x"


def test_single_point_engine_cost():
    """One engine run at the P=22 WiMAX design point delivers every message."""
    topology = build_topology("generalized-kautz", 22, 3)
    tables = build_routing_tables(topology)
    traffic = random_traffic(22, 105, seed=1)
    from repro.noc import BatchNocSimulator

    engine = BatchNocSimulator(topology, NocConfiguration(), routing_tables=tables)
    result = engine.run(traffic)
    assert result.all_delivered


# --------------------------------------------------------------------------- #
# The mapping flow: list-native partitioner vs the NumPy-scalar one it replaced.
# --------------------------------------------------------------------------- #
def _np_adjacency(n_vertices, edges):
    adjacency = [[] for _ in range(n_vertices)]
    for (a, b), weight in edges.items():
        if a != b:
            adjacency[a].append((b, weight))
            adjacency[b].append((a, weight))
    return adjacency


def _np_region_growing(n_vertices, adjacency, n_parts, vertex_weights, rng):
    target = float(vertex_weights.sum()) / n_parts
    assignment = np.full(n_vertices, -1, dtype=np.int64)
    unassigned = set(range(n_vertices))
    for part in range(n_parts):
        if not unassigned:
            break
        remaining_weight = float(vertex_weights[list(unassigned)].sum())
        budget = min(remaining_weight / (n_parts - part), target)
        seed_vertex = int(rng.choice(sorted(unassigned)))
        part_weight = float(vertex_weights[seed_vertex])
        assignment[seed_vertex] = part
        unassigned.discard(seed_vertex)
        connection = {}
        frontier = deque([seed_vertex])
        while part_weight < budget and unassigned:
            while frontier:
                for neighbor, weight in adjacency[frontier.popleft()]:
                    if assignment[neighbor] == -1:
                        connection[neighbor] = connection.get(neighbor, 0) + weight
            if connection:
                best = max(connection.items(), key=lambda item: (item[1], -item[0]))[0]
                del connection[best]
            else:
                best = int(rng.choice(sorted(unassigned)))
            assignment[best] = part
            unassigned.discard(best)
            part_weight += float(vertex_weights[best])
            frontier.append(best)
    if unassigned:
        loads = np.zeros(n_parts, dtype=np.float64)
        for vertex in range(n_vertices):
            if assignment[vertex] >= 0:
                loads[assignment[vertex]] += vertex_weights[vertex]
        for vertex in sorted(unassigned):
            part = int(np.argmin(loads))
            assignment[vertex] = part
            loads[part] += vertex_weights[vertex]
    return assignment


def _np_refine(assignment, adjacency, n_parts, max_passes, vertex_weights, max_load):
    assignment = assignment.copy()
    loads = np.zeros(n_parts, dtype=np.float64)
    for vertex in range(assignment.size):
        loads[assignment[vertex]] += vertex_weights[vertex]
    for _ in range(max_passes):
        moved = 0
        for vertex in range(assignment.size):
            current = assignment[vertex]
            weight = float(vertex_weights[vertex])
            if loads[current] - weight <= 0:
                continue
            weight_to_part = {}
            for neighbor, edge_weight in adjacency[vertex]:
                part = assignment[neighbor]
                weight_to_part[part] = weight_to_part.get(part, 0) + edge_weight
            internal = weight_to_part.get(current, 0)
            best_part, best_gain = current, 0
            for part, connection in weight_to_part.items():
                if part == current or loads[part] + weight > max_load:
                    continue
                gain = connection - internal
                if gain > best_gain or (gain == best_gain and gain > 0 and part < best_part):
                    best_gain, best_part = gain, part
            if best_part != current and best_gain > 0:
                assignment[vertex] = best_part
                loads[current] -= weight
                loads[best_part] += weight
                moved += 1
        if moved == 0:
            break
    return assignment


def _np_balance(assignment, adjacency, n_parts, vertex_weights, max_load):
    assignment = assignment.copy()
    loads = np.zeros(n_parts, dtype=np.float64)
    for vertex in range(assignment.size):
        loads[assignment[vertex]] += vertex_weights[vertex]
    for part in range(n_parts):
        guard = 0
        while loads[part] > max_load and guard < assignment.size:
            guard += 1
            best_vertex, best_target, best_cost = -1, -1, None
            for vertex in np.flatnonzero(assignment == part):
                weight_to_part = {}
                for neighbor, edge_weight in adjacency[vertex]:
                    weight_to_part[assignment[neighbor]] = (
                        weight_to_part.get(assignment[neighbor], 0) + edge_weight
                    )
                internal = weight_to_part.get(part, 0)
                for target in range(n_parts):
                    if target == part or loads[target] + vertex_weights[vertex] > max_load:
                        continue
                    cost = internal - weight_to_part.get(target, 0)
                    if best_cost is None or cost < best_cost:
                        best_cost, best_vertex, best_target = cost, int(vertex), target
            if best_vertex < 0:
                break
            assignment[best_vertex] = best_target
            loads[part] -= vertex_weights[best_vertex]
            loads[best_target] += vertex_weights[best_vertex]
    return assignment


def _np_matching(n_vertices, adjacency, vertex_weights, max_vertex_weight, rng):
    matched = np.full(n_vertices, -1, dtype=np.int64)
    coarse_id = 0
    for vertex in rng.permutation(n_vertices):
        if matched[vertex] >= 0:
            continue
        best_neighbor, best_weight = -1, 0
        for neighbor, weight in adjacency[vertex]:
            if matched[neighbor] >= 0 or neighbor == vertex:
                continue
            if vertex_weights[vertex] + vertex_weights[neighbor] > max_vertex_weight:
                continue
            if weight > best_weight:
                best_weight, best_neighbor = weight, neighbor
        matched[vertex] = coarse_id
        if best_neighbor >= 0:
            matched[best_neighbor] = coarse_id
        coarse_id += 1
    return matched


def _np_coarsen(n_vertices, edges, vertex_weights, fine_to_coarse):
    n_coarse = int(fine_to_coarse.max()) + 1
    coarse_weights = np.zeros(n_coarse, dtype=np.float64)
    for vertex in range(n_vertices):
        coarse_weights[fine_to_coarse[vertex]] += vertex_weights[vertex]
    coarse_edges = {}
    for (a, b), weight in edges.items():
        ca, cb = int(fine_to_coarse[a]), int(fine_to_coarse[b])
        if ca != cb:
            key = (ca, cb) if ca < cb else (cb, ca)
            coarse_edges[key] = coarse_edges.get(key, 0) + weight
    return n_coarse, coarse_edges, coarse_weights


def _np_multilevel(n_vertices, edges, n_parts, vertex_weights, passes, max_load, rng):
    adjacency = _np_adjacency(n_vertices, edges)
    target = max(8 * n_parts, 64)
    if n_vertices > target:
        max_vertex_weight = max(2.0 * vertex_weights.sum() / target, vertex_weights.max())
        fine_to_coarse = _np_matching(n_vertices, adjacency, vertex_weights, max_vertex_weight, rng)
        n_coarse, coarse_edges, coarse_weights = _np_coarsen(
            n_vertices, edges, vertex_weights, fine_to_coarse
        )
        if n_parts <= n_coarse < n_vertices:
            coarse = _np_multilevel(
                n_coarse, coarse_edges, n_parts, coarse_weights, passes, max_load, rng
            )
            return _np_refine(
                coarse[fine_to_coarse], adjacency, n_parts, passes, vertex_weights, max_load
            )
    initial = _np_region_growing(n_vertices, adjacency, n_parts, vertex_weights, rng)
    return _np_refine(initial, adjacency, n_parts, passes, vertex_weights, max_load)


def _np_cut(assignment, edges):
    return sum(w for (a, b), w in edges.items() if assignment[a] != assignment[b])


def _np_partition(n_vertices, edges, n_parts, seed, attempts, vertex_weights, passes=8):
    weights = np.asarray(vertex_weights, dtype=np.float64)
    adjacency = _np_adjacency(n_vertices, edges)
    max_load = max(float(weights.sum()) / n_parts * 1.05, float(weights.max()))
    best, best_key = None, None
    for attempt in range(attempts):
        rng = make_rng(seed + attempt)
        if attempt % 2 == 0:
            refined = _np_multilevel(n_vertices, edges, n_parts, weights, passes, max_load, rng)
        else:
            initial = _np_region_growing(n_vertices, adjacency, n_parts, weights, rng)
            refined = _np_refine(initial, adjacency, n_parts, passes, weights, max_load)
        refined = _np_balance(refined, adjacency, n_parts, weights, max_load)
        loads = np.zeros(n_parts, dtype=np.float64)
        for vertex in range(n_vertices):
            loads[refined[vertex]] += weights[vertex]
        key = (float(loads.max()), _np_cut(refined, edges))
        if best_key is None or key < best_key:
            best, best_key = refined, key
    return best


def _np_interleaver(h, owner, n_nodes):
    links = [[] for _ in range(h.n_rows)]
    for variable in range(h.n_cols):
        checks = h.col(variable)
        for position in range(checks.size):
            successor = int(checks[(position + 1) % checks.size])
            links[int(checks[position])].append((variable, successor))
    slot_counter = np.zeros(n_nodes, dtype=np.int64)
    slot_of_edge = {}
    checks_by_node = [[] for _ in range(n_nodes)]
    for check in range(h.n_rows):
        checks_by_node[int(owner[check])].append(check)
    for node in range(n_nodes):
        for check in checks_by_node[node]:
            for variable in h.row(check):
                slot_of_edge[(check, int(variable))] = int(slot_counter[node])
                slot_counter[node] += 1
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    destinations, locations = [], []
    for node in range(n_nodes):
        for check in checks_by_node[node]:
            for variable, consumer in links[check]:
                destinations.append(int(owner[consumer]))
                locations.append(slot_of_edge[(consumer, variable)])
        offsets[node + 1] = len(destinations)
    return TrafficPattern(n_nodes, offsets, np.array(destinations), np.array(locations))


def _np_map(h, n_nodes, seed, attempts):
    """The replaced ``map_ldpc_code``: (check owner, traffic) of the best candidate."""
    edges = TannerGraph(h).check_adjacency_graph().weights
    checks = np.arange(h.n_rows, dtype=np.int64)
    owners = [
        _np_partition(h.n_rows, edges, n_nodes, seed, attempts, h.row_degrees()),
        checks % n_nodes,
        (checks * n_nodes) // h.n_rows,
    ]
    candidates = [(owner, _np_interleaver(h, owner, n_nodes)) for owner in owners]
    scores = [evaluate_traffic_quality(traffic).score for _, traffic in candidates]
    return candidates[int(np.argmin(scores))]


def test_mapping_flow_table1_grid():
    """The Table-I mapping flow: list-native partitioner vs the replaced one."""
    h = wimax_ldpc_code(2304, "1/2").h
    h.col(0)  # build the column index outside the timed arms
    grid = TABLE1_PARALLELISMS if full_benchmarks_enabled() else TABLE1_PARALLELISMS[::2]

    def baseline():
        return [_np_map(h, p, 0, MAPPING_ATTEMPTS) for p in grid]

    def current():
        return [map_ldpc_code(h, p, seed=0, attempts=MAPPING_ATTEMPTS) for p in grid]

    samples, results = trials({"baseline": baseline, "current": current}, MAPPING_TRIALS)
    for (owner, traffic), mapping in zip(results["baseline"], results["current"]):
        assert np.array_equal(owner, mapping.check_owner)
        for name in ("offsets", "dest", "memory"):
            assert np.array_equal(getattr(traffic, name), getattr(mapping.traffic, name))

    timing = row(samples, "baseline")
    vs = timing["vs"]["current"]
    print(
        f"\nTable-I mapping flow (WiMAX 2304 r1/2, P in {grid}, attempts "
        f"{MAPPING_ATTEMPTS}): {timing['arms']['current']['median']:.3f} s vs "
        f"{timing['arms']['baseline']['median']:.3f} s, {vs['ratio']:.2f}x "
        f"({vs['wins']}/{MAPPING_TRIALS} wins, median of {MAPPING_TRIALS})"
    )
    record(
        "noc_engine_throughput",
        "map_table1_grid",
        {"code": "wimax-2304-r1/2", "parallelisms": grid, "attempts": MAPPING_ATTEMPTS,
         "timing": timing},
    )
    assert vs["ratio"] > 1.0
