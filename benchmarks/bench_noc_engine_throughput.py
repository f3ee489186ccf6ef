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
the mapping flow (check adjacency graph, partition, equivalent interleaver,
selection), over the Table-I parallelisms of WiMAX LDPC 2304 r1/2 at
``attempts=2``: :func:`repro.mapping.map_ldpc_code` on edge arrays with the
block-vectorised refinement, against an inline copy of the list-native
partitioner it replaced (dict graphs, per-vertex ``(neighbour, weight)``
lists, one vertex at a time), with the same interleaver.  Both return the
same mapping (asserted); the row is gated on the current flow winning.

Headline numbers land in ``benchmarks/BENCH_noc_engine_throughput.json``.
"""

from __future__ import annotations

import heapq
import os

import numpy as np

from repro.analysis import TABLE1_PARALLELISMS
from repro.ldpc import wimax_ldpc_code
from repro.mapping import evaluate_traffic_quality, map_ldpc_code
from repro.mapping.ldpc_mapping import build_equivalent_interleaver
from repro.noc import (
    CollisionPolicy,
    NocConfiguration,
    NocSweepJob,
    ReferenceNocSimulator,
    RoutingAlgorithm,
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

    # max_workers=1: the row compares engines on one core, not the worker pool.
    samples, results = trials(
        {
            "object_simulator": lambda: _run_baseline(jobs),
            "engine": lambda: run_noc_sweep(jobs, max_workers=1),
        },
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
# The mapping flow: array partitioner vs the list-native one it replaced.
# --------------------------------------------------------------------------- #
def _list_check_graph(h):
    weights = {}
    for variable in range(h.n_cols):
        checks = h.col(variable).tolist()
        for i, a in enumerate(checks):
            for b in checks[i + 1:]:
                key = (a, b) if a < b else (b, a)
                weights[key] = weights.get(key, 0) + 1
    return weights


def _list_adjacency(n_vertices, edges):
    adjacency = [[] for _ in range(n_vertices)]
    for (a, b), weight in edges.items():
        if a != b:
            adjacency[a].append((b, weight))
            adjacency[b].append((a, weight))
    return adjacency


def _list_loads(assignment, n_parts, vertex_weights):
    loads = [0.0] * n_parts
    for part, weight in zip(assignment, vertex_weights):
        loads[part] += weight
    return loads


def _list_region_growing(n_vertices, adjacency, n_parts, vertex_weights, rng):
    target = float(np.sum(vertex_weights)) / n_parts
    assignment = [-1] * n_vertices
    unassigned = set(range(n_vertices))
    for part in range(n_parts):
        if not unassigned:
            break
        remaining_weight = float(np.sum([vertex_weights[v] for v in unassigned]))
        budget = min(remaining_weight / (n_parts - part), target)
        member = int(rng.choice(sorted(unassigned)))
        part_weight = vertex_weights[member]
        assignment[member] = part
        unassigned.discard(member)
        connection, heap = {}, []
        while part_weight < budget and unassigned:
            for neighbor, weight in adjacency[member]:
                if assignment[neighbor] == -1:
                    strength = connection.get(neighbor, 0) + weight
                    connection[neighbor] = strength
                    heapq.heappush(heap, (-strength, neighbor))
            if connection:
                strength, member = heapq.heappop(heap)
                while connection.get(member) != -strength:
                    strength, member = heapq.heappop(heap)
                del connection[member]
            else:
                member = int(rng.choice(sorted(unassigned)))
            assignment[member] = part
            unassigned.discard(member)
            part_weight += vertex_weights[member]
    if unassigned:
        loads = [0.0] * n_parts
        for vertex, part in enumerate(assignment):
            if part >= 0:
                loads[part] += vertex_weights[vertex]
        for vertex in sorted(unassigned):
            part = loads.index(min(loads))
            assignment[vertex] = part
            loads[part] += vertex_weights[vertex]
    return assignment


def _weight_to_part(adjacency, assignment, vertex):
    weight_to_part = {}
    for neighbor, edge_weight in adjacency[vertex]:
        part = assignment[neighbor]
        weight_to_part[part] = weight_to_part.get(part, 0) + edge_weight
    return weight_to_part


def _list_refine(assignment, adjacency, n_parts, max_passes, vertex_weights, max_load):
    assignment = assignment.copy()
    loads = _list_loads(assignment, n_parts, vertex_weights)
    for _ in range(max_passes):
        moved = 0
        for vertex in range(len(assignment)):
            current = assignment[vertex]
            weight = vertex_weights[vertex]
            if loads[current] - weight <= 0:
                continue
            weight_to_part = _weight_to_part(adjacency, assignment, vertex)
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


def _list_balance(assignment, adjacency, n_parts, vertex_weights, max_load):
    assignment = assignment.copy()
    n_vertices = len(assignment)
    loads = _list_loads(assignment, n_parts, vertex_weights)
    for part in range(n_parts):
        guard = 0
        while loads[part] > max_load and guard < n_vertices:
            guard += 1
            best_vertex, best_target, best_cost = -1, -1, None
            for vertex in range(n_vertices):
                if assignment[vertex] != part:
                    continue
                weight_to_part = _weight_to_part(adjacency, assignment, vertex)
                internal = weight_to_part.get(part, 0)
                for target in range(n_parts):
                    if target == part or loads[target] + vertex_weights[vertex] > max_load:
                        continue
                    cost = internal - weight_to_part.get(target, 0)
                    if best_cost is None or cost < best_cost:
                        best_cost, best_vertex, best_target = cost, vertex, target
            if best_vertex < 0:
                break
            assignment[best_vertex] = best_target
            loads[part] -= vertex_weights[best_vertex]
            loads[best_target] += vertex_weights[best_vertex]
    return assignment


def _list_matching(n_vertices, adjacency, vertex_weights, max_vertex_weight, rng):
    matched = [-1] * n_vertices
    coarse_id = 0
    for vertex in rng.permutation(n_vertices).tolist():
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


def _list_coarsen(edges, vertex_weights, fine_to_coarse):
    n_coarse = max(fine_to_coarse) + 1
    coarse_edges = {}
    for (a, b), weight in edges.items():
        ca, cb = fine_to_coarse[a], fine_to_coarse[b]
        if ca != cb:
            key = (ca, cb) if ca < cb else (cb, ca)
            coarse_edges[key] = coarse_edges.get(key, 0) + weight
    return n_coarse, coarse_edges, _list_loads(fine_to_coarse, n_coarse, vertex_weights)


def _list_multilevel(n_vertices, edges, adjacency, n_parts, vertex_weights, passes, max_load, rng):
    target = max(8 * n_parts, 64)
    if n_vertices > target:
        max_vertex_weight = max(2.0 * float(np.sum(vertex_weights)) / target, max(vertex_weights))
        fine_to_coarse = _list_matching(
            n_vertices, adjacency, vertex_weights, max_vertex_weight, rng
        )
        n_coarse, coarse_edges, coarse_weights = _list_coarsen(
            edges, vertex_weights, fine_to_coarse
        )
        if n_parts <= n_coarse < n_vertices:
            coarse = _list_multilevel(
                n_coarse, coarse_edges, _list_adjacency(n_coarse, coarse_edges), n_parts,
                coarse_weights, passes, max_load, rng,
            )
            return _list_refine(
                [coarse[c] for c in fine_to_coarse], adjacency, n_parts, passes,
                vertex_weights, max_load,
            )
    initial = _list_region_growing(n_vertices, adjacency, n_parts, vertex_weights, rng)
    return _list_refine(initial, adjacency, n_parts, passes, vertex_weights, max_load)


def _list_cut(assignment, edges):
    ends = np.array(list(edges), dtype=np.int64)
    weights = np.fromiter(edges.values(), dtype=np.int64, count=len(edges))
    return int(weights[assignment[ends[:, 0]] != assignment[ends[:, 1]]].sum())


def _list_partition(n_vertices, edges, n_parts, seed, attempts, vertex_weights, passes=8):
    weights_arr = np.asarray(vertex_weights, dtype=np.float64)
    adjacency = _list_adjacency(n_vertices, edges)
    max_load = max(float(weights_arr.sum()) / n_parts * 1.05, float(weights_arr.max()))
    weights = weights_arr.tolist()
    best, best_key = None, None
    for attempt in range(attempts):
        rng = make_rng(seed + attempt)
        if attempt % 2 == 0:
            refined = _list_multilevel(
                n_vertices, edges, adjacency, n_parts, weights, passes, max_load, rng
            )
        else:
            initial = _list_region_growing(n_vertices, adjacency, n_parts, weights, rng)
            refined = _list_refine(initial, adjacency, n_parts, passes, weights, max_load)
        refined = np.array(
            _list_balance(refined, adjacency, n_parts, weights, max_load), dtype=np.int64
        )
        key = (max(_list_loads(refined.tolist(), n_parts, weights)), _list_cut(refined, edges))
        if best_key is None or key < best_key:
            best, best_key = refined, key
    return best


def _list_map(h, n_nodes, seed, attempts):
    """The replaced ``map_ldpc_code``: (check owner, traffic) of the best candidate."""
    edges = _list_check_graph(h)
    checks = np.arange(h.n_rows, dtype=np.int64)
    owners = [
        _list_partition(h.n_rows, edges, n_nodes, seed, attempts, h.row_degrees()),
        checks % n_nodes,
        (checks * n_nodes) // h.n_rows,
    ]
    candidates = [(owner, build_equivalent_interleaver(h, owner, n_nodes)) for owner in owners]
    scores = [evaluate_traffic_quality(traffic).score for _, traffic in candidates]
    return candidates[int(np.argmin(scores))]


def test_mapping_flow_table1_grid():
    """The Table-I mapping flow: array partitioner vs the list-native one it replaced."""
    h = wimax_ldpc_code(2304, "1/2").h
    h.col(0)  # build the column index outside the timed arms
    # The default run maps at the first and third Table-I parallelism.
    grid = list(TABLE1_PARALLELISMS if full_benchmarks_enabled() else TABLE1_PARALLELISMS[::2])

    def baseline():
        return [_list_map(h, p, 0, MAPPING_ATTEMPTS) for p in grid]

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
