"""Struct-of-arrays NoC cycle engine and multi-point sweep driver.

The per-object reference simulator (:class:`repro.noc.simulator.ReferenceNocSimulator`)
walks Python ``RouterNode`` / ``MessageFifo`` / ``Message`` objects one cycle at
a time — faithful, but the last pure-Python per-message hot path of the
reproduction.  :class:`BatchNocSimulator` replaces those object graphs with a
struct-of-arrays state:

* **messages** live in flat arrays — the CSR ``offsets`` / ``dest`` /
  ``memory`` columns of the :class:`~repro.noc.traffic.TrafficPattern`
  itself, plus flat parallel injection/delivery-cycle and misroute columns
  during a run — one slot per message;
* **FIFOs** are append-only ring views — one flat id per (node, input port)
  pair, a backing list of message indices and a head cursor, so push/pop are
  O(1) integer moves with no per-message allocation;
* **routing** uses the dense next-hop matrices exposed by
  :class:`~repro.noc.routing.RoutingTables` and the dense port-target wiring of
  :class:`~repro.noc.topologies.Topology` instead of per-hop dict lookups.

The engine is pinned *cycle-exact* against the reference simulator: for any
(topology, configuration, traffic, seed) it reproduces the same ``ncycles``,
delivered counts, per-node maximum FIFO occupancies, hop totals and SCM
deflection decisions (it consumes the shared deflection RNG in the very same
order).  ``tests/test_noc_engine.py`` enforces this differentially on
randomized configurations.

The arbitration of the paper's routing policies is inherently sequential
within a cycle (ports contend in serving order, backpressure sees earlier
nodes' pops), so the inner loop advances flat integer state rather than
calling NumPy per port — on the 8–36-node networks of the paper that is
several times faster than both per-element ``ndarray`` indexing and the
object simulator.  The NumPy side of the layout pays off at the boundaries:
traffic arrives as flat arrays, and statistics (latencies, hops, misroutes)
are reduced, as single vectorized array operations.

Multi-point sweeps live one layer up: :func:`repro.noc.sweep.run_noc_sweep`
groups jobs by (graph, configuration) and dispatches each group to the
job-batched kernel (:mod:`repro.noc.engine_batch`) or to this scalar engine,
whichever its measured cost model projects faster for the group's size and
collision policy, sharing precomputed topologies and routing tables across
all points that use the same graph.  This engine remains the fastest path
for small groups (and the kernel's own fallback for bounded-capacity
configurations), so its per-run cost is as load-bearing as the kernel's.
"""

from __future__ import annotations

import operator
import random

import numpy as np

from repro.errors import SimulationError
from repro.noc.config import CollisionPolicy, NocConfiguration, RoutingAlgorithm
from repro.noc.message import MessageStatistics
from repro.noc.results import SimulationResult
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.topologies import Topology
from repro.noc.traffic import TrafficPattern


def as_seed(seed) -> int:
    """The deflection-stream seed as a plain ``int``.

    Any integral value (``int``, NumPy integers, ``bool``) is accepted via
    :func:`operator.index`, so every engine seeds ``random.Random`` with the
    same integer; anything else (floats included) raises
    :class:`~repro.errors.SimulationError`.
    """
    try:
        return operator.index(seed)
    except TypeError:
        raise SimulationError(
            f"seed must be an integer, got {seed!r} ({type(seed).__name__})"
        ) from None


class BatchNocSimulator:
    """Struct-of-arrays cycle engine for the message-passing phase.

    Drop-in computational replacement for the reference object simulator: same
    constructor signature, same :class:`~repro.noc.results.SimulationResult`,
    cycle-exact outputs.  This is the production single-run simulator; use
    :func:`repro.noc.sweep.run_noc_sweep` to amortize topology/routing-table
    construction over many sweep points.

    Parameters
    ----------
    topology:
        The NoC topology.
    config:
        Simulation parameters (routing algorithm, R, RL, DCM/SCM, FIFO size).
    routing_tables:
        Optional precomputed tables (recomputed from the topology if omitted).
    seed:
        Seed for the SCM deflection randomness.
    max_cycles:
        Hard safety bound on the simulated cycle count.
    """

    def __init__(
        self,
        topology: Topology,
        config: NocConfiguration,
        routing_tables: RoutingTables | None = None,
        seed: int = 0,
        max_cycles: int = 200_000,
    ):
        if max_cycles <= 0:
            raise SimulationError(f"max_cycles must be positive, got {max_cycles}")
        self.topology = topology
        self.config = config
        self.tables = (
            routing_tables if routing_tables is not None else build_routing_tables(topology)
        )
        if self.tables.topology is not topology:
            raise SimulationError("routing tables were built for a different topology")
        self.seed = as_seed(seed)
        self.max_cycles = max_cycles
        self._static = _StaticState(topology, config, self.tables)

    def run(self, traffic: TrafficPattern, seed: int | None = None) -> SimulationResult:
        """Simulate one message-passing phase and return its measurements.

        ``seed`` overrides the constructor seed for this run only, so a sweep
        driver can reuse one engine (and its precomputed static state) across
        many seeded points of the same (topology, configuration) pair.
        """
        if traffic.n_nodes != self.topology.n_nodes:
            raise SimulationError(
                f"traffic references {traffic.n_nodes} nodes but the topology has "
                f"{self.topology.n_nodes}"
            )
        run_seed = self.seed if seed is None else as_seed(seed)
        return _run_engine(self._static, traffic, run_seed, self.max_cycles)


# --------------------------------------------------------------------------- #
# Engine internals
# --------------------------------------------------------------------------- #
class _StaticState:
    """Per-(topology, config) state reusable across runs: dense wiring and
    routing lookups lowered to plain Python lists for the scalar hot loop."""

    def __init__(self, topology: Topology, config: NocConfiguration, tables: RoutingTables):
        n = topology.n_nodes
        self.n_nodes = n
        self.n_arcs = topology.n_arcs
        self.in_deg: list[int] = topology.in_degrees.tolist()
        self.out_deg: list[int] = topology.out_degrees.tolist()

        # Flat FIFO ids: per node its network input ports then its injection
        # port, so fid = fifo_base[n] + port and inject_fid[n] closes the node.
        self.fifo_base: list[int] = []
        fid = 0
        for node in range(n):
            self.fifo_base.append(fid)
            fid += self.in_deg[node] + 1
        self.n_fifos = fid
        self.inject_fid: list[int] = [
            self.fifo_base[node] + self.in_deg[node] for node in range(n)
        ]

        # (node, out port) -> flat fid of the downstream input FIFO.
        dest_node = topology.out_neighbor_matrix
        dest_port = topology.dest_input_port_matrix
        self.out_target_fid: list[list[int]] = [
            [
                self.fifo_base[int(dest_node[node, port])] + int(dest_port[node, port])
                for port in range(self.out_deg[node])
            ]
            for node in range(n)
        ]

        # Static iteration ranges: flat fids of each node's input FIFOs
        # (network ports then injection port) and output-port indices.
        self.fid_ranges: list[tuple[int, ...]] = [
            tuple(
                range(self.fifo_base[node], self.fifo_base[node] + self.in_deg[node] + 1)
            )
            for node in range(n)
        ]
        self.out_ranges: list[tuple[int, ...]] = [
            tuple(range(self.out_deg[node])) for node in range(n)
        ]
        # All-output-ports-free bitmask per node (for runs where backpressure
        # provably cannot bind).
        self.full_masks: list[int] = [(1 << self.out_deg[node]) - 1 for node in range(n)]

        # RR serving: every rotation of a node's input fids, prebuilt as the
        # (key, fid) pairs the serve loop consumes, indexed by the pointer.
        self.rr_orders: list[list[tuple[tuple[int, int], ...]]] = []
        if config.routing_algorithm is RoutingAlgorithm.SSP_RR:
            self.rr_orders = [
                [
                    tuple((0, f) for f in fids[s:] + fids[:s])
                    for s in range(len(fids))
                ]
                for fids in self.fid_ranges
            ]

        # Routing lookups: dense SSP matrix and per-pair ASP port tuples.
        self.single_port: list[list[int]] = tables.next_port_matrix.tolist()
        self.all_ports: tuple[tuple[tuple[int, ...], ...], ...] = tables.next_ports

        self.rr_mode = config.routing_algorithm is RoutingAlgorithm.SSP_RR
        self.asp_mode = config.routing_algorithm.uses_all_paths
        self.scm_mode = config.collision_policy is CollisionPolicy.SCM
        self.injection_rate = config.injection_rate
        self.route_local = config.route_local
        self.capacity = config.fifo_capacity
        self.config = config
        self.topology = topology


def _run_engine(
    st: _StaticState,
    traffic: TrafficPattern,
    seed: int,
    max_cycles: int,
) -> SimulationResult:
    """Advance the struct-of-arrays state cycle by cycle until all messages land."""
    n = st.n_nodes
    cap = st.capacity
    rate = st.injection_rate
    route_local = st.route_local
    rr_mode, asp_mode, scm_mode = st.rr_mode, st.asp_mode, st.scm_mode
    out_deg = st.out_deg
    inject_fid = st.inject_fid
    out_target_fid = st.out_target_fid
    single_port, all_ports = st.single_port, st.all_ports

    # Same deflection stream as the reference simulator: one shared
    # random.Random consumed in node/serving order through the bounded-draw
    # rejection procedure of repro.utils.rng.bounded_draw, inlined below.
    getrandbits = random.Random(seed).getrandbits

    # Backpressure binds only on a full network FIFO.  A network FIFO's
    # occupancy rises only in the arrival phase, by at most one per cycle (it
    # terminates one arc, and an output port sends at most once per pass), so
    # while ``peak`` — the largest network-FIFO occupancy seen so far — stays
    # below cap - 1 at a cycle's start, every downstream-room check of that
    # cycle would pass.  Such cycles skip the checks and start every output
    # port free; the checks keep no state across cycles, so a run may switch
    # to the checked path mid-run.  With cap > total messages no FIFO can
    # ever fill.
    #
    # The check itself needs no count of this cycle's sends: each network
    # FIFO terminates one arc, so exactly one output port feeds it, and a
    # node builds its free mask before any of its own sends in the pass.
    # When a node tests FIFO t, nothing has been sent into t this cycle
    # (sends stay invisible to ``occ`` until the next arrival phase anyway),
    # so the room test is ``occ[t] < cap`` — the reference simulator's
    # occupancy-plus-scheduled test with the scheduled count always 0.
    total = traffic.total_messages
    never_full = cap > total
    peak = 0

    # Working copies of the flat message attributes as Python lists: the
    # arbitration loop touches one scalar at a time and plain list indexing is
    # several times faster than ndarray item access; results are folded back
    # into NumPy arrays for the vectorized statistics reduction at the end.
    msg_dest: list[int] = traffic.dest.tolist()
    node_offset: list[int] = traffic.offsets.tolist()
    inj_cycle = [0] * total
    del_cycle = [-1] * total
    misrouted = [0] * total
    total_hops = 0
    # Which messages bypass the network entirely (RL = 0 local messages) —
    # a pure function of the traffic, computed vectorized up front.
    if route_local:
        bypass_l = [False] * total
    else:
        bypass_l = (traffic.dest == traffic.source).tolist()

    # FIFO state: append-only backing lists with head cursors; ``occ`` is the
    # incrementally maintained occupancy (len(buf) - head) of every FIFO.
    bufs: list[list[int]] = [[] for _ in range(st.n_fifos)]
    heads = [0] * st.n_fifos
    occ = [0] * st.n_fifos
    maxocc = [0] * st.n_fifos

    # Per-node arbitration / injection state.
    rr_ptr = [0] * n
    port_sent = [[0] * max(out_deg[node], 1) for node in range(n)]
    inj_ptr = node_offset[:-1]  # next message slot to inject, per node
    inj_end = node_offset[1:]
    credit = [0.0] * n
    node_range = range(n)
    # One tuple per node bundling the per-node views the crossbar pass needs,
    # so each visit costs a single index + unpack instead of six lookups.
    # (A node's first fid doubles as its port-0 fid, so the RR rotation pivot
    # is fids[0] + start and the port count is len(fids).)
    node_ctx = [
        (
            st.fid_ranges[node],
            out_target_fid[node],
            port_sent[node],
            single_port[node],
            all_ports[node],
            st.full_masks[node],
        )
        for node in node_range
    ]
    out_ranges = st.out_ranges
    rr_orders = st.rr_orders
    # Bit lengths for the deflection rejection draw, indexed by candidate count.
    bitlen = [0] + [k.bit_length() for k in range(1, max(out_deg, default=0) + 1)]

    delivered = 0
    local_bypassed = 0
    # Memo: free-port bitmask -> ascending tuple of set port indices (the SCM
    # deflection candidate list, reference's sorted(free_ports)).
    deflect_sets: dict[int, tuple[int, ...]] = {}
    # Messages sent this cycle are appended to the downstream backing list
    # immediately (cheaper than staging (fid, mid) pairs) but stay invisible —
    # beyond the occupancy cursor — until the next cycle's arrival phase
    # acknowledges them fid by fid, in send order.
    pending: list[int] = []

    cycle = 0
    while delivered < total:
        if cycle > max_cycles:
            raise SimulationError(
                f"simulation exceeded {max_cycles} cycles with "
                f"{total - delivered} messages still in flight"
            )

        unbounded = never_full or peak + 1 < cap

        # 1. Link arrivals scheduled on the previous cycle, in send order.
        for fid in pending:
            o = occ[fid] + 1
            occ[fid] = o
            if o > maxocc[fid]:
                maxocc[fid] = o
                if o > peak:
                    peak = o
        pending = []

        # 2. Crossbar pass on every node, in node order (backpressure sees
        # earlier nodes' pops and sends exactly as in the reference simulator).
        for node in node_range:
            fids, targets, sent, sp_row, ap_row, fmask = node_ctx[node]
            if rr_mode:
                # Rotating priority: the prebuilt rotation lists every port
                # starting at the pointer; empty FIFOs are skipped in the
                # serve loop itself (a FIFO cannot become occupied mid-pass).
                start = rr_ptr[node]
                order = rr_orders[node][start]
            else:
                # Longest FIFO first, ties by port index: sort (-occupancy,
                # fid); fids ascend with the port index within a node.  Most
                # passes contend between two FIFOs, where one compare beats a
                # sort call.
                order = [(-o, f) for f in fids if (o := occ[f])]
                k = len(order)
                if not k:
                    continue
                if k == 2:
                    if order[0] > order[1]:
                        order[0], order[1] = order[1], order[0]
                elif k > 2:
                    order.sort()

            # Free output ports as a bitmask: bit q set when the downstream
            # FIFO has room for one more message (see the proof above).
            if unbounded:
                free = fmask
            else:
                free = 0
                for q in out_ranges[node]:
                    if occ[targets[q]] < cap:
                        free |= 1 << q
            local_free = True
            rr_served = False

            for _, fid in order:
                if rr_mode:
                    if not occ[fid]:
                        continue
                    rr_served = True
                mid = bufs[fid][heads[fid]]
                dest = msg_dest[mid]
                if dest == node:
                    if local_free:
                        heads[fid] += 1
                        occ[fid] -= 1
                        del_cycle[mid] = cycle
                        delivered += 1
                        local_free = False
                    # A losing locally destined message simply waits.
                    continue
                out = -1
                if asp_mode:
                    # Traffic spreading: the free allowed port with the fewest
                    # sends so far; ties fall to the lowest port index.
                    best_count = -1
                    for q in ap_row[dest]:
                        if free >> q & 1:
                            c = sent[q]
                            if best_count < 0 or c < best_count:
                                best_count = c
                                out = q
                else:
                    q = sp_row[dest]
                    if free >> q & 1:
                        out = q
                deflected = False
                if out < 0:
                    if not scm_mode or not free:
                        continue  # DCM (or no free port at all): the message waits.
                    candidates = deflect_sets.get(free)
                    if candidates is None:
                        candidates = tuple(
                            q for q in out_ranges[node] if free >> q & 1
                        )
                        deflect_sets[free] = candidates
                    # Inlined bounded_draw over the shared getrandbits stream.
                    n_cand = len(candidates)
                    k = bitlen[n_cand]
                    r = getrandbits(k)
                    while r >= n_cand:
                        r = getrandbits(k)
                    out = candidates[r]
                    deflected = True
                heads[fid] += 1
                occ[fid] -= 1
                free &= ~(1 << out)
                sent[out] += 1
                t = targets[out]
                total_hops += 1
                if deflected:
                    misrouted[mid] = 1
                bufs[t].append(mid)
                pending.append(t)
            if rr_served:
                # The pointer only advances on cycles where the node had at
                # least one occupied input FIFO, as in the reference.
                rr_ptr[node] = (start + 1) % len(fids)

        # 3. PE injection at rate R; local messages bypass the network when
        # RL = 0 and consume neither credit nor FIFO space.
        for node in node_range:
            ptr = inj_ptr[node]
            end = inj_end[node]
            if ptr >= end:
                continue
            c = credit[node] + rate
            ifid = inject_fid[node]
            ibuf = bufs[ifid]
            pushed = 0
            while ptr < end:
                bypass = bypass_l[ptr]
                if not bypass and (c < 1.0 or occ[ifid] + pushed >= cap):
                    break
                inj_cycle[ptr] = cycle
                if bypass:
                    del_cycle[ptr] = cycle
                    delivered += 1
                    local_bypassed += 1
                else:
                    c -= 1.0
                    ibuf.append(ptr)
                    pushed += 1
                ptr += 1
            if pushed:
                # Occupancy only grows during injection, so the post-loop
                # occupancy is the phase's high-water mark.
                o = occ[ifid] + pushed
                occ[ifid] = o
                if o > maxocc[ifid]:
                    maxocc[ifid] = o
            inj_ptr[node] = ptr
            credit[node] = c
        cycle += 1

    return _collect_result(
        st, total, traffic.label, cycle, delivered, local_bypassed,
        maxocc, inj_cycle, del_cycle, total_hops, misrouted,
    )


def _collect_result(
    st: _StaticState,
    total: int,
    traffic_label: str,
    cycle: int,
    delivered: int,
    local_bypassed: int,
    maxocc: list[int],
    inj_cycle: list[int],
    del_cycle: list[int],
    total_hops: int,
    misrouted: list[int],
) -> SimulationResult:
    """Fold the flat per-message state into a SimulationResult (vectorized)."""
    n = st.n_nodes
    per_node_max = [
        max(maxocc[st.fifo_base[node] : st.fifo_base[node] + st.in_deg[node]], default=0)
        for node in range(n)
    ]
    max_injection = max(maxocc[st.inject_fid[node]] for node in range(n))

    stats = MessageStatistics()
    stats.total_hops = total_hops
    if total:
        latencies = np.asarray(del_cycle, dtype=np.int64) - np.asarray(
            inj_cycle, dtype=np.int64
        )
        stats.count = total
        stats.total_latency = int(latencies.sum())
        stats.max_latency = int(latencies.max(initial=0))
        stats.misrouted = int(np.count_nonzero(np.asarray(misrouted, dtype=np.int64)))
        stats.latencies.extend(latencies.tolist())

    link_utilization = 0.0
    if cycle > 0 and st.n_arcs > 0:
        # Every hop ever taken occupies one arc for one cycle, so the hop
        # total is exactly the reference's running link-usage counter.
        link_utilization = total_hops / (st.n_arcs * cycle)
    return SimulationResult(
        ncycles=cycle,
        total_messages=total,
        delivered_messages=delivered,
        local_bypassed=local_bypassed,
        max_fifo_occupancy=max(per_node_max) if per_node_max else 0,
        max_injection_occupancy=max_injection,
        per_node_max_fifo=per_node_max,
        statistics=stats,
        link_utilization=link_utilization,
        config_label=st.config.describe(),
        topology_label=st.topology.name,
        traffic_label=traffic_label,
    )
