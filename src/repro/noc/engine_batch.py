"""Job-batched NoC cycle kernel: J independent simulations per vectorized step.

PR 3's struct-of-arrays engine (:class:`repro.noc.engine.BatchNocSimulator`)
made one sweep point fast, but a sweep still pays the Python interpreter once
per (cycle, node, job).  :class:`BatchedNocKernel` adds the same *job axis*
that the batched LDPC / turbo decoders put on their frame loops: J independent
jobs sharing one (topology, configuration) stack their struct-of-arrays state
— message columns, FIFO head cursors / lengths / backing buffers, per-port
sent counters — into flat NumPy columns, and every cycle advances **all jobs
at once** through a handful of array operations instead of J scalar loops.
The ``J x P`` (job, node) rows always lie on the *last* axis: per-slot and
per-wave state is ``(fmax, J*P)``, so every reduction over a node's few
serving slots or ports runs over a short *leading* axis as whole-row NumPy
operations.

Per cycle the kernel performs, vectorized over all ``J x P`` (job, node)
pairs:

1. **serving order** — recomputed from scratch: occupancies
   (``lens - heads`` of the append-only FIFO buffers, so the previous
   cycle's sends have arrived with no separate arrival phase) and their
   high-water marks, one integer key per (serving slot, row) — FL
   ``fid - (occupancy << s)``, RR the fid plus a wrap tier before the
   pointer and an empty tier — sorted down the ``fmax`` slot rows by an
   odd-even transposition network of in-place ``np.minimum`` /
   ``np.maximum``; each key carries its FIFO id in its low bits, so
   ``key & mask`` is the serving order, followed by gathers of every
   candidate's head message and route, restricted to the serving positions
   actually occupied this cycle;
2. **crossbar waves** — serving position w of *every* node of *every* job is
   arbitrated simultaneously: local deliveries take the memory port, SSP/ASP
   output-port grants clear bits of a per-(job, node) free-port mask, and
   losers wait (DCM) or request a deflection (SCM); the wave masks evolve in
   preallocated scratch buffers (no per-wave temporaries);
3. **commit** — every pop, delivery stamp and downstream push the waves
   (and the SCM replay below) granted, in one batch;
4. **PE injection** — open loop: the k-th network message of every row that
   has one enters its injection FIFO at the same precomputed firing cycle.

Under the kernel's precondition (``fifo_capacity > max(total_messages)``) an
injection FIFO can never block, so a row's injections depend on its traffic
alone: every row still holding a network-bound message runs the scalar
engine's credit recurrence (``c += R``; fire and ``c -= 1`` once
``c >= 1``) with the same float operations from cycle 0, so the k-th network
message of every row is injected at the same cycle ``fire[k]``.  A bypass
message (RL = 0, local destination) needs no credit: the scalar engine's
injection loop injects and delivers it together with the network message
before it (at cycle 0 for a leading run), so its cycles are known up front
as well.  The kernel therefore computes all injection and bypass cycles
before the first cycle, and injection costs one push per firing cycle.

Index arrays are ``intp`` and values are ``int32``: every array that is used
as a fancy index (FIFO ids, rows, the slot-to-FIFO table, wiring, push
targets) is ``intp``, which NumPy indexes with no per-call conversion, while
message ids, occupancies and FIFO buffers stay ``int32`` to halve the memory
traffic of the per-cycle gathers.

SCM deflection draws are the one place the job axis meets a *sequential*
contract: each job's randomness is defined as its own ``random.Random(seed)``
stream consumed in (cycle, node, serving-position) order through the bounded
rejection draw of :func:`repro.utils.rng.bounded_draw`, and a draw changes how
the rest of that node's pass unfolds.  Nodes that need a draw are therefore
*suspended* at their first drawing serving position, masked out of the
remaining waves, and replayed after the wave loop by one scalar walk over the
suspended (job, node) passes in flat (job, node) order — each job's passes in
ascending node order, so every job draws from its own ``getrandbits`` exactly
where the scalar engines would.  A pass whose draw is its last serving
position runs only the draw in that walk, its port a batched lookup; a pass
with positions behind the draw runs the scalar serve loop.  The replay
writes its deliveries and sends into the wave masks, so the cycle's one
batched commit applies them with the waves' own grants.

Jobs that finish early are masked out (their FIFOs are empty, so their
serving orders vanish, and the per-job ``ncycles`` is latched the cycle they
drain).  Configurations the job axis cannot express without cross-node
sequencing — bounded FIFO capacities, where backpressure makes node n's pass
observe node n-1's pops within the same cycle — and topologies with nodes of
more than 32 output ports (the width of the int32 free-port masks) fall back
to the scalar engine per job, so :meth:`BatchedNocKernel.run` is total over
the configuration space.

The kernel is pinned *cycle-exact, per job*, against
:class:`~repro.noc.engine.BatchNocSimulator` (which is itself pinned against
:class:`~repro.noc.simulator.ReferenceNocSimulator`) by
``tests/test_noc_batch_kernel.py``: same ncycles, delivered counts, per-node
FIFO high-water marks, hop/latency totals and deflection decisions for every
(topology, configuration, traffic, seed).
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.noc.config import CollisionPolicy, NocConfiguration, RoutingAlgorithm
from repro.noc.engine import BatchNocSimulator, as_seed
from repro.noc.message import MessageStatistics
from repro.noc.results import SimulationResult
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.topologies import Topology
from repro.noc.traffic import TrafficPattern

__all__ = ["BatchedNocKernel"]


class _BatchedStatic:
    """Dense per-(topology, config) arrays shared by every batched run."""

    def __init__(self, topology: Topology, config: NocConfiguration, tables: RoutingTables):
        n = topology.n_nodes
        self.n_nodes = n
        self.n_arcs = topology.n_arcs
        in_deg = topology.in_degrees.astype(np.intp)
        out_deg = topology.out_degrees.astype(np.intp)

        # Flat FIFO ids exactly as the scalar engine lays them out: per node
        # its network input ports then its injection port.
        fifo_base = np.zeros(n, dtype=np.intp)
        np.cumsum(in_deg[:-1] + 1, out=fifo_base[1:])
        self.fifo_base = fifo_base
        self.n_fifos = int((in_deg + 1).sum())
        self.inject_fid = fifo_base + in_deg
        self.fcount = in_deg + 1  # serving slots per node
        self.fmax = int(self.fcount.max())
        # Network input FIFOs (not injection FIFOs, not the dummy slot below):
        # every push into one is a hop.
        self.net_fifo = np.ones(self.n_fifos + 1, dtype=bool)
        self.net_fifo[self.inject_fid] = False
        self.net_fifo[self.n_fifos] = False

        # (slot, node) -> fid, padded with the dummy fifo id ``n_fifos`` (one
        # extra all-zero slot per job absorbs gathers at padding).
        fid_t = np.full((self.fmax, n), self.n_fifos, dtype=np.intp)
        for node in range(n):
            fc = int(self.fcount[node])
            fid_t[:fc, node] = np.arange(fifo_base[node], fifo_base[node] + fc)
        self.fid_t = fid_t
        # fid -> owning node (the dummy slot maps to node 0; its head
        # attributes are never read because the dummy fifo stays empty).
        self.fifo_node = np.zeros(self.n_fifos + 1, dtype=np.intp)
        self.fifo_node[: self.n_fifos] = np.repeat(np.arange(n), self.fcount)

        # (node, out port) -> downstream input-fifo id, dummy padded.
        self.max_out = max(int(out_deg.max()), 1)
        dest_node = topology.out_neighbor_matrix
        dest_port = topology.dest_input_port_matrix
        tgt = np.full((n, self.max_out), self.n_fifos, dtype=np.intp)
        for node in range(n):
            for port in range(int(out_deg[node])):
                tgt[node, port] = fifo_base[int(dest_node[node, port])] + int(
                    dest_port[node, port]
                )
        self.tgt = tgt

        # Dense routing lookups.  The SSP matrix diagonal (-1: no route to
        # self) becomes port ``max_out``, the local marker: its free-mask bit
        # is never set, so the head's port both flags a local candidate and
        # can never be granted.
        sp = tables.next_port_matrix.reshape(-1)
        self.sp_flat = np.where(sp < 0, self.max_out, sp).astype(np.int32)
        # ASP ports, port-major (K, n*n): row k holds every pair's k-th
        # shortest-path port, padding lowered to port ``max_out`` (never
        # free).  Traffic spreading breaks ties by list position, which is
        # the port order because the tables list ports ascending.
        if any(list(ports) != sorted(ports) for row in tables.next_ports for ports in row):
            raise SimulationError("routing tables must list next-hop ports in ascending order")
        ap_pad = tables.all_ports_matrix  # (n, n, K), -1 padded
        self.ap_k = ap_pad.shape[2]
        self.ap_t = np.ascontiguousarray(
            np.where(ap_pad < 0, self.max_out, ap_pad).reshape(n * n, -1).T
        ).astype(np.intp)

        self.full_mask = ((1 << out_deg) - 1).astype(np.int32)
        self.rr_mode = config.routing_algorithm is RoutingAlgorithm.SSP_RR
        self.asp_mode = config.routing_algorithm.uses_all_paths
        self.scm_mode = config.collision_policy is CollisionPolicy.SCM
        # Scalar-replay lowerings (plain nested lists) for the suspended SCM
        # passes, plus the memoized free-port bitmask -> ascending candidate
        # tuple map and the bit width per candidate count of the scalar
        # engines' bounded draw.
        self.out_deg = out_deg.tolist()
        self.sp_list: list[list[int]] = tables.next_port_matrix.tolist()
        self.ap_rows = tables.next_ports
        self.deflect_sets: dict[int, tuple[int, ...]] = {}
        self.bitlen = [0] + [k.bit_length() for k in range(1, self.max_out + 1)]
        # Batched lookups for the single-position replay rows, over the 8-bit
        # slices of a free-port mask: the free ports in a byte, and the bit
        # of its r-th free port (ascending).
        byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        self.byte_count = byte_bits.sum(axis=1).astype(np.intp)
        self.byte_select = np.zeros((256, 8), dtype=np.intp)
        mask, bit = np.nonzero(byte_bits)
        self.byte_select[mask, byte_bits.cumsum(axis=1)[mask, bit] - 1] = bit
        self.config = config
        self.topology = topology
        self.tables = tables


class BatchedNocKernel:
    """Cycle engine advancing J jobs of one (topology, configuration) in lockstep.

    Construction is **seed-independent**: per-job seeds (the SCM deflection
    randomness) are passed to :meth:`run` only, so a sweep scheduler can reuse
    one kernel — and its precomputed dense wiring/routing state — across any
    jobs that share the graph and configuration.

    Parameters
    ----------
    topology:
        The NoC topology shared by every job of the batch.
    config:
        Simulation parameters shared by every job of the batch.
    routing_tables:
        Optional precomputed tables (recomputed from the topology if omitted).
    max_cycles:
        Hard safety bound on the simulated cycle count, applied per job.
    """

    def __init__(
        self,
        topology: Topology,
        config: NocConfiguration,
        routing_tables: RoutingTables | None = None,
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
        self.max_cycles = max_cycles
        # Both halves are built lazily: a kernel that only ever serves
        # scalar-fallback groups never pays for the dense batch state, and one
        # that only batches never builds the scalar engine's static state.
        self._static: _BatchedStatic | None = None
        self._scalar: BatchNocSimulator | None = None

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        traffics: Sequence[TrafficPattern],
        seeds: Sequence[int] | None = None,
    ) -> list[SimulationResult]:
        """Simulate one message-passing phase per job and return all measurements.

        ``traffics[j]`` and ``seeds[j]`` define job ``j``; results are returned
        in job order and are cycle-exact with ``BatchNocSimulator.run`` of each
        job in isolation.
        """
        traffics = list(traffics)
        if seeds is None:
            seeds = [0] * len(traffics)
        seeds = [as_seed(seed) for seed in seeds]
        if len(seeds) != len(traffics):
            raise SimulationError(
                f"got {len(traffics)} traffic patterns but {len(seeds)} seeds"
            )
        if not traffics:
            return []
        for traffic in traffics:
            if traffic.n_nodes != self.topology.n_nodes:
                raise SimulationError(
                    f"traffic references {traffic.n_nodes} nodes but the topology has "
                    f"{self.topology.n_nodes}"
                )
        max_total = max(traffic.total_messages for traffic in traffics)
        # The job axis cannot express bounded-capacity backpressure (node n's
        # free-port view depends on node n-1's pops within the same cycle) or
        # a node with more output ports than its int32 free-port mask has
        # bits, and a batch of one gains nothing from stacking: all run scalar.
        if (
            len(traffics) == 1
            or self.config.fifo_capacity <= max_total
            or int(self.topology.out_degrees.max()) > 32
        ):
            if self._scalar is None:
                # Seed-independent: per-job seeds are passed to run() only.
                self._scalar = BatchNocSimulator(
                    self.topology, self.config, routing_tables=self.tables,
                    seed=0, max_cycles=self.max_cycles,
                )
            return [
                self._scalar.run(traffic, seed=seed)
                for traffic, seed in zip(traffics, seeds)
            ]
        if self._static is None:
            self._static = _BatchedStatic(self.topology, self.config, self.tables)
        return _run_batched(self._static, traffics, seeds, self.max_cycles)


# --------------------------------------------------------------------------- #
# Batched engine internals
# --------------------------------------------------------------------------- #
def _open_loop_schedule(
    st: _BatchedStatic, traffics: list[TrafficPattern], M: int, NFp: int, max_cycles: int
):
    """Every injection of the batch, computed before the first cycle.

    Returns ``(fire, n_fire, start, target, slots, inj_cycle, del_cycle,
    bypassed)``.  Firing index k happens at cycle ``fire[k]`` and pushes, for
    each of the first ``n_fire[k]`` rows (rows ordered by descending count of
    network messages), message ``slots[start[i] + k]`` (a flat ``j * M + m``
    id) into injection FIFO ``target[i]``.  ``inj_cycle`` holds every
    message's injection cycle and ``del_cycle`` every bypass message's
    delivery cycle (-1 for network messages, 0 at padding).  The build runs
    per job, so no ``(J, M)`` temporaries are made.
    """
    n = st.n_nodes
    J = len(traffics)
    rate = st.config.injection_rate
    kbound = max(int(t.messages_per_node().max(initial=0)) for t in traffics)
    # The scalar engine's per-row credit recurrence, with its float
    # operations; firings past max_cycles never happen (the run raises first).
    fire: list[int] = []
    credit = 0.0
    cycle = 0
    while len(fire) < kbound and cycle <= max_cycles:
        credit += rate
        if credit >= 1.0:
            credit -= 1.0
            fire.append(cycle)
        cycle += 1
    fire += [max_cycles + 1] * (kbound - len(fire))
    # Indexed by the number of network messages of the row up to and
    # including a message: a bypass message shares the cycle of the network
    # message before it (cycle 0 ahead of the first one).
    fire_at = np.array([0, *fire], dtype=np.int32)

    inj_cycle = np.zeros(J * M, dtype=np.int32)
    del_cycle = np.zeros(J * M, dtype=np.int32)
    counts = np.zeros(J * n, dtype=np.intp)
    bypassed = np.zeros(J, dtype=np.int64)
    slot_parts: list[np.ndarray] = []
    for j, traffic in enumerate(traffics):
        total = traffic.total_messages
        if not total:
            continue
        source = traffic.source
        if st.config.route_local:
            is_net = np.ones(total, dtype=bool)
        else:
            is_net = traffic.dest != source
        seen = np.zeros(total + 1, dtype=np.intp)
        np.cumsum(is_net, out=seen[1:])
        row_seen = seen[traffic.offsets]  # network messages before each row
        cycles = fire_at[seen[1:] - row_seen[source]]
        inj_cycle[j * M : j * M + total] = cycles
        del_cycle[j * M : j * M + total] = np.where(is_net, -1, cycles)
        counts[j * n : (j + 1) * n] = np.diff(row_seen)
        net = np.flatnonzero(is_net)
        slot_parts.append((net + j * M).astype(np.int32))
        bypassed[j] = total - net.size

    kmax = int(counts.max(initial=0))
    order = np.argsort(-counts, kind="stable")
    n_fire = counts.size - np.cumsum(np.bincount(counts, minlength=kmax + 1))[:kmax]
    order = order[: int(n_fire[0]) if kmax else 0]
    ptr = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=ptr[1:])
    target = (order // n) * NFp + st.inject_fid[order % n]
    slots = np.concatenate(slot_parts) if slot_parts else np.zeros(0, dtype=np.int32)
    return (
        fire[:kmax], n_fire.tolist(), ptr[order], target, slots,
        inj_cycle, del_cycle, bypassed,
    )


def _run_batched(
    st: _BatchedStatic,
    traffics: list[TrafficPattern],
    seeds: list[int],
    max_cycles: int,
) -> list[SimulationResult]:
    """Advance the stacked state cycle by cycle until every job drains."""
    n = st.n_nodes
    J = len(traffics)
    Jn = J * n
    NFp = st.n_fifos + 1  # one dummy fifo slot per job absorbs padded gathers
    totals = np.array([traffic.total_messages for traffic in traffics], dtype=np.int64)
    M = max(int(totals.max()), 1)
    fmax = st.fmax
    max_out = st.max_out
    rr_mode, asp_mode, scm_mode = st.rr_mode, st.asp_mode, st.scm_mode
    int32_max = np.iinfo(np.int32).max
    # Serve keys (int64) carry the flat fifo id in their low ``fid_bits``:
    # FL keys are ``fid - (occ << fid_bits)`` (longest first, ties by port,
    # as fids ascend with the port within a node); RR keys are
    # ``fid + (tier << fid_bits)`` with tier 1 for slots before the pointer
    # and 2 (or 3) for empty slots.  ``key & fid_mask`` is the fifo id (two's
    # complement for negative FL keys).
    fid_bits = (J * NFp).bit_length()
    fid_mask = (1 << fid_bits) - 1

    dest_flat = np.zeros(J * M, dtype=np.int32)
    for j, traffic in enumerate(traffics):
        dest_flat[j * M : j * M + traffic.total_messages] = traffic.dest
    mis_flat = np.zeros(J * M, dtype=np.int8)
    (
        fire, n_fire, inj_start, inj_target, inj_slots,
        inj_cycle_flat, del_cycle_flat, bypassed_j,
    ) = _open_loop_schedule(st, traffics, M, NFp, max_cycles)

    # ---- FIFO state: (J * NFp,) columns + growable backing buffers ----- #
    # Buffers are append-only and hold flat message ids ``j * M + m``:
    # ``lens`` counts every push and ``heads`` every pop, so a fifo's
    # occupancy at the start of a cycle — after the previous cycle's sends
    # have arrived and its injections have landed — is ``lens - heads``.
    heads = np.zeros(J * NFp, dtype=np.int32)
    lens = np.zeros(J * NFp, dtype=np.int32)
    # Per-fifo backing capacity: most fifos see far fewer than M messages, so
    # the buffer starts small (cache-friendly) and doubles on demand; the
    # worst case (hotspot fifos, SCM deflection loops) still fits after a few
    # geometric grows.  One slack row past the last fifo keeps the head read
    # ``buf[fid * L + heads[fid]]`` in bounds for a full, drained fifo.
    L = min(M + 4, 128)
    buf = np.zeros((J * NFp + 1) * L, dtype=np.int32)

    # Head-of-FIFO attribute caches: the serving pre-pass reads each
    # candidate's message id and route straight from these flat columns
    # instead of chasing buffer -> heads -> dest -> routing-table
    # indirections per slot.  Only fifos touched during a cycle (pops,
    # pushes) are refreshed, and the refresh is idempotent; a drained fifo
    # keeps a stale head that is never served.  The route is the SSP output
    # port (``max_out`` marks a local head) or, under ASP, the (node, dest)
    # pair.
    head_mid = np.zeros(J * NFp, dtype=np.int32)
    head_route = np.zeros(J * NFp, dtype=np.intp if asp_mode else np.int32)
    fifo_spbase = np.tile(st.fifo_node, J) * n

    # ---- per-(job, node) row state: rows on the last axis -------------- #
    job_row = np.repeat(np.arange(J, dtype=np.intp), n)  # (Jn,)
    node_row = np.tile(np.arange(n, dtype=np.intp), J)  # (Jn,)
    # (slot, row) -> flat fifo id, dummy padded (padding slots read the
    # always-empty dummy fifo).
    fid_t = job_row * NFp + st.fid_t[:, node_row]  # (fmax, Jn)
    # High-water occupancy per (slot, row).  Occupancy only rises between
    # two serve passes (arrivals, injections) and only falls inside one, so
    # its maximum over the run is the maximum over serve-time snapshots.
    maxocc_t = np.zeros((fmax, Jn), dtype=np.int32)
    # (row, out port) -> flat downstream fifo id, and each flat (wave, row)
    # position's offset into it.
    tgt_row = (job_row[:, None] * NFp + st.tgt[node_row]).ravel()
    row_out = np.tile(np.arange(Jn, dtype=np.intp) * max_out, fmax)
    full_row = st.full_mask[node_row]
    fcount_row = st.fcount[node_row].astype(np.int32)
    rank_col = np.arange(fmax, dtype=np.int32)[:, None]

    free = np.empty(Jn, dtype=np.int32)
    local_free = np.empty(Jn, dtype=bool)
    live = np.ones(Jn, dtype=bool)
    rr_ptr = np.zeros(Jn, dtype=np.int32) if rr_mode else None
    if asp_mode:
        # Per-(row, port) traffic-spreading codes ``sends * so + port`` (so
        # = max_out + 1): the smallest code is the fewest sends, ties to the
        # lowest port.  ``avail`` is this pass's copy with granted ports
        # knocked out to ``taken``, the largest int32 that is the padding
        # port ``max_out`` modulo ``so``; the padding column always holds
        # it, so a row with no usable port decodes to the padding port.
        so = max_out + 1
        taken = int32_max - (int32_max - max_out) % so
        code = np.tile(np.arange(so, dtype=np.int32), Jn)
        code[max_out::so] = taken
        avail = np.empty_like(code)
        ap_rows = list(st.ap_t)  # the k-th shortest-path port of every pair
        row_so = np.tile(np.arange(Jn, dtype=np.intp) * so, fmax)
        self_route = node_row * (n + 1)  # the (node, node) pair: a local head
    else:
        code = None
        self_route = max_out

    # Bypass messages are delivered no later than the network message after
    # them (or at cycle 0 when a node has no network message), so crediting
    # them up front never moves a job's finishing cycle.
    delivered_j = bypassed_j.copy()
    ncycles_j = np.zeros(J, dtype=np.int64)
    active = totals > 0
    # One scalar-engine deflection stream per job (only SCM ever draws).
    draws = [random.Random(seed).getrandbits for seed in seeds] if scm_mode else None

    # Reusable per-cycle buffers: serve keys, and the wave masks (rows [w]
    # are written in wave order; the commit only reads rows zeroed at cycle
    # start).  The per-wave mask algebra runs entirely in (Jn,) scratch
    # vectors.
    key = np.empty((fmax, Jn), dtype=np.int64)
    key_tmp = np.empty((fmax // 2, Jn), dtype=np.int64)
    # Odd-even transposition network over the slot rows: fmax rounds of
    # compare-exchanges between rows (0,1),(2,3),... then (1,2),(3,4),...,
    # as (low rows, high rows, scratch) views into ``key``.
    network = [
        (key[p : fmax - 1 : 2], key[p + 1 : fmax : 2], key_tmp[: (fmax - p) // 2])
        for p in (rnd % 2 for rnd in range(fmax))
        if fmax - p >= 2
    ]
    key_b = np.empty((fmax, Jn), dtype=bool)
    tier = np.empty((fmax, Jn), dtype=np.uint8) if rr_mode else None
    deliver_t = np.empty((fmax, Jn), dtype=bool)
    send_t = np.empty((fmax, Jn), dtype=bool)
    # zeroed, not empty: the wave loop shifts by every lane of qsel_t[w]
    # (losers are masked after the shift), so lanes never written this cycle
    # must still hold valid shift counts
    qsel_t = np.zeros((fmax, Jn), dtype=np.int32) if asp_mode else None
    v_s = np.empty(Jn, dtype=bool)
    t1_s = np.empty(Jn, dtype=bool)
    nonloc_s = np.empty(Jn, dtype=bool)
    need_s = np.empty(Jn, dtype=bool) if scm_mode else None
    susp_w = np.empty(Jn, dtype=np.intp) if scm_mode else None  # suspension wave
    tmp_i = np.empty(Jn, dtype=np.int32)
    tmp_b = np.empty(Jn, dtype=np.int32)
    one32 = np.int32(1)
    # Only SCM reads the free-port mask under ASP (to request a deflection).
    track_free = scm_mode or not asp_mode

    kf = 0  # next firing index
    next_fire = fire[0] if fire else -1
    cycle = 0

    while active.any():
        if cycle > max_cycles:
            stuck = np.flatnonzero(active)
            undelivered = del_cycle_flat.reshape(J, M)[stuck]
            in_flight = int(np.count_nonzero((undelivered < 0) | (undelivered >= cycle)))
            raise SimulationError(
                f"simulation exceeded {max_cycles} cycles with jobs "
                f"{stuck.tolist()} still in flight ({in_flight} messages)"
            )
        upd_parts: list[np.ndarray] = []  # fifos whose head cache needs refresh

        # 1. Serving order, slot-major: occupancy per (slot, row), one key
        # per slot, each row's keys sorted down the slot axis by the
        # odd-even transposition network, fifo ids read back from the keys.
        of = lens[fid_t]
        of -= heads[fid_t]
        np.maximum(maxocc_t, of, out=maxocc_t)
        np.not_equal(of, 0, out=key_b)
        n_occ = key_b.sum(axis=0, dtype=np.int32)
        if rr_mode:
            # Occupied slots from the pointer on, then those before it (the
            # rotation), then the empty ones: tier = wrap + 2 * empty, built
            # in bytes.
            np.logical_not(key_b, out=key_b)
            np.left_shift(key_b.view(np.uint8), 1, out=tier)
            np.less(rank_col, rr_ptr, out=key_b)
            tier += key_b.view(np.uint8)
            np.left_shift(tier, fid_bits, out=key, dtype=np.int64)
            key += fid_t
        else:
            np.left_shift(of, fid_bits, out=key, dtype=np.int64)
            np.subtract(fid_t, key, out=key)
        for lo, hi, tmp in network:
            np.minimum(lo, hi, out=tmp)
            np.maximum(lo, hi, out=hi)
            lo[...] = tmp
        np.bitwise_and(key, fid_mask, out=key)  # fifo per (serving position, row)

        # 2. Crossbar pass: one vectorized arbitration step per serving
        # position ("wave").  The wave loop only evolves masks (free ports,
        # local port, deliver/send flags); all FIFO pops, delivery stamps and
        # downstream pushes commit in one batch afterwards.
        wmax = int(n_occ.max())
        if wmax:
            # Only the serving positions occupied somewhere are gathered;
            # every per-wave row is a contiguous (Jn,) vector.
            idx_w = key[:wmax]
            mid_t = head_mid[idx_w]
            route_t = head_route[idx_w]

            np.copyto(free, full_row)
            local_free.fill(True)
            if asp_mode:
                np.copyto(avail, code)
            dt = deliver_t[:wmax]
            stw = send_t[:wmax]
            dt.fill(False)
            stw.fill(False)
            # Every send's output port: the SSP route or the ASP choice.
            port_t = qsel_t[:wmax] if asp_mode else route_t
            susp_any = False

            for w in range(wmax):
                np.greater(n_occ, w, out=v_s)
                if susp_any:
                    v_s &= live
                if not v_s.any():
                    break
                route = route_t[w]
                deliver_s = dt[w]
                send_s = stw[w]
                np.equal(route, self_route, out=t1_s)
                t1_s &= v_s
                np.logical_and(t1_s, local_free, out=deliver_s)
                np.logical_xor(v_s, t1_s, out=nonloc_s)
                if asp_mode:
                    # Traffic spreading evaluates only the wave's non-local
                    # candidates (beyond wave 0 a shrinking subset), port
                    # rank by port rank: the smallest code over a pair's
                    # ports is the free port with the fewest sends.  Within
                    # a pass a granted port is never free again, so knocking
                    # it out of ``avail`` is all a grant changes for later
                    # waves; the send counts commit after the waves.
                    nlr = np.flatnonzero(nonloc_s)
                    nlr_so = nlr * so
                    pair = route[nlr]
                    best = avail[nlr_so + ap_rows[0][pair]]
                    for ports in ap_rows[1:]:
                        np.minimum(best, avail[nlr_so + ports[pair]], out=best)
                    q_n = best % so
                    avail[nlr_so + q_n] = taken
                    q = qsel_t[w]
                    q[nlr] = q_n
                    send_s[nlr] = best != taken
                    if track_free:
                        np.left_shift(one32, q, out=tmp_i)
                else:
                    # A local head's port ``max_out`` is never free, so only
                    # non-local candidates can pass the port test.
                    np.left_shift(one32, route, out=tmp_b)
                    np.bitwise_and(free, tmp_b, out=tmp_i)
                    np.not_equal(tmp_i, 0, out=t1_s)
                    np.logical_and(v_s, t1_s, out=send_s)
                if scm_mode:
                    # need = non-local, no grantable port, some port still free
                    np.logical_xor(nonloc_s, send_s, out=need_s)
                    np.not_equal(free, 0, out=t1_s)
                    need_s &= t1_s
                    if need_s.any():
                        # A drawing candidate is non-local with no grantable
                        # port, so it is disjoint from this wave's deliver and
                        # send sets; masking ``live`` only affects later waves.
                        np.logical_xor(live, need_s, out=live)
                        np.copyto(susp_w, w, where=need_s)
                        susp_any = True
                if track_free:
                    # ``tmp_i`` holds each lane's port bit, free for senders.
                    np.bitwise_xor(free, tmp_i, out=free, where=send_s)
                np.logical_xor(local_free, deliver_s, out=local_free)

            # 2b. Scalar replay of the draw-needing nodes, in exact per-job
            # (node, serving-position) stream order, into the wave masks.
            if susp_any:
                rows = np.flatnonzero(np.logical_not(live, out=v_s))
                _resume_suspended(
                    st, rows, susp_w[rows], n_occ, mid_t, dest_flat, free,
                    local_free, dt.reshape(-1), stw.reshape(-1), port_t.reshape(-1),
                    mis_flat, code, draws,
                )
                live.fill(True)

            # 2c. Batched commits of everything the waves and the replay
            # granted: one flat nonzero sweep per mask, read through flat views.
            idx_flat = idx_w.ravel()
            mid_flat = mid_t.ravel()
            fd = np.flatnonzero(dt)
            if fd.size:
                pidx = idx_flat[fd]
                heads[pidx] += 1
                upd_parts.append(pidx)
                md = mid_flat[fd]
                del_cycle_flat[md] = cycle
                delivered_j += np.bincount(md // M, minlength=J)
            fs = np.flatnonzero(stw)
            if fs.size:
                pidx = idx_flat[fs]
                heads[pidx] += 1
                upd_parts.append(pidx)
                qs = port_t.ravel()[fs]
                if asp_mode:
                    code[row_so[fs] + qs] += so
                sidx = tgt_row[row_out[fs] + qs]
                pos = lens[sidx]
                if int(pos.max()) >= L:
                    buf, L = _grow(buf, L)
                buf[sidx * L + pos] = mid_flat[fs]
                lens[sidx] = pos + one32
                upd_parts.append(sidx)

            if rr_mode:
                np.greater(n_occ, 0, out=v_s)
                rr_ptr += v_s
                np.remainder(rr_ptr, fcount_row, out=rr_ptr)

        # 3. PE injection, open loop: this cycle's firing index pushes the
        # next network message of every row that still has one.  A row's
        # injection FIFO holds only its injections, so the k-th push lands
        # at buffer position k.
        if cycle == next_fire:
            sidx = inj_target[: n_fire[kf]]
            if kf >= L:
                buf, L = _grow(buf, L)
            buf[sidx * L + kf] = inj_slots[inj_start[: sidx.size] + kf]
            lens[sidx] = kf + 1
            upd_parts.append(sidx)
            kf += 1
            next_fire = fire[kf] if kf < len(fire) else -1

        # 4. Cycle bookkeeping: refresh the head caches of the touched fifos,
        # and latch finished jobs.
        if upd_parts:
            ch = np.concatenate(upd_parts)
            hm = buf[ch * L + heads[ch]]
            head_mid[ch] = hm
            route = fifo_spbase[ch] + dest_flat[hm]
            head_route[ch] = route if asp_mode else st.sp_flat[route]
        cycle += 1
        finished = active & (delivered_j >= totals)
        if finished.any():
            ncycles_j[finished] = cycle
            active &= ~finished

    maxocc = np.zeros(J * NFp, dtype=np.int32)
    maxocc[fid_t] = maxocc_t  # padding slots all write the dummy's 0
    return _collect_batched(
        st, traffics, J, NFp, M, maxocc, lens, ncycles_j, delivered_j,
        bypassed_j, inj_cycle_flat, del_cycle_flat, mis_flat,
    )


def _grow(buf: np.ndarray, L: int) -> tuple[np.ndarray, int]:
    """Double the per-fifo backing-buffer capacity (deflection loops only)."""
    rows = buf.size // L
    new_l = L * 2
    new = np.zeros(rows * new_l, dtype=buf.dtype)
    new.reshape(rows, new_l)[:, :L] = buf.reshape(rows, L)
    return new, new_l


def _resume_suspended(
    st, rows, w0s, n_occ, mid_t, dest_flat, free_arr, local_free_arr,
    deliver_flat, send_flat, port_flat, mis_flat, code, draws,
):
    """Replay the suspended SCM (job, node) passes into the wave masks.

    ``rows`` are the suspended (job, node) rows, ascending, and ``w0s`` their
    suspension waves.  A suspended pass must consume its job's deflection
    stream *after* every suspended pass of the same job at a lower node id
    and *before* every one at a higher node id; passes of different jobs are
    independent.  The ascending flat (job, node) ids give exactly that
    per-job order, so one walk over the rows, drawing inline from each job's
    ``getrandbits``, reproduces the scalar engines draw for draw.

    Most passes suspend at their last occupied serving position, so the draw
    is all that is left of them.  For such a *single-position* row the walk
    runs only the bounded draw: its candidate count is looked up before the
    walk and its port after it, both batched.  A *multi-position* row still
    has candidates behind the draw, whose outcome depends on the drawn port,
    so the walk runs a direct port of the scalar engine's serve loop for it
    over plain Python lists.  Either way the outcome is a set of (wave, row)
    positions — deliveries, and sends with their ports — written into the
    flat wave masks, so the cycle's one batched commit pops, stamps, pushes
    and bumps the ASP send counts for them as for the waves' own grants; only
    the misroute flags are set here.
    """
    n = st.n_nodes
    Jn = n_occ.size
    max_out = st.max_out
    asp = st.asp_mode
    single = n_occ[rows] - w0s == 1
    multi = ~single
    # Single-position rows: the draw's candidate count (free ports, counted
    # byte by byte), 0 marking the multi-position rows in the walk.
    free_r = free_arr[rows]
    n_cand = st.byte_count[free_r & 255]
    for shift in range(8, max_out, 8):
        n_cand += st.byte_count[(free_r >> shift) & 255]
    n_cand[multi] = 0
    # Multi-position rows, as flat row-major lists (row i's values at
    # i * wmax + w): one container per column instead of one per row keeps
    # the cyclic GC out of the loop.
    m_rows = rows[multi]
    mids = mid_t[:, m_rows].T  # (r, wmax)
    wmax = mids.shape[1]
    mid_l = mids.ravel().tolist()
    dest_l = dest_flat[mids].ravel().tolist()
    free_l = free_arr[m_rows].tolist()
    lf_l = local_free_arr[m_rows].tolist()
    nocc_l = n_occ[m_rows].tolist()
    w0_l = w0s[multi].tolist()
    m_rows_l = m_rows.tolist()
    if asp:
        # The kernel's traffic-spreading codes ``sends * so + port``: the
        # smallest code among the free ports is the scalar engines' choice.
        # A port sent on is never free again within the pass, so this
        # cycle's sends (committed later) change no code the walk reads.
        so = max_out + 1
        code_l = code.reshape(-1, so)[m_rows].ravel().tolist()
    sp_list = st.sp_list
    deflect_sets = st.deflect_sets
    bitlen = st.bitlen
    drawn: list[int] = []
    delivered: list[int] = []
    sent: list[int] = []
    ports: list[int] = []
    mis: list[int] = []

    i = 0  # next multi-position row
    for j, nc in zip((rows // n).tolist(), n_cand.tolist()):
        if nc:
            # Inlined bounded_draw over the job's getrandbits stream.
            getrandbits = draws[j]
            k = bitlen[nc]
            r = getrandbits(k)
            while r >= nc:
                r = getrandbits(k)
            drawn.append(r)
            continue
        row = m_rows_l[i]
        node = row - j * n
        free = free_l[i]
        lf = lf_l[i]
        mw = i * wmax
        sp_row = sp_list[node]
        getrandbits = draws[j]
        if asp:
            ap_row = st.ap_rows[node]
            se = i * so
        out_deg = st.out_deg[node]
        for w in range(w0_l[i], nocc_l[i]):
            mid = mid_l[mw + w]
            dest = dest_l[mw + w]
            if dest == node:
                if lf:
                    delivered.append(w * Jn + row)
                    lf = False
                continue
            out = -1
            if asp:
                best_code = -1
                for q in ap_row[dest]:
                    if free >> q & 1:
                        c = code_l[se + q]
                        if best_code < 0 or c < best_code:
                            best_code = c
                            out = q
            else:
                q = sp_row[dest]
                if free >> q & 1:
                    out = q
            if out < 0:
                if not free:
                    continue
                candidates = deflect_sets.get(free)
                if candidates is None:
                    candidates = tuple(q for q in range(out_deg) if free >> q & 1)
                    deflect_sets[free] = candidates
                n_c = len(candidates)
                k = bitlen[n_c]
                r = getrandbits(k)
                while r >= n_c:
                    r = getrandbits(k)
                out = candidates[r]
                mis.append(mid)
            free &= ~(1 << out)
            sent.append(w * Jn + row)
            ports.append(out)
        i += 1

    # Single rows: the drawn rank's port, the r-th free port found byte by
    # byte, sent from the suspension position as a misroute.
    s_pos = np.flatnonzero(single)
    s_rows = rows[s_pos]
    s_free = free_r[s_pos]
    rank = np.array(drawn, dtype=np.intp)
    port = np.zeros_like(rank)
    for shift in range(0, max_out, 8):
        byte = (s_free >> shift) & 255
        in_byte = st.byte_count[byte]
        hit = (rank >= 0) & (rank < in_byte)
        port[hit] = shift + st.byte_select[byte[hit], rank[hit]]
        rank -= in_byte
    s_flat = w0s[s_pos] * Jn + s_rows
    send_flat[s_flat] = True
    port_flat[s_flat] = port
    mis_flat[mid_t.reshape(-1)[s_flat]] = 1
    send_flat[sent] = True
    port_flat[sent] = ports
    deliver_flat[delivered] = True
    mis_flat[mis] = 1


def _collect_batched(
    st, traffics, J, NFp, M, maxocc, lens, ncycles_j, delivered_j,
    bypassed_j, inj_cycle_flat, del_cycle_flat, mis_flat,
) -> list[SimulationResult]:
    """Fold the stacked per-job state into one SimulationResult per job."""
    maxocc2 = maxocc.reshape(J, NFp)
    # Per-node maxima over the network input fifos: each node's fifos are
    # one contiguous segment, its injection fifo zeroed out.
    per_node_max = np.maximum.reduceat(
        np.where(st.net_fifo, maxocc2, 0), st.fifo_base, axis=1
    ).tolist()
    max_injection = maxocc2[:, st.inject_fid].max(axis=1).tolist()
    # Buffers are append-only and only sends push into network fifos, so a
    # job's pushes into them count its hops.
    hops_j = lens.reshape(J, NFp)[:, st.net_fifo].sum(axis=1, dtype=np.int64).tolist()
    # Padding slots read 0 in both cycle columns, so whole rows reduce.
    lat = (del_cycle_flat - inj_cycle_flat).reshape(J, M)
    lat_sum = lat.sum(axis=1, dtype=np.int64).tolist()
    lat_max = lat.max(axis=1).tolist()
    misrouted = np.count_nonzero(mis_flat.reshape(J, M), axis=1).tolist()
    results: list[SimulationResult] = []
    for j, traffic in enumerate(traffics):
        total = traffic.total_messages
        ncycles = int(ncycles_j[j])
        stats = MessageStatistics()
        stats.total_hops = hops_j[j]
        if total:
            stats.count = total
            stats.total_latency = lat_sum[j]
            stats.max_latency = lat_max[j]
            stats.misrouted = misrouted[j]
            stats.latencies.extend(lat[j, :total].tolist())
        link_utilization = 0.0
        if ncycles > 0 and st.n_arcs > 0:
            link_utilization = hops_j[j] / (st.n_arcs * ncycles)
        results.append(
            SimulationResult(
                ncycles=ncycles,
                total_messages=total,
                delivered_messages=int(delivered_j[j]),
                local_bypassed=int(bypassed_j[j]),
                max_fifo_occupancy=max(per_node_max[j]),
                max_injection_occupancy=max_injection[j],
                per_node_max_fifo=per_node_max[j],
                statistics=stats,
                link_utilization=link_utilization,
                config_label=st.config.describe(),
                topology_label=st.topology.name,
                traffic_label=traffic.label,
            )
        )
    return results
