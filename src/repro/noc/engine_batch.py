"""Job-batched NoC cycle kernel: J independent simulations per vectorized step.

PR 3's struct-of-arrays engine (:class:`repro.noc.engine.BatchNocSimulator`)
made one sweep point fast, but a sweep still pays the Python interpreter once
per (cycle, node, job).  :class:`BatchedNocKernel` adds the same *job axis*
that the batched LDPC / turbo decoders put on their frame loops: J independent
jobs sharing one (topology, configuration) stack their struct-of-arrays state
— message columns, FIFO occupancy / head cursors / backing buffers, injection
pointers and credits, per-port sent counters — into ``(J, ...)`` NumPy arrays,
and every cycle advances **all jobs at once** through a handful of array
operations instead of J scalar loops.

Per cycle the kernel performs, vectorized over all ``J x P`` (job, node)
pairs:

1. **link arrivals** — occupancy increments and high-water marks for every
   message sent on the previous cycle (one scatter, one max);
2. **serving order** — FL keys ``(-occupancy, port)`` or RR rotation
   positions per (job, node), stacked into one integer key per slot and
   ordered by ``argsort``, maintained *incrementally*: only rows whose FIFO
   occupancies changed since the last cycle are re-keyed and re-sorted
   (falling back to one full ``argsort`` when most rows changed), followed by
   gathers of every candidate's head message, destination and SSP output
   port from the dense routing matrices, restricted to the serving positions
   actually occupied this cycle;
3. **crossbar waves** — serving position w of *every* node of *every* job is
   arbitrated simultaneously: local deliveries take the memory port, SSP/ASP
   output-port grants clear bits of a per-(job, node) free-port mask, and
   losers wait (DCM) or request a deflection (SCM); the wave masks evolve in
   preallocated scratch buffers (no per-wave temporaries);
4. **PE injection** — credits, bypass runs and injection-FIFO pushes as
   ``(J, P)`` array updates.

SCM deflection draws are the one place the job axis meets a *sequential*
contract: each job's randomness is defined as its own ``random.Random(seed)``
stream consumed in (cycle, node, serving-position) order through the bounded
rejection draw of :func:`repro.utils.rng.bounded_draw`, and a draw changes how
the rest of that node's pass unfolds.  Nodes that need a draw are therefore
*suspended* at their first drawing serving position, masked out of the
remaining waves, and replayed after the wave loop by one scalar walk over the
suspended (job, node) passes in flat (job, node) order — each job's passes in
ascending node order, so every job draws from its own ``getrandbits`` exactly
where the scalar engines would.  The replay's pops, deliveries and pushes are
then scattered back in one batch.

Jobs that finish early are masked out (their FIFOs are empty, their serving
orders vanish, their rows stop changing — so the incremental serve-order
maintenance skips them for free — and the per-job ``ncycles`` is latched the
cycle they drain).  Configurations the job axis cannot express without
cross-node sequencing — bounded FIFO capacities, where backpressure makes
node n's pass observe node n-1's pops within the same cycle — fall back to
the scalar engine per job, so :meth:`BatchedNocKernel.run` is total over the
configuration space.

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
from repro.noc.engine import BatchNocSimulator, MessageArrays, as_seed
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
        in_deg = topology.in_degrees.astype(np.int64)
        out_deg = topology.out_degrees.astype(np.int64)

        # Flat FIFO ids exactly as the scalar engine lays them out: per node
        # its network input ports then its injection port.
        fifo_base = np.zeros(n, dtype=np.int64)
        np.cumsum(in_deg[:-1] + 1, out=fifo_base[1:])
        self.fifo_base = fifo_base
        self.n_fifos = int((in_deg + 1).sum())
        self.inject_fid = (fifo_base + in_deg).astype(np.int64)
        self.fcount = (in_deg + 1).astype(np.int64)  # serving slots per node
        self.fmax = int(self.fcount.max())

        # (node, slot) -> fid, padded with the dummy fifo id ``n_fifos`` (one
        # extra all-zero slot per job absorbs gathers/scatters at padding).
        fid_mat = np.full((n, self.fmax), self.n_fifos, dtype=np.int64)
        for node in range(n):
            fc = int(self.fcount[node])
            fid_mat[node, :fc] = np.arange(fifo_base[node], fifo_base[node] + fc)
        self.fid_mat = fid_mat
        # fid -> owning node (dummy slot maps to node 0; its head attributes
        # are never read because the dummy fifo stays empty).
        fifo_node = np.zeros(self.n_fifos + 1, dtype=np.int32)
        for node in range(n):
            fc = int(self.fcount[node])
            fifo_node[fifo_base[node] : fifo_base[node] + fc] = node
        self.fifo_node = fifo_node

        # (node, out port) -> downstream input-fifo id, dummy padded.
        self.max_out = max(int(out_deg.max()), 1)
        dest_node = topology.out_neighbor_matrix
        dest_port = topology.dest_input_port_matrix
        tgt = np.full((n, self.max_out), self.n_fifos, dtype=np.int64)
        for node in range(n):
            for port in range(int(out_deg[node])):
                tgt[node, port] = fifo_base[int(dest_node[node, port])] + int(
                    dest_port[node, port]
                )
        self.tgt_flat = tgt.reshape(-1).astype(np.int32)

        # Dense routing lookups.  The SSP matrix diagonal (-1: no route to
        # self) is lowered to port 0 so vectorized shifts stay defined; local
        # candidates never read it (they contend for the memory port instead).
        sp = tables.next_port_matrix.reshape(-1).astype(np.int32)
        self.sp_flat = np.where(sp < 0, 0, sp).astype(np.int32)
        ap_pad = tables.all_ports_matrix  # (n, n, K), -1 padded
        self.ap_k = ap_pad.shape[2]
        # Padding lowered to port 0 so bit shifts stay valid; the count matrix
        # masks the padded entries out of the argmin.
        self.ap_flat = (
            np.where(ap_pad < 0, 0, ap_pad).reshape(n * n, self.ap_k).astype(np.int32)
        )
        self.ap_cnt_flat = tables.port_count_matrix.reshape(-1).astype(np.int32)

        self.full_mask = ((1 << out_deg) - 1).astype(np.int64)
        self.rr_mode = config.routing_algorithm is RoutingAlgorithm.SSP_RR
        self.asp_mode = config.routing_algorithm.uses_all_paths
        self.scm_mode = config.collision_policy is CollisionPolicy.SCM
        # Scalar-replay lowerings (plain nested lists) for the suspended SCM
        # passes, plus the memoized free-port bitmask -> ascending candidate
        # tuple map and the bit width per candidate count of the scalar
        # engines' bounded draw.
        self.out_deg = out_deg.tolist()
        self.sp_list: list[list[int]] = tables.next_port_matrix.tolist()
        self.tgt_list: list[list[int]] = tgt.tolist()
        self.ap_rows = tables.next_ports
        self.deflect_sets: dict[int, tuple[int, ...]] = {}
        self.bitlen = [0] + [k.bit_length() for k in range(1, self.max_out + 1)]
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
        messages = [MessageArrays.from_traffic(traffic) for traffic in traffics]
        max_total = max(arrays.total for arrays in messages)
        # The job axis cannot express bounded-capacity backpressure (node n's
        # free-port view depends on node n-1's pops within the same cycle), and
        # a batch of one gains nothing from stacking: both run scalar.
        if len(traffics) == 1 or self.config.fifo_capacity <= max_total:
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
        return _run_batched(
            self._static, messages, traffics, seeds, self.max_cycles
        )


# --------------------------------------------------------------------------- #
# Batched engine internals
# --------------------------------------------------------------------------- #
def _run_batched(
    st: _BatchedStatic,
    messages: list[MessageArrays],
    traffics: list[TrafficPattern],
    seeds: list[int],
    max_cycles: int,
) -> list[SimulationResult]:
    """Advance the stacked (J, ...) state cycle by cycle until every job drains."""
    n = st.n_nodes
    J = len(messages)
    Jn = J * n
    NFp = st.n_fifos + 1  # one dummy fifo slot per job absorbs padded scatters
    M = max(max(arrays.total for arrays in messages), 1)
    fmax = st.fmax
    rr_mode, asp_mode, scm_mode = st.rr_mode, st.asp_mode, st.scm_mode
    route_local = st.config.route_local
    rate = st.config.injection_rate
    # Serve-order key packing: FL keys are ``rank - (occ << occ_shift)``; RR
    # keys are ``rank`` plus ``wrap_bit`` for slots before the pointer plus
    # ``empty_bit`` for empty slots.  Both require the serving-slot rank to
    # fit below 1 << occ_shift, for any in-degree.
    occ_shift = fmax.bit_length()
    wrap_bit = 1 << occ_shift
    empty_bit = 2 << occ_shift

    totals = np.array([arrays.total for arrays in messages], dtype=np.int64)

    # ---- flat per-message columns, padded to (J, M) ------------------- #
    # Everything the hot loop touches is int32: the largest index in play is
    # the flat buffer offset J * NFp * L, far below 2**31 at paper scales (the
    # grow path re-checks), and halving the element width roughly halves the
    # memory traffic of the per-cycle gathers.
    dest_flat = np.zeros(J * M, dtype=np.int32)
    bypass = np.zeros((J, M), dtype=bool)
    for j, arrays in enumerate(messages):
        dest_flat[j * M : j * M + arrays.total] = arrays.dest
        if not route_local and arrays.total:
            bypass[j, : arrays.total] = arrays.dest == arrays.source
    inj_cycle_flat = np.zeros(J * M, dtype=np.int32)
    del_cycle_flat = np.full(J * M, -1, dtype=np.int32)
    mis_flat = np.zeros(J * M, dtype=np.int8)
    int32_max = np.iinfo(np.int32).max

    # next_nonbypass[j, p]: first index >= p whose message enters the network
    # (suffix minimum over non-bypass positions; padding is "non-bypass" so
    # runs clamp at each node's end pointer below).
    has_bypass = bool(bypass.any())
    if has_bypass:
        pos = np.arange(M + 1, dtype=np.int32)
        idx = np.where(
            np.concatenate([bypass, np.zeros((J, 1), dtype=bool)], axis=1),
            np.int32(M + 1),
            pos,
        )
        nnb = np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1]
    else:
        nnb = None

    # ---- FIFO state: (J * NFp,) columns + growable backing buffers ----- #
    occ = np.zeros(J * NFp, dtype=np.int32)
    heads = np.zeros(J * NFp, dtype=np.int32)
    lens = np.zeros(J * NFp, dtype=np.int32)
    maxocc = np.zeros(J * NFp, dtype=np.int32)
    # Per-fifo backing capacity: most fifos see far fewer than M messages, so
    # the buffer starts small (cache-friendly) and doubles on demand; the
    # worst case (hotspot fifos, SCM deflection loops) still fits after a few
    # geometric grows.
    L = min(M + 4, 128)
    buf = np.zeros(J * NFp * L, dtype=np.int32)

    # Head-of-FIFO attribute caches: the serving pre-pass reads each
    # candidate's message id / locality / SSP port straight from these flat
    # columns instead of chasing buffer -> heads -> dest -> routing-table
    # indirections per slot; only fifos whose head may have changed during a
    # cycle (pops, pushes) are refreshed, and the refresh is idempotent.
    head_mid = np.zeros(J * NFp, dtype=np.int32)
    head_loc = np.zeros(J * NFp, dtype=bool)
    fifo_node = np.tile(st.fifo_node, J)
    fifo_jbm = np.repeat(np.arange(J, dtype=np.int32) * M, NFp)
    if asp_mode:
        head_dest = np.zeros(J * NFp, dtype=np.int32)
    else:
        fifo_spbase = fifo_node * n
        head_q = np.zeros(J * NFp, dtype=np.int32)

    # ---- per-(job, node) arbitration / injection state ----------------- #
    job_row = np.repeat(np.arange(J, dtype=np.int32), n)  # (Jn,)
    node_row = np.tile(np.arange(n, dtype=np.int32), J)  # (Jn,)
    jbase_nf = job_row * NFp
    jbase_m = job_row * M
    sp_base = node_row * n
    fid_idx_all = jbase_nf[:, None] + st.fid_mat[node_row].astype(np.int32)  # (Jn, fmax)
    rank_tiled = np.broadcast_to(np.arange(fmax, dtype=np.int32), (Jn, fmax))
    rank_ap = np.broadcast_to(np.arange(st.ap_k, dtype=np.int32), (Jn, st.ap_k))
    fcount_row = st.fcount[node_row].astype(np.int32)
    full_row = st.full_mask[node_row].astype(np.int32)
    row_ar = np.arange(Jn, dtype=np.int32)
    # flat fifo index -> owning (job, node) serve row, for incremental
    # serve-order invalidation (the dummy fifo maps to node 0's row but its
    # occupancy never changes, so the mapping is never consulted for it).
    fid2row = (
        np.repeat(np.arange(J, dtype=np.int32), NFp) * n + np.tile(st.fifo_node, J)
    ).astype(np.int32)

    free = np.empty(Jn, dtype=np.int32)
    local_free = np.empty(Jn, dtype=bool)
    live = np.ones(Jn, dtype=bool)
    rr_ptr = np.zeros(Jn, dtype=np.int32) if rr_mode else None
    sent = np.zeros(Jn * st.max_out, dtype=np.int32) if asp_mode else None

    inj_ptr = np.empty((J, n), dtype=np.int32)
    inj_end = np.empty((J, n), dtype=np.int32)
    for j, arrays in enumerate(messages):
        inj_ptr[j] = arrays.node_offset[:-1]
        inj_end[j] = arrays.node_offset[1:]
    credit = np.zeros((J, n), dtype=np.float64)
    jj_col = np.arange(J, dtype=np.int32)[:, None]
    jbase_m2 = jj_col * M
    jj_mat = np.broadcast_to(jj_col, (J, n))

    delivered_j = np.zeros(J, dtype=np.int64)
    bypassed_j = np.zeros(J, dtype=np.int64)
    hops_j = np.zeros(J, dtype=np.int64)
    ncycles_j = np.zeros(J, dtype=np.int64)
    active = totals > 0
    # One scalar-engine deflection stream per job (only SCM ever draws).
    draws = [random.Random(seed).getrandbits for seed in seeds] if scm_mode else None

    # ---- persistent serving order, maintained incrementally ------------ #
    # Serve keys depend only on a row's FIFO occupancies (plus its RR pointer,
    # which only advances on cycles where the row also popped), so rows whose
    # fifos saw no pop/push/arrival keep their order from the previous cycle.
    # All occupancies start at zero, where both FL and RR keys sort to the
    # identity permutation.
    n_occ = np.zeros(Jn, dtype=np.int32)
    idx_all = fid_idx_all.copy()  # flat fifo index per (row, serving position)
    chg_parts: list[np.ndarray] = []  # fifo ids whose occupancy changed

    def _refresh_serve(ch: np.ndarray) -> None:
        """Re-key and re-sort the serve rows owning the changed fifos (all
        rows at once when most of them changed)."""
        rows = slice(None) if 2 * ch.size >= Jn else np.unique(fid2row[ch])
        of = occ[fid_idx_all[rows]]  # (k, fmax)
        occupied = of > 0
        n_occ[rows] = occupied.sum(axis=1)
        rank_k = rank_tiled[: of.shape[0]]
        if rr_mode:
            # Occupied slots from the pointer on, then those before it (the
            # rotation), then the empty ones.
            key = rank_k + (rank_k < rr_ptr[rows, None]) * wrap_bit
            key += (~occupied) * empty_bit
        else:
            key = rank_k - (of << occ_shift)
        # Only each row's occupied prefix is ever served, and its keys are
        # distinct (the slot rank is packed in), so any sort serves the same
        # order; the stable one is the fastest for these short rows.
        order = np.argsort(key, axis=1, kind="stable")
        idx_all[rows] = np.take_along_axis(fid_idx_all[rows], order, axis=1)

    # Reusable per-cycle wave buffers: mask rows [w] are written in wave
    # order (the commit sweep only sees rows zeroed at cycle start), and the
    # per-wave mask algebra runs entirely in (Jn,) scratch vectors.
    deliver_t = np.empty((fmax, Jn), dtype=bool)
    send_t = np.empty((fmax, Jn), dtype=bool)
    or_t = np.empty((fmax, Jn), dtype=bool)
    # zeroed, not empty: the wave loop shifts by every lane of qsel_t[w]
    # (losers are masked after the shift), so lanes never written this cycle
    # must still hold valid shift counts
    qsel_t = np.zeros((fmax, Jn), dtype=np.int32) if asp_mode else None
    v_s = np.empty(Jn, dtype=bool)
    t1_s = np.empty(Jn, dtype=bool)
    deliver_s = np.empty(Jn, dtype=bool)
    nonloc_s = np.empty(Jn, dtype=bool)
    send_s = np.empty(Jn, dtype=bool)
    need_s = np.empty(Jn, dtype=bool) if scm_mode else None
    tmp_i = np.empty(Jn, dtype=np.int32)
    tmp_b = np.empty(Jn, dtype=np.int32)
    one32 = np.int32(1)

    pend_idx: np.ndarray | None = None  # arrivals scheduled for the next cycle
    injecting = bool(active.any())
    cycle = 0

    while active.any():
        if cycle > max_cycles:
            stuck = np.flatnonzero(active)
            raise SimulationError(
                f"simulation exceeded {max_cycles} cycles with jobs "
                f"{stuck.tolist()} still in flight "
                f"({int((totals - delivered_j)[stuck].sum())} messages)"
            )

        # 1. Link arrivals scheduled on the previous cycle.  At most one
        # message per (job, input fifo) per cycle (an input port terminates a
        # single arc), so the indices are unique and plain fancy ops suffice.
        if pend_idx is not None:
            occ[pend_idx] += 1
            maxocc[pend_idx] = np.maximum(maxocc[pend_idx], occ[pend_idx])
            chg_parts.append(pend_idx)
            pend_idx = None
        # Serving orders catch up with every occupancy change since the last
        # pass (pops, pushes, the arrivals just applied).
        if chg_parts:
            ch = np.concatenate(chg_parts) if len(chg_parts) > 1 else chg_parts[0]
            _refresh_serve(ch)
            chg_parts = []
        send_idx_parts: list[np.ndarray] = []
        send_job_parts: list[np.ndarray] = []
        upd_parts: list[np.ndarray] = []  # fifos whose head cache needs refresh

        # 2. Crossbar pass: one vectorized arbitration step per serving
        # position ("wave").  The wave loop only evolves masks (free ports,
        # local port, deliver/send flags); all FIFO pops, delivery stamps and
        # downstream pushes commit in one batch afterwards.
        wmax = int(n_occ.max())
        if wmax:
            idx_w = idx_all.T[:wmax]  # fancy-indexing with the transposed view
            # yields C-contiguous (wmax, Jn) results: per-wave rows are flat,
            # and only the serving positions occupied somewhere are gathered.
            mid_t = head_mid[idx_w]
            isloc_t = head_loc[idx_w]
            if asp_mode:
                dest_t = head_dest[idx_w]
            else:
                q_t = head_q[idx_w]

            np.copyto(free, full_row)
            local_free.fill(True)
            dt = deliver_t[:wmax]
            stw = send_t[:wmax]
            dt.fill(False)
            stw.fill(False)
            susp_rows: list[np.ndarray] = []
            susp_wave: list[int] = []
            susp_any = False

            for w in range(wmax):
                np.greater(n_occ, w, out=v_s)
                if susp_any:
                    v_s &= live
                if not v_s.any():
                    break
                np.logical_and(v_s, isloc_t[w], out=t1_s)
                np.logical_and(t1_s, local_free, out=deliver_s)
                np.logical_xor(v_s, t1_s, out=nonloc_s)
                if asp_mode:
                    # Traffic spreading evaluates only the wave's non-local
                    # candidates; beyond wave 0 those are a shrinking subset,
                    # so the (rows, K) port scoring runs compressed.
                    nlr = np.flatnonzero(nonloc_s)
                    ap_idx = sp_base[nlr] + dest_t[w, nlr]
                    ports = st.ap_flat[ap_idx]  # (k, K)
                    usable = (rank_ap[: nlr.size] < st.ap_cnt_flat[ap_idx][:, None]) & (
                        ((free[nlr, None] >> ports) & 1) > 0
                    )
                    cost = sent[(nlr[:, None] * st.max_out) + ports]
                    score = np.where(
                        usable, cost * (st.ap_k + 1) + rank_ap[: nlr.size], int32_max
                    )
                    best = np.argmin(score, axis=1)
                    ark = row_ar[: nlr.size]
                    has_port = score[ark, best] != int32_max
                    q = qsel_t[w]
                    q[nlr] = ports[ark, best]
                    bitw = np.int32(1) << q
                    send_s.fill(False)
                    send_s[nlr] = has_port
                else:
                    q = q_t[w]
                    bitw = np.left_shift(one32, q, out=tmp_b)
                    np.bitwise_and(free, bitw, out=tmp_i)
                    np.not_equal(tmp_i, 0, out=t1_s)
                    np.logical_and(nonloc_s, t1_s, out=send_s)
                if scm_mode:
                    # need = non-local, no grantable port, some port still free
                    np.logical_xor(nonloc_s, send_s, out=need_s)
                    np.not_equal(free, 0, out=t1_s)
                    need_s &= t1_s
                    if need_s.any():
                        # A drawing candidate is non-local with no grantable
                        # port, so it is disjoint from this wave's deliver and
                        # send sets; masking ``live`` only affects later waves.
                        rows = np.flatnonzero(need_s)
                        live[rows] = False
                        susp_any = True
                        susp_rows.append(rows)
                        susp_wave.append(w)
                np.multiply(bitw, send_s, out=tmp_i)
                np.subtract(free, tmp_i, out=free)
                np.logical_xor(local_free, deliver_s, out=local_free)
                dt[w] = deliver_s
                stw[w] = send_s
                if asp_mode:
                    rsw = np.flatnonzero(send_s)
                    if rsw.size:
                        # Traffic spreading reads the counters within the same
                        # pass, so ASP send tallies commit per wave.
                        sent[rsw * st.max_out + q[rsw]] += 1

            # 2b. Batched commits of everything the waves granted (one nonzero
            # sweep; deliveries and sends are split off its result).
            orw = or_t[:wmax]
            np.logical_or(dt, stw, out=orw)
            wp, rp = np.nonzero(orw)
            if wp.size:
                pidx = idx_all[rp, wp]
                heads[pidx] += 1
                occ[pidx] -= 1
                upd_parts.append(pidx)
                chg_parts.append(pidx)
            dmask = dt[wp, rp]
            wd, rd = wp[dmask], rp[dmask]
            if wd.size:
                del_cycle_flat[jbase_m[rd] + mid_t[wd, rd]] = cycle
                delivered_j += np.bincount(job_row[rd], minlength=J)
            smask = ~dmask
            ws, rs = wp[smask], rp[smask]
            if ws.size:
                qs = qsel_t[ws, rs] if asp_mode else q_t[ws, rs]
                tf = st.tgt_flat[node_row[rs] * st.max_out + qs]
                sidx = job_row[rs] * NFp + tf
                pos = lens[sidx]
                if int(pos.max()) >= L:
                    buf, L = _grow(buf, J * NFp, L)
                buf[sidx * L + pos] = mid_t[ws, rs]
                lens[sidx] += 1
                send_idx_parts.append(sidx)
                send_job_parts.append(job_row[rs])

            # 2c. Scalar replay of the draw-needing nodes, in exact per-job
            # (node, serving-position) stream order, with deferred scatters.
            if susp_rows:
                buf, L = _resume_suspended(
                    st, susp_rows, susp_wave, n_occ, idx_all, mid_t,
                    dest_flat, free, local_free, heads, occ, lens,
                    buf, L, NFp, M, J, del_cycle_flat, mis_flat, delivered_j,
                    sent, draws, send_idx_parts, send_job_parts, upd_parts,
                    chg_parts, cycle,
                )
                live[np.concatenate(susp_rows)] = True

            if rr_mode:
                np.greater(n_occ, 0, out=v_s)
                rr_ptr += v_s
                np.remainder(rr_ptr, fcount_row, out=rr_ptr)

        # 3. PE injection at rate R; bypass runs (RL = 0 local messages) cost
        # neither credit nor FIFO space and deliver immediately.
        if injecting:
            rem = inj_ptr < inj_end
            if rem.any():
                credit += rate * rem
                if has_bypass:
                    nb1 = np.minimum(nnb[jj_mat, inj_ptr], inj_end)
                    nb1 = np.where(rem, nb1, inj_ptr)
                else:
                    nb1 = inj_ptr
                can = rem & (nb1 < inj_end) & (credit >= 1.0)
                ptr2 = nb1 + can
                if has_bypass:
                    nb2 = np.where(
                        can,
                        np.minimum(nnb[jj_mat, ptr2], inj_end),
                        nb1,
                    )
                else:
                    nb2 = ptr2
                credit -= can
                if can.any():
                    jc, nc = np.nonzero(can)
                    slot = nb1[jc, nc]
                    sidx = (jc * NFp + st.inject_fid[nc]).astype(np.int32)
                    pos = lens[sidx]
                    if int(pos.max()) >= L:
                        buf, L = _grow(buf, J * NFp, L)
                    buf[sidx * L + pos] = slot
                    lens[sidx] += 1
                    occ[sidx] += 1
                    maxocc[sidx] = np.maximum(maxocc[sidx], occ[sidx])
                    inj_cycle_flat[jc * M + slot] = cycle
                    upd_parts.append(sidx)
                    chg_parts.append(sidx)
                if has_bypass:
                    c1 = np.where(rem, nb1 - inj_ptr, 0)
                    c2 = nb2 - ptr2
                    n_bypassed = int(c1.sum() + c2.sum())
                    if n_bypassed:
                        starts = np.concatenate(
                            [(jbase_m2 + inj_ptr)[c1 > 0], (jbase_m2 + ptr2)[c2 > 0]]
                        )
                        counts = np.concatenate([c1[c1 > 0], c2[c2 > 0]])
                        ends = np.cumsum(counts)
                        idxs = (
                            np.repeat(starts, counts)
                            + np.arange(n_bypassed, dtype=np.int64)
                            - np.repeat(ends - counts, counts)
                        )
                        inj_cycle_flat[idxs] = cycle
                        del_cycle_flat[idxs] = cycle
                        per_job = (c1 + c2).sum(axis=1)
                        delivered_j += per_job
                        bypassed_j += per_job
                inj_ptr = np.where(rem, nb2, inj_ptr)
            else:
                injecting = False

        # 4. Cycle bookkeeping: merge this cycle's sends into next cycle's
        # arrivals, count hops, refresh the head caches of touched fifos, and
        # latch finished jobs.
        if send_idx_parts:
            pend_idx = (
                np.concatenate(send_idx_parts)
                if len(send_idx_parts) > 1
                else send_idx_parts[0]
            )
            jobs_sent = (
                np.concatenate(send_job_parts)
                if len(send_job_parts) > 1
                else send_job_parts[0]
            )
            hops_j += np.bincount(jobs_sent, minlength=J)
            upd_parts.append(pend_idx)
        if upd_parts:
            ch = np.concatenate(upd_parts) if len(upd_parts) > 1 else upd_parts[0]
            hm = buf[ch * L + np.minimum(heads[ch], L - 1)]
            head_mid[ch] = hm
            hd = dest_flat[fifo_jbm[ch] + hm]
            head_loc[ch] = hd == fifo_node[ch]
            if asp_mode:
                head_dest[ch] = hd
            else:
                head_q[ch] = st.sp_flat[fifo_spbase[ch] + hd]
        cycle += 1
        finished = active & (delivered_j >= totals)
        if finished.any():
            ncycles_j[finished] = cycle
            active &= ~finished

    return _collect_batched(
        st, messages, traffics, J, NFp, M, maxocc, ncycles_j, delivered_j,
        bypassed_j, hops_j, inj_cycle_flat, del_cycle_flat, mis_flat,
    )


def _grow(buf: np.ndarray, rows: int, L: int) -> tuple[np.ndarray, int]:
    """Double the per-fifo backing-buffer capacity (deflection loops only)."""
    new_l = L * 2
    if rows * new_l >= 2**31:
        raise SimulationError(
            "batched FIFO backing buffers outgrew the int32 index space"
        )
    new = np.zeros(rows * new_l, dtype=buf.dtype)
    new.reshape(rows, new_l)[:, :L] = buf.reshape(rows, L)
    return new, new_l


def _resume_suspended(
    st, susp_rows, susp_wave, n_occ, idx_all, mid_t, dest_flat,
    free_arr, local_free_arr, heads, occ, lens, buf, L, NFp, M, J,
    del_cycle_flat, mis_flat, delivered_j, sent, draws,
    send_idx_parts, send_job_parts, upd_parts, chg_parts, cycle,
):
    """Replay every suspended SCM (job, node) pass and scatter its effects back.

    A suspended pass must consume its job's deflection stream *after* every
    suspended pass of the same job at a lower node id and *before* every one
    at a higher node id; passes of different jobs are independent.  Sorting
    the suspended rows by flat (job, node) id yields exactly that per-job
    order, so one walk over the sorted rows — a direct port of the scalar
    engine's serve loop over plain Python lists, drawing inline from each
    job's ``getrandbits`` — reproduces the scalar engines draw for draw.  The
    per-candidate values are gathered in a handful of batched reads up front,
    and all pops / deliveries / misroutes / pushes are scattered back in one
    batch at the end.
    """
    n = st.n_nodes
    asp = st.asp_mode
    rows = np.concatenate(susp_rows)
    w0s = np.repeat(np.array(susp_wave, dtype=np.int64), [len(r) for r in susp_rows])
    order = np.argsort(rows)  # rows are unique: one suspension per pass
    rows = rows[order]
    w0s = w0s[order]
    jobs = rows // n
    # Flat row-major lists (row i's values at i * stride + w): one container
    # per column instead of one per row keeps the cyclic GC out of the loop.
    mids = mid_t[:, rows].T  # (r, wmax)
    wmax = mids.shape[1]
    mid_l = mids.ravel().tolist()
    dest_l = dest_flat[(jobs * M)[:, None] + mids].ravel().tolist()
    fmax = idx_all.shape[1]
    fidx_l = idx_all[rows].ravel().tolist()
    free_l = free_arr[rows].tolist()
    lf_l = local_free_arr[rows].tolist()
    nocc_l = n_occ[rows].tolist()
    w0_l = w0s.tolist()
    if asp:
        max_out = st.max_out
        sent2 = sent.reshape(-1, max_out)
        sent_l = sent2[rows].ravel().tolist()
    sp_list, tgt_list = st.sp_list, st.tgt_list
    deflect_sets = st.deflect_sets
    bitlen = st.bitlen
    pops: list[int] = []
    dels: list[int] = []
    deljobs: list[int] = []
    mis: list[int] = []
    s_sidx: list[int] = []
    s_mid: list[int] = []
    s_job: list[int] = []

    for i, row in enumerate(rows.tolist()):
        j = row // n
        node = row - j * n
        free = free_l[i]
        lf = lf_l[i]
        mw = i * wmax
        fw = i * fmax
        jb_m = j * M
        jb_nf = j * NFp
        sp_row = sp_list[node]
        tgt_row = tgt_list[node]
        getrandbits = draws[j]
        if asp:
            ap_row = st.ap_rows[node]
            se = i * max_out
        out_deg = st.out_deg[node]
        for w in range(w0_l[i], nocc_l[i]):
            mid = mid_l[mw + w]
            dest = dest_l[mw + w]
            if dest == node:
                if lf:
                    pops.append(fidx_l[fw + w])
                    dels.append(jb_m + mid)
                    deljobs.append(j)
                    lf = False
                continue
            out = -1
            if asp:
                best_count = -1
                for q in ap_row[dest]:
                    if free >> q & 1:
                        c = sent_l[se + q]
                        if best_count < 0 or c < best_count:
                            best_count = c
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
                # Inlined bounded_draw over the job's getrandbits stream.
                n_cand = len(candidates)
                k = bitlen[n_cand]
                r = getrandbits(k)
                while r >= n_cand:
                    r = getrandbits(k)
                out = candidates[r]
                mis.append(jb_m + mid)
            pops.append(fidx_l[fw + w])
            free &= ~(1 << out)
            if asp:
                sent_l[se + out] += 1
            s_sidx.append(jb_nf + tgt_row[out])
            s_mid.append(mid)
            s_job.append(j)
        # free / local-port state is per cycle; nothing else to write back.

    if asp:
        sent2[rows] = np.array(sent_l, dtype=sent.dtype).reshape(-1, max_out)
    if pops:
        parr = np.array(pops, dtype=np.int64)
        heads[parr] += 1
        occ[parr] -= 1
        upd_parts.append(parr)
        chg_parts.append(parr)
    if dels:
        del_cycle_flat[dels] = cycle
        delivered_j += np.bincount(deljobs, minlength=J)
    if mis:
        mis_flat[mis] = 1
    if s_sidx:
        sarr = np.array(s_sidx, dtype=np.int32)
        pos = lens[sarr]
        if int(pos.max()) >= L:
            buf, L = _grow(buf, len(lens), L)
        buf[sarr * L + pos] = s_mid
        lens[sarr] += 1
        send_idx_parts.append(sarr)
        send_job_parts.append(np.array(s_job, dtype=np.int32))
    return buf, L


def _collect_batched(
    st, messages, traffics, J, NFp, M, maxocc, ncycles_j, delivered_j,
    bypassed_j, hops_j, inj_cycle_flat, del_cycle_flat, mis_flat,
) -> list[SimulationResult]:
    """Fold the stacked per-job state into one SimulationResult per job."""
    n = st.n_nodes
    maxocc2 = maxocc.reshape(J, NFp)
    results: list[SimulationResult] = []
    fifo_base = st.fifo_base.tolist()
    fcount = st.fcount.tolist()
    inject_fid = st.inject_fid.tolist()
    for j, (arrays, traffic) in enumerate(zip(messages, traffics)):
        per_node_max = [
            int(maxocc2[j, fifo_base[node] : fifo_base[node] + fcount[node] - 1].max(initial=0))
            for node in range(n)
        ]
        max_injection = int(maxocc2[j, inject_fid].max(initial=0))
        total = arrays.total
        ncycles = int(ncycles_j[j])
        stats = MessageStatistics()
        stats.total_hops = int(hops_j[j])
        if total:
            lat = (
                del_cycle_flat[j * M : j * M + total]
                - inj_cycle_flat[j * M : j * M + total]
            )
            stats.count = total
            stats.total_latency = int(lat.sum(dtype=np.int64))
            stats.max_latency = int(lat.max(initial=0))
            stats.misrouted = int(np.count_nonzero(mis_flat[j * M : j * M + total]))
            stats._latencies.extend(lat.tolist())
        link_utilization = 0.0
        if ncycles > 0 and st.n_arcs > 0:
            link_utilization = int(hops_j[j]) / (st.n_arcs * ncycles)
        results.append(
            SimulationResult(
                ncycles=ncycles,
                total_messages=total,
                delivered_messages=int(delivered_j[j]),
                local_bypassed=int(bypassed_j[j]),
                max_fifo_occupancy=max(per_node_max) if per_node_max else 0,
                max_injection_occupancy=max_injection,
                per_node_max_fifo=per_node_max,
                statistics=stats,
                link_utilization=link_utilization,
                config_label=st.config.describe(),
                topology_label=st.topology.name,
                traffic_label=traffic.label,
            )
        )
    return results
