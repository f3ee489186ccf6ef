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
   positions per (job, node), maintained *incrementally*: only rows whose
   FIFO occupancies changed since the last cycle are re-keyed and re-sorted
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
contract: each job's randomness is defined as its own ``random.Random``
stream consumed in (cycle, node, serving-position) order (see
:class:`repro.utils.rng.DeflectionStreams`), and a draw changes how the rest
of that node's pass unfolds.  Nodes that need a draw are therefore
*suspended* at their first drawing serving position, masked out of the
remaining waves, and replayed after the wave loop by a **vectorized resume**:
suspended (job, node) passes are ordered per job, split into rounds of at
most one pass per job (round k replays each job's k-th suspended node), and
every round advances all of its passes in lockstep — port selection, free-
mask updates and the bounded rejection draws themselves
(:meth:`~repro.utils.rng.DeflectionStreams.draw_batch`) are all batched
across jobs.  Within a job, rounds replay nodes in ascending node order and
each batched draw advances that job's word counter by exactly its rejection
count, so the per-job streams stay bit-identical to the scalar engines no
matter how many jobs draw at once.

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

from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.noc.config import CollisionPolicy, NocConfiguration, RoutingAlgorithm
from repro.noc.engine import BatchNocSimulator, MessageArrays
from repro.noc.message import MessageStatistics
from repro.noc.results import SimulationResult
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.topologies import Topology
from repro.noc.traffic import TrafficPattern
from repro.utils.rng import DeflectionStreams

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
        # Word shift per deflection-candidate count (32 - bit_length), for
        # the batched rejection draws; index 0 is never consulted (a drawing
        # candidate always has at least one free port).
        self.shift_tab = np.array(
            [32] + [32 - k.bit_length() for k in range(1, self.max_out + 1)],
            dtype=np.int64,
        )
        # Scalar-replay lowerings (plain nested lists) for resume rounds too
        # small to amortize vectorized dispatch, plus the memoized free-port
        # bitmask -> ascending candidate tuple map of the scalar engines.
        self.out_deg = out_deg.tolist()
        self.sp_list: list[list[int]] = tables.next_port_matrix.tolist()
        self.tgt_list: list[list[int]] = tgt.tolist()
        self.ap_rows = tables.next_ports
        self.deflect_sets: dict[int, tuple[int, ...]] = {}
        # Dense bitmask lookups shared by the vectorized resume rounds
        # (free-port mask -> deflection candidate count, and (mask, draw) ->
        # the draw-th set bit, i.e. the scalar engines' ascending candidate
        # list) and by the table-driven RR serve order below (occupied-slot
        # mask -> n_occ).  Tiny for the paper's fan-outs; wide graphs fall
        # back to on-the-fly bit math / argsort.
        popcount_bits = 0
        if self.rr_mode and self.fmax <= 8:
            popcount_bits = 8
        if self.scm_mode and self.max_out <= 10:
            popcount_bits = max(popcount_bits, self.max_out)
        self.popcount: np.ndarray | None = None
        if popcount_bits:
            self.popcount = np.array(
                [bin(mask).count("1") for mask in range(1 << popcount_bits)],
                dtype=np.int64,
            )
        self.defl_pick: np.ndarray | None = None
        if self.scm_mode and self.max_out <= 10:
            n_masks = 1 << self.max_out
            pick = np.zeros((n_masks, self.max_out), dtype=np.int64)
            for mask in range(n_masks):
                ports = [q for q in range(self.max_out) if mask >> q & 1]
                pick[mask, : len(ports)] = ports
            self.defl_pick = pick
        self.config = config
        self.topology = topology
        self.tables = tables

        # RR serving order depends only on (node, pointer, occupied-slot
        # bitmask) — a finite space — so for the paper's small fan-ins the
        # whole rotate-and-partition sort is precomputed: ``rr_fid_tab`` maps
        # ``(node * fmax + ptr) * 256 + mask`` to the fids in serving order
        # (occupied slots rotation-first, empties after; empty order is
        # immaterial because serving position w only exists while w <
        # occupied count).  ``popcount`` above turns the same mask into n_occ.
        self.rr_fid_tab: np.ndarray | None = None
        if self.rr_mode and self.fmax <= 8:
            tab = np.empty((n * self.fmax * 256, self.fmax), dtype=np.int32)
            for node in range(n):
                fc = int(self.fcount[node])
                fids = fid_mat[node]
                for ptr in range(self.fmax):
                    base = (node * self.fmax + ptr) * 256
                    for mask in range(256):
                        occ_slots = sorted(
                            (s for s in range(fc) if mask >> s & 1),
                            key=lambda s: (s - ptr) % fc,
                        )
                        rest = [s for s in range(self.fmax) if not (mask >> s & 1) or s >= fc]
                        tab[base + mask] = fids[occ_slots + rest]
            self.rr_fid_tab = tab

        # FL serving order is a pure function of the pairwise occupancy
        # comparisons (longest first, ties by slot rank), so for small
        # fan-ins the per-cycle argsort collapses to: compute the
        # fmax*(fmax-1)/2 comparison bits, look the permutation up.
        self.fl_pairs: list[tuple[int, int]] | None = None
        self.fl_perm_tab: np.ndarray | None = None
        if not self.rr_mode and 2 <= self.fmax <= 4:
            import functools

            pairs = [
                (i, j) for i in range(self.fmax) for j in range(i + 1, self.fmax)
            ]

            def build_cmp(code):
                def cmp(a, b):
                    if a == b:
                        return 0
                    i, j = (a, b) if a < b else (b, a)
                    bit = code >> pairs.index((i, j)) & 1
                    first = j if bit else i
                    return -1 if first == a else 1

                return cmp

            perm = np.empty((1 << len(pairs), self.fmax), dtype=np.int8)
            for code in range(1 << len(pairs)):
                # Inconsistent (cyclic) codes cannot arise from real keys;
                # sorted() still yields some permutation for their rows.
                perm[code] = sorted(
                    range(self.fmax), key=functools.cmp_to_key(build_cmp(code))
                )
            self.fl_pairs = pairs
            self.fl_perm_tab = perm


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
        seeds = [int(seed) for seed in seeds]
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
    # Serve-order key packing: FL keys are ``rank - (occ << occ_shift)`` and
    # RR keys penalize empty slots by ``empty_penalty``; both require the
    # serving-slot rank to fit below 1 << occ_shift, for any in-degree.
    occ_shift = fmax.bit_length()
    empty_penalty = 1 << occ_shift

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
    fid_tiled = st.fid_mat[node_row].astype(np.int32)  # (Jn, fmax)
    fid_idx_all = jbase_nf[:, None] + fid_tiled
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
    draws = DeflectionStreams(seeds)

    # ---- persistent serving order, maintained incrementally ------------ #
    # Serve keys depend only on a row's FIFO occupancies (plus its RR pointer,
    # which only advances on cycles where the row also popped), so rows whose
    # fifos saw no pop/push/arrival keep their order from the previous cycle.
    # All occupancies start at zero, where both FL and RR keys sort to the
    # identity permutation.
    n_occ = np.zeros(Jn, dtype=np.int32)
    serve_fid = fid_tiled.copy()
    idx_all = jbase_nf[:, None] + serve_fid
    chg_parts: list[np.ndarray] = []  # fifo ids whose occupancy changed
    rr_tab = st.rr_fid_tab if rr_mode else None
    if rr_tab is not None:
        rr_nodebase = node_row.astype(np.int64) * (fmax * 256)
    fl_tab = st.fl_perm_tab
    fl_pairs = st.fl_pairs
    # Transposed copy of the serve-slot fifo indices: gathering through it
    # yields C-contiguous (fmax, Jn) occupancies, so the per-slot compares of
    # the table paths below run on contiguous rows instead of strided columns.
    fid_idx_allT = np.ascontiguousarray(fid_idx_all.T)

    def _refresh_serve(ch: np.ndarray) -> None:
        """Re-key and re-sort the serve rows owning the changed fifos."""
        if 2 * ch.size >= Jn:
            rows = None
            ofT = occ[fid_idx_allT]  # (fmax, Jn)
        else:
            rows = np.unique(fid2row[ch])
            ofT = occ[fid_idx_allT[:, rows]]  # (fmax, k)
        if fl_tab is not None:
            # Table-driven FL: the permutation is determined by which slot of
            # each comparison pair holds the longer fifo.
            i0, j0 = fl_pairs[0]
            code = (ofT[j0] > ofT[i0]) * 1
            for b in range(1, len(fl_pairs)):
                i, j = fl_pairs[b]
                code += (ofT[j] > ofT[i]) * (1 << b)
            order = fl_tab[code]
            if rows is None:
                n_occ[:] = (ofT > 0).sum(axis=0)
                serve_fid[:] = np.take_along_axis(fid_tiled, order, axis=1)
                idx_all[:] = jbase_nf[:, None] + serve_fid
            else:
                n_occ[rows] = (ofT > 0).sum(axis=0)
                sf = np.take_along_axis(fid_tiled[rows], order, axis=1)
                serve_fid[rows] = sf
                idx_all[rows] = jbase_nf[rows, None] + sf
            return
        if rr_tab is not None:
            # Table-driven RR: pack the occupied slots into a bitmask and
            # look the rotated occupied-first order straight up.
            occupied = ofT > 0
            mask = np.packbits(occupied, axis=0, bitorder="little")[0]
            if rows is None:
                tabidx = rr_nodebase + rr_ptr * np.int64(256) + mask
                n_occ[:] = st.popcount[mask]
                serve_fid[:] = rr_tab[tabidx]
                idx_all[:] = jbase_nf[:, None] + serve_fid
            else:
                tabidx = rr_nodebase[rows] + rr_ptr[rows] * np.int64(256) + mask
                n_occ[rows] = st.popcount[mask]
                sf = rr_tab[tabidx]
                serve_fid[rows] = sf
                idx_all[rows] = jbase_nf[rows, None] + sf
            return
        of = ofT.T
        occupied = of > 0
        if rows is None:
            n_occ[:] = occupied.sum(axis=1)
            if rr_mode:
                rot = rank_tiled - rr_ptr[:, None]
                key = np.where(rot < 0, rot + fcount_row[:, None], rot)
                key += (~occupied) * empty_penalty
            else:
                key = rank_tiled - (of << occ_shift)
            order = np.argsort(key, axis=1)
            serve_fid[:] = np.take_along_axis(fid_tiled, order, axis=1)
            idx_all[:] = jbase_nf[:, None] + serve_fid
            return
        n_occ[rows] = occupied.sum(axis=1)
        rank_k = rank_tiled[: rows.size]
        if rr_mode:
            rot = rank_k - rr_ptr[rows, None]
            key = np.where(rot < 0, rot + fcount_row[rows, None], rot)
            key += (~occupied) * empty_penalty
        else:
            key = rank_k - (of << occ_shift)
        order = np.argsort(key, axis=1)
        sf = np.take_along_axis(fid_tiled[rows], order, axis=1)
        serve_fid[rows] = sf
        idx_all[rows] = jbase_nf[rows, None] + sf

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

            # 2c. Vectorized resume of draw-needing nodes: rounds of at most
            # one pass per job, in exact per-job (node, serving-position)
            # stream order, with deferred scatters.
            if susp_rows:
                buf, L = _resume_suspended(
                    st, susp_rows, susp_wave, n_occ, serve_fid, mid_t,
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


#: Smallest resume round worth vectorizing: below this many passes the NumPy
#: dispatch overhead of the lockstep exceeds a plain scalar replay, so the
#: remaining passes run through :func:`_resume_python` instead (measured
#: crossover on the Table-I grid; see benchmarks/bench_deflection_draws.py).
_VEC_MIN_ROUND = 96


def _resume_suspended(
    st, susp_rows, susp_wave, n_occ, serve_fid, mid_t, dest_flat,
    free_arr, local_free_arr, heads, occ, lens, buf, L, NFp, M, J,
    del_cycle_flat, mis_flat, delivered_j, sent, draws,
    send_idx_parts, send_job_parts, upd_parts, chg_parts, cycle,
):
    """Replay every suspended (job, node) pass, vectorized across jobs.

    A suspended pass must consume its job's deflection words *after* every
    suspended pass of the same job at a lower node id and *before* every one
    at a higher node id — but passes of different jobs are fully independent.
    The replay therefore runs in **rounds**: suspended rows are sorted by
    flat (job, node) id and round k replays the k-th suspended pass of every
    job that has one.  Each round walks its passes' serving positions in
    lockstep — the per-candidate gathers, port selection against the evolving
    free masks, and the bounded rejection draws
    (:meth:`~repro.utils.rng.DeflectionStreams.draw_batch`, one distinct job
    per pass) are all batched — and each draw advances its job's word counter
    by exactly its rejection count, which is what makes round k+1 start at
    the very word a scalar replay would.

    Round sizes shrink fast (most jobs suspend at most one node per cycle),
    and a lockstep over a handful of passes costs more in NumPy dispatch than
    it saves: once the current round falls under ``_VEC_MIN_ROUND`` passes,
    all passes still owed (every not-yet-replayed rank, in sorted row order —
    which is exactly the per-job stream order) run through the scalar
    :func:`_resume_python` instead.  All pops / deliveries / pushes from both
    paths are scattered back in one batch at the end.
    """
    n = st.n_nodes
    max_out = st.max_out
    asp, scm = st.asp_mode, st.scm_mode
    rows = susp_rows[0] if len(susp_rows) == 1 else np.concatenate(susp_rows)
    if len(susp_rows) == 1:
        w0s = np.full(rows.size, susp_wave[0], dtype=np.int64)
    else:
        w0s = np.repeat(
            np.array(susp_wave, dtype=np.int64), [len(r) for r in susp_rows]
        )
    order = np.argsort(rows)  # rows are unique: one suspension per pass
    rows = rows[order]
    w0s = w0s[order]
    all_jobs = rows // n
    k_total = rows.size
    # Rank within job: rows are sorted, so each job's passes are contiguous
    # and the round-k pass of the job starting at ``starts[g]`` sits at
    # ``starts[g] + k`` whenever that job has more than k passes.
    newjob = np.empty(k_total, dtype=bool)
    newjob[0] = True
    np.not_equal(all_jobs[1:], all_jobs[:-1], out=newjob[1:])
    starts = np.flatnonzero(newjob)
    counts = np.diff(np.append(starts, k_total))
    n_rounds = int(counts.max())

    int32_max = np.iinfo(np.int32).max
    arange_out = np.arange(max_out, dtype=np.int64)
    one64 = np.int64(1)
    pops_parts: list[np.ndarray] = []
    dels_parts: list[np.ndarray] = []
    deljob_parts: list[np.ndarray] = []
    mis_parts: list[np.ndarray] = []
    ssidx_parts: list[np.ndarray] = []
    smid_parts: list[np.ndarray] = []
    sjob_parts: list[np.ndarray] = []

    for round_k in range(n_rounds):
        sel = starts[counts > round_k] + round_k
        if sel.size < _VEC_MIN_ROUND:
            # Every pass of rank >= round_k is still owed; sorted row order
            # keeps each job's passes in ascending node order, so the scalar
            # replay consumes each stream exactly where this round left it.
            if round_k:
                rank = np.arange(k_total) - np.repeat(starts, counts)
                rest = rank >= round_k
                rest_rows, rest_w0 = rows[rest], w0s[rest]
            else:
                rest_rows, rest_w0 = rows, w0s
            _resume_python(
                st, rest_rows, rest_w0, n_occ, serve_fid, mid_t, dest_flat,
                free_arr, local_free_arr, sent, draws, M, NFp,
                pops_parts, dels_parts, deljob_parts, mis_parts,
                ssidx_parts, smid_parts, sjob_parts,
            )
            break
        rrows = rows[sel]
        rjobs = all_jobs[sel]
        rnodes = rrows - rjobs * n
        pos = w0s[sel].copy()
        end = n_occ[rrows].astype(np.int64)
        fr = free_arr[rrows].astype(np.int64)
        lf = local_free_arr[rrows].copy()
        jb_nf = rjobs * NFp
        jb_m = rjobs * M
        spb = rnodes.astype(np.int64) * n
        tgt_base = rnodes * max_out
        sfid = serve_fid[rrows]  # (k, fmax)
        arange_k = np.arange(rrows.size)
        popcount, defl_pick = st.popcount, st.defl_pick
        while True:
            # All per-pass columns stay compressed to the passes still
            # walking their serving positions, so every op below is dense.
            m = mid_t[pos, rrows]
            d = dest_flat[jb_m + m]
            isloc = d == rnodes
            dlv = isloc & lf
            if asp:
                ap_idx = spb + d
                ports = st.ap_flat[ap_idx]  # (k, K)
                kr = np.arange(st.ap_k, dtype=np.int32)
                usable = (kr < st.ap_cnt_flat[ap_idx][:, None]) & (
                    ((fr[:, None] >> ports) & 1) > 0
                )
                cost = sent[(rrows[:, None].astype(np.int64) * max_out) + ports]
                score = np.where(usable, cost * (st.ap_k + 1) + kr, int32_max)
                best = np.argmin(score, axis=1)
                ar = arange_k[: rrows.size]
                has_port = score[ar, best] != int32_max
                out_q = ports[ar, best].astype(np.int64)
                can = ~isloc & has_port
            else:
                out_q = st.sp_flat[spb + d].astype(np.int64)
                can = ~isloc & (((fr >> out_q) & 1) > 0)
            send_m = can
            if scm:
                needs = ~(isloc | can) & (fr != 0)
                ni = np.flatnonzero(needs)
                if ni.size:
                    fm = fr[ni]
                    if defl_pick is not None:
                        # The drawn port is the r-th set bit of the free mask
                        # (ascending, as the scalar candidate lists) — both
                        # count and pick come from the dense mask lookups.
                        ncand = popcount[fm]
                        rdraw = draws.draw_batch(
                            rjobs[ni], ncand, shifts=st.shift_tab[ncand]
                        )
                        out_q[ni] = defl_pick[fm, rdraw]
                    else:
                        bits = (fm[:, None] >> arange_out) & 1  # (kn, max_out)
                        ncand = bits.sum(axis=1)
                        rdraw = draws.draw_batch(
                            rjobs[ni], ncand, shifts=st.shift_tab[ncand]
                        )
                        csum = np.cumsum(bits, axis=1)
                        out_q[ni] = np.argmax(
                            (csum == (rdraw + 1)[:, None]) & (bits > 0), axis=1
                        )
                    send_m = send_m | needs
                    mis_parts.append(jb_m[ni] + m[ni])
            di = np.flatnonzero(dlv)
            si = np.flatnonzero(send_m)
            if di.size:
                pops_parts.append(jb_nf[di] + sfid[di, pos[di]])
                dels_parts.append(jb_m[di] + m[di])
                deljob_parts.append(rjobs[di])
                lf &= ~dlv
            if si.size:
                qo = out_q[si]
                fr &= ~((one64 << out_q) * send_m)
                pops_parts.append(jb_nf[si] + sfid[si, pos[si]])
                if asp:
                    sent[rrows[si].astype(np.int64) * max_out + qo] += 1
                ssidx_parts.append(jb_nf[si] + st.tgt_flat[tgt_base[si] + qo])
                smid_parts.append(m[si])
                sjob_parts.append(rjobs[si])
            pos += 1
            keep = pos < end
            if not keep.any():
                break
            if not keep.all():
                rrows = rrows[keep]
                rjobs = rjobs[keep]
                rnodes = rnodes[keep]
                pos = pos[keep]
                end = end[keep]
                fr = fr[keep]
                lf = lf[keep]
                jb_nf = jb_nf[keep]
                jb_m = jb_m[keep]
                spb = spb[keep]
                tgt_base = tgt_base[keep]
                sfid = sfid[keep]
        # free / local-port state is per cycle; nothing else to write back.

    if pops_parts:
        parr = np.concatenate(pops_parts)
        heads[parr] += 1
        occ[parr] -= 1
        upd_parts.append(parr)
        chg_parts.append(parr)
    if dels_parts:
        del_cycle_flat[np.concatenate(dels_parts)] = cycle
        delivered_j += np.bincount(
            np.concatenate(deljob_parts), minlength=J
        ).astype(np.int64)
    if mis_parts:
        mis_flat[np.concatenate(mis_parts)] = 1
    if ssidx_parts:
        sarr = np.concatenate(ssidx_parts).astype(np.int32)
        pos = lens[sarr]
        if int(pos.max()) >= L:
            buf, L = _grow(buf, len(lens), L)
        buf[sarr * L + pos] = np.concatenate(smid_parts)
        lens[sarr] += 1
        send_idx_parts.append(sarr)
        send_job_parts.append(np.concatenate(sjob_parts).astype(np.int32))
    return buf, L


def _resume_python(
    st, rows, w0s, n_occ, serve_fid, mid_t, dest_flat, free_arr,
    local_free_arr, sent, draws, M, NFp,
    pops_parts, dels_parts, deljob_parts, mis_parts,
    ssidx_parts, smid_parts, sjob_parts,
):
    """Scalar replay of a small set of suspended passes, in sorted row order.

    A direct port of the scalar engine's serve loop over plain Python lists:
    the per-candidate values are gathered in a handful of batched reads, the
    loop itself touches no NumPy state, and its pops / deliveries / pushes
    are appended to the caller's scatter lists.  ``rows`` must be sorted by
    flat (job, node) id — the per-job stream order — and each drawing
    candidate consumes its job's word stream through the shared
    :class:`~repro.utils.rng.DeflectionStreams` scalar path, so the replay is
    interchangeable with the vectorized rounds draw for draw.
    """
    n = st.n_nodes
    asp, scm = st.asp_mode, st.scm_mode
    sub_l = rows.tolist()
    jobs = rows // n
    w0_l = w0s.tolist()
    sf_l = serve_fid[rows].tolist()
    mids = mid_t[:, rows]  # (wmax, r)
    mid_l = mids.T.tolist()
    dest_l = dest_flat[(jobs * M)[None, :] + mids].T.tolist()
    free_l = free_arr[rows].tolist()
    lf_l = local_free_arr[rows].tolist()
    nocc_l = n_occ[rows].tolist()
    if asp:
        sent2 = sent.reshape(-1, st.max_out)
        sent_l = sent2[rows].tolist()
    sp_list, tgt_list = st.sp_list, st.tgt_list
    deflect_sets = st.deflect_sets
    # Inlined DeflectionStreams state: the bounded word walk below is the
    # scalar draw() with the per-call overhead stripped (the cursor array and
    # word matrix are shared with the vectorized rounds, draw for draw).
    shift_l = st.shift_tab.tolist()
    cursors = draws._cursors
    chunk = draws.chunk
    counts = draws.draw_counts
    pops: list[int] = []
    dels: list[int] = []
    deljobs: list[int] = []
    mis: list[int] = []
    s_sidx: list[int] = []
    s_mid: list[int] = []
    s_job: list[int] = []

    for i, row in enumerate(sub_l):
        j, node = divmod(row, n)
        free = free_l[i]
        lf = lf_l[i]
        sf, ml, dl = sf_l[i], mid_l[i], dest_l[i]
        jb_m = j * M
        jb_nf = j * NFp
        sp_row = sp_list[node]
        tgt_row = tgt_list[node]
        if asp:
            ap_row = st.ap_rows[node]
            se = sent_l[i]
        out_deg = st.out_deg[node]
        for w in range(w0_l[i], nocc_l[i]):
            mid = ml[w]
            dest = dl[w]
            if dest == node:
                if lf:
                    pops.append(jb_nf + sf[w])
                    dels.append(jb_m + mid)
                    deljobs.append(j)
                    lf = False
                continue
            out = -1
            if asp:
                best_count = -1
                for q in ap_row[dest]:
                    if free >> q & 1:
                        c = se[q]
                        if best_count < 0 or c < best_count:
                            best_count = c
                            out = q
            else:
                q = sp_row[dest]
                if free >> q & 1:
                    out = q
            if out < 0:
                if not scm or not free:
                    continue
                candidates = deflect_sets.get(free)
                if candidates is None:
                    candidates = tuple(q for q in range(out_deg) if free >> q & 1)
                    deflect_sets[free] = candidates
                n_cand = len(candidates)
                shift = shift_l[n_cand]
                cursor = int(cursors[j])
                if cursor == chunk:
                    word_row = draws._refill(j)[j]
                    cursor = 0
                else:
                    word_row = draws._words[j]
                while True:
                    r = int(word_row[cursor]) >> shift
                    cursor += 1
                    if r < n_cand:
                        break
                    if cursor == chunk:
                        word_row = draws._refill(j)[j]
                        cursor = 0
                cursors[j] = cursor
                counts[j] += 1
                out = candidates[r]
                mis.append(jb_m + mid)
            pops.append(jb_nf + sf[w])
            free &= ~(1 << out)
            if asp:
                se[out] += 1
            s_sidx.append(jb_nf + tgt_row[out])
            s_mid.append(mid)
            s_job.append(j)
        # free / local-port state is per cycle; nothing else to write back.

    if pops:
        pops_parts.append(np.array(pops, dtype=np.int64))
    if dels:
        dels_parts.append(np.array(dels, dtype=np.int64))
        deljob_parts.append(np.array(deljobs, dtype=np.int64))
    if mis:
        mis_parts.append(np.array(mis, dtype=np.int64))
    if s_sidx:
        ssidx_parts.append(np.array(s_sidx, dtype=np.int64))
        smid_parts.append(np.array(s_mid, dtype=np.int32))
        sjob_parts.append(np.array(s_job, dtype=np.int64))
    if asp:
        sent2[rows] = sent_l


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
