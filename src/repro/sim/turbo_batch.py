"""Batched duo-binary turbo decoding: vectorised BCJR over ``(batch, ...)``.

This is the turbo twin of :mod:`repro.sim.batch`.  One Python loop over the
trellis serves the whole batch, and each step advances *both* recursions at
once:

* :class:`BatchBCJR` — one Max-Log-MAP SISO activation (paper eqs. (1)-(5))
  over ``(batch, n_couples, 2)`` channel LLRs, with circular-state
  inheritance (``initial_alpha`` / ``initial_beta`` per frame) and the
  extrinsic scaled by :data:`EXTRINSIC_SCALE`,
* :class:`BatchTurboDecoder` — the full iterative decoder: two SISO
  activations per iteration exchanging symbol-level (or bit-level, the NoC's
  BTS/STB path) extrinsic information through the CTC interleaver, with
  per-frame early exit on decision stability — a frame whose hard symbols
  repeat across two successive iterations leaves the active set, so a batch
  costs only as many iterations as its slowest member.

Memory layout: everything is state-major with the batch axis *last*.  The
branch metrics are kept as the 16 distinct values per trellis step (4 parity
combinations x 4 symbols), ``(n_couples, 16, batch)``.  The state lattice is
``(n_couples + 1, 16, batch)``: row ``k`` holds ``alpha[k]`` in its first
eight states and ``beta[n - k]`` in its last eight, so step ``k`` of the one
fused loop reads row ``k`` and writes row ``k + 1``, moving the forward
recursion up and the backward recursion down the trellis together.  Every
max* is an elementwise ``np.maximum`` over four contiguous ``(16, batch)``
edge slabs.  The iterative decoder keeps its whole exchange state-major too
(a-priori, extrinsics and a-posteriori ``(n_couples, 4, batch)``, state
metrics ``(8, batch)``) and runs every activation of a decode in one
:class:`BCJRWorkspace`, so no SISO activation allocates the two large arrays
or transposes anything.  See ``docs/turbo-batching.md``.

:meth:`BatchTurboDecoder.decode_batch` splits a batch large enough to pay
for it into one frame shard per CPU on the process's worker pool
(:mod:`repro.utils.pool`); :meth:`BatchTurboDecoder.decode_split` is the
serial core every shard runs.  Frames never interact, so the split changes
no output bit.

They are the library's only turbo decoders: one frame is a batch of one.
``tests/test_turbo_batch.py`` pins the kernel bit for bit to the seed
per-frame recursion and shows that stacking frames changes nothing (same
hard symbols, extrinsics, iteration counts, convergence flags as each frame
decoded alone).  A decoder is configured once, at construction: its options
are read-only properties.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DecodingError
from repro.turbo.bits import bit_to_symbol_extrinsic, symbol_to_bit_extrinsic
from repro.turbo.encoder import TurboEncoder
from repro.turbo.trellis import NUM_STATES, NUM_SYMBOLS, DuoBinaryTrellis
from repro.utils.pool import available_cpus, run_on_pool, shared_pool
from repro.utils.validation import require_bool, require_int

#: Extrinsic scaling factor ``sigma`` of paper Section II-A, hard-wired in
#: the SISOs: it offsets the Max-Log-MAP approximation's overconfidence.
EXTRINSIC_SCALE = 0.75

#: Trellis steps whose branch-metric slabs the fused recursion gathers at
#: once: enough to amortise the gather call, few enough to stay in cache.
_CHUNK = 64

#: Distinct branch metrics per trellis step: 4 parity combinations x 4 symbols.
_DISTINCT = 4 * NUM_SYMBOLS

#: Element order of a couple without (row 0) and with (row 1) the CTC
#: intra-couple swap of bits A and B: symbols 1 = (0, 1) and 2 = (1, 0)
#: trade places, and an (A, B) pair reverses.
_SYMBOL_ORDERS = np.array([[0, 1, 2, 3], [0, 2, 1, 3]])
_PAIR_ORDERS = np.array([[0, 1], [1, 0]])

#: Fewest couple-frames (frames x couples) each frame shard of
#: :meth:`BatchTurboDecoder.decode_batch` must hold before the batch is split
#: across processes.  Sized from the ``sharded_vs_serial`` grid of
#: ``benchmarks/BENCH_turbo_batch_throughput.json`` (CTC 48 to 2400 at
#: batches 4 to 64, two CPUs, warm pool): the fewest couple-frames per shard
#: from which sharding won the median at that size and every larger one.
#: Five runs of the grid read 7 680, 3 840, 7 680, 7 680 and 15 360; the
#: constant is their median.  Smaller shards lose to the pool's round trip
#: (0.60-0.93x at CTC 48 batches 4 and 8), and the decode service's CTC 48
#: batches of 1-3 sit far below it.
_SHARD_MIN_COUPLES = 7_680


@dataclass
class BatchBCJRResult:
    """Output of one batched SISO activation.

    All arrays carry the batch axis first; shapes are given for a batch of
    ``B`` frames of ``n`` couples each.
    """

    #: ``(B, n, 4)`` a-posteriori symbol log-probability differences.
    aposteriori: np.ndarray
    #: ``(B, n, 4)`` extrinsic output (already scaled by :data:`EXTRINSIC_SCALE`).
    extrinsic: np.ndarray
    #: ``(B, n)`` hard symbol decisions per trellis step.
    hard_symbols: np.ndarray
    #: ``(B, 8)`` final forward state metrics (circular-state inheritance).
    final_alpha: np.ndarray
    #: ``(B, 8)`` final backward state metrics.
    final_beta: np.ndarray


class BatchBCJR:
    """Max-Log-MAP BCJR over ``(batch, n_couples, ...)`` tensors.

    :meth:`decode_state_major` is the one SISO core; :meth:`decode_batch` is
    a batch-major adapter over it.  max* is the plain maximum, the paper's
    choice for double-binary codes, and the extrinsic is scaled by
    :data:`EXTRINSIC_SCALE`.

    Symbol-level quantities (a-priori, a-posteriori, extrinsic) are
    length-4 vectors of log-probability differences with respect to symbol
    0: element ``u`` holds ``log p(u)/p(0)``.
    """

    __slots__ = (
        "_trellis", "_sym_a_sign", "_sym_b_sign", "_metric_index", "_next_state",
        "_step_rows", "_step_metrics",
    )

    def __init__(self, trellis: DuoBinaryTrellis | None = None):
        self._trellis = trellis if trellis is not None else DuoBinaryTrellis()
        next_state = self._trellis.next_state_table()  # (8, 4)
        in_state, in_symbol = self._trellis.incoming_table()  # (8, 4) each
        parity = self._trellis.parity_table().astype(np.int64)  # (8, 4, 2)
        symbols = np.arange(NUM_SYMBOLS)
        # Correlation signs (1 - 2*bit) for the systematic bits A and B.
        self._sym_a_sign = (1 - 2 * ((symbols >> 1) & 1)).astype(np.float64)  # (4,)
        self._sym_b_sign = (1 - 2 * (symbols & 1)).astype(np.float64)  # (4,)
        # Edge (state s, symbol u) carries distinct metric number
        # 4 * (parity combination) + u, the combination being 2*Y + W.
        self._metric_index = ((parity[:, :, 0] << 1) | parity[:, :, 1]) * NUM_SYMBOLS + symbols
        self._next_state = next_state
        # One fused step over the (4 edges, 16 states) slab.  Column t < 8 is
        # forward state t, whose j-th edge comes from in_state[t, j] with
        # symbol in_symbol[t, j]; column 8 + s is backward state s, whose
        # j-th edge is symbol j into next_state[s, j].  ``_step_rows`` picks
        # each edge's source in the lattice row; ``_step_metrics`` picks its
        # branch metric from the 32 values [metrics[k], metrics[n - 1 - k]].
        self._step_rows = np.concatenate((in_state.T, NUM_STATES + next_state.T), axis=1)
        self._step_metrics = np.concatenate(
            (self._metric_index[in_state, in_symbol].T, _DISTINCT + self._metric_index.T),
            axis=1,
        )

    @property
    def trellis(self) -> DuoBinaryTrellis:
        """The trellis section this SISO runs on."""
        return self._trellis

    # ------------------------------------------------------------------ #
    # Branch metrics
    # ------------------------------------------------------------------ #
    def _systematic_metrics(self, sys_t: np.ndarray) -> np.ndarray:
        """``0.5 * (±A ± B)`` per symbol: ``(n, 2, batch)`` LLRs -> ``(n, 4, batch)``."""
        systematic = self._sym_a_sign[:, None] * sys_t[:, 0:1]
        systematic += self._sym_b_sign[:, None] * sys_t[:, 1:2]
        systematic *= 0.5
        return systematic

    @staticmethod
    def _distinct_metrics(
        par_t: np.ndarray, systematic: np.ndarray, apr_t: np.ndarray, out: np.ndarray
    ) -> None:
        """Write the 16 distinct branch metrics per step into ``out`` ``(n, 16, batch)``.

        Bit metrics use the symmetric correlation form ``0.5 * (1 - 2*bit) * LLR``
        with the convention ``LLR = log p(0)/p(1)``.  Metric ``4*c + u`` is
        ``(parity_c + systematic_u) + apriori_u`` for parity combination
        ``c = 2*Y + W`` and symbol ``u``, summed in that order; the sign
        arithmetic is exact, so every edge's metric has the bit pattern of the
        naive per-edge sum.
        """
        n, _, batch = par_t.shape
        y_llr, w_llr = par_t[:, 0], par_t[:, 1]
        parity = np.empty((n, 4, batch), dtype=np.float64)
        np.add(y_llr, w_llr, out=parity[:, 0])  # Y=0, W=0 -> both signs +
        np.subtract(y_llr, w_llr, out=parity[:, 1])  # Y=0, W=1
        np.subtract(w_llr, y_llr, out=parity[:, 2])  # Y=1, W=0
        np.negative(parity[:, 0], out=parity[:, 3])  # Y=1, W=1
        parity *= 0.5
        metrics = out.reshape(n, 4, NUM_SYMBOLS, batch)  # (n, 4 combos, 4 symbols, batch)
        np.add(parity[:, :, None], systematic[:, None], out=metrics)
        metrics += apr_t[:, None]

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_batch(
        self,
        systematic_llrs: np.ndarray,
        parity_llrs: np.ndarray,
        apriori: np.ndarray | None = None,
        initial_alpha: np.ndarray | None = None,
        initial_beta: np.ndarray | None = None,
    ) -> BatchBCJRResult:
        """Run one SISO activation over a ``(batch, n_couples, 2)`` LLR batch.

        A batch-major adapter over :meth:`decode_state_major` (which the
        iterative decoder calls directly); it alone computes ``hard_symbols``.

        Parameters
        ----------
        systematic_llrs:
            ``(batch, n_couples, 2)`` channel LLRs of the systematic bits (A, B).
        parity_llrs:
            ``(batch, n_couples, 2)`` channel LLRs of the parity bits (Y, W);
            use 0 for punctured bits.
        apriori:
            ``(batch, n_couples, 4)`` symbol-level a-priori information
            (``log p(u)/p(0)``); zeros when omitted.
        initial_alpha / initial_beta:
            ``(batch, 8)`` state-metric initialisations for the circular
            trellis (metric inheritance across turbo iterations); uniform
            when omitted.
        """
        sys_llrs = np.asarray(systematic_llrs, dtype=np.float64)
        par_llrs = np.asarray(parity_llrs, dtype=np.float64)
        if sys_llrs.ndim != 3 or sys_llrs.shape[2] != 2:
            raise DecodingError(
                "systematic_llrs must have shape (batch, n_couples, 2), "
                f"got {sys_llrs.shape}"
            )
        if par_llrs.shape != sys_llrs.shape:
            raise DecodingError("parity_llrs must have the same shape as systematic_llrs")
        batch, n = sys_llrs.shape[:2]
        if apriori is None:
            apr_t = np.zeros((n, NUM_SYMBOLS, batch), dtype=np.float64)
        else:
            apriori_arr = np.asarray(apriori, dtype=np.float64)
            if apriori_arr.shape != (batch, n, NUM_SYMBOLS):
                raise DecodingError(
                    f"apriori must have shape ({batch}, {n}, {NUM_SYMBOLS}), "
                    f"got {apriori_arr.shape}"
                )
            apr_t = apriori_arr.transpose(1, 2, 0)
        apo, extrinsic, final_alpha, final_beta = self.decode_state_major(
            sys_llrs.transpose(1, 2, 0),
            par_llrs.transpose(1, 2, 0),
            apr_t,
            self._state_major_init(initial_alpha, batch),
            self._state_major_init(initial_beta, batch),
            BCJRWorkspace(n, batch),
        )
        aposteriori = np.ascontiguousarray(apo.transpose(2, 0, 1))  # (batch, n, 4)
        return BatchBCJRResult(
            aposteriori=aposteriori,
            extrinsic=np.ascontiguousarray(extrinsic.transpose(2, 0, 1)),
            hard_symbols=np.argmax(aposteriori, axis=2).astype(np.int64),
            final_alpha=np.ascontiguousarray(final_alpha.T),
            final_beta=np.ascontiguousarray(final_beta.T),
        )

    def decode_state_major(
        self,
        sys_t: np.ndarray,
        par_t: np.ndarray,
        apr_t: np.ndarray,
        initial_alpha: np.ndarray,
        initial_beta: np.ndarray,
        workspace: "BCJRWorkspace",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The SISO core: one activation on state-major arrays, batch axis last.

        Takes ``(n, 2, b)`` systematic and parity LLRs, the ``(n, 4, b)``
        a-priori and ``(8, b)`` initial state metrics; the branch metrics and
        the lattice live in ``workspace`` (sized for at least ``b`` frames).
        Inputs are only read.  Returns ``(aposteriori, extrinsic,
        final_alpha, final_beta)`` shaped ``(n, 4, b)``, ``(n, 4, b)``,
        ``(8, b)`` and ``(8, b)``, the extrinsic already scaled.
        """
        n, _, batch = sys_t.shape
        metrics, lattice = workspace.views(n, batch)
        systematic = self._systematic_metrics(sys_t)
        self._distinct_metrics(par_t, systematic, apr_t, metrics)
        np.subtract(initial_alpha, np.amax(initial_alpha, axis=0), out=lattice[0, :NUM_STATES])
        np.subtract(initial_beta, np.amax(initial_beta, axis=0), out=lattice[0, NUM_STATES:])
        self._recurse(metrics, lattice)
        apo = self._aposteriori(metrics, lattice)
        final_alpha = lattice[n, :NUM_STATES].copy()
        final_beta = lattice[n, NUM_STATES:].copy()

        apo -= apo[:, 0:1]
        systematic -= systematic[:, 0:1]
        extrinsic = np.subtract(apo, systematic, out=systematic)
        extrinsic -= apr_t - apr_t[:, 0:1]
        extrinsic *= EXTRINSIC_SCALE
        return apo, extrinsic, final_alpha, final_beta

    def _recurse(self, metrics: np.ndarray, lattice: np.ndarray) -> None:
        """Fill ``lattice[1:]`` with the fused forward/backward recursion.

        Step ``k`` runs eq. (3) for ``alpha[k + 1]`` and eq. (4) for
        ``beta[n - 1 - k]`` on one ``(4 edges, 16 states, batch)`` slab: the
        edge candidates are source state metric + branch metric, max* folds
        the four edge slabs, and each half is normalised by its own maximum.
        """
        n = metrics.shape[0]
        halves = lattice.reshape(n + 1, 2, NUM_STATES, -1)
        reversed_metrics = metrics[::-1]
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            # Step k's 32 metrics are [metrics[k], metrics[n - 1 - k]]; one
            # gather spreads them over the (4, 16) edge slab of every step.
            pairs = np.concatenate(
                (metrics[start:stop], reversed_metrics[start:stop]), axis=1
            )
            chunk = pairs.take(self._step_metrics, axis=1)  # (steps, 4, 16, batch)
            for k in range(start, stop):
                edges = lattice[k].take(self._step_rows, axis=0)  # (4, 16, batch)
                edges += chunk[k - start]
                np.maximum.reduce(edges, axis=0, out=lattice[k + 1])
                half = halves[k + 1]
                half -= np.maximum.reduce(half, axis=1, keepdims=True)

    def _aposteriori(self, metrics: np.ndarray, lattice: np.ndarray) -> np.ndarray:
        """Unnormalised symbol a-posteriori ``(n, 4, batch)``, eq. (1).

        Each edge's metric is ``(gamma + alpha[k][s]) + beta[k + 1][next]``,
        folded over the originating state ``s`` with max*, a chunk of trellis
        steps at a time so the ``(steps, 8, 4, batch)`` edge block stays in
        cache.
        """
        n, _, batch = metrics.shape
        alpha = lattice[:n, :NUM_STATES, None]  # alpha[k] for k < n
        beta_next = lattice[:n][::-1, NUM_STATES:]  # beta[k + 1]
        apo = np.empty((n, NUM_SYMBOLS, batch), dtype=np.float64)
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            edges = metrics[start:stop].take(self._metric_index, axis=1)
            edges += alpha[start:stop]
            edges += beta_next[start:stop].take(self._next_state, axis=1)
            np.maximum.reduce(edges, axis=1, out=apo[start:stop])
        return apo

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _state_major_init(init, batch: int) -> np.ndarray:
        """A ``(batch, 8)`` state-metric init as ``(8, batch)``; zeros when omitted."""
        if init is None:
            return np.zeros((NUM_STATES, batch), dtype=np.float64)
        arr = np.asarray(init, dtype=np.float64)
        if arr.shape != (batch, NUM_STATES):
            raise DecodingError(
                f"state-metric init must have shape ({batch}, {NUM_STATES}), "
                f"got {tuple(arr.shape)}"
            )
        return arr.T


class BCJRWorkspace:
    """Backing store for the branch metrics and lattice of SISO activations.

    Sized once for ``n`` trellis steps and up to ``batch`` frames; each
    activation views a contiguous prefix, so an activation on fewer frames
    (an early-exit active set) reuses the same pages.  Fresh arrays of this
    size would be returned to the OS on free and faulted in again by the
    next activation.  Not shareable between concurrent decodes.
    """

    def __init__(self, n: int, batch: int):
        self._metrics = np.empty(n * _DISTINCT * batch, dtype=np.float64)
        self._lattice = np.empty((n + 1) * 2 * NUM_STATES * batch, dtype=np.float64)

    def views(self, n: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """``(n, 16, batch)`` metrics and ``(n + 1, 16, batch)`` lattice views."""
        metrics = self._metrics[: n * _DISTINCT * batch].reshape(n, _DISTINCT, batch)
        lattice = self._lattice[: (n + 1) * 2 * NUM_STATES * batch]
        return metrics, lattice.reshape(n + 1, 2 * NUM_STATES, batch)


def _reorder(values: np.ndarray, flat_index: np.ndarray) -> np.ndarray:
    """Gather state-major ``(n, width, batch)`` values through a flat ``n * width`` row index."""
    n, width, batch = values.shape
    return values.reshape(n * width, batch).take(flat_index, axis=0).reshape(n, width, batch)


def _state_major(values: np.ndarray) -> np.ndarray:
    """``(batch, n, width)`` as a contiguous state-major ``(n, width, batch)`` array."""
    return np.ascontiguousarray(values.transpose(1, 2, 0))


def _hard_symbols(apo: np.ndarray) -> np.ndarray:
    """``np.argmax(apo, axis=1)`` of a NaN-free state-major ``(n, 4, b)`` array.

    A first-max compare chain over the four contiguous ``(n, b)`` symbol
    slices: a later symbol wins only when strictly larger, so ties keep the
    lowest symbol, as argmax does.  Returned as ``int8``.
    """
    a0, a1, a2, a3 = apo[:, 0], apo[:, 1], apo[:, 2], apo[:, 3]
    hard = np.greater(a1, a0).view(np.int8)
    best = np.maximum(a0, a1)
    hard = np.where(np.greater(a2, best), np.int8(2), hard)
    np.maximum(best, a2, out=best)
    return np.where(np.greater(a3, best), np.int8(3), hard)


def _couple_gather(source: np.ndarray, swapped: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Flat index taking couple ``source[i]`` to couple ``i`` of a ``(n, width)`` array.

    Couple ``i``'s elements follow ``orders[swapped[i]]``.
    """
    width = orders.shape[1]
    index = orders.take(swapped, axis=0)  # (n, width)
    index += (source * width)[:, None]
    return index.ravel()


@dataclass
class BatchTurboResult:
    """Outcome of one batched turbo decode.

    Attributes
    ----------
    hard_bits:
        ``(batch, 2 * n_couples)`` int8 information-bit decisions (the turbo
        code is systematic, so these are the decoded payload bits — unlike
        the LDPC :class:`~repro.sim.batch.BatchDecodeResult`, which decides
        whole codewords).
    hard_symbols:
        ``(batch, n_couples)`` couple-symbol decisions ``u = 2A + B``.
    aposteriori:
        ``(batch, n_couples, 4)`` final symbol a-posteriori vectors in
        natural order (from the last iteration each frame actually ran).
    iterations:
        ``(batch,)`` full turbo iterations each frame ran (a frame that
        early-exits at iteration ``i`` reports ``i``).
    converged:
        ``(batch,)`` per-frame decision-stability flags (hard symbols
        identical in two successive iterations, latched).
    decision_changes:
        One list per frame of the symbol-decision changes after every
        iteration from the second onward (the early-exit statistic).
    """

    hard_bits: np.ndarray
    hard_symbols: np.ndarray
    aposteriori: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    decision_changes: list[list[int]] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        """Number of frames in this result."""
        return int(self.hard_bits.shape[0])

    def frame(self, index: int) -> tuple[np.ndarray, int, bool]:
        """Extract frame ``index`` as ``(hard_bits, iterations, converged)``.

        Mirrors :meth:`repro.sim.batch.BatchDecodeResult.frame` so the decode
        service can resolve per-request futures uniformly across families;
        the bits are the decoded *information* bits (this decoder sets
        ``decides_info_bits``), returned as a fresh copy.
        """
        return (
            self.hard_bits[index].copy(),
            int(self.iterations[index]),
            bool(self.converged[index]),
        )


class BatchTurboDecoder:
    """Iterative duo-binary turbo decoder over ``(batch, ...)`` LLR arrays.

    Satisfies the :class:`repro.sim.batch.BatchDecoder` protocol
    (``n_bits`` / ``decode_batch``), so :class:`repro.sim.runner.BerRunner`
    drives it exactly like the batched LDPC decoders: ``decode_batch`` takes
    the flat ``(batch, n)`` channel LLRs of the transmitted sub-blocks
    (systematic, parity1, parity2 — the :meth:`TurboCodeword.to_bit_array`
    layout) and returns information-bit decisions.

    Circular-trellis state metrics are inherited across iterations, the
    standard approach for CRSC codes.  The SISOs run Max-Log-MAP with the
    extrinsic scaled by :data:`EXTRINSIC_SCALE`.

    Parameters
    ----------
    encoder:
        The encoder whose frames are being decoded (provides block size,
        interleaver and rate).
    max_iterations:
        Number of full iterations (two SISO activations each); the paper uses 8.
    algorithm:
        Must be ``"max-log"``, the one SISO arithmetic; accepted so that
        callers naming it keep working, and any other value raises
        :class:`DecodingError`.
    bit_level_exchange:
        When true, extrinsic information is collapsed to bit level and rebuilt
        at the receiving SISO, mimicking the BTS/STB path used on the NoC
        (paper Section IV-B, ~0.2 dB loss).
    early_termination:
        Remove a frame from the active set as soon as its hard symbol
        decisions are identical in two successive iterations.
    """

    __slots__ = (
        "_encoder", "_max_iterations", "_bit_level_exchange", "_early_termination",
        "_siso", "_n_couples", "_interleave_symbols", "_interleave_bits",
        "_deinterleave_symbols",
    )

    def __init__(
        self,
        encoder: TurboEncoder,
        max_iterations: int = 8,
        algorithm: str = "max-log",
        bit_level_exchange: bool = False,
        early_termination: bool = True,
    ):
        require_int("max_iterations", max_iterations, 1, DecodingError)
        if algorithm != "max-log":
            raise DecodingError(f"algorithm must be 'max-log', got {algorithm!r}")
        require_bool("bit_level_exchange", bit_level_exchange, DecodingError)
        require_bool("early_termination", early_termination, DecodingError)
        self._encoder = encoder
        self._max_iterations = int(max_iterations)
        self._bit_level_exchange = bool(bit_level_exchange)
        self._early_termination = bool(early_termination)
        self._siso = BatchBCJR(encoder.trellis)
        self._n_couples = encoder.n_couples
        # Interleaved couple i is natural couple perm[i], its bits A and B
        # swapped (symbols 1 and 2 exchanged) where the swap flag is set.
        # Each reorder is one flat gather; deinterleaving is the inverse
        # permutation of the symbol gather.
        perm = encoder.interleaver.permutation()
        swapped = encoder.interleaver.swap_flags()[perm]  # 0/1 per interleaved couple
        self._interleave_symbols = _couple_gather(perm, swapped, _SYMBOL_ORDERS)
        self._interleave_bits = _couple_gather(perm, swapped, _PAIR_ORDERS)
        self._deinterleave_symbols = np.empty_like(self._interleave_symbols)
        self._deinterleave_symbols[self._interleave_symbols] = np.arange(
            self._interleave_symbols.size
        )

    #: The turbo decoder decides the (systematic) information bits, not the
    #: whole codeword — :class:`repro.sim.runner.BerRunner` reads this flag
    #: to pick the error-count reference (LDPC decoders leave it unset/False).
    decides_info_bits = True

    @property
    def encoder(self) -> TurboEncoder:
        """The encoder whose frames this decoder decodes."""
        return self._encoder

    @property
    def max_iterations(self) -> int:
        """Maximum number of full turbo iterations per frame."""
        return self._max_iterations

    @property
    def bit_level_exchange(self) -> bool:
        """Exchange bit-level (BTS/STB) instead of symbol-level extrinsics."""
        return self._bit_level_exchange

    @property
    def early_termination(self) -> bool:
        """Stop a frame once its hard decisions repeat across iterations."""
        return self._early_termination

    @property
    def n_bits(self) -> int:
        """Flat channel-LLR length each frame must have (``encoder.n``)."""
        return self._encoder.n

    def _maybe_bit_level(self, extrinsic: np.ndarray) -> np.ndarray:
        """Apply the STB -> network -> BTS round trip when bit-level exchange is on.

        ``extrinsic`` is state-major ``(n, 4, batch)``; the conversion is
        elementwise per couple, so it runs on the symbol-last view.
        """
        if not self._bit_level_exchange:
            return extrinsic
        symbol_last = np.moveaxis(extrinsic, 1, -1)
        return np.moveaxis(bit_to_symbol_extrinsic(symbol_to_bit_extrinsic(symbol_last)), -1, 1)

    # ------------------------------------------------------------------ #
    # LLR plumbing
    # ------------------------------------------------------------------ #
    def split_llrs_batch(
        self, llrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split flat ``(batch, n)`` LLR arrays into the three sub-blocks.

        Returns ``(systematic, parity1, parity2)`` shaped
        ``(batch, n_couples, 2)``; punctured W positions receive LLR 0.
        Each is a view of a contiguous state-major ``(n_couples, 2, batch)``
        array, the layout :meth:`decode_split` decodes in, so handing them
        on costs no copy.
        """
        arr = np.asarray(llrs, dtype=np.float64)
        n = self._n_couples
        rate = self._encoder.rate
        expected_len = 4 * n if rate == "1/2" else 6 * n
        if arr.ndim != 2 or arr.shape[1] != expected_len:
            raise DecodingError(
                f"expected (batch, {expected_len}) LLRs for rate "
                f"{rate}, got shape {arr.shape}"
            )
        batch = arr.shape[0]
        blocks = np.zeros((3, n, 2, batch), dtype=np.float64)
        blocks[0] = arr[:, : 2 * n].reshape(batch, n, 2).transpose(1, 2, 0)
        if rate == "1/2":
            blocks[1, :, 0] = arr[:, 2 * n : 3 * n].T
            blocks[2, :, 0] = arr[:, 3 * n : 4 * n].T
        else:
            blocks[1:] = arr[:, 2 * n :].reshape(batch, 2, n, 2).transpose(1, 2, 3, 0)
        systematic, parity1, parity2 = (block.transpose(2, 0, 1) for block in blocks)
        return systematic, parity1, parity2

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_batch(self, channel_llrs: np.ndarray) -> BatchTurboResult:
        """Decode flat ``(batch, n)`` channel LLRs (the BerRunner entry point).

        A batch large enough (:func:`_shard_count`) is split into one
        contiguous frame shard per CPU: all but the first go to the shared
        worker pool (:mod:`repro.utils.pool`), the first is decoded here with
        :meth:`decode_split`, and the shards' results are joined in frame
        order.  Frames never interact, so the result is bit-identical to
        :meth:`decode_split` on the whole batch.

        Raises
        ------
        DecodingError
            If the LLRs are malformed, or if the worker pool breaks (a worker
            process died) while a shard is out; the pool's error is chained
            and the next sharded call builds a fresh pool.
        """
        split = self.split_llrs_batch(channel_llrs)
        batch = split[0].shape[0]
        shards = _shard_count(batch, self._n_couples)
        if shards == 1:
            return self.decode_split(*split)
        bounds = [batch * i // shards for i in range(shards + 1)]
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        # The remote shards are shipped first, so they decode while this one does.
        parts = run_on_pool(
            shared_pool(shards - 1),
            [(_decode_shard, self, llrs[lo:hi]) for lo, hi in zip(bounds[1:], bounds[2:])],
            lambda exc: DecodingError(
                f"the decoder's worker pool broke before {batch} frames were "
                f"decoded (a worker process died): {exc}"
            ),
            local=lambda: self.decode_split(*(block[: bounds[1]] for block in split)),
        )
        return _join(parts)

    def decode_split(
        self,
        systematic_llrs: np.ndarray,
        parity1_llrs: np.ndarray,
        parity2_llrs: np.ndarray,
    ) -> BatchTurboResult:
        """Decode a batch given per-sub-block LLR arrays.

        Parameters
        ----------
        systematic_llrs:
            ``(batch, n_couples, 2)`` LLRs of (A, B) in natural order.
        parity1_llrs:
            ``(batch, n_couples, 2)`` LLRs of (Y1, W1) in natural order
            (0 for punctured W).
        parity2_llrs:
            ``(batch, n_couples, 2)`` LLRs of (Y2, W2) in interleaved order.
        """
        sys_llrs = np.asarray(systematic_llrs, dtype=np.float64)
        par1 = np.asarray(parity1_llrs, dtype=np.float64)
        par2 = np.asarray(parity2_llrs, dtype=np.float64)
        if sys_llrs.ndim != 3 or sys_llrs.shape[1:] != (self._n_couples, 2):
            raise DecodingError(
                f"systematic LLRs must have shape (batch, {self._n_couples}, 2), "
                f"got {sys_llrs.shape}"
            )
        for name, arr in (("parity1", par1), ("parity2", par2)):
            if arr.shape != sys_llrs.shape:
                raise DecodingError(
                    f"{name} LLRs must have shape {sys_llrs.shape}, got {arr.shape}"
                )
        batch = sys_llrs.shape[0]
        n = self._n_couples

        iterations = np.zeros(batch, dtype=np.int64)
        converged = np.zeros(batch, dtype=bool)
        hard_symbols_out = np.zeros((batch, n), dtype=np.int64)
        apo_out = np.zeros((batch, n, NUM_SYMBOLS), dtype=np.float64)
        changes_hist: list[list[int]] = [[] for _ in range(batch)]

        # The whole exchange runs state-major, batch axis last: (n, width, b).
        # Active working set: frames still decoding, compacted along the
        # batch axis on early exit.  The SISO only reads its inputs, and one
        # workspace sized for the full batch serves every activation.
        act_idx = np.arange(batch)
        act_sys = _state_major(sys_llrs)
        act_sys_int = _reorder(act_sys, self._interleave_bits)
        act_par1 = _state_major(par1)
        act_par2 = _state_major(par2)
        ext_2_to_1 = np.zeros((n, NUM_SYMBOLS, batch), dtype=np.float64)
        alpha1 = np.zeros((NUM_STATES, batch), dtype=np.float64)
        beta1, alpha2, beta2 = alpha1, alpha1, alpha1
        workspace = BCJRWorkspace(n, batch)
        siso = self._siso.decode_state_major
        previous: np.ndarray | None = None

        for iteration in range(self._max_iterations):
            if act_idx.size == 0:
                break
            _, ext, alpha1, beta1 = siso(
                act_sys, act_par1, ext_2_to_1, alpha1, beta1, workspace
            )
            ext_1_to_2 = _reorder(self._maybe_bit_level(ext), self._interleave_symbols)
            del ext, ext_2_to_1  # consumed: not held through the second activation
            apo, ext, alpha2, beta2 = siso(
                act_sys_int, act_par2, ext_1_to_2, alpha2, beta2, workspace
            )
            ext_2_to_1 = _reorder(self._maybe_bit_level(ext), self._deinterleave_symbols)
            apo_natural = _reorder(apo, self._deinterleave_symbols)
            del ext, apo, ext_1_to_2
            hard = _hard_symbols(apo_natural)  # (n, b)
            iterations[act_idx] = iteration + 1

            if previous is None:
                previous = hard
                continue
            changes = np.count_nonzero(hard != previous, axis=0)
            for local, frame in enumerate(act_idx):
                changes_hist[frame].append(int(changes[local]))
            stable = changes == 0
            converged[act_idx[stable]] = True
            if self._early_termination and stable.any():
                done = act_idx[stable]
                hard_symbols_out[done] = hard[:, stable].T
                apo_out[done] = apo_natural[:, :, stable].transpose(2, 0, 1)
                keep = ~stable
                act_idx = act_idx[keep]
                # compress keeps the compacted arrays C-contiguous (fancy
                # indexing of the last axis would make it the slowest one).
                act_sys = act_sys.compress(keep, axis=-1)
                act_sys_int = act_sys_int.compress(keep, axis=-1)
                act_par1 = act_par1.compress(keep, axis=-1)
                act_par2 = act_par2.compress(keep, axis=-1)
                ext_2_to_1 = ext_2_to_1.compress(keep, axis=-1)
                alpha1, beta1 = alpha1.compress(keep, axis=-1), beta1.compress(keep, axis=-1)
                alpha2, beta2 = alpha2.compress(keep, axis=-1), beta2.compress(keep, axis=-1)
                previous = hard.compress(keep, axis=-1)
                apo_natural = apo_natural.compress(keep, axis=-1)
            else:
                previous = hard

        if act_idx.size:
            # Frames still active ran every iteration: their last decisions stand.
            hard_symbols_out[act_idx] = previous.T
            apo_out[act_idx] = apo_natural.transpose(2, 0, 1)

        hard_bits = np.empty((batch, n, 2), dtype=np.int8)
        hard_bits[:, :, 0] = (hard_symbols_out >> 1) & 1
        hard_bits[:, :, 1] = hard_symbols_out & 1
        return BatchTurboResult(
            hard_bits=hard_bits.reshape(batch, 2 * n),
            hard_symbols=hard_symbols_out,
            aposteriori=apo_out,
            iterations=iterations,
            converged=converged,
            decision_changes=changes_hist,
        )


def _shard_count(batch: int, n_couples: int) -> int:
    """Frame shards :meth:`BatchTurboDecoder.decode_batch` splits a batch into.

    One (serial) unless the process may run on two CPUs or more, is not
    itself a child process (a pool worker or a service shard never starts
    a pool of its own), and each of the CPUs' shards would hold at least
    :data:`_SHARD_MIN_COUPLES` couple-frames; then one shard per CPU, and
    no more shards than frames.
    """
    cpus = available_cpus()
    if (
        cpus < 2
        or multiprocessing.parent_process() is not None
        or batch * n_couples < _SHARD_MIN_COUPLES * cpus
    ):
        return 1
    return min(cpus, batch)


def _decode_shard(decoder: BatchTurboDecoder, channel_llrs: np.ndarray) -> BatchTurboResult:
    """Pool-worker entry point: decode one frame shard serially."""
    return decoder.decode_split(*decoder.split_llrs_batch(channel_llrs))


def _join(parts: list[BatchTurboResult]) -> BatchTurboResult:
    """One result from the results of consecutive frame shards, in order."""
    return BatchTurboResult(
        hard_bits=np.concatenate([part.hard_bits for part in parts]),
        hard_symbols=np.concatenate([part.hard_symbols for part in parts]),
        aposteriori=np.concatenate([part.aposteriori for part in parts]),
        iterations=np.concatenate([part.iterations for part in parts]),
        converged=np.concatenate([part.converged for part in parts]),
        decision_changes=[changes for part in parts for changes in part.decision_changes],
    )
