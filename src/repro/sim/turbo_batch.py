"""Batched duo-binary turbo decoding: vectorised BCJR over ``(batch, ...)``.

This is the turbo twin of :mod:`repro.sim.batch`.  The per-frame BCJR in
:mod:`repro.turbo.bcjr` pays Python interpreter overhead for every trellis
step of every frame; here the alpha/beta forward–backward recursions and the
gamma branch metrics run as dense tensor operations over
``(batch, n_couples, 8, 4)`` arrays, so one pass over the trellis serves the
whole batch:

* :class:`BatchBCJR` — one SISO activation over ``(batch, n_couples, 2)``
  channel LLRs in Max-Log-MAP or Log-MAP flavour, with circular-state
  inheritance (``initial_alpha`` / ``initial_beta`` per frame) and extrinsic
  scaling, exactly mirroring :class:`repro.turbo.bcjr.BCJRDecoder`,
* :class:`BatchTurboDecoder` — the full iterative decoder: two SISO
  activations per iteration exchanging symbol-level (or bit-level, the NoC's
  BTS/STB path) extrinsic information through the CTC interleaver, with
  per-frame early exit on decision stability — a frame whose hard symbols
  repeat across two successive iterations leaves the active set, so a batch
  costs only as many iterations as its slowest member.

Memory layout: the hot arrays are ``gamma`` of shape
``(batch, n_couples, 8, 4)`` and the state-metric lattices ``alpha`` /
``beta`` of shape ``(batch, n_couples + 1, 8)``, all float64 and C-ordered
with the batch axis leading, so every per-step operation touches contiguous
``(batch, 8, 4)`` slabs.  See ``docs/turbo-batching.md``.

The per-frame :class:`~repro.turbo.bcjr.BCJRDecoder` and
:class:`~repro.turbo.decoder.TurboDecoder` delegate here with ``batch=1``;
``tests/test_turbo_batch.py`` pins down that stacking frames changes nothing
(same hard symbols, extrinsics, iteration counts, convergence flags).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DecodingError
from repro.turbo.bits import bit_to_symbol_extrinsic, symbol_to_bit_extrinsic
from repro.turbo.encoder import TurboEncoder
from repro.turbo.trellis import NUM_STATES, NUM_SYMBOLS, DuoBinaryTrellis

_ALGORITHMS = ("max-log", "log-map")


@dataclass
class BatchBCJRResult:
    """Output of one batched SISO activation.

    All arrays carry the batch axis first; shapes are given for a batch of
    ``B`` frames of ``n`` couples each.
    """

    #: ``(B, n, 4)`` a-posteriori symbol log-probability differences.
    aposteriori: np.ndarray
    #: ``(B, n, 4)`` extrinsic output (already scaled by ``extrinsic_scale``).
    extrinsic: np.ndarray
    #: ``(B, n)`` hard symbol decisions per trellis step.
    hard_symbols: np.ndarray
    #: ``(B, 8)`` final forward state metrics (circular-state inheritance).
    final_alpha: np.ndarray
    #: ``(B, 8)`` final backward state metrics.
    final_beta: np.ndarray


class BatchBCJR:
    """Max-Log-MAP / Log-MAP BCJR over ``(batch, n_couples, ...)`` tensors.

    Parameters mirror :class:`repro.turbo.bcjr.BCJRDecoder` (which delegates
    here with ``batch=1``): ``algorithm`` selects plain maximum or the exact
    Jacobian ``max*``; ``extrinsic_scale`` is the ``sigma <= 1`` factor of
    paper Section II-A, forced to 1.0 for Log-MAP.
    """

    def __init__(
        self,
        trellis: DuoBinaryTrellis | None = None,
        algorithm: str = "max-log",
        extrinsic_scale: float = 0.75,
    ):
        if algorithm not in _ALGORITHMS:
            raise DecodingError(
                f"algorithm must be 'max-log' or 'log-map', got {algorithm!r}"
            )
        if not 0.0 < extrinsic_scale <= 1.0:
            raise DecodingError(
                f"extrinsic_scale must be in (0, 1], got {extrinsic_scale}"
            )
        self.trellis = trellis if trellis is not None else DuoBinaryTrellis()
        self.algorithm = algorithm
        self.extrinsic_scale = 1.0 if algorithm == "log-map" else float(extrinsic_scale)
        self._next_state = self.trellis.next_state_table()  # (8, 4)
        self._in_state, self._in_symbol = self.trellis.incoming_table()  # (8, 4) each
        parity = self.trellis.parity_table()  # (8, 4, 2)
        symbols = np.arange(NUM_SYMBOLS)
        # Correlation signs (1 - 2*bit) for the systematic and parity bits.
        self._sym_a_sign = (1 - 2 * ((symbols >> 1) & 1)).astype(np.float64)  # (4,)
        self._sym_b_sign = (1 - 2 * (symbols & 1)).astype(np.float64)  # (4,)
        self._y_sign = 1 - 2 * parity[:, :, 0].astype(np.int64)  # (8, 4)
        self._w_sign = 1 - 2 * parity[:, :, 1].astype(np.int64)  # (8, 4)
        # The parity metric takes only four distinct values per trellis step
        # — 0.5*(±Y ± W) — so the build computes those once and gathers them
        # through this (8, 4) combination index (bit 1: Y sign, bit 0: W sign).
        self._parity_combo = (parity[:, :, 0].astype(np.int64) << 1) | parity[
            :, :, 1
        ].astype(np.int64)

    # ------------------------------------------------------------------ #
    # max* helpers
    # ------------------------------------------------------------------ #
    def _maxstar_reduce(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Reduce with max* along ``axis`` (same arithmetic as the per-frame path)."""
        if self.algorithm == "max-log":
            return np.amax(values, axis=axis)
        peak = np.amax(values, axis=axis, keepdims=True)
        return np.log(np.sum(np.exp(values - peak), axis=axis)) + np.squeeze(peak, axis)

    def _logmap_reduce_states(self, values: np.ndarray) -> np.ndarray:
        """Log-MAP max* over the state axis of ``(n, batch, 8, 4)`` metrics.

        Only the Log-MAP a-posteriori uses this (Max-Log-MAP takes the fused
        per-state path in :meth:`decode_batch`).  The peak runs as a chain of
        elementwise ``np.maximum`` calls over the eight state slices instead
        of a middle-axis reduction — 3-4x faster on this layout and
        bit-identical, since ``max`` is exact under any association order.
        """
        peak = np.maximum(values[:, :, 0], values[:, :, 1])
        for state in range(2, NUM_STATES):
            np.maximum(peak, values[:, :, state], out=peak)
        return np.log(np.sum(np.exp(values - peak[:, :, None, :]), axis=2)) + peak

    # ------------------------------------------------------------------ #
    # Branch metrics
    # ------------------------------------------------------------------ #
    def _branch_metrics(
        self,
        systematic_llrs: np.ndarray,
        parity_llrs: np.ndarray,
        apriori: np.ndarray,
    ) -> np.ndarray:
        """Compute ``gamma`` in *time-major* layout ``(n, batch, 8, 4)``.

        Bit metrics use the symmetric correlation form ``0.5 * (1 - 2*bit) * LLR``
        with the convention ``LLR = log p(0)/p(1)``.  Time-major storage makes
        every per-step slab ``gamma[k]`` contiguous, which is what keeps the
        forward/backward Python loops memory-friendly; the arithmetic (and
        hence the bit pattern of every metric) is unchanged.
        """
        sys_tm = np.ascontiguousarray(np.transpose(systematic_llrs, (1, 0, 2)))  # (n, batch, 2)
        par_tm = np.ascontiguousarray(np.transpose(parity_llrs, (1, 0, 2)))
        apr_tm = np.ascontiguousarray(np.transpose(apriori, (1, 0, 2)))  # (n, batch, 4)
        sys_metric = self._sym_a_sign * sys_tm[..., 0:1]
        sys_metric += self._sym_b_sign * sys_tm[..., 1:2]
        sys_metric *= 0.5  # (n, batch, 4)
        # Parity contribution: only four distinct values 0.5*(±Y ± W) exist
        # per step, so compute those and spread them over (8, 4) by gather —
        # one big write instead of three (sign arithmetic is exact, so the
        # bit patterns match the naive 0.5*(y_sign*Y + w_sign*W) form).
        y_llr, w_llr = par_tm[..., 0], par_tm[..., 1]
        combos = np.empty((*y_llr.shape, 4), dtype=np.float64)  # (n, batch, 4)
        combos[..., 0] = y_llr + w_llr  # Y=0, W=0 -> both signs +
        combos[..., 1] = y_llr - w_llr  # Y=0, W=1
        combos[..., 2] = w_llr - y_llr  # Y=1, W=0
        combos[..., 3] = -combos[..., 0]  # Y=1, W=1
        combos *= 0.5
        gamma = combos[:, :, self._parity_combo]  # (n, batch, 8, 4)
        gamma += sys_metric[..., None, :]
        gamma += apr_tm[..., None, :]
        return gamma

    def systematic_symbol_metric(self, systematic_llrs: np.ndarray) -> np.ndarray:
        """Per-symbol systematic metric differences ``lambda_k[c_u] - lambda_k[c_0]``.

        Accepts ``(..., n, 2)`` LLR arrays; leading axes are preserved.
        """
        sys_metric = 0.5 * (
            self._sym_a_sign * systematic_llrs[..., 0:1]
            + self._sym_b_sign * systematic_llrs[..., 1:2]
        )
        return sys_metric - sys_metric[..., 0:1]

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
            apriori_arr = np.zeros((batch, n, NUM_SYMBOLS), dtype=np.float64)
        else:
            apriori_arr = np.asarray(apriori, dtype=np.float64)
            if apriori_arr.shape != (batch, n, NUM_SYMBOLS):
                raise DecodingError(
                    f"apriori must have shape ({batch}, {n}, {NUM_SYMBOLS}), "
                    f"got {apriori_arr.shape}"
                )
        gamma = self._branch_metrics(sys_llrs, par_llrs, apriori_arr)  # (n, batch, 8, 4)

        # State-metric lattices in time-major layout: every per-step slab
        # alpha[k] / beta[k] is a contiguous (batch, 8) array.
        alpha = np.empty((n + 1, batch, NUM_STATES), dtype=np.float64)
        beta = np.empty((n + 1, batch, NUM_STATES), dtype=np.float64)
        alpha[0] = self._normalize_init(initial_alpha, batch)
        beta[n] = self._normalize_init(initial_beta, batch)

        next_state = self._next_state
        in_state, in_symbol = self._in_state, self._in_symbol
        # Forward recursion (eq. (3)): spread alpha over the outgoing edges,
        # then gather each state's four incoming edges and reduce.
        for k in range(n):
            outgoing = alpha[k][:, :, None] + gamma[k]  # (batch, 8, 4)
            cand = outgoing[:, in_state, in_symbol]
            new_alpha = self._maxstar_reduce(cand, axis=2)
            new_alpha -= np.amax(new_alpha, axis=1, keepdims=True)
            alpha[k + 1] = new_alpha
        # Backward recursion (eq. (4)).  The gather owns its memory, so the
        # branch metrics accumulate in place (one fewer temporary per step).
        for k in range(n - 1, -1, -1):
            incoming = beta[k + 1][:, next_state]  # (batch, 8, 4)
            incoming += gamma[k]
            new_beta = self._maxstar_reduce(incoming, axis=2)
            new_beta -= np.amax(new_beta, axis=1, keepdims=True)
            beta[k] = new_beta

        final_alpha = alpha[n].copy()
        final_beta = beta[0].copy()

        # A-posteriori per symbol (eq. (1) before subtracting the systematic
        # part): b_metric[k] = alpha[k] + gamma[k] + beta[k+1][next_state],
        # reduced with max* over the originating state.
        if self.algorithm == "max-log":
            # Fused accumulate-and-maximise per state slice: never
            # materialises the (n, batch, 8, 4) b_metric (max is exact under
            # any association order, so the bit patterns are unchanged).
            apo_tm = None
            for state in range(NUM_STATES):
                term = gamma[:, :, state, :] + alpha[:-1][:, :, state, None]
                term += beta[1:][:, :, next_state[state]]
                if apo_tm is None:
                    apo_tm = term
                else:
                    np.maximum(apo_tm, term, out=apo_tm)
        else:
            # Log-MAP needs every branch metric for the Jacobian sum, so the
            # b_metric is materialised by consuming gamma in place.
            gamma += alpha[:-1][:, :, :, None]
            gamma += beta[1:][:, :, next_state]
            apo_tm = self._logmap_reduce_states(gamma)
        apo_raw = np.ascontiguousarray(np.transpose(apo_tm, (1, 0, 2)))  # (batch, n, 4)
        apo = apo_raw - apo_raw[..., 0:1]

        sys_diff = self.systematic_symbol_metric(sys_llrs)
        apr_diff = apriori_arr - apriori_arr[..., 0:1]
        extrinsic = self.extrinsic_scale * (apo - sys_diff - apr_diff)

        hard_symbols = np.argmax(apo, axis=2).astype(np.int64)
        return BatchBCJRResult(
            aposteriori=apo,
            extrinsic=extrinsic,
            hard_symbols=hard_symbols,
            final_alpha=final_alpha,
            final_beta=final_beta,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize_init(init, batch: int) -> np.ndarray:
        if init is None:
            return np.zeros((batch, NUM_STATES), dtype=np.float64)
        arr = np.asarray(init, dtype=np.float64)
        if arr.shape != (batch, NUM_STATES):
            raise DecodingError(
                f"state-metric init must have shape ({batch}, {NUM_STATES}), "
                f"got {tuple(arr.shape)}"
            )
        return arr - np.amax(arr, axis=1, keepdims=True)


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
        identical in two successive iterations — latched, like the
        per-frame decoder).
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

    Parameters mirror :class:`repro.turbo.decoder.TurboDecoder`, which
    delegates here with ``batch=1``.

    Parameters
    ----------
    encoder:
        The encoder whose frames are being decoded (provides block size,
        interleaver and rate).
    max_iterations:
        Number of full iterations (two SISO activations each); the paper uses 8.
    algorithm:
        ``"max-log"`` (paper's choice) or ``"log-map"``.
    extrinsic_scale:
        Scaling factor ``sigma`` applied to the extrinsic information.
    bit_level_exchange:
        When true, extrinsic information is collapsed to bit level and rebuilt
        at the receiving SISO, mimicking the BTS/STB path used on the NoC
        (paper Section IV-B, ~0.2 dB loss).
    early_termination:
        Remove a frame from the active set as soon as its hard symbol
        decisions are identical in two successive iterations.
    """

    def __init__(
        self,
        encoder: TurboEncoder,
        max_iterations: int = 8,
        algorithm: str = "max-log",
        extrinsic_scale: float = 0.75,
        bit_level_exchange: bool = False,
        early_termination: bool = True,
    ):
        if max_iterations <= 0:
            raise DecodingError(f"max_iterations must be positive, got {max_iterations}")
        self.encoder = encoder
        self.max_iterations = int(max_iterations)
        self.bit_level_exchange = bool(bit_level_exchange)
        self.early_termination = bool(early_termination)
        self._siso = BatchBCJR(
            encoder.trellis,
            algorithm=algorithm,
            extrinsic_scale=extrinsic_scale,
        )
        self._n_couples = encoder.n_couples
        self._perm = encoder.interleaver.permutation()
        flags = encoder.interleaver.swap_flags().astype(bool)
        self._flags = flags
        self._flags_perm = flags[self._perm]

    @property
    def algorithm(self) -> str:
        """``"max-log"`` or ``"log-map"``."""
        return self._siso.algorithm

    @property
    def extrinsic_scale(self) -> float:
        """Scaling factor applied to the extrinsic information."""
        return self._siso.extrinsic_scale

    #: The turbo decoder decides the (systematic) information bits, not the
    #: whole codeword — :class:`repro.sim.runner.BerRunner` reads this flag
    #: to pick the error-count reference (LDPC decoders leave it unset/False).
    decides_info_bits = True

    @property
    def n_bits(self) -> int:
        """Flat channel-LLR length each frame must have (``encoder.n``)."""
        return self.encoder.n

    # ------------------------------------------------------------------ #
    # Interleaving of batched symbol-level quantities
    # ------------------------------------------------------------------ #
    def _interleave_vectors(self, values: np.ndarray) -> np.ndarray:
        """Reorder ``(batch, n, 4)`` vectors from natural to interleaved order.

        The intra-couple swap of step 1 exchanges the roles of bits A and B,
        which at symbol level exchanges elements 1 (A=0,B=1) and 2 (A=1,B=0).
        """
        reordered = values[:, self._perm]
        swapped = self._flags_perm
        reordered[:, swapped] = reordered[:, swapped][:, :, [0, 2, 1, 3]]
        return reordered

    def _deinterleave_vectors(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_interleave_vectors`."""
        natural = np.empty_like(values)
        natural[:, self._perm] = values
        natural[:, self._flags] = natural[:, self._flags][:, :, [0, 2, 1, 3]]
        return natural

    def _interleave_pairs(self, values: np.ndarray) -> np.ndarray:
        """Reorder ``(batch, n, 2)`` (A, B) pairs from natural to interleaved order."""
        reordered = values[:, self._perm]
        swapped = self._flags_perm
        reordered[:, swapped] = reordered[:, swapped][:, :, ::-1]
        return reordered

    def _maybe_bit_level(self, extrinsic: np.ndarray) -> np.ndarray:
        """Apply the STB -> network -> BTS round trip when bit-level exchange is on."""
        if not self.bit_level_exchange:
            return extrinsic
        return bit_to_symbol_extrinsic(symbol_to_bit_extrinsic(extrinsic))

    # ------------------------------------------------------------------ #
    # LLR plumbing
    # ------------------------------------------------------------------ #
    def split_llrs_batch(
        self, llrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split flat ``(batch, n)`` LLR arrays into the three sub-blocks.

        Returns ``(systematic, parity1, parity2)`` shaped
        ``(batch, n_couples, 2)``; punctured W positions receive LLR 0.
        """
        arr = np.asarray(llrs, dtype=np.float64)
        n = self._n_couples
        expected_len = 4 * n if self.encoder.rate == "1/2" else 6 * n
        if arr.ndim != 2 or arr.shape[1] != expected_len:
            raise DecodingError(
                f"expected (batch, {expected_len}) LLRs for rate "
                f"{self.encoder.rate}, got shape {arr.shape}"
            )
        batch = arr.shape[0]
        systematic = arr[:, : 2 * n].reshape(batch, n, 2)
        parity1 = np.zeros((batch, n, 2), dtype=np.float64)
        parity2 = np.zeros((batch, n, 2), dtype=np.float64)
        if self.encoder.rate == "1/2":
            parity1[:, :, 0] = arr[:, 2 * n : 3 * n]
            parity2[:, :, 0] = arr[:, 3 * n : 4 * n]
        else:
            parity1[:] = arr[:, 2 * n : 4 * n].reshape(batch, n, 2)
            parity2[:] = arr[:, 4 * n : 6 * n].reshape(batch, n, 2)
        return systematic, parity1, parity2

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_batch(self, channel_llrs: np.ndarray) -> BatchTurboResult:
        """Decode flat ``(batch, n)`` channel LLRs (the BerRunner entry point)."""
        return self.decode_split(*self.split_llrs_batch(channel_llrs))

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

        # Active working set: frames still decoding, compacted on early exit.
        # The LLR arrays are only ever read (the SISO makes its own contiguous
        # transposes), so the full-batch views need no defensive copies —
        # compaction by fancy indexing produces fresh arrays anyway.
        act_idx = np.arange(batch)
        act_sys = sys_llrs
        act_sys_int = self._interleave_pairs(sys_llrs)
        act_par1 = par1
        act_par2 = par2
        ext_2_to_1 = np.zeros((batch, n, NUM_SYMBOLS), dtype=np.float64)
        alpha1 = beta1 = alpha2 = beta2 = None
        previous: np.ndarray | None = None

        for iteration in range(self.max_iterations):
            if act_idx.size == 0:
                break
            result1 = self._siso.decode_batch(
                act_sys,
                act_par1,
                apriori=ext_2_to_1,
                initial_alpha=alpha1,
                initial_beta=beta1,
            )
            alpha1, beta1 = result1.final_alpha, result1.final_beta
            ext_1_to_2 = self._interleave_vectors(
                self._maybe_bit_level(result1.extrinsic)
            )
            result2 = self._siso.decode_batch(
                act_sys_int,
                act_par2,
                apriori=ext_1_to_2,
                initial_alpha=alpha2,
                initial_beta=beta2,
            )
            alpha2, beta2 = result2.final_alpha, result2.final_beta
            ext_2_to_1 = self._deinterleave_vectors(
                self._maybe_bit_level(result2.extrinsic)
            )

            apo_natural = self._deinterleave_vectors(result2.aposteriori)
            hard = np.argmax(apo_natural, axis=2).astype(np.int64)
            iterations[act_idx] = iteration + 1
            hard_symbols_out[act_idx] = hard
            apo_out[act_idx] = apo_natural

            if previous is None:
                previous = hard
                continue
            changes = np.count_nonzero(hard != previous, axis=1)
            for local, frame in enumerate(act_idx):
                changes_hist[frame].append(int(changes[local]))
            stable = changes == 0
            converged[act_idx[stable]] = True
            if self.early_termination and stable.any():
                keep = ~stable
                act_idx = act_idx[keep]
                act_sys = act_sys[keep]
                act_sys_int = act_sys_int[keep]
                act_par1 = act_par1[keep]
                act_par2 = act_par2[keep]
                ext_2_to_1 = ext_2_to_1[keep]
                alpha1, beta1 = alpha1[keep], beta1[keep]
                alpha2, beta2 = alpha2[keep], beta2[keep]
                previous = hard[keep]
            else:
                previous = hard

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
