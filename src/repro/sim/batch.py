"""Batched flooding and layered decoders over ``(batch, n)`` LLR arrays.

Both decoders implement the :class:`BatchDecoder` protocol: ``decode_batch``
takes a ``(batch, n)`` array of channel LLRs (positive LLR means bit 0) and
returns per-frame hard decisions, a-posteriori LLRs, iteration counts and
convergence flags.  Frames that satisfy every parity check leave the active
set immediately (per-frame early exit), so a batch costs only as many
iterations as its slowest member.

The per-frame decoders :class:`repro.ldpc.flooding.FloodingDecoder` and
:class:`repro.ldpc.layered.LayeredMinSumDecoder` delegate to these classes
with ``batch=1``; the property tests in ``tests/test_sim_batch.py`` pin down
that stacking frames into a batch changes nothing — same hard bits, same
iteration counts, same convergence flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.channel.quantize import CHANNEL_LLR_SPEC, EXTRINSIC_SPEC, LLRQuantizer
from repro.errors import DecodingError
from repro.sim.edges import EdgeIndex
from repro.sim.kernels import min_sum_update, sum_product_update
from repro.utils.validation import require_int

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.ldpc
    from repro.ldpc.hmatrix import ParityCheckMatrix

_KERNELS = ("sum-product", "min-sum")


@dataclass
class BatchDecodeResult:
    """Outcome of one batched decode.

    Attributes
    ----------
    hard_bits:
        ``(batch, n)`` int8 hard decisions (``LLR < 0 -> bit 1``).
    llrs:
        ``(batch, n)`` final a-posteriori LLRs.
    iterations:
        ``(batch,)`` iterations each frame actually ran (a frame that
        early-exits at iteration ``i`` reports ``i``).
    converged:
        ``(batch,)`` per-frame convergence flags (see each decoder for the
        exact semantics, which mirror the per-frame decoders).
    syndrome_weights:
        ``(batch,)`` number of unsatisfied checks of the final hard decision.
    unsatisfied_history:
        One list per frame of the unsatisfied-check count after every
        iteration that frame ran.
    """

    hard_bits: np.ndarray
    llrs: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    syndrome_weights: np.ndarray
    unsatisfied_history: list[list[int]]

    @property
    def batch_size(self) -> int:
        """Number of frames in this result."""
        return int(self.hard_bits.shape[0])

    def frame(self, index: int) -> tuple[np.ndarray, int, bool]:
        """Extract frame ``index`` as ``(hard_bits, iterations, converged)``.

        The bits are a fresh copy, so a caller (e.g. the decode service
        resolving one client's future) can hold them after the batch result
        is dropped without pinning the whole ``(batch, n)`` array.
        """
        return (
            self.hard_bits[index].copy(),
            int(self.iterations[index]),
            bool(self.converged[index]),
        )


@runtime_checkable
class BatchDecoder(Protocol):
    """Protocol shared by every batched decoder of either code family.

    A ``BatchDecoder`` decodes ``(batch, n_bits)`` channel-LLR arrays in one
    call and returns a result carrying at least ``hard_bits`` (the per-frame
    decisions — whole codewords for the LDPC decoders, information bits for
    :class:`repro.sim.turbo_batch.BatchTurboDecoder`), ``iterations`` and
    ``converged`` arrays; :class:`repro.sim.runner.BerRunner` only relies on
    this interface.  A decoder whose decisions cover only the information
    bits declares it with a truthy ``decides_info_bits`` class attribute
    (absent/False means codeword decisions).
    """

    @property
    def n_bits(self) -> int:
        """Channel-LLR length each frame must have (the codeword length)."""
        ...

    def decode_batch(self, channel_llrs: np.ndarray) -> "BatchDecodeResult":
        """Decode a ``(batch, n_bits)`` array of channel LLRs."""
        ...


def validate_scaling(scaling: float) -> float:
    """``scaling`` as a float; :class:`DecodingError` unless it lies in ``(0, 1]``."""
    value = float(scaling)
    if not 0.0 < value <= 1.0:
        raise DecodingError(f"scaling must be in (0, 1], got {scaling}")
    return value


def _validate_batch(llrs: np.ndarray, n_cols: int) -> np.ndarray:
    arr = np.asarray(llrs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n_cols:
        raise DecodingError(
            f"expected a (batch, {n_cols}) LLR array, got shape {arr.shape}"
        )
    return arr


class BatchFloodingDecoder:
    """Two-phase (flooding) BP decoder vectorised over frames *and* checks.

    One iteration is four dense tensor operations (paper Section II's
    two-phase schedule): gather the posterior onto the edges, subtract the
    previous check-to-variable messages, run the check kernel per degree
    group, scatter-accumulate back into the posterior.  ``converged`` latches
    as soon as a frame's hard decision satisfies every check, exactly like
    :class:`repro.ldpc.flooding.FloodingDecoder`.

    Parameters mirror the per-frame decoder: ``kernel`` selects the exact
    sum-product tanh rule or the normalized min-sum of paper eq. (11).
    """

    def __init__(
        self,
        h: "ParityCheckMatrix",
        max_iterations: int = 20,
        kernel: str = "sum-product",
        scaling: float = 0.75,
        early_termination: bool = True,
    ):
        require_int("max_iterations", max_iterations, 1, DecodingError)
        if kernel not in _KERNELS:
            raise DecodingError(
                f"kernel must be 'sum-product' or 'min-sum', got {kernel!r}"
            )
        self._edges = EdgeIndex(h)
        self.max_iterations = int(max_iterations)
        self.kernel = kernel
        self.scaling = validate_scaling(scaling)
        self.early_termination = bool(early_termination)

    @property
    def n_bits(self) -> int:
        """Codeword length ``n`` of the code this decoder was built for."""
        return self._edges.n_cols

    def _check_update(self, v2c: np.ndarray) -> np.ndarray:
        """Apply the check kernel per degree group: ``(batch, n_edges)`` in and out."""
        out = np.empty_like(v2c)
        for group in self._edges.check_groups:
            q = v2c[:, group.edges]
            if self.kernel == "sum-product":
                out[:, group.edges] = sum_product_update(q)
            else:
                out[:, group.edges] = min_sum_update(q, scaling=self.scaling)
        return out

    def decode_batch(self, channel_llrs: np.ndarray) -> BatchDecodeResult:
        """Decode a ``(batch, n)`` array of channel LLRs with the flooding schedule."""
        llrs = _validate_batch(channel_llrs, self._edges.n_cols)
        batch = llrs.shape[0]
        edges = self._edges
        posterior = llrs.copy()
        iterations = np.zeros(batch, dtype=np.int64)
        converged = np.zeros(batch, dtype=bool)
        histories: list[list[int]] = [[] for _ in range(batch)]
        # Active working set: frames still decoding, compacted on early exit.
        act_idx = np.arange(batch)
        act_llrs = llrs.copy()
        act_post = llrs.copy()
        act_c2v = np.zeros((batch, edges.n_edges), dtype=np.float64)
        for iteration in range(self.max_iterations):
            if act_idx.size == 0:
                break
            # Variable-to-check phase: posterior minus own previous c2v.
            v2c = edges.gather(act_post) - act_c2v
            act_c2v = self._check_update(v2c)
            act_post = act_llrs + edges.accumulate_columns(act_c2v)
            unsatisfied = edges.unsatisfied_counts(act_post < 0)
            iterations[act_idx] = iteration + 1
            for local, frame in enumerate(act_idx):
                histories[frame].append(int(unsatisfied[local]))
            newly = unsatisfied == 0
            converged[act_idx[newly]] = True
            if self.early_termination and newly.any():
                posterior[act_idx[newly]] = act_post[newly]
                keep = ~newly
                act_idx = act_idx[keep]
                act_llrs = act_llrs[keep]
                act_post = act_post[keep]
                act_c2v = act_c2v[keep]
        posterior[act_idx] = act_post
        hard = (posterior < 0).astype(np.int8)
        return BatchDecodeResult(
            hard_bits=hard,
            llrs=posterior,
            iterations=iterations,
            converged=converged,
            syndrome_weights=edges.unsatisfied_counts(hard),
            unsatisfied_history=histories,
        )


class BatchLayeredDecoder:
    """Layered (horizontal-schedule) decoder vectorised over frames and layers.

    The layered schedule of paper eqs. (6)-(11) is sequential over checks —
    each check reads the a-posteriori LLRs the previous one just wrote — but
    consecutive checks that share no column read and write disjoint LLRs.
    The checks are therefore split once, at construction, into layers of
    consecutive, column-disjoint, equal-degree checks
    (:meth:`repro.sim.edges.EdgeIndex.layers`), and each layer is one
    ``(batch, z, d)`` tensor step: in a quasi-cyclic code a layer is a block
    row of ``z`` checks, the rows the paper's P processing elements update
    in parallel (12 steps per iteration instead of 288 at n=576 r1/2).  The
    results are bit-identical to the check-by-check schedule.

    ``converged`` matches :class:`repro.ldpc.layered.LayeredMinSumDecoder`:
    the latched "was ever a codeword" flag AND a zero final syndrome.

    Parameters
    ----------
    h:
        Parity-check matrix of the code.
    max_iterations:
        Maximum full iterations (every check once); the paper uses 10.
    scaling:
        Min-sum normalisation factor ``sigma`` (min-sum kernel only).
    kernel:
        ``"min-sum"`` (the paper's PEs, default) or ``"sum-product"``.
    fixed_point:
        Quantise channel/a-posteriori LLRs to the paper's 7-bit format and
        extrinsic R messages to the 5-bit format around every update.
    early_termination:
        Remove a frame from the active set as soon as its hard decision
        satisfies every parity check.
    """

    def __init__(
        self,
        h: "ParityCheckMatrix",
        max_iterations: int = 10,
        scaling: float = 0.75,
        kernel: str = "min-sum",
        fixed_point: bool = False,
        early_termination: bool = True,
    ):
        require_int("max_iterations", max_iterations, 1, DecodingError)
        if kernel not in _KERNELS:
            raise DecodingError(
                f"kernel must be 'sum-product' or 'min-sum', got {kernel!r}"
            )
        self._edges = EdgeIndex(h)
        self._layers = self._edges.layers()
        self.max_iterations = int(max_iterations)
        self.scaling = validate_scaling(scaling)
        self.kernel = kernel
        self.fixed_point = bool(fixed_point)
        self.early_termination = bool(early_termination)
        self._channel_quantizer = LLRQuantizer(CHANNEL_LLR_SPEC)
        self._extrinsic_quantizer = LLRQuantizer(EXTRINSIC_SPEC)

    @property
    def n_bits(self) -> int:
        """Codeword length ``n`` of the code this decoder was built for."""
        return self._edges.n_cols

    def _quantize_channel(self, llrs: np.ndarray) -> np.ndarray:
        if not self.fixed_point:
            return llrs.astype(np.float64)
        return self._channel_quantizer.quantize_to_real(llrs)

    def _row_update(self, q: np.ndarray) -> np.ndarray:
        if self.kernel == "sum-product":
            r_new = sum_product_update(q)
        else:
            r_new = min_sum_update(q, scaling=self.scaling)
        if self.fixed_point:
            self._extrinsic_quantizer.quantize_to_real(r_new, inplace=True)
        return r_new

    def decode_batch(self, channel_llrs: np.ndarray) -> BatchDecodeResult:
        """Decode a ``(batch, n)`` array of channel LLRs with the layered schedule.

        Implements, for every check ``l`` and connected variable ``k`` (all
        frames and all checks of one layer in lockstep):

        * ``Q_lk = lambda_k - R_lk_old``                      (eq. 6)
        * ``R_lk_new = normalized min-sum over the other Q``  (eqs. 7-9, 11)
        * ``lambda_k = Q_lk + R_lk_new``                      (eq. 10)
        """
        llrs = _validate_batch(channel_llrs, self._edges.n_cols)
        batch = llrs.shape[0]
        edges = self._edges
        lam_out = self._quantize_channel(llrs).copy()
        iterations = np.zeros(batch, dtype=np.int64)
        converged = np.zeros(batch, dtype=bool)
        histories: list[list[int]] = [[] for _ in range(batch)]
        act_idx = np.arange(batch)
        act_lam = lam_out.copy()
        act_r = np.zeros((batch, edges.n_edges), dtype=np.float64)
        for iteration in range(self.max_iterations):
            if act_idx.size == 0:
                break
            for layer in self._layers:
                # (active, z, d) tensors, updated in place to keep the step
                # free of full-size temporaries.
                q = act_lam[:, layer.cols]
                q -= act_r[:, layer.edges].reshape(q.shape)
                r_new = self._row_update(q)
                q += r_new
                if self.fixed_point:
                    self._channel_quantizer.quantize_to_real(q, inplace=True)
                act_lam[:, layer.cols] = q
                act_r[:, layer.edges] = r_new.reshape(q.shape[0], -1)
            unsatisfied = edges.unsatisfied_counts(act_lam < 0)
            iterations[act_idx] = iteration + 1
            for local, frame in enumerate(act_idx):
                histories[frame].append(int(unsatisfied[local]))
            newly = unsatisfied == 0
            converged[act_idx[newly]] = True
            if self.early_termination and newly.any():
                lam_out[act_idx[newly]] = act_lam[newly]
                keep = ~newly
                act_idx = act_idx[keep]
                act_lam = act_lam[keep]
                act_r = act_r[keep]
        lam_out[act_idx] = act_lam
        hard = (lam_out < 0).astype(np.int8)
        syndrome_weights = edges.unsatisfied_counts(hard)
        return BatchDecodeResult(
            hard_bits=hard,
            llrs=lam_out,
            iterations=iterations,
            converged=converged & (syndrome_weights == 0),
            syndrome_weights=syndrome_weights,
            unsatisfied_history=histories,
        )
