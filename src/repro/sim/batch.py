"""Batched flooding and layered decoders over ``(batch, n)`` LLR arrays.

Both decoders implement the :class:`BatchDecoder` protocol: ``decode_batch``
takes a ``(batch, n)`` array of channel LLRs (positive LLR means bit 0) and
returns per-frame hard decisions, a-posteriori LLRs, iteration counts and
convergence flags.  Frames that satisfy every parity check leave the active
set immediately (per-frame early exit), so a batch costs only as many
iterations as its slowest member.

They are the library's only LDPC decoders: one frame is a batch of one,
``decode_batch(llrs[None])``.  The property tests in
``tests/test_sim_batch.py`` pin down that stacking frames into a batch
changes nothing — same hard bits, same iteration counts, same convergence
flags as each frame decoded alone.  A decoder is configured once, at
construction: its options are read-only properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.channel.quantize import CHANNEL_LLR_SPEC, EXTRINSIC_SPEC, LLRQuantizer
from repro.errors import DecodingError
from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.sim.edges import EdgeIndex
from repro.sim.kernels import min_sum_update, sum_product_update
from repro.utils.validation import require_bool, require_int

_KERNELS = ("sum-product", "min-sum")

#: Normalised min-sum factor ``sigma`` of paper eq. (11), hard-wired in the
#: PEs as a shift-and-add multiplier.
MIN_SUM_SCALING = 0.75


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
        exact semantics).
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
    as soon as a frame's hard decision satisfies every check.  It is the
    reference schedule the paper contrasts layered decoding with.

    Parameters
    ----------
    h:
        Parity-check matrix of the code.
    max_iterations:
        Maximum number of flooding iterations per frame.
    kernel:
        ``"sum-product"`` (the exact tanh rule) or ``"min-sum"`` (the
        normalized min-sum of paper eq. (11) with :data:`MIN_SUM_SCALING`).
    early_termination:
        Remove a frame from the active set as soon as its hard decision
        satisfies every parity check.
    """

    __slots__ = ("_edges", "_max_iterations", "_kernel", "_early_termination")

    def __init__(
        self,
        h: ParityCheckMatrix,
        max_iterations: int = 20,
        kernel: str = "sum-product",
        early_termination: bool = True,
    ):
        require_int("max_iterations", max_iterations, 1, DecodingError)
        if kernel not in _KERNELS:
            raise DecodingError(
                f"kernel must be 'sum-product' or 'min-sum', got {kernel!r}"
            )
        require_bool("early_termination", early_termination, DecodingError)
        self._edges = EdgeIndex(h)
        self._max_iterations = int(max_iterations)
        self._kernel = kernel
        self._early_termination = bool(early_termination)

    @property
    def max_iterations(self) -> int:
        """Maximum number of flooding iterations per frame."""
        return self._max_iterations

    @property
    def kernel(self) -> str:
        """Check-node kernel: ``"sum-product"`` or ``"min-sum"``."""
        return self._kernel

    @property
    def early_termination(self) -> bool:
        """Stop a frame as soon as its hard decision is a codeword."""
        return self._early_termination

    @property
    def n_bits(self) -> int:
        """Codeword length ``n`` of the code this decoder was built for."""
        return self._edges.n_cols

    def _check_update(self, v2c: np.ndarray) -> np.ndarray:
        """Apply the check kernel per degree group: ``(batch, n_edges)`` in and out."""
        out = np.empty_like(v2c)
        for group in self._edges.check_groups:
            q = v2c[:, group.edges]
            if self._kernel == "sum-product":
                out[:, group.edges] = sum_product_update(q)
            else:
                out[:, group.edges] = min_sum_update(q, scaling=MIN_SUM_SCALING)
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
        for iteration in range(self._max_iterations):
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
            if self._early_termination and newly.any():
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


#: Fixed-point state is held in integer levels of the channel format's step
#: (half an LLR unit): lambda in ``[-63, 63]``, R = ``_R_UNIT * r`` with the
#: 5-bit extrinsic level r in ``[-15, 15]``.
_CHANNEL_QUANTIZER = LLRQuantizer(CHANNEL_LLR_SPEC)
_EXTRINSIC_QUANTIZER = LLRQuantizer(EXTRINSIC_SPEC)
_R_UNIT = int(EXTRINSIC_SPEC.step / CHANNEL_LLR_SPEC.step)
#: λ saturation bounds as int16 0-d arrays: ``np.clip`` then stays in int16.
_LAMBDA_MAX = np.array(CHANNEL_LLR_SPEC.max_level, dtype=np.int16)
_LAMBDA_MIN = -_LAMBDA_MAX
#: Largest ``|Q| = |lambda - R|`` a check can see, in channel levels.
_Q_MAX = CHANNEL_LLR_SPEC.max_level + _R_UNIT * EXTRINSIC_SPEC.max_level


def _r_levels(values: np.ndarray) -> np.ndarray:
    """Real R values quantised to the 5-bit extrinsic format, as int16 channel levels."""
    return (_R_UNIT * _EXTRINSIC_QUANTIZER.quantize(values)).astype(np.int16)


def extrinsic_table(scaling: float) -> np.ndarray:
    """Scaled, rounded and clipped R level for every ``|Q|`` level ``0.._Q_MAX``.

    Entry ``m`` is the 5-bit extrinsic quantisation of ``scaling * |Q|`` for
    ``|Q| = m`` channel steps, in channel levels (int16).  It is the float
    expression the normalised min-sum evaluates, so the integer datapath
    matches the float one bit for bit, half-to-even ties included.
    """
    return _r_levels(scaling * (np.arange(_Q_MAX + 1) * CHANNEL_LLR_SPEC.step))


_EXTRINSIC_TABLE = extrinsic_table(MIN_SUM_SCALING)


class BatchLayeredDecoder:
    """Layered (horizontal-schedule) decoder vectorised over frames and layers.

    The layered schedule of paper eqs. (6)-(11) is sequential over checks —
    each check reads the a-posteriori LLRs the previous one just wrote — but
    consecutive checks that share no column read and write disjoint LLRs.
    The checks are therefore split once, at construction, into layers of
    consecutive, column-disjoint, equal-degree checks
    (:meth:`repro.sim.edges.EdgeIndex.layers`), and each layer is one
    tensor step over ``z`` checks of degree ``d``: in a quasi-cyclic code a
    layer is a block row of ``z`` checks, the rows the paper's P processing
    elements update in parallel (12 steps per iteration instead of 288 at
    n=576 r1/2).  The results are bit-identical to the check-by-check
    schedule.

    The check update is the paper's PE arithmetic, the normalised min-sum
    of eq. (11) with ``sigma =`` :data:`MIN_SUM_SCALING`.  The float decoder
    keeps ``(batch, n)`` float64 state and runs it on ``(batch, z, d)``
    tensors.  The fixed-point decoder runs on the paper's integer words
    instead: int16 levels in a variable-major ``(n, batch)`` layout,
    degree-major ``(d, z, batch)`` per layer, so the reductions over the
    degree axis run over axis 0, across contiguous ``(z, batch)`` rows.  Its
    min-sum scales, rounds and clips R through one lookup table
    (:func:`extrinsic_table`), built once at import.

    ``converged`` is the latched "was ever a codeword" flag AND a zero final
    syndrome.

    Parameters
    ----------
    h:
        Parity-check matrix of the code.
    max_iterations:
        Maximum full iterations (every check once); the paper uses 10.
    fixed_point:
        Hold channel/a-posteriori LLRs in the paper's 7-bit format and
        extrinsic R messages in the 5-bit format.
    early_termination:
        Remove a frame from the active set as soon as its hard decision
        satisfies every parity check.
    """

    __slots__ = (
        "_edges", "_layers", "_max_iterations", "_fixed_point", "_early_termination",
        "_key_shift", "_positions",
    )

    def __init__(
        self,
        h: ParityCheckMatrix,
        max_iterations: int = 10,
        fixed_point: bool = False,
        early_termination: bool = True,
    ):
        require_int("max_iterations", max_iterations, 1, DecodingError)
        require_bool("fixed_point", fixed_point, DecodingError)
        require_bool("early_termination", early_termination, DecodingError)
        self._edges = EdgeIndex(h)
        self._layers = self._edges.layers()
        self._max_iterations = int(max_iterations)
        self._fixed_point = bool(fixed_point)
        self._early_termination = bool(early_termination)
        # Min-two keys ``|Q| << shift | position`` are distinct within a check;
        # they fit int16 up to degree 256.
        max_degree = max((layer.cols.shape[0] for layer in self._layers), default=1)
        self._key_shift = (max_degree - 1).bit_length()
        key_dtype = np.int16 if (_Q_MAX + 1) << self._key_shift <= 2**15 else np.int32
        self._positions = np.arange(max_degree, dtype=key_dtype)[:, None, None]

    @property
    def max_iterations(self) -> int:
        """Maximum number of layered iterations per frame."""
        return self._max_iterations

    @property
    def fixed_point(self) -> bool:
        """Quantise to the paper's 7-bit/5-bit formats around every update."""
        return self._fixed_point

    @property
    def early_termination(self) -> bool:
        """Stop a frame as soon as its hard decision is a codeword."""
        return self._early_termination

    @property
    def n_bits(self) -> int:
        """Codeword length ``n`` of the code this decoder was built for."""
        return self._edges.n_cols

    def _float_layer(self, lam: np.ndarray, r: np.ndarray, layer) -> None:
        """One layer step on ``(batch, n)`` float64 λ and ``(batch, n_edges)`` R."""
        # (active, z, d) tensors, updated in place to keep the step free of
        # full-size temporaries.
        cols = layer.cols.T
        q = lam[:, cols]
        q -= r[:, layer.edges].reshape(q.shape)
        r_new = min_sum_update(q, scaling=MIN_SUM_SCALING)
        q += r_new
        lam[:, cols] = q
        r[:, layer.edges] = r_new.reshape(q.shape[0], -1)

    def _level_layer(self, lam: np.ndarray, r: np.ndarray, layer) -> None:
        """One layer step on ``(n, batch)`` λ and ``(n_edges, batch)`` R int16 levels.

        The layer's span of R holds its edges degree-major, in the ``(d, z)``
        order of ``layer.cols``; nothing else reads R, and it starts at zero.
        """
        q = np.take(lam, layer.cols, axis=0)  # (d, z, active)
        q -= r[layer.edges].reshape(q.shape)
        r_new = self._min_sum_levels(q)
        q += r_new
        np.clip(q, _LAMBDA_MIN, _LAMBDA_MAX, out=q)
        lam[layer.cols] = q
        r[layer.edges] = r_new.reshape(-1, q.shape[-1])

    def _min_sum_levels(self, q: np.ndarray) -> np.ndarray:
        """Normalised min-sum R levels over the degree axis (axis 0) of ``q``.

        ``q`` is a degree-major ``(d, z, active)`` int16 tensor, so every
        reduction runs across contiguous ``(z, active)`` rows and min1, min2
        and the sign parity come out as contiguous ``(z, active)`` arrays.
        Each edge sees the smallest ``|Q|`` of the other edges: min1 of its
        check, or min2 for the one edge holding min1.  Keys
        ``|Q| << shift | position`` are distinct, so one ``min`` finds min1;
        subtracting ``min1 + 1`` leaves -1 at its holder only, which an
        unsigned ``min`` then skips to find min2.  Signs are the all-ones
        masks ``Q >> 15``; XOR-ing in the check's parity leaves each edge
        the sign product of the other edges, applied to the table magnitude
        as two's-complement ``(x ^ m) - m``.  A zero Q's sign reaches no
        output, since the other edges of its check see magnitude 0 and its
        own output excludes its sign.
        """
        if q.shape[0] < 2:
            raise DecodingError("check update needs at least two edge messages")
        shift = self._key_shift
        keys = np.abs(q).astype(self._positions.dtype, copy=False)
        keys <<= shift
        keys |= self._positions[: q.shape[0]]
        min1 = keys.min(axis=0)
        above = min1 + 1
        keys -= above
        min2 = keys.view(f"u{keys.itemsize}").min(axis=0).view(keys.dtype)
        min2 += above
        holder = keys >> (8 * keys.itemsize - 1)  # -1 at min1's edge, 0 elsewhere
        sign = q >> 15
        sign ^= np.bitwise_xor.reduce(sign, axis=0)
        first = _EXTRINSIC_TABLE.take(min1 >> shift)
        r_new = holder & (_EXTRINSIC_TABLE.take(min2 >> shift) - first)
        r_new += first
        r_new ^= sign
        r_new -= sign
        return r_new.astype(np.int16, copy=False)

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
        if self._fixed_point:
            # Variable-major int16 levels: frames on the last axis.
            frame_axis = 1
            act_lam = np.ascontiguousarray(_CHANNEL_QUANTIZER.quantize(llrs).T, dtype=np.int16)
            act_r = np.zeros((edges.n_edges, batch), dtype=np.int16)
            layer_step = self._level_layer
        else:
            frame_axis = 0
            act_lam = llrs.copy()
            act_r = np.zeros((batch, edges.n_edges), dtype=np.float64)
            layer_step = self._float_layer
        lam_out = np.empty((batch, edges.n_cols), dtype=act_lam.dtype)
        iterations = np.zeros(batch, dtype=np.int64)
        converged = np.zeros(batch, dtype=bool)
        histories: list[list[int]] = [[] for _ in range(batch)]
        act_idx = np.arange(batch)
        for iteration in range(self._max_iterations):
            if act_idx.size == 0:
                break
            for layer in self._layers:
                layer_step(act_lam, act_r, layer)
            unsatisfied = edges.unsatisfied_counts(act_lam < 0, axis=1 - frame_axis)
            iterations[act_idx] = iteration + 1
            for local, frame in enumerate(act_idx):
                histories[frame].append(int(unsatisfied[local]))
            newly = unsatisfied == 0
            converged[act_idx[newly]] = True
            if self._early_termination and newly.any():
                lam_out[act_idx[newly]] = np.moveaxis(act_lam, frame_axis, 0)[newly]
                keep = ~newly
                act_idx = act_idx[keep]
                act_lam = np.compress(keep, act_lam, axis=frame_axis)
                act_r = np.compress(keep, act_r, axis=frame_axis)
        lam_out[act_idx] = np.moveaxis(act_lam, frame_axis, 0)
        hard = (lam_out < 0).astype(np.int8)
        syndrome_weights = edges.unsatisfied_counts(hard)
        if self._fixed_point:
            lam_out = lam_out * CHANNEL_LLR_SPEC.step
        return BatchDecodeResult(
            hard_bits=hard,
            llrs=lam_out,
            iterations=iterations,
            converged=converged & (syndrome_weights == 0),
            syndrome_weights=syndrome_weights,
            unsatisfied_history=histories,
        )
