"""Layered normalized-min-sum LDPC decoding (paper eqs. (6)-(11)).

The layered (horizontal) schedule processes parity checks one after the other
(or one *layer* — a group of row-independent checks — after the other) and
propagates updated a-posteriori LLRs immediately, which roughly halves the
number of iterations needed compared with two-phase flooding.  This is the
schedule the paper's PEs implement, so this decoder doubles as the functional
reference for the cycle-accurate PE model.

Both floating-point and fixed-point (7-bit channel / 5-bit extrinsic, as in
the paper) operation are supported.

Since the batch engine landed, this module is a thin per-frame facade: the
layered recursion itself lives in
:class:`repro.sim.batch.BatchLayeredDecoder` (vectorised over the batch
axis), and :meth:`decode` runs it with ``batch=1``.  Decoding many frames?
Use the batch decoder (or :class:`repro.sim.runner.BerRunner`) directly —
stacking frames on the batch axis returns bit-identical results at a
fraction of the per-frame cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DecodingError
from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.sim.batch import BatchLayeredDecoder


@dataclass
class LayeredDecoderResult:
    """Outcome of one frame decode."""

    hard_bits: np.ndarray
    llrs: np.ndarray
    iterations: int
    converged: bool
    syndrome_weight: int
    #: Per-iteration number of unsatisfied checks (useful for convergence plots).
    unsatisfied_history: list[int] = field(default_factory=list)


class LayeredMinSumDecoder:
    """Layered normalized-min-sum decoder over a :class:`ParityCheckMatrix`.

    One frame at a time; delegates to
    :class:`repro.sim.batch.BatchLayeredDecoder` with ``batch=1`` so this
    class and the batch engine agree bit-for-bit by construction.  The
    normalisation factor is the PEs' fixed ``sigma``,
    :data:`repro.sim.batch.MIN_SUM_SCALING`.  A decoder is configured once,
    at construction: its options are read-only.

    Parameters
    ----------
    h:
        Parity-check matrix of the code.
    max_iterations:
        Maximum number of full iterations (every check processed once per
        iteration).  The paper uses 10 for WiMAX LDPC codes.
    fixed_point:
        When true, channel LLRs are quantised to the paper's 7-bit format and
        extrinsic R messages to the 5-bit format before/after every update.
    early_termination:
        Stop as soon as the hard decision satisfies every parity check.
    """

    __slots__ = ("_h", "_batch")

    def __init__(
        self,
        h: ParityCheckMatrix,
        max_iterations: int = 10,
        fixed_point: bool = False,
        early_termination: bool = True,
    ):
        self._h = h
        self._batch = BatchLayeredDecoder(
            h,
            max_iterations=max_iterations,
            fixed_point=fixed_point,
            early_termination=early_termination,
        )

    @property
    def max_iterations(self) -> int:
        """Maximum number of layered iterations per frame."""
        return self._batch.max_iterations

    @property
    def fixed_point(self) -> bool:
        """Quantise to the paper's 7-bit/5-bit formats around every update."""
        return self._batch.fixed_point

    @property
    def early_termination(self) -> bool:
        """Stop a frame as soon as its hard decision is a codeword."""
        return self._batch.early_termination

    @property
    def h(self) -> ParityCheckMatrix:
        """The parity-check matrix this decoder was built for."""
        return self._h

    def decode(self, channel_llrs: np.ndarray) -> LayeredDecoderResult:
        """Decode one frame of channel LLRs (positive LLR means bit 0).

        Implements, for every check ``l`` and connected variable ``k``:

        * ``Q_lk = lambda_k - R_lk_old``                      (eq. 6)
        * ``R_lk_new = normalized min-sum over the other Q``  (eqs. 7-9, 11)
        * ``lambda_k = Q_lk + R_lk_new``                      (eq. 10)
        """
        llrs_in = np.asarray(channel_llrs, dtype=np.float64)
        if llrs_in.shape != (self._h.n_cols,):
            raise DecodingError(
                f"expected {self._h.n_cols} channel LLRs, got shape {llrs_in.shape}"
            )
        result = self._batch.decode_batch(llrs_in[None, :])
        return LayeredDecoderResult(
            hard_bits=result.hard_bits[0],
            llrs=result.llrs[0],
            iterations=int(result.iterations[0]),
            converged=bool(result.converged[0]),
            syndrome_weight=int(result.syndrome_weights[0]),
            unsatisfied_history=list(result.unsatisfied_history[0]),
        )
