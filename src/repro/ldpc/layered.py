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
from repro.sim.batch import BatchLayeredDecoder, validate_scaling
from repro.utils.validation import require_int


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

    @property
    def success(self) -> bool:
        """True when the decoder stopped on a valid codeword."""
        return self.converged


class LayeredMinSumDecoder:
    """Layered normalized-min-sum decoder over a :class:`ParityCheckMatrix`.

    One frame at a time; delegates to
    :class:`repro.sim.batch.BatchLayeredDecoder` with ``batch=1`` so this
    class and the batch engine agree bit-for-bit by construction.

    Parameters
    ----------
    h:
        Parity-check matrix of the code.
    max_iterations:
        Maximum number of full iterations (every check processed once per
        iteration).  The paper uses 10 for WiMAX LDPC codes.
    scaling:
        Min-sum normalisation factor ``sigma``; 0.75 is the conventional
        hardware-friendly choice (a shift-and-add multiplier).
    fixed_point:
        When true, channel LLRs are quantised to the paper's 7-bit format and
        extrinsic R messages to the 5-bit format before/after every update.
    early_termination:
        Stop as soon as the hard decision satisfies every parity check.
    """

    def __init__(
        self,
        h: ParityCheckMatrix,
        max_iterations: int = 10,
        scaling: float = 0.75,
        fixed_point: bool = False,
        early_termination: bool = True,
    ):
        self._h = h
        self._batch = BatchLayeredDecoder(
            h,
            max_iterations=max_iterations,
            scaling=scaling,
            kernel="min-sum",
            fixed_point=fixed_point,
            early_termination=early_termination,
        )

    # The tunables live on the inner batch decoder (which reads them on every
    # decode), so mutating them after construction keeps working as it did
    # when this class held the loop itself.
    @property
    def max_iterations(self) -> int:
        """Maximum number of layered iterations per frame."""
        return self._batch.max_iterations

    @max_iterations.setter
    def max_iterations(self, value: int) -> None:
        require_int("max_iterations", value, 1, DecodingError)
        self._batch.max_iterations = int(value)

    @property
    def scaling(self) -> float:
        """Min-sum normalisation factor ``sigma``."""
        return self._batch.scaling

    @scaling.setter
    def scaling(self, value: float) -> None:
        self._batch.scaling = validate_scaling(value)

    @property
    def fixed_point(self) -> bool:
        """Quantise to the paper's 7-bit/5-bit formats around every update."""
        return self._batch.fixed_point

    @fixed_point.setter
    def fixed_point(self, value: bool) -> None:
        self._batch.fixed_point = bool(value)

    @property
    def early_termination(self) -> bool:
        """Stop a frame as soon as its hard decision is a codeword."""
        return self._batch.early_termination

    @early_termination.setter
    def early_termination(self, value: bool) -> None:
        self._batch.early_termination = bool(value)

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

    def messages_per_iteration(self) -> int:
        """Number of check-to-variable messages produced per full iteration.

        This is the traffic volume the NoC must carry per iteration when the
        code is mapped onto the decoder (before subtracting node-local
        messages), and equals the number of edges of the Tanner graph.
        """
        return self._h.n_edges
