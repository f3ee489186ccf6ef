"""Two-phase (flooding) belief-propagation decoding.

The paper contrasts the layered schedule it implements with classic two-phase
scheduling, noting that layered decoding "nearly doubles the convergence
speed".  This reference decoder implements the two-phase schedule — all check
nodes updated from the previous iteration's variable messages, then all
variable nodes — with either the exact sum-product kernel or the normalized
min-sum kernel, and is used by tests and by the functional-comparison bench
to reproduce that claim.

Since the batch engine landed, this module is a thin per-frame facade: the
message passing itself lives in :class:`repro.sim.batch.BatchFloodingDecoder`
(flat edge arrays, one dense tensor op per phase), and :meth:`decode` runs it
with ``batch=1``.  Decoding many frames?  Use the batch decoder (or
:class:`repro.sim.runner.BerRunner`) directly — stacking frames on the batch
axis returns bit-identical results at a fraction of the per-frame cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DecodingError
from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.sim.batch import BatchFloodingDecoder, validate_scaling
from repro.sim.kernels import sum_product_update
from repro.utils.validation import require_int


@dataclass
class FloodingDecoderResult:
    """Outcome of one frame decode with the flooding schedule."""

    hard_bits: np.ndarray
    llrs: np.ndarray
    iterations: int
    converged: bool
    unsatisfied_history: list[int] = field(default_factory=list)


def _sum_product_check_update(q_values: np.ndarray) -> np.ndarray:
    """Exact sum-product check update for the edges of one check.

    Thin single-check wrapper over :func:`repro.sim.kernels.sum_product_update`,
    which computes the leave-one-out ``tanh`` product with log-domain-stable
    prefix/suffix products of the ``|tanh| <= 1`` factors — no division by a
    near-zero ``tanh`` and no O(d^2) fallback loop.
    """
    q = np.asarray(q_values, dtype=np.float64)
    if q.ndim != 1:
        raise DecodingError("sum-product check update expects a 1-D message array")
    return sum_product_update(q[None, :])[0]


class FloodingDecoder:
    """Two-phase BP decoder (sum-product or min-sum kernel), one frame at a time.

    All message passing delegates to
    :class:`repro.sim.batch.BatchFloodingDecoder` with ``batch=1``, so this
    class and the batch engine agree bit-for-bit by construction.
    """

    def __init__(
        self,
        h: ParityCheckMatrix,
        max_iterations: int = 20,
        kernel: str = "sum-product",
        scaling: float = 0.75,
        early_termination: bool = True,
    ):
        self._h = h
        self._batch = BatchFloodingDecoder(
            h,
            max_iterations=max_iterations,
            kernel=kernel,
            scaling=scaling,
            early_termination=early_termination,
        )

    # The tunables live on the inner batch decoder (which reads them on every
    # decode), so mutating them after construction keeps working as it did
    # when this class held the loop itself.
    @property
    def max_iterations(self) -> int:
        """Maximum number of flooding iterations per frame."""
        return self._batch.max_iterations

    @max_iterations.setter
    def max_iterations(self, value: int) -> None:
        require_int("max_iterations", value, 1, DecodingError)
        self._batch.max_iterations = int(value)

    @property
    def kernel(self) -> str:
        """Check-node kernel: ``"sum-product"`` or ``"min-sum"``."""
        return self._batch.kernel

    @kernel.setter
    def kernel(self, value: str) -> None:
        self._batch.kernel = value

    @property
    def scaling(self) -> float:
        """Min-sum normalisation factor ``sigma`` (min-sum kernel only)."""
        return self._batch.scaling

    @scaling.setter
    def scaling(self, value: float) -> None:
        self._batch.scaling = validate_scaling(value)

    @property
    def early_termination(self) -> bool:
        """Stop a frame as soon as its hard decision is a codeword."""
        return self._batch.early_termination

    @early_termination.setter
    def early_termination(self, value: bool) -> None:
        self._batch.early_termination = bool(value)

    def decode(self, channel_llrs: np.ndarray) -> FloodingDecoderResult:
        """Decode one frame of channel LLRs with the flooding schedule."""
        llrs_in = np.asarray(channel_llrs, dtype=np.float64)
        if llrs_in.shape != (self._h.n_cols,):
            raise DecodingError(
                f"expected {self._h.n_cols} channel LLRs, got shape {llrs_in.shape}"
            )
        result = self._batch.decode_batch(llrs_in[None, :])
        return FloodingDecoderResult(
            hard_bits=result.hard_bits[0],
            llrs=result.llrs[0],
            iterations=int(result.iterations[0]),
            converged=bool(result.converged[0]),
            unsatisfied_history=list(result.unsatisfied_history[0]),
        )
