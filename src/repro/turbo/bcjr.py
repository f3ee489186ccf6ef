"""Symbol-level BCJR decoding of the duo-binary constituent code.

Implements paper eqs. (1)-(5): branch metrics ``gamma`` from channel and
a-priori information, forward/backward recursions ``alpha``/``beta`` with the
max* operator, and a-posteriori / extrinsic outputs per uncoded symbol.

max* is the plain maximum (Max-Log-MAP), the paper's choice for
double-binary codes, and the extrinsic output is scaled by the SISOs' fixed
``sigma``, :data:`repro.sim.turbo_batch.EXTRINSIC_SCALE` (0.75).

Symbol-level quantities (a-priori, a-posteriori, extrinsic) are represented
as length-4 vectors of log-probability differences with respect to symbol 0,
i.e. element ``u`` holds ``log p(u)/p(0)`` (element 0 is always 0).

Since the batched turbo engine landed, this module is a thin per-frame
facade: the recursions themselves live in
:class:`repro.sim.turbo_batch.BatchBCJR` (one fused forward/backward loop
over state-major ``(n_couples, 16, batch)`` arrays) and
:meth:`BCJRDecoder.decode` runs them with ``batch=1``.  Decoding many
frames?  Use the batch kernel (or
:class:`repro.sim.turbo_batch.BatchTurboDecoder`) directly — stacking frames
on the batch axis returns bit-identical results at a fraction of the
per-frame cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodingError
from repro.turbo.trellis import NUM_STATES, NUM_SYMBOLS, DuoBinaryTrellis


@dataclass
class BCJRResult:
    """Output of one SISO activation on a block of ``n_couples`` trellis steps."""

    aposteriori: np.ndarray
    extrinsic: np.ndarray
    hard_symbols: np.ndarray
    final_alpha: np.ndarray
    final_beta: np.ndarray


class BCJRDecoder:
    """Max-Log-MAP decoder over the duo-binary trellis.

    All arithmetic delegates to :class:`repro.sim.turbo_batch.BatchBCJR`
    with ``batch=1``, so this class and the batch kernel agree bit-for-bit
    by construction.

    Parameters
    ----------
    trellis:
        The (shared, stateless) trellis section.
    """

    def __init__(self, trellis: DuoBinaryTrellis | None = None):
        # Imported lazily: repro.sim.turbo_batch itself imports repro.turbo.
        from repro.sim.turbo_batch import BatchBCJR

        self._batch = BatchBCJR(trellis)

    @property
    def trellis(self) -> DuoBinaryTrellis:
        """The trellis section this decoder runs on."""
        return self._batch.trellis

    def decode(
        self,
        systematic_llrs: np.ndarray,
        parity_llrs: np.ndarray,
        apriori: np.ndarray | None = None,
        initial_alpha: np.ndarray | None = None,
        initial_beta: np.ndarray | None = None,
    ) -> BCJRResult:
        """Run one SISO activation.

        Parameters
        ----------
        systematic_llrs:
            ``(n_couples, 2)`` channel LLRs of the systematic bits (A, B).
        parity_llrs:
            ``(n_couples, 2)`` channel LLRs of the parity bits (Y, W); use 0
            for punctured bits.
        apriori:
            ``(n_couples, 4)`` symbol-level a-priori information (log p(u)/p(0));
            zeros when omitted.
        initial_alpha / initial_beta:
            Length-8 state-metric initialisations for the circular trellis
            (metric inheritance across turbo iterations); uniform when omitted.
        """
        sys_llrs = np.asarray(systematic_llrs, dtype=np.float64)
        par_llrs = np.asarray(parity_llrs, dtype=np.float64)
        if sys_llrs.ndim != 2 or sys_llrs.shape[1] != 2:
            raise DecodingError("systematic_llrs must have shape (n_couples, 2)")
        if par_llrs.shape != sys_llrs.shape:
            raise DecodingError("parity_llrs must have the same shape as systematic_llrs")
        n = sys_llrs.shape[0]
        if apriori is not None:
            apriori = np.asarray(apriori, dtype=np.float64)
            if apriori.shape != (n, NUM_SYMBOLS):
                raise DecodingError(
                    f"apriori must have shape ({n}, {NUM_SYMBOLS}), got {apriori.shape}"
                )
            apriori = apriori[None, :, :]
        result = self._batch.decode_batch(
            sys_llrs[None, :, :],
            par_llrs[None, :, :],
            apriori=apriori,
            initial_alpha=self._lift_init(initial_alpha),
            initial_beta=self._lift_init(initial_beta),
        )
        return BCJRResult(
            aposteriori=result.aposteriori[0],
            extrinsic=result.extrinsic[0],
            hard_symbols=result.hard_symbols[0],
            final_alpha=result.final_alpha[0],
            final_beta=result.final_beta[0],
        )

    @staticmethod
    def _lift_init(init: np.ndarray | None) -> np.ndarray | None:
        if init is None:
            return None
        arr = np.asarray(init, dtype=np.float64)
        if arr.shape != (NUM_STATES,):
            raise DecodingError(f"state-metric init must have shape ({NUM_STATES},)")
        return arr[None, :]
