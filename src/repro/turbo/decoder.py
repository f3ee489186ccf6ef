"""Iterative turbo decoding of the WiMAX CTC.

The decoder alternates two SISO activations per iteration — constituent code 1
in natural order, constituent code 2 in interleaved order — exchanging
symbol-level (or, optionally, bit-level as on the paper's NoC) extrinsic
information through the CTC interleaver.  Circular-trellis state metrics are
inherited across iterations, which is the standard approach for CRSC codes.

Since the batched turbo engine landed, this module is a thin per-frame
facade: the iterative exchange itself lives in
:class:`repro.sim.turbo_batch.BatchTurboDecoder` and :meth:`TurboDecoder.decode`
runs it with ``batch=1``.  Decoding many frames?  Use the batch decoder (or
:class:`repro.sim.runner.BerRunner`) directly — stacking frames on the batch
axis returns bit-identical results at a fraction of the per-frame cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DecodingError
from repro.turbo.encoder import TurboEncoder

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle with repro.sim
    from repro.sim.turbo_batch import BatchTurboDecoder


@dataclass
class TurboDecoderResult:
    """Outcome of one turbo frame decode."""

    hard_bits: np.ndarray
    hard_symbols: np.ndarray
    iterations: int
    converged: bool
    #: Per-iteration count of symbol decisions that changed vs the previous iteration.
    decision_changes: list[int] = field(default_factory=list)


class TurboDecoder:
    """Iterative duo-binary turbo decoder matched to :class:`TurboEncoder`.

    All message passing delegates to
    :class:`repro.sim.turbo_batch.BatchTurboDecoder` with ``batch=1``, so
    this class and the batch engine agree bit-for-bit by construction.  The
    SISOs run Max-Log-MAP with the extrinsic scaled by
    :data:`repro.sim.turbo_batch.EXTRINSIC_SCALE`.  A decoder is configured
    once, at construction: its options are read-only.

    Parameters
    ----------
    encoder:
        The encoder whose frames are being decoded (provides block size,
        interleaver and rate).
    max_iterations:
        Number of full iterations (two SISO activations each); the paper uses 8.
    algorithm:
        Must be ``"max-log"``, as for the batch decoder.
    bit_level_exchange:
        When true, extrinsic information is collapsed to bit level and rebuilt
        at the receiving SISO, mimicking the BTS/STB path used on the NoC
        (paper Section IV-B, ~0.2 dB loss).
    early_termination:
        Stop when hard symbol decisions are identical in two successive
        iterations.
    """

    __slots__ = ("_batch",)

    def __init__(
        self,
        encoder: TurboEncoder,
        max_iterations: int = 8,
        algorithm: str = "max-log",
        bit_level_exchange: bool = False,
        early_termination: bool = True,
    ):
        # Imported lazily: repro.sim.turbo_batch itself imports repro.turbo.
        from repro.sim.turbo_batch import BatchTurboDecoder

        self._batch: "BatchTurboDecoder" = BatchTurboDecoder(
            encoder,
            max_iterations=max_iterations,
            algorithm=algorithm,
            bit_level_exchange=bit_level_exchange,
            early_termination=early_termination,
        )

    @property
    def encoder(self) -> TurboEncoder:
        """The encoder whose frames this decoder decodes."""
        return self._batch.encoder

    @property
    def max_iterations(self) -> int:
        """Maximum number of full turbo iterations per frame."""
        return self._batch.max_iterations

    @property
    def bit_level_exchange(self) -> bool:
        """Exchange bit-level (BTS/STB) instead of symbol-level extrinsics."""
        return self._batch.bit_level_exchange

    @property
    def early_termination(self) -> bool:
        """Stop a frame once its hard decisions repeat across iterations."""
        return self._batch.early_termination

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode(
        self,
        systematic_llrs: np.ndarray,
        parity1_llrs: np.ndarray,
        parity2_llrs: np.ndarray,
    ) -> TurboDecoderResult:
        """Decode one frame.

        Parameters
        ----------
        systematic_llrs:
            ``(n_couples, 2)`` LLRs of (A, B) in natural order.
        parity1_llrs:
            ``(n_couples, 2)`` LLRs of (Y1, W1) in natural order (0 for punctured W).
        parity2_llrs:
            ``(n_couples, 2)`` LLRs of (Y2, W2) in interleaved order.
        """
        sys_llrs = np.asarray(systematic_llrs, dtype=np.float64)
        par1 = np.asarray(parity1_llrs, dtype=np.float64)
        par2 = np.asarray(parity2_llrs, dtype=np.float64)
        expected = (self.encoder.n_couples, 2)
        for name, arr in (("systematic", sys_llrs), ("parity1", par1), ("parity2", par2)):
            if arr.shape != expected:
                raise DecodingError(f"{name} LLRs must have shape {expected}, got {arr.shape}")
        result = self._batch.decode_split(
            sys_llrs[None, :, :], par1[None, :, :], par2[None, :, :]
        )
        return TurboDecoderResult(
            hard_bits=result.hard_bits[0],
            hard_symbols=result.hard_symbols[0],
            iterations=int(result.iterations[0]),
            converged=bool(result.converged[0]),
            decision_changes=list(result.decision_changes[0]),
        )

    # ------------------------------------------------------------------ #
    # Convenience: LLR plumbing from a transmitted codeword
    # ------------------------------------------------------------------ #
    def split_llrs(self, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a flat LLR array (as produced for :meth:`TurboCodeword.to_bit_array`).

        Returns ``(systematic, parity1, parity2)`` shaped ``(n_couples, 2)``;
        punctured W positions receive LLR 0.
        """
        arr = np.asarray(llrs, dtype=np.float64)
        if arr.ndim != 1:
            raise DecodingError(f"expected a flat LLR array, got shape {arr.shape}")
        systematic, parity1, parity2 = self._batch.split_llrs_batch(arr[None, :])
        return systematic[0], parity1[0], parity2[0]
