"""BPSK modulation and exact AWGN LLR demapping for the functional chain.

The paper characterises its decoder on WiMAX codes over BPSK/AWGN, so BPSK
is the one constellation the chain needs: bit 0 maps to ``+1`` and bit 1 to
``-1``, and the demapper returns the exact LLR ``2*y/sigma^2``.

Both methods are batched: bits and symbols may be one-dimensional (a single
frame) or carry any number of leading axes — a ``(batch, n)`` bit array maps
to a ``(batch, n)`` symbol array and back to ``(batch, n)`` LLRs — which is
what :class:`repro.sim.runner.BerRunner` relies on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.utils.validation import require_real


class BPSKModulator:
    """Antipodal BPSK: bit 0 -> +1, bit 1 -> -1 (the LLR-friendly convention)."""

    #: Number of bits carried by one constellation symbol.
    bits_per_symbol: int = 1

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map 0/1 bits onto real ``+-1`` symbols.

        The last axis is the bit axis; leading axes (e.g. a batch axis) are
        preserved.
        """
        arr = np.asarray(bits)
        if arr.ndim == 0:
            raise DecodingError("modulator expects at least a one-dimensional bit array")
        if np.iscomplexobj(arr):
            raise DecodingError("modulator expects only 0/1 values, got complex input")
        if arr.size:
            if arr.min() < 0 or arr.max() > 1:
                raise DecodingError("modulator expects only 0/1 values")
            # Non-integral floats like 0.5 would pass the range check above and
            # be silently truncated to 0 by the int cast; reject them instead.
            if not np.issubdtype(arr.dtype, np.integer) and arr.dtype != np.bool_:
                if np.any(arr != np.rint(arr)):
                    raise DecodingError(
                        "modulator expects integral 0/1 values, got non-integral input"
                    )
        return 1.0 - 2.0 * arr.astype(np.int8).astype(np.float64)

    def demodulate_llr(
        self,
        received: np.ndarray,
        noise_variance: float,
        gains: None = None,
    ) -> np.ndarray:
        """Exact per-bit LLRs ``log P(b=0|y)/P(b=1|y) = 2*y/sigma^2``.

        ``noise_variance`` is the per-dimension variance ``sigma^2``, which
        :meth:`repro.channel.awgn.AWGNChannel.llr_noise_variance` returns for
        real symbols.  ``gains`` exists so that callers forwarding it by
        keyword keep working; the AWGN chain has no channel-state
        information, so anything but ``None`` is rejected.
        """
        if gains is not None:
            raise DecodingError(
                "BPSK over AWGN takes no channel gains; pass gains=None"
            )
        require_real("noise_variance", noise_variance, allow_zero=False)
        return 2.0 * np.asarray(received, dtype=np.float64) / float(noise_variance)
