"""Bit-level <-> symbol-level extrinsic conversion (BTS / STB units).

The paper (Section IV-B, following [23]/[24]) transports *bit-level* extrinsic
information over the NoC instead of symbol-level vectors, cutting the network
payload by roughly one third for a double-binary code at the cost of about
0.2 dB.  The Symbol-To-Bit (STB) unit marginalises the length-4 symbol
extrinsic into two bit LLRs before transmission, and the Bit-To-Symbol (BTS)
unit rebuilds a rank-1 (independent-bits) approximation of the symbol vector
at the receiving PE.

Conventions: symbol vectors hold ``log p(u)/p(0)`` with ``u = 2A + B``;
bit LLRs hold ``log p(bit=0)/p(bit=1)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError


def symbol_to_bit_extrinsic(symbol_extrinsic: np.ndarray) -> np.ndarray:
    """Marginalise symbol-level extrinsic into bit-level LLRs (the STB unit).

    Max-log marginalisation, the same max* as the SISOs: each bit LLR is the
    largest symbol value with the bit at 0 minus the largest with it at 1.

    Parameters
    ----------
    symbol_extrinsic:
        ``(..., n_couples, 4)`` array of ``log p(u)/p(0)`` values; any leading
        axes (e.g. a batch axis) are preserved.

    Returns
    -------
    numpy.ndarray
        ``(..., n_couples, 2)`` bit LLRs ``(LLR_A, LLR_B)``.
    """
    vals = np.asarray(symbol_extrinsic, dtype=np.float64)
    if vals.ndim < 2 or vals.shape[-1] != 4:
        raise DecodingError("symbol_extrinsic must have shape (..., n_couples, 4)")
    # Symbols: 0 = (A=0,B=0), 1 = (0,1), 2 = (1,0), 3 = (1,1).
    llr_a = np.maximum(vals[..., 0], vals[..., 1]) - np.maximum(vals[..., 2], vals[..., 3])
    llr_b = np.maximum(vals[..., 0], vals[..., 2]) - np.maximum(vals[..., 1], vals[..., 3])
    return np.stack([llr_a, llr_b], axis=-1)


def bit_to_symbol_extrinsic(bit_llrs: np.ndarray) -> np.ndarray:
    """Rebuild symbol-level extrinsic from bit LLRs (the BTS unit).

    Assumes the two bits are independent, i.e. returns the rank-1
    approximation ``log p(u)/p(0) = -[A(u)=1]*LLR_A - [B(u)=1]*LLR_B``.
    Accepts ``(..., n_couples, 2)`` arrays; leading axes are preserved.
    """
    llrs = np.asarray(bit_llrs, dtype=np.float64)
    if llrs.ndim < 2 or llrs.shape[-1] != 2:
        raise DecodingError("bit_llrs must have shape (..., n_couples, 2)")
    symbols = np.arange(4)
    a_bits = (symbols >> 1) & 1
    b_bits = symbols & 1
    return -(a_bits * llrs[..., 0:1] + b_bits * llrs[..., 1:2])
