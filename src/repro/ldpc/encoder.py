"""Systematic LDPC encoding.

:class:`LDPCEncoder` works for any full-row-rank parity-check matrix whose
last ``M`` columns form an invertible square sub-matrix over GF(2) — the case
for every WiMAX code, whose parity part is (almost) dual-diagonal.  The
encoder solves ``B p = A s`` once symbolically (``E = B^{-1} A``) and encodes
a batch of frames with a single GF(2) matrix product, run as an exact float32
BLAS product and reduced mod 2 on integers.

If the last ``M`` columns happen to be singular the encoder falls back to a
column permutation found by Gaussian elimination; the information bits then
occupy the unpermuted systematic positions reported by
:attr:`LDPCEncoder.systematic_columns`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodeDefinitionError
from repro.ldpc.hmatrix import ParityCheckMatrix


def _gf2_invert(matrix: np.ndarray) -> np.ndarray | None:
    """Invert a square GF(2) matrix; return ``None`` when it is singular."""
    size = matrix.shape[0]
    work = matrix.astype(np.uint8).copy()
    inverse = np.eye(size, dtype=np.uint8)
    for col in range(size):
        pivot_rows = np.flatnonzero(work[col:, col]) + col
        if pivot_rows.size == 0:
            return None
        pivot = int(pivot_rows[0])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inverse[[col, pivot]] = inverse[[pivot, col]]
        eliminate = np.flatnonzero(work[:, col])
        eliminate = eliminate[eliminate != col]
        if eliminate.size:
            work[eliminate] ^= work[col]
            inverse[eliminate] ^= inverse[col]
    return inverse


class LDPCEncoder:
    """Systematic encoder derived from a parity-check matrix.

    Parameters
    ----------
    h:
        The parity-check matrix.  Must have full row rank.
    """

    def __init__(self, h: ParityCheckMatrix):
        self._h = h
        self._n = h.n_cols
        self._m = h.n_rows
        self._k = self._n - self._m
        if self._k <= 0:
            raise CodeDefinitionError(
                f"H has {self._m} rows and {self._n} columns: no information bits"
            )
        dense = h.to_dense().astype(np.uint8)
        self._systematic_columns = np.arange(self._k)
        self._parity_columns = np.arange(self._k, self._n)
        parity_part = dense[:, self._k :]
        inverse = _gf2_invert(parity_part)
        if inverse is None:
            inverse, perm = self._permuted_parity_inverse(dense)
            self._systematic_columns = perm[: self._k]
            self._parity_columns = perm[self._k :]
        # E maps information bits to parity bits: p = E s (mod 2).  Both
        # float32 products, here and in encode_batch, are exact: every entry
        # is a sum of at most M (here) or k (there) products of 0/1 values,
        # and M, k < n < 2**24, below which float32 holds every integer.
        info_part = dense[:, self._systematic_columns].astype(np.float32)
        encode_matrix = (inverse.astype(np.float32) @ info_part) % 2
        # E.T is kept as uint8 and cast per call: resident float32 would hold
        # 4 bytes per entry (2.9 MB at 2304 r5/6) to save a cast that costs
        # about a tenth of the product.
        self._encode_matrix_t = np.ascontiguousarray(encode_matrix.T, dtype=np.uint8)

    def _permuted_parity_inverse(self, dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Find a column permutation whose trailing M columns are invertible."""
        work = dense.copy()
        n = self._n
        m = self._m
        col_order = list(range(n))
        row = 0
        pivot_cols: list[int] = []
        for col in range(n):
            if row >= m:
                break
            pivot_rows = np.flatnonzero(work[row:, col]) + row
            if pivot_rows.size == 0:
                continue
            pivot = int(pivot_rows[0])
            if pivot != row:
                work[[row, pivot]] = work[[pivot, row]]
            eliminate = np.flatnonzero(work[:, col])
            eliminate = eliminate[eliminate != row]
            if eliminate.size:
                work[eliminate] ^= work[row]
            pivot_cols.append(col)
            row += 1
        if row < m:
            raise CodeDefinitionError("H is not full row rank; cannot build an encoder")
        non_pivot = [c for c in col_order if c not in set(pivot_cols)]
        perm = np.array(non_pivot + pivot_cols, dtype=np.int64)
        parity_part = dense[:, perm[self._k :]]
        inverse = _gf2_invert(parity_part)
        if inverse is None:
            raise CodeDefinitionError("failed to invert the permuted parity part of H")
        return inverse, perm

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Codeword length."""
        return self._n

    @property
    def k(self) -> int:
        """Number of information bits."""
        return self._k

    @property
    def systematic_columns(self) -> np.ndarray:
        """Codeword positions that carry the information bits, in order."""
        return self._systematic_columns.copy()

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode ``k`` information bits into an ``n``-bit codeword.

        The information bits are placed at :attr:`systematic_columns` (which is
        simply ``0..k-1`` for WiMAX codes) and the parity bits at the remaining
        positions.
        """
        bits = np.asarray(info_bits, dtype=np.int64)
        if bits.shape != (self._k,):
            raise CodeDefinitionError(
                f"expected {self._k} information bits, got shape {bits.shape}"
            )
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise CodeDefinitionError("information bits must be 0/1 values")
        return self.encode_batch(bits[None])[0]

    def encode_batch(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode a ``(batch, k)`` bit array into ``(batch, n)`` codewords.

        One GF(2) matrix product for the whole batch, the only product path
        (:meth:`encode` is a batch of one); used by the batched BER engine in
        :mod:`repro.sim`.  The float32 product is exact, and its integer
        sums are reduced with ``& 1``: a float ``% 2`` costs as much as the
        product itself, and ``uint8`` cannot hold the sums, which reach ``k``.
        """
        bits = np.asarray(info_bits, dtype=np.int64)
        if bits.ndim != 2 or bits.shape[1] != self._k:
            raise CodeDefinitionError(
                f"expected a (batch, {self._k}) bit array, got shape {bits.shape}"
            )
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise CodeDefinitionError("information bits must be 0/1 values")
        parity = bits.astype(np.float32) @ self._encode_matrix_t.astype(np.float32)
        parity = parity.astype(np.int32) & 1
        codewords = np.zeros((bits.shape[0], self._n), dtype=np.int8)
        codewords[:, self._systematic_columns] = bits.astype(np.int8)
        codewords[:, self._parity_columns] = parity.astype(np.int8)
        return codewords

    def extract_info(self, codeword: np.ndarray) -> np.ndarray:
        """Recover the information bits from a (hard-decision) codeword."""
        word = np.asarray(codeword, dtype=np.int8)
        if word.shape != (self._n,):
            raise CodeDefinitionError(
                f"expected a codeword of length {self._n}, got shape {word.shape}"
            )
        return word[self._systematic_columns].copy()
