"""WiMAX CTC turbo encoding.

The encoder feeds the natural-order couple sequence to constituent encoder 1
and the interleaved sequence to constituent encoder 2, both operated as
*circular* (tail-biting) codes, then maps the systematic couple ``(A, B)``
and the two parity couples ``(Y1, W1)`` / ``(Y2, W2)`` to the transmitted
sub-blocks.  Rate 1/2 — the rate used throughout the paper — keeps only the
``Y`` parities; rate 1/3 keeps ``Y`` and ``W``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CodeDefinitionError
from repro.turbo.ctc_interleaver import CTCInterleaver
from repro.turbo.trellis import DuoBinaryTrellis


@dataclass(frozen=True)
class TurboCodeword:
    """Encoded frame, kept in per-stream form for easy LLR bookkeeping.

    Attributes
    ----------
    systematic:
        ``(n_couples, 2)`` systematic bits ``(A, B)`` in natural order.
    parity1 / parity2:
        ``(n_couples, 2)`` parity couples of encoder 1 (natural order) and
        encoder 2 (interleaved order).
    rate:
        Nominal code rate ("1/2" or "1/3").
    """

    systematic: np.ndarray
    parity1: np.ndarray
    parity2: np.ndarray
    rate: str

    @property
    def n_couples(self) -> int:
        """Number of information couples."""
        return self.systematic.shape[0]

    def to_bit_array(self) -> np.ndarray:
        """Serialise to a flat bit array: systematic, then parity1, then parity2.

        For rate 1/2 only the ``Y`` bit of each parity couple is kept.
        """
        streams = [self.systematic.reshape(-1)]
        if self.rate == "1/2":
            streams.append(self.parity1[:, 0])
            streams.append(self.parity2[:, 0])
        else:
            streams.append(self.parity1.reshape(-1))
            streams.append(self.parity2.reshape(-1))
        return np.concatenate(streams).astype(np.int8)


class TurboEncoder:
    """Circular duo-binary turbo encoder for the WiMAX CTC.

    Parameters
    ----------
    n_couples:
        Block size in couples; must be one of the standard CTC sizes.
    rate:
        "1/2" (default, the paper's working point) or "1/3" (mother code).
    """

    SUPPORTED_RATES = ("1/2", "1/3")

    def __init__(self, n_couples: int = 2400, rate: str = "1/2"):
        if rate not in self.SUPPORTED_RATES:
            raise CodeDefinitionError(
                f"unsupported CTC rate {rate!r}; supported: {self.SUPPORTED_RATES}"
            )
        self.rate = rate
        self.interleaver = CTCInterleaver.for_block_size(n_couples)
        self.trellis = DuoBinaryTrellis()
        self._parity_table = self.trellis.parity_table()
        self.n_couples = n_couples

    @property
    def k(self) -> int:
        """Number of information bits per frame."""
        return 2 * self.n_couples

    @property
    def n(self) -> int:
        """Number of coded bits per frame."""
        return self.k * (2 if self.rate == "1/2" else 3)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    @staticmethod
    def bits_to_symbols(bits: np.ndarray) -> np.ndarray:
        """Pack a flat bit array (A0 B0 A1 B1 ...) into couple symbols ``2A + B``."""
        arr = np.asarray(bits, dtype=np.int64)
        if arr.ndim != 1 or arr.size % 2 != 0:
            raise CodeDefinitionError("bit array must be one-dimensional with even length")
        pairs = arr.reshape(-1, 2)
        return 2 * pairs[:, 0] + pairs[:, 1]

    @staticmethod
    def symbols_to_bits(symbols: np.ndarray) -> np.ndarray:
        """Unpack couple symbols back to a flat bit array."""
        arr = np.asarray(symbols, dtype=np.int64)
        bits = np.empty((arr.size, 2), dtype=np.int8)
        bits[:, 0] = (arr >> 1) & 1
        bits[:, 1] = arr & 1
        return bits.reshape(-1)

    def _check_info_bits(self, info_bits: np.ndarray, ndim: int) -> np.ndarray:
        bits = np.asarray(info_bits, dtype=np.int64)
        if bits.ndim != ndim or bits.shape[-1] != self.k:
            shape = f"({self.k},)" if ndim == 1 else f"(batch, {self.k})"
            raise CodeDefinitionError(
                f"expected a {shape} information-bit array, got shape {bits.shape}"
            )
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise CodeDefinitionError("information bits must be 0/1 values")
        return bits

    def _encode_constituent_batch(self, symbols: np.ndarray) -> np.ndarray:
        """Run one circular constituent encoder over ``(batch, n_couples)`` symbols.

        The circular state sequence comes from one sequential pass over the
        couples (:meth:`DuoBinaryTrellis.circular_states`); the parity is
        then a single gather; returns ``(batch, n_couples, 2)`` parity bits.
        """
        states = self.trellis.circular_states(symbols)
        if np.any(states[:, -1] != states[:, 0]):
            raise CodeDefinitionError(
                "circular encoding did not return to the circulation state"
            )
        return self._parity_table[states[:, :-1], symbols]

    def _encode_parities(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(batch, k)`` bits -> couple symbols and both ``(batch, n_couples, 2)`` parities."""
        symbols = 2 * bits[:, 0::2] + bits[:, 1::2]  # (batch, n_couples)
        parity1 = self._encode_constituent_batch(symbols)
        parity2 = self._encode_constituent_batch(
            self.interleaver.interleave_symbols(symbols)
        )
        return symbols, parity1, parity2

    def encode(self, info_bits: np.ndarray) -> TurboCodeword:
        """Encode ``2 * n_couples`` information bits (a batch of one)."""
        bits = self._check_info_bits(info_bits, 1)
        symbols, parity1, parity2 = self._encode_parities(bits[None])
        systematic = np.empty((self.n_couples, 2), dtype=np.int8)
        systematic[:, 0] = (symbols[0] >> 1) & 1
        systematic[:, 1] = symbols[0] & 1
        return TurboCodeword(
            systematic=systematic, parity1=parity1[0], parity2=parity2[0], rate=self.rate
        )

    def encode_batch(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode ``(batch, k)`` information bits into ``(batch, n)`` codewords.

        The output rows follow the :meth:`TurboCodeword.to_bit_array` layout
        (systematic bits, then the kept parity1 bits, then parity2), which is
        what :class:`repro.sim.runner.BerRunner` transmits; a test pins this
        against a scalar per-couple encoder loop.
        """
        bits = self._check_info_bits(info_bits, 2)
        batch = bits.shape[0]
        _, parity1, parity2 = self._encode_parities(bits)
        n_couples = self.n_couples
        out = np.empty((batch, self.n), dtype=np.int8)
        out[:, : 2 * n_couples] = bits
        if self.rate == "1/2":
            out[:, 2 * n_couples : 3 * n_couples] = parity1[:, :, 0]
            out[:, 3 * n_couples :] = parity2[:, :, 0]
        else:
            out[:, 2 * n_couples : 4 * n_couples] = parity1.reshape(batch, -1)
            out[:, 4 * n_couples :] = parity2.reshape(batch, -1)
        return out
