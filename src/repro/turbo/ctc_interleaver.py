"""The WiMAX CTC (almost-regular) interleaver.

IEEE 802.16e interleaves *couples* of bits in two steps:

1. **Intra-couple swap** — for every odd couple index ``j`` the two bits of
   the couple are swapped (``(A, B) -> (B, A)``).
2. **Inter-couple permutation** — couple ``j`` of the interleaved sequence is
   taken from position ``P(j)`` of the natural sequence, where::

       j mod 4 == 0:  P(j) = (P0*j + 1)            mod N
       j mod 4 == 1:  P(j) = (P0*j + 1 + N/2 + P1) mod N
       j mod 4 == 2:  P(j) = (P0*j + 1 + P2)       mod N
       j mod 4 == 3:  P(j) = (P0*j + 1 + N/2 + P3) mod N

``(P0, P1, P2, P3)`` depend on the block size ``N`` (in couples) and are
listed in the standard; the table below covers the WiMAX CTC block sizes,
including ``N = 2400`` couples (4800 bits), the code used in the paper's
Table II / Table III.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CodeDefinitionError

#: Interleaver parameters per block size in couples: N -> (P0, P1, P2, P3).
CTC_INTERLEAVER_PARAMETERS: dict[int, tuple[int, int, int, int]] = {
    24: (5, 0, 0, 0),
    36: (11, 18, 0, 18),
    48: (13, 24, 0, 24),
    72: (11, 6, 0, 6),
    96: (7, 48, 24, 72),
    108: (11, 54, 56, 2),
    120: (13, 60, 0, 60),
    144: (17, 74, 72, 2),
    180: (11, 90, 0, 90),
    192: (11, 96, 48, 144),
    216: (13, 108, 0, 108),
    240: (13, 120, 60, 180),
    480: (53, 62, 12, 2),
    960: (43, 64, 300, 824),
    1440: (43, 720, 360, 540),
    1920: (31, 8, 24, 16),
    2400: (53, 66, 24, 2),
}


def supported_ctc_block_sizes() -> tuple[int, ...]:
    """Block sizes (in couples) with built-in interleaver parameters."""
    return tuple(sorted(CTC_INTERLEAVER_PARAMETERS))


@dataclass(frozen=True)
class CTCInterleaver:
    """WiMAX CTC interleaver for a block of ``n_couples`` couples.

    The object exposes the permutation ``P`` (``interleaved[j]`` comes from
    natural position ``permutation[j]``) and the per-position swap flags of
    step 1, plus helpers to (de)interleave couple sequences represented as
    symbols ``u = 2A + B``.
    """

    n_couples: int
    p0: int
    p1: int
    p2: int
    p3: int

    @classmethod
    def for_block_size(cls, n_couples: int) -> "CTCInterleaver":
        """Build the interleaver for a standard WiMAX block size."""
        if n_couples not in CTC_INTERLEAVER_PARAMETERS:
            raise CodeDefinitionError(
                f"no CTC interleaver parameters for N={n_couples} couples; "
                f"supported sizes: {supported_ctc_block_sizes()}"
            )
        p0, p1, p2, p3 = CTC_INTERLEAVER_PARAMETERS[n_couples]
        return cls(n_couples=n_couples, p0=p0, p1=p1, p2=p2, p3=p3)

    def __post_init__(self) -> None:
        if self.n_couples <= 0 or self.n_couples % 4 != 0:
            raise CodeDefinitionError(
                f"CTC block size must be a positive multiple of 4 couples, got {self.n_couples}"
            )
        perm = self.permutation()
        if np.unique(perm).size != self.n_couples:
            raise CodeDefinitionError(
                f"CTC interleaver parameters {self.p0, self.p1, self.p2, self.p3} do not "
                f"produce a permutation for N={self.n_couples}"
            )

    # ------------------------------------------------------------------ #
    # Permutation construction
    # ------------------------------------------------------------------ #
    def permutation(self) -> np.ndarray:
        """Return ``P`` such that interleaved couple ``j`` = natural couple ``P(j)``."""
        n = self.n_couples
        half = n // 2
        j = np.arange(n, dtype=np.int64)
        offsets = np.array([0, half + self.p1, self.p2, half + self.p3], dtype=np.int64)
        return (self.p0 * j + 1 + offsets[j % 4]) % n

    def swap_flags(self) -> np.ndarray:
        """Step-1 swap flag per *natural* couple index (1 = couple bits swapped)."""
        return (np.arange(self.n_couples, dtype=np.int64) % 2).astype(np.int8)

    # ------------------------------------------------------------------ #
    # Symbol-domain helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _swap_symbols(symbols: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Swap the two bits of each couple where ``flags`` is set (1 <-> 2)."""
        out = symbols.copy()
        swap = flags.astype(bool)
        ones = swap & (symbols == 1)
        twos = swap & (symbols == 2)
        out[ones] = 2
        out[twos] = 1
        return out

    def interleave_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Produce the sequence seen by the second constituent encoder.

        The couple axis is the last one; any leading axes (e.g. a batch of
        frames) are preserved.
        """
        arr = np.asarray(symbols, dtype=np.int64)
        if arr.ndim == 0 or arr.shape[-1] != self.n_couples:
            raise CodeDefinitionError(
                f"expected {self.n_couples} couples on the last axis, got shape {arr.shape}"
            )
        swapped = self._swap_symbols(arr, self.swap_flags())
        return swapped[..., self.permutation()]

    def deinterleave_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave_symbols` (leading axes preserved)."""
        arr = np.asarray(symbols, dtype=np.int64)
        if arr.ndim == 0 or arr.shape[-1] != self.n_couples:
            raise CodeDefinitionError(
                f"expected {self.n_couples} couples on the last axis, got shape {arr.shape}"
            )
        perm = self.permutation()
        natural_swapped = np.empty_like(arr)
        natural_swapped[..., perm] = arr
        return self._swap_symbols(natural_swapped, self.swap_flags())

    # ------------------------------------------------------------------ #
    # Metrics used by the NoC traffic generator
    # ------------------------------------------------------------------ #
    def spread(self) -> int:
        """Minimum circular distance ``|P(j) - P(j+1)|`` (interleaver spread)."""
        perm = self.permutation()
        n = self.n_couples
        diffs = np.abs(np.diff(perm))
        circular = np.minimum(diffs, n - diffs)
        return int(circular.min())

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"CTC interleaver N={self.n_couples} couples "
            f"(P0={self.p0}, P1={self.p1}, P2={self.p2}, P3={self.p3}), "
            f"spread={self.spread()}"
        )
