"""Sparse parity-check-matrix representation.

A :class:`ParityCheckMatrix` stores H row-wise as sorted column-index lists,
which is the access pattern needed by both the layered decoder (iterate the
non-zeros of one check) and the mapping substrate (build the layer adjacency
graph).  A dense ``numpy`` view is available for small codes and for tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import CodeDefinitionError


class ParityCheckMatrix:
    """An ``M x N`` binary parity-check matrix stored in sparse row form.

    Parameters
    ----------
    rows:
        One sequence of column indices per parity check.  Indices must be
        unique within a row and lie in ``[0, n_cols)``.
    n_cols:
        Number of columns (codeword length ``N``).
    """

    def __init__(self, rows: Sequence[Sequence[int]], n_cols: int):
        if n_cols <= 0:
            raise CodeDefinitionError(f"n_cols must be positive, got {n_cols}")
        if not rows:
            raise CodeDefinitionError("a parity-check matrix needs at least one row")
        cleaned: list[np.ndarray] = []
        for row_idx, row in enumerate(rows):
            arr = np.asarray(sorted(int(c) for c in row), dtype=np.int64)
            if arr.size == 0:
                raise CodeDefinitionError(f"row {row_idx} of H has no non-zero entries")
            if arr[0] < 0 or arr[-1] >= n_cols:
                raise CodeDefinitionError(
                    f"row {row_idx} has a column index outside [0, {n_cols})"
                )
            if np.unique(arr).size != arr.size:
                raise CodeDefinitionError(f"row {row_idx} has duplicate column indices")
            cleaned.append(arr)
        self._rows = cleaned
        self._n_cols = int(n_cols)
        self._col_rows: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of parity checks ``M``."""
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        """Codeword length ``N``."""
        return self._n_cols

    @property
    def n_edges(self) -> int:
        """Total number of non-zero entries (Tanner-graph edges)."""
        return sum(row.size for row in self._rows)

    @property
    def design_rate(self) -> float:
        """Design code rate ``(N - M) / N`` (assumes full-rank H)."""
        return (self.n_cols - self.n_rows) / self.n_cols

    def row(self, index: int) -> np.ndarray:
        """Column indices of the non-zeros in parity check ``index`` (sorted)."""
        return self._rows[index]

    def iter_rows(self) -> Iterable[np.ndarray]:
        """Iterate over rows as arrays of column indices."""
        return iter(self._rows)

    def row_degrees(self) -> np.ndarray:
        """Array of check-node degrees."""
        return np.array([row.size for row in self._rows], dtype=np.int64)

    def _build_col_index(self) -> list[np.ndarray]:
        cols: list[list[int]] = [[] for _ in range(self._n_cols)]
        for row_idx, row in enumerate(self._rows):
            for col in row.tolist():
                cols[col].append(row_idx)
        return [np.asarray(c, dtype=np.int64) for c in cols]

    def col(self, index: int) -> np.ndarray:
        """Row indices of the non-zeros in column ``index`` (sorted)."""
        if self._col_rows is None:
            self._col_rows = self._build_col_index()
        return self._col_rows[index]

    # ------------------------------------------------------------------ #
    # Dense view and syndrome computation
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Dense ``int8`` copy of H (only intended for small codes and tests)."""
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.int8)
        for row_idx, row in enumerate(self._rows):
            dense[row_idx, row] = 1
        return dense

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        """Compute ``H @ word mod 2`` for a 0/1 word of length ``n_cols``."""
        bits = np.asarray(word, dtype=np.int64)
        if bits.shape != (self.n_cols,):
            raise CodeDefinitionError(
                f"word length {bits.shape} does not match n_cols {self.n_cols}"
            )
        return np.array(
            [int(bits[row].sum() % 2) for row in self._rows], dtype=np.int8
        )

    def is_codeword(self, word: np.ndarray) -> bool:
        """True when ``word`` satisfies every parity check."""
        return not self.syndrome(word).any()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParityCheckMatrix(M={self.n_rows}, N={self.n_cols}, "
            f"edges={self.n_edges}, rate={self.design_rate:.3f})"
        )
