"""Quasi-cyclic LDPC base matrices and their expansion.

A QC-LDPC code is described by an ``mb x nb`` base matrix whose entries are
either ``-1`` (a ``z x z`` all-zero block) or a shift ``s in [0, z)`` (a
``z x z`` identity matrix cyclically right-shifted by ``s``).  WiMAX codes are
QC with ``nb = 24`` and ``z`` ranging from 24 to 96 in steps of 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CodeDefinitionError
from repro.ldpc.hmatrix import ParityCheckMatrix


@dataclass(frozen=True)
class QCBaseMatrix:
    """An integer base matrix together with its expansion factor ``z``.

    Entries are ``-1`` for zero blocks and shift values in ``[0, z)`` for
    shifted-identity blocks.
    """

    entries: tuple[tuple[int, ...], ...]
    z: int

    def __post_init__(self) -> None:
        if self.z <= 0:
            raise CodeDefinitionError(f"expansion factor z must be positive, got {self.z}")
        if not self.entries:
            raise CodeDefinitionError("base matrix must have at least one row")
        width = len(self.entries[0])
        for row_idx, row in enumerate(self.entries):
            if len(row) != width:
                raise CodeDefinitionError(
                    f"base-matrix row {row_idx} has {len(row)} entries, expected {width}"
                )
            for col_idx, value in enumerate(row):
                if value < -1 or value >= self.z:
                    raise CodeDefinitionError(
                        f"base-matrix entry ({row_idx},{col_idx}) = {value} is outside "
                        f"[-1, {self.z})"
                    )

    @classmethod
    def from_lists(cls, rows: list[list[int]], z: int) -> "QCBaseMatrix":
        """Build from nested lists (convenience for the embedded WiMAX tables)."""
        return cls(tuple(tuple(int(v) for v in row) for row in rows), z)

    @property
    def mb(self) -> int:
        """Number of block rows."""
        return len(self.entries)

    @property
    def nb(self) -> int:
        """Number of block columns."""
        return len(self.entries[0])

    @property
    def n(self) -> int:
        """Expanded codeword length."""
        return self.nb * self.z

    @property
    def m(self) -> int:
        """Expanded number of parity checks."""
        return self.mb * self.z

    def as_array(self) -> np.ndarray:
        """Return the base matrix as a NumPy ``int64`` array."""
        return np.asarray(self.entries, dtype=np.int64)

    def expand(self) -> ParityCheckMatrix:
        """Expand to the full sparse parity-check matrix."""
        return expand_base_matrix(self)


def expand_base_matrix(base: QCBaseMatrix) -> ParityCheckMatrix:
    """Expand a :class:`QCBaseMatrix` into a :class:`ParityCheckMatrix`.

    Block ``(i, j)`` with shift ``s`` contributes, for every ``r`` in
    ``[0, z)``, a non-zero at row ``i*z + r`` and column
    ``j*z + (r + s) mod z`` — the standard right-shifted identity convention.
    """
    z = base.z
    rows: list[list[int]] = [[] for _ in range(base.m)]
    arr = base.as_array()
    for block_row in range(base.mb):
        for block_col in range(base.nb):
            shift = int(arr[block_row, block_col])
            if shift < 0:
                continue
            base_row = block_row * z
            base_col = block_col * z
            for r in range(z):
                rows[base_row + r].append(base_col + (r + shift) % z)
    return ParityCheckMatrix(rows, base.n)


def scale_shift(shift_z0: int, z: int, z0: int = 96, use_modulo: bool = False) -> int:
    """Scale a base-matrix shift defined for ``z0`` down to expansion factor ``z``.

    IEEE 802.16e defines base matrices for the largest expansion factor
    ``z0 = 96`` and derives smaller codes by either flooring
    (``floor(s * z / z0)``, used by every code class except rate 2/3A) or by a
    modulo rule (``s mod z``, rate 2/3A).
    """
    if shift_z0 < 0:
        return -1
    if z <= 0 or z0 <= 0:
        raise CodeDefinitionError("expansion factors must be positive")
    if use_modulo:
        return shift_z0 % z
    return (shift_z0 * z) // z0
