"""Flat edge-index arrays for vectorised Tanner-graph message passing.

A scalar decoder walks H row by row (one Python loop iteration per check
per frame).  The batch engine instead treats the Tanner graph as a
flat list of ``n_edges`` edges, stored row-major: edge ``e`` belongs to
check ``r`` when ``row_ptr[r] <= e < row_ptr[r + 1]`` and touches variable
``edge_cols[e]``.  A ``(batch, n)`` LLR array is gathered into a
``(batch, n_edges)`` edge array with one fancy-index, check updates run on
dense ``(batch, n_checks_d, d)`` tensors (one group per distinct check
degree ``d`` — WiMAX codes have at most two), and results are scattered
back the same way.  :class:`EdgeIndex` precomputes every index array those
gathers and scatters need, and :meth:`EdgeIndex.layers` splits the checks
into the column-disjoint runs the layered schedule updates in one step.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ldpc.hmatrix import ParityCheckMatrix

#: The unsigned word that holds a given number of byte lanes.
_WORD_OF_BYTES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


class DegreeGroup(NamedTuple):
    """All checks (or variables) of one degree, as dense index tensors.

    Attributes
    ----------
    degree:
        Number of edges incident to every member of the group.
    members:
        ``(n_members,)`` row indices (check groups) or column indices
        (variable groups) belonging to this group.
    edges:
        ``(n_members, degree)`` flat edge positions of each member's edges,
        usable to gather a ``(batch, n_edges)`` array into
        ``(batch, n_members, degree)``.
    """

    degree: int
    members: np.ndarray
    edges: np.ndarray


class Layer(NamedTuple):
    """A run of consecutive checks of equal degree that share no column.

    Checks in one layer read and write disjoint a-posteriori LLRs, so
    updating them together gives bit for bit what updating them one after
    the other does.  In a quasi-cyclic code a layer is one block row of
    ``z`` checks: the work the paper's P processing elements share.

    Attributes
    ----------
    rows:
        The check indices of the layer, consecutive and ascending.
    edges:
        The layer's contiguous span of the flat edge axis.
    cols:
        ``(degree, len(rows))`` column index of every edge of the layer,
        degree-major like :attr:`EdgeIndex.check_cols`: row ``i`` holds the
        ``i``-th column of every check, column ``j`` the columns of check
        ``rows[j]``.  It is a transposed view of the layer's span of
        :attr:`EdgeIndex.edge_cols`, so no column is stored twice.
    """

    rows: range
    edges: slice
    cols: np.ndarray


class EdgeIndex:
    """Precomputed flat edge indexing for one parity-check matrix.

    Built once per decoder from a
    :class:`~repro.ldpc.hmatrix.ParityCheckMatrix`; all arrays are read-only
    inputs to the batched kernels in :mod:`repro.sim.kernels`.
    """

    def __init__(self, h: ParityCheckMatrix):
        rows = [h.row(r) for r in range(h.n_rows)]
        self.n_rows = int(h.n_rows)
        self.n_cols = int(h.n_cols)
        #: ``(n_edges,)`` variable index of every edge, row-major.
        self.edge_cols: np.ndarray = np.concatenate(rows)
        self.n_edges = int(self.edge_cols.size)
        degrees = np.array([row.size for row in rows], dtype=np.int64)
        #: ``(n_rows + 1,)`` row segment boundaries into the flat edge axis.
        self.row_ptr: np.ndarray = np.concatenate(
            [[0], np.cumsum(degrees)]
        ).astype(np.int64)
        #: ``(max_degree, n_rows)`` variable index of every check's edges,
        #: one check per column; a check of lower degree is padded with the
        #: out-of-range variable ``n_cols``, which the syndrome reads as 0.
        self.check_cols: np.ndarray = np.full(
            (int(degrees.max(initial=0)), self.n_rows), self.n_cols, dtype=np.int64
        )
        edge_rows = np.repeat(np.arange(self.n_rows), degrees)
        self.check_cols[np.arange(self.n_edges) - self.row_ptr[edge_rows], edge_rows] = (
            self.edge_cols
        )
        self.check_groups: tuple[DegreeGroup, ...] = self._build_check_groups(degrees)
        self.variable_groups: tuple[DegreeGroup, ...] = self._build_variable_groups()

    def _build_check_groups(self, degrees: np.ndarray) -> tuple[DegreeGroup, ...]:
        groups = []
        for degree in np.unique(degrees):
            members = np.flatnonzero(degrees == degree)
            starts = self.row_ptr[members]
            edges = starts[:, None] + np.arange(int(degree))[None, :]
            groups.append(DegreeGroup(int(degree), members, edges))
        return tuple(groups)

    def _build_variable_groups(self) -> tuple[DegreeGroup, ...]:
        counts = np.bincount(self.edge_cols, minlength=self.n_cols)
        # Stable sort keeps each column's edges in ascending row order, the
        # same order in which the sequential decoders accumulate them.
        order = np.argsort(self.edge_cols, kind="stable")
        col_ends = np.cumsum(counts)
        groups = []
        for degree in np.unique(counts):
            if degree == 0:
                continue
            members = np.flatnonzero(counts == degree)
            starts = col_ends[members] - degree
            idx = starts[:, None] + np.arange(int(degree))[None, :]
            groups.append(DegreeGroup(int(degree), members, order[idx]))
        return tuple(groups)

    def layers(self) -> tuple[Layer, ...]:
        """Split the checks, in order, into greedy column-disjoint layers.

        A check joins the current layer when it has the layer's degree and
        shares no column with any check already in it; otherwise it opens a
        new layer.  No quasi-cyclic metadata is needed: the runs fall out
        of the column sets alone.
        """
        degrees = np.diff(self.row_ptr)
        edge_rows = np.repeat(np.arange(self.n_rows), degrees)
        # For every edge, the previous check touching the same column (-1 if
        # none): sort edges by (column, row) and look one position back.
        order = np.lexsort((edge_rows, self.edge_cols))
        same_col = self.edge_cols[order[1:]] == self.edge_cols[order[:-1]]
        previous = np.full(self.n_edges, -1, dtype=np.int64)
        previous[order[1:][same_col]] = edge_rows[order[:-1][same_col]]
        # The latest earlier check each check conflicts with.
        conflicts = np.maximum.reduceat(previous, self.row_ptr[:-1]).tolist()
        degree_list = degrees.tolist()
        bounds = [0]
        for row in range(1, self.n_rows):
            start = bounds[-1]
            if degree_list[row] != degree_list[start] or conflicts[row] >= start:
                bounds.append(row)
        bounds.append(self.n_rows)
        layers = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            span = slice(int(self.row_ptr[start]), int(self.row_ptr[stop]))
            cols = self.edge_cols[span].reshape(stop - start, degree_list[start]).T
            layers.append(Layer(range(start, stop), span, cols))
        return tuple(layers)

    # ------------------------------------------------------------------ #
    # Gather / scatter primitives
    # ------------------------------------------------------------------ #
    def gather(self, values: np.ndarray) -> np.ndarray:
        """Gather per-variable values ``(batch, n)`` onto edges ``(batch, n_edges)``."""
        return values[:, self.edge_cols]

    def accumulate_columns(self, edge_values: np.ndarray) -> np.ndarray:
        """Sum per-edge values ``(batch, n_edges)`` into columns ``(batch, n)``.

        This is the a-posteriori accumulation of the flooding schedule: each
        variable receives the sum of the check-to-variable messages on its
        incident edges.  Columns without edges receive zero.

        Each column sums from zero, one edge at a time in ascending row
        order, so a frame's result does not depend on the batch it sits in.
        (A ``sum`` over a gathered ``(batch, members, degree)`` tensor does:
        NumPy sums a contiguous last axis pairwise from degree 8 on, which
        at batch 1 rounds differently than the strided sum at batch > 1.)
        """
        out = np.zeros((edge_values.shape[0], self.n_cols), dtype=edge_values.dtype)
        for group in self.variable_groups:
            total = np.zeros((edge_values.shape[0], group.members.size), dtype=edge_values.dtype)
            for position in range(group.degree):
                total += edge_values[:, group.edges[:, position]]
            out[:, group.members] = total
        return out

    def unsatisfied_counts(self, hard_bits: np.ndarray, axis: int = -1) -> np.ndarray:
        """Number of unsatisfied parity checks per frame.

        The count runs on byte lanes.  The frames go on the last axis, one
        frame per byte, into a zeroed ``(n + 1, width)`` ``uint8`` buffer
        (row ``n`` is the zero variable that pads :attr:`check_cols`), and
        the buffer is viewed as unsigned words of 1, 2, 4 or 8 bytes: the
        smallest that holds the batch, up to 8 frames per word, with
        ``width`` the batch rounded up to whole words.  The gather and the
        per-check XOR then run on whole words; XOR never carries from one
        byte into the next, so the low bit of each byte is its own frame's
        parity.

        Parameters
        ----------
        hard_bits:
            ``(batch, n)`` or ``(n, batch)`` hard decisions, of any strides
            and any integer or boolean dtype; only the low bit of each value
            counts.
        axis:
            The variable axis of ``hard_bits``: ``-1`` for ``(batch, n)``,
            ``0`` for ``(n, batch)``.

        Returns
        -------
        numpy.ndarray
            ``(batch,)`` counts of rows whose parity sum is odd — the batched
            equivalent of ``h.syndrome(word).sum()``.
        """
        bits = np.asarray(hard_bits).swapaxes(axis, 0)
        batch = bits.shape[1]
        lane_bytes = min(8, 1 << (batch - 1).bit_length())
        lanes = np.zeros(
            (self.n_cols + 1, -(-batch // lane_bytes) * lane_bytes), dtype=np.uint8
        )
        lanes[: self.n_cols, :batch] = bits
        words = lanes.view(_WORD_OF_BYTES[lane_bytes]).take(self.check_cols, axis=0)
        parity = np.bitwise_xor.reduce(words, axis=0).view(np.uint8)
        parity &= 1
        return parity.sum(axis=0, dtype=np.int64)[:batch]
