"""Vectorised check-node update kernels, written against the backend layer.

Both dense kernels operate on arrays whose *last* axis enumerates the edges
of one check (the check degree ``d``); any number of leading axes is
allowed.  The batch decoders call them with ``(batch, n_checks_d, d)``
tensors (flooding, one call per degree group; layered, one call per layer
of column-disjoint checks), and the per-frame decoders reuse exactly the
same code with a single leading axis so sequential and batched results are
bit-identical.

Every kernel takes an optional ``backend=`` override (a name, an
:class:`~repro.backend.ArrayBackend`, or ``None`` for the active selection
— see :mod:`repro.backend`) and only touches the namespace through
``xp.<function>(...)`` calls, so the same source serves NumPy, CuPy and
torch.  :func:`min_sum_update_segments` additionally offers a
segment-reduction formulation over :class:`~repro.sim.edges.EdgeIndex` flat
edges for backends exposing ``ufunc.reduceat``-style primitives — one
kernel launch for *all* checks regardless of their degrees, instead of one
dense call per degree group.

Sign convention (pinned by ``tests/test_backends.py``): the sign of an LLR
is its IEEE-754 sign *bit* (``xp.signbit``), so ``-0.0`` counts as negative
— matching the scalar reference in :mod:`repro.ldpc.checknode`.  The
previous ``arr < 0`` formulation silently treated ``-0.0`` as positive,
which made the sign product depend on how an exactly-zero magnitude was
produced.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, BackendLike, resolve
from repro.errors import DecodingError

#: Saturation applied to the tanh-domain leave-one-out product before the
#: final ``arctanh`` (keeps the output finite for near-certain inputs).
_TANH_CLIP = 0.999999999999


def _check_degree_axis(q, b: ArrayBackend):
    arr = b.asarray(q, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise DecodingError(
            "check update needs at least two edge messages on the last axis"
        )
    return arr


def min_sum_update(q, scaling: float = 0.75, backend: BackendLike = None):
    """Normalized-min-sum check update (paper eq. (11)), vectorised.

    Parameters
    ----------
    q:
        Variable-to-check messages ``Q_{lk}``, shape ``(..., d)`` with the
        edges of each check on the last axis.
    scaling:
        Normalisation factor ``sigma <= 1`` (0.75 in the paper's PEs).
    backend:
        Array backend override (name / instance / ``None`` for active).

    Returns
    -------
    array
        Check-to-variable messages ``R_{lk}^{new}`` of the same shape: each
        edge sees ``sigma * prod_{n != k} sgn(Q_{ln}) * min_{n != k} |Q_{ln}|``.
        Matches :func:`repro.ldpc.checknode.min_sum_check_update` bit-for-bit
        on a single check (same first-occurrence ``argmin`` tie-breaking,
        same ``signbit`` convention for ``-0.0``).
    """
    b = resolve(backend)
    xp = b.xp
    arr = _check_degree_axis(q, b)
    degree = arr.shape[-1]
    magnitudes = xp.abs(arr)
    signs = xp.where(xp.signbit(arr), -1.0, 1.0)
    argmin1 = xp.argmin(magnitudes, axis=-1)
    min1 = xp.take_along_axis(magnitudes, argmin1[..., None], axis=-1)[..., 0]
    masked = xp.copy(magnitudes)
    xp.put_along_axis(masked, argmin1[..., None], xp.inf, axis=-1)
    min2 = xp.amin(masked, axis=-1)
    # Magnitude seen by edge k is the min over the *other* edges: min2 for
    # the edge holding the global minimum, min1 everywhere else.
    is_argmin = xp.arange(degree) == argmin1[..., None]
    result_magnitudes = xp.where(is_argmin, min2[..., None], min1[..., None])
    # Sign seen by edge k excludes its own sign (dividing by +-1 == multiplying).
    result_signs = xp.prod(signs, axis=-1)[..., None] * signs
    return scaling * result_signs * result_magnitudes


def min_sum_update_segments(
    v2c,
    row_ptr: np.ndarray,
    scaling: float = 0.75,
    backend: BackendLike = None,
):
    """Normalized-min-sum over *flat* edges, one segment per check.

    The segment-reduction twin of :func:`min_sum_update`: instead of one
    dense ``(batch, n_checks_d, d)`` call per degree group, the whole
    ``(batch, n_edges)`` edge array is reduced in place using the backend's
    ``reduceat`` primitives (``ArrayBackend.reduceat_min`` /
    ``reduceat_add``), with checks delimited by ``row_ptr`` exactly as in
    :class:`~repro.sim.edges.EdgeIndex`.  Bit-identical to the dense kernel
    on every input: first-occurrence tie-breaking is reproduced by counting
    minima within each segment, and the sign product is reproduced from the
    parity of the per-segment negative count (``signbit`` convention, so
    ``-0.0`` counts as negative).

    Parameters
    ----------
    v2c:
        ``(batch, n_edges)`` variable-to-check messages, row-major flat
        edges.
    row_ptr:
        ``(n_rows + 1,)`` segment boundaries (``EdgeIndex.row_ptr``).
    scaling:
        Normalisation factor ``sigma <= 1``.
    backend:
        Array backend override; must satisfy ``supports_segments`` (the
        decoders check this and fall back to the dense per-group path).
    """
    b = resolve(backend)
    if not b.supports_segments:
        raise DecodingError(
            f"backend {b.name!r} has no segment-reduction primitives; "
            "use the dense min_sum_update path"
        )
    xp = b.xp
    arr = b.asarray(v2c, dtype=np.float64)
    if arr.ndim != 2:
        raise DecodingError(
            f"segment min-sum expects a (batch, n_edges) array, got shape {arr.shape}"
        )
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    if row_ptr.ndim != 1 or row_ptr.size < 2 or int(row_ptr[-1]) != arr.shape[-1]:
        raise DecodingError("row_ptr does not delimit the flat edge axis")
    starts = row_ptr[:-1]
    degrees = np.diff(row_ptr)
    if int(degrees.min()) < 2:
        raise DecodingError(
            "check update needs at least two edge messages per check"
        )

    magnitudes = xp.abs(arr)
    signs = xp.where(xp.signbit(arr), -1.0, 1.0)

    min1_seg = b.reduceat_min(magnitudes, starts, axis=-1)
    min1 = xp.repeat(min1_seg, degrees, axis=-1)
    # First occurrence of the per-segment minimum: count matching edges with
    # a running sum, subtract the count accumulated before each segment.
    is_min = magnitudes == min1
    hits = xp.cumsum(xp.asarray(is_min, dtype=np.int64), axis=-1)
    before = hits[:, starts] - xp.asarray(is_min[:, starts], dtype=np.int64)
    is_first = is_min & ((hits - xp.repeat(before, degrees, axis=-1)) == 1)

    masked = xp.where(is_first, xp.inf, magnitudes)
    min2_seg = b.reduceat_min(masked, starts, axis=-1)
    min2 = xp.repeat(min2_seg, degrees, axis=-1)
    result_magnitudes = xp.where(is_first, min2, min1)

    # Per-segment sign product from the parity of the negative count: the
    # dense kernel's prod of +-1.0 floats is exact, so parity matches it
    # bit-for-bit.
    negatives = b.reduceat_add(xp.asarray(xp.signbit(arr), dtype=np.int64), starts, axis=-1)
    total_signs = xp.where((negatives & 1) == 1, -1.0, 1.0)
    result_signs = xp.repeat(total_signs, degrees, axis=-1) * signs
    return scaling * result_signs * result_magnitudes


def sum_product_update(q, backend: BackendLike = None):
    """Exact sum-product (tanh-rule) check update, vectorised and stable.

    Uses exclusive prefix/suffix products of ``tanh(Q/2)`` for the
    leave-one-out product instead of dividing the total product by each
    factor.  The factors all have magnitude ``<= 1`` so the partial products
    only shrink — there is no overflow and no division by a near-zero
    ``tanh``, which removes the O(d^2) fallback loop the division approach
    needed when any message was close to zero.

    Parameters
    ----------
    q:
        Variable-to-check messages, shape ``(..., d)`` with the edges of each
        check on the last axis.  Values are clipped to ``[-30, 30]`` first
        (``tanh`` saturates to machine precision well before that).
    backend:
        Array backend override (name / instance / ``None`` for active).

    Returns
    -------
    array
        ``2 * arctanh(prod_{n != k} tanh(Q_{ln} / 2))`` per edge, with the
        product clipped away from ``+-1`` so the output stays finite.
    """
    b = resolve(backend)
    xp = b.xp
    arr = _check_degree_axis(q, b)
    clipped = xp.clip(arr, -30.0, 30.0)
    tanh_half = xp.tanh(clipped / 2.0)
    ones = xp.ones_like(tanh_half[..., :1])
    # prefix[..., k] = prod of tanh_half[..., :k]; suffix[..., k] = prod of
    # tanh_half[..., k+1:]; their product is the leave-one-out product.
    prefix = xp.concatenate(
        [ones, xp.cumprod(tanh_half[..., :-1], axis=-1)], axis=-1
    )
    suffix = xp.concatenate(
        [xp.flip(xp.cumprod(xp.flip(tanh_half[..., 1:], axis=-1), axis=-1), axis=-1), ones],
        axis=-1,
    )
    leave_one_out = xp.clip(prefix * suffix, -_TANH_CLIP, _TANH_CLIP)
    return 2.0 * xp.arctanh(leave_one_out)
