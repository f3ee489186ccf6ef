"""Vectorised NumPy check-node update kernels.

Both dense kernels operate on arrays whose *last* axis enumerates the edges
of one check (the check degree ``d``); any number of leading axes is
allowed.  The batch decoders call them with ``(batch, n_checks_d, d)``
tensors (flooding, one call per degree group; layered, one call per layer
of column-disjoint checks); a one-frame batch runs exactly the same code,
so sequential and batched results are bit-identical.

Sign convention (pinned by ``tests/test_sim_batch.py::TestKernels``): the
sign of an LLR is its IEEE-754 sign *bit* (``np.signbit``), so ``-0.0``
counts as negative — matching the scalar reference in
:mod:`repro.ldpc.checknode`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError

#: Saturation applied to the tanh-domain leave-one-out product before the
#: final ``arctanh`` (keeps the output finite for near-certain inputs).
_TANH_CLIP = 0.999999999999


def _check_degree_axis(q) -> np.ndarray:
    arr = np.asarray(q, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise DecodingError(
            "check update needs at least two edge messages on the last axis"
        )
    return arr


def min_sum_update(q, scaling: float = 0.75) -> np.ndarray:
    """Normalized-min-sum check update (paper eq. (11)), vectorised.

    Parameters
    ----------
    q:
        Variable-to-check messages ``Q_{lk}``, shape ``(..., d)`` with the
        edges of each check on the last axis.
    scaling:
        Normalisation factor ``sigma <= 1`` (0.75 in the paper's PEs).

    Returns
    -------
    numpy.ndarray
        Check-to-variable messages ``R_{lk}^{new}`` of the same shape: each
        edge sees ``sigma * prod_{n != k} sgn(Q_{ln}) * min_{n != k} |Q_{ln}|``.
        Matches :func:`repro.ldpc.checknode.min_sum_check_update` bit-for-bit
        on a single check (same ``signbit`` convention for ``-0.0``).  When
        several edges share the minimum magnitude, the two smallest are equal,
        so every edge sees that minimum whichever one holds it.
    """
    arr = _check_degree_axis(q)
    magnitudes = np.abs(arr)
    signs = np.copysign(1.0, arr)  # -1.0 exactly where signbit is set
    two = np.partition(magnitudes, 1, axis=-1)
    min1, min2 = two[..., :1], two[..., 1:2]
    # Magnitude seen by edge k is the min over the *other* edges: min2 for
    # an edge holding the minimum, min1 everywhere else.
    result_magnitudes = np.where(magnitudes == min1, min2, min1)
    # Sign seen by edge k excludes its own sign (dividing by +-1 == multiplying).
    result_signs = np.prod(signs, axis=-1)[..., None] * signs
    return scaling * result_signs * result_magnitudes


def sum_product_update(q) -> np.ndarray:
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

    Returns
    -------
    numpy.ndarray
        ``2 * arctanh(prod_{n != k} tanh(Q_{ln} / 2))`` per edge, with the
        product clipped away from ``+-1`` so the output stays finite.
    """
    arr = _check_degree_axis(q)
    clipped = np.clip(arr, -30.0, 30.0)
    tanh_half = np.tanh(clipped / 2.0)
    ones = np.ones_like(tanh_half[..., :1])
    # prefix[..., k] = prod of tanh_half[..., :k]; suffix[..., k] = prod of
    # tanh_half[..., k+1:]; their product is the leave-one-out product.
    prefix = np.concatenate(
        [ones, np.cumprod(tanh_half[..., :-1], axis=-1)], axis=-1
    )
    suffix = np.concatenate(
        [np.flip(np.cumprod(np.flip(tanh_half[..., 1:], axis=-1), axis=-1), axis=-1), ones],
        axis=-1,
    )
    leave_one_out = np.clip(prefix * suffix, -_TANH_CLIP, _TANH_CLIP)
    return 2.0 * np.arctanh(leave_one_out)
