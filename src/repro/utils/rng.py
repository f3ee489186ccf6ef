"""Deterministic random-number-generation helpers.

Every stochastic component of the library (AWGN channel, random information
bits, tie-breaking in the partitioner) receives an explicit
:class:`numpy.random.Generator`.  These helpers create such generators from
integer seeds so experiments are reproducible bit-for-bit.  The one exception
is the NoC's SCM random output-port selection, which draws from a
``random.Random(seed)`` stream through :func:`bounded_draw`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from an integer seed.

    ``None`` yields an OS-entropy-seeded generator (only useful interactively;
    library code and benchmarks always pass an explicit seed).
    """
    return np.random.default_rng(seed)


def bounded_draw(getrandbits, n: int) -> int:
    """Uniform integer in ``[0, n)`` by rejection over ``n.bit_length()`` bits.

    This is the NoC simulators' *defined* deflection-draw algorithm, written
    against :meth:`random.Random.getrandbits` (Mersenne Twister, reproducible
    across Python versions).  The object reference simulator, the
    struct-of-arrays engine and the job-batched kernel (one stream per job)
    all consume bits through this exact procedure — the engines inline it in
    their hot loops — so their deflection streams coincide bit for bit for a
    given seed.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees
    independence between children regardless of how many draws each makes.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
