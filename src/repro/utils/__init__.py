"""Small shared utilities used across the :mod:`repro` package.

The sub-modules are intentionally dependency-free (NumPy only) so that every
substrate package (:mod:`repro.ldpc`, :mod:`repro.noc`, ...) can rely on them
without creating import cycles.
"""

from repro.utils.tables import Table, format_float, format_ratio_cell
from repro.utils.rng import bounded_draw, make_rng, spawn_rngs

__all__ = [
    "Table",
    "format_float",
    "format_ratio_cell",
    "bounded_draw",
    "make_rng",
    "spawn_rngs",
]
