"""Small shared utilities used across the :mod:`repro` package.

The sub-modules are intentionally dependency-free (NumPy only) so that every
substrate package (:mod:`repro.ldpc`, :mod:`repro.noc`, ...) can rely on them
without creating import cycles.
"""

from repro.utils.bitops import (
    bits_to_int,
    bits_to_bytes,
    bytes_to_bits,
    hamming_distance,
    hamming_weight,
    int_to_bits,
    parity,
)
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_power_of_two,
    check_probability,
    check_type,
)
from repro.utils.tables import Table, format_float, format_ratio_cell
from repro.utils.rng import bounded_draw, make_rng, spawn_rngs

__all__ = [
    "bits_to_int",
    "bits_to_bytes",
    "bytes_to_bits",
    "hamming_distance",
    "hamming_weight",
    "int_to_bits",
    "parity",
    "check_in_range",
    "check_positive",
    "check_power_of_two",
    "check_probability",
    "check_type",
    "Table",
    "format_float",
    "format_ratio_cell",
    "bounded_draw",
    "make_rng",
    "spawn_rngs",
]
