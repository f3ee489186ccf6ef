"""Uniform LLR quantisation as used by the fixed-point decoder datapaths.

The paper (Section IV-B) represents channel LLRs, state metrics and
a-posteriori values on 7 bits and extrinsic/R values on 5 bits.  This module
implements the corresponding symmetric uniform quantiser: a configurable
number of total bits, of which a given number are fractional, with saturation
at the representable extremes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QuantizationSpec:
    """Fixed-point format: ``total_bits`` two's-complement bits, ``frac_bits`` fractional.

    The representable range is ``[-2**(total_bits-1), 2**(total_bits-1) - 1]``
    in integer steps of the quantised domain, i.e. ``[min_value, max_value]``
    after scaling back by ``2**-frac_bits``.
    """

    total_bits: int
    frac_bits: int = 0

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ConfigurationError(
                f"total_bits must be at least 2, got {self.total_bits}"
            )
        if self.frac_bits < 0 or self.frac_bits >= self.total_bits:
            raise ConfigurationError(
                f"frac_bits must be in [0, total_bits), got {self.frac_bits}"
            )

    @property
    def step(self) -> float:
        """Quantisation step in the real-valued domain."""
        return 2.0**-self.frac_bits

    @property
    def max_level(self) -> int:
        """Largest representable integer level."""
        return 2 ** (self.total_bits - 1) - 1

    @property
    def min_level(self) -> int:
        """Smallest representable integer level."""
        return -(2 ** (self.total_bits - 1))


#: 7-bit format used for channel LLRs, alpha/beta metrics and a-posteriori values.
CHANNEL_LLR_SPEC = QuantizationSpec(total_bits=7, frac_bits=1)

#: 5-bit format used for extrinsic information and the R messages of the LDPC core.
EXTRINSIC_SPEC = QuantizationSpec(total_bits=5, frac_bits=0)


class LLRQuantizer:
    """Uniform quantiser with saturation, symmetric by default.

    ``quantize`` returns integer levels (the values that live in the decoder
    memories); ``dequantize`` maps levels back to the real domain.  Both are
    vectorised over NumPy arrays.

    ``symmetric=True`` (the decoder-datapath default) saturates to
    ``[-max_level, max_level]``, so every representable level has a
    representable negation — a min-sum check node flips message signs, and a
    two's-complement ``min_level`` whose negation overflows the format would
    poison that datapath.  ``symmetric=False`` opts into the full asymmetric
    two's-complement range ``[min_level, max_level]`` (storage-format
    semantics, e.g. for memory-image round-trips).
    """

    def __init__(self, spec: QuantizationSpec, *, symmetric: bool = True):
        if not isinstance(spec, QuantizationSpec):
            raise ConfigurationError("LLRQuantizer requires a QuantizationSpec")
        self.spec = spec
        self.symmetric = bool(symmetric)

    @property
    def lowest_level(self) -> int:
        """The saturation floor actually applied: ``-max_level`` when symmetric."""
        return -self.spec.max_level if self.symmetric else self.spec.min_level

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantise real values to saturated integer levels (dtype ``int32``)."""
        arr = np.asarray(values, dtype=np.float64)
        levels = np.round(arr / self.spec.step)
        levels = np.clip(levels, self.lowest_level, self.spec.max_level)
        return levels.astype(np.int32)

    def dequantize(self, levels: np.ndarray) -> np.ndarray:
        """Map integer levels back to real values."""
        arr = np.asarray(levels, dtype=np.float64)
        return arr * self.spec.step

    def quantize_to_real(self, values: np.ndarray) -> np.ndarray:
        """Round-trip quantisation: the real values the fixed-point datapath sees.

        Equal bit for bit to ``dequantize(quantize(values))``, ``-0.0``
        included: it leaves as ``+0.0``, as it does through the integer
        levels.
        """
        arr = np.array(values, dtype=np.float64)
        arr /= self.spec.step
        np.round(arr, out=arr)
        np.clip(arr, self.lowest_level, self.spec.max_level, out=arr)
        arr += 0.0  # -0.0 + 0.0 == +0.0
        arr *= self.spec.step
        return arr
