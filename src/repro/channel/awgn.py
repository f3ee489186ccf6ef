"""Additive white Gaussian noise channel and Eb/N0 conversions."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import make_rng
from repro.utils.validation import require_real


def snr_db_to_linear(snr_db: float) -> float:
    """Convert an SNR expressed in dB to a linear power ratio.

    ``snr_db`` must be finite, and so must the ratio: a dB value whose
    ``10 ** (snr_db / 10)`` overflows the float range is rejected.
    """
    if not math.isfinite(snr_db):
        raise ConfigurationError(f"snr_db must be finite, got {snr_db!r}")
    try:
        return float(10.0 ** (snr_db / 10.0))
    except OverflowError:
        raise ConfigurationError(
            f"snr_db {snr_db!r} dB overflows the linear ratio"
        ) from None


def ebn0_to_noise_sigma(
    ebn0_db: float,
    code_rate: float,
    bits_per_symbol: int = 1,
    symbol_energy: float = 1.0,
) -> float:
    """Noise standard deviation (per real dimension) for a target Eb/N0.

    The mapping assumes unit-energy symbols carrying ``bits_per_symbol`` coded
    bits each, of which a fraction ``code_rate`` are information bits:

    ``Es/N0 = Eb/N0 * code_rate * bits_per_symbol`` and
    ``sigma^2 = Es / (2 * Es/N0)`` per real dimension for complex channels
    (``sigma^2 = Es / (2 * Es/N0)`` holds for real BPSK as well because the
    demapper treats the noise as one real dimension of variance ``N0/2``).

    ``ebn0_db`` must be finite, and so must the resulting sigma: an Eb/N0
    far enough out that ``10 ** (ebn0_db / 10)`` leaves the float range is
    rejected rather than returned as ``0``, ``inf`` or ``nan``.
    """
    if not math.isfinite(ebn0_db):
        raise ConfigurationError(f"ebn0_db must be finite, got {ebn0_db!r}")
    if not 0.0 < code_rate <= 1.0:
        raise ConfigurationError(f"code_rate must be in (0, 1], got {code_rate}")
    if bits_per_symbol <= 0:
        raise ConfigurationError(
            f"bits_per_symbol must be positive, got {bits_per_symbol}"
        )
    if symbol_energy <= 0:
        raise ConfigurationError(f"symbol_energy must be positive, got {symbol_energy}")
    try:
        esn0_linear = snr_db_to_linear(ebn0_db) * code_rate * bits_per_symbol
        sigma = float(np.sqrt(symbol_energy / (2.0 * esn0_linear)))
    except ZeroDivisionError:
        sigma = math.nan
    require_real(f"the noise sigma at Eb/N0 {ebn0_db!r} dB", sigma, allow_zero=False)
    return sigma


class AWGNChannel:
    """Memoryless AWGN channel for real or complex symbol streams.

    Parameters
    ----------
    noise_sigma:
        Noise standard deviation *per real dimension*.
    rng:
        Optional NumPy generator; a fresh seeded generator is created when
        omitted so results stay reproducible.
    """

    def __init__(self, noise_sigma: float, rng: np.random.Generator | None = None):
        require_real("noise_sigma", noise_sigma, allow_zero=False)
        self.noise_sigma = float(noise_sigma)
        self._rng = rng if rng is not None else make_rng(0)

    def transmit(self, symbols: np.ndarray) -> np.ndarray:
        """Add white Gaussian noise to a block of channel symbols."""
        arr = np.asarray(symbols)
        if np.iscomplexobj(arr):
            noise = self._rng.normal(0.0, self.noise_sigma, size=arr.shape) + 1j * (
                self._rng.normal(0.0, self.noise_sigma, size=arr.shape)
            )
            return arr + noise
        return arr + self._rng.normal(0.0, self.noise_sigma, size=arr.shape)

    def llr_noise_variance(self, symbols_complex: bool) -> float:
        """Noise variance argument expected by the matching demapper.

        Real symbols (BPSK) take the per-dimension variance ``sigma^2``;
        complex symbols take the total noise power ``2*sigma^2`` over both
        dimensions.
        """
        if symbols_complex:
            return 2.0 * self.noise_sigma**2
        return self.noise_sigma**2
