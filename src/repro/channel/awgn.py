"""Additive white Gaussian noise channel and Eb/N0 conversions."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import make_rng


def snr_db_to_linear(snr_db: float) -> float:
    """Convert an SNR expressed in dB to a linear power ratio."""
    return float(10.0 ** (snr_db / 10.0))


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
    """
    if not 0.0 < code_rate <= 1.0:
        raise ConfigurationError(f"code_rate must be in (0, 1], got {code_rate}")
    if bits_per_symbol <= 0:
        raise ConfigurationError(
            f"bits_per_symbol must be positive, got {bits_per_symbol}"
        )
    if symbol_energy <= 0:
        raise ConfigurationError(f"symbol_energy must be positive, got {symbol_energy}")
    esn0_linear = snr_db_to_linear(ebn0_db) * code_rate * bits_per_symbol
    noise_variance_per_dim = symbol_energy / (2.0 * esn0_linear)
    return float(np.sqrt(noise_variance_per_dim))


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
        if noise_sigma <= 0:
            raise ConfigurationError(f"noise_sigma must be positive, got {noise_sigma}")
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

        The demappers in :mod:`repro.channel.modulation` express LLRs in terms
        of the per-real-dimension variance times two for complex constellations
        (total noise power), so this helper centralises that convention.
        """
        if symbols_complex:
            return 2.0 * self.noise_sigma**2
        return self.noise_sigma**2
