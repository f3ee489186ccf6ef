"""Streaming Monte-Carlo BER runner built on the batched decoders.

``BerRunner`` drives the full functional chain — random information bits →
systematic encoding → BPSK modulation → AWGN channel → LLR demapping
(optionally fixed-point quantised) → batched decoding — in configurable
batch sizes, accumulating bit/frame error counts per Eb/N0 point until
either an error target or a frame budget is hit.  Every batch draws from its
own RNG spawned off one :class:`numpy.random.SeedSequence`, so a sweep is
reproducible bit-for-bit for a fixed ``(seed, batch_size)`` and
statistically independent across batches and points.

The runner is code-family agnostic: any code exposing ``k`` / ``n`` /
``rate`` / ``encode_batch`` paired with any
:class:`~repro.sim.batch.BatchDecoder` works, so both halves of the paper's
multi-standard decoder — WiMAX LDPC through
:class:`~repro.sim.batch.BatchLayeredDecoder` /
:class:`~repro.sim.batch.BatchFloodingDecoder` and the WiMAX CTC through
:class:`~repro.sim.turbo_batch.BatchTurboDecoder` — stream through the same
loop.  Decoders may decide either whole codewords (the LDPC decoders) or
just the information bits (the turbo decoder); the runner counts errors over
whichever the decoder returns.

The modulator and the channel are duck-typed so that a wrapper (a timing
proxy, say) can stand in for :class:`~repro.channel.modulation.BPSKModulator`
and :class:`~repro.channel.awgn.AWGNChannel`: ``channel=`` takes ``"awgn"``
or any callable ``(noise_sigma, rng) -> channel`` exposing ``transmit`` and
``llr_noise_variance``.

Point estimates come with Wilson confidence intervals
(:func:`repro.sim.stats.wilson_interval`); conditional-moment estimation
practice (Song-Jiang-Zhu, arXiv:2404.11092) motivates never reporting a
Monte-Carlo BER without its interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.channel.awgn import AWGNChannel, ebn0_to_noise_sigma
from repro.channel.modulation import BPSKModulator
from repro.channel.quantize import LLRQuantizer
from repro.errors import ConfigurationError, DecodingError
from repro.sim.batch import BatchDecoder
from repro.sim.stats import wilson_interval
from repro.utils.validation import require_int

#: Channel factories selectable by name through ``BerRunner(channel=...)``.
CHANNEL_FACTORIES: dict[str, Callable[[float, np.random.Generator], object]] = {
    "awgn": AWGNChannel,
}


class _EncodableCode(Protocol):
    """What the runner needs from a code object.

    :class:`~repro.ldpc.wimax.WimaxLdpcCode` and
    :class:`~repro.turbo.encoder.TurboEncoder` both satisfy it; ``rate`` may
    be a float or an ``"a/b"`` fraction string.
    """

    @property
    def k(self) -> int: ...

    @property
    def n(self) -> int: ...

    @property
    def rate(self) -> float | str: ...

    def encode_batch(self, info_bits: np.ndarray) -> np.ndarray: ...


def resolve_code_rate(rate: float | str) -> float:
    """Normalise a code rate given as a float or an ``"a/b"`` string.

    The result is validated to lie in ``(0, 1]`` — an out-of-range rate
    (``"5/4"``, a negative fraction) is a configuration mistake that would
    otherwise only surface later inside
    :func:`~repro.channel.awgn.ebn0_to_noise_sigma`.
    """
    if isinstance(rate, str):
        numerator, sep, denominator = rate.partition("/")
        try:
            if not sep:
                value = float(numerator)
            else:
                value = float(numerator) / float(denominator)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"cannot parse code rate {rate!r}") from exc
    else:
        value = float(rate)
    if not 0.0 < value <= 1.0:
        raise ConfigurationError(
            f"code rate must be in (0, 1], got {rate!r} (= {value})"
        )
    return value


@dataclass(frozen=True)
class BerPoint:
    """Error-rate estimate at one Eb/N0 operating point.

    ``ber_interval`` / ``fer_interval`` are Wilson confidence bounds at the
    runner's confidence level; ``avg_iterations`` is the mean number of
    decoder iterations actually run (early exits included), the quantity the
    paper's convergence-speed claim is about.  ``total_bits`` counts the bits
    actually compared: codeword bits for decoders that decide codewords
    (LDPC), information bits for decoders that decide the payload (turbo).
    """

    ebn0_db: float
    frames: int
    total_bits: int
    bit_errors: int
    frame_errors: int
    avg_iterations: float
    ber_interval: tuple[float, float]
    fer_interval: tuple[float, float]

    @property
    def ber(self) -> float:
        """Bit error rate point estimate."""
        return self.bit_errors / self.total_bits if self.total_bits else 0.0

    @property
    def fer(self) -> float:
        """Frame error rate point estimate."""
        return self.frame_errors / self.frames if self.frames else 0.0

    def __str__(self) -> str:
        lo, hi = self.ber_interval
        return (
            f"Eb/N0={self.ebn0_db:.2f} dB: BER={self.ber:.3e} "
            f"[{lo:.1e}, {hi:.1e}] FER={self.fer:.3e} "
            f"({self.frames} frames, {self.bit_errors} bit errors, "
            f"avg {self.avg_iterations:.1f} it)"
        )


class BerRunner:
    """Monte-Carlo BER/FER sweeps over a batched decoder.

    Parameters
    ----------
    code:
        Code under test; needs ``k``/``n``/``rate`` and ``encode_batch``
        (every :class:`~repro.ldpc.wimax.WimaxLdpcCode` and every
        :class:`~repro.turbo.encoder.TurboEncoder` qualifies).
    decoder:
        Any :class:`~repro.sim.batch.BatchDecoder` built for the same code —
        batched LDPC decoders and
        :class:`~repro.sim.turbo_batch.BatchTurboDecoder` alike.
    modulator:
        Bit-to-symbol mapper (batched) with ``bits_per_symbol``,
        ``modulate`` and ``demodulate_llr``; BPSK when omitted.
    channel:
        Channel model per run: ``"awgn"`` (the one entry of
        :data:`CHANNEL_FACTORIES`) or a callable
        ``(noise_sigma, rng) -> channel``.
    llr_quantizer:
        Optional :class:`~repro.channel.quantize.LLRQuantizer`: round-trip
        every channel LLR through it before decoding (the paper's
        fixed-point channel front-end), for either code family.  Combine it
        with ``BatchLayeredDecoder(fixed_point=True)`` for the full internal
        LDPC fixed-point datapath.
    batch_size:
        Frames decoded per batch.  See ``docs/batching.md`` for guidance;
        64 is a good default for WiMAX-sized codes.
    max_frames:
        Hard frame budget per Eb/N0 point.
    target_frame_errors:
        Stop a point early once this many frame errors are in (``None``
        disables the early stop and always runs ``max_frames``).
    seed:
        Root seed of the per-batch RNG tree.
    confidence:
        Confidence level of the Wilson intervals (0.90, 0.95 or 0.99).
    """

    def __init__(
        self,
        code: _EncodableCode,
        decoder: BatchDecoder,
        modulator: BPSKModulator | None = None,
        *,
        channel: str | Callable[[float, np.random.Generator], object] = "awgn",
        llr_quantizer: LLRQuantizer | None = None,
        batch_size: int = 64,
        max_frames: int = 10_000,
        target_frame_errors: int | None = 50,
        seed: int = 0,
        confidence: float = 0.95,
    ):
        require_int("batch_size", batch_size, 1)
        require_int("max_frames", max_frames, 1)
        if target_frame_errors is not None:
            require_int("target_frame_errors", target_frame_errors, 1)
        require_int("seed", seed, 0)
        # Rejects an unsupported confidence level here, not at the first point.
        wilson_interval(0, 0, confidence)
        if decoder.n_bits != code.n:
            raise ConfigurationError(
                f"decoder expects n={decoder.n_bits} but the code has n={code.n}"
            )
        if isinstance(channel, str):
            try:
                self._channel_factory = CHANNEL_FACTORIES[channel]
            except KeyError:
                raise ConfigurationError(
                    f"unknown channel {channel!r}; known channels: "
                    f"{sorted(CHANNEL_FACTORIES)} (or pass a factory callable)"
                ) from None
        elif callable(channel):
            self._channel_factory = channel
        else:
            raise ConfigurationError(
                f"channel must be a name or a (noise_sigma, rng) -> channel "
                f"factory, got {channel!r}"
            )
        if llr_quantizer is not None and not isinstance(llr_quantizer, LLRQuantizer):
            raise ConfigurationError("llr_quantizer must be an LLRQuantizer or None")
        self.code = code
        self.decoder = decoder
        self.modulator = modulator if modulator is not None else BPSKModulator()
        self.channel = channel
        self.llr_quantizer = llr_quantizer
        self.batch_size = int(batch_size)
        self.max_frames = int(max_frames)
        self.target_frame_errors = target_frame_errors
        self.seed = int(seed)
        self.confidence = float(confidence)

    def _point_seed_sequence(self, ebn0_db: float) -> np.random.SeedSequence:
        # Key the per-point stream on the operating point (in milli-dB) so
        # points are independent and insensitive to sweep order.
        point_key = int(round(ebn0_db * 1000.0)) & 0xFFFFFFFF
        return np.random.SeedSequence(entropy=(self.seed, point_key))

    def run_point(self, ebn0_db: float) -> BerPoint:
        """Simulate one Eb/N0 point until the error target or frame budget."""
        sigma = ebn0_to_noise_sigma(
            ebn0_db, resolve_code_rate(self.code.rate), self.modulator.bits_per_symbol
        )
        seq = self._point_seed_sequence(ebn0_db)
        frames = 0
        total_bits = 0
        bit_errors = 0
        frame_errors = 0
        iteration_sum = 0
        while frames < self.max_frames:
            if (
                self.target_frame_errors is not None
                and frame_errors >= self.target_frame_errors
            ):
                break
            batch = min(self.batch_size, self.max_frames - frames)
            rng = np.random.default_rng(seq.spawn(1)[0])
            info = rng.integers(0, 2, size=(batch, self.code.k))
            codewords = self.code.encode_batch(info)
            symbols = self.modulator.modulate(codewords)
            channel = self._channel_factory(sigma, rng)
            llrs = self.modulator.demodulate_llr(
                channel.transmit(symbols),
                channel.llr_noise_variance(np.iscomplexobj(symbols)),
            )
            if self.llr_quantizer is not None:
                llrs = self.llr_quantizer.quantize_to_real(llrs)
            result = self.decoder.decode_batch(llrs)
            decisions = np.asarray(result.hard_bits)
            # LDPC decoders decide whole codewords; a decoder that sets
            # ``decides_info_bits`` (the turbo decoder) decides only the
            # systematic information bits.
            reference = (
                info if getattr(self.decoder, "decides_info_bits", False) else codewords
            )
            if decisions.shape != reference.shape:
                raise DecodingError(
                    f"decoder returned decisions of shape {decisions.shape}; "
                    f"expected {reference.shape}"
                )
            errors_per_frame = np.count_nonzero(decisions != reference, axis=1)
            frames += batch
            total_bits += batch * reference.shape[1]
            bit_errors += int(errors_per_frame.sum())
            frame_errors += int(np.count_nonzero(errors_per_frame))
            iteration_sum += int(result.iterations.sum())
        return BerPoint(
            ebn0_db=float(ebn0_db),
            frames=frames,
            total_bits=total_bits,
            bit_errors=bit_errors,
            frame_errors=frame_errors,
            avg_iterations=iteration_sum / frames if frames else 0.0,
            ber_interval=wilson_interval(bit_errors, total_bits, self.confidence),
            fer_interval=wilson_interval(frame_errors, frames, self.confidence),
        )

    def run(self, ebn0_points: Sequence[float]) -> list[BerPoint]:
        """Sweep a list of Eb/N0 points, one :class:`BerPoint` each."""
        return [self.run_point(float(point)) for point in ebn0_points]
