"""Shared pieces of the benchmark: metric catalogue, accounting, timing proxies.

Every workload prints the same metric names (``BENCHMARK.json`` has no
per-workload metric list): end-to-end metrics are defined so each workload
has a meaningful, non-zero value for all of them, and a per-layer metric of a
layer a workload never enters reads 0.  End-to-end timings are normalised to
a reference host speed (see :class:`HostSpeed`).
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.channel.quantize import LLRQuantizer
from repro.service.registry import CodecRegistry

#: End-to-end metrics: name -> (unit, better).  Measured with tracing off.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_ratio": ("ratio", "higher"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_mean_ms": ("ms", "lower"),
}

#: Per-layer metrics: name -> (unit, better).  Measured by the traced run.
PER_LAYER = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "host.speed_ratio": ("ratio", "higher"),
    # BER chain (ber_*)
    "sim.decode.busy_s": ("s", "lower"),
    "sim.decode.us_per_check_step": ("us", "lower"),
    "sim.decode.us_per_trellis_step": ("us", "lower"),
    "sim.decode.iterations_mean": ("count", "lower"),
    "sim.decode.batch_max_iterations_mean": ("count", "lower"),
    "sim.decode.converged_ratio": ("ratio", "higher"),
    "encode.busy_s": ("s", "lower"),
    "channel.busy_s": ("s", "lower"),
    "sim.runner.self_s": ("s", "lower"),
    # Decode service (service_radio_frames)
    "service.request_latency_ms_p50": ("ms", "lower"),
    "service.request_latency_ms_p90": ("ms", "lower"),
    "service.queue_ms_p50": ("ms", "lower"),
    "service.executor_wait_ms_p50": ("ms", "lower"),
    "service.executor_wait_ms_p90": ("ms", "lower"),
    "service.decode_ms_p50": ("ms", "lower"),
    "service.settle_ms_p50": ("ms", "lower"),
    "service.batch_size_mean": ("count", "higher"),
    "service.batches": ("count", "lower"),
    "service.decoder_busy_ratio": ("ratio", "lower"),
    "service.failed": ("count", "lower"),
    "service.retries": ("count", "lower"),
    "service.deadline_exceeded": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    # NoC design flow (noc_table1)
    "mapping.busy_s": ("s", "lower"),
    "noc.graph.busy_s": ("s", "lower"),
    "noc.sim.busy_s": ("s", "lower"),
    "noc.sim.cycles": ("count", "lower"),
    "noc.sim.us_per_cycle": ("us", "lower"),
    "hw.cost.busy_s": ("s", "lower"),
    "design_flow.self_s": ("s", "lower"),
    "noc.mc.busy_s": ("s", "lower"),
    "noc.mc.cycles": ("count", "lower"),
    "noc.mc.us_per_cycle": ("us", "lower"),
    "noc.mc.batched_groups": ("count", "higher"),
    "noc.calibrate_s": ("s", "lower"),
    "noc.table1.mbps_err_pct": ("%", "lower"),
    "noc.table1.area_err_pct": ("%", "lower"),
}

#: A percentile is reported only if at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10
#: Set-up repeats per run; ``setup_s`` is their median, ten repeats beyond it.
SETUP_REPEATS = 2 * MIN_TAIL_SAMPLES + 1


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the ``pct`` percentile."""
    return int(math.floor(n * (100.0 - pct) / 100.0 + 1e-9))


def percentile(values, pct: float) -> float:
    """``pct`` percentile of ``values``, or 0 with fewer than ten samples beyond it.

    A per-layer metric that a run is too short to support reads 0 rather
    than resting on a handful of samples.
    """
    if samples_beyond(len(values), pct) < MIN_TAIL_SAMPLES:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


@dataclass
class Tally:
    """Failed over attempted operations.

    A failure is a raised exception, a typed service error, a deadline miss
    or an output that fails the workload's correctness check.  Never a bit or
    frame error of the channel: those are the decoder's expected behaviour.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if reason and len(self.reasons) < 20:
                self.reasons.append(reason)

    def fail_existing(self, reason: str) -> None:
        """Turn one already-attempted success into a failure (a later check failed)."""
        self.failed = min(self.failed + 1, self.attempted)
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def success_ratio(self) -> float:
        return 1.0 - self.error_ratio


class Busy:
    """Accumulated busy time and call count of one layer."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1


# --------------------------------------------------------------------------- #
# Timing proxies: wrap a layer's public object, forward calls unchanged.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DecodeCall:
    """One ``decode_batch`` call seen by a :class:`TimedDecoder`."""

    start: float  # time.monotonic(), the asyncio loop's clock
    end: float
    rows: int
    max_iterations: int
    iteration_sum: int
    converged: int


class TimedDecoder:
    """Batch-decoder proxy that logs every ``decode_batch`` call."""

    def __init__(self, decoder) -> None:
        self._decoder = decoder
        self.decides_info_bits = bool(getattr(decoder, "decides_info_bits", False))
        self.calls: list[DecodeCall] = []

    @property
    def n_bits(self) -> int:
        return self._decoder.n_bits

    def decode_batch(self, channel_llrs):
        start = time.monotonic()
        result = self._decoder.decode_batch(channel_llrs)
        end = time.monotonic()
        iterations = np.asarray(result.iterations)
        self.calls.append(
            DecodeCall(
                start=start,
                end=end,
                rows=int(iterations.shape[0]),
                max_iterations=int(iterations.max()) if iterations.size else 0,
                iteration_sum=int(iterations.sum()),
                converged=int(np.count_nonzero(result.converged)),
            )
        )
        return result

    @property
    def busy_s(self) -> float:
        return sum(call.end - call.start for call in self.calls)


def timed_registry(base: CodecRegistry) -> tuple[CodecRegistry, dict[str, TimedDecoder]]:
    """A registry serving ``base``'s codecs with every decoder behind a TimedDecoder.

    Returns the registry and a live ``label -> proxy`` dict filled as codecs
    are first resolved.
    """
    proxies: dict[str, TimedDecoder] = {}

    def builder(spec):
        entry = base.resolve_spec(spec)
        proxy = TimedDecoder(entry.decoder)
        proxies[spec.label] = proxy
        return type(entry)(
            spec=entry.spec,
            code=entry.code,
            decoder=proxy,
            n_bits=entry.n_bits,
            k_bits=entry.k_bits,
            decides_info_bits=entry.decides_info_bits,
        )

    registry = CodecRegistry()
    for family in base.families:
        registry.register_family(
            family, builder, known=[s for s in base.specs() if s.family == family]
        )
    return registry, proxies


class TimedCode:
    """Code proxy timing ``encode_batch``."""

    def __init__(self, code, busy: Busy) -> None:
        self._code = code
        self._busy = busy
        self.k, self.n, self.rate = code.k, code.n, code.rate

    def encode_batch(self, info_bits):
        return self._busy.call(self._code.encode_batch, info_bits)


class TimedModulator:
    """Modulator proxy timing ``modulate`` and ``demodulate_llr``."""

    def __init__(self, modulator, busy: Busy) -> None:
        self._modulator = modulator
        self._busy = busy
        self.bits_per_symbol = modulator.bits_per_symbol

    def modulate(self, bits):
        return self._busy.call(self._modulator.modulate, bits)

    def demodulate_llr(self, received, noise_variance, gains=None):
        return self._busy.call(
            self._modulator.demodulate_llr, received, noise_variance, gains=gains
        )


class TimedChannel:
    """Channel proxy timing ``transmit``."""

    def __init__(self, channel, busy: Busy) -> None:
        self._channel = channel
        self._busy = busy

    def transmit(self, symbols):
        return self._busy.call(self._channel.transmit, symbols)

    def llr_noise_variance(self, symbols_complex: bool) -> float:
        return self._channel.llr_noise_variance(symbols_complex)


def timed_channel_factory(factory, busy: Busy):
    """Wrap a ``(noise_sigma, rng) -> channel`` factory so each channel is timed."""
    return lambda sigma, rng: TimedChannel(factory(sigma, rng), busy)


class TimedQuantizer(LLRQuantizer):
    """LLR quantiser timing ``quantize_to_real`` (the runner's fixed-point front-end)."""

    def __init__(self, quantizer: LLRQuantizer, busy: Busy) -> None:
        super().__init__(quantizer.spec, symmetric=quantizer.symmetric)
        self._busy = busy

    def quantize_to_real(self, values):
        return self._busy.call(super().quantize_to_real, values)


# --------------------------------------------------------------------------- #
# Host facts and result output
# --------------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    """Cores, Python and NumPy versions, and whether numba is importable."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


#: Scale of normalised times: they read as seconds on a host where one
#: :meth:`HostSpeed.probe` takes this long.
PROBE_NOMINAL_S = 0.005


class HostSpeed:
    """Probe samples taken between timed operations, to normalise their times.

    On a shared host, neighbours slow the machine for minutes at a time:
    20 s runs of ``ber_ldpc576_fx`` read median batch times of 233-358 ms
    across five seeds, and ``ber_ctc2400`` batches drifted between 2.3 and
    4.1 s within four minutes.  A slow stretch slows the probe and the
    program alike, so a run's times scaled by ``PROBE_NOMINAL_S`` over the
    run's mean probe keep the program's own speed, while a change to the
    program moves the scaled times exactly as it moves the raw ones.

    The scale is taken over the whole run, not per operation: contention
    flickers faster than a probe lasts, so one op's neighbouring probes
    disagree with the op more often than they agree, while their mean over
    a run follows the slow drift.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._values = rng.standard_normal((64, 4096))
        self._scratch = np.empty_like(self._values)
        self._columns = [rng.integers(0, 4096, size=7) for _ in range(64)]

    def probe(self) -> float:
        """Time one fixed probe: interpreter dispatch plus gather/min/scatter steps.

        The steps have the shape of a layered check update on a 64-frame
        batch, so cache and memory contention slow the probe as they slow
        the program.  The probe never calls the program, so no change to the
        program can move it.
        """
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i
        for k in range(300):
            columns = self._columns[k % len(self._columns)]
            q = self._values[:, columns] - 0.5
            self._scratch[:, columns] = q + np.min(np.abs(q), axis=1)[:, None]
        return time.perf_counter() - start

    def mean_probe(self, count: int) -> float:
        """Mean of ``count`` fresh probes, not recorded in :attr:`samples`."""
        return sum(self.probe() for _ in range(count)) / count

    @staticmethod
    def scale_step(seconds: float, before: float, after: float) -> float:
        """A set-up step's time scaled by the probes just before and after it.

        Unlike a timed operation, a set-up step lasts about as long as a
        probe, or is one-off, so the probes next to it see the contention
        it saw: the run's mean probe missed it by up to 2x at process start.
        """
        return seconds * 2 * PROBE_NOMINAL_S / (before + after)

    def sample(self, count: int = 1) -> None:
        """Record ``count`` fresh probes."""
        self.samples.extend(self.probe() for _ in range(count))

    def sample_after(self, op_seconds: float) -> None:
        """Probe after an op of ``op_seconds``: about 5% of its time, 1 to 40 probes."""
        self.sample(min(40, max(1, round(0.05 * op_seconds / PROBE_NOMINAL_S))))

    def mark(self) -> int:
        """Start of a window of probes, for :meth:`factor`."""
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Time scale of the window from ``since``: nominal over mean probe."""
        window = self.samples[since:]
        return PROBE_NOMINAL_S * len(window) / sum(window)

    @property
    def speed_ratio(self) -> float:
        """Reference probe time over the mean probe seen (1 = reference speed)."""
        return self.factor() if self.samples else 0.0


def emit(correct: bool, tally: Tally, values: dict[str, float], trace: bool) -> dict:
    """Build the result object: every catalogue metric of the mode, by name and unit.

    The reasons of failed operations go to stderr.
    """
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    catalogue = PER_LAYER if trace else END_TO_END
    unknown = set(values) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    if not trace:
        missing = set(catalogue) - set(values)
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in catalogue.items()
    }
    return {
        "correct": bool(correct) and tally.failed == 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": metrics,
    }


def print_result(result: dict) -> None:
    print(json.dumps(result, separators=(",", ":")), flush=True)
