"""BER-chain workloads: ``BerRunner`` end to end, one batch per timed operation.

Each timed operation is one ``BerRunner.run_point`` over exactly one batch
(``max_frames == batch_size``, no early stop), seeded from the workload seed
and the operation index, so the inputs depend only on ``--seed``.  The traced
run replays the same operations with timing proxies injected through the
runner's own parameters (code, decoder, modulator, channel factory and an
``LLRQuantizer`` subclass) and requires the identical ``BerPoint``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.channel.modulation import BPSKModulator
from repro.channel.quantize import CHANNEL_LLR_SPEC, LLRQuantizer
from repro.ldpc.wimax import wimax_ldpc_code
from repro.sim.batch import BatchLayeredDecoder
from repro.sim.runner import CHANNEL_FACTORIES, BerRunner
from repro.sim.stats import wilson_interval
from repro.sim.turbo_batch import BatchTurboDecoder
from repro.turbo.encoder import TurboEncoder

from perfbench.common import (
    Busy,
    SETUP_REPEATS,
    HostSpeed,
    Tally,
    TimedCode,
    TimedDecoder,
    TimedModulator,
    TimedQuantizer,
    emit,
    median,
    peak_rss_mb,
    timed_channel_factory,
)

#: Chain constructions per timed set-up step.  A CTC chain builds in about
#: 1 ms, well under one 5 ms probe, and single builds scaled by their
#: neighbouring probes split into two groups 30% apart across runs.
BUILDS_PER_STEP = 5


@dataclass(frozen=True)
class BerWorkload:
    """One operating point of the BER chain."""

    ebn0_db: float
    batch: int
    build: Callable[[], tuple]  # () -> (code, decoder, llr_quantizer or None)
    steps_per_iteration: Callable[[object], int]
    step_metric: str
    #: Fewest batches a run checks (also the untraced half of a traced run),
    #: and the batches of a full run on a quiet host.
    min_ops: int
    full_run_ops: int


def _ldpc576_fx():
    code = wimax_ldpc_code(576, "1/2")
    decoder = BatchLayeredDecoder(code.h, max_iterations=10, fixed_point=True)
    return code, decoder, LLRQuantizer(CHANNEL_LLR_SPEC)


def _ctc2400():
    encoder = TurboEncoder(n_couples=2400, rate="1/2")
    return encoder, BatchTurboDecoder(encoder, max_iterations=8, algorithm="max-log"), None


WORKLOADS = {
    # One layered check update per parity check (n - k = 288) per iteration.
    "ber_ldpc576_fx": BerWorkload(
        2.0, 64, _ldpc576_fx, lambda code: code.n - code.k, "sim.decode.us_per_check_step",
        min_ops=25, full_run_ops=100,
    ),
    # Two SISO activations of 2400 trellis steps per iteration.
    "ber_ctc2400": BerWorkload(
        1.0, 32, _ctc2400, lambda code: 2 * code.n_couples, "sim.decode.us_per_trellis_step",
        min_ops=6, full_run_ops=9,
    ),
}


def op_seed(seed: int, index: int) -> int:
    """Seed of timed operation ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed % 2**32, index % 2**32]).generate_state(1)[0])


#: Error statistics checked against ``reference.json``: name -> BerPoint fields.
ERROR_RATES = {"ber": ("bit_errors", "total_bits"), "fer": ("frame_errors", "frames")}


def within_reference(errors: int, trials: int, reference: dict) -> bool:
    """Whether ``errors / trials`` lies in the 99% Wilson interval of the recorded rate.

    Errors cluster (bit errors in failed frames, failed frames in batches),
    so the interval is taken over the run's effective sample size,
    ``trials / design_effect``, with the design effect recorded next to the
    reference rate.
    """
    n_eff = trials / reference["design_effect"]
    lo, hi = wilson_interval(reference["rate"] * n_eff, n_eff, 0.99)
    return lo <= errors / trials <= hi


class _Chain:
    """Built objects of one workload and the runner factory over them."""

    def __init__(self, spec: BerWorkload) -> None:
        self.spec = spec
        self.code, self.decoder, self.quantizer = spec.build()
        self.modulator = BPSKModulator()
        self.runner(0, 0)  # construction validates the code/decoder pairing

    def runner(self, seed: int, index: int, frames: int | None = None, **proxies) -> BerRunner:
        frames = frames or self.spec.batch
        return BerRunner(
            proxies.get("code", self.code),
            proxies.get("decoder", self.decoder),
            proxies.get("modulator", self.modulator),
            channel=proxies.get("channel", "awgn"),
            llr_quantizer=proxies.get("quantizer", self.quantizer),
            batch_size=frames,
            max_frames=frames,
            target_frame_errors=None,
            seed=op_seed(seed, index),
        )


def _setup(spec: BerWorkload, host: HostSpeed) -> tuple[_Chain, float]:
    """Build the chain; returns it and the normalised median construction time."""
    times, before = [], host.mean_probe(1)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for _ in range(BUILDS_PER_STEP):
            wimax_ldpc_code.cache_clear()  # so every build builds the code
            chain = _Chain(spec)
        elapsed = (time.perf_counter() - start) / BUILDS_PER_STEP
        after = host.mean_probe(1)
        times.append(host.scale_step(elapsed, before, after))
        before = after
    # One warm-up operation (two frames), left out of every timing.
    chain.runner(-1, 0, frames=2).run_point(spec.ebn0_db)
    return chain, median(times)


def _timed_ops(chain: _Chain, seed: int, seconds: float, tally: Tally, host: HostSpeed,
               count: int | None = None, **proxies):
    """Run operations until ``seconds`` elapse (or exactly ``count``).

    Returns the points, the raw op times and the op times normalised by the
    host probes taken between the ops.
    """
    points, times = [], []
    mark = host.mark()
    host.sample()
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < count) if count is not None else (
        index < chain.spec.min_ops or time.perf_counter() < deadline
    ):
        runner = chain.runner(seed, index, **proxies)
        start = time.perf_counter()
        try:
            point = runner.run_point(chain.spec.ebn0_db)
        except Exception as exc:  # a raised error is a failed operation
            tally.record(False, f"op {index}: {type(exc).__name__}: {exc}")
            point = None
        else:
            tally.record(point.frames == chain.spec.batch, f"op {index}: frame count")
        times.append(time.perf_counter() - start)
        host.sample_after(times[-1])
        points.append(point)
        index += 1
    factor = host.factor(mark)
    return points, times, [t * factor for t in times]


def _check_ber(points, reference: dict, tally: Tally) -> bool:
    """The run's BER and FER against the recorded ones."""
    done = [p for p in points if p is not None]
    ok = True
    for name, (error_field, trial_field) in ERROR_RATES.items():
        errors = sum(getattr(p, error_field) for p in done)
        trials = sum(getattr(p, trial_field) for p in done)
        if not (trials and within_reference(errors, trials, reference[name])):
            ok = False
            tally.fail_existing(
                f"{name.upper()} {errors}/{trials} outside the 99% Wilson interval "
                f"of the recorded {reference[name]['rate']:.3e}"
            )
    return ok


def run(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    spec = WORKLOADS[name]
    host = HostSpeed()
    chain, setup_s = _setup(spec, host)
    tally = Tally()
    if not trace:
        points, _, scaled = _timed_ops(chain, seed, seconds, tally, host)
        correct = _check_ber(points, reference["ber"][name], tally)
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "success_ratio": tally.success_ratio,
            "throughput_per_s": chain.spec.batch * len(scaled) / sum(scaled),
            "latency_mean_ms": 1e3 * sum(scaled) / len(scaled),
        }
        return emit(correct, tally, values, trace=False)

    # Traced run: half the time untraced, then the same operations traced.
    plain, plain_times, plain_scaled = _timed_ops(chain, seed, seconds / 2, tally, host)
    encode, channel, decode = Busy(), Busy(), TimedDecoder(chain.decoder)
    proxies = {
        "code": TimedCode(chain.code, encode),
        "decoder": decode,
        "modulator": TimedModulator(chain.modulator, channel),
        "channel": timed_channel_factory(CHANNEL_FACTORIES["awgn"], channel),
    }
    if chain.quantizer is not None:
        proxies["quantizer"] = TimedQuantizer(chain.quantizer, channel)
    traced, traced_times, traced_scaled = _timed_ops(
        chain, seed, 0.0, Tally(), host, count=len(plain), **proxies
    )
    correct = traced == plain
    if not correct:
        tally.fail_existing("traced BerPoint differs from the untraced one")
    correct = _check_ber(plain, reference["ber"][name], tally) and correct

    wall = sum(traced_times)
    calls = decode.calls
    rows = sum(c.rows for c in calls)
    steps = sum(c.max_iterations for c in calls) * spec.steps_per_iteration(chain.code)
    values = {
        "trace.overhead_ratio": sum(traced_scaled) / sum(plain_scaled),
        "trace.wall_s": wall,
        "host.speed_ratio": host.speed_ratio,
        "sim.decode.busy_s": decode.busy_s,
        spec.step_metric: 1e6 * decode.busy_s / steps,
        "sim.decode.iterations_mean": sum(c.iteration_sum for c in calls) / rows,
        "sim.decode.batch_max_iterations_mean": float(np.mean([c.max_iterations for c in calls])),
        "sim.decode.converged_ratio": sum(c.converged for c in calls) / rows,
        "encode.busy_s": encode.seconds,
        "channel.busy_s": channel.seconds,
        "sim.runner.self_s": wall - decode.busy_s - encode.seconds - channel.seconds,
    }
    return emit(correct, tally, values, trace=True)
