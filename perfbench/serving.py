"""Decode-service workload: radio frames through a default ``DecodeService``.

Each operation is one radio frame of six code blocks submitted at once: three
WiMAX LDPC n=576 rate-1/2 blocks at 2.0 dB, one n=2304 rate-5/6 block at
4.0 dB and two CTC 48-couple rate-1/2 blocks at 2.0 dB.  The client waits for
all six before it sends the next frame (closed loop, one frame in flight), so
every request crosses admit -> queue -> dispatch -> decode -> settle in three
lanes with batches of one to three frames.  The frame's latency runs from
its submission to the last of its blocks resolving.

An open loop (a frame due every 150 or 300 ms) was measured first and
dropped.  At 150 ms the one decode worker was 75% busy, and a few seconds of
host slowdown grew a backlog that did not drain within the run: frame latency
read 0.12-1.8 s across five seeds, and one run missed 230 deadlines.  At
300 ms it read 104-189 ms across five seeds, because host speed drifts over
minutes and an open loop leaves no quiet point to measure it.  In the closed
loop the service is idle between frames, where the host probe runs, so each
frame is normalised as a BER batch is.

LLR pools are generated before timing, one distinct frame per request, and
every response is checked after the timed window against a direct
``decode_batch`` of the same LLRs.  The traced run serves the same frames
twice: once from a default service and once from a service whose registry
wraps every decoder in a timing proxy (``CodecRegistry.register_family``),
from which the queue / executor / decode / settle split is computed.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.ldpc.wimax import wimax_ldpc_code
from repro.service.demo import generate_llr_frames
from repro.service.registry import default_registry
from repro.service.service import DecodeResponse, DecodeService

from perfbench.common import (
    SETUP_REPEATS,
    HostSpeed,
    Tally,
    emit,
    median,
    peak_rss_mb,
    percentile,
    timed_registry,
)

#: (family, block, rate, Eb/N0 in dB, blocks per radio frame)
RADIO_FRAME = (
    ("ldpc", 576, "1/2", 2.0, 3),
    ("ldpc", 2304, "5/6", 4.0, 1),
    ("turbo", 48, "1/2", 2.0, 2),
)
REQUESTS_PER_FRAME = sum(count for *_, count in RADIO_FRAME)
#: A request still unresolved after this long counts as a failed operation.
DEADLINE_S = 5.0
#: At least 100 requests, so a request p90 keeps ten samples beyond it.
MIN_FRAMES = 17
#: LLR pools hold this many frames per second of run time (a quiet host
#: decodes about ten).
POOL_FRAMES_PER_S = 15


@dataclass(frozen=True)
class Outcome:
    """One request: which pool frame it carried, when it was sent and resolved."""

    codec: int
    index: int
    submitted: float
    done: float
    response: DecodeResponse | None
    error: str | None


async def _start(registry) -> DecodeService:
    for family, block, rate, _, _ in RADIO_FRAME:
        registry.resolve(family, block, rate)
    service = DecodeService(registry)
    await service.start()
    return service


async def _one(service, codec: int, index: int, llrs) -> Outcome:
    family, block, rate, _, _ = RADIO_FRAME[codec]
    loop = asyncio.get_running_loop()
    submitted = loop.time()
    try:
        response = await service.submit(llrs, family, block, rate, deadline_s=DEADLINE_S)
    except Exception as exc:  # typed service errors and deadline misses are failures
        return Outcome(codec, index, submitted, loop.time(), None, repr(exc))
    return Outcome(codec, index, submitted, loop.time(), response, None)


async def _drive(service, pools, host: HostSpeed, seconds: float, count: int | None = None):
    """Send radio frames one at a time until ``seconds`` elapse (or exactly ``count``).

    Returns the outcomes, the raw frame times and the frame times normalised
    by the host probes taken, with the service idle, between the frames.
    """
    capacity = len(pools[0]) // RADIO_FRAME[0][4]
    outcomes, times = [], []
    mark = host.mark()
    host.sample()
    deadline = time.perf_counter() + seconds
    frame = 0
    while frame < capacity and (
        frame < count if count is not None
        else frame < MIN_FRAMES or time.perf_counter() < deadline
    ):
        start = time.perf_counter()
        outcomes += await asyncio.gather(*(
            _one(service, codec, frame * n + j, pools[codec][frame * n + j])
            for codec, (*_, n) in enumerate(RADIO_FRAME)
            for j in range(n)
        ))
        times.append(time.perf_counter() - start)
        host.sample_after(times[-1])
        frame += 1
    factor = host.factor(mark)
    return outcomes, times, [t * factor for t in times]


async def _warm_up(service, pools) -> None:
    """One request per codec, left out of every timing."""
    await asyncio.gather(*(
        service.submit(pools[codec][0], family, block, rate)
        for codec, (family, block, rate, _, _) in enumerate(RADIO_FRAME)
    ))


def _pools(registry, seed: int, n_frames: int):
    """Channel LLRs for every request of ``n_frames`` radio frames, per codec."""
    pools = []
    for codec, (family, block, rate, ebn0_db, count) in enumerate(RADIO_FRAME):
        entry = registry.resolve(family, block, rate)
        rng = np.random.default_rng([seed % 2**32, codec])
        llrs, _ = generate_llr_frames(entry, n_frames * count, ebn0_db, rng)
        pools.append(np.ascontiguousarray(llrs, dtype=np.float64))
    return pools


def _direct_decode(registry, codec: int, pools, frames: int) -> np.ndarray:
    """Hard bits of a direct ``decode_batch`` of every request the run sent.

    Decoded 64 rows at a time, so peak memory does not grow with the number
    of frames a run gets through.
    """
    family, block, rate, _, count = RADIO_FRAME[codec]
    decoder = registry.resolve(family, block, rate).decoder
    llrs = pools[codec][: frames * count]
    return np.concatenate(
        [decoder.decode_batch(llrs[i : i + 64]).hard_bits for i in range(0, len(llrs), 64)]
    )


def _check(outcomes: list[Outcome], expected, tally: Tally) -> None:
    for o in outcomes:
        if o.response is None:
            tally.record(False, o.error or "no response")
        else:
            tally.record(
                np.array_equal(o.response.bits, expected[o.codec][o.index]),
                f"codec {o.codec} frame {o.index}: bits differ from direct decode",
            )


def _latencies(outcomes: list[Outcome]) -> list[float]:
    return [o.done - o.submitted for o in outcomes if o.response is not None]


def _batch_split(outcomes: list[Outcome], proxies) -> tuple[list[float], list[float]]:
    """Executor wait per batch and settle time per request, from the proxy logs.

    Requests of one batch share its ``decode_s``; each codec lane's batches
    run in dispatch order on the service's single worker, so the k-th batch
    of a codec is the k-th ``decode_batch`` call its proxy logged.
    """
    batches: dict[tuple[str, float], list[Outcome]] = {}
    for o in outcomes:
        if o.response is not None:
            batches.setdefault((o.response.codec, o.response.decode_s), []).append(o)
    by_codec: dict[str, list[list[Outcome]]] = {}
    for (codec, _), members in batches.items():
        by_codec.setdefault(codec, []).append(members)
    waits, settles = [], []
    for codec, groups in by_codec.items():
        groups.sort(key=lambda m: min(o.submitted + o.response.queued_s for o in m))
        calls = proxies[codec].calls
        if len(calls) != len(groups) or any(
            call.rows != len(members) for call, members in zip(calls, groups)
        ):
            raise RuntimeError(f"{codec}: decoder calls do not line up with batches")
        for call, members in zip(calls, groups):
            waits.append(members[0].response.decode_s - (call.end - call.start))
            settles.extend(o.done - call.end for o in members)
    return waits, settles


async def _run(seed: int, seconds: float, trace: bool) -> dict:
    host = HostSpeed()
    setup_times, before = [], host.mean_probe(1)
    for repeat in range(SETUP_REPEATS):
        wimax_ldpc_code.cache_clear()  # so every repeat builds the codes
        start = time.perf_counter()
        service = await _start(default_registry())
        elapsed = time.perf_counter() - start
        after = host.mean_probe(1)
        setup_times.append(host.scale_step(elapsed, before, after))
        before = after
        if repeat < SETUP_REPEATS - 1:
            await service.stop()
    pools = _pools(service.registry, seed, MIN_FRAMES + math.ceil(seconds * POOL_FRAMES_PER_S))
    await _warm_up(service, pools)
    tally = Tally()
    try:
        plain, plain_times, plain_scaled = await _drive(
            service, pools, host, seconds / 2 if trace else seconds
        )
    finally:
        await service.stop()
    frames = len(plain_times)
    expected = [
        _direct_decode(service.registry, codec, pools, frames) for codec in range(len(RADIO_FRAME))
    ]
    _check(plain, expected, tally)
    if not trace:
        values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "success_ratio": tally.success_ratio,
            "throughput_per_s": REQUESTS_PER_FRAME * frames / sum(plain_scaled),
            "latency_mean_ms": 1e3 * sum(plain_scaled) / frames,
        }
        return emit(True, tally, values, trace=False)

    registry, proxies = timed_registry(default_registry())
    service = await _start(registry)
    await _warm_up(service, pools)
    for proxy in proxies.values():
        proxy.calls.clear()
    snapshot = service.metrics_snapshot()
    try:
        traced, traced_times, traced_scaled = await _drive(
            service, pools, host, 0.0, count=frames
        )
        after = service.metrics_snapshot()
    finally:
        await service.stop()
    _check(traced, expected, tally)
    try:
        waits, settles = _batch_split(traced, proxies)
    except RuntimeError as exc:
        tally.fail_existing(str(exc))
        waits, settles = [], []
    calls = [call for proxy in proxies.values() for call in proxy.calls]
    done = [o.response for o in traced if o.response is not None]
    latencies = _latencies(plain)
    wall = sum(traced_times)
    values = {
        "trace.overhead_ratio": sum(traced_scaled) / sum(plain_scaled),
        "trace.wall_s": wall,
        "host.speed_ratio": host.speed_ratio,
        "service.request_latency_ms_p50": 1e3 * percentile(latencies, 50),
        "service.request_latency_ms_p90": 1e3 * percentile(latencies, 90),
        "service.queue_ms_p50": 1e3 * percentile([r.queued_s for r in done], 50),
        "service.executor_wait_ms_p50": 1e3 * percentile(waits, 50),
        "service.executor_wait_ms_p90": 1e3 * percentile(waits, 90),
        "service.decode_ms_p50": 1e3 * percentile([r.decode_s for r in done], 50),
        "service.settle_ms_p50": 1e3 * percentile(settles, 50),
        "service.batch_size_mean": float(np.mean([c.rows for c in calls])),
        "service.batches": len(calls),
        "service.decoder_busy_ratio": sum(c.end - c.start for c in calls) / wall,
        "service.failed": after.failed - snapshot.failed,
        "service.retries": after.retries - snapshot.retries,
        "service.deadline_exceeded": after.deadline_exceeded - snapshot.deadline_exceeded,
        "service.rejected": after.rejected - snapshot.rejected,
    }
    return emit(True, tally, values, trace=True)


def run(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    return asyncio.run(_run(seed, seconds, trace))
