"""Benchmark: decode service vs per-frame decoding across offered loads.

The service's reason to exist is dynamic batching: many concurrent clients
each hold *one* frame, and answering each with a dedicated batch=1 decode
forfeits the batch engines' amortisation.  This bench drives the service at
three offered loads and compares against the per-frame baseline (a direct
``decode_batch(llrs[None])`` per request — what each client would do
without the service):

* ``trickle``   — one client, closed loop: every request pays the full
  latency budget waiting for batch mates that never arrive (the worst case
  for the service, reported for honesty);
* ``saturating``— a burst of concurrent clients deep enough to keep full
  batches forming (the design point; acceptance: >= 5x the per-frame
  baseline with the p99 *queueing* delay inside the latency budget);
* ``saturating_sharded`` — a 768-frame burst through the thread executor
  and through the process-shard executor (2 shards), as interleaved pairs;
  the row records both medians, their IQRs, n and the process/thread
  ratio.

Queueing delay (``queued_s``: enqueue -> dispatch) is the quantity the
latency budget governs; end-to-end latency additionally includes the decode
itself and any executor backlog and is recorded alongside.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_decode_service.py -q -s``.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.service import DecodeService, default_registry
from repro.service.demo import generate_llr_frames

CODEC = ("ldpc", 576, "1/2")
MAX_BATCH = 64
BUDGET_S = 0.005
#: Scheduler jitter allowance on top of the budget for the p99 assertion
#: (CI runners stall event loops for tens of milliseconds at a time).
BUDGET_SLACK_S = 0.050
BURST_FRAMES = 192
SHARD_BURST_FRAMES = 768
SHARD_PAIRS = 7
TRICKLE_FRAMES = 8
BASELINE_FRAMES = 12
EBN0_DB = 2.0


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def frames(registry):
    entry = registry.resolve(*CODEC)
    rng = np.random.default_rng(2012)
    llrs, _ = generate_llr_frames(entry, BURST_FRAMES, EBN0_DB, rng)
    return llrs


@pytest.fixture(scope="module")
def shard_frames(registry):
    entry = registry.resolve(*CODEC)
    rng = np.random.default_rng(2013)
    llrs, _ = generate_llr_frames(entry, SHARD_BURST_FRAMES, EBN0_DB, rng)
    return llrs


def _per_frame_fps(registry, frames) -> float:
    """Baseline: each request decoded alone, batch=1, best of 2 passes."""
    entry = registry.resolve(*CODEC)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for row in frames[:BASELINE_FRAMES]:
            entry.decoder.decode_batch(row[None])
        best = min(best, time.perf_counter() - start)
    return BASELINE_FRAMES / best


async def _drive(service: DecodeService, frames, concurrent: bool):
    """Submit every frame (as a burst or a closed loop); return (fps, snapshot)."""
    warmup = frames[:2]
    await asyncio.gather(*(service.submit(row, *CODEC) for row in warmup))
    timed = frames[2:]
    start = time.perf_counter()
    if concurrent:
        responses = await asyncio.gather(
            *(service.submit(row, *CODEC) for row in timed)
        )
    else:
        responses = [await service.submit(row, *CODEC) for row in timed]
    elapsed = time.perf_counter() - start
    assert len(responses) == len(timed)
    return len(timed) / elapsed, service.metrics_snapshot()


def _run_service(frames, *, concurrent: bool, registry, **service_kwargs):
    async def scenario():
        async with DecodeService(
            registry=registry,
            max_batch=MAX_BATCH,
            max_delay_s=BUDGET_S,
            queue_capacity=2 * len(frames),
            **service_kwargs,
        ) as service:
            return await _drive(service, frames, concurrent)

    return asyncio.run(scenario())


def _spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {
        "median_fps": round(float(median), 1),
        "iqr_fps": round(float(q3 - q1), 1),
        "n": len(values),
    }


def _row(label, fps, baseline_fps, snapshot):
    return {
        "offered_load": label,
        "throughput_fps": round(fps, 1),
        "speedup_vs_per_frame": round(fps / baseline_fps, 2),
        "queue_p50_ms": round(1e3 * snapshot.queue_p50_s, 3),
        "queue_p99_ms": round(1e3 * snapshot.queue_p99_s, 3),
        "total_p50_ms": round(1e3 * snapshot.total_p50_s, 3),
        "total_p99_ms": round(1e3 * snapshot.total_p99_s, 3),
        "mean_batch_size": round(snapshot.mean_batch_size, 2),
    }


@pytest.mark.benchmark(group="decode-service")
def test_decode_service_throughput_vs_per_frame(
    registry, frames, benchmark, bench_print, bench_json
):
    """Saturating load must beat per-frame >= 5x inside the latency budget."""
    baseline_fps = _per_frame_fps(registry, frames)

    trickle_fps, trickle_snap = _run_service(
        frames[:TRICKLE_FRAMES + 2], concurrent=False, registry=registry,
        executor="thread",
    )
    burst_fps, burst_snap = _run_service(
        frames, concurrent=True, registry=registry, executor="thread",
    )

    rows = {
        "per_frame_baseline": {
            "offered_load": "per_frame_baseline",
            "throughput_fps": round(baseline_fps, 1),
            "speedup_vs_per_frame": 1.0,
        },
        "trickle": _row("trickle", trickle_fps, baseline_fps, trickle_snap),
        "saturating": _row("saturating", burst_fps, baseline_fps, burst_snap),
    }
    bench_json(
        "decode_service",
        "offered_loads",
        {
            "codec": ":".join(str(part) for part in CODEC),
            "max_batch": MAX_BATCH,
            "latency_budget_ms": 1e3 * BUDGET_S,
            "burst_frames": BURST_FRAMES,
            "rows": rows,
        },
    )
    bench_print(
        f"decode service (n=576 LDPC, max_batch={MAX_BATCH}, "
        f"budget {1e3 * BUDGET_S:.0f} ms):\n"
        f"  per-frame baseline {baseline_fps:8.1f} frames/s\n"
        f"  trickle            {trickle_fps:8.1f} frames/s "
        f"(queued p99 {1e3 * trickle_snap.queue_p99_s:6.2f} ms)\n"
        f"  saturating         {burst_fps:8.1f} frames/s "
        f"(queued p99 {1e3 * burst_snap.queue_p99_s:6.2f} ms, "
        f"speedup {burst_fps / baseline_fps:5.1f}x)"
    )

    def run_burst():
        _run_service(frames, concurrent=True, registry=registry, executor="thread")

    benchmark(run_burst)
    # Acceptance: >= 5x per-frame at saturating load, p99 queueing delay
    # within the latency budget (plus scheduler slack).
    assert burst_fps >= 5.0 * baseline_fps
    assert burst_snap.queue_p99_s <= BUDGET_S + BUDGET_SLACK_S


@pytest.mark.benchmark(group="decode-service")
def test_decode_service_sharded_throughput(
    registry, frames, shard_frames, benchmark, bench_print, bench_json
):
    """Process sharding (2 workers) vs the thread executor on one burst.

    Interleaved pairs on the same 768 frames; the process side still has to
    sustain the speedup target at saturating load.
    """
    baseline_fps = _per_frame_fps(registry, frames)
    thread_fps, process_fps = [], []
    for _ in range(SHARD_PAIRS):
        fps, _ = _run_service(
            shard_frames, concurrent=True, registry=registry, executor="thread",
        )
        thread_fps.append(fps)
        fps, sharded_snap = _run_service(
            shard_frames, concurrent=True, registry=registry,
            executor="process", shards=2,
        )
        process_fps.append(fps)
    sharded_fps = float(np.median(process_fps))
    thread = _spread(thread_fps)
    process = _spread(process_fps)
    ratio = process["median_fps"] / thread["median_fps"]
    wins = sum(p > t for p, t in zip(process_fps, thread_fps))
    bench_json(
        "decode_service",
        "saturating_sharded",
        {
            "codec": ":".join(str(part) for part in CODEC),
            "shards": 2,
            "burst_frames": SHARD_BURST_FRAMES,
            "thread": thread,
            "process": process,
            "process_over_thread": round(ratio, 3),
            "process_wins": f"{wins}/{SHARD_PAIRS}",
            **_row("saturating_sharded", sharded_fps, baseline_fps, sharded_snap),
        },
    )
    bench_print(
        f"  {SHARD_BURST_FRAMES}-frame burst, {SHARD_PAIRS} interleaved pairs:\n"
        f"  thread             {thread['median_fps']:8.1f} frames/s "
        f"(IQR {thread['iqr_fps']:.1f})\n"
        f"  sharded (2 proc)   {process['median_fps']:8.1f} frames/s "
        f"(IQR {process['iqr_fps']:.1f}, {ratio:.2f}x thread, won {wins}/{SHARD_PAIRS}; "
        f"queued p99 {1e3 * sharded_snap.queue_p99_s:6.2f} ms)"
    )

    def run_sharded():
        _run_service(
            shard_frames, concurrent=True, registry=registry,
            executor="process", shards=2,
        )

    benchmark(run_sharded)
    assert sharded_fps >= 5.0 * baseline_fps
    assert sharded_snap.queue_p99_s <= BUDGET_S + BUDGET_SLACK_S
