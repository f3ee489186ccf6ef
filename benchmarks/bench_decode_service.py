"""Benchmark: decode service vs per-frame decoding across offered loads.

The service's reason to exist is dynamic batching: many concurrent clients
each hold *one* frame, and answering each with a dedicated batch=1 decode
forfeits the batch engines' amortisation.  This bench drives the service at
three offered loads and compares against the per-frame baseline (a direct
``decode_batch(llrs[None])`` per request — what each client would do
without the service):

* ``trickle``   — one client, closed loop: each request finds the worker
  idle and is dispatched alone at the next loop turn (work-conserving
  dispatch), so it pays the service's overhead over a batch=1 decode but
  no wait for batch mates that never arrive;
* ``saturating``— a burst of concurrent clients deep enough to keep full
  batches forming (the design point; acceptance: >= 5x the per-frame
  baseline with the p99 *queueing* delay inside the latency budget);
* ``saturating_sharded`` — a 768-frame burst through the thread executor
  and through the process-shard executor (2 shards), as interleaved pairs;
  the row records both arms and the process/thread ratio.

Queueing delay (``queued_s``: enqueue -> dispatch) is the quantity the
latency budget governs; end-to-end latency additionally includes the decode
itself and any executor backlog and is recorded alongside.

Every arm is timed by :mod:`benchmarks.harness` as interleaved trials,
per frame.  Both service benches (this one and ``bench_resilience.py``) run
their bursts through :func:`run_burst`: it starts a fresh service and times
only the submit phase.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_decode_service.py -q -s``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.service import DecodeService, default_registry
from repro.service.demo import generate_llr_frames
from repro.service.metrics import MetricsSnapshot

from benchmarks.harness import Lap, per_item, record, row, stopwatch, trials

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
#: Per-frame baseline passes of the sharded row; its gate reads the best one.
BASELINE_TRIALS = 2
#: Interleaved trials of every arm of the offered-loads row (per-frame,
#: trickle, saturating); its gates read each arm's best.
LOAD_TRIALS = 5
#: Frames each burst submits untimed first (they start the executor).
WARMUP_FRAMES = 2
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


def _per_frame(registry, frames):
    """The baseline arm: each request decoded alone, batch=1."""
    decoder = registry.resolve(*CODEC).decoder

    def run():
        for row_llrs in frames[:BASELINE_FRAMES]:
            decoder.decode_batch(row_llrs[None])

    return run


@dataclass
class Burst(Lap):
    """One service run: the submit phase's lap, what it timed and its outcome."""

    frames: int = 0
    # Kept out of the repr: asyncio formats a finished task's result, and
    # formatting every response's bit array costs more than the burst.
    responses: list = field(default_factory=list, repr=False)
    snapshot: MetricsSnapshot | None = field(default=None, repr=False)


def run_burst(
    frames, *, registry, concurrent: bool = True, warmup: int = WARMUP_FRAMES,
    **service_kwargs,
) -> Burst:
    """Decode ``frames`` through a fresh service; time only the submit phase.

    The first ``warmup`` frames go through untimed; the rest are submitted
    as one concurrent burst, or one at a time as a closed loop when not
    ``concurrent``.  The returned :class:`Burst` is the lap :func:`trials`
    records for the arm.
    """

    async def scenario():
        async with DecodeService(
            registry=registry,
            max_batch=MAX_BATCH,
            max_delay_s=BUDGET_S,
            queue_capacity=2 * len(frames),
            **service_kwargs,
        ) as service:
            await asyncio.gather(*(service.submit(r, *CODEC) for r in frames[:warmup]))
            timed = frames[warmup:]
            with stopwatch() as lap:
                if concurrent:
                    responses = await asyncio.gather(
                        *(service.submit(r, *CODEC) for r in timed)
                    )
                else:
                    responses = [await service.submit(r, *CODEC) for r in timed]
            assert len(responses) == len(timed)
            return Burst(lap.seconds, len(timed), list(responses), service.metrics_snapshot())

    return asyncio.run(scenario())


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


def test_decode_service_throughput_vs_per_frame(registry, frames):
    """Saturating load must beat per-frame >= 5x inside the latency budget."""
    trickle = frames[: TRICKLE_FRAMES + WARMUP_FRAMES]
    samples, results = trials(
        {
            "per_frame": _per_frame(registry, frames),
            "trickle": lambda: run_burst(
                trickle, concurrent=False, registry=registry, executor="thread"
            ),
            "saturating": lambda: run_burst(frames, registry=registry, executor="thread"),
        },
        LOAD_TRIALS,
    )
    timing = row(
        per_item(samples, {"per_frame": BASELINE_FRAMES, "trickle": TRICKLE_FRAMES,
                           "saturating": len(frames) - WARMUP_FRAMES}),
        "per_frame",
        "s/frame",
    )
    arms = timing["arms"]
    baseline_fps = 1 / arms["per_frame"]["best"]
    trickle_fps, burst_fps = 1 / arms["trickle"]["best"], 1 / arms["saturating"]["best"]
    trickle_snap = results["trickle"].snapshot
    burst_snap = results["saturating"].snapshot

    rows = {
        "per_frame_baseline": {
            "offered_load": "per_frame_baseline",
            "throughput_fps": round(baseline_fps, 1),
            "speedup_vs_per_frame": 1.0,
        },
        "trickle": _row("trickle", trickle_fps, baseline_fps, trickle_snap),
        "saturating": _row("saturating", burst_fps, baseline_fps, burst_snap),
    }
    record(
        "decode_service",
        "offered_loads",
        {
            "codec": ":".join(str(part) for part in CODEC),
            "max_batch": MAX_BATCH,
            "latency_budget_ms": 1e3 * BUDGET_S,
            "burst_frames": BURST_FRAMES,
            "rows": rows,
            "timing": timing,
        },
    )
    print(
        f"\ndecode service (n=576 LDPC, max_batch={MAX_BATCH}, "
        f"budget {1e3 * BUDGET_S:.0f} ms):\n"
        f"  per-frame baseline {baseline_fps:8.1f} frames/s\n"
        f"  trickle            {trickle_fps:8.1f} frames/s "
        f"(queued p99 {1e3 * trickle_snap.queue_p99_s:6.2f} ms)\n"
        f"  saturating         {burst_fps:8.1f} frames/s "
        f"(queued p99 {1e3 * burst_snap.queue_p99_s:6.2f} ms, "
        f"speedup {burst_fps / baseline_fps:5.1f}x)"
    )
    # Acceptance: >= 5x per-frame at saturating load, p99 queueing delay
    # within the latency budget (plus scheduler slack).
    assert burst_fps >= 5.0 * baseline_fps
    assert burst_snap.queue_p99_s <= BUDGET_S + BUDGET_SLACK_S


def test_decode_service_sharded_throughput(registry, frames, shard_frames):
    """Process sharding (2 workers) vs the thread executor on one burst.

    Interleaved pairs on the same 768 frames; the process side still has to
    sustain the speedup target at saturating load.
    """
    samples, results = trials(
        {
            "per_frame": _per_frame(registry, frames),
            "thread": lambda: run_burst(shard_frames, registry=registry, executor="thread"),
            "process": lambda: run_burst(
                shard_frames, registry=registry, executor="process", shards=2
            ),
        },
        {"per_frame": BASELINE_TRIALS, "thread": SHARD_PAIRS, "process": SHARD_PAIRS},
    )
    timed = SHARD_BURST_FRAMES - WARMUP_FRAMES
    timing = row(
        per_item(samples, {"per_frame": BASELINE_FRAMES, "thread": timed, "process": timed}),
        "thread",
        "s/frame",
    )
    arms = timing["arms"]
    baseline_fps = 1 / arms["per_frame"]["best"]
    sharded_fps = 1 / arms["process"]["median"]
    thread_fps = 1 / arms["thread"]["median"]
    vs = timing["vs"]["process"]
    sharded_snap = results["process"].snapshot
    record(
        "decode_service",
        "saturating_sharded",
        {
            "codec": ":".join(str(part) for part in CODEC),
            "shards": 2,
            "burst_frames": SHARD_BURST_FRAMES,
            "timing": timing,
            **_row("saturating_sharded", sharded_fps, baseline_fps, sharded_snap),
        },
    )
    print(
        f"\n  {SHARD_BURST_FRAMES}-frame burst, {SHARD_PAIRS} interleaved pairs (median):\n"
        f"  thread             {thread_fps:8.1f} frames/s\n"
        f"  sharded (2 proc)   {sharded_fps:8.1f} frames/s "
        f"({vs['ratio']:.2f}x thread, won {vs['wins']}/{SHARD_PAIRS}; "
        f"queued p99 {1e3 * sharded_snap.queue_p99_s:6.2f} ms)"
    )
    assert sharded_fps >= 5.0 * baseline_fps
    assert sharded_snap.queue_p99_s <= BUDGET_S + BUDGET_SLACK_S
