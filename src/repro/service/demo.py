"""Decode-service demo: N concurrent clients over AWGN-corrupted frames.

This is the workload behind both ``python -m repro.service`` and
``examples/decode_service_demo.py`` (and CI's service smoke steps): generate
random frames for a mix of codecs, corrupt them over a BPSK/AWGN channel at
a chosen Eb/N0, fire every frame at the service from its own client
coroutine, then print the live metrics snapshot and the measured error
rates.  :func:`run_demo` returns the numbers as a dict so scripted callers
(tests, CI) can assert on them.

The demo doubles as the chaos smoke: ``--inject-faults "crash@2,hang@5:0.1"``
drives a deterministic :class:`~repro.faults.FaultPlan` through the decode
path while the same client mix runs, and the exit code is nonzero unless
**every** request resolved — the resilience layer's retries are expected to
make injected faults invisible to callers.
"""

from __future__ import annotations

import argparse
import asyncio
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import AWGNChannel, ebn0_to_noise_sigma
from repro.channel.modulation import BPSKModulator
from repro.faults import FaultPlan
from repro.service.registry import CodecEntry, CodecRegistry, default_registry
from repro.service.resilience import ResilienceConfig
from repro.service.service import DecodeResponse, DecodeService
from repro.sim.runner import resolve_code_rate

__all__ = ["generate_llr_frames", "main", "run_demo"]

#: Codec mix exercised by default: one LDPC and one turbo lane, small
#: blocks so the demo stays quick on CI.
DEFAULT_CODECS = (("ldpc", 576, "1/2"), ("turbo", 48, "1/2"))

#: Hard wall on the whole demo run — under fault injection a wedged service
#: must fail the smoke, not hang CI.
DEMO_WALL_S = 120.0


def generate_llr_frames(
    entry: CodecEntry, count: int, ebn0_db: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random encoded frames through BPSK/AWGN: ``(llrs, reference_bits)``.

    ``llrs`` is ``(count, n_bits)``; ``reference_bits`` is what the decoder
    is expected to reproduce — codewords for LDPC, information bits for
    turbo (per ``entry.decides_info_bits``).
    """
    info = rng.integers(0, 2, size=(count, entry.k_bits), dtype=np.int8)
    codewords = entry.code.encode_batch(info)
    modulator = BPSKModulator()
    sigma = ebn0_to_noise_sigma(ebn0_db, resolve_code_rate(entry.code.rate))
    channel = AWGNChannel(sigma, rng)
    received = channel.transmit(modulator.modulate(codewords))
    llrs = modulator.demodulate_llr(received, channel.llr_noise_variance(False))
    reference = info if entry.decides_info_bits else codewords.astype(np.int8)
    return llrs, reference


@dataclass
class _Workload:
    entry: CodecEntry
    llrs: np.ndarray
    reference: np.ndarray


async def _run_async(
    service: DecodeService,
    workloads: list[_Workload],
    deadline_s: float | None,
    wall_s: float,
) -> tuple[dict, list]:
    async with service:
        started = time.perf_counter()
        tasks = []
        for load in workloads:
            spec = load.entry.spec
            for row in load.llrs:
                tasks.append(
                    asyncio.create_task(
                        service.submit(
                            row,
                            family=spec.family,
                            block=spec.block,
                            rate=spec.rate,
                            deadline_s=deadline_s,
                        )
                    )
                )
        done, pending = await asyncio.wait(tasks, timeout=wall_s)
        for task in pending:  # wedged beyond the wall: count as unresolved
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        elapsed = time.perf_counter() - started
        # Outcomes in submission order: DecodeResponse, exception, or None
        # (never resolved inside the wall).
        outcomes: list = []
        for task in tasks:
            if task not in done:
                outcomes.append(None)
            elif task.exception() is not None:
                outcomes.append(task.exception())
            else:
                outcomes.append(task.result())
        snapshot = service.metrics_snapshot()
        health = service.health_snapshot()
    return {"elapsed_s": elapsed, "snapshot": snapshot, "health": health}, outcomes


def run_demo(
    requests: int = 100,
    ebn0_db: float = 2.0,
    codecs: tuple[tuple[str, int, str], ...] = DEFAULT_CODECS,
    max_batch: int = 64,
    max_delay_s: float = 0.005,
    backpressure: str = "wait",
    executor: str = "thread",
    shards: int = 0,
    seed: int = 2012,
    registry: CodecRegistry | None = None,
    quiet: bool = False,
    fault_plan: FaultPlan | str | None = None,
    attempts: int | None = None,
    deadline_s: float | None = None,
    watchdog_s: float | None = None,
    wall_s: float = DEMO_WALL_S,
) -> dict:
    """Fire ``requests`` frames (split across ``codecs``) at one service.

    Returns a dict with the metrics snapshot (as a dict), wall-clock
    throughput, per-codec bit/frame error counts against the encoded
    reference bits, and the resolution tally — ``resolved`` counts requests
    that came back as decoded frames, ``errors_by_type`` the typed failures,
    ``unresolved`` the requests still hanging when ``wall_s`` struck (always
    0 for a healthy service, fault-injected or not).
    """
    registry = registry if registry is not None else default_registry()
    if isinstance(fault_plan, str):
        fault_plan = FaultPlan.from_string(fault_plan)
    resilience = (
        ResilienceConfig(max_attempts=attempts) if attempts is not None else None
    )
    rng = np.random.default_rng(seed)
    per_codec = max(requests // len(codecs), 1)
    workloads = [
        _Workload(entry, *generate_llr_frames(entry, per_codec, ebn0_db, rng))
        for entry in (registry.resolve(*codec) for codec in codecs)
    ]
    service = DecodeService(
        registry=registry,
        max_batch=max_batch,
        max_delay_s=max_delay_s,
        backpressure=backpressure,
        executor=executor,
        shards=shards,
        resilience=resilience,
        watchdog_s=watchdog_s,
        fault_plan=fault_plan,
    )
    timing, outcomes = asyncio.run(
        _run_async(service, workloads, deadline_s, wall_s)
    )

    resolved = sum(1 for out in outcomes if isinstance(out, DecodeResponse))
    unresolved = sum(1 for out in outcomes if out is None)
    errors_by_type = Counter(
        type(out).__name__
        for out in outcomes
        if out is not None and not isinstance(out, DecodeResponse)
    )

    # Re-associate outcomes with their workloads by codec label, in order;
    # error-rate stats cover the successfully decoded frames only.
    cursor = 0
    per_codec_stats = {}
    for load in workloads:
        count = load.llrs.shape[0]
        chunk = outcomes[cursor : cursor + count]
        cursor += count
        pairs = [
            (response, load.reference[i])
            for i, response in enumerate(chunk)
            if isinstance(response, DecodeResponse)
        ]
        if pairs:
            decoded = np.stack([response.bits for response, _ in pairs])
            reference = np.stack([ref for _, ref in pairs])
            bit_errors = int(np.count_nonzero(decoded != reference))
            frame_errors = int(np.count_nonzero((decoded != reference).any(axis=1)))
            avg_iterations = float(
                np.mean([response.iterations for response, _ in pairs])
            )
            total_bits = int(reference.size)
        else:
            bit_errors = frame_errors = total_bits = 0
            avg_iterations = 0.0
        per_codec_stats[load.entry.spec.label] = {
            "frames": count,
            "decoded_frames": len(pairs),
            "bit_errors": bit_errors,
            "frame_errors": frame_errors,
            "total_bits": total_bits,
            "avg_iterations": avg_iterations,
        }
    snapshot = timing["snapshot"]
    health = timing["health"]
    total_frames = sum(stats["frames"] for stats in per_codec_stats.values())
    payload = {
        "requests": total_frames,
        "resolved": resolved,
        "unresolved": unresolved,
        "errors_by_type": dict(errors_by_type),
        "ebn0_db": ebn0_db,
        "elapsed_s": timing["elapsed_s"],
        "throughput_fps": total_frames / timing["elapsed_s"],
        "executor": service.executor_mode,
        "shards": service.shards,
        "fault_plan": fault_plan.describe() if fault_plan else "",
        "metrics": snapshot.as_dict(),
        "health": health.as_dict(),
        "per_codec": per_codec_stats,
    }
    if not quiet:
        print(f"decode service demo: {total_frames} frames at Eb/N0 = {ebn0_db} dB")
        print(f"  executor={service.executor_mode} shards={service.shards}")
        if fault_plan:
            print(f"  fault plan: {fault_plan.describe()}")
        print(f"  metrics: {snapshot}")
        if resolved != total_frames:
            failures = (
                ", ".join(f"{name} x{n}" for name, n in sorted(errors_by_type.items()))
                or "none"
            )
            print(
                f"  RESOLUTION: {resolved}/{total_frames} resolved, "
                f"{unresolved} unresolved, errors: {failures}"
            )
        for label, stats in per_codec_stats.items():
            ber = (
                stats["bit_errors"] / stats["total_bits"] if stats["total_bits"] else 0.0
            )
            print(
                f"  {label}: {stats['decoded_frames']}/{stats['frames']} frames, "
                f"BER {ber:.2e}, {stats['frame_errors']} frame errors, "
                f"avg {stats['avg_iterations']:.1f} iterations"
            )
    return payload


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.service``).

    Exits nonzero unless every request resolved with decoded bits — the
    contract CI's chaos smoke asserts under ``--inject-faults``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Dynamic-batching decode service demo over AWGN frames.",
    )
    parser.add_argument("--requests", type=int, default=100,
                        help="total frames across all codecs (default 100)")
    parser.add_argument("--ebn0", type=float, default=2.0,
                        help="channel Eb/N0 in dB (default 2.0)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="largest dispatched batch (default 64)")
    parser.add_argument("--delay-ms", type=float, default=5.0,
                        help="batching latency budget in ms (default 5)")
    parser.add_argument("--backpressure", choices=("wait", "reject"), default="wait")
    parser.add_argument("--executor", choices=("thread", "process", "inline"),
                        default="thread")
    parser.add_argument("--shards", type=int, default=0,
                        help="worker processes for --executor process")
    parser.add_argument("--ldpc-only", action="store_true",
                        help="serve only the LDPC lane (default: LDPC + turbo mix)")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--inject-faults", default="", metavar="PLAN",
                        help="fault plan, e.g. 'crash@2,hang@5:0.1,error@7' "
                             "(kind@dispatch[:duration_s], comma separated)")
    parser.add_argument("--attempts", type=int, default=None,
                        help="dispatch attempts per batch (default: resilience "
                             "config default)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline in ms (default: none)")
    parser.add_argument("--watchdog", type=float, default=None, metavar="S",
                        help="hang-watchdog timeout in seconds, covering the "
                             "slowest codec's full batch (default: disabled)")
    args = parser.parse_args(argv)
    codecs = DEFAULT_CODECS[:1] if args.ldpc_only else DEFAULT_CODECS
    payload = run_demo(
        requests=args.requests,
        ebn0_db=args.ebn0,
        codecs=codecs,
        max_batch=args.max_batch,
        max_delay_s=args.delay_ms / 1e3,
        backpressure=args.backpressure,
        executor=args.executor,
        shards=args.shards,
        seed=args.seed,
        fault_plan=args.inject_faults or None,
        attempts=args.attempts,
        deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1e3,
        watchdog_s=args.watchdog,
    )
    return 0 if payload["resolved"] == payload["requests"] else 1
