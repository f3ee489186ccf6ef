"""Chaos and resilience tests for the decode service.

The load-bearing claims:

* the circuit breaker never takes an illegal state transition, under any
  sequence of successes/failures/clock advances (property-tested);
* rebuild backoff is deterministic for a seed and capped;
* fault plans are deterministic values: parse/describe round-trip, seeded
  random plans replay identically;
* injected faults — crash, hang, error, delay — are survived *transparently*:
  callers still get bits bit-identical to a direct batch=1 decode;
* a real process-pool worker death (``os._exit`` in the worker) is detected
  and the pool rebuilt;
* repeated primary failures open the breaker, the service degrades to a
  bit-correct fallback, and half-open probes restore the primary;
* deadlines resolve requests with a typed error wherever they are — queued
  behind a busy worker and a long flush budget, or stuck in a wedged
  executor;
* bounded drain (``drain_timeout_s``) never blocks shutdown on a hung batch;
* conservation under arbitrary seeded chaos: every submitted request ends
  in exactly one of completed/failed/deadline_exceeded/cancelled, and
  ``in_flight`` returns to zero (property-tested over random fault plans).
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
)
from repro.faults import FaultAction, FaultInjector, FaultPlan
from repro.service import (
    CircuitBreaker,
    DecodeResponse,
    DecodeService,
    ExponentialBackoff,
    ResilienceConfig,
    default_registry,
)
from repro.service.demo import generate_llr_frames

LDPC = ("ldpc", 576, "1/2")
TURBO = ("turbo", 24, "1/2")

#: Fast rebuilds for tests: near-zero backoff, tiny breaker dwell.
FAST = dict(backoff_base_s=1e-4, backoff_cap_s=1e-3)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def ldpc_entry(registry):
    return registry.resolve(*LDPC)


@pytest.fixture(scope="module")
def turbo_entry(registry):
    return registry.resolve(*TURBO)


def _direct_bits(entry, llrs: np.ndarray) -> np.ndarray:
    """Reference decode of one frame: direct batch=1 engine call."""
    bits, _, _ = entry.decoder.decode_batch(llrs[None]).frame(0)
    return bits


async def _occupy_worker(service: DecodeService, llrs: np.ndarray, codec) -> asyncio.Task:
    """Submit one frame and yield until its batch holds the service's worker.

    The service's fault plan stalls that first dispatch (``hang@1`` or
    ``delay@1``), so every later request queues behind a busy worker.
    """
    task = asyncio.create_task(service.submit(llrs, *codec))
    for _ in range(100):  # submit, then the pump: two loop turns
        if service.metrics_snapshot().batch_count:
            return task
        await asyncio.sleep(0)
    raise AssertionError("the first request was never dispatched")


def _assert_conserved(snapshot):
    """Every admitted request ended in exactly one terminal counter."""
    assert snapshot.in_flight == 0
    assert snapshot.submitted == (
        snapshot.completed
        + snapshot.failed
        + snapshot.deadline_exceeded
        + snapshot.cancelled
    )


# ---------------------------------------------------------------------- #
# Circuit breaker
# ---------------------------------------------------------------------- #
def test_breaker_opens_half_opens_and_closes():
    breaker = CircuitBreaker(
        ResilienceConfig(breaker_failures=2, breaker_reset_s=1.0)
    )
    assert breaker.state(0.0) == "closed"
    breaker.record_failure(0.1)
    assert breaker.state(0.2) == "closed"  # one failure is not a streak
    breaker.record_failure(0.3)
    assert breaker.state(0.4) == "open"
    assert not breaker.allow(0.5)  # open: primary path refused
    assert breaker.allow(1.4)  # dwell elapsed: half-open probe allowed
    assert breaker.state(1.4) == "half_open"
    assert not breaker.allow(1.5)  # probe budget (1) already out
    breaker.record_success(1.6)
    assert breaker.state(1.7) == "closed"
    assert breaker.transitions == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_breaker_failed_probe_reopens():
    breaker = CircuitBreaker(
        ResilienceConfig(breaker_failures=1, breaker_reset_s=0.5)
    )
    breaker.record_failure(0.0)
    assert breaker.allow(0.6)  # half-open probe
    breaker.record_failure(0.7)  # probe failed
    assert breaker.state(0.8) == "open"
    assert breaker.opens == 2
    assert set(breaker.transitions) <= CircuitBreaker.LEGAL_TRANSITIONS


@given(
    events=st.lists(
        st.tuples(st.sampled_from(["ok", "fail", "allow"]), st.floats(0.0, 2.0)),
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_breaker_transitions_always_legal(events):
    """Any event sequence: only legal edges, state always resolvable."""
    breaker = CircuitBreaker(
        ResilienceConfig(breaker_failures=2, breaker_reset_s=0.4)
    )
    now = 0.0
    for kind, advance in events:
        now += advance
        if kind == "ok":
            breaker.record_success(now)
        elif kind == "fail":
            breaker.record_failure(now)
        else:
            breaker.allow(now)
        assert breaker.state(now) in ("closed", "open", "half_open")
    assert set(breaker.transitions) <= CircuitBreaker.LEGAL_TRANSITIONS


# ---------------------------------------------------------------------- #
# Backoff
# ---------------------------------------------------------------------- #
def test_backoff_deterministic_capped_and_resettable():
    config = ResilienceConfig(backoff_base_s=0.05, backoff_cap_s=0.4, backoff_seed=7)
    a = ExponentialBackoff(config)
    b = ExponentialBackoff(config)
    delays = [a.next_delay() for _ in range(8)]
    assert delays == [b.next_delay() for _ in range(8)]  # seeded: replayable
    assert all(d <= 0.4 for d in delays)  # cap holds through the jitter
    assert all(d >= 0.025 for d in delays)  # jitter floor is half the base
    # Envelope doubles until the cap: delay k is at most cap, at least
    # half of min(cap, base * 2**k).
    for k, d in enumerate(delays):
        assert d >= 0.5 * min(0.4, 0.05 * 2**k) - 1e-12
    a.reset()
    assert a.next_delay() <= 0.05  # exponent rewound to the base envelope


# ---------------------------------------------------------------------- #
# Configuration
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 2.5},
        {"max_attempts": True},
        {"backoff_base_s": True},
        {"backoff_cap_s": float("inf")},
        {"backoff_seed": 1.5},
        {"backoff_seed": "7"},
        {"breaker_failures": 1.5},
        {"breaker_failures": True},
        {"breaker_reset_s": "1"},
    ],
    ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
)
def test_resilience_config_rejects_bad_knobs(kwargs):
    """Counts are ints (never bools or fractions), durations finite reals."""
    with pytest.raises(ConfigurationError):
        ResilienceConfig(**kwargs)


# ---------------------------------------------------------------------- #
# Fault plans
# ---------------------------------------------------------------------- #
def test_fault_plan_parse_and_describe_round_trip():
    spec = "crash@3,hang@5:0.2,error@7,delay@9:0.01"
    plan = FaultPlan.from_string(spec)
    assert len(plan) == 4
    assert plan.action_for(3) == FaultAction("crash")
    assert plan.action_for(5) == FaultAction("hang", 0.2)
    assert plan.action_for(4) is None
    assert plan.describe() == spec
    assert FaultPlan.from_string(plan.describe()).describe() == spec
    assert not FaultPlan.from_string("")


def test_fault_plan_validation():
    with pytest.raises(ConfigurationError):
        FaultPlan.from_string("meteor@3")
    with pytest.raises(ConfigurationError):
        FaultPlan.from_string("crash@3,crash@3")
    with pytest.raises(ConfigurationError):
        FaultPlan({0: FaultAction("crash")})
    with pytest.raises(ConfigurationError):
        FaultPlan.random(seed=1, horizon=10, crash=0.8, error=0.5)


def test_fault_plan_every_and_random_deterministic():
    plan = FaultPlan.every(3, kind="error", horizon=10)
    assert sorted(
        seq for seq in range(1, 11) if plan.action_for(seq)
    ) == [3, 6, 9]
    r1 = FaultPlan.random(seed=11, horizon=200, crash=0.1, hang=0.05, hang_s=0.02)
    r2 = FaultPlan.random(seed=11, horizon=200, crash=0.1, hang=0.05, hang_s=0.02)
    assert r1.describe() == r2.describe()
    assert r1.describe() != FaultPlan.random(
        seed=12, horizon=200, crash=0.1, hang=0.05, hang_s=0.02
    ).describe()


def test_fault_injector_counts_dispatches_and_injections():
    injector = FaultInjector(FaultPlan.from_string("error@2"))
    assert injector.next_action() is None
    assert injector.next_action() == FaultAction("error")
    assert injector.next_action() is None
    assert injector.dispatches == 3
    assert injector.injected == 1


# ---------------------------------------------------------------------- #
# Transparent retries
# ---------------------------------------------------------------------- #
@pytest.mark.asyncio
async def test_injected_crash_is_retried_transparently(registry, turbo_entry):
    """A crashed first dispatch is invisible: same bits, attempts counted."""
    rng = np.random.default_rng(3)
    llrs, _ = generate_llr_frames(turbo_entry, 3, 1.5, rng)
    async with DecodeService(
        registry=registry,
        max_batch=4,
        max_delay_s=0.001,
        executor="inline",
        fault_plan=FaultPlan.from_string("crash@1"),
        resilience=ResilienceConfig(max_attempts=3, **FAST),
    ) as service:
        responses = await asyncio.gather(
            *(service.submit(row, *TURBO) for row in llrs)
        )
        snapshot = service.metrics_snapshot()
    for row, response in zip(llrs, responses):
        np.testing.assert_array_equal(response.bits, _direct_bits(turbo_entry, row))
        assert response.attempts == 2
        assert response.decode_path == "inline"
    assert snapshot.retries == 1
    assert snapshot.faults_injected == 1
    _assert_conserved(snapshot)


@pytest.mark.asyncio
@pytest.mark.parametrize("executor", ["inline", "thread", "process"])
async def test_injected_error_and_delay_survived_on_every_path(
    registry, turbo_entry, executor
):
    """One fault rule on every path: the error costs a retry, the delay
    only latency, and the bits stay exact."""
    rng = np.random.default_rng(4)
    llrs, _ = generate_llr_frames(turbo_entry, 2, 1.5, rng)
    async with DecodeService(
        registry=registry,
        max_batch=1,  # one frame per batch: two dispatches, two plan slots
        max_delay_s=0.001,
        executor=executor,
        shards=1,
        fault_plan=FaultPlan.from_string("error@1,delay@2:0.01"),
        resilience=ResilienceConfig(max_attempts=3, **FAST),
    ) as service:
        responses = await asyncio.gather(
            *(service.submit(row, *TURBO) for row in llrs)
        )
        snapshot = service.metrics_snapshot()
    for row, response in zip(llrs, responses):
        np.testing.assert_array_equal(response.bits, _direct_bits(turbo_entry, row))
    assert snapshot.faults_injected == 2
    assert snapshot.retries == 1  # the error cost one retry; the delay none
    _assert_conserved(snapshot)


#: Key order of ``MetricsSnapshot.as_dict`` / ``HealthSnapshot.as_dict`` as
#: the hand-written exporters emitted them; JSON consumers may rely on it.
METRICS_KEYS = [
    "submitted", "completed", "rejected", "validation_failures", "in_flight",
    "queue_depths", "batch_count", "batch_size_histogram", "mean_batch_size",
    "queue_p50_s", "queue_p99_s", "total_p50_s", "total_p99_s",
    "throughput_fps", "uptime_s", "failed", "cancelled", "deadline_exceeded",
    "retries", "pool_rebuilds", "watchdog_timeouts", "breaker_opens",
    "degraded_batches", "degraded_s", "faults_injected", "breaker_state",
]
HEALTH_KEYS = [
    "healthy", "running", "breaker_state", "decode_path",
    "consecutive_failures", "in_flight", "retries", "pool_rebuilds",
    "watchdog_timeouts", "deadline_exceeded", "degraded_batches",
    "degraded_s", "faults_injected", "uptime_s",
]


@pytest.mark.asyncio
async def test_snapshot_export_after_faulted_run(registry, turbo_entry):
    """``as_dict`` keeps its exact shape: key order, sorted string histogram
    keys, plain-dict queue depths and every value unchanged."""
    rng = np.random.default_rng(14)
    llrs, _ = generate_llr_frames(turbo_entry, 3, 1.5, rng)
    async with DecodeService(
        registry=registry,
        max_batch=2,
        max_delay_s=0.001,
        executor="inline",
        fault_plan=FaultPlan.from_string("error@1"),
        resilience=ResilienceConfig(max_attempts=3, **FAST),
    ) as service:
        await asyncio.gather(*(service.submit(row, *TURBO) for row in llrs))
        snapshot = service.metrics_snapshot()
        health = service.health_snapshot()
    exported = snapshot.as_dict()
    assert list(exported) == METRICS_KEYS
    expected = {key: getattr(snapshot, key) for key in METRICS_KEYS}
    expected["batch_size_histogram"] = {"1": 1, "2": 1}
    assert exported == expected
    assert list(exported["batch_size_histogram"]) == ["1", "2"]
    assert exported["queue_depths"] == {"turbo:24:1/2": 0}
    assert exported["queue_depths"] is not snapshot.queue_depths
    assert exported["retries"] == 1 and exported["faults_injected"] == 1
    health_exported = health.as_dict()
    assert list(health_exported) == HEALTH_KEYS
    assert health_exported == {key: getattr(health, key) for key in HEALTH_KEYS}
    json.dumps(exported)
    json.dumps(health_exported)


@pytest.mark.asyncio
async def test_retry_budget_exhaustion_surfaces_typed_error(registry, turbo_entry):
    rng = np.random.default_rng(5)
    llrs, _ = generate_llr_frames(turbo_entry, 1, 1.5, rng)
    async with DecodeService(
        registry=registry,
        max_batch=1,
        max_delay_s=0.001,
        executor="inline",
        fault_plan=FaultPlan.every(1, kind="error"),  # every dispatch raises
        resilience=ResilienceConfig(max_attempts=2, **FAST),
    ) as service:
        with pytest.raises(ReproError) as excinfo:
            await service.submit(llrs[0], *TURBO)
        snapshot = service.metrics_snapshot()
    assert excinfo.value.attempts == 2
    assert snapshot.failed == 1
    _assert_conserved(snapshot)


@pytest.mark.asyncio
async def test_real_process_crash_rebuilds_pool(registry, ldpc_entry):
    """An os._exit in a pool worker breaks the pool; the service rebuilds it."""
    rng = np.random.default_rng(6)
    llrs, _ = generate_llr_frames(ldpc_entry, 4, 2.0, rng)
    async with DecodeService(
        registry=registry,
        max_batch=4,
        max_delay_s=0.001,
        executor="process",
        shards=1,
        fault_plan=FaultPlan.from_string("crash@1"),
        resilience=ResilienceConfig(max_attempts=3, **FAST),
    ) as service:
        responses = await asyncio.gather(
            *(service.submit(row, *LDPC) for row in llrs)
        )
        snapshot = service.metrics_snapshot()
        health = service.health_snapshot()
    for row, response in zip(llrs, responses):
        np.testing.assert_array_equal(response.bits, _direct_bits(ldpc_entry, row))
        assert response.decode_path == "process"
    assert snapshot.pool_rebuilds >= 1
    assert health.decode_path == "process"  # recovered, not degraded
    _assert_conserved(snapshot)


# ---------------------------------------------------------------------- #
# Breaker-driven degradation and recovery
# ---------------------------------------------------------------------- #
@pytest.mark.asyncio
async def test_breaker_degrades_then_half_open_probe_restores(
    registry, turbo_entry
):
    """Three primary crashes open the breaker; the batch completes degraded
    (bit-correct); after the dwell a clean probe closes the breaker."""
    rng = np.random.default_rng(8)
    llrs, _ = generate_llr_frames(turbo_entry, 2, 1.5, rng)
    async with DecodeService(
        registry=registry,
        max_batch=1,
        max_delay_s=0.001,
        executor="thread",
        fault_plan=FaultPlan.from_string("crash@1,crash@2,crash@3"),
        resilience=ResilienceConfig(
            max_attempts=6,
            breaker_failures=3,
            breaker_reset_s=0.05,
            **FAST,
        ),
    ) as service:
        first = await service.submit(llrs[0], *TURBO)
        # Attempts 1-3 crashed on the thread primary and opened the breaker;
        # attempt 4 ran degraded inline and must still be bit-exact.
        np.testing.assert_array_equal(
            first.bits, _direct_bits(turbo_entry, llrs[0])
        )
        assert first.decode_path == "degraded:inline"
        assert first.attempts == 4
        breaker = service._dispatcher.breaker
        assert service.metrics.breaker_opens == 1
        assert service.metrics.degraded_batches == 1

        await asyncio.sleep(0.08)  # past the open dwell: half-open next
        assert service.health_snapshot().breaker_state == "half_open"
        second = await service.submit(llrs[1], *TURBO)  # the clean probe
        np.testing.assert_array_equal(
            second.bits, _direct_bits(turbo_entry, llrs[1])
        )
        assert second.decode_path == "thread"
        health = service.health_snapshot()
        assert health.breaker_state == "closed"
        assert health.healthy
        assert breaker.transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        snapshot = service.metrics_snapshot()
    _assert_conserved(snapshot)


# ---------------------------------------------------------------------- #
# Deadlines and watchdog
# ---------------------------------------------------------------------- #
@pytest.mark.asyncio
async def test_deadline_fires_while_queued(registry, turbo_entry):
    """A huge flush budget behind a busy worker cannot strand a deadlined
    request."""
    rng = np.random.default_rng(9)
    llrs, _ = generate_llr_frames(turbo_entry, 2, 1.5, rng)
    service = DecodeService(
        registry=registry,
        max_batch=64,
        max_delay_s=30.0,  # would queue for 30 s without the deadline
        executor="inline",
        fault_plan=FaultPlan.from_string("hang@1:30"),
    )
    await service.start()
    occupier = await _occupy_worker(service, llrs[0], TURBO)
    started = time.perf_counter()
    with pytest.raises(DeadlineExceededError) as excinfo:
        await service.submit(llrs[1], *TURBO, deadline_s=0.05)
    elapsed = time.perf_counter() - started
    # It expired still queued: the worker never came free to take it.
    assert service.metrics_snapshot().queue_depths == {"turbo:24:1/2": 1}
    await service.stop(drain=False)
    with pytest.raises(ServiceClosedError):
        await occupier
    snapshot = service.metrics.snapshot({})
    assert elapsed < 5.0  # resolved by the timer, not the flush budget
    assert excinfo.value.deadline_s == 0.05
    assert snapshot.deadline_exceeded == 1
    assert snapshot.completed == 0
    assert snapshot.failed == 1  # the occupier, cut off by stop()
    _assert_conserved(snapshot)


@pytest.mark.asyncio
async def test_deadline_fires_while_waiting_for_a_queue_slot(registry, turbo_entry):
    """In wait mode a full queue holds the caller before it is queued; the
    deadline bounds that wait too, and the caller never takes a slot."""
    rng = np.random.default_rng(10)
    llrs, _ = generate_llr_frames(turbo_entry, 3, 1.5, rng)
    service = DecodeService(
        registry=registry,
        max_batch=64,
        max_delay_s=30.0,
        queue_capacity=1,
        executor="inline",
        fault_plan=FaultPlan.from_string("hang@1:30"),
    )
    await service.start()
    occupier = await _occupy_worker(service, llrs[0], TURBO)
    queued = asyncio.create_task(service.submit(llrs[1], *TURBO))
    await asyncio.sleep(0)  # takes the lane's one slot behind the busy worker
    with pytest.raises(DeadlineExceededError, match="queue slot") as excinfo:
        await service.submit(llrs[2], *TURBO, deadline_s=0.05)
    assert excinfo.value.deadline_s == 0.05
    # The waiter never took a slot: only the request ahead of it is queued.
    assert service.metrics_snapshot().queue_depths == {"turbo:24:1/2": 1}
    await service.stop(drain=False)
    for task in (occupier, queued):
        with pytest.raises(ServiceClosedError):
            await task
    _assert_conserved(service.metrics_snapshot())


@pytest.mark.asyncio
async def test_deadline_fires_during_hang_and_watchdog_recovers(
    registry, turbo_entry
):
    """One deadlined caller bails out of a wedged batch; the watchdog then
    times the hang out and the remaining caller still gets bits.

    A slow first batch holds the worker while both callers queue, so they
    leave together as one full batch — the one that wedges."""
    rng = np.random.default_rng(10)
    llrs, _ = generate_llr_frames(turbo_entry, 3, 1.5, rng)
    async with DecodeService(
        registry=registry,
        max_batch=2,
        max_delay_s=30.0,  # while the worker is busy only a full batch leaves
        executor="inline",
        watchdog_s=0.2,
        fault_plan=FaultPlan.from_string("delay@1:0.15,hang@2:30"),
        resilience=ResilienceConfig(max_attempts=3, **FAST),
    ) as service:
        occupier = await _occupy_worker(service, llrs[2], TURBO)
        impatient = asyncio.create_task(
            service.submit(llrs[0], *TURBO, deadline_s=0.05)
        )
        patient = asyncio.create_task(service.submit(llrs[1], *TURBO))
        with pytest.raises(DeadlineExceededError):
            await impatient
        response = await patient
        await occupier
        snapshot = service.metrics_snapshot()
    np.testing.assert_array_equal(
        response.bits, _direct_bits(turbo_entry, llrs[1])
    )
    assert response.batch_size == 2
    assert snapshot.watchdog_timeouts == 1
    assert snapshot.deadline_exceeded == 1
    _assert_conserved(snapshot)


@pytest.mark.asyncio
async def test_cancelled_caller_is_counted_not_completed(registry, turbo_entry):
    rng = np.random.default_rng(12)
    llrs, _ = generate_llr_frames(turbo_entry, 1, 1.5, rng)
    async with DecodeService(
        registry=registry, max_batch=64, max_delay_s=0.05, executor="inline"
    ) as service:
        task = asyncio.create_task(service.submit(llrs[0], *TURBO))
        await asyncio.sleep(0)  # let it enqueue
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        await asyncio.sleep(0.1)  # flush passes over the cancelled item
        snapshot = service.metrics_snapshot()
    assert snapshot.cancelled == 1
    assert snapshot.completed == 0
    _assert_conserved(snapshot)


# ---------------------------------------------------------------------- #
# Shutdown robustness
# ---------------------------------------------------------------------- #
@pytest.mark.asyncio
async def test_bounded_drain_never_blocks_on_a_hung_batch(registry, turbo_entry):
    rng = np.random.default_rng(13)
    llrs, _ = generate_llr_frames(turbo_entry, 1, 1.5, rng)
    service = DecodeService(
        registry=registry,
        max_batch=1,
        max_delay_s=0.001,
        executor="thread",
        fault_plan=FaultPlan.from_string("hang@1:2.5"),  # no watchdog: wedged
        resilience=ResilienceConfig(max_attempts=1, **FAST),
    )
    await service.start()
    task = asyncio.create_task(service.submit(llrs[0], *TURBO))
    await asyncio.sleep(0.1)  # batch dispatched into the hang
    started = time.perf_counter()
    await service.stop(drain=True, drain_timeout_s=0.2)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0  # did not wait out the 2.5 s hang
    with pytest.raises(ServiceClosedError):
        await task
    snapshot = service.metrics.snapshot({})
    assert snapshot.failed == 1
    _assert_conserved(snapshot)


# ---------------------------------------------------------------------- #
# Chaos demo CLI
# ---------------------------------------------------------------------- #
def test_demo_cli_chaos_smoke_resolves_everything(capsys):
    """``python -m repro.service --inject-faults ...`` exits 0 only when
    every request resolved despite the injected faults."""
    from repro.service.demo import main

    rc = main(
        [
            "--requests", "16",
            "--max-batch", "4",
            "--delay-ms", "1",
            "--ldpc-only",
            "--seed", "11",
            "--inject-faults", "crash@2,error@3,delay@4:0.005",
            "--attempts", "4",
            "--watchdog", "5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault plan: crash@2,error@3,delay@4:0.005" in out
    assert "16/16 frames decoded" in out
    assert "faults injected" in out


def test_demo_reports_unresolved_failures(registry):
    """With retries disabled, an always-crashing plan must be reported —
    typed errors in errors_by_type, nonzero-exit contract."""
    from repro.service.demo import run_demo

    payload = run_demo(
        requests=4,
        codecs=(TURBO,),
        max_batch=2,
        max_delay_s=0.001,
        executor="inline",
        registry=registry,
        quiet=True,
        fault_plan="crash@1,crash@2",
        attempts=1,
    )
    assert payload["resolved"] < payload["requests"]
    assert payload["unresolved"] == 0  # failed fast, not hung
    assert payload["errors_by_type"].get("RetryExhaustedError", 0) >= 1


# ---------------------------------------------------------------------- #
# Seeded chaos property test
# ---------------------------------------------------------------------- #
@given(
    seed=st.integers(0, 2**16),
    crash=st.floats(0.0, 0.2),
    hang=st.floats(0.0, 0.15),
    error=st.floats(0.0, 0.2),
    executor=st.sampled_from(["inline", "thread"]),
    frames=st.integers(6, 14),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chaos_every_request_resolves_and_conserves(
    registry, turbo_entry, seed, crash, hang, error, executor, frames
):
    """Random seeded fault plans over concurrent arrivals: every future
    resolves (bits identical to direct decode, or a typed error), the
    conservation invariant holds, and breaker transitions stay legal."""
    plan = FaultPlan.random(
        seed=seed,
        horizon=frames * 6,
        crash=crash,
        hang=hang,
        error=error,
        delay=0.05,
        hang_s=0.02,
        delay_s=0.002,
    )
    rng = np.random.default_rng(seed)
    llrs, _ = generate_llr_frames(turbo_entry, frames, 1.5, rng)

    async def scenario():
        async with DecodeService(
            registry=registry,
            max_batch=3,
            max_delay_s=0.001,
            executor=executor,
            watchdog_s=0.5,
            fault_plan=plan,
            resilience=ResilienceConfig(
                max_attempts=5,
                breaker_failures=2,
                breaker_reset_s=0.02,
                **FAST,
            ),
        ) as service:
            outcomes = await asyncio.gather(
                *(service.submit(row, *TURBO) for row in llrs),
                return_exceptions=True,
            )
            snapshot = service.metrics_snapshot()
            breaker = service._dispatcher.breaker
            transitions = list(breaker.transitions) if breaker else []
        return outcomes, snapshot, transitions

    outcomes, snapshot, transitions = asyncio.run(scenario())
    assert len(outcomes) == frames
    for row, outcome in zip(llrs, outcomes):
        if isinstance(outcome, DecodeResponse):
            np.testing.assert_array_equal(
                outcome.bits, _direct_bits(turbo_entry, row)
            )
        else:  # resolution with a *typed* error is the only other legal end
            assert isinstance(outcome, ReproError), outcome
    assert snapshot.submitted == frames
    _assert_conserved(snapshot)
    assert set(transitions) <= CircuitBreaker.LEGAL_TRANSITIONS
