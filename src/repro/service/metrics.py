"""Live decode-service metrics: queue depth, batch sizes, latency, throughput,
and the resilience layer's retry/breaker/deadline/degraded counters.

The service updates one :class:`ServiceMetrics` instance from the event-loop
thread only (decode executors report back through loop callbacks), so the
counters need no locks.  :meth:`ServiceMetrics.snapshot` freezes the current
state into an immutable :class:`MetricsSnapshot` — the service's public
observability surface, safe to hand across threads and trivially
JSON-serialisable via :meth:`MetricsSnapshot.as_dict`.
:meth:`ServiceMetrics.health` distils the resilience-relevant subset into a
:class:`HealthSnapshot` — what a load balancer's health check would read.

Latency percentiles come from bounded reservoirs of the most recent
completions (default 4096), so a long-lived service reports *current*
latency behaviour instead of an all-time average diluted by history.

Request accounting is conservation-shaped: every admitted request ends in
exactly one of ``completed``, ``failed``, ``deadline_exceeded`` or
``cancelled``, and ``in_flight`` returns to zero when the service drains —
the chaos suite asserts this invariant under every fault plan it draws.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "HealthSnapshot",
    "LatencyReservoir",
    "MetricsSnapshot",
    "ServiceMetrics",
]


class LatencyReservoir:
    """Sliding window over the most recent latency observations (seconds)."""

    #: Observations kept in the window.
    WINDOW = 4096

    def __init__(self) -> None:
        self._values: deque[float] = deque(maxlen=self.WINDOW)

    def record(self, seconds: float) -> None:
        """Add one observation."""
        self._values.append(float(seconds))

    def __len__(self) -> int:
        return len(self._values)

    def percentiles(self) -> tuple[float, float]:
        """Window p50 and p99 (NaN-free: zeros when no observations yet)."""
        if not self._values:
            return 0.0, 0.0
        arr = np.fromiter(self._values, dtype=np.float64)
        p50, p99 = np.percentile(arr, (50.0, 99.0))
        return float(p50), float(p99)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable view of the service's counters at one instant.

    Latency fields are in seconds over the recent-completions window;
    ``throughput_fps`` is completed frames per second of service uptime.
    The resilience block (``retries`` .. ``breaker_state``) is zero /
    ``"disabled"`` on a service that never saw a fault.
    """

    submitted: int
    completed: int
    rejected: int
    validation_failures: int
    in_flight: int
    queue_depths: dict[str, int]
    batch_count: int
    batch_size_histogram: dict[int, int]
    mean_batch_size: float
    queue_p50_s: float
    queue_p99_s: float
    total_p50_s: float
    total_p99_s: float
    throughput_fps: float
    uptime_s: float
    # Resilience layer
    failed: int
    cancelled: int
    deadline_exceeded: int
    retries: int
    pool_rebuilds: int
    watchdog_timeouts: int
    breaker_opens: int
    degraded_batches: int
    degraded_s: float
    faults_injected: int
    breaker_state: str

    def as_dict(self) -> dict:
        """JSON-friendly dict (histogram keys become sorted strings)."""
        data = asdict(self)
        data["batch_size_histogram"] = {
            str(k): v for k, v in sorted(self.batch_size_histogram.items())
        }
        return data

    def __str__(self) -> str:
        text = (
            f"{self.completed}/{self.submitted} frames decoded "
            f"({self.rejected} rejected), {self.batch_count} batches "
            f"(mean size {self.mean_batch_size:.1f}), "
            f"latency p50/p99 {1e3 * self.total_p50_s:.2f}/"
            f"{1e3 * self.total_p99_s:.2f} ms "
            f"(queued {1e3 * self.queue_p50_s:.2f}/"
            f"{1e3 * self.queue_p99_s:.2f} ms), "
            f"{self.throughput_fps:.0f} frames/s over {self.uptime_s:.2f} s"
        )
        incidents = (
            self.failed
            + self.deadline_exceeded
            + self.cancelled
            + self.retries
            + self.pool_rebuilds
        )
        if incidents or self.faults_injected:
            text += (
                f"; resilience: {self.retries} retries, "
                f"{self.pool_rebuilds} rebuilds, "
                f"{self.watchdog_timeouts} watchdog timeouts, "
                f"{self.deadline_exceeded} deadline-expired, "
                f"{self.failed} failed, {self.cancelled} cancelled, "
                f"breaker {self.breaker_state} "
                f"({self.breaker_opens} opens, {self.degraded_batches} degraded "
                f"batches), {self.faults_injected} faults injected"
            )
        return text


@dataclass(frozen=True)
class HealthSnapshot:
    """The resilience-relevant health surface — a load balancer's view.

    ``healthy`` means the service is running with its breaker not open
    (half-open counts as healthy: probes are in flight).  ``decode_path``
    is where the *next* batch would run (e.g. ``"process"`` or
    ``"degraded:thread"``).
    """

    healthy: bool
    running: bool
    breaker_state: str
    decode_path: str
    consecutive_failures: int
    in_flight: int
    retries: int
    pool_rebuilds: int
    watchdog_timeouts: int
    deadline_exceeded: int
    degraded_batches: int
    degraded_s: float
    faults_injected: int
    uptime_s: float

    def as_dict(self) -> dict:
        """JSON-friendly dict."""
        return asdict(self)


@dataclass
class ServiceMetrics:
    """Mutable counters behind the service; mutate from the loop thread only.

    Every request counted in ``submitted`` ends in exactly one of
    ``completed``, ``failed``, ``deadline_exceeded`` or ``cancelled``.  A
    wait-mode request whose deadline expires before it gets a queue slot
    counts in ``submitted`` and ends in ``deadline_exceeded``; ``rejected``
    (reject mode, queue full) and ``validation_failures`` are never
    submitted.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    validation_failures: int = 0
    in_flight: int = 0
    batch_count: int = 0
    batched_frames: int = 0
    batch_sizes: Counter = field(default_factory=Counter)
    queue_latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    total_latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    started_at: float = field(default_factory=time.perf_counter)
    # Resilience layer
    failed: int = 0
    cancelled: int = 0
    deadline_exceeded: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    watchdog_timeouts: int = 0
    breaker_opens: int = 0
    degraded_batches: int = 0
    degraded_s: float = 0.0
    faults_injected: int = 0

    def record_batch(self, size: int) -> None:
        """Account one dispatched batch of ``size`` frames."""
        self.batch_count += 1
        self.batched_frames += size
        self.batch_sizes[size] += 1

    def record_completion(self, queued_s: float, total_s: float) -> None:
        """Account one finished request with its latency breakdown."""
        self.completed += 1
        self.queue_latency.record(queued_s)
        self.total_latency.record(total_s)

    def snapshot(
        self, queue_depths: dict[str, int], breaker_state: str = "disabled"
    ) -> MetricsSnapshot:
        """Freeze the counters (plus the caller-supplied live queue depths)."""
        uptime = max(time.perf_counter() - self.started_at, 1e-9)
        q50, q99 = self.queue_latency.percentiles()
        t50, t99 = self.total_latency.percentiles()
        return MetricsSnapshot(
            submitted=self.submitted,
            completed=self.completed,
            rejected=self.rejected,
            validation_failures=self.validation_failures,
            in_flight=self.in_flight,
            queue_depths=dict(queue_depths),
            batch_count=self.batch_count,
            batch_size_histogram=dict(self.batch_sizes),
            mean_batch_size=(
                self.batched_frames / self.batch_count if self.batch_count else 0.0
            ),
            queue_p50_s=q50,
            queue_p99_s=q99,
            total_p50_s=t50,
            total_p99_s=t99,
            throughput_fps=self.completed / uptime,
            uptime_s=uptime,
            failed=self.failed,
            cancelled=self.cancelled,
            deadline_exceeded=self.deadline_exceeded,
            retries=self.retries,
            pool_rebuilds=self.pool_rebuilds,
            watchdog_timeouts=self.watchdog_timeouts,
            breaker_opens=self.breaker_opens,
            degraded_batches=self.degraded_batches,
            degraded_s=self.degraded_s,
            faults_injected=self.faults_injected,
            breaker_state=breaker_state,
        )

    def health(
        self,
        running: bool,
        breaker_state: str,
        decode_path: str,
        consecutive_failures: int,
    ) -> HealthSnapshot:
        """Freeze the resilience-relevant subset into a :class:`HealthSnapshot`."""
        return HealthSnapshot(
            healthy=running and breaker_state != "open",
            running=running,
            breaker_state=breaker_state,
            decode_path=decode_path,
            consecutive_failures=consecutive_failures,
            in_flight=self.in_flight,
            retries=self.retries,
            pool_rebuilds=self.pool_rebuilds,
            watchdog_timeouts=self.watchdog_timeouts,
            deadline_exceeded=self.deadline_exceeded,
            degraded_batches=self.degraded_batches,
            degraded_s=self.degraded_s,
            faults_injected=self.faults_injected,
            uptime_s=max(time.perf_counter() - self.started_at, 1e-9),
        )
