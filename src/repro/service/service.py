"""Decode-as-a-service: an asyncio dynamic-batching front-end over the batch engines.

:class:`DecodeService` accepts per-frame decode requests — a code family,
block size, rate and one channel-LLR array — from many concurrent clients
and turns them into the large batches the engines in :mod:`repro.sim` were
built for:

* requests are validated at the boundary (shape, dtype, finiteness, known
  codec) and rejected with typed :mod:`repro.errors` exceptions instead of
  surfacing as NumPy broadcast errors deep inside a kernel;
* compatible requests (same ``(family, block, rate)``) aggregate in a
  per-codec :class:`~repro.service.batcher.DynamicBatcher`; dispatch is
  *work-conserving*: whenever a decode worker is free, the lane whose head
  is oldest sends one batch at the next loop turn, and only while every
  worker is busy do lanes accumulate up to *batch-full or deadline,
  whichever first* — the deadline is the service's configurable latency
  budget;
* each flushed batch is stacked into one ``(B, n)`` array and dispatched
  through the :class:`~repro.service.resilience.ResilientDispatcher`, which
  owns the executors (an in-process worker thread by default, a pool of
  ``shards`` worker processes with ``executor="process"``) and survives
  their failures: dead pools are rebuilt with capped backoff and the batch
  re-dispatched (decode is pure, so retry is idempotent), wedged batches
  are timed out by the optional hang watchdog, and a circuit breaker
  degrades to a slower but bit-correct fallback path after repeated
  primary-path failures;
* every caller's future resolves with its own decoded bits, iteration
  count, convergence flag and a queue/decode latency breakdown — or a typed
  error: requests carry optional *deadlines*
  (``submit(..., deadline_s=...)``) enforced while waiting for a queue
  slot, while queued and while decoding, so no caller ever hangs on a
  wedged service.  Results are bit-identical to a direct ``decode_batch``
  call on the same LLRs because the engines are row-independent (pinned by
  the batch ≡ batch=1 property tests and again by ``tests/test_service.py``
  and the chaos suite in ``tests/test_service_resilience.py``).

Backpressure is explicit and configurable: ``backpressure="wait"`` makes
``submit`` await a queue slot; ``backpressure="reject"`` raises
:class:`~repro.errors.ServiceOverloadError` carrying a ``retry_after_s``
estimate, the krittika ``post -> tracking id -> deliver`` transaction shape
adapted to asyncio futures.

All service state is touched from the event-loop thread only; executors
hand results back through the loop, so no locks are needed anywhere.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RequestValidationError,
    ServiceClosedError,
    ServiceOverloadError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.service.batcher import DynamicBatcher, QueuedItem
from repro.service.metrics import HealthSnapshot, MetricsSnapshot, ServiceMetrics
from repro.service.registry import CodecEntry, CodecRegistry, default_registry
from repro.service.resilience import ResilienceConfig, ResilientDispatcher
from repro.utils.validation import require_int, require_real

__all__ = ["DecodeResponse", "DecodeService"]

_BACKPRESSURE_MODES = ("wait", "reject")
_EXECUTOR_MODES = ("thread", "process", "inline")


@dataclass(frozen=True)
class DecodeResponse:
    """What one client gets back for one decoded frame.

    ``bits`` are the decoder's hard decisions — whole codeword for LDPC,
    information bits for turbo (``decides_info_bits`` says which).  The
    latency breakdown separates time spent queued (waiting for a free
    worker, a full batch or the deadline) from time spent decoding.
    ``attempts`` and ``decode_path`` report how the resilience layer earned
    the result: ``attempts > 1`` means transparent retries happened, and a
    ``"degraded:*"`` path means the circuit breaker was open.
    """

    request_id: int
    codec: str
    bits: np.ndarray
    iterations: int
    converged: bool
    decides_info_bits: bool
    batch_size: int
    queued_s: float
    decode_s: float
    total_s: float
    attempts: int = 1
    decode_path: str = "thread"


@dataclass
class _PendingRequest:
    """One queued request: payload, the future its caller awaits, its deadline.

    ``finished`` guards the request's *single* accounting event — whichever
    of the deadline timer, the dispatch filter, the batch completion or the
    shutdown sweep gets there first wins, and everyone else no-ops.
    """

    request_id: int
    llrs: np.ndarray
    future: asyncio.Future
    deadline_s: float | None = None
    timer: asyncio.TimerHandle | None = None
    finished: bool = field(default=False)


@dataclass
class _CodecLane:
    """Per-codec aggregation state: the batcher and its backpressure gate."""

    entry: CodecEntry
    batcher: DynamicBatcher[_PendingRequest]
    slots: asyncio.Semaphore | None  # wait-mode queue bound (None in reject mode)


class DecodeService:
    """Asyncio decode service over the registry's batch engines.

    Parameters
    ----------
    registry:
        Codec registry; :func:`~repro.service.registry.default_registry`
        (the WiMAX code set) when omitted.
    max_batch:
        Largest batch dispatched to a decoder (the engines' amortization
        sweet spot; PR 1/2 benches use 64); at least 1.
    max_delay_s:
        Latency budget: a request waits at most this long in the queue
        before its batch flushes, full or not, even while every worker is
        busy (an idle worker takes it at the next loop turn).  Finite and
        >= 0.
    queue_capacity:
        Per-codec bound on queued requests — the backpressure threshold;
        at least 1.
    backpressure:
        ``"wait"`` (submit awaits a slot, default) or ``"reject"``
        (submit raises :class:`~repro.errors.ServiceOverloadError` with a
        ``retry_after_s`` estimate).
    executor:
        ``"thread"`` (default; one worker thread — NumPy releases the GIL
        in the hot kernels, so the loop stays responsive), ``"process"``
        (shard batches across ``shards`` worker processes) or ``"inline"``
        (decode on the loop; deterministic, for tests and tiny workloads).
    shards:
        Worker-process count; ``executor="process"`` needs at least 1, the
        other executors ignore it.
    resilience:
        :class:`~repro.service.resilience.ResilienceConfig` governing retry
        budget, rebuild backoff and the circuit breaker; defaults when
        omitted.
    watchdog_s:
        Hang-watchdog timeout per decode attempt in seconds (finite, > 0),
        or ``None`` (default) to disable the watchdog.  One timeout covers
        every codec lane, so it must exceed the slowest lane's decode of a
        full ``max_batch`` batch: a healthy batch that overruns it is killed
        and retried as if it had hung.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` injected into the
        dispatch path — the deterministic chaos hook used by the resilience
        tests and ``python -m repro.service --inject-faults``.
    """

    def __init__(
        self,
        registry: CodecRegistry | None = None,
        max_batch: int = 64,
        max_delay_s: float = 0.005,
        queue_capacity: int = 256,
        backpressure: str = "wait",
        executor: str = "thread",
        shards: int = 0,
        resilience: ResilienceConfig | None = None,
        watchdog_s: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if backpressure not in _BACKPRESSURE_MODES:
            raise ConfigurationError(
                f"backpressure must be one of {_BACKPRESSURE_MODES}, got {backpressure!r}"
            )
        if executor not in _EXECUTOR_MODES:
            raise ConfigurationError(
                f"executor must be one of {_EXECUTOR_MODES}, got {executor!r}"
            )
        require_int("shards", shards, minimum=0)
        if executor == "process" and shards < 1:
            raise ConfigurationError("executor='process' needs shards >= 1")
        require_int("max_batch", max_batch, minimum=1)
        require_real("max_delay_s", max_delay_s, allow_zero=True)
        require_int("queue_capacity", queue_capacity, minimum=1)
        if watchdog_s is not None:
            require_real("watchdog_s", watchdog_s, allow_zero=False)
        self.registry = registry if registry is not None else default_registry()
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.queue_capacity = int(queue_capacity)
        self.backpressure = backpressure
        self.executor_mode = executor
        self.shards = int(shards) if executor == "process" else 0
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.watchdog_s = None if watchdog_s is None else float(watchdog_s)
        self.fault_plan = fault_plan
        self.metrics = ServiceMetrics()
        self._lanes: dict[tuple[str, int, str], _CodecLane] = {}
        self._dispatcher: ResilientDispatcher | None = None
        #: Batches decoded at once: one worker thread (or the loop itself),
        #: or one per shard.
        self._workers = self.shards if executor == "process" else 1
        self._inflight: set[asyncio.Task] = set()
        self._pump_handle: asyncio.Handle | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._next_request_id = 0
        self._running = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Build the dispatcher and go live."""
        if self._running:
            return
        self.metrics = ServiceMetrics()
        self._dispatcher = ResilientDispatcher(
            mode=self.executor_mode,
            registry=self.registry,
            shards=self.shards,
            config=self.resilience,
            metrics=self.metrics,
            watchdog_s=self.watchdog_s,
            injector=(
                FaultInjector(self.fault_plan) if self.fault_plan is not None else None
            ),
        )
        self._running = True

    async def stop(self, drain: bool = True, drain_timeout_s: float | None = None) -> None:
        """Stop the service; by default drain queued and in-flight work first.

        ``drain_timeout_s`` bounds the drain: once it elapses, still-running
        batches are cancelled and their callers resolved with
        :class:`~repro.errors.ServiceClosedError` instead of blocking
        shutdown forever behind a wedged executor.
        """
        if not self._running:
            return
        self._running = False  # new submits now raise ServiceClosedError
        self._disarm()
        if drain:
            for lane in self._lanes.values():
                for batch in lane.batcher.flush_all():
                    self._dispatch(lane, batch)
        drained_clean = True
        if drain and self._inflight:
            waiter = asyncio.gather(*tuple(self._inflight), return_exceptions=True)
            if drain_timeout_s is None:
                await waiter
            else:
                try:
                    await asyncio.wait_for(waiter, drain_timeout_s)
                except asyncio.TimeoutError:  # noqa: UP041 — py3.10 spells it this way
                    # wait_for cancelled the gather, which cancelled the
                    # in-flight batch tasks; their cleanup resolves every
                    # caller with ServiceClosedError.
                    drained_clean = False
        # Anything still queued (drain=False) or still unresolved is failed
        # out now — no caller is ever left hanging across stop().
        for task in tuple(self._inflight):
            task.cancel()
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        for lane in self._lanes.values():
            for batch in lane.batcher.flush_all():
                for item in batch:
                    self._finish(
                        item.payload,
                        error=ServiceClosedError("service stopped before decoding"),
                    )
        if self._dispatcher is not None:
            self._dispatcher.shutdown(wait=drain and drained_clean)
            self._dispatcher = None

    async def __aenter__(self) -> "DecodeService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        llrs: np.ndarray,
        family: str = "ldpc",
        block: int = 576,
        rate: str = "1/2",
        deadline_s: float | None = None,
    ) -> DecodeResponse:
        """Decode one frame; resolves when its batch has been decoded.

        ``deadline_s`` bounds the caller's total wait (slot acquisition +
        queueing + decode): once it elapses the request resolves with
        :class:`~repro.errors.DeadlineExceededError` even if its batch is
        still wedged in an executor.

        Raises :class:`~repro.errors.UnknownCodecError`,
        :class:`~repro.errors.RequestValidationError`,
        :class:`~repro.errors.ServiceOverloadError` (reject mode),
        :class:`~repro.errors.DeadlineExceededError` or
        :class:`~repro.errors.ServiceClosedError`.
        """
        if not self._running:
            raise ServiceClosedError("decode service is not running; call start()")
        if deadline_s is not None:
            require_real(
                "deadline_s", deadline_s, allow_zero=False, error=RequestValidationError
            )
        entry = self.registry.resolve(family, block, rate)
        arr = self._validate_llrs(llrs, entry)
        lane = self._lane(entry)
        loop = asyncio.get_running_loop()
        deadline_at = None if deadline_s is None else loop.time() + deadline_s
        if lane.slots is not None:  # wait mode: block until a queue slot frees
            if deadline_at is None:
                await lane.slots.acquire()
            else:
                try:
                    await asyncio.wait_for(
                        lane.slots.acquire(), deadline_at - loop.time()
                    )
                except asyncio.TimeoutError:  # noqa: UP041 — py3.10 spells it this way
                    # Admitted but never queued: it counts as submitted and
                    # ends in deadline_exceeded, like any expired request.
                    self.metrics.submitted += 1
                    self.metrics.deadline_exceeded += 1
                    raise DeadlineExceededError(
                        f"deadline of {deadline_s:.4f} s expired while waiting "
                        f"for a {entry.spec.label} queue slot",
                        deadline_s=deadline_s,
                    ) from None
            if not self._running:
                lane.slots.release()
                raise ServiceClosedError("service stopped while awaiting a slot")
        request = _PendingRequest(
            request_id=self._next_request_id,
            llrs=arr,
            future=loop.create_future(),
            deadline_s=deadline_s,
        )
        self._next_request_id += 1
        now = loop.time()
        flushed = lane.batcher.offer(request, now)
        if flushed is None:  # reject mode, queue full
            self.metrics.rejected += 1
            deadline = lane.batcher.next_deadline()
            retry_after = (
                max(deadline - now, 0.0) if deadline is not None else self.max_delay_s
            )
            raise ServiceOverloadError(
                f"{entry.spec.label} queue full "
                f"({lane.batcher.depth}/{self.queue_capacity}); "
                f"retry in {retry_after:.4f} s",
                retry_after_s=retry_after,
            )
        self.metrics.submitted += 1
        self.metrics.in_flight += 1
        if deadline_at is not None:
            # The deadline is enforced wherever the request happens to be —
            # queued, mid-decode, or wedged — by resolving its future here.
            request.timer = loop.call_later(
                max(deadline_at - now, 0.0), self._expire, request
            )
        if flushed:
            self._dispatch(lane, flushed)
        else:
            self._kick()
        return await request.future

    def _lane(self, entry: CodecEntry) -> _CodecLane:
        lane = self._lanes.get(entry.spec.key)
        if lane is None:
            reject = self.backpressure == "reject"
            lane = _CodecLane(
                entry=entry,
                batcher=DynamicBatcher(
                    max_batch=self.max_batch,
                    max_delay_s=self.max_delay_s,
                    capacity=self.queue_capacity if reject else None,
                ),
                slots=None if reject else asyncio.Semaphore(self.queue_capacity),
            )
            self._lanes[entry.spec.key] = lane
        return lane

    def _validate_llrs(self, llrs: Any, entry: CodecEntry) -> np.ndarray:
        try:
            arr = np.asarray(llrs)
        except Exception as exc:  # exotic objects numpy refuses to wrap
            self.metrics.validation_failures += 1
            raise RequestValidationError(f"LLRs are not array-like: {exc}") from exc
        if arr.dtype.kind not in "fiu":
            self.metrics.validation_failures += 1
            raise RequestValidationError(
                f"LLRs must be real-numeric, got dtype {arr.dtype}"
            )
        if arr.ndim != 1 or arr.shape[0] != entry.n_bits:
            self.metrics.validation_failures += 1
            raise RequestValidationError(
                f"{entry.spec.label} expects a 1-D LLR array of length "
                f"{entry.n_bits}, got shape {arr.shape} (batching is the "
                "service's job — submit one frame per request)"
            )
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            self.metrics.validation_failures += 1
            raise RequestValidationError(
                f"{entry.spec.label} LLRs contain NaN or infinity"
            )
        return arr

    # ------------------------------------------------------------------ #
    # Request accounting
    # ------------------------------------------------------------------ #
    def _finish(
        self,
        request: _PendingRequest,
        response: DecodeResponse | None = None,
        error: Exception | None = None,
        queued_s: float | None = None,
        total_s: float | None = None,
    ) -> bool:
        """Resolve one request exactly once and settle its accounting.

        Every admitted request passes through here exactly once — from the
        deadline timer, the dispatch filter, batch completion or the stop()
        sweep — so ``in_flight`` is decremented once and each request lands
        in exactly one of completed / failed / deadline_exceeded /
        cancelled.  Returns ``False`` when the request was already settled.
        """
        if request.finished:
            return False
        request.finished = True
        if request.timer is not None:
            request.timer.cancel()
            request.timer = None
        self.metrics.in_flight -= 1
        future = request.future
        if future.cancelled():
            self.metrics.cancelled += 1
            return True
        if error is not None:
            if isinstance(error, DeadlineExceededError):
                self.metrics.deadline_exceeded += 1
            else:
                self.metrics.failed += 1
            if not future.done():
                future.set_exception(error)
            return True
        if not future.done():
            future.set_result(response)
        self.metrics.record_completion(queued_s or 0.0, total_s or 0.0)
        return True

    def _expire(self, request: _PendingRequest) -> None:
        """Deadline timer callback: resolve the request with a typed error."""
        request.timer = None
        self._finish(
            request,
            error=DeadlineExceededError(
                f"deadline of {request.deadline_s:.4f} s expired before the "
                "decode completed",
                deadline_s=request.deadline_s,
            ),
        )

    # ------------------------------------------------------------------ #
    # Flushing and dispatch
    # ------------------------------------------------------------------ #
    def _kick(self) -> None:
        """Run the pump at the next loop turn (at most one pending).

        ``call_soon`` queues the pump behind every submit already scheduled
        for this turn, so requests arriving together still share a batch.
        """
        if self._pump_handle is None and self._running:
            self._pump_handle = asyncio.get_running_loop().call_soon(self._pump)

    def _pump(self) -> None:
        """Dispatch what is due, feed every free worker, re-arm the deadline timer.

        Lanes are polled oldest head first, each told how many workers are
        still free, so an idle worker takes the oldest queued batch and a
        deadline flush still fires while every worker is busy.
        """
        self._disarm()
        if not self._running:
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        queued = [lane for lane in self._lanes.values() if lane.batcher.depth]
        for lane in sorted(queued, key=lambda lane: lane.batcher.next_deadline()):
            free = self._workers - len(self._inflight)
            for batch in lane.batcher.poll(now, free):
                self._dispatch(lane, batch)
        deadline = min(
            (d for lane in queued if (d := lane.batcher.next_deadline()) is not None),
            default=None,
        )
        if deadline is not None:
            self._timer = loop.call_at(deadline, self._pump)

    def _disarm(self) -> None:
        """Cancel the pending pump and the deadline timer."""
        for handle in (self._pump_handle, self._timer):
            if handle is not None:
                handle.cancel()
        self._pump_handle = self._timer = None

    def _dispatch(self, lane: _CodecLane, batch: list[QueuedItem[_PendingRequest]]) -> None:
        """Send one flushed batch to the dispatcher; resolve futures when done."""
        if lane.slots is not None:
            for _ in batch:  # items left the queue: open their slots
                lane.slots.release()
        live: list[QueuedItem[_PendingRequest]] = []
        for item in batch:
            request = item.payload
            if request.finished:  # expired in queue: already resolved, skip decode
                continue
            if request.future.cancelled():  # caller gave up while queued
                self._finish(request)
                continue
            live.append(item)
        if not live:
            self._kick()  # the worker this batch would have taken is still free
            return
        self.metrics.record_batch(len(live))
        stacked = np.stack([item.payload.llrs for item in live])
        task = asyncio.create_task(self._run_batch(lane, live, stacked))
        self._inflight.add(task)
        task.add_done_callback(self._batch_done)

    def _batch_done(self, task: asyncio.Task) -> None:
        """A worker came free: hand it the oldest queued batch."""
        self._inflight.discard(task)
        self._kick()

    async def _run_batch(
        self,
        lane: _CodecLane,
        batch: list[QueuedItem[_PendingRequest]],
        stacked: np.ndarray,
    ) -> None:
        loop = asyncio.get_running_loop()
        dispatched_at = loop.time()
        try:
            try:
                outcome = await self._dispatcher.run(lane.entry, stacked)
            except asyncio.CancelledError:
                raise  # the finally block resolves the batch's callers
            except Exception as exc:  # retry budget exhausted: fan out to callers
                for item in batch:
                    self._finish(item.payload, error=exc)
                return
            done_at = loop.time()
            decode_s = done_at - dispatched_at
            for index, item in enumerate(batch):
                request = item.payload
                queued_s = dispatched_at - item.enqueued_at
                response = DecodeResponse(
                    request_id=request.request_id,
                    codec=lane.entry.spec.label,
                    bits=outcome.hard_bits[index].copy(),
                    iterations=int(outcome.iterations[index]),
                    converged=bool(outcome.converged[index]),
                    decides_info_bits=lane.entry.decides_info_bits,
                    batch_size=len(batch),
                    queued_s=queued_s,
                    decode_s=decode_s,
                    total_s=done_at - item.enqueued_at,
                    attempts=outcome.attempts,
                    decode_path=outcome.path,
                )
                self._finish(
                    request,
                    response=response,
                    queued_s=queued_s,
                    total_s=response.total_s,
                )
        finally:
            # Reached on cancellation (bounded drain) and on any unexpected
            # exit: nobody in this batch is ever left with a hung future.
            for item in batch:
                if not item.payload.finished:
                    self._finish(
                        item.payload,
                        error=ServiceClosedError(
                            "service stopped while the batch was in flight"
                        ),
                    )

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def metrics_snapshot(self) -> MetricsSnapshot:
        """Freeze the live counters, including per-codec queue depths."""
        depths = {
            lane.entry.spec.label: lane.batcher.depth for lane in self._lanes.values()
        }
        breaker_state = (
            self._dispatcher.breaker_state() if self._dispatcher is not None
            else "disabled"
        )
        return self.metrics.snapshot(depths, breaker_state)

    def health_snapshot(self) -> HealthSnapshot:
        """The resilience-relevant health surface (breaker, path, incident counts)."""
        dispatcher = self._dispatcher
        if dispatcher is None:
            return self.metrics.health(
                running=False,
                breaker_state="disabled",
                decode_path="none",
                consecutive_failures=0,
            )
        return self.metrics.health(
            running=self._running,
            breaker_state=dispatcher.breaker_state(),
            decode_path=dispatcher.current_path(),
            consecutive_failures=(
                dispatcher.breaker.consecutive_failures
                if dispatcher.breaker is not None
                else 0
            ),
        )
