"""Resilience layer for the decode service: supervised executors, retries,
circuit breaking and hang watchdogs.

The decode service's executors can fail in ways the decode math never does:
a worker process dies mid-batch (``BrokenProcessPool`` poisons the whole
pool), a worker wedges forever, a transient exception surfaces from the
decode path.  Decoding is *pure* — the same LLRs always produce the same
bits — so every one of those failures is safely retryable.  This module
turns that observation into machinery:

* :class:`SupervisedExecutor` — wraps a ``concurrent.futures`` executor
  behind a factory.  When the pool dies or a batch wedges past the
  watchdog, the supervisor abandons the broken executor
  (``shutdown(wait=False, cancel_futures=True)``), sleeps a capped
  exponential backoff with *deterministic* seeded jitter, and rebuilds from
  the factory.  A generation counter makes concurrent failures converge on
  one rebuild.
* :class:`CircuitBreaker` — a pure (clock-passed-in) closed → open →
  half-open state machine.  ``breaker_failures`` consecutive primary-path
  failures open it; while open the dispatcher degrades to the fallback
  path; after ``breaker_reset_s`` a bounded number (``breaker_probes``) of
  half-open probes are let through and one success closes it again.  Every
  transition is recorded so tests can assert the machine never jumps an
  illegal edge.
* :class:`ResilientDispatcher` — the piece the service calls: given a codec
  entry and a stacked ``(B, n)`` LLR batch, it picks the current path
  (primary executor, or the degraded fallback while the breaker is open),
  applies the optional :class:`~repro.faults.FaultInjector`, enforces the
  watchdog, classifies failures, counts everything into
  :class:`~repro.service.metrics.ServiceMetrics`, and retries within a
  bounded attempt budget.  Exhausting the budget raises
  :class:`~repro.errors.RetryExhaustedError` carrying the last cause.
* :func:`decode_in_worker` — the process-pool entry point: workers receive
  a picklable codec key, the LLR array and the attempt's fault action, and
  resolve the codec through the service's own registry, which
  :func:`install_worker_registry` (the pool's ``initializer``) put into
  every worker, including after each rebuild.  Thread and process workers
  run the same decode body, and :func:`repro.faults.fault_delay` is the one
  rule for what an injected fault does on every path.

:class:`ResilienceConfig` is the only place the knobs are named and
checked; the backoff and the breaker are built from it.

Degradation chain: ``process`` executors fall back to a supervised thread
executor, ``thread`` executors fall back to inline (event-loop) decoding —
each fallback slower but still bit-correct.  ``inline`` services have no
fallback (and no breaker): failures there just consume retry budget.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, RetryExhaustedError, WorkerCrashError
from repro.faults import FaultAction, FaultInjector, fault_delay
from repro.service.metrics import ServiceMetrics
from repro.service.registry import CodecEntry, CodecRegistry, CodecSpec
from repro.utils.validation import require_int, require_real

__all__ = [
    "CircuitBreaker",
    "DispatchResult",
    "ExponentialBackoff",
    "ResilienceConfig",
    "ResilientDispatcher",
    "SupervisedExecutor",
    "decode_in_worker",
    "install_worker_registry",
]

#: Exceptions that mean "the execution infrastructure failed", as opposed to
#: the decode itself raising: broken pools, (simulated) worker crashes and
#: watchdog timeouts.  Infra failures trigger an executor rebuild.
_INFRA_FAILURES = (BrokenExecutor, WorkerCrashError, asyncio.TimeoutError, TimeoutError)

_TIMEOUTS = (asyncio.TimeoutError, TimeoutError)


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilience layer (defaults are production-shaped).

    ``max_attempts`` bounds dispatches per batch (first try included).
    Backoff parameters govern executor rebuild pacing; the jitter stream is
    seeded, so a given config replays identically.  Breaker parameters are
    the classic trio: consecutive failures to open, open dwell before
    half-open, and how many half-open probes may fly at once.  This is the
    one place the knobs are checked: counts must be ints (never bools or
    fractions), durations finite reals.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_seed: int = 2012
    breaker_failures: int = 3
    breaker_reset_s: float = 1.0
    breaker_probes: int = 1

    def __post_init__(self) -> None:
        require_int("max_attempts", self.max_attempts, minimum=1)
        require_real("backoff_base_s", self.backoff_base_s, allow_zero=True)
        require_real("backoff_cap_s", self.backoff_cap_s, allow_zero=True)
        if self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError(
                "backoff must satisfy 0 <= base <= cap, got "
                f"base={self.backoff_base_s}, cap={self.backoff_cap_s}"
            )
        require_int("backoff_seed", self.backoff_seed, minimum=0)
        require_int("breaker_failures", self.breaker_failures, minimum=1)
        require_real("breaker_reset_s", self.breaker_reset_s, allow_zero=False)
        require_int("breaker_probes", self.breaker_probes, minimum=1)


class ExponentialBackoff:
    """Capped exponential backoff with deterministic (seeded) jitter.

    Built from a :class:`ResilienceConfig`: ``next_delay`` yields
    ``min(backoff_cap_s, backoff_base_s * 2**k)`` scaled by a jitter factor
    in ``[0.5, 1.0]`` drawn from a stream seeded with ``backoff_seed`` — two
    services built with the same seed back off identically, which is what
    makes chaos runs reproducible.  ``reset`` rewinds the exponent (a healthy
    stretch earns back fast recovery) but deliberately not the jitter stream.
    """

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self._rng = random.Random(config.backoff_seed)
        self._exponent = 0

    def next_delay(self) -> float:
        """The next delay in seconds, advancing the exponent."""
        delay = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2.0 ** self._exponent),
        )
        self._exponent += 1
        return delay * (0.5 + 0.5 * self._rng.random())

    def reset(self) -> None:
        """Rewind the exponent after a healthy stretch."""
        self._exponent = 0


class CircuitBreaker:
    """Closed → open → half-open breaker; pure, with the clock passed in.

    Built from a :class:`ResilienceConfig` (``breaker_failures``,
    ``breaker_reset_s``, ``breaker_probes``).  All methods take ``now`` (any
    monotonic seconds source) so tests can drive the machine through time
    without sleeping.  ``transitions`` records every ``(from, to)`` edge
    taken; the legal set is :data:`CircuitBreaker.LEGAL_TRANSITIONS`.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    LEGAL_TRANSITIONS = frozenset(
        [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, OPEN),
            (HALF_OPEN, CLOSED),
        ]
    )

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self.consecutive_failures = 0
        self.opens = 0
        self.transitions: list[tuple[str, str]] = []
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probes_out = 0

    def _move(self, new_state: str) -> None:
        if new_state != self._state:
            self.transitions.append((self._state, new_state))
            self._state = new_state

    def state(self, now: float) -> str:
        """Current state, resolving the open → half-open timer transition."""
        if self._state == self.OPEN and now - self._opened_at >= self.config.breaker_reset_s:
            self._move(self.HALF_OPEN)
            self._probes_out = 0
        return self._state

    def allow(self, now: float) -> bool:
        """Whether the primary path may be tried; half-open consumes a probe."""
        state = self.state(now)
        if state == self.CLOSED:
            return True
        if state == self.OPEN:
            return False
        if self._probes_out < self.config.breaker_probes:
            self._probes_out += 1
            return True
        return False

    def record_success(self, now: float) -> None:
        """A primary-path dispatch succeeded: close from half-open, reset streak."""
        if self.state(now) == self.HALF_OPEN:
            self._move(self.CLOSED)
        self.consecutive_failures = 0
        self._probes_out = 0

    def record_failure(self, now: float) -> None:
        """A primary-path dispatch failed: count the streak, maybe open."""
        state = self.state(now)
        self.consecutive_failures += 1
        if state == self.HALF_OPEN or (
            state == self.CLOSED
            and self.consecutive_failures >= self.config.breaker_failures
        ):
            self._move(self.OPEN)
            self._opened_at = now
            self._probes_out = 0
            self.opens += 1


def _caller_is_cancelling() -> bool:
    """Whether the current task itself is being cancelled (vs collateral
    cancellation of an executor future it awaited).

    Uses :meth:`asyncio.Task.cancelling` (3.11+); on 3.10 there is no
    uncancel bookkeeping, so we conservatively report ``False`` and let the
    future's own state decide — a genuine caller cancel of *queued* work is
    then retried once more before the task completes, which only stretches
    a bounded drain, never hangs it.
    """
    task = asyncio.current_task()
    cancelling = getattr(task, "cancelling", None)
    if task is None or cancelling is None:
        return False
    return cancelling() > 0


class SupervisedExecutor:
    """A rebuildable executor: factory + generation counter + backoff.

    ``run`` submits one callable (optionally under a watchdog timeout);
    when the executor turns out to be dead or wedged, the *caller* invokes
    :meth:`rebuild` with the generation it observed — concurrent failures
    of the same generation coalesce into a single backoff + rebuild, and
    stragglers reporting an already-replaced generation return immediately.
    """

    def __init__(
        self, factory: Callable[[], Executor], backoff: ExponentialBackoff
    ) -> None:
        self._factory = factory
        self._backoff = backoff
        self._executor: Executor | None = None
        self._lock = asyncio.Lock()
        self.generation = 0
        self.rebuilds = 0

    def _live(self) -> Executor:
        if self._executor is None:
            self._executor = self._factory()
        return self._executor

    async def run(self, fn: Callable, *args, timeout: float | None = None):
        """Run ``fn(*args)`` on the current executor, under the watchdog.

        A rebuild (triggered by a concurrent batch's failure) abandons this
        executor with ``cancel_futures=True``, which cancels *our* queued
        work too.  That collateral cancellation is an infrastructure
        failure of this attempt — re-raised as
        :class:`~repro.errors.WorkerCrashError` so the caller retries on
        the rebuilt executor — and must not be confused with the caller
        cancelling the whole dispatch (which propagates).
        """
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._live(), fn, *args)
        try:
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        except asyncio.CancelledError:
            if future.cancelled() and not _caller_is_cancelling():
                raise WorkerCrashError(
                    "executor was rebuilt while this batch was queued on it"
                ) from None
            raise

    async def rebuild(self, failed_generation: int) -> bool:
        """Replace the executor that was ``failed_generation``; backoff first.

        Returns ``True`` when this call actually rebuilt, ``False`` when a
        concurrent failure already did (or the generation moved on).
        """
        async with self._lock:
            if self.generation != failed_generation:
                return False
            delay = self._backoff.next_delay()
            if delay > 0.0:
                await asyncio.sleep(delay)
            old = self._executor
            self.generation += 1
            self.rebuilds += 1
            self._executor = None  # next run() rebuilds lazily from the factory
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
            return True

    def note_success(self) -> None:
        """A dispatch succeeded: earn back fast backoff for the next failure."""
        self._backoff.reset()

    def shutdown(self, wait: bool = True) -> None:
        """Shut the current executor down (abandoning queued work if ``not wait``)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None


@dataclass(frozen=True)
class DispatchResult:
    """One successfully decoded batch plus how the dispatch went."""

    hard_bits: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    attempts: int
    path: str


#: The registry shard workers resolve codecs through (and whose entry cache
#: keeps each decoder built once per worker); set by the pool initializer.
_worker_registry: CodecRegistry | None = None


def install_worker_registry(registry: CodecRegistry) -> None:
    """Process-pool ``initializer``: make ``registry`` the worker's registry.

    The dispatcher passes its service's own registry, so a shard decodes with
    exactly the codecs the thread and inline paths use.
    """
    global _worker_registry
    _worker_registry = registry


def _decode(
    decoder, llrs: np.ndarray, action: FaultAction | None, can_really_crash: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The executor-side decode body: apply ``action``, then decode.

    Returns ``(hard_bits, iterations, converged)`` arrays — the only fields
    the service needs to resolve futures, kept small to minimise pickling.
    """
    stall = fault_delay(action, can_really_crash)
    if stall:
        time.sleep(stall)
    result = decoder.decode_batch(llrs)
    return result.hard_bits, result.iterations, result.converged


def decode_in_worker(
    spec_key: tuple[str, int, str],
    llrs: np.ndarray,
    action: FaultAction | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Process-pool entry point: decode one stacked batch in a shard worker.

    Workers never receive decoder objects, only the picklable codec key, the
    LLR array and the attempt's fault action; the codec resolves through the
    registry :func:`install_worker_registry` installed.  A ``crash`` action
    kills the worker for real.
    """
    if _worker_registry is None:
        raise ConfigurationError(
            "no worker registry: start the pool with "
            "initializer=install_worker_registry"
        )
    entry = _worker_registry.resolve_spec(CodecSpec(*spec_key))
    return _decode(entry.decoder, llrs, action, can_really_crash=True)


@dataclass(frozen=True)
class _Path:
    """One dispatch path: a label, and the executor it runs on."""

    name: str
    executor: SupervisedExecutor | None  # None = inline on the event loop


class ResilientDispatcher:
    """Retry/breaker/watchdog dispatch of decode batches onto executors.

    Parameters
    ----------
    mode:
        ``"process"``, ``"thread"`` or ``"inline"`` — the primary path.
    registry:
        The service's :class:`~repro.service.registry.CodecRegistry`;
        process shards resolve codecs through it.
    shards:
        Worker-process count for ``mode="process"``.
    config:
        The :class:`ResilienceConfig`; defaults when ``None``.
    metrics:
        The service's :class:`~repro.service.metrics.ServiceMetrics`;
        retry/rebuild/watchdog/degraded counters are recorded here.
    watchdog_s:
        Per-attempt decode timeout, or ``None`` to disable the watchdog.
    injector:
        Optional :class:`~repro.faults.FaultInjector` consulted once per
        dispatch attempt (the chaos hook).
    """

    def __init__(
        self,
        mode: str,
        registry: CodecRegistry,
        shards: int = 0,
        config: ResilienceConfig | None = None,
        metrics: ServiceMetrics | None = None,
        watchdog_s: float | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        if mode not in ("process", "thread", "inline"):
            raise ConfigurationError(f"unknown dispatcher mode {mode!r}")
        if mode == "process" and shards < 1:
            raise ConfigurationError("process mode needs shards >= 1")
        self.mode = mode
        self.config = config if config is not None else ResilienceConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.watchdog_s = watchdog_s
        self.injector = injector
        # The thread executor is the primary in thread mode and the degraded
        # fallback in process mode; every executor is built lazily.
        thread = SupervisedExecutor(
            partial(ThreadPoolExecutor, max_workers=1, thread_name_prefix="decode-service"),
            ExponentialBackoff(self.config),
        )
        self._fallback: _Path | None
        if mode == "process":
            self._primary = _Path(
                "process",
                SupervisedExecutor(
                    partial(
                        ProcessPoolExecutor,
                        max_workers=shards,
                        initializer=install_worker_registry,
                        initargs=(registry,),
                    ),
                    ExponentialBackoff(self.config),
                ),
            )
            self._fallback = _Path("degraded:thread", thread)
        elif mode == "thread":
            self._primary = _Path("thread", thread)
            self._fallback = _Path("degraded:inline", None)
        else:
            self._primary = _Path("inline", None)
            self._fallback = None
        #: Breaker over the primary path; inline services have nothing to
        #: degrade to, so they run without one.
        self.breaker: CircuitBreaker | None = (
            CircuitBreaker(self.config) if self._fallback is not None else None
        )

    # ------------------------------------------------------------------ #
    # Introspection (health surface)
    # ------------------------------------------------------------------ #
    def breaker_state(self, now: float | None = None) -> str:
        """``closed`` / ``open`` / ``half_open``, or ``disabled`` (inline mode)."""
        if self.breaker is None:
            return "disabled"
        if now is None:
            try:
                now = asyncio.get_running_loop().time()
            except RuntimeError:
                return self.breaker._state
        return self.breaker.state(now)

    def current_path(self, now: float | None = None) -> str:
        """The path the next dispatch would take, e.g. ``"degraded:thread"``."""
        if self.breaker_state(now) == CircuitBreaker.OPEN:
            return self._fallback.name
        return self._primary.name

    def _executors(self) -> list[SupervisedExecutor]:
        paths = (self._primary, self._fallback)
        return [p.executor for p in paths if p is not None and p.executor is not None]

    @property
    def pool_rebuilds(self) -> int:
        """Total executor rebuilds across both supervised paths."""
        return sum(sup.rebuilds for sup in self._executors())

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _choose(self, now: float) -> _Path:
        if self.breaker is None or self.breaker.allow(now):
            return self._primary
        return self._fallback

    async def _inline(
        self, entry: CodecEntry, stacked: np.ndarray, action: FaultAction | None
    ):
        """Inline decode as a coroutine so hangs stay awaitable (watchdoggable)."""
        stall = fault_delay(action, can_really_crash=False)
        if stall:
            await asyncio.sleep(stall)
        return _decode(entry.decoder, stacked, None, can_really_crash=False)

    async def _attempt(
        self,
        path: _Path,
        entry: CodecEntry,
        stacked: np.ndarray,
        action: FaultAction | None,
    ):
        if path.executor is None:
            coro = self._inline(entry, stacked, action)
            if self.watchdog_s is None:
                return await coro
            return await asyncio.wait_for(coro, self.watchdog_s)
        if path.name == "process":
            return await path.executor.run(
                decode_in_worker, entry.spec.key, stacked, action, timeout=self.watchdog_s
            )
        return await path.executor.run(
            _decode, entry.decoder, stacked, action, False, timeout=self.watchdog_s
        )

    async def run(self, entry: CodecEntry, stacked: np.ndarray) -> DispatchResult:
        """Decode one stacked batch, surviving crashes/hangs/raises if possible.

        Raises :class:`~repro.errors.RetryExhaustedError` (cause attached)
        once the attempt budget is spent.
        """
        loop = asyncio.get_running_loop()
        attempts = 0
        last_exc: Exception | None = None
        while attempts < self.config.max_attempts:
            if attempts:
                self.metrics.retries += 1
            attempts += 1
            now = loop.time()
            path = self._choose(now)
            action = self.injector.next_action() if self.injector is not None else None
            if action is not None:
                self.metrics.faults_injected += 1
            on_primary = self.breaker is not None and path is self._primary
            started = loop.time()
            try:
                hard, iterations, converged = await self._attempt(
                    path, entry, stacked, action
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — classified right below
                last_exc = exc
                finished = loop.time()
                if isinstance(exc, _TIMEOUTS):
                    self.metrics.watchdog_timeouts += 1
                if on_primary:
                    self.breaker.record_failure(finished)
                    opens = self.breaker.opens
                    self.metrics.breaker_opens = opens
                if isinstance(exc, _INFRA_FAILURES) and path.executor is not None:
                    # The executor is dead or wedged: abandon and rebuild it
                    # (backoff + jitter inside), coalescing with concurrent
                    # failures of the same generation.
                    await path.executor.rebuild(path.executor.generation)
                    self.metrics.pool_rebuilds = self.pool_rebuilds
                continue
            finished = loop.time()
            if on_primary:
                self.breaker.record_success(finished)
            if path.executor is not None:
                path.executor.note_success()
            if path.name.startswith("degraded"):
                self.metrics.degraded_batches += 1
                self.metrics.degraded_s += finished - started
            return DispatchResult(
                hard_bits=hard,
                iterations=iterations,
                converged=converged,
                attempts=attempts,
                path=path.name,
            )
        raise RetryExhaustedError(
            f"decode of a {stacked.shape[0]}-frame {entry.spec.label} batch "
            f"failed on all {attempts} attempts (last: {last_exc!r})",
            attempts=attempts,
        ) from last_exc

    def shutdown(self, wait: bool = True) -> None:
        """Shut down every executor this dispatcher owns."""
        for sup in self._executors():
            sup.shutdown(wait=wait)
