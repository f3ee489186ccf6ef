"""Deterministic, seed-driven fault injection for the decode service.

The resilience layer in :mod:`repro.service.resilience` only earns trust if
every failure mode it claims to survive can be *provoked on demand,
reproducibly*.  This module supplies that chaos-under-test discipline:

* :class:`FaultAction` — one injectable fault: ``crash`` (the worker dies),
  ``hang`` (the worker wedges for ``duration_s`` before decoding),
  ``error`` (the decode raises), ``delay`` (a slow path: sleep, then decode
  normally).
* :class:`FaultPlan` — a deterministic schedule mapping the service's
  1-based *dispatch-attempt sequence number* to actions.  Built explicitly,
  from a compact CLI string (``"crash@3,hang@5:0.2"``), periodically
  (:meth:`FaultPlan.every`) or from a seeded RNG (:meth:`FaultPlan.random`)
  so hypothesis can draw whole chaos campaigns from one integer.
* :class:`FaultInjector` — the mutable cursor the dispatcher consults once
  per dispatch attempt.  Because the decode service's event loop is single
  threaded, attempt numbering — and therefore the whole chaos run — is
  reproducible for a fixed arrival schedule and seed.
* :func:`fault_delay` — the one rule that *applies* an action, on every
  dispatch path.  ``error`` raises :class:`~repro.errors.InjectedFaultError`;
  ``crash`` calls ``os._exit`` inside a process worker, killing it for real
  so the parent sees a genuine ``BrokenProcessPool``, and raises
  :class:`~repro.errors.WorkerCrashError` on the thread and inline paths
  (threads cannot be killed); ``hang`` and ``delay`` return their stall,
  which the caller sleeps off before decoding.

Faults are injected per *dispatch attempt*, not per batch: a batch whose
first attempt crashed consumes a fresh schedule slot on its retry, so a
plan like ``crash@3`` means "the third dispatch dies" and the retry (the
fourth dispatch) succeeds unless the plan says otherwise — exactly the
fail-once/recover shape resilience tests need.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError, InjectedFaultError, WorkerCrashError

__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "fault_delay",
]

#: The injectable fault kinds, in severity order.
FAULT_KINDS = ("crash", "hang", "error", "delay")

#: Exit code a crash-faulted process worker dies with (any nonzero works;
#: a distinctive value makes post-mortems unambiguous).
CRASH_EXIT_CODE = 86


@dataclass(frozen=True)
class FaultAction:
    """One injectable fault: what goes wrong, and for how long.

    ``duration_s`` is the wedge time for ``hang`` and the extra latency for
    ``delay``; it is ignored for ``crash`` and ``error``.
    """

    kind: str
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.duration_s < 0.0:
            raise ConfigurationError(
                f"fault duration must be >= 0, got {self.duration_s}"
            )

    @property
    def label(self) -> str:
        """Compact form, identical to the CLI spec syntax."""
        if self.kind in ("hang", "delay"):
            return f"{self.kind}:{self.duration_s:g}"
        return self.kind


class FaultPlan:
    """A deterministic schedule of faults over dispatch-attempt numbers.

    ``actions`` maps the 1-based dispatch sequence number to the
    :class:`FaultAction` injected on that dispatch; attempts not in the map
    run clean.  Plans are immutable values — the mutable cursor lives in
    :class:`FaultInjector` — so one plan can drive many runs identically.
    """

    def __init__(self, actions: Mapping[int, FaultAction] | None = None) -> None:
        actions = dict(actions or {})
        for seq in actions:
            if seq < 1:
                raise ConfigurationError(
                    f"fault plan sequence numbers are 1-based, got {seq}"
                )
        self._actions: dict[int, FaultAction] = actions

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_string(cls, spec: str) -> "FaultPlan":
        """Parse the CLI syntax: ``"crash@3,hang@5:0.2,error@7,delay@9:0.01"``.

        Each entry is ``kind@seq`` or ``kind@seq:duration_s``; entries are
        comma separated and an empty string is the empty plan.
        """
        actions: dict[int, FaultAction] = {}
        for raw in filter(None, (part.strip() for part in spec.split(","))):
            try:
                kind, _, where = raw.partition("@")
                seq_text, _, duration_text = where.partition(":")
                seq = int(seq_text)
                duration = float(duration_text) if duration_text else 0.0
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad fault spec {raw!r} (want kind@seq[:duration_s]): {exc}"
                ) from exc
            if seq in actions:
                raise ConfigurationError(f"duplicate fault at dispatch {seq}: {raw!r}")
            actions[seq] = FaultAction(kind=kind, duration_s=duration)
        return cls(actions)

    @classmethod
    def every(
        cls,
        period: int,
        kind: str = "crash",
        duration_s: float = 0.0,
        horizon: int = 1024,
    ) -> "FaultPlan":
        """Fault every ``period``-th dispatch (``period, 2*period, ...``) up to ``horizon``."""
        if period < 1:
            raise ConfigurationError(f"fault period must be >= 1, got {period}")
        action = FaultAction(kind=kind, duration_s=duration_s)
        return cls({seq: action for seq in range(period, horizon + 1, period)})

    @classmethod
    def random(
        cls,
        seed: int,
        horizon: int,
        crash: float = 0.0,
        hang: float = 0.0,
        error: float = 0.0,
        delay: float = 0.0,
        hang_s: float = 0.05,
        delay_s: float = 0.005,
    ) -> "FaultPlan":
        """Seeded i.i.d. plan: each dispatch faults with the given per-kind rates.

        The same ``(seed, horizon, rates)`` always yields the same plan —
        the property chaos suite draws just the seed and rates.
        """
        rates = {"crash": crash, "hang": hang, "error": error, "delay": delay}
        total = sum(rates.values())
        if total > 1.0 or any(rate < 0.0 for rate in rates.values()):
            raise ConfigurationError(
                f"fault rates must be >= 0 and sum to <= 1, got {rates}"
            )
        durations = {"hang": hang_s, "delay": delay_s}
        rng = np.random.default_rng(seed)
        draws = rng.random(horizon)
        actions: dict[int, FaultAction] = {}
        for index, draw in enumerate(draws):
            edge = 0.0
            for kind, rate in rates.items():
                edge += rate
                if draw < edge:
                    actions[index + 1] = FaultAction(
                        kind=kind, duration_s=durations.get(kind, 0.0)
                    )
                    break
        return cls(actions)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def action_for(self, seq: int) -> FaultAction | None:
        """The fault injected on dispatch ``seq`` (1-based), or ``None``."""
        return self._actions.get(seq)

    def __len__(self) -> int:
        return len(self._actions)

    def __bool__(self) -> bool:
        return bool(self._actions)

    def describe(self) -> str:
        """The plan back in CLI syntax (canonical, sequence-ordered)."""
        return ",".join(
            f"{self._actions[seq].kind}@{seq}"
            + (
                f":{self._actions[seq].duration_s:g}"
                if self._actions[seq].kind in ("hang", "delay")
                else ""
            )
            for seq in sorted(self._actions)
        )

    def __repr__(self) -> str:
        return f"FaultPlan({self.describe()!r})"


class FaultInjector:
    """Mutable cursor over a :class:`FaultPlan`: one consult per dispatch.

    The dispatcher calls :meth:`next_action` exactly once per dispatch
    attempt (from the event-loop thread, so numbering is race-free);
    ``injected`` counts the actions actually handed out.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.dispatches = 0
        self.injected = 0

    def next_action(self) -> FaultAction | None:
        """The fault for the next dispatch attempt, advancing the cursor."""
        self.dispatches += 1
        action = self.plan.action_for(self.dispatches)
        if action is not None:
            self.injected += 1
        return action


# ---------------------------------------------------------------------- #
# Executor-side fault application
# ---------------------------------------------------------------------- #
def fault_delay(action: FaultAction | None, can_really_crash: bool) -> float:
    """Apply ``action`` before a decode; return the stall in seconds.

    ``crash`` and ``error`` raise (a crash with ``can_really_crash`` — inside
    a process worker — exits the worker instead); ``hang`` and ``delay``
    both return their duration, and only the caller's watchdog tells them
    apart.  Sync paths sleep the stall off with ``time.sleep``, the inline
    path with ``await asyncio.sleep`` so its watchdog can cancel a hang.
    """
    if action is None:
        return 0.0
    if action.kind == "crash":
        if can_really_crash:
            os._exit(CRASH_EXIT_CODE)  # a real worker death: parent sees BrokenProcessPool
        raise WorkerCrashError("injected worker crash")
    if action.kind == "error":
        raise InjectedFaultError("injected decode failure")
    return action.duration_s
