"""Decode-as-a-service: async dynamic batching over the batch engines.

The serving path of the reproduction's "millions of users" north star:
per-frame decode requests from many concurrent clients aggregate into the
large batches :mod:`repro.sim`'s engines were built for, under an explicit
latency budget, with typed boundary validation, bounded queues with
configurable backpressure, live metrics and an optional process-shard mode
(``executor="process"`` with an explicit ``shards`` count).  The resilience
layer (:mod:`repro.service.resilience`) keeps the service serving through
worker crashes, hangs and decode failures — supervised executor rebuilds,
bounded retries, per-request deadlines, an optional hang watchdog (one
explicit timeout, sized by the caller to cover the slowest lane) and a
circuit breaker that degrades to a slower but bit-correct path — and the
deterministic fault-injection harness in :mod:`repro.faults` provokes every
one of those failure modes on demand.  See ``docs/decode-service.md`` for
the request lifecycle and policies, and ``python -m repro.service`` for a
runnable demo (``--inject-faults`` for the chaos smoke).
"""

from repro.faults import FaultAction, FaultInjector, FaultPlan
from repro.service.batcher import DynamicBatcher, QueuedItem
from repro.service.metrics import (
    HealthSnapshot,
    LatencyReservoir,
    MetricsSnapshot,
    ServiceMetrics,
)
from repro.service.registry import (
    CodecEntry,
    CodecRegistry,
    CodecSpec,
    default_registry,
)
from repro.service.resilience import (
    CircuitBreaker,
    DispatchResult,
    ExponentialBackoff,
    ResilienceConfig,
    ResilientDispatcher,
    SupervisedExecutor,
)
from repro.service.service import DecodeResponse, DecodeService

__all__ = [
    "CircuitBreaker",
    "CodecEntry",
    "CodecRegistry",
    "CodecSpec",
    "DecodeResponse",
    "DecodeService",
    "DispatchResult",
    "DynamicBatcher",
    "ExponentialBackoff",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "HealthSnapshot",
    "LatencyReservoir",
    "MetricsSnapshot",
    "QueuedItem",
    "ResilienceConfig",
    "ResilientDispatcher",
    "ServiceMetrics",
    "SupervisedExecutor",
    "default_registry",
]
