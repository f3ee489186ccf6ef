"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch every failure raised by this package with a single ``except`` clause
while still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of the supported range."""


class CodeDefinitionError(ReproError):
    """A channel-code definition (LDPC H matrix, turbo trellis, ...) is invalid."""


class TopologyError(ReproError):
    """A NoC topology request cannot be satisfied (bad size, degree, ...)."""


class RoutingError(ReproError):
    """Routing-table construction or on-line routing failed."""


class MappingError(ReproError):
    """Partitioning a code onto a NoC, or interleaver generation, failed."""


class SimulationError(ReproError):
    """The cycle-accurate simulation reached an inconsistent state."""


class DecodingError(ReproError):
    """Functional decoding failed (dimension mismatch, non-binary input, ...)."""


class ModelError(ReproError):
    """A hardware (area/power/memory) model was queried outside its domain."""


class ServiceError(ReproError):
    """Base class of every failure raised by the decode service layer."""


class RequestValidationError(ServiceError):
    """A decode request carried a malformed payload (shape, dtype, NaN, ...)."""


class UnknownCodecError(ServiceError):
    """A decode request named a code family / block size / rate nobody serves."""


class ServiceOverloadError(ServiceError):
    """The service rejected a request because its queue bound was reached.

    ``retry_after_s`` is the service's estimate of when a queue slot will
    open (the pending batch's flush deadline) — clients in reject mode
    should back off at least this long before retrying.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that is not running."""


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before its decoded bits were delivered.

    Raised (or resolved into the caller's future) whenever a per-request
    deadline passes — while waiting for a queue slot, while queued for a
    batch, or while the batch is decoding.  ``deadline_s`` is the budget the
    caller asked for.
    """

    def __init__(self, message: str, deadline_s: float | None = None):
        super().__init__(message)
        self.deadline_s = deadline_s


class RetryExhaustedError(ServiceError):
    """Every decode attempt within the bounded retry budget failed.

    ``attempts`` is how many dispatches were tried; ``__cause__`` carries the
    last underlying failure (a crash, watchdog timeout or decode exception).
    """

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class WorkerCrashError(ServiceError):
    """A decode worker died mid-batch (or a fault plan simulated it doing so).

    On the process path real crashes surface as
    :class:`concurrent.futures.process.BrokenProcessPool`; this type is the
    executor-agnostic equivalent the fault injector raises on thread and
    inline paths so the same supervision logic can be exercised without
    killing the host process.
    """


class InjectedFaultError(ServiceError):
    """A fault plan asked the decode path to raise (the ``error`` fault kind)."""
