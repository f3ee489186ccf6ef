"""The process's one worker pool, shared by the library's parallel paths.

The NoC sweep (:func:`repro.noc.sweep.run_noc_sweep`) and the turbo decoder
(:meth:`repro.sim.turbo_batch.BatchTurboDecoder.decode_batch`) each decide by
their own fixed rule whether a call pays for worker processes.  When it
does, the call runs on the one :class:`concurrent.futures.ProcessPoolExecutor`
kept here:

* it is started by the first call that needs it, never at import or at any
  object's construction, with that call's worker count;
* a later call that needs no more workers than the live pool has reuses it;
  one that needs more replaces it;
* it uses the platform's default start method (``fork`` on Linux), so a
  worker starts with its parent's modules already imported;
* a caller that sees the pool break (a worker process died) drops it with
  :func:`drop_pool` and raises its own typed error, and the next call builds
  a fresh pool;
* forked children forget it, and the stdlib's exit hook for process pools
  joins its workers when the interpreter exits, so none outlives its parent.

The service's process shards (``DecodeService(executor="process")``) keep
their own supervised executor, which has its own rebuild rules.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor

__all__ = ["available_cpus", "drop_pool", "shared_pool"]

#: The process's one pool and its worker count, built by :func:`shared_pool`.
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, with at least ``workers`` workers.

    The live pool serves when it has that many; otherwise it is shut down
    (its queued work cancelled) and a pool of ``workers`` replaces it.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None and _POOL_WORKERS < workers:
            _POOL.shutdown(cancel_futures=True)
            _POOL = None
        if _POOL is None:
            _POOL = ProcessPoolExecutor(max_workers=workers)
            _POOL_WORKERS = workers
        return _POOL


def drop_pool(pool: ProcessPoolExecutor | None = None) -> None:
    """Shut the shared pool down and join its workers, if it is still
    ``pool`` (any pool: ``None``).  The next call builds a fresh one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and pool in (None, _POOL):
            _POOL.shutdown(cancel_futures=True)
            _POOL = None


def _forget_pool() -> None:
    """In a forked child: the parent's pool and lock are not this process's."""
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
