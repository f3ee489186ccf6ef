"""Process-shard planning and worker entry points for the decode service.

Whether sharding decode batches across worker processes *pays* is decided
exactly the way the NoC sweep scheduler decides scalar-vs-batched and
serial-vs-pool: measure a probe workload once per process, fit a
:class:`~repro.utils.calibration.PiecewiseLinearCost` curve, and only leave
the simple path for a clear projected win (see
:class:`repro.noc.sweep.SweepCostModel`, whose machinery this module reuses
through :mod:`repro.utils.calibration`).

The decision rule (documented in ``docs/decode-service.md``):

1. calibrate the codec's decode cost at a few batch sizes
   (:meth:`DecodeCostModel.calibrate` — random-LLR probe frames, best-of-2
   timing like the sweep probe);
2. the in-process ceiling is ``max_batch / cost(max_batch)`` frames/sec;
   sharding is considered only when the offered load exceeds
   :data:`SATURATION_FRACTION` of that ceiling (below it, batches decode
   faster than they arrive and a pool only adds pickling latency);
3. a pool must amortize its spin-up: the projected serial decode work over
   :data:`PLANNING_HORIZON_S` has to exceed
   :data:`~repro.utils.calibration.POOL_SPINUP_S`
   (:func:`~repro.utils.calibration.pool_amortizes` — the same rule that
   gates ``parallel="process"`` NoC sweeps);
4. the worker count is the offered load divided by one worker's saturation
   throughput, capped at the host's CPU count.

Worker processes never receive decoder objects: they get a picklable
:class:`~repro.service.registry.CodecSpec` key plus the stacked LLR array,
and rebuild (then cache) the decoder locally — the same
build-once-per-worker pattern as the sweep scheduler's per-worker topology
cache.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from repro.service.registry import CodecEntry, CodecSpec, default_registry
from repro.utils.calibration import (
    POOL_SPINUP_S,
    PiecewiseLinearCost,
    best_time,
    pool_amortizes,
)

__all__ = [
    "DecodeCostModel",
    "PLANNING_HORIZON_S",
    "SATURATION_FRACTION",
    "decode_in_worker",
    "plan_shards",
]

#: Fraction of the serial decode ceiling at which the planner considers the
#: in-process path saturated.  Below this, arrival gaps cover the decode
#: time and sharding only adds pickling overhead.
SATURATION_FRACTION = 0.7

#: Horizon over which pool spin-up must amortize: the projected serial
#: decode work in this many seconds of offered load has to exceed
#: :data:`~repro.utils.calibration.POOL_SPINUP_S`.
PLANNING_HORIZON_S = 1.0

#: Probe batch sizes for decode-cost calibration.  Like the sweep probe,
#: they bracket both sides of the regime where stacking starts to amortize
#: interpreter overhead (the curve is far from affine near batch 1).
_PROBE_SIZES = (1, 8, 32)


@dataclass(frozen=True)
class DecodeCostModel:
    """Measured decode-cost curve of one codec (``batch size -> seconds``)."""

    spec: CodecSpec
    curve: PiecewiseLinearCost

    @classmethod
    def calibrate(
        cls,
        entry: CodecEntry,
        sizes: tuple[int, ...] = _PROBE_SIZES,
        seed: int = 2012,
    ) -> "DecodeCostModel":
        """Time ``entry``'s decoder on random-LLR probe batches.

        Random LLRs are the *conservative* probe: nothing early-exits, so
        every probed batch pays the full iteration budget and the fitted
        curve upper-bounds real traffic (which converges and exits early).

        Measured times are clamped isotonic (running max over increasing
        batch size): decoding a superset of frames cannot truly be cheaper,
        so an inversion is host timing noise, and a monotone curve keeps
        :func:`plan_shards` and the dispatch watchdog stable on noisy hosts.
        """
        rng = np.random.default_rng(seed)
        probe = rng.normal(0.0, 2.0, size=(max(sizes), entry.n_bits))
        decoder = entry.decoder
        decoder.decode_batch(probe[:1])  # warm any lazy state
        samples = []
        floor = 0.0
        for size in sorted(sizes):
            measured = best_time(lambda size=size: decoder.decode_batch(probe[:size]))
            floor = max(floor, measured)
            samples.append((size, floor))
        return cls(
            spec=entry.spec,
            curve=PiecewiseLinearCost(tuple(samples)),
        )

    def saturation_fps(self, max_batch: int) -> float:
        """In-process decode ceiling at the service's batch cap, frames/sec."""
        return max_batch / self.curve.cost(max_batch)


def plan_shards(
    model: DecodeCostModel,
    offered_fps: float,
    max_batch: int,
    max_workers: int | None = None,
    spinup_s: float = POOL_SPINUP_S,
    horizon_s: float = PLANNING_HORIZON_S,
) -> int:
    """Worker processes to shard across; ``0`` keeps decoding in-process.

    Applies the decision rule in the module docstring.  ``offered_fps`` is
    the caller's load estimate (the demo and benchmarks measure it; a
    service can pass its own recent throughput).
    """
    if offered_fps <= 0.0:
        return 0
    ceiling = model.saturation_fps(max_batch)
    per_worker = SATURATION_FRACTION * ceiling
    if offered_fps <= per_worker:
        return 0
    projected_serial = offered_fps * horizon_s * model.curve.per_item(max_batch)
    if not pool_amortizes(projected_serial, spinup_s):
        return 0
    workers = math.ceil(offered_fps / per_worker)
    cap = max_workers if max_workers is not None else (os.cpu_count() or 1)
    return max(2, min(workers, cap))


#: Per-worker decoder cache, keyed by ``CodecSpec.key`` — the decode-service
#: twin of the sweep scheduler's per-worker topology cache.
_WORKER_ENTRIES: dict[tuple[str, int, str], CodecEntry] = {}


def decode_in_worker(
    spec_key: tuple[str, int, str], llrs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Process-pool entry point: decode one stacked batch in a shard worker.

    Returns ``(hard_bits, iterations, converged)`` arrays — the only fields
    the service needs to resolve futures, kept small to minimise pickling.
    """
    entry = _WORKER_ENTRIES.get(spec_key)
    if entry is None:
        family, block, rate = spec_key
        entry = default_registry().resolve(family, block, rate)
        _WORKER_ENTRIES[spec_key] = entry
    result = entry.decoder.decode_batch(llrs)
    return result.hard_bits, result.iterations, result.converged
