"""The functional decoders and the Monte-Carlo simulation engine.

The paper's functional claims (layered decoding "nearly doubles the
convergence speed", the WiMAX BER behaviour backing the architectural
choices) rest on Monte-Carlo simulation over many frames.  Every decoder
here works on a *batch* axis, which amortises Python interpreter overhead
over frames so ensemble simulation runs at NumPy speed; one frame is a
batch of one.  These are the library's only decoder classes:

* :class:`~repro.sim.edges.EdgeIndex` — flat edge-index arrays precomputed
  from a :class:`~repro.ldpc.hmatrix.ParityCheckMatrix`, grouping checks and
  variables by degree so message passing becomes dense tensor arithmetic,
* :mod:`~repro.sim.kernels` — vectorised check-node updates (normalized
  min-sum, paper eq. (11), and the exact sum-product tanh rule) operating on
  ``(..., degree)`` arrays,
* :class:`~repro.sim.batch.BatchLayeredDecoder` — the paper's schedule and
  arithmetic: layered normalised min-sum with the PEs' fixed ``sigma``
  (:data:`~repro.sim.batch.MIN_SUM_SCALING`), in float or the 7/5-bit
  fixed-point datapath, and
  :class:`~repro.sim.batch.BatchFloodingDecoder` — the two-phase reference
  schedule with either kernel; both run over ``(batch, n)`` LLR arrays with
  per-frame early termination,
* :mod:`~repro.sim.turbo_batch` — the turbo half of the multi-standard
  decoder: :class:`~repro.sim.turbo_batch.BatchBCJR` runs the Max-Log-MAP
  alpha and beta recursions together in one loop over state-major
  ``(4 edges, 16 states, batch)`` slabs, with the extrinsic scaled by the
  fixed :data:`~repro.sim.turbo_batch.EXTRINSIC_SCALE`, and
  :class:`~repro.sim.turbo_batch.BatchTurboDecoder` alternates the
  two SISO activations with per-frame early exit on decision stability,
* :class:`~repro.sim.runner.BerRunner` — streams frames through the
  modulate → AWGN → demap → decode chain in configurable batch sizes for
  *either* code family (any :class:`~repro.sim.batch.BatchDecoder`) and
  reports BER/FER with Wilson confidence intervals.

See ``docs/batching.md`` (LDPC) and ``docs/turbo-batching.md`` (turbo) for
the memory layouts and guidance on batch sizes.
"""

from repro.sim.batch import (
    BatchDecodeResult,
    BatchDecoder,
    BatchFloodingDecoder,
    BatchLayeredDecoder,
)
from repro.sim.edges import EdgeIndex
from repro.sim.kernels import min_sum_update, sum_product_update
from repro.sim.runner import CHANNEL_FACTORIES, BerPoint, BerRunner, resolve_code_rate
from repro.sim.stats import wilson_interval
from repro.sim.turbo_batch import (
    BCJRWorkspace,
    BatchBCJR,
    BatchBCJRResult,
    BatchTurboDecoder,
    BatchTurboResult,
)

__all__ = [
    "BCJRWorkspace",
    "BatchBCJR",
    "BatchBCJRResult",
    "BatchDecodeResult",
    "BatchDecoder",
    "BatchFloodingDecoder",
    "BatchLayeredDecoder",
    "BatchTurboDecoder",
    "BatchTurboResult",
    "BerPoint",
    "BerRunner",
    "CHANNEL_FACTORIES",
    "EdgeIndex",
    "min_sum_update",
    "resolve_code_rate",
    "sum_product_update",
    "wilson_interval",
]
