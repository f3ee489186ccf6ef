"""NoC substrate: topologies, routing, node architecture and cycle-accurate simulation.

This package reproduces the intra-IP NoC studied in Section III of the paper:

* :mod:`~repro.noc.topologies` — the topology set T (ring, 2D mesh, toroidal
  mesh, spidergon, rectangular honeycomb, generalized De Bruijn, generalized
  Kautz),
* :mod:`~repro.noc.routing` — shortest-path routing tables (single shortest
  path and all-local-shortest-paths variants),
* :mod:`~repro.noc.config` — the simulation parameter set (R, RL, DCM/SCM,
  routing algorithm, AP/PP node architecture),
* :mod:`~repro.noc.message` / :mod:`~repro.noc.fifo` — packets and input FIFOs,
* :mod:`~repro.noc.node` — the routing element of Fig. 1 (F x F crossbar,
  input FIFOs, output registers) plus the PE injection port,
* :mod:`~repro.noc.traffic` — per-PE ordered message lists (the "equivalent
  interleaver" view of a decoding iteration) and seeded synthetic generators,
* :mod:`~repro.noc.engine` — the struct-of-arrays cycle engine
  (:class:`BatchNocSimulator`, the one production simulator) that measures
  ``ncycles`` and FIFO occupancies,
* :mod:`~repro.noc.engine_batch` — the job-batched kernel
  (:class:`BatchedNocKernel`) advancing many independent jobs one cycle per
  vectorized step,
* :mod:`~repro.noc.sweep` — the sweep scheduler (:func:`run_noc_sweep`):
  jobs grouped by (graph, configuration), each group dispatched to the
  batched kernel or the scalar engine by a fixed per-policy crossover
  (:class:`SweepCostModel`), optionally sharded across worker processes,
* :mod:`~repro.noc.simulator` — the per-object :class:`ReferenceNocSimulator`,
  the executable specification the engines are pinned against.
"""

from repro.noc.topologies import (
    Topology,
    TOPOLOGY_FAMILIES,
    build_topology,
    generalized_de_bruijn,
    generalized_kautz,
    honeycomb_torus,
    mesh_2d,
    ring,
    spidergon,
    toroidal_mesh,
)
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.config import (
    CollisionPolicy,
    NodeArchitecture,
    NocConfiguration,
    RoutingAlgorithm,
)
from repro.noc.message import Message
from repro.noc.fifo import MessageFifo
from repro.noc.traffic import (
    TrafficPattern,
    random_traffic,
    random_traffic_streams,
)
from repro.noc.engine import BatchNocSimulator
from repro.noc.engine_batch import BatchedNocKernel
from repro.noc.analytical import (
    ANALYTICAL_MODEL_VERSION,
    ERROR_TOLERANCES,
    AnalyticalEstimate,
    AnalyticalNocModel,
    ContentionFit,
    MetricTolerance,
    zero_contention_bound,
)
from repro.noc.sweep import (
    SWEEP_CACHE_CODE_VERSION,
    NocSweepCache,
    NocSweepJob,
    NocSweepOutcome,
    SweepCostModel,
    run_noc_sweep,
    scheduler_cost_model,
)
from repro.noc.results import SimulationResult
from repro.noc.simulator import ReferenceNocSimulator

__all__ = [
    "Topology",
    "TOPOLOGY_FAMILIES",
    "build_topology",
    "ring",
    "mesh_2d",
    "toroidal_mesh",
    "spidergon",
    "honeycomb_torus",
    "generalized_de_bruijn",
    "generalized_kautz",
    "RoutingTables",
    "build_routing_tables",
    "NocConfiguration",
    "RoutingAlgorithm",
    "CollisionPolicy",
    "NodeArchitecture",
    "Message",
    "MessageFifo",
    "TrafficPattern",
    "random_traffic",
    "random_traffic_streams",
    "BatchNocSimulator",
    "BatchedNocKernel",
    "ANALYTICAL_MODEL_VERSION",
    "ERROR_TOLERANCES",
    "AnalyticalEstimate",
    "AnalyticalNocModel",
    "ContentionFit",
    "MetricTolerance",
    "zero_contention_bound",
    "SWEEP_CACHE_CODE_VERSION",
    "NocSweepCache",
    "NocSweepJob",
    "NocSweepOutcome",
    "SweepCostModel",
    "run_noc_sweep",
    "scheduler_cost_model",
    "ReferenceNocSimulator",
    "SimulationResult",
]
