#!/usr/bin/env python3
"""Architecture tour: the structures behind the paper's Figures 1, 2 and 3.

The paper's figures are block diagrams rather than measured data; this example
"reproduces" them by instantiating the corresponding models and printing their
structure: the NoC node (routing element + PE + memory, Fig. 1), the LDPC
decoding core (Fig. 2) and the turbo SISO (Fig. 3), plus the shared-memory
sizing discussed in Section IV-B.

Run with ``python examples/architecture_tour.py``.
"""

from __future__ import annotations

from repro import DecoderSpec, NocDecoderArchitecture
from repro.hw import NocAreaModel, plan_shared_memories


def print_block(title: str, blocks: dict[str, str]) -> None:
    print(title)
    width = max(len(name) for name in blocks)
    for name, description in blocks.items():
        print(f"  {name.ljust(width)} : {description}")
    print()


def main() -> None:
    decoder = NocDecoderArchitecture(DecoderSpec())
    topology = decoder.topology
    tables = decoder.routing_tables

    # ------------------------------------------------------------------ #
    # Fig. 1 — node structure and the NoC around it.
    # ------------------------------------------------------------------ #
    print("=" * 72)
    print("Fig. 1 - NoC node structure (RE + PE + MEM)")
    print("=" * 72)
    config = decoder.spec.noc
    crossbar = topology.crossbar_size
    print_block(
        f"Routing element of one node ({topology.name})",
        {
            "crossbar": f"{crossbar} x {crossbar} ports (D = {topology.degree} links + 1 local port)",
            "input FIFOs": f"{crossbar} FIFOs, flit width {config.flit_bits(topology.n_nodes)} bits "
            f"({config.node_architecture.value} architecture)",
            "output registers": f"{crossbar} registers, one per output port",
            "routing": f"{config.routing_algorithm.value} from precomputed shortest-path tables",
            "location memory": "destination address t' of every incoming message",
        },
    )
    print(
        f"network: {topology.n_nodes} nodes, {topology.n_arcs} unidirectional links, "
        f"diameter {tables.diameter}, average distance {tables.average_distance:.2f}"
    )
    noc_area = NocAreaModel().noc_area_mm2(
        topology.n_nodes, crossbar, config, per_node_fifo_depth=4
    )
    print(f"NoC area model (FIFO depth 4): {noc_area:.2f} mm^2 at 90 nm\n")

    # ------------------------------------------------------------------ #
    # Figs. 2 and 3 — the two decoding cores of each PE.
    # ------------------------------------------------------------------ #
    processing_element = decoder.processing_elements()[0]
    structure = processing_element.structure()
    print("=" * 72)
    print("Fig. 2 - LDPC decoding core")
    print("=" * 72)
    print_block("blocks", structure["LDPC decoding core"])

    print("=" * 72)
    print("Fig. 3 - Turbo decoding core (SISO)")
    print("=" * 72)
    print_block("blocks", structure["Turbo decoding core (SISO)"])

    # ------------------------------------------------------------------ #
    # Section IV-B — shared memory sizing.
    # ------------------------------------------------------------------ #
    print("=" * 72)
    print("Section IV-B - shared memories of the SISO / LDPC cores")
    print("=" * 72)
    plan = plan_shared_memories(n_pes=decoder.spec.parallelism)
    print(plan.describe())
    print_block("mapped contents", structure["shared memories"])


if __name__ == "__main__":
    main()
