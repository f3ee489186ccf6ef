#!/usr/bin/env python3
"""Decode-as-a-service demo: many concurrent clients, one batching service.

Spawns N asyncio clients that each submit one noisy AWGN frame (mixed WiMAX
LDPC and duo-binary turbo codecs) to a :class:`repro.service.DecodeService`.
The service aggregates compatible requests into dynamic batches under a
latency budget, dispatches them to the batch engines, and answers each
client with its decoded bits plus a queue/decode latency breakdown.  At the
end it prints a metrics snapshot (batch-size histogram, p50/p99 latency,
throughput) and per-codec BER against the transmitted reference bits.

This is a thin CLI wrapper around :mod:`repro.service.demo`; the same entry
point is installed as ``python -m repro.service``.  Try::

    python examples/decode_service_demo.py --requests 100
    python examples/decode_service_demo.py --requests 200 --executor process --shards 2
    python examples/decode_service_demo.py --backpressure reject --max-batch 8
"""

from __future__ import annotations

import sys

from repro.service.demo import main

if __name__ == "__main__":
    sys.exit(main())
