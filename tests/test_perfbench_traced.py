"""The traced decode-service workload of ``perfbench`` reads correct.

Only the traced run decodes through the timing proxies of
``CodecRegistry.register_family`` and requires each batch to line up with
one ``decode_batch`` call (``perfbench/serving.py:_batch_split``); the
untraced workload takes neither path.  The run lasts about a second.
"""

from __future__ import annotations

from perfbench import serving


def test_traced_service_workload_reads_correct():
    result = serving.run("service_radio_frames", seed=0, seconds=1.0, trace=True, reference={})
    assert result["failed"] == 0
    assert result["correct"] is True
