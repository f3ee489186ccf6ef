"""End-to-end tests of the asyncio decode service.

The load-bearing claims:

* service-decoded bits are **bit-identical** to a direct ``decode_batch``
  call on the same LLRs (property-tested over random frames), for both
  code families, whatever batches the scheduler happened to form;
* no request is lost or duplicated under concurrent mixed-family load;
* a lone request still completes within the latency budget (deadline
  flush), and backpressure engages exactly at the configured bound in both
  modes;
* malformed payloads and unknown codecs fail at the boundary with typed
  :mod:`repro.errors` exceptions;
* the process-shard executor and the sync (thread) client return the same
  bits as the in-process paths.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    RequestValidationError,
    ServiceClosedError,
    ServiceOverloadError,
    UnknownCodecError,
)
from repro.service import DecodeService, ServiceThread, default_registry
from repro.service.demo import generate_llr_frames, run_demo

LDPC = ("ldpc", 576, "1/2")
TURBO = ("turbo", 24, "1/2")


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def ldpc_entry(registry):
    return registry.resolve(*LDPC)


@pytest.fixture(scope="module")
def turbo_entry(registry):
    return registry.resolve(*TURBO)


def _direct_bits(entry, llrs: np.ndarray) -> np.ndarray:
    """Reference decode of one frame: direct batch=1 engine call."""
    bits, _, _ = entry.decoder.decode_batch(llrs[None]).frame(0)
    return bits


@pytest.mark.asyncio
async def test_mixed_families_bit_identical_and_conserved(
    registry, ldpc_entry, turbo_entry
):
    """Concurrent LDPC+turbo clients: every request answered, bits exact."""
    rng = np.random.default_rng(42)
    ldpc_llrs, _ = generate_llr_frames(ldpc_entry, 11, 2.0, rng)
    turbo_llrs, _ = generate_llr_frames(turbo_entry, 7, 1.5, rng)
    async with DecodeService(
        registry=registry, max_batch=4, max_delay_s=0.002, executor="inline"
    ) as service:
        tasks = [
            service.submit(row, *LDPC) for row in ldpc_llrs
        ] + [
            service.submit(row, *TURBO) for row in turbo_llrs
        ]
        responses = await asyncio.gather(*tasks)
        snapshot = service.metrics_snapshot()

    assert len(responses) == 18
    assert len({r.request_id for r in responses}) == 18  # no duplication
    for row, response in zip(ldpc_llrs, responses[:11]):
        assert response.codec == "ldpc:576:1/2"
        assert not response.decides_info_bits
        np.testing.assert_array_equal(response.bits, _direct_bits(ldpc_entry, row))
    for row, response in zip(turbo_llrs, responses[11:]):
        assert response.codec == "turbo:24:1/2"
        assert response.decides_info_bits
        np.testing.assert_array_equal(response.bits, _direct_bits(turbo_entry, row))
    assert snapshot.submitted == snapshot.completed == 18
    assert snapshot.rejected == 0
    assert sum(size * n for size, n in snapshot.batch_size_histogram.items()) == 18
    assert all(depth == 0 for depth in snapshot.queue_depths.values())
    assert snapshot.throughput_fps > 0.0
    assert snapshot.total_p99_s >= snapshot.queue_p50_s >= 0.0


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5))
@settings(max_examples=12, deadline=None)
def test_service_bits_identical_to_direct_decode_property(seed, count):
    """Whatever batches form, per-request bits equal a batch=1 direct decode."""
    registry = default_registry()
    entry = registry.resolve(*LDPC)
    rng = np.random.default_rng(seed)
    llrs = rng.normal(0.0, 2.0, size=(count, entry.n_bits))

    async def scenario():
        async with DecodeService(
            registry=registry, max_batch=3, max_delay_s=0.001, executor="inline"
        ) as service:
            return await asyncio.gather(
                *(service.submit(row, *LDPC) for row in llrs)
            )

    responses = asyncio.run(scenario())
    for row, response in zip(llrs, responses):
        np.testing.assert_array_equal(response.bits, _direct_bits(entry, row))
        direct = entry.decoder.decode_batch(row[None])
        assert response.iterations == int(direct.iterations[0])
        assert response.converged == bool(direct.converged[0])


@pytest.mark.asyncio
async def test_deadline_flush_serves_a_lone_request(registry, ldpc_entry):
    """A single request cannot fill a batch; the deadline must flush it."""
    rng = np.random.default_rng(3)
    llrs, _ = generate_llr_frames(ldpc_entry, 1, 3.0, rng)
    async with DecodeService(
        registry=registry, max_batch=64, max_delay_s=0.02, executor="inline"
    ) as service:
        response = await asyncio.wait_for(service.submit(llrs[0], *LDPC), timeout=10.0)
    assert response.batch_size == 1
    assert response.queued_s >= 0.02  # it waited out the full budget


@pytest.mark.asyncio
async def test_reject_backpressure_engages_at_bound(registry, ldpc_entry):
    rng = np.random.default_rng(4)
    llrs, _ = generate_llr_frames(ldpc_entry, 4, 3.0, rng)
    service = DecodeService(
        registry=registry,
        max_batch=64,
        max_delay_s=30.0,  # nothing flushes on its own during the test
        queue_capacity=3,
        backpressure="reject",
        executor="inline",
    )
    await service.start()
    pending = [asyncio.create_task(service.submit(row, *LDPC)) for row in llrs[:3]]
    await asyncio.sleep(0)  # let all three enqueue
    with pytest.raises(ServiceOverloadError) as excinfo:
        await service.submit(llrs[3], *LDPC)
    assert excinfo.value.retry_after_s > 0.0
    assert service.metrics_snapshot().rejected == 1
    await service.stop(drain=True)  # drains and answers the three queued frames
    responses = await asyncio.gather(*pending)
    assert len({r.request_id for r in responses}) == 3


@pytest.mark.asyncio
async def test_wait_backpressure_blocks_then_completes_everything(
    registry, ldpc_entry
):
    rng = np.random.default_rng(5)
    llrs, _ = generate_llr_frames(ldpc_entry, 6, 3.0, rng)
    async with DecodeService(
        registry=registry,
        max_batch=2,
        max_delay_s=0.005,
        queue_capacity=2,
        backpressure="wait",
        executor="inline",
    ) as service:
        responses = await asyncio.gather(
            *(service.submit(row, *LDPC) for row in llrs)
        )
        snapshot = service.metrics_snapshot()
    assert len(responses) == 6
    assert snapshot.completed == 6
    assert snapshot.rejected == 0
    assert max(snapshot.batch_size_histogram) <= 2


@pytest.mark.asyncio
async def test_boundary_validation_raises_typed_errors(registry):
    async with DecodeService(registry=registry, executor="inline") as service:
        with pytest.raises(UnknownCodecError):
            await service.submit(np.zeros(576), "polar", 576, "1/2")
        with pytest.raises(UnknownCodecError):
            await service.submit(np.zeros(576), "ldpc", 576, "9/9")
        with pytest.raises(RequestValidationError, match="length 576"):
            await service.submit(np.zeros(575), *LDPC)
        with pytest.raises(RequestValidationError, match="one frame per request"):
            await service.submit(np.zeros((2, 576)), *LDPC)
        with pytest.raises(RequestValidationError, match="NaN"):
            bad = np.zeros(576)
            bad[7] = np.nan
            await service.submit(bad, *LDPC)
        with pytest.raises(RequestValidationError, match="real-numeric"):
            await service.submit(np.array(["x"] * 576), *LDPC)
        snapshot = service.metrics_snapshot()
    assert snapshot.validation_failures == 4
    assert snapshot.submitted == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_batch": 0},
        {"max_batch": -3},
        {"max_delay_s": float("nan")},
        {"max_delay_s": float("inf")},
        {"max_delay_s": -0.001},
        {"queue_capacity": 2.5},
        {"watchdog_s": float("nan")},
        {"watchdog_s": float("inf")},
    ],
    ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
)
def test_invalid_service_parameters_fail_at_construction(registry, kwargs):
    """Bad knobs raise a typed error up front, not at the first submit
    (where a NaN flush delay would wedge the event loop)."""
    with pytest.raises(ConfigurationError):
        DecodeService(registry=registry, **kwargs)


@pytest.mark.parametrize(
    "kwargs", [{"shards": "auto"}, {"watchdog_s": "auto"}], ids=["shards", "watchdog"]
)
def test_auto_modes_are_gone(registry, kwargs):
    """Shard count and watchdog are explicit: ``"auto"`` is a typed error."""
    with pytest.raises(ConfigurationError):
        DecodeService(registry=registry, **kwargs)


@pytest.mark.parametrize("argv", [["--shards", "auto"], ["--watchdog", "auto"]])
def test_demo_cli_rejects_auto(argv):
    from repro.service.demo import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse usage error


@pytest.mark.asyncio
@pytest.mark.parametrize("deadline_s", [float("nan"), float("inf")])
async def test_non_finite_deadline_is_rejected(registry, deadline_s):
    async with DecodeService(
        registry=registry, max_batch=1, max_delay_s=0.0, executor="inline"
    ) as service:
        with pytest.raises(RequestValidationError, match="finite"):
            await service.submit(np.zeros(576), *LDPC, deadline_s=deadline_s)
        snapshot = service.metrics_snapshot()
    assert snapshot.submitted == 0


@pytest.mark.asyncio
async def test_submit_after_stop_raises(registry):
    service = DecodeService(registry=registry, executor="inline")
    await service.start()
    await service.stop()
    with pytest.raises(ServiceClosedError):
        await service.submit(np.zeros(576), *LDPC)


@pytest.mark.asyncio
async def test_process_shard_mode_bit_identical(registry, ldpc_entry):
    """Sharded decoding returns exactly the in-process bits."""
    rng = np.random.default_rng(6)
    llrs, _ = generate_llr_frames(ldpc_entry, 6, 2.0, rng)
    async with DecodeService(
        registry=registry,
        max_batch=3,
        max_delay_s=0.002,
        executor="process",
        shards=2,
    ) as service:
        assert service.shards == 2
        responses = await asyncio.gather(
            *(service.submit(row, *LDPC) for row in llrs)
        )
    for row, response in zip(llrs, responses):
        np.testing.assert_array_equal(response.bits, _direct_bits(ldpc_entry, row))


def test_sync_client_through_service_thread(registry, ldpc_entry):
    """The blocking facade decodes from a plain synchronous caller."""
    rng = np.random.default_rng(8)
    llrs, _ = generate_llr_frames(ldpc_entry, 2, 2.0, rng)
    with ServiceThread(
        registry=registry, max_batch=8, max_delay_s=0.002, executor="thread"
    ) as client:
        first = client.decode_sync(llrs[0], *LDPC, timeout=30.0)
        second = client.decode_sync(llrs[1], *LDPC, timeout=30.0)
        snapshot = client.metrics_snapshot()
    np.testing.assert_array_equal(first.bits, _direct_bits(ldpc_entry, llrs[0]))
    np.testing.assert_array_equal(second.bits, _direct_bits(ldpc_entry, llrs[1]))
    assert snapshot.completed == 2


def test_demo_cli_main_parses_and_runs(capsys):
    """The ``python -m repro.service`` entry point end to end."""
    from repro.service.demo import main

    rc = main(
        [
            "--requests", "12",
            "--max-batch", "8",
            "--delay-ms", "2",
            "--ldpc-only",
            "--seed", "11",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "12/12 frames decoded" in out
    assert "ldpc:576:1/2" in out


def test_demo_smoke_returns_consistent_payload(registry):
    """The CLI demo's workload: all frames decoded, metrics consistent."""
    payload = run_demo(
        requests=24,
        ebn0_db=2.0,
        codecs=(LDPC, TURBO),
        max_batch=16,
        max_delay_s=0.002,
        registry=registry,
        quiet=True,
    )
    assert payload["requests"] == 24
    assert payload["metrics"]["completed"] == 24
    assert payload["metrics"]["rejected"] == 0
    assert payload["throughput_fps"] > 0.0
    assert set(payload["per_codec"]) == {"ldpc:576:1/2", "turbo:24:1/2"}
