"""End-to-end tests of the asyncio decode service.

The load-bearing claims:

* service-decoded bits are **bit-identical** to a direct ``decode_batch``
  call on the same LLRs (property-tested over random frames), for both
  code families, whatever batches the scheduler happened to form;
* no request is lost or duplicated under concurrent mixed-family load;
* dispatch is work-conserving: an idle worker takes a lone request at the
  next loop turn, same-turn arrivals still share a batch, and lanes go
  oldest head first; while the worker is busy a lone request still
  completes within the latency budget (deadline flush);
* backpressure engages exactly at the configured bound in both modes;
* malformed payloads and unknown codecs fail at the boundary with typed
  :mod:`repro.errors` exceptions;
* the process-shard executor and the sync (thread) client return the same
  bits as the in-process paths, and every executor decodes with the
  service's own registry (a custom one included).
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
from repro.faults import FaultPlan
from repro.service import (
    CodecEntry,
    CodecRegistry,
    DecodeService,
    ResilienceConfig,
    ServiceThread,
    default_registry,
)
from repro.service.demo import generate_llr_frames, run_demo

LDPC = ("ldpc", 576, "1/2")
TURBO = ("turbo", 24, "1/2")
#: One radio frame: (codec, blocks) — 3 x LDPC 576, 1 x LDPC 2304 r5/6, 2 x CTC 48.
RADIO_FRAME = ((LDPC, 3), (("ldpc", 2304, "5/6"), 1), (("turbo", 48, "1/2"), 2))


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


async def _occupy_worker(service: DecodeService, llrs: np.ndarray, codec) -> asyncio.Task:
    """Submit one frame and yield until its batch holds the service's worker.

    The service's fault plan stalls that first dispatch (``hang@1``), so
    every later request queues behind a busy worker.
    """
    task = asyncio.create_task(service.submit(llrs, *codec))
    for _ in range(100):  # submit, then the pump: two loop turns
        if service.metrics_snapshot().batch_count:
            return task
        await asyncio.sleep(0)
    raise AssertionError("the first request was never dispatched")


def _one_iteration_ldpc(spec) -> CodecEntry:
    """A non-default ``ldpc`` builder: one iteration, no early exit.

    Module level so the registry also pickles under a spawn start method.
    """
    from repro.ldpc.wimax import wimax_ldpc_code
    from repro.sim.batch import BatchLayeredDecoder

    code = wimax_ldpc_code(spec.block, spec.rate)
    decoder = BatchLayeredDecoder(code.h, max_iterations=1, early_termination=False)
    return CodecEntry(
        spec=spec, code=code, decoder=decoder, n_bits=code.n, k_bits=code.k
    )


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
async def test_idle_service_dispatches_a_lone_request_at_the_next_turn(
    registry, ldpc_entry
):
    """A free worker takes a lone request at once, not after the budget."""
    rng = np.random.default_rng(3)
    llrs, _ = generate_llr_frames(ldpc_entry, 1, 3.0, rng)
    async with DecodeService(
        registry=registry, max_batch=64, max_delay_s=30.0, executor="inline"
    ) as service:
        response = await asyncio.wait_for(service.submit(llrs[0], *LDPC), timeout=10.0)
    assert response.batch_size == 1
    assert response.queued_s < service.max_delay_s


@pytest.mark.asyncio
async def test_busy_service_deadline_flushes_a_lone_request(registry, ldpc_entry):
    """Behind a busy worker a single request cannot fill a batch; the
    deadline must flush it, without waiting for the worker to come free."""
    rng = np.random.default_rng(3)
    llrs, _ = generate_llr_frames(ldpc_entry, 2, 3.0, rng)
    service = DecodeService(
        registry=registry,
        max_batch=64,
        max_delay_s=0.02,
        executor="inline",
        fault_plan=FaultPlan.from_string("hang@1:30"),
    )
    await service.start()
    occupier = await _occupy_worker(service, llrs[0], LDPC)
    response = await asyncio.wait_for(service.submit(llrs[1], *LDPC), timeout=10.0)
    assert not occupier.done()  # the worker never came free
    await service.stop(drain=False)
    with pytest.raises(ServiceClosedError):
        await occupier
    assert response.batch_size == 1
    assert response.queued_s >= 0.02  # it waited out the full budget
    np.testing.assert_array_equal(response.bits, _direct_bits(ldpc_entry, llrs[1]))


@pytest.mark.asyncio
async def test_radio_frame_on_an_idle_service_batches_per_lane_oldest_first(registry):
    """Six same-turn submits share one batch per lane, and the free worker
    takes the lanes oldest head first: batches of 3, 1 and 2, bit-exact."""
    rng = np.random.default_rng(21)
    frames = [
        (codec, generate_llr_frames(registry.resolve(*codec), count, 3.0, rng)[0])
        for codec, count in RADIO_FRAME
    ]
    async with DecodeService(
        registry=registry, max_batch=64, max_delay_s=30.0, executor="inline"
    ) as service:
        responses = await asyncio.wait_for(
            asyncio.gather(
                *(service.submit(row, *codec) for codec, llrs in frames for row in llrs)
            ),
            timeout=10.0,
        )
        snapshot = service.metrics_snapshot()
    assert snapshot.batch_count == 3
    assert [r.batch_size for r in responses] == [3, 3, 3, 1, 2, 2]
    # The idle worker took the oldest lane at once; each later lane's batch
    # waited only for the one dispatched before it.
    assert responses[0].queued_s < responses[3].queued_s < responses[4].queued_s
    assert responses[4].queued_s < service.max_delay_s
    rows = [
        bits
        for codec, llrs in frames
        for bits in registry.resolve(*codec).decoder.decode_batch(llrs).hard_bits
    ]
    for response, bits in zip(responses, rows):
        np.testing.assert_array_equal(response.bits, bits)


@pytest.mark.asyncio
async def test_reject_backpressure_engages_at_bound(registry, ldpc_entry):
    rng = np.random.default_rng(4)
    llrs, _ = generate_llr_frames(ldpc_entry, 5, 3.0, rng)
    service = DecodeService(
        registry=registry,
        max_batch=64,
        max_delay_s=30.0,  # nothing flushes on its own during the test
        queue_capacity=3,
        backpressure="reject",
        executor="inline",
        fault_plan=FaultPlan.from_string("hang@1:30"),
    )
    await service.start()
    occupier = await _occupy_worker(service, llrs[0], LDPC)
    pending = [asyncio.create_task(service.submit(row, *LDPC)) for row in llrs[1:4]]
    await asyncio.sleep(0)  # let all three enqueue behind the busy worker
    with pytest.raises(ServiceOverloadError) as excinfo:
        await service.submit(llrs[4], *LDPC)
    assert excinfo.value.retry_after_s > 0.0
    assert service.metrics_snapshot().rejected == 1
    # Drains and answers the three queued frames; the hung occupier is cut
    # off by the drain timeout.
    await service.stop(drain=True, drain_timeout_s=0.5)
    responses = await asyncio.gather(*pending)
    assert len({r.request_id for r in responses}) == 3
    with pytest.raises(ServiceClosedError):
        await occupier


@pytest.mark.asyncio
async def test_reject_retry_after_counts_down_the_head_deadline(registry, ldpc_entry):
    """A refused caller is told to come back no later than the queue head's
    deadline flush, behind a busy worker."""
    rng = np.random.default_rng(22)
    llrs, _ = generate_llr_frames(ldpc_entry, 3, 3.0, rng)
    service = DecodeService(
        registry=registry,
        max_batch=64,
        max_delay_s=1.0,
        queue_capacity=1,
        backpressure="reject",
        executor="inline",
        fault_plan=FaultPlan.from_string("hang@1:30"),
    )
    await service.start()
    occupier = await _occupy_worker(service, llrs[0], LDPC)
    queued = asyncio.create_task(service.submit(llrs[1], *LDPC))
    await asyncio.sleep(0)  # let it enqueue behind the busy worker
    with pytest.raises(ServiceOverloadError) as excinfo:
        await service.submit(llrs[2], *LDPC)
    assert 0.0 < excinfo.value.retry_after_s <= service.max_delay_s
    await service.stop(drain=False)
    for task in (occupier, queued):
        with pytest.raises(ServiceClosedError):
            await task


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
        {"max_batch": True},
        {"queue_capacity": True},
        {"max_delay_s": True},
        {"watchdog_s": True},
        {"shards": True},
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
@pytest.mark.parametrize("deadline_s", [float("nan"), float("inf"), "1", True])
async def test_non_finite_deadline_is_rejected(registry, deadline_s):
    async with DecodeService(
        registry=registry, max_batch=1, max_delay_s=0.0, executor="inline"
    ) as service:
        with pytest.raises(RequestValidationError, match="finite"):
            await service.submit(np.zeros(576), *LDPC, deadline_s=deadline_s)
        snapshot = service.metrics_snapshot()
    assert snapshot.submitted == 0


@pytest.mark.asyncio
@pytest.mark.parametrize("block", [576.9, 576.0, True, "576"])
async def test_non_integral_block_is_an_unknown_codec(registry, block):
    """``block=576.9`` must not be truncated onto the n=576 codec."""
    async with DecodeService(
        registry=registry, max_batch=1, max_delay_s=0.0, executor="inline"
    ) as service:
        with pytest.raises(UnknownCodecError, match="block must be an int"):
            await service.submit(np.zeros(576), "ldpc", block, "1/2")
        response = await service.submit(np.zeros(576), "ldpc", np.int64(576), "1/2")
    assert response.codec == "ldpc:576:1/2"


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


@pytest.mark.asyncio
@pytest.mark.parametrize("executor", ["inline", "thread", "process"])
async def test_every_executor_decodes_with_the_services_registry(executor):
    """A custom registry is honoured on every path, process shards included:
    their workers resolve codecs through the service's registry, which the
    pool initializer installs, not through the default one.  The first
    dispatch crashes, so the bits come from the retry — on a rebuilt pool
    for the process path."""
    custom = CodecRegistry()
    custom.register_family("ldpc", _one_iteration_ldpc)
    entry = custom.resolve(*LDPC)
    rng = np.random.default_rng(16)
    llrs, _ = generate_llr_frames(entry, 4, 1.0, rng)
    direct = entry.decoder.decode_batch(llrs)
    async with DecodeService(
        registry=custom,
        max_batch=4,
        max_delay_s=0.002,
        executor=executor,
        shards=1,
        fault_plan=FaultPlan.from_string("crash@1"),
        resilience=ResilienceConfig(
            max_attempts=2, backoff_base_s=1e-4, backoff_cap_s=1e-3
        ),
    ) as service:
        responses = await asyncio.gather(
            *(service.submit(row, *LDPC) for row in llrs)
        )
        snapshot = service.metrics_snapshot()
    assert snapshot.pool_rebuilds == (0 if executor == "inline" else 1)
    assert [r.iterations for r in responses] == [1, 1, 1, 1]
    assert [r.attempts for r in responses] == [2, 2, 2, 2]
    for index, response in enumerate(responses):
        np.testing.assert_array_equal(response.bits, direct.hard_bits[index])
        assert response.iterations == direct.iterations[index]
        assert response.converged == direct.converged[index]
        assert response.decode_path == executor


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
