"""Frame-sharded turbo decoding: ``decode_batch`` across processes ≡ ``decode_split``.

:meth:`repro.sim.turbo_batch.BatchTurboDecoder.decode_batch` splits a large
batch into one contiguous frame shard per CPU, decodes the first in the
calling process and the rest on the shared worker pool
(:mod:`repro.utils.pool`), and joins the shards' results in frame order.
These tests pin:

* every field of the sharded result, ``decision_changes`` included, equals
  the serial ``decode_split`` of the whole batch, for odd and even batches,
  both exchange modes, early termination on and off, two and three shards,
  and on one real CTC 2400 batch of 32 at the real threshold;
* the rule: serial on one CPU, below ``_SHARD_MIN_COUPLES`` couple-frames
  per shard, and inside a child process (so service shards and pool workers
  never start a pool of their own);
* a shard worker that dies raises ``DecodingError`` with the pool's error
  chained, and the next call builds a fresh pool and is still exact; an
  error in the local shard leaves the pool idle;
* a ``DecodeService`` on process shards, given a turbo batch over the
  threshold, resolves to the bits of a direct decode without sharding
  inside its workers.

Nothing here reads a clock.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

import numpy as np
import pytest

import repro.sim.turbo_batch as turbo_batch
import repro.utils.pool as pool_mod
from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.errors import DecodingError
from repro.service import DecodeService, default_registry
from repro.sim import BatchTurboDecoder, resolve_code_rate
from repro.turbo import TurboEncoder


@pytest.fixture(autouse=True)
def _fresh_shared_pool():
    """Every test starts and ends without the shared pool, so the pools it
    counts are built in the test and fresh workers see the test's patches."""
    pool_mod.drop_pool()
    yield
    pool_mod.drop_pool()


def _llrs(n_couples: int, batch: int, seed: int, rate: str = "1/2") -> tuple:
    """A decoder-ready encoder and flat AWGN channel LLRs at 1.0 dB."""
    encoder = TurboEncoder(n_couples=n_couples, rate=rate)
    rng = np.random.default_rng(seed)
    modulator = BPSKModulator()
    channel = AWGNChannel(ebn0_to_noise_sigma(1.0, resolve_code_rate(rate)), rng)
    codewords = encoder.encode_batch(rng.integers(0, 2, (batch, encoder.k)))
    received = channel.transmit(modulator.modulate(codewords))
    return encoder, modulator.demodulate_llr(received, channel.llr_noise_variance(False))


def _serial(decoder: BatchTurboDecoder, llrs: np.ndarray):
    return decoder.decode_split(*decoder.split_llrs_batch(llrs))


def _assert_same_result(first, second):
    for name in ("hard_bits", "hard_symbols", "aposteriori", "iterations", "converged"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert first.decision_changes == second.decision_changes


def _shard_on(monkeypatch, cpus: int = 2, min_couples: int | None = 1) -> list[int]:
    """Let ``decode_batch`` shard over ``cpus`` CPUs (threshold ``min_couples``,
    ``None``: the real one); returns the worker counts it asks the pool for."""
    monkeypatch.setattr(turbo_batch, "available_cpus", lambda: cpus)
    if min_couples is not None:
        monkeypatch.setattr(turbo_batch, "_SHARD_MIN_COUPLES", min_couples)
    asked: list[int] = []
    real = turbo_batch.shared_pool

    def spy(workers):
        asked.append(workers)
        return real(workers)

    monkeypatch.setattr(turbo_batch, "shared_pool", spy)
    return asked


def _die_in_worker(*args):
    os._exit(1)


def _refuse_pool(workers):
    raise AssertionError("a child process must not start a pool")


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("n_couples", [48, 240])
    @pytest.mark.parametrize("batch", [2, 5, 8])
    @pytest.mark.parametrize("bit_level", [False, True])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_every_field_matches_decode_split(
        self, monkeypatch, n_couples, batch, bit_level, early_termination
    ):
        encoder, llrs = _llrs(n_couples, batch, seed=n_couples + batch)
        decoder = BatchTurboDecoder(
            encoder, max_iterations=6, bit_level_exchange=bit_level,
            early_termination=early_termination,
        )
        serial = _serial(decoder, llrs)
        asked = _shard_on(monkeypatch)
        _assert_same_result(decoder.decode_batch(llrs), serial)
        assert asked == [1]  # two shards: one local, one on a worker

    @pytest.mark.parametrize("batch", [3, 7])
    def test_three_shards_on_a_rate_third_code(self, monkeypatch, batch):
        encoder, llrs = _llrs(48, batch, seed=batch, rate="1/3")
        decoder = BatchTurboDecoder(encoder, max_iterations=6)
        serial = _serial(decoder, llrs)
        asked = _shard_on(monkeypatch, cpus=3)
        _assert_same_result(decoder.decode_batch(llrs), serial)
        assert asked == [2]

    def test_ctc2400_batch32_at_the_real_threshold(self, monkeypatch):
        """The ``ber_ctc2400`` shape shards with no help (two CPUs assumed,
        so the case runs the same on any host)."""
        encoder, llrs = _llrs(2400, 32, seed=0)
        decoder = BatchTurboDecoder(encoder, max_iterations=8)
        serial = _serial(decoder, llrs)
        asked = _shard_on(monkeypatch, min_couples=None)
        _assert_same_result(decoder.decode_batch(llrs), serial)
        assert asked == [1]

    def test_the_pool_is_kept_across_calls(self, monkeypatch):
        encoder, llrs = _llrs(48, 6, seed=4)
        decoder = BatchTurboDecoder(encoder)
        _shard_on(monkeypatch)
        first = decoder.decode_batch(llrs)
        pool = pool_mod._POOL
        assert pool is not None
        _assert_same_result(decoder.decode_batch(llrs), first)
        assert pool_mod._POOL is pool

    def test_construction_starts_no_pool(self, monkeypatch):
        _shard_on(monkeypatch)
        BatchTurboDecoder(TurboEncoder(n_couples=2400))
        assert pool_mod._POOL is None


class TestShardRule:
    def test_one_cpu_is_serial(self, monkeypatch):
        monkeypatch.setattr(turbo_batch, "_SHARD_MIN_COUPLES", 1)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert turbo_batch._shard_count(64, 2400) == 1

    def test_threshold_is_per_shard(self, monkeypatch):
        monkeypatch.setattr(turbo_batch, "available_cpus", lambda: 2)
        threshold = turbo_batch._SHARD_MIN_COUPLES
        # Exactly the threshold per shard shards; one couple-frame less does not.
        assert turbo_batch._shard_count(2, threshold) == 2
        assert turbo_batch._shard_count(2, threshold - 1) == 1
        monkeypatch.setattr(turbo_batch, "available_cpus", lambda: 4)
        assert turbo_batch._shard_count(4, threshold) == 4
        assert turbo_batch._shard_count(4, threshold - 1) == 1

    def test_no_more_shards_than_frames(self, monkeypatch):
        monkeypatch.setattr(turbo_batch, "available_cpus", lambda: 8)
        monkeypatch.setattr(turbo_batch, "_SHARD_MIN_COUPLES", 1)
        assert turbo_batch._shard_count(3, 48) == 3
        assert turbo_batch._shard_count(1, 48) == 1

    def test_service_workloads_stay_serial(self):
        """CTC 48 at the service's batches of 1-3 never shards, on any CPU count."""
        for cpus in (2, 4, 64):
            assert 3 * 48 < turbo_batch._SHARD_MIN_COUPLES * cpus

    def test_child_process_is_serial(self, monkeypatch):
        monkeypatch.setattr(turbo_batch, "available_cpus", lambda: 2)
        monkeypatch.setattr(turbo_batch, "_SHARD_MIN_COUPLES", 1)
        assert turbo_batch._shard_count(32, 2400) == 2
        with ProcessPoolExecutor(max_workers=1) as executor:
            assert executor.submit(turbo_batch._shard_count, 32, 2400).result() == 1


class TestBrokenPool:
    def test_dead_worker_raises_decoding_error_then_recovers(self, monkeypatch):
        encoder, llrs = _llrs(48, 6, seed=9)
        decoder = BatchTurboDecoder(encoder)
        serial = _serial(decoder, llrs)
        asked = _shard_on(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(turbo_batch, "_decode_shard", _die_in_worker)
            with pytest.raises(DecodingError, match="worker pool broke") as excinfo:
                decoder.decode_batch(llrs)
        assert isinstance(excinfo.value.__cause__, BrokenExecutor)
        assert pool_mod._POOL is None
        _assert_same_result(decoder.decode_batch(llrs), serial)
        assert asked == [1, 1] and pool_mod._POOL is not None

    def test_local_error_leaves_the_pool_idle(self, monkeypatch):
        encoder, llrs = _llrs(48, 6, seed=10)
        decoder = BatchTurboDecoder(encoder)
        serial = _serial(decoder, llrs)
        _shard_on(monkeypatch)
        parent = os.getpid()
        real = BatchTurboDecoder.decode_split

        def fail_here(self, *blocks):
            if os.getpid() == parent:
                raise DecodingError("local shard failed")
            return real(self, *blocks)

        with monkeypatch.context() as patch:
            patch.setattr(BatchTurboDecoder, "decode_split", fail_here)
            with pytest.raises(DecodingError, match="local shard failed"):
                decoder.decode_batch(llrs)
            pool = pool_mod._POOL
            assert pool is not None and not pool._pending_work_items
        _assert_same_result(decoder.decode_batch(llrs), serial)
        assert pool_mod._POOL is pool


@pytest.mark.asyncio
async def test_process_shard_service_resolves_a_large_turbo_batch(monkeypatch):
    """Service shard workers are child processes: a turbo batch over the
    threshold decodes serially inside them (a pool started there would
    fail the attempt) and resolves to the direct decode's bits."""
    registry = default_registry()
    entry = registry.resolve("turbo", 48, "1/2")
    _, llrs = _llrs(48, 8, seed=21)
    direct = _serial(entry.decoder, llrs)
    monkeypatch.setattr(turbo_batch, "available_cpus", lambda: 2)
    monkeypatch.setattr(turbo_batch, "_SHARD_MIN_COUPLES", 1)
    monkeypatch.setattr(turbo_batch, "shared_pool", _refuse_pool)
    async with DecodeService(
        registry=registry, max_batch=8, max_delay_s=0.05, executor="process", shards=1,
    ) as service:
        responses = await asyncio.gather(
            *(service.submit(row, "turbo", 48, "1/2") for row in llrs)
        )
        batches = service.metrics_snapshot().batch_count
    assert batches < len(llrs)  # at least one batch of several frames
    for index, response in enumerate(responses):
        np.testing.assert_array_equal(response.bits, direct.hard_bits[index])
        assert response.iterations == direct.iterations[index]
        assert response.converged == direct.converged[index]
        assert (response.decode_path, response.attempts) == ("process", 1)
