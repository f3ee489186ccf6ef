"""Tests of the benchmark's own helpers: percentile rule, failure accounting, proxies."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.channel.quantize import CHANNEL_LLR_SPEC, LLRQuantizer
from repro.service.demo import generate_llr_frames
from repro.service.registry import default_registry
from repro.sim.runner import CHANNEL_FACTORIES

from perfbench import ber, serving
from perfbench.common import (
    END_TO_END,
    PER_LAYER,
    Busy,
    HostSpeed,
    Tally,
    TimedCode,
    TimedDecoder,
    TimedModulator,
    TimedQuantizer,
    emit,
    percentile,
    samples_beyond,
    timed_channel_factory,
    timed_registry,
)

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, pct, beyond",
    [(19, 50.0, 9), (20, 50.0, 10), (99, 90.0, 9), (100, 90.0, 10), (999, 99.0, 9),
     (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_samples_beyond_a_percentile(n, pct, beyond):
    assert samples_beyond(n, pct) == beyond


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(99))
    assert percentile(values, 90) == 0.0
    assert percentile(values + [99], 90) == pytest.approx(np.percentile(range(100), 90))
    assert percentile(values[:19], 50) == 0.0
    assert percentile(values[:20], 50) == pytest.approx(9.5)
    assert percentile([], 50) == 0.0


def test_host_speed_scales_by_the_mean_probe_of_a_window():
    host = HostSpeed()
    nominal = 0.005
    host.samples = [2 * nominal, 2 * nominal]
    mark = host.mark()
    host.samples += [nominal, 3 * nominal]
    assert host.factor(mark) == pytest.approx(0.5)
    assert host.factor() == pytest.approx(0.5)
    host.sample_after(0.0)
    assert len(host.samples) == 5 and host.samples[-1] > 0
    assert 0 < host.speed_ratio


# --------------------------------------------------------------------------- #
# Failure accounting: failures over attempts, never BER or FER
# --------------------------------------------------------------------------- #
def test_tally_counts_failed_operations():
    tally = Tally()
    for ok in (True, True, False, True):
        tally.record(ok, "boom")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_ratio == pytest.approx(0.25)
    assert tally.success_ratio == pytest.approx(0.75)
    tally.fail_existing("late check")
    assert (tally.attempted, tally.failed) == (4, 2)


def test_bit_errors_are_not_failures():
    chain = ber._Chain(ber.WORKLOADS["ber_ldpc576_fx"])
    tally = Tally()
    points, _, _ = ber._timed_ops(chain, 3, 0.0, tally, HostSpeed(), count=2)
    assert sum(p.bit_errors for p in points) > 0  # 2.0 dB leaves residual errors
    assert (tally.attempted, tally.failed) == (2, 0)


def test_error_rate_check_uses_the_recorded_reference():
    reference = {"rate": 4e-3, "design_effect": 100.0}
    assert ber.within_reference(400, 100_000, reference)
    assert not ber.within_reference(5_000, 100_000, reference)
    # The design effect widens the interval: 600 errors pass only when clustered.
    assert not ber.within_reference(600, 100_000, {"rate": 4e-3, "design_effect": 1.0})
    assert ber.within_reference(600, 100_000, reference)


def test_service_check_counts_errors_and_wrong_bits():
    expected = [np.zeros((2, 4), dtype=np.int8)]

    def outcome(bits, error=None):
        response = None
        if bits is not None:
            response = type("R", (), {"bits": np.asarray(bits, dtype=np.int8)})()
        return serving.Outcome(0, 1, 0.0, 0.1, response, error)

    tally = Tally()
    serving._check(
        [outcome([0, 0, 0, 0]), outcome([0, 1, 0, 0]), outcome(None, "DeadlineExceededError")],
        expected,
        tally,
    )
    assert (tally.attempted, tally.failed) == (3, 2)


def test_emit_fills_unmeasured_layers_with_zero_and_rejects_strays():
    result = emit(True, Tally(attempted=1), {"trace.wall_s": 1.5}, trace=True)
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["service.batches"]["value"] == 0.0
    with pytest.raises(KeyError):
        emit(True, Tally(attempted=1), {"latency_p99_ms": 1.0}, trace=False)
    with pytest.raises(KeyError):
        emit(True, Tally(attempted=1), {"setup_s": 1.0}, trace=False)


def test_catalogue_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        assert declared == catalogue


# --------------------------------------------------------------------------- #
# Timing proxies return exactly what the bare objects return
# --------------------------------------------------------------------------- #
def test_proxied_ber_chain_is_bit_identical():
    chain = ber._Chain(ber.WORKLOADS["ber_ldpc576_fx"])
    busy = Busy()
    proxies = {
        "code": TimedCode(chain.code, busy),
        "decoder": TimedDecoder(chain.decoder),
        "modulator": TimedModulator(chain.modulator, busy),
        "channel": timed_channel_factory(CHANNEL_FACTORIES["awgn"], busy),
        "quantizer": TimedQuantizer(chain.quantizer, busy),
    }
    bare = chain.runner(5, 0, frames=8).run_point(1.5)
    traced = chain.runner(5, 0, frames=8, **proxies).run_point(1.5)
    assert traced == bare
    assert busy.calls == 5  # encode, modulate, transmit, demap, quantise
    assert len(proxies["decoder"].calls) == 1


def test_timed_quantizer_matches_the_bare_quantizer():
    values = np.linspace(-80.0, 80.0, 257)
    bare = LLRQuantizer(CHANNEL_LLR_SPEC)
    timed = TimedQuantizer(bare, Busy())
    np.testing.assert_array_equal(timed.quantize_to_real(values), bare.quantize_to_real(values))


@pytest.mark.parametrize("codec", [("ldpc", 576, "1/2"), ("turbo", 48, "1/2")])
def test_proxied_registry_decodes_bit_identically(codec):
    base = default_registry()
    registry, proxies = timed_registry(base)
    entry = registry.resolve(*codec)
    bare_entry = base.resolve(*codec)
    llrs, _ = generate_llr_frames(bare_entry, 3, 1.0, np.random.default_rng(7))
    got = entry.decoder.decode_batch(llrs)
    want = bare_entry.decoder.decode_batch(llrs)
    np.testing.assert_array_equal(got.hard_bits, want.hard_bits)
    np.testing.assert_array_equal(got.iterations, want.iterations)
    np.testing.assert_array_equal(got.converged, want.converged)
    assert entry.decides_info_bits == bare_entry.decides_info_bits
    (call,) = proxies[entry.spec.label].calls
    assert call.rows == 3 and call.end >= call.start
    assert {s.label for s in registry.specs()} == {s.label for s in base.specs()}
