"""Registry and shard-worker decode tests for the service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import UnknownCodecError
from repro.service.registry import CodecSpec, default_registry
from repro.service.resilience import decode_in_worker


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestRegistry:
    def test_resolves_and_caches_ldpc(self, registry):
        entry = registry.resolve("ldpc", 576, "1/2")
        assert entry.n_bits == 576
        assert entry.k_bits == 288
        assert not entry.decides_info_bits
        assert registry.resolve("ldpc", 576, "1/2") is entry  # cached

    def test_resolves_turbo(self, registry):
        entry = registry.resolve("turbo", 48, "1/2")
        assert entry.n_bits == 4 * 48
        assert entry.k_bits == 2 * 48
        assert entry.decides_info_bits

    def test_resolves_wifi(self, registry):
        entry = registry.resolve("wifi", 1944, "1/2")
        assert entry.n_bits == 1944
        assert entry.k_bits == 972
        assert not entry.decides_info_bits
        assert registry.resolve("wifi", 1944, "1/2") is entry  # cached

    def test_unknown_family(self, registry):
        with pytest.raises(UnknownCodecError, match="polar"):
            registry.resolve("polar", 1024, "1/2")

    def test_unknown_block_and_rate_list_served_codecs(self, registry):
        with pytest.raises(UnknownCodecError, match="ldpc:577:1/2"):
            registry.resolve("ldpc", 577, "1/2")
        with pytest.raises(UnknownCodecError, match="turbo:48:7/8"):
            registry.resolve("turbo", 48, "7/8")

    def test_advertised_specs_cover_all_families(self, registry):
        specs = registry.specs()
        families = {spec.family for spec in specs}
        assert families == {"ldpc", "wifi", "turbo"}
        assert CodecSpec("ldpc", 2304, "1/2") in specs
        assert CodecSpec("wifi", 1944, "1/2") in specs
        assert CodecSpec("wifi", 1944, "5/6") in specs
        assert CodecSpec("turbo", 48, "1/3") in specs

    def test_wifi_rejects_non_advertised_parameters(self, registry):
        with pytest.raises(UnknownCodecError, match="wifi:648:1/2"):
            registry.resolve("wifi", 648, "1/2")
        with pytest.raises(UnknownCodecError, match="wifi:1944:3/4"):
            registry.resolve("wifi", 1944, "3/4")

    def test_spec_label_and_key(self):
        spec = CodecSpec("ldpc", 576, "2/3A")
        assert spec.label == "ldpc:576:2/3A"
        assert spec.key == ("ldpc", 576, "2/3A")


class TestShardWorker:
    def test_decode_in_worker_matches_direct_decode(self, registry):
        entry = registry.resolve("ldpc", 576, "1/2")
        rng = np.random.default_rng(7)
        llrs = rng.normal(0.0, 2.0, size=(3, entry.n_bits))
        hard, iterations, converged = decode_in_worker(entry.spec.key, llrs)
        direct = entry.decoder.decode_batch(llrs)
        np.testing.assert_array_equal(hard, direct.hard_bits)
        np.testing.assert_array_equal(iterations, direct.iterations)
        np.testing.assert_array_equal(converged, direct.converged)
