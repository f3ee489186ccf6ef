"""Scenario-matrix acceptance tests: fading, 16-QAM, fixed-point LLRs, 802.11n.

These pin the sanity of every scenario the batched chain was opened to:

* Rayleigh fading (per-symbol and block) is strictly worse than AWGN at
  equal average Eb/N0 — with Wilson-interval separation, not just point
  estimates;
* the Gray 16-QAM demapper equals a brute-force 16-point max-log reference;
* the paper's fixed-point datapath (7/1 channel LLRs through the runner's
  ``llr_quantizer``, 5/0 extrinsics via ``fixed_point=True``) costs
  at most 0.5 dB versus float at the BER~1e-4 crossing of a reduced sweep;
* the 802.11n n=1944 codes decode through the same ``BerRunner`` and are
  advertised by the decode service's registry;
* the runner's channel/quantizer plumbing (``channel=``, ``llr_quantizer=``)
  and the out-of-range code-rate regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import (
    AWGNChannel,
    LLRQuantizer,
    QAM16Modulator,
    QPSKModulator,
    RayleighFadingChannel,
)
from repro.channel.quantize import CHANNEL_LLR_SPEC, QuantizationSpec
from repro.errors import ConfigurationError
from repro.ldpc import wifi_ldpc_code, wimax_ldpc_code
from repro.sim import (
    BatchLayeredDecoder,
    BatchTurboDecoder,
    BerRunner,
    resolve_code_rate,
)
from repro.turbo import TurboEncoder


@pytest.fixture(scope="module")
def wimax_576():
    return wimax_ldpc_code(576, "1/2")


@pytest.fixture(scope="module")
def layered_576(wimax_576):
    return BatchLayeredDecoder(wimax_576.h, max_iterations=10)


class TestFadingScenarios:
    @pytest.mark.parametrize("fading_channel", ["rayleigh", "rayleigh-block"])
    def test_rayleigh_strictly_worse_than_awgn(
        self, wimax_576, layered_576, fading_channel
    ):
        # Same code, decoder, modulator, Eb/N0 and frame budget; only the
        # channel differs.  The Wilson intervals must not even touch.
        def run(channel):
            return BerRunner(
                wimax_576,
                layered_576,
                QPSKModulator(),
                channel=channel,
                batch_size=64,
                max_frames=96,
                target_frame_errors=None,
                seed=5,
            ).run_point(2.5)

        awgn = run("awgn")
        faded = run(fading_channel)
        assert faded.ber > awgn.ber
        assert faded.ber_interval[0] > awgn.ber_interval[1]

    def test_fading_csi_path_used_by_runner_matches_manual_chain(
        self, wimax_576, layered_576
    ):
        # Rebuild one batch of the runner's chain by hand (same seed tree)
        # and check the runner's counts come from the CSI-weighted demap.
        runner = BerRunner(
            wimax_576,
            layered_576,
            QPSKModulator(),
            channel="rayleigh",
            batch_size=16,
            max_frames=16,
            target_frame_errors=None,
            seed=9,
        )
        point = runner.run_point(2.0)
        seq = runner._point_seed_sequence(2.0)
        rng = np.random.default_rng(seq.spawn(1)[0])
        info = rng.integers(0, 2, size=(16, wimax_576.k))
        codewords = wimax_576.encode_batch(info)
        mod = QPSKModulator()
        symbols = mod.modulate(codewords)
        from repro.channel.awgn import ebn0_to_noise_sigma

        sigma = ebn0_to_noise_sigma(2.0, 0.5, 2)
        channel = RayleighFadingChannel(sigma, rng)
        received, gains = channel.transmit(symbols)
        llrs = mod.demodulate_llr(received, channel.llr_noise_variance(True), gains=gains)
        result = layered_576.decode_batch(llrs)
        errors = int(np.count_nonzero(np.asarray(result.hard_bits) != codewords))
        assert point.bit_errors == errors

    def test_unknown_channel_name_rejected(self, wimax_576, layered_576):
        with pytest.raises(ConfigurationError, match="rician"):
            BerRunner(wimax_576, layered_576, channel="rician")
        with pytest.raises(ConfigurationError):
            BerRunner(wimax_576, layered_576, channel=123)  # type: ignore[arg-type]

    def test_custom_channel_factory_accepted(self, wimax_576, layered_576):
        point = BerRunner(
            wimax_576,
            layered_576,
            channel=lambda sigma, rng: AWGNChannel(sigma, rng),
            batch_size=16,
            max_frames=16,
            target_frame_errors=None,
            seed=0,
        ).run_point(2.0)
        reference = BerRunner(
            wimax_576,
            layered_576,
            channel="awgn",
            batch_size=16,
            max_frames=16,
            target_frame_errors=None,
            seed=0,
        ).run_point(2.0)
        assert point.bit_errors == reference.bit_errors


class TestQam16Scenarios:
    def test_maxlog_demap_matches_brute_force_reference(self):
        mod = QAM16Modulator()
        patterns = np.array(
            [[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)]
        )
        points = mod.modulate(patterns.reshape(1, -1)).reshape(-1)
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(5, 48))
        symbols = mod.modulate(bits)
        noisy = symbols + 0.25 * (
            rng.normal(size=symbols.shape) + 1j * rng.normal(size=symbols.shape)
        )
        nv = 2 * 0.25**2
        got = mod.demodulate_llr(noisy, nv)
        # Brute force: max-log over all 16 constellation points per symbol.
        reference = np.empty_like(got)
        for frame in range(noisy.shape[0]):
            for s, y in enumerate(noisy[frame]):
                dist = np.abs(y - points) ** 2
                for b in range(4):
                    m0 = dist[patterns[:, b] == 0].min()
                    m1 = dist[patterns[:, b] == 1].min()
                    reference[frame, 4 * s + b] = (m1 - m0) / nv
        assert np.allclose(got, reference, rtol=1e-12, atol=1e-12)

    def test_qam16_rides_the_runner(self, wimax_576, layered_576):
        # 576 bits = 144 16-QAM symbols per frame; high Eb/N0 so the point is
        # cheap and the decoder actually converges.
        point = BerRunner(
            wimax_576,
            layered_576,
            QAM16Modulator(),
            batch_size=32,
            max_frames=64,
            target_frame_errors=None,
            seed=3,
        ).run_point(6.0)
        assert point.frames == 64
        assert point.total_bits == 64 * 576
        assert point.ber < 1e-2

    def test_qam16_fading_runner_converges_at_high_snr(self, wimax_576, layered_576):
        point = BerRunner(
            wimax_576,
            layered_576,
            QAM16Modulator(),
            channel="rayleigh",
            batch_size=32,
            max_frames=32,
            target_frame_errors=None,
            seed=4,
        ).run_point(14.0)
        assert point.ber < 5e-2


class TestFixedPointScenarios:
    THRESHOLD = 2e-4
    GRID = (2.0, 2.25, 2.5, 2.75, 3.0)

    @staticmethod
    def _crossing(points, threshold):
        """First grid Eb/N0 from which BER stays at or below ``threshold``."""
        for index, point in enumerate(points):
            if all(later.ber <= threshold for later in points[index:]):
                return point.ebn0_db
        return None

    def test_quantized_within_half_db_of_float(self, wimax_576):
        def sweep(decoder, llr_quantizer=None):
            return BerRunner(
                wimax_576,
                decoder,
                llr_quantizer=llr_quantizer,
                batch_size=64,
                max_frames=384,
                target_frame_errors=None,
                seed=11,
            ).run(self.GRID)

        float_points = sweep(BatchLayeredDecoder(wimax_576.h, max_iterations=10))
        fixed_points = sweep(
            BatchLayeredDecoder(wimax_576.h, max_iterations=10, fixed_point=True),
            LLRQuantizer(CHANNEL_LLR_SPEC),
        )
        float_crossing = self._crossing(float_points, self.THRESHOLD)
        fixed_crossing = self._crossing(fixed_points, self.THRESHOLD)
        assert float_crossing is not None, "float sweep never reached BER~1e-4"
        assert fixed_crossing is not None, "fixed-point sweep never reached BER~1e-4"
        assert fixed_crossing - float_crossing <= 0.5 + 1e-9

    def test_runner_quantizes_turbo_llrs(self):
        encoder = TurboEncoder(n_couples=24)
        point = BerRunner(
            encoder,
            BatchTurboDecoder(encoder, max_iterations=4),
            llr_quantizer=LLRQuantizer(CHANNEL_LLR_SPEC),
            batch_size=8,
            max_frames=8,
            target_frame_errors=None,
            seed=1,
        ).run_point(2.0)
        assert point.total_bits == 8 * encoder.k

    def test_runner_quantization_actually_bites(self, wimax_576, layered_576):
        # A coarse 3-bit quantiser saturates at +-3: the decoder must see
        # only its levels, not the float channel LLRs.
        seen = []

        class Recording:
            n_bits = wimax_576.n

            def decode_batch(self, llrs):
                seen.append(llrs)
                return layered_576.decode_batch(llrs)

        quantizer = LLRQuantizer(QuantizationSpec(3, 0))
        BerRunner(
            wimax_576,
            Recording(),
            llr_quantizer=quantizer,
            batch_size=8,
            max_frames=8,
            target_frame_errors=None,
            seed=2,
        ).run_point(1.5)
        (llrs,) = seen
        assert set(np.unique(llrs)) <= {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}
        assert np.abs(llrs).max() == 3.0

    def test_runner_rejects_bad_quantizer(self, wimax_576, layered_576):
        with pytest.raises(ConfigurationError):
            BerRunner(wimax_576, layered_576, llr_quantizer="7bits")  # type: ignore[arg-type]


class TestWifiScenarios:
    @pytest.mark.parametrize("rate,ebn0", [("1/2", 2.5), ("5/6", 4.5)])
    def test_wifi_codes_decode_through_runner(self, rate, ebn0):
        code = wifi_ldpc_code(1944, rate)
        assert code.n == 1944
        point = BerRunner(
            code,
            BatchLayeredDecoder(code.h, max_iterations=10),
            batch_size=16,
            max_frames=32,
            target_frame_errors=None,
            seed=0,
        ).run_point(ebn0)
        assert point.frames == 32
        assert point.ber < 1e-2

    def test_wifi_codewords_satisfy_parity(self):
        code = wifi_ldpc_code(1944, "1/2")
        rng = np.random.default_rng(0)
        codewords = code.encode_batch(rng.integers(0, 2, size=(4, code.k)))
        dense = code.h.to_dense()
        assert not ((dense @ codewords.T) % 2).any()

    def test_wifi_advertised_by_service_registry(self):
        from repro.service.registry import CodecSpec, default_registry

        registry = default_registry()
        assert "wifi" in registry.families
        specs = registry.specs()
        assert CodecSpec("wifi", 1944, "1/2") in specs
        assert CodecSpec("wifi", 1944, "5/6") in specs
        entry = registry.resolve("wifi", 1944, "5/6")
        assert entry.n_bits == 1944
        assert entry.k_bits == 1620

    def test_wifi_rejects_unknown_parameters(self):
        from repro.errors import CodeDefinitionError

        with pytest.raises(CodeDefinitionError):
            wifi_ldpc_code(648, "1/2")
        with pytest.raises(CodeDefinitionError):
            wifi_ldpc_code(1944, "3/4")


class TestResolveCodeRateValidation:
    def test_rejects_out_of_range_rates(self):
        # Regression: "5/4" (=1.25) and negative fractions used to parse
        # fine and only blow up later inside ebn0_to_noise_sigma.
        for bad in ("5/4", "-1/2", 1.25, -0.5, 0.0, "0"):
            with pytest.raises(ConfigurationError):
                resolve_code_rate(bad)

    def test_accepts_boundary_and_interior(self):
        assert resolve_code_rate(1.0) == pytest.approx(1.0)
        assert resolve_code_rate("5/6") == pytest.approx(5 / 6)
