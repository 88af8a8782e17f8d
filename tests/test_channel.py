import numpy as np
import pytest
from scipy import signal, special

from papradmm import (
    CarrierPlan,
    Constellation,
    channel_frequency_response,
    demap_bits,
    equalize_zero_forcing,
    fft_oversampled,
    ifft_oversampled,
    map_bits,
    multipath_apply,
    multipath_impulse_response,
    noise_variance_per_sample,
    saturation_amplitude,
    sspa,
)

from papradmm.channel import NATIVE_BANDWIDTH_HZ, SSPA_BACKOFF_DB
from papradmm.config import ExperimentConfig
from papradmm.experiments import (
    _NEGATIVE_NOISE_STAGE,
    _NOISE_STAGE,
    _streams,
    _unit_noise,
    rng_for,
)

PLAN = CarrierPlan.default(64, 12)


def q_function(x):
    return 0.5 * special.erfc(x / np.sqrt(2.0))


class TestSspa:
    def test_linear_region(self):
        x = 1e-3 * np.exp(1j * np.linspace(0, 2, 16))
        out = sspa(x, a_sat=1.0)
        rel_err = np.abs(out - x) / np.abs(x)
        assert rel_err.max() < (1e-3) ** 6

    def test_saturation_limit(self):
        x = np.array([1e6 + 0j])
        out = sspa(x, a_sat=2.0)
        assert abs(out[0]) == pytest.approx(2.0, rel=1e-6)

    def test_value_at_saturation_amplitude(self):
        out = sspa(np.array([1.0 + 0j]), a_sat=1.0)
        assert abs(out[0]) == pytest.approx(2.0 ** (-1.0 / 6.0))

    def test_monotone_and_phase_preserving(self):
        amps = np.linspace(0.01, 5.0, 200)
        x = amps * np.exp(1j * 0.7)
        out = sspa(x, a_sat=1.0)
        assert np.all(np.diff(np.abs(out)) > 0)
        assert np.abs(np.angle(out) - 0.7).max() < 1e-12
        assert np.abs(out).max() <= 1.0

    def test_backoff_reference(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        a_sat = saturation_amplitude(x)
        ratio = a_sat**2 / np.mean(np.abs(x) ** 2)
        assert 10 * np.log10(ratio) == pytest.approx(4.1, abs=1e-12)

    def test_default_saturation_is_the_batch_back_off(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 256)) + 1j * rng.normal(size=(3, 256))
        assert np.array_equal(sspa(x), sspa(x, a_sat=saturation_amplitude(x)))

    @pytest.mark.parametrize("shape", [(7,), (3, 256), (1000, 256)])
    def test_saturation_amplitude_keeps_the_bits_of_the_squared_abs(self, shape):
        # squaring |x| in place gives the bits of the mean of |x| ** 2
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = float(np.sqrt(np.mean(np.abs(x) ** 2) * 10 ** (SSPA_BACKOFF_DB / 10)))
        assert saturation_amplitude(x) == want
        assert saturation_amplitude(x.real) == float(
            np.sqrt(np.mean(np.abs(x.real) ** 2) * 10 ** (SSPA_BACKOFF_DB / 10))
        )


class TestAwgn:
    """The drivers' receiver noise, ``experiments._unit_noise`` scaled by sqrt(var/2)."""

    def test_zero_noise_is_identity(self):
        x = np.ones((2, 16), dtype=complex)
        noise = _unit_noise(ExperimentConfig(seed=0), x.shape, 0) * np.sqrt(0.0 / 2.0)
        assert np.array_equal(x + noise, x)

    def test_empirical_variance(self):
        noise = _unit_noise(ExperimentConfig(seed=1), (1000, 1000), 0) * np.sqrt(0.25 / 2.0)
        measured = np.mean(np.abs(noise) ** 2)
        assert measured == pytest.approx(0.25, rel=0.02)

    @pytest.mark.parametrize("var", [1e-9, 3.7e-4, 0.25, 1.0, 42.0])
    def test_scaled_unit_noise_is_the_per_row_draw(self, var):
        # oracle: each row drawn at scale sqrt(var/2) from its own stream
        cfg, shape, key = ExperimentConfig(seed=3), (7, 256), 6000
        scale = np.sqrt(var / 2.0)
        want = np.empty(shape, dtype=np.complex128)
        for i in range(shape[0]):
            block = rng_for(cfg.seed, i, _NOISE_STAGE, key).normal(scale=scale, size=(2, shape[1]))
            want[i] = block[0] + 1j * block[1]
        assert np.array_equal(_unit_noise(cfg, shape, key) * scale, want)

    @pytest.mark.parametrize("key", [0, 6000, -2000])
    def test_unit_noise_is_the_two_rails_as_one_complex_array(self, key):
        # one block of rows 128..255, from the positive and the negative stage
        cfg, lo, hi, n_samples = ExperimentConfig(seed=5), 128, 256, 256
        stage = (_NOISE_STAGE, key) if key >= 0 else (_NEGATIVE_NOISE_STAGE, -key)
        rails = np.empty((hi - lo, 2, n_samples))
        for row, rng in zip(rails, _streams(cfg.seed, lo, hi, *stage)):
            rng.standard_normal(out=row)
        got = _unit_noise(cfg, (hi - lo, n_samples), key, lo)
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert np.array_equal(got, rails[:, 0] + 1j * rails[:, 1])

    def test_qpsk_ber_matches_q_function(self):
        rng = np.random.default_rng(2)
        const = Constellation.qpsk()
        n_sym = 400
        bits = rng.integers(0, 2, size=(n_sym, PLAN.n_data * 2))
        c_o = map_bits(bits, const, PLAN)
        x = ifft_oversampled(c_o, 4)
        eb = float(np.mean(np.linalg.norm(c_o, axis=-1) ** 2)) / (PLAN.n_data * 2)
        cfg = ExperimentConfig(seed=2)
        for ebn0_db in (4.0, 6.0):
            var = noise_variance_per_sample(ebn0_db, eb, 256)
            rx = x + _unit_noise(cfg, x.shape, int(ebn0_db * 1000)) * np.sqrt(var / 2.0)
            got = demap_bits(fft_oversampled(rx, 4), const, PLAN)
            n_err = int(np.sum(got != bits))
            n_bits = bits.size
            p = q_function(np.sqrt(2.0 * 10 ** (ebn0_db / 10.0)))
            sigma = np.sqrt(p * (1 - p) * n_bits)
            assert abs(n_err - p * n_bits) < 3.0 * sigma + 1.0


class TestMultipath:
    def test_default_tap_offsets_at_80msps(self):
        h = multipath_impulse_response(80e6)
        nz = np.nonzero(h)[0]
        assert list(nz) == [0, 15, 24, 32]
        assert h[0] == 1.0 and h[15] == 0.2 and h[24] == 0.07 and h[32] == 0.05

    def test_single_tap_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
        out = multipath_apply(x, np.array([1.0]))
        assert np.abs(out - x).max() < 1e-12

    def test_channel_longer_than_symbol_rejected(self):
        h = multipath_impulse_response(80e6)  # 33 taps
        with pytest.raises(ValueError):
            multipath_apply(np.ones((1, 32)), h)
        assert multipath_apply(np.ones((1, 33)), h).shape == (1, 33)

    @pytest.mark.parametrize("oversample", [1, 4])
    def test_matches_cyclic_prefix_and_lfilter(self, oversample):
        # Oracle: prepend a prefix as long as the channel memory, run the
        # linear FIR filter, strip the prefix.
        h = multipath_impulse_response(oversample * 20e6)
        rng = np.random.default_rng(5)
        n = 64 * oversample
        x = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        cp = len(h) - 1
        with_cp = np.concatenate([x[:, n - cp:], x], axis=-1)
        expected = signal.lfilter(h, [1.0], with_cp, axis=-1)[:, cp:]
        got = multipath_apply(x, h)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_zero_forcing_restores_noiseless_symbols(self):
        rng = np.random.default_rng(4)
        const = Constellation.qam16()
        bits = rng.integers(0, 2, size=(6, PLAN.n_data * 4))
        c_o = map_bits(bits, const, PLAN)
        x = ifft_oversampled(c_o, 4)
        h = np.zeros(9)
        h[0], h[8] = 1.0, 0.5
        rx = multipath_apply(x, h)
        resp = channel_frequency_response(h, 256, 64)
        c_hat = equalize_zero_forcing(fft_oversampled(rx, 4), resp)
        assert np.abs(c_hat - c_o).max() < 1e-10

    @pytest.mark.parametrize("oversample", [1, 4])
    def test_zero_forcing_cancels_the_channel_on_any_signal(self, oversample):
        # run_ber takes F(x) as the noiseless received spectrum: behind the
        # prefix the channel is one gain per bin, so zero forcing undoes it on
        # any x, band-limited or not (raw samples and their amplified copy)
        h = multipath_impulse_response(oversample * NATIVE_BANDWIDTH_HZ)
        n = 64 * oversample
        resp = channel_frequency_response(h, n, 64)
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(8, n)) + 1j * rng.normal(size=(8, n))
        for x in (samples, sspa(samples)):
            want = fft_oversampled(x, oversample)
            got = equalize_zero_forcing(fft_oversampled(multipath_apply(x, h), oversample), resp)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
