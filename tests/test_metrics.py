import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

from papradmm import CarrierPlan, MetricAccumulator, ccdf, evm_db, psd
from papradmm.metrics import PSD_CHUNK_SEGMENTS

PLAN = CarrierPlan.default(64, 12)


class TestEvm:
    def test_identical_batch_reports_minus_inf(self):
        c = np.ones((3, 64), dtype=complex)
        assert evm_db(c, c, PLAN) == -np.inf

    def test_definition_arithmetic(self):
        c_o = np.zeros((1, 64), dtype=complex)
        c_o[0, PLAN.data_idx] = 1.0
        c = c_o.copy()
        # put all the error on one data carrier: ratio 0.01 of ||c_o||^2
        c[0, PLAN.data_idx[0]] += np.sqrt(0.01 * np.linalg.norm(c_o) ** 2)
        assert evm_db(c, c_o, PLAN) == pytest.approx(-20.0)

    def test_free_carrier_content_ignored(self):
        c_o = np.zeros((1, 64), dtype=complex)
        c_o[0, PLAN.data_idx] = 1.0
        c = c_o.copy()
        c[0, PLAN.free_idx] = 5.0
        assert evm_db(c, c_o, PLAN) == -np.inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evm_db(np.ones((2, 64)), np.ones((3, 64)), PLAN)


class TestCcdf:
    def test_point_mass(self):
        curve = ccdf(np.full(100, 4.0), [3.9, 4.0, 4.1])
        assert list(curve) == [1.0, 0.0, 0.0]

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(8.0, 1.0, size=5000)
        curve = ccdf(samples, np.linspace(4, 12, 100))
        assert np.all(np.diff(curve) <= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([], [1.0])


def ber(tx_bits, rx_bits) -> float:
    acc = MetricAccumulator()
    acc.add_bits(tx_bits, rx_bits)
    return acc.bit_errors / np.size(tx_bits)


class TestBer:
    def test_edge_cases(self):
        a = np.zeros(100, dtype=int)
        assert ber(a, a) == 0.0
        assert ber(a, 1 - a) == 1.0
        big = np.zeros(10**4, dtype=int)
        flipped = big.copy()
        flipped[1234] = 1
        assert ber(big, flipped) == pytest.approx(1e-4)

    def test_errors_add_up_over_calls(self):
        acc = MetricAccumulator()
        acc.add_bits([0, 1, 1, 0], [1, 1, 0, 0])
        acc.add_bits(np.zeros((2, 3)), np.ones((2, 3)))
        assert acc.bit_errors == 8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ber(np.zeros(4), np.zeros(5))


class TestPsd:
    def test_in_band_tone_floor(self):
        n = 8192
        tone = np.exp(2j * np.pi * 0.125 * np.arange(n))
        freqs, pxx = psd(tone, seg_len=512)
        pxx = pxx / pxx.max()
        peak_bin = np.argmax(pxx)
        assert freqs[peak_bin] == pytest.approx(0.125, abs=1.0 / 512)
        far = np.abs(freqs - 0.125) > 0.1
        assert 10 * np.log10(pxx[far].max()) < -60.0

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError):
            psd(np.ones(100), seg_len=256)

    @pytest.mark.parametrize(
        "seg_len, n_segments, tail", [(256, 1, 0), (256, 64, 0), (256, 130, 77), (1024, 499, 0)]
    )
    def test_chunks_keep_the_one_shot_bits(self, seg_len, n_segments, tail):
        # the one-shot average over all segments that the chunked sum replaced
        assert PSD_CHUNK_SEGMENTS == 64
        step = seg_len // 2
        n = seg_len + (n_segments - 1) * step + tail
        rng = np.random.default_rng(n_segments)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg_len) / seg_len)
        segments = sliding_window_view(x, seg_len)[::step]
        assert len(segments) == n_segments
        spectra = np.fft.fft(segments * w, axis=-1)
        want = np.fft.fftshift(np.mean(np.abs(spectra) ** 2, axis=0)) / np.sum(w * w)
        assert np.array_equal(psd(x, seg_len=seg_len)[1], want)

    @pytest.mark.parametrize("seg_len", [256, 1024])
    def test_matches_scipy_welch(self, seg_len):
        # the fixed estimator: periodic Hann window, half overlap, unit rate
        rng = np.random.default_rng(2)
        x = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        freqs, pxx = psd(x, seg_len=seg_len)
        ref_f, ref_p = signal.welch(
            x, fs=1.0, window="hann", nperseg=seg_len,
            noverlap=seg_len // 2, detrend=False,
            return_onesided=False, scaling="density",
        )
        assert np.array_equal(freqs, np.fft.fftshift(ref_f))
        ref_p = np.fft.fftshift(ref_p)
        assert np.abs(pxx - ref_p).max() <= 1e-12 * ref_p.max()
