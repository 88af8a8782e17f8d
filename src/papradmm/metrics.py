"""Link-quality metrics: EVM, PAPR CCDF, BER and spectral density."""

import numpy as np
from dataclasses import dataclass
from numpy.lib.stride_tricks import sliding_window_view

from . import dsp

# Welch segments transformed at a time by psd (1 MB of windowed segments at
# seg_len 1024)
PSD_CHUNK_SEGMENTS = 64


def evm_db(c, c_o, plan: dsp.CarrierPlan) -> float:
    """RMS data-carrier distortion of a batch, in dB.

    ``20*log10( sqrt( mean_k ||(c_k - c_o_k)_D||^2 / ||c_o_k||^2 ) )``;
    an undistorted batch reports ``-inf``.
    """
    c = np.atleast_2d(dsp._as_complex(c))
    c_o = np.atleast_2d(dsp._as_complex(c_o))
    if c.shape != c_o.shape:
        raise ValueError("batch shapes differ")
    num = np.linalg.norm((c - c_o)[..., plan.data_idx], axis=-1) ** 2
    den = np.linalg.norm(c_o, axis=-1) ** 2
    mean_sq = float(np.mean(num / den))
    if mean_sq == 0.0:
        return -np.inf
    return float(20.0 * np.log10(np.sqrt(mean_sq)))


def ccdf(samples_db, thresholds_db) -> np.ndarray:
    """Empirical exceedance probability ``P(sample > T)`` per threshold."""
    samples = np.sort(np.asarray(samples_db, dtype=float))
    if samples.size == 0:
        raise ValueError("need at least one sample")
    thresholds = np.asarray(thresholds_db, dtype=float)
    above = samples.size - np.searchsorted(samples, thresholds, side="right")
    return above / samples.size


def psd(x, seg_len: int):
    """Averaged-periodogram spectral density of a complex baseband stream.

    Welch's method with a periodic Hann window: the mean of the windowed
    periodograms of segments of ``seg_len`` samples that overlap by half,
    scaled by ``1 / sum(w**2)`` (unit sample rate).  Returns ``(freqs,
    pxx)`` two-sided and centred (ascending frequency, in cycles per
    sample).

    The segments are transformed ``PSD_CHUNK_SEGMENTS`` at a time, and each
    segment's periodogram is added into one running total in segment order,
    which is the order in which ``np.mean(axis=0)`` sums the rows of one
    array of all of them: the result keeps its bits, and only one chunk of
    segments is alive at a time.
    """
    x = np.asarray(x).ravel()
    if x.size < seg_len:
        raise ValueError(f"stream of {x.size} samples shorter than seg_len={seg_len}")
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg_len) / seg_len)
    step = seg_len - seg_len // 2
    segments = sliding_window_view(x, seg_len)[::step]
    total = np.zeros(seg_len)
    for lo in range(0, len(segments), PSD_CHUNK_SEGMENTS):
        spectra = np.fft.fft(segments[lo : lo + PSD_CHUNK_SEGMENTS] * w, axis=-1)
        for power in np.abs(spectra) ** 2:
            total += power
    pxx = np.fft.fftshift(total / len(segments)) / np.sum(w * w)
    freqs = np.fft.fftshift(np.fft.fftfreq(seg_len))
    return freqs, pxx


@dataclass
class MetricAccumulator:
    """Bit-error count of one BER point."""

    bit_errors: int = 0

    def add_bits(self, tx_bits, rx_bits):
        tx = np.asarray(tx_bits).ravel()
        rx = np.asarray(rx_bits).ravel()
        if tx.shape != rx.shape:
            raise ValueError("bit streams differ in length")
        self.bit_errors += int(np.count_nonzero(tx != rx))
