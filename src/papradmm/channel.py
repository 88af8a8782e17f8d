"""Transmitter back end and channel models: SSPA, multipath, equalizer.

The amplifier and the multipath channel are fixed models; their parameters
are module constants (``SSPA_*``, ``MULTIPATH_*``), not arguments.  Every
function here works row by row on a symbol batch, given a batch-wide
saturation amplitude, so ``experiments.run_ber`` applies them to one row
block at a time.  Behind the ideal prefix, zero forcing cancels the
channel on the signal, so ``run_ber`` equalizes only the receiver noise.
The drivers add receiver noise themselves (``experiments._unit_noise``).
"""

import numpy as np

from . import dsp

# The memoryless solid-state amplifier: smoothness p and input back-off (dB)
# from the mean power of the batch it amplifies
SSPA_SMOOTHNESS = 3.0
SSPA_BACKOFF_DB = 4.1


def saturation_amplitude(x) -> float:
    """Saturation amplitude placing the batch mean power ``SSPA_BACKOFF_DB`` below it.

    ``a_sat^2 = mean|x|^2 * 10**(SSPA_BACKOFF_DB/10)``.
    """
    power = np.abs(x)
    mean_power = float(np.mean(np.square(power, out=power)))
    if mean_power == 0.0:
        raise dsp.DegenerateSymbolError("cannot back off from a silent batch")
    return float(np.sqrt(mean_power * 10.0 ** (SSPA_BACKOFF_DB / 10.0)))


def sspa(x, a_sat: float) -> np.ndarray:
    """Amplitude compression ``A -> A / (1 + (A/a_sat)^(2p))^(1/(2p))``, phase kept.

    ``p = SSPA_SMOOTHNESS``.  Callers pass the whole batch's
    :func:`saturation_amplitude`, so a row block amplifies as the batch does.
    """
    x = dsp._as_complex(x)
    p2 = 2.0 * SSPA_SMOOTHNESS
    gain = (1.0 + (np.abs(x) / a_sat) ** p2) ** (-1.0 / p2)
    return x * gain


def noise_variance_per_sample(ebn0_db: float, eb: float, n_samples: int) -> float:
    """Per-sample complex noise variance hitting the target Eb/N0.

    The forward DFT of length ``n_samples`` multiplies per-sample noise
    variance by ``n_samples``, so a per-carrier noise variance of ``N0``
    requires ``N0 / n_samples`` per time sample.
    """
    if eb <= 0:
        raise ValueError("eb must be positive")
    n0 = eb / (10.0 ** (ebn0_db / 10.0))
    return n0 / n_samples


# Native signal bandwidth the tap delays are interpreted at; the drivers
# sample the channel at ``oversample * NATIVE_BANDWIDTH_HZ``.
NATIVE_BANDWIDTH_HZ = 20e6


# The static four-path channel: tap delays in ns and gains, a unit direct
# path first.  At NATIVE_BANDWIDTH_HZ and the usual over-sampling factor of 4
# the taps land on sample offsets (0, 15, 24, 32).
MULTIPATH_DELAYS_NS = (0.0, 190.0, 300.0, 400.0)
MULTIPATH_GAINS = (1.0, 0.2, 0.07, 0.05)


def multipath_impulse_response(sample_rate: float) -> np.ndarray:
    """The multipath taps, their delays rounded to samples at ``sample_rate``."""
    offsets = [round(d * 1e-9 * sample_rate) for d in MULTIPATH_DELAYS_NS]
    h = np.zeros(max(offsets) + 1)
    for off, g in zip(offsets, MULTIPATH_GAINS):
        h[off] += g
    return h


def multipath_apply(x, h: np.ndarray):
    """Send symbols through the FIR channel behind an ideal cyclic prefix.

    The prefix renders the channel a circular convolution of each symbol
    with ``h``, computed here as one FFT pair.  Returns the received,
    noiseless symbol batch.
    """
    x = np.atleast_2d(dsp._as_complex(x))
    n = x.shape[-1]
    if len(h) > n:
        raise ValueError(f"channel ({len(h)} taps) longer than the symbol ({n} samples)")
    return np.fft.ifft(np.fft.fft(x, axis=-1) * np.fft.fft(h, n), axis=-1)


def channel_frequency_response(h: np.ndarray, n_samples: int, n_carriers: int) -> np.ndarray:
    """Exact DFT of the channel on the first ``n_carriers`` bins."""
    return np.fft.fft(h, n=n_samples)[:n_carriers]


def equalize_zero_forcing(c_hat, response: np.ndarray) -> np.ndarray:
    """One-tap per-carrier division by the known channel response."""
    return c_hat / response
