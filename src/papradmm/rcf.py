"""Repeated clipping-and-filtering baseline.

Each of ``RCF_PASSES`` passes soft-clips the oversampled time signal to an
amplitude referenced to its current mean power, then filters by keeping only
the in-band data carriers (free carriers are zeroed too -- this is a pure
spectral filter, the free carriers are not used for peak cancellation here).
"""

import numpy as np

from . import dsp
from .params import db_to_linear

# Clip-and-filter passes per run
RCF_PASSES = 10


def clip(x, amplitude, mag=None, out=None) -> np.ndarray:
    """Polar soft clip: magnitudes capped at ``amplitude``, phase preserved.

    ``mag`` is ``np.abs(x)`` when the caller holds it already; ``out`` takes
    the result (``out=x`` clips in place).  A zero sample stays zero, also
    at a zero amplitude: its scale ``fmin(1, amplitude / 0)`` is 1, since
    ``fmin`` passes over the NaN of ``0 / 0``.
    """
    x = dsp._as_complex(x)
    amplitude = np.asarray(amplitude, dtype=float)
    if mag is None:
        mag = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.divide(amplitude[..., None], mag)
    return np.multiply(x, np.fmin(1.0, scale, out=scale), out=out)


def rcf(c_o, plan: dsp.CarrierPlan, target_papr_db: float, oversample: int) -> np.ndarray:
    """Run clip-and-filter passes toward a PAPR target (dB, > 0).

    Returns the filtered time-domain batch.
    """
    if target_papr_db <= 0.0:
        raise ValueError("target PAPR must be > 0 dB")
    c_o = dsp._as_complex(c_o)
    single = c_o.ndim == 1
    c = np.atleast_2d(c_o).copy()
    target = db_to_linear(target_papr_db)
    for _ in range(RCF_PASSES):
        x = dsp.ifft_oversampled(c, oversample)
        mag = np.abs(x)
        mean_power = np.mean(mag**2, axis=-1)
        clip(x, np.sqrt(target * mean_power), mag, out=x)
        c = dsp.fft_oversampled(x, oversample)
        c[..., plan.free_idx] = 0.0
    out = dsp.ifft_oversampled(c, oversample)
    return out[0] if single else out
