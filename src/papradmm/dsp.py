"""Complex-baseband OFDM primitives.

Conventions used throughout the package:

* A frequency-domain symbol ``c`` has ``N`` carriers occupying DFT bins
  ``0..N-1``.  Spectral centering for plots is a display-time ``fftshift``,
  never a property of the data model.
* Its time-domain counterpart ``x`` has ``L*N`` samples, where ``L`` is the
  integer over-sampling factor.  The pair is related by an ``L*N``-point
  IFFT of the zero-padded carrier vector and, in the other direction, by an
  ``L*N``-point FFT truncated to the first ``N`` bins.
* All array functions are vectorized over leading axes, so a batch of
  symbols is an array of shape ``(K, N)`` or ``(K, L*N)``.
"""

import operator

import numpy as np
from dataclasses import dataclass, field


class DegenerateSymbolError(ValueError):
    """An operation received an (effectively) all-zero symbol it cannot process."""


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def _oversample_factor(oversample) -> int:
    """``oversample`` as an ``int``; any integer type >= 1 passes, a float does not."""
    try:
        factor = operator.index(oversample)
    except TypeError:
        factor = 0
    if factor < 1:
        raise ValueError(f"oversample must be a positive integer, got {oversample}")
    return factor


def ifft_oversampled(c, oversample: int) -> np.ndarray:
    """Oversampled OFDM modulator.

    Parameters
    ----------
    c : array_like, shape (..., N)
        Frequency-domain carrier values.
    oversample : int
        Over-sampling factor L >= 1.

    Returns
    -------
    x : np.ndarray, shape (..., L*N)
        ``L*N``-point inverse DFT of ``c`` zero-padded to length ``L*N``,
        i.e. ``x[n] = (1/(L*N)) * sum_k c[k] exp(2j*pi*n*k/(L*N))``.
    """
    c = _as_complex(c)
    oversample = _oversample_factor(oversample)
    n_carriers = c.shape[-1]
    x = np.zeros(c.shape[:-1] + (oversample * n_carriers,), dtype=np.complex128)
    x[..., :n_carriers] = c
    # Padding the output and transforming it in place gives the same bits as
    # ifft(c, n=L*N), but numpy's FFT runs rows in SIMD batches only when it
    # does not pad, so this is ~1.4x faster on a row block.
    return np.fft.ifft(x, axis=-1, out=x)


def fft_oversampled(x, oversample: int) -> np.ndarray:
    """Inverse of :func:`ifft_oversampled`.

    Runs the full ``L*N``-point forward DFT of ``x`` and keeps only the
    first ``N`` bins.  ``fft_oversampled(ifft_oversampled(c, L), L) == c``.
    The result owns its bins, so it does not keep the full transform alive.
    """
    x = _as_complex(x)
    oversample = _oversample_factor(oversample)
    if x.shape[-1] % oversample:
        raise ValueError(
            f"input length {x.shape[-1]} is not a multiple of oversample={oversample}"
        )
    n_carriers = x.shape[-1] // oversample
    return np.fft.fft(x, axis=-1)[..., :n_carriers].copy()


def papr(x) -> np.ndarray:
    """Peak-to-average power ratio, linear scale.

    ``papr(x) = max_i |x_i|^2 / mean_i |x_i|^2``; always >= 1, with
    equality exactly for constant-modulus inputs.
    """
    power = np.abs(_as_complex(x)) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean == 0.0):
        raise DegenerateSymbolError("zero-energy symbol has undefined PAPR")
    return power.max(axis=-1) / mean


def papr_db(x) -> np.ndarray:
    """Peak-to-average power ratio in dB."""
    return 10.0 * np.log10(papr(x))


@dataclass(frozen=True)
class CarrierPlan:
    """Partition of the N carriers into data and free (reserved) sets.

    The two index sets must be disjoint and cover ``0..n_carriers-1``, so the
    corresponding diagonal selection masks sum to the identity.
    """

    n_carriers: int
    data_idx: np.ndarray
    free_idx: np.ndarray

    def __post_init__(self):
        data = np.asarray(np.sort(np.atleast_1d(self.data_idx)), dtype=np.intp)
        free = np.asarray(np.sort(np.atleast_1d(self.free_idx)), dtype=np.intp)
        object.__setattr__(self, "data_idx", data)
        object.__setattr__(self, "free_idx", free)
        n = int(self.n_carriers)
        if n < 2:
            raise ValueError("need at least 2 carriers")
        combined = np.concatenate([data, free])
        if combined.size != n or np.any(np.sort(combined) != np.arange(n)):
            raise ValueError("data_idx and free_idx must disjointly cover 0..N-1")

    @property
    def n_data(self) -> int:
        return int(self.data_idx.size)

    @property
    def n_free(self) -> int:
        return int(self.free_idx.size)

    @classmethod
    def default(cls, n_carriers: int = 64, n_free: int = 12) -> "CarrierPlan":
        """Wi-Fi-like plan: free carriers at DC and the top of the band.

        For the stock 64-carrier / 12-free configuration this reserves bin 0
        plus the 11 highest bins, mirroring 802.11a null locations.  Any other
        placement can be built directly through the constructor.
        """
        if not 0 < n_free < n_carriers:
            raise ValueError("n_free must be in 1..n_carriers-1")
        free = np.r_[0, np.arange(n_carriers - (n_free - 1), n_carriers)]
        # a mask, not np.setdiff1d, whose np.unique imports numpy.ma (~13 ms
        # and ~1 MB of RSS per process)
        is_data = np.ones(n_carriers, dtype=bool)
        is_data[free] = False
        return cls(n_carriers=n_carriers, data_idx=np.flatnonzero(is_data), free_idx=free)


@dataclass(frozen=True)
class Constellation:
    """Gray-mapped product-grid constellation with unit average energy.

    ``points[b]`` is the complex point whose bit label is the integer ``b``
    read MSB-first; neighbouring points differ in exactly one label bit.
    The points must form a grid, every real level paired with every
    imaginary level, so the hard decision splits into one decision per rail:
    ``re_bounds``/``im_bounds`` are the midpoints between adjacent levels,
    and ``grid_bits[r, i]`` holds the label bits of the point on real level
    ``r`` and imaginary level ``i`` (levels in ascending order).

    ``thresholds`` is the sorted union of the two rails' bounds.  A sample
    lying above the first ``u`` of them lies above exactly the rail's bounds
    among those ``u``, so a rail's level is a lookup on ``u``;
    ``decision_bits[u_re * (len(thresholds) + 1) + u_im]`` holds the label
    bits of the point those two lookups name.  On a square grid both rails
    share their bounds and ``decision_bits`` is ``grid_bits`` flattened.
    """

    kind: str
    bits_per_symbol: int
    points: np.ndarray
    re_bounds: np.ndarray = field(init=False, repr=False, compare=False)
    im_bounds: np.ndarray = field(init=False, repr=False, compare=False)
    grid_bits: np.ndarray = field(init=False, repr=False, compare=False)
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)
    decision_bits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = _as_complex(self.points)
        object.__setattr__(self, "points", pts)
        if pts.size != 1 << self.bits_per_symbol:
            raise ValueError("points size must be 2**bits_per_symbol")
        energy = np.mean(np.abs(pts) ** 2)
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"constellation average energy is {energy}, expected 1")
        re_levels, re_idx = np.unique(pts.real, return_inverse=True)
        im_levels, im_idx = np.unique(pts.imag, return_inverse=True)
        grid = np.full((re_levels.size, im_levels.size), -1)
        grid[re_idx, im_idx] = np.arange(pts.size)
        if grid.size != pts.size or np.any(grid < 0):
            raise ValueError(f"{self.kind} points do not form a product grid")
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        re_bounds = (re_levels[:-1] + re_levels[1:]) / 2.0
        im_bounds = (im_levels[:-1] + im_levels[1:]) / 2.0
        grid_bits = ((grid[..., None] >> shifts) & 1).astype(np.int8)
        # not np.union1d: its np.unique call imports numpy.ma, ~15 ms at start-up
        thresholds = np.array(sorted({*re_bounds.tolist(), *im_bounds.tolist()}))
        re_level, im_level = (
            np.concatenate([[0], np.cumsum(np.isin(thresholds, bounds))])
            for bounds in (re_bounds, im_bounds)
        )
        decision_bits = grid_bits[np.ix_(re_level, im_level)]
        object.__setattr__(self, "re_bounds", re_bounds)
        object.__setattr__(self, "im_bounds", im_bounds)
        object.__setattr__(self, "grid_bits", grid_bits)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "decision_bits", decision_bits.reshape(-1, self.bits_per_symbol))

    @classmethod
    def qpsk(cls) -> "Constellation":
        labels = np.arange(4)
        i = 1 - 2 * (labels >> 1)  # bit 0 -> +1 rail, so 00 -> (1+1j)/sqrt(2)
        q = 1 - 2 * (labels & 1)
        return cls("qpsk", 2, (i + 1j * q) / np.sqrt(2.0))

    @classmethod
    def qam16(cls) -> "Constellation":
        levels = np.array([-3.0, -1.0, 3.0, 1.0])  # of the Gray labels 00, 01, 10, 11
        i = levels[np.arange(16) >> 2]
        q = levels[np.arange(16) & 3]
        return cls("16qam", 4, (i + 1j * q) / np.sqrt(10.0))

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        key = name.lower().replace("-", "")
        if key == "qpsk":
            return cls.qpsk()
        if key in ("16qam", "qam16"):
            return cls.qam16()
        raise ValueError(f"unknown constellation {name!r}")


def map_bits(bits, const: Constellation, plan: CarrierPlan) -> np.ndarray:
    """Map hard bits onto the data carriers; free carriers are exactly zero.

    ``bits`` has shape ``(..., n_data * bits_per_symbol)`` with entries in
    {0, 1}, consumed MSB-first per carrier in ascending data-carrier order.
    """
    bits = np.asarray(bits)
    k = const.bits_per_symbol
    expected = plan.n_data * k
    if bits.shape[-1] != expected:
        raise ValueError(f"expected {expected} bits per symbol, got {bits.shape[-1]}")
    groups = bits.reshape(bits.shape[:-1] + (plan.n_data, k))
    weights = 1 << np.arange(k - 1, -1, -1)
    labels = (groups * weights).sum(axis=-1)
    c = np.zeros(bits.shape[:-1] + (plan.n_carriers,), dtype=np.complex128)
    c[..., plan.data_idx] = const.points[labels]
    return c


def demap_bits(c, const: Constellation, plan: CarrierPlan) -> np.ndarray:
    """Minimum-distance hard decision on the data carriers, one rail at a time.

    On a product grid the nearest point pairs the nearest real level with
    the nearest imaginary level.  A rail's level index is the number of
    thresholds (``re_bounds``/``im_bounds``: 1 for QPSK, 3 for 16-QAM) that
    the sample lies strictly above, which equals
    ``np.searchsorted(bounds, v)`` for every finite ``v``.  A sample exactly
    on a threshold therefore takes the lower level; either neighbour is at
    the minimum distance.

    Both rails are counted together, over the interleaved (real,
    imaginary) samples, one pass per entry of ``thresholds``, and the two
    counts index ``decision_bits`` (see :class:`Constellation`).  Counts
    and index are kept in the smallest unsigned type that holds every index.
    """
    data = np.ascontiguousarray(_as_complex(c)[..., plan.data_idx])
    rails = data.view(np.float64).reshape(data.shape + (2,))
    n = const.thresholds.size + 1
    dtype = np.min_scalar_type(n * n - 1)
    counts = np.zeros(rails.shape, dtype=dtype)
    above = np.empty(rails.shape, dtype=bool)
    for bound in const.thresholds:
        counts += np.greater(rails, bound, out=above)
    idx = counts[..., 0] * dtype.type(n)
    idx += counts[..., 1]
    k = const.bits_per_symbol
    bits = np.take(const.decision_bits, idx, axis=0)
    return bits.reshape(bits.shape[:-2] + (plan.n_data * k,))
