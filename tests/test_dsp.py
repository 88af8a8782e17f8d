import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papradmm import (
    CarrierPlan,
    Constellation,
    DegenerateSymbolError,
    demap_bits,
    fft_oversampled,
    ifft_oversampled,
    map_bits,
    papr,
    papr_db,
)


def dense_modulator(n_carriers, oversample):
    """First n_carriers columns of the oversampled IDFT matrix."""
    ln = n_carriers * oversample
    n, k = np.meshgrid(np.arange(ln), np.arange(n_carriers), indexing="ij")
    return np.exp(2j * np.pi * n * k / ln) / ln


@pytest.mark.parametrize("n,oversample", [(4, 2), (8, 2), (8, 4)])
def test_ifft_matches_dense_oracle(n, oversample):
    rng = np.random.default_rng(n * 10 + oversample)
    c = rng.normal(size=(16, n)) + 1j * rng.normal(size=(16, n))
    a = dense_modulator(n, oversample)
    assert np.abs(ifft_oversampled(c, oversample) - c @ a.T).max() < 1e-12


@pytest.mark.parametrize("shape", [(16,), (5, 16), (3, 4, 16)])
@pytest.mark.parametrize("oversample", [1, 2, 4])
def test_ifft_is_numpys_padded_ifft_to_the_bit(shape, oversample):
    rng = np.random.default_rng(len(shape) * 10 + oversample)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c[..., 0] = -0.0  # signed zeros must come through too
    x = ifft_oversampled(c, oversample)
    expected = np.fft.ifft(c, n=oversample * shape[-1], axis=-1)
    assert x.shape == expected.shape and x.dtype == expected.dtype
    assert x.tobytes() == expected.tobytes()
    assert x.flags.owndata


def test_fft_result_owns_its_bins():
    # a view of the first N bins would keep the whole L*N transform alive
    c = np.ones((3, 8), dtype=complex)
    out = fft_oversampled(ifft_oversampled(c, 4), 4)
    assert out.shape == (3, 8) and out.flags.owndata


@pytest.mark.parametrize("n,oversample", [(4, 2), (8, 2), (8, 4)])
def test_fft_matches_dense_oracle(n, oversample):
    rng = np.random.default_rng(n * 17 + oversample)
    ln = n * oversample
    x = rng.normal(size=(16, ln)) + 1j * rng.normal(size=(16, ln))
    a = dense_modulator(n, oversample)
    expected = ln * (x @ np.conj(a))
    assert np.abs(fft_oversampled(x, oversample) - expected).max() < 1e-12


def test_dc_carrier_gives_constant_signal():
    c = np.zeros(8, dtype=complex)
    c[0] = 1.0
    for oversample in (1, 2, 4):
        x = ifft_oversampled(c, oversample)
        assert np.abs(x - 1.0 / (8 * oversample)).max() < 1e-15


def test_constant_signal_maps_back_to_dc_bin():
    for oversample in (1, 2, 4):
        x = np.full(8 * oversample, 1.0 / (8 * oversample), dtype=complex)
        c = fft_oversampled(x, oversample)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.abs(c - expected).max() < 1e-14


def test_round_trip_identity():
    rng = np.random.default_rng(0)
    c = rng.normal(size=(10, 8)) + 1j * rng.normal(size=(10, 8))
    for oversample in (1, 2, 4):
        back = fft_oversampled(ifft_oversampled(c, oversample), oversample)
        assert np.abs(back - c).max() < 1e-12


def test_fft_is_linear():
    rng = np.random.default_rng(1)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    y = rng.normal(size=16) + 1j * rng.normal(size=16)
    a, b = 2.0 - 1j, -0.3 + 0.7j
    lhs = fft_oversampled(a * x + b * y, 2)
    rhs = a * fft_oversampled(x, 2) + b * fft_oversampled(y, 2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_parseval_energy_ratio():
    rng = np.random.default_rng(2)
    c = rng.normal(size=(50, 16)) + 1j * rng.normal(size=(50, 16))
    for oversample in (1, 2, 4):
        x = ifft_oversampled(c, oversample)
        ln = 16 * oversample
        lhs = np.linalg.norm(x, axis=-1) ** 2
        rhs = np.linalg.norm(c, axis=-1) ** 2 / ln
        assert np.abs(lhs - rhs).max() < 1e-10


def test_ifft_fft_projection_is_idempotent():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))
    proj1 = ifft_oversampled(fft_oversampled(x, 4), 4)
    proj2 = ifft_oversampled(fft_oversampled(proj1, 4), 4)
    assert np.abs(proj2 - proj1).max() < 1e-12


def test_papr_examples():
    assert papr(np.ones(4)) == pytest.approx(1.0)
    assert papr_db(np.ones(4)) == pytest.approx(0.0)
    assert papr(np.array([2.0, 0, 0, 0])) == pytest.approx(4.0)
    assert papr(np.array([1, 1j, -1, -1j])) == pytest.approx(1.0)


def test_papr_at_least_one_with_equality_iff_constant_modulus():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 16)) + 1j * rng.normal(size=(200, 16))
    values = papr(x)
    assert np.all(values >= 1.0)
    # non-constant-modulus rows are strictly above 1
    assert np.all(values > 1.0 + 1e-12)
    phases = np.exp(2j * np.pi * rng.random((20, 16)))
    assert np.abs(papr(phases) - 1.0).max() < 1e-12


def test_papr_rejects_zero_energy():
    with pytest.raises(DegenerateSymbolError):
        papr(np.zeros(8))


def test_invalid_oversample_rejected():
    with pytest.raises(ValueError):
        ifft_oversampled(np.ones(4), 0)
    with pytest.raises(ValueError):
        fft_oversampled(np.ones(6), 4)


@pytest.mark.parametrize("oversample", [2.5, 1.9, 0.5, 2.0, 0, -1, np.int64(0)])
def test_oversample_must_be_a_positive_integer(oversample):
    # a float is not truncated to an integer factor, and the message names
    # the value the caller passed
    got = f"got {oversample}$"
    with pytest.raises(ValueError, match=got):
        ifft_oversampled(np.ones(8), oversample)
    with pytest.raises(ValueError, match=got):
        fft_oversampled(np.ones(16), oversample)


def test_oversample_takes_any_integer_type():
    c = np.arange(1.0, 9.0)
    x = ifft_oversampled(c, np.int64(2))
    assert x.shape == (16,) and np.array_equal(x, ifft_oversampled(c, 2))
    assert np.array_equal(fft_oversampled(x, np.int32(2)), fft_oversampled(x, 2))


class TestCarrierPlan:
    def test_default_plan_layout(self):
        plan = CarrierPlan.default(64, 12)
        assert plan.n_data == 52 and plan.n_free == 12
        assert plan.free_idx[0] == 0
        assert list(plan.free_idx[1:]) == list(range(53, 64))

    @pytest.mark.parametrize("n_carriers", [2, 3, 8, 64, 256])
    def test_default_data_idx_matches_setdiff1d(self, n_carriers):
        # the set difference the boolean mask replaced, as the oracle
        for n_free in range(1, n_carriers):
            plan = CarrierPlan.default(n_carriers, n_free)
            free = np.r_[0, np.arange(n_carriers - (n_free - 1), n_carriers)]
            want = np.setdiff1d(np.arange(n_carriers), free)
            assert np.array_equal(plan.free_idx, free)
            assert plan.data_idx.dtype == want.dtype
            assert np.array_equal(plan.data_idx, want)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            CarrierPlan(4, data_idx=[0, 1, 2], free_idx=[2, 3])
        with pytest.raises(ValueError):
            CarrierPlan(4, data_idx=[0, 1], free_idx=[3])


class TestConstellation:
    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_unit_average_energy(self, name):
        const = Constellation.from_name(name)
        assert np.mean(np.abs(const.points) ** 2) == pytest.approx(1.0)

    def test_qpsk_zero_bits_map(self):
        const = Constellation.qpsk()
        assert const.points[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_gray_adjacency(self, name):
        const = Constellation.from_name(name)
        pts = const.points
        d = np.abs(pts[:, None] - pts[None, :])
        d_min = d[d > 0].min()
        neighbours = (d > 0) & (d < d_min * 1.001)
        for i, j in zip(*np.nonzero(neighbours)):
            assert bin(i ^ j).count("1") == 1


class TestMapping:
    def setup_method(self):
        self.plan = CarrierPlan.default(64, 12)

    def test_qpsk_single_carrier_example(self):
        plan = CarrierPlan(2, data_idx=[0], free_idx=[1])
        c = map_bits(np.array([0, 0]), Constellation.qpsk(), plan)
        assert c[0] == pytest.approx((1 + 1j) / np.sqrt(2))
        assert c[1] == 0.0

    def test_free_carriers_exactly_zero(self):
        rng = np.random.default_rng(5)
        const = Constellation.qam16()
        bits = rng.integers(0, 2, size=(20, self.plan.n_data * 4))
        c = map_bits(bits, const, self.plan)
        assert np.all(c[:, self.plan.free_idx] == 0.0)

    def test_all_zero_bits_sixteen_qam(self):
        const = Constellation.qam16()
        bits = np.zeros(self.plan.n_data * 4, dtype=int)
        c = map_bits(bits, const, self.plan)
        assert np.all(c[self.plan.data_idx] == const.points[0])

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_round_trip_random_bits(self, name):
        rng = np.random.default_rng(6)
        const = Constellation.from_name(name)
        bits = rng.integers(0, 2, size=(50, self.plan.n_data * const.bits_per_symbol))
        c = map_bits(bits, const, self.plan)
        assert np.array_equal(demap_bits(c, const, self.plan), bits)

    def test_round_trip_exhaustive_over_constellation(self):
        const = Constellation.qam16()
        plan = CarrierPlan(2, data_idx=[0], free_idx=[1])
        for label in range(16):
            bits = [(label >> s) & 1 for s in (3, 2, 1, 0)]
            c = map_bits(np.array(bits), const, plan)
            assert list(demap_bits(c, const, plan)) == bits

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(ValueError):
            map_bits(np.zeros(13), Constellation.qpsk(), self.plan)


def oracle_demap(c, const, plan):
    """Minimum-distance search over every constellation point."""
    data = np.asarray(c, dtype=complex)[..., plan.data_idx]
    labels = (np.abs(data[..., None] - const.points) ** 2).argmin(axis=-1)
    shifts = np.arange(const.bits_per_symbol - 1, -1, -1)
    bits = (labels[..., None] >> shifts) & 1
    return bits.reshape(c.shape[:-1] + (plan.n_data * const.bits_per_symbol,)).astype(np.int8)


def chosen_points(bits, const):
    """Constellation points named by MSB-first label bits."""
    groups = bits.reshape(-1, const.bits_per_symbol)
    weights = 1 << np.arange(const.bits_per_symbol - 1, -1, -1)
    return const.points[groups @ weights]


def decision_boundaries(const):
    """Midpoints between adjacent levels of each rail, from the points alone."""
    out = []
    for rail in (const.points.real, const.points.imag):
        levels = np.unique(rail)
        out.append((levels[:-1] + levels[1:]) / 2.0)
    return out


def assert_matches_oracle(values, const):
    """Bits equal the oracle's; where the nearest point ties, a nearest one is picked."""
    n = len(values)
    plan = CarrierPlan(n + 1, data_idx=np.arange(n), free_idx=[n])
    c = np.append(np.asarray(values, dtype=complex), 0.0)
    got = demap_bits(c, const, plan)
    d2 = np.abs(c[:n, None] - const.points) ** 2
    d2_sorted = np.sort(d2, axis=-1)
    tie = d2_sorted[:, 1] - d2_sorted[:, 0] <= 1e-12
    k = const.bits_per_symbol
    want = oracle_demap(c, const, plan).reshape(n, k)
    assert np.array_equal(got.reshape(n, k)[~tie], want[~tie])
    d2_picked = np.abs(c[:n] - chosen_points(got, const)) ** 2
    assert np.all(d2_picked <= d2_sorted[:, 0] + 1e-12)
    return tie


CONSTELLATIONS = st.sampled_from(["qpsk", "16qam"]).map(Constellation.from_name)
RAIL = st.floats(-2.0, 2.0, allow_nan=False)


class TestPerRailDemap:
    """The per-rail decision against the full minimum-distance search."""

    @settings(deadline=None)
    @given(
        const=CONSTELLATIONS,
        values=st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=32,
        ),
    )
    def test_random_carriers_match_oracle(self, const, values):
        assert_matches_oracle(values, const)

    @settings(deadline=None)
    @given(const=CONSTELLATIONS, other=st.lists(RAIL, min_size=1, max_size=4))
    def test_points_beside_every_boundary_match_oracle(self, const, other):
        re_bounds, im_bounds = decision_boundaries(const)
        values = []
        for y in other:
            for offset in (-1e-9, 1e-9):
                values += [complex(b + offset, y) for b in re_bounds]
                values += [complex(y, b + offset) for b in im_bounds]
        assert_matches_oracle(values, const)

    @settings(deadline=None)
    @given(const=CONSTELLATIONS, other=st.lists(RAIL, min_size=1, max_size=4))
    def test_boundary_ties_pick_a_nearest_point(self, const, other):
        re_bounds, im_bounds = decision_boundaries(const)
        values = [complex(b, y) for y in other for b in re_bounds]
        values += [complex(y, b) for y in other for b in im_bounds]
        values += [complex(br, bi) for br in re_bounds for bi in im_bounds]
        assert assert_matches_oracle(values, const).all()

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_rail_decision_is_searchsorted_to_the_bit(self, name):
        # each rail counts the thresholds it lies above; that must be the
        # searchsorted index at and one ulp either side of every threshold
        const = Constellation.from_name(name)
        rail = [-np.inf, -1e300, -10.0, -0.0, 0.0, 10.0, 1e300, np.inf]
        for b in np.union1d(const.re_bounds, const.im_bounds):
            rail += [np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)]
        re, im = (a.ravel() for a in np.meshgrid(rail, rail))
        n = re.size
        plan = CarrierPlan(n + 1, data_idx=np.arange(n), free_idx=[n])
        c = np.zeros(n + 1, dtype=complex)
        c.real[:n], c.imag[:n] = re, im  # keeps the sign of each zero
        want = const.grid_bits[
            np.searchsorted(const.re_bounds, re), np.searchsorted(const.im_bounds, im)
        ]
        assert np.array_equal(demap_bits(c, const, plan), want.ravel())

    def test_batch_shape_round_trip(self):
        const = Constellation.qam16()
        plan = CarrierPlan.default(64, 12)
        rng = np.random.default_rng(8)
        c = rng.normal(size=(3, 5, 64)) + 1j * rng.normal(size=(3, 5, 64))
        got = demap_bits(c, const, plan)
        assert got.shape == (3, 5, plan.n_data * 4) and got.dtype == np.int8
        assert np.array_equal(got, oracle_demap(c, const, plan))

    @pytest.mark.parametrize("n_re", [4, 2])
    def test_rectangular_grid_matches_oracle(self, n_re):
        # rails with different thresholds: four levels on one, two on the other
        four, two = [-3.0, -1.0, 1.0, 3.0], [-1.0, 1.0]
        re, im = np.meshgrid(*((four, two) if n_re == 4 else (two, four)), indexing="ij")
        points = (re + 1j * im).ravel()
        const = Constellation("8qam", 3, points / np.sqrt(np.mean(np.abs(points) ** 2)))
        rng = np.random.default_rng(11)
        values = rng.normal(scale=1.5, size=200) + 1j * rng.normal(scale=1.5, size=200)
        assert not assert_matches_oracle(values, const).any()
        re_bounds, im_bounds = decision_boundaries(const)
        edges = [complex(b, y) for b in re_bounds for y in im_bounds]
        assert assert_matches_oracle(edges, const).all()

    def test_non_grid_constellation_rejected(self):
        eight_psk = np.exp(2j * np.pi * np.arange(8) / 8)
        with pytest.raises(ValueError, match="grid"):
            Constellation("8psk", 3, eight_psk)
