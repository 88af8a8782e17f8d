import numpy as np
import pytest

from papradmm import (
    CarrierPlan,
    Constellation,
    fft_oversampled,
    ifft_oversampled,
    map_bits,
    papr_db,
)
from papradmm.params import db_to_linear
from papradmm.rcf import RCF_PASSES, clip, rcf

PLAN = CarrierPlan.default(64, 12)


def random_symbols(rng, count):
    bits = rng.integers(0, 2, size=(count, PLAN.n_data * 4))
    return map_bits(bits, Constellation.qam16(), PLAN)


def test_low_papr_input_passes_through():
    c_o = np.zeros(64, dtype=complex)
    c_o[PLAN.data_idx[0]] = 1.0  # constant modulus in time
    out = rcf(c_o, PLAN, 4.0, 4)
    assert np.abs(out - ifft_oversampled(c_o, 4)).max() < 1e-12


def test_clip_is_idempotent_at_fixed_threshold():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))
    level = np.full(5, 0.8)
    once = clip(x, level)
    twice = clip(once, level)
    assert np.abs(twice - once).max() < 1e-15
    assert np.abs(once).max() <= 0.8 + 1e-12


def test_clip_preserves_phase():
    rng = np.random.default_rng(1)
    x = 3.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=16))
    out = clip(x, np.array(1.0))
    assert np.abs(np.angle(out) - np.angle(x)).max() < 1e-12


def test_free_carriers_stay_zero_and_energy_drops():
    rng = np.random.default_rng(2)
    c_o = random_symbols(rng, 20)
    x = rcf(c_o, PLAN, 4.0, 4)
    c_out = fft_oversampled(x, 4)
    assert np.abs(c_out[:, PLAN.free_idx]).max() < 1e-12
    energy_in = np.linalg.norm(c_o, axis=-1) ** 2
    energy_out = np.linalg.norm(c_out, axis=-1) ** 2
    assert np.all(energy_out <= energy_in + 1e-9)


def test_papr_reduced_toward_target():
    rng = np.random.default_rng(3)
    c_o = random_symbols(rng, 100)
    before = papr_db(ifft_oversampled(c_o, 4))
    after = papr_db(rcf(c_o, PLAN, 4.0, 4))
    assert np.median(after) < np.median(before) - 2.5
    assert np.median(after) < 4.5  # near, if not exactly at, the 4 dB target


def test_param_validation():
    c_o = random_symbols(np.random.default_rng(4), 2)
    for target_db in (0.0, -1.0):
        with pytest.raises(ValueError):
            rcf(c_o, PLAN, target_db, 4)


@pytest.mark.parametrize("n_carriers", [32, 128])
def test_a_carrier_count_off_the_plan_is_rejected(n_carriers):
    c_o = np.zeros((2, n_carriers), dtype=complex)
    c_o[:, PLAN.data_idx[PLAN.data_idx < n_carriers]] = 1.0
    with pytest.raises(ValueError, match=f"{n_carriers} carriers, the plan 64"):
        rcf(c_o, PLAN, 4.0, 4)


def reference_clip(x, amplitude):
    """The clip rule with a ``where``-guarded divide and ``minimum``."""
    mag = np.abs(x)
    return x * np.minimum(1.0, amplitude[..., None] / np.where(mag > 0, mag, 1.0))


def reference_rcf(c_o, plan, target_papr_db, oversample):
    """The clip-and-filter passes, taking ``|x|`` twice per pass: for the mean power and in the clip."""
    c = np.atleast_2d(c_o).copy()
    target = db_to_linear(target_papr_db)
    for _ in range(RCF_PASSES):
        x = ifft_oversampled(c, oversample)
        mean_power = np.mean(np.abs(x) ** 2, axis=-1)
        x = reference_clip(x, np.sqrt(target * mean_power))
        c = fft_oversampled(x, oversample)
        c[..., plan.free_idx] = 0.0
    return ifft_oversampled(c, oversample)


def test_rcf_is_bit_identical_to_reference():
    c_o = random_symbols(np.random.default_rng(5), 10)
    c_o[2] = 0.0  # all-zero row
    c_o[4] = 0.0
    c_o[4, [1, 33]] = 1.0  # exact zero samples, 3 dB PAPR: under the target
    c_o[6] = 0.0
    c_o[6, [16, 48]] = [1.0, -1j]
    c_o[8] = 0.0
    c_o[8, PLAN.data_idx[0]] = 2.0  # constant modulus
    x_o = ifft_oversampled(c_o, 4)
    assert np.all(x_o[2] == 0) and np.any(x_o[4] == 0) and np.any(x_o[6] == 0)
    assert papr_db(x_o[[4, 8]]).max() < 4.0 < papr_db(x_o[[0, 1]]).min()
    want = reference_rcf(c_o, PLAN, 4.0, 4)
    assert rcf(c_o, PLAN, 4.0, 4).tobytes() == want.tobytes()
    assert rcf(c_o[4], PLAN, 4.0, 4).tobytes() == want[4].tobytes()


def test_clip_is_bit_identical_to_reference():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32))
    x[0] = 0.0
    x[1, ::3] = 0.0
    x[2, 5] = complex(-0.0, 0.0)
    x[3, 7] = complex(0.0, -0.0)
    for amplitude in (np.array([0.0, 0.5, 0.0, 1e3]), np.zeros(4), np.full(4, 0.8)):
        want = reference_clip(x, amplitude)
        assert clip(x, amplitude).tobytes() == want.tobytes()
        inplace = x.copy()
        assert clip(inplace, amplitude, np.abs(inplace), out=inplace) is inplace
        assert inplace.tobytes() == want.tobytes()
