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
from papradmm.rcf import clip, rcf

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
