import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tempres
from tempres import (
    DeviceModel,
    apply_device,
    coherent_modes,
    hg_projection_probs,
    incoherent_intensity_profile,
    intensity_profiles,
    mixed_projection_probs,
    quadrature_projection_probs,
)
from tempres.channels import (
    ChannelDistribution,
    _trapezoid_mode_table,
    check_gamma,
    mode_weight,
)
from tempres.pulses import GRID, hg_amplitude

GAMMA_GRID = [0.0, 0.125, 0.25, 0.375, 0.5]
MODE_CUTOFF = 8
WIDE_CUTOFF = 16


def test_coherent_modes_tau_zero():
    psi_s, psi_a = coherent_modes(0.0)
    assert np.abs(psi_a.values).max() == 0.0
    assert psi_s.norm_sq() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_antisymmetric_norm_closed_form(tau):
    _, psi_a = coherent_modes(tau)
    expected = 0.5 * (1.0 - np.exp(-tau**2 / 8.0))
    assert psi_a.norm_sq() == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_mode_parity_in_time(grid, tau):
    # centred on a grid sample so parity can be checked pointwise about t = 0
    mid = len(grid) // 2
    psi_s, psi_a = coherent_modes(tau, centroid_offset=grid[mid])
    k = np.arange(1, mid)
    np.testing.assert_allclose(psi_s.values[mid - k], psi_s.values[mid + k],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(psi_a.values[mid - k], -psi_a.values[mid + k],
                               rtol=0, atol=1e-15)
    assert psi_a.values[mid] == 0.0


def test_norm_split_between_channels():
    for tau in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        psi_s, psi_a = coherent_modes(tau)
        assert psi_s.norm_sq() + psi_a.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_projection_probs_tau_zero():
    s, a = hg_projection_probs(MODE_CUTOFF, 0.0)
    assert s.probs[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(s.probs[1:] == 0.0)
    assert np.all(a.probs == 0.0)


def test_projection_probs_known_value():
    # p_1(sigma_t) = (1/16) exp(-1/16)
    _, a = hg_projection_probs(MODE_CUTOFF, 1.0)
    assert a.probs[1] == pytest.approx(np.exp(-1.0 / 16.0) / 16.0, abs=1e-12)
    assert a.probs[1] == pytest.approx(0.0587133, abs=1e-6)


def test_projection_probs_parity_purity():
    for tau in (0.1, 0.5, 1.0, 2.0):
        s, a = hg_projection_probs(MODE_CUTOFF, tau)
        assert np.all(s.probs[1::2] == 0.0)
        assert np.all(a.probs[0::2] == 0.0)


def test_projection_probs_total_unity():
    for tau in (0.0, 0.5, 1.0, 2.0, 3.0):
        s, a = hg_projection_probs(MODE_CUTOFF, tau)
        total = s.probs.sum() + a.probs.sum() + s.tail_mass + a.tail_mass
        assert total == pytest.approx(1.0, abs=1e-9)


def test_mode_weight_is_poisson():
    tau = 1.3
    x = tau**2 / 16.0
    n = np.arange(8)
    expected = np.exp(-x) * x**n / np.array([math.factorial(k) for k in n])
    np.testing.assert_allclose(mode_weight(tau, n), expected, rtol=1e-12)


def test_mode_weight_reproduces_scipy_poisson_pmf():
    stats = pytest.importorskip("scipy.stats")
    n = np.arange(WIDE_CUTOFF)
    taus = np.concatenate([np.arange(7) / 6.0, np.linspace(0.0, 8.0, 401),
                           np.random.default_rng(5).uniform(0.0, 8.0, 400)])
    for tau in taus:
        got = mode_weight(tau, n)
        want = stats.poisson.pmf(n, tau**2 / 16.0)
        np.testing.assert_array_equal(got[:13], want[:13])
        np.testing.assert_allclose(got[13:], want[13:], rtol=1e-13, atol=0.0)
    # broadcast over an array of separations at one mode index
    np.testing.assert_array_equal(mode_weight(taus, 3),
                                  stats.poisson.pmf(3, taus**2 / 16.0))


def test_import_leaves_scipy_unloaded():
    src = str(Path(tempres.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, tempres; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_closed_form_matches_quadrature(tau):
    s, a = hg_projection_probs(MODE_CUTOFF, tau)
    qs, qa = quadrature_projection_probs(MODE_CUTOFF, tau)
    assert np.abs(s.probs - qs.probs).max() < 1e-8
    assert np.abs(a.probs - qa.probs).max() < 1e-8


def test_tail_mass_small_below_two_sigma():
    # Poisson argument x = tau^2/16 <= 0.25, so the mass beyond n = 7 is tiny
    for tau in (0.5, 1.0, 2.0):
        s, a = hg_projection_probs(MODE_CUTOFF, tau)
        assert s.tail_mass + a.tail_mass < 1e-9


def test_mixing_gamma_zero_identity():
    s, a = hg_projection_probs(MODE_CUTOFF, 0.8)
    ms, ma = mixed_projection_probs(s, a, 0.0)
    np.testing.assert_array_equal(ms.probs, s.probs)
    np.testing.assert_array_equal(ma.probs, a.probs)


def test_mixing_gamma_half_identical_channels():
    s, a = hg_projection_probs(MODE_CUTOFF, 0.8)
    ms, ma = mixed_projection_probs(s, a, 0.5)
    np.testing.assert_allclose(ms.probs, ma.probs, rtol=0, atol=1e-16)
    np.testing.assert_allclose(ms.probs, 0.5 * (s.probs + a.probs), rtol=1e-15)


@pytest.mark.parametrize("gamma", GAMMA_GRID)
def test_mixing_preserves_incoherent_sum(gamma):
    s, a = hg_projection_probs(MODE_CUTOFF, 0.8)
    ms, ma = mixed_projection_probs(s, a, gamma)
    np.testing.assert_allclose(ms.probs + ma.probs, s.probs + a.probs,
                               rtol=0, atol=1e-16)


def test_gamma_range_check():
    with pytest.raises(ValueError):
        check_gamma(-0.01)
    with pytest.raises(ValueError):
        check_gamma(0.51)


def test_intensity_profiles_tau_zero():
    _, anti = intensity_profiles(0.0)
    assert np.abs(anti).max() == 0.0


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_intensity_profiles_unit_total(grid, tau):
    sym, anti = intensity_profiles(tau)
    total = np.trapezoid(sym, grid) + np.trapezoid(anti, grid)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert np.all(sym >= 0) and np.all(anti >= 0)


def test_incoherent_profile_unit_total(grid):
    for tau in (0.1, 1.0, 2.0):
        density = incoherent_intensity_profile(tau)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-9)


def test_apply_device_identity():
    s, _ = hg_projection_probs(MODE_CUTOFF, 0.7)
    rates = apply_device(s, DeviceModel())
    np.testing.assert_array_equal(rates, s.probs)


def test_apply_device_crosstalk_leak():
    dist = ChannelDistribution(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    rates = apply_device(dist, DeviceModel(crosstalk_eps=0.02, efficiency=0.8))
    assert rates[1] == pytest.approx(0.01 * 0.8, abs=1e-15)
    assert rates[0] == pytest.approx(0.8 * (0.98 + 0.01), abs=1e-15)


def test_apply_device_rate_bound():
    dev = DeviceModel(crosstalk_eps=0.05, efficiency=0.9, dark_rate=2.0)
    dark_norm = dev.dark_rate / 1e4
    s, a = hg_projection_probs(MODE_CUTOFF, 1.0)
    total = apply_device(s, dev, dark_norm).sum() + apply_device(a, dev, dark_norm).sum()
    assert total <= dev.efficiency + 2 * len(s.probs) * dark_norm + 1e-12
    assert np.all(apply_device(s, dev, dark_norm) >= 0)


def test_device_model_validation():
    with pytest.raises(ValueError):
        DeviceModel(crosstalk_eps=1.0)
    with pytest.raises(ValueError):
        DeviceModel(efficiency=0.0)
    with pytest.raises(ValueError):
        DeviceModel(dark_rate=-1.0)


def test_trapezoid_mode_table_is_read_only_and_shared():
    table = _trapezoid_mode_table(MODE_CUTOFF)
    assert table.shape == (MODE_CUTOFF, GRID.size)
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert _trapezoid_mode_table(MODE_CUTOFF) is table


@pytest.mark.parametrize("mode_cutoff", [4, 8, 64])
def test_quadrature_matches_per_mode_trapezoid(mode_cutoff):
    # the overlaps as np.trapezoid integrates them, one mode row at a time
    modes = np.array([hg_amplitude(k, GRID) for k in range(mode_cutoff)])
    for offset in (0.0, 0.3, -0.3, 1.0, -1.0):
        for tau in (0.0, 0.5, 2.0):
            psis = coherent_modes(tau, offset)
            for dist, psi in zip(quadrature_projection_probs(mode_cutoff, tau, offset), psis):
                probs = np.trapezoid(modes * psi.values, GRID, axis=1) ** 2
                np.testing.assert_allclose(dist.probs, probs, rtol=0, atol=1e-14)
                tail = max(psi.norm_sq() - probs.sum(), 0.0)
                assert dist.tail_mass == pytest.approx(tail, rel=0, abs=1e-14)


def test_hg_projection_probs_are_repeatable():
    first = hg_projection_probs(MODE_CUTOFF, 0.7)
    again = hg_projection_probs(MODE_CUTOFF, 0.7)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a.probs, b.probs)
        assert a.tail_mass == b.tail_mass
