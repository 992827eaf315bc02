import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tempres
from oracles import (
    GRID,
    coherent_modes,
    incoherent_density,
    poisson_pmf,
    trapezoid_projection_probs,
)
from tempres import (
    DeviceModel,
    apply_device,
    hg_projection_probs,
    mixed_projection_probs,
    quadrature_projection_probs,
)
from tempres.channels import check_gamma
from tempres.montecarlo import DEFAULT_TAU_GRID

GAMMA_GRID = [0.0, 0.125, 0.25, 0.375, 0.5]
MODE_CUTOFF = 8
WIDE_CUTOFF = 16


def test_coherent_modes_tau_zero():
    psi_s, psi_a = coherent_modes(0.0)
    assert np.abs(psi_a).max() == 0.0
    assert np.trapezoid(psi_s**2, GRID) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_antisymmetric_norm_closed_form(tau):
    _, psi_a = coherent_modes(tau)
    expected = 0.5 * (1.0 - np.exp(-tau**2 / 8.0))
    assert np.trapezoid(psi_a**2, GRID) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_mode_parity_in_time(grid, tau):
    # centred on a grid sample so parity can be checked pointwise about t = 0
    mid = len(grid) // 2
    psi_s, psi_a = coherent_modes(tau, centroid_offset=grid[mid])
    k = np.arange(1, mid)
    np.testing.assert_allclose(psi_s[mid - k], psi_s[mid + k], rtol=0, atol=1e-15)
    np.testing.assert_allclose(psi_a[mid - k], -psi_a[mid + k], rtol=0, atol=1e-15)
    assert psi_a[mid] == 0.0


def test_norm_split_between_channels():
    for tau in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        psi_s, psi_a = coherent_modes(tau)
        total = np.trapezoid(psi_s**2, GRID) + np.trapezoid(psi_a**2, GRID)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_projection_probs_tau_zero():
    s, a = hg_projection_probs(MODE_CUTOFF, 0.0)
    assert s[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(s[1:] == 0.0)
    assert np.all(a == 0.0)


def test_projection_probs_known_value():
    # p_1(sigma_t) = (1/16) exp(-1/16)
    _, a = hg_projection_probs(MODE_CUTOFF, 1.0)
    assert a[1] == pytest.approx(np.exp(-1.0 / 16.0) / 16.0, abs=1e-12)
    assert a[1] == pytest.approx(0.0587133, abs=1e-6)


def test_projection_probs_parity_purity():
    for tau in (0.1, 0.5, 1.0, 2.0):
        s, a = hg_projection_probs(MODE_CUTOFF, tau)
        assert np.all(s[1::2] == 0.0)
        assert np.all(a[0::2] == 0.0)


def test_projection_probs_total_unity():
    # Poisson argument x = tau^2/16 <= 1, so the mass past 64 modes is far below 1e-12
    for tau in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0):
        s, a = hg_projection_probs(64, tau)
        assert s.sum() + a.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("taus", [DEFAULT_TAU_GRID, np.linspace(0.0, 4.0, 401)],
                         ids=["default-grid", "sweep"])
def test_hg_projection_probs_are_poisson(taus):
    n = np.arange(WIDE_CUTOFF)
    even = n % 2 == 0
    for tau in taus:
        s, a = hg_projection_probs(WIDE_CUTOFF, tau)
        assert np.all(s[~even] == 0.0) and np.all(a[even] == 0.0)
        np.testing.assert_allclose(np.where(even, s, a), poisson_pmf(tau, n),
                                   rtol=1e-13, atol=0.0)


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
    qs, qa = trapezoid_projection_probs(MODE_CUTOFF, tau)
    assert np.abs(s - qs).max() < 1e-12
    assert np.abs(a - qa).max() < 1e-12


def test_tail_mass_small_below_two_sigma():
    # Poisson argument x = tau^2/16 <= 0.25, so the mass beyond n = 7 is tiny
    for tau in (0.5, 1.0, 2.0):
        s, a = hg_projection_probs(MODE_CUTOFF, tau)
        assert 1.0 - (s.sum() + a.sum()) < 1e-9


def test_mixing_gamma_zero_identity():
    s, a = hg_projection_probs(MODE_CUTOFF, 0.8)
    ms, ma = mixed_projection_probs(s, a, 0.0)
    np.testing.assert_array_equal(ms, s)
    np.testing.assert_array_equal(ma, a)


def test_mixing_gamma_half_identical_channels():
    s, a = hg_projection_probs(MODE_CUTOFF, 0.8)
    ms, ma = mixed_projection_probs(s, a, 0.5)
    np.testing.assert_allclose(ms, ma, rtol=0, atol=1e-16)
    np.testing.assert_allclose(ms, 0.5 * (s + a), rtol=1e-15)


@pytest.mark.parametrize("gamma", GAMMA_GRID)
def test_mixing_preserves_incoherent_sum(gamma):
    s, a = hg_projection_probs(MODE_CUTOFF, 0.8)
    ms, ma = mixed_projection_probs(s, a, gamma)
    np.testing.assert_allclose(ms + ma, s + a, rtol=0, atol=1e-16)


def test_gamma_range_check():
    with pytest.raises(ValueError):
        check_gamma(-0.01)
    with pytest.raises(ValueError):
        check_gamma(0.51)


def test_incoherent_profile_unit_total(grid):
    for tau in (0.1, 1.0, 2.0):
        assert np.trapezoid(incoherent_density(tau), grid) == pytest.approx(1.0, abs=1e-9)


def test_apply_device_identity():
    s, _ = hg_projection_probs(MODE_CUTOFF, 0.7)
    rates = apply_device(s, DeviceModel())
    np.testing.assert_array_equal(rates, s)


def test_apply_device_crosstalk_leak():
    rates = apply_device(np.array([1.0, 0.0, 0.0, 0.0]),
                         DeviceModel(crosstalk_eps=0.02, efficiency=0.8))
    assert rates[1] == pytest.approx(0.01 * 0.8, abs=1e-15)
    assert rates[0] == pytest.approx(0.8 * (0.98 + 0.01), abs=1e-15)


def test_apply_device_rate_bound():
    # the device maps probabilities only: the dark rate, in counts, stays out
    dev = DeviceModel(crosstalk_eps=0.05, efficiency=0.9, dark_rate=2.0)
    s, a = hg_projection_probs(MODE_CUTOFF, 1.0)
    total = apply_device(s, dev).sum() + apply_device(a, dev).sum()
    assert total <= dev.efficiency + 1e-12
    assert np.all(apply_device(s, dev) >= 0)
    np.testing.assert_array_equal(apply_device(s, dev),
                                  apply_device(s, replace(dev, dark_rate=0.0)))


def test_device_model_validation():
    with pytest.raises(ValueError):
        DeviceModel(crosstalk_eps=1.0)
    with pytest.raises(ValueError):
        DeviceModel(efficiency=0.0)
    with pytest.raises(ValueError):
        DeviceModel(dark_rate=-1.0)
    for dark_rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dark_rate must be finite"):
            DeviceModel(dark_rate=dark_rate)
    # each field is a real number: a bool or a string is not one
    for key, value in (("efficiency", True), ("dark_rate", False), ("crosstalk_eps", False),
                       ("dark_rate", "1"), ("efficiency", "0.9"), ("dark_rate", 1j),
                       ("crosstalk_eps", None)):
        with pytest.raises(ValueError, match=f"{key} must be a real number"):
            DeviceModel(**{key: value})
    # nor is an int past float range
    for key in ("crosstalk_eps", "efficiency", "dark_rate"):
        with pytest.raises(ValueError, match=f"{key} = 10+ is too large for a float"):
            DeviceModel(**{key: 10**400})
    # ints and numpy reals count, and are held as Python floats
    dev = DeviceModel(crosstalk_eps=np.float32(0.5), efficiency=1, dark_rate=np.int64(2))
    held = (dev.crosstalk_eps, dev.efficiency, dev.dark_rate)
    assert held == (0.5, 1.0, 2.0) and {type(v) for v in held} == {float}


@pytest.mark.parametrize("mode_cutoff", [4, 8, 64])
def test_quadrature_matches_per_mode_trapezoid(mode_cutoff):
    # the displaced-pulse closed form against the overlaps as np.trapezoid
    # integrates them on GRID, one HG mode at a time
    for offset in (0.0, 0.3, -0.3, 1.0, -1.0):
        for tau in (0.0, 0.5, 2.0):
            for got, want in zip(quadrature_projection_probs(mode_cutoff, tau, offset),
                                 trapezoid_projection_probs(mode_cutoff, tau, offset)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_hg_projection_probs_are_repeatable():
    first = hg_projection_probs(MODE_CUTOFF, 0.7)
    again = hg_projection_probs(MODE_CUTOFF, 0.7)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
