import numpy as np
import pytest

import oracles
from oracles import (
    WaveformSamples,
    coherent_modes,
    hg_amplitude,
    make_grid,
    quadrature_inner_product,
)
from tempres import gaussian_amplitude
from tempres.pulses import GRID


def test_gaussian_peak_value():
    # (2 pi)^(-1/4) at the origin for unit width
    assert gaussian_amplitude(0.0) == pytest.approx(0.63161878, abs=1e-8)


def test_gaussian_decay_and_symmetry(grid):
    values = gaussian_amplitude(grid)
    assert values[0] < 1e-27 and values[-1] < 1e-27
    np.testing.assert_allclose(values, values[::-1], rtol=0, atol=1e-15)


def test_gaussian_unit_norm(grid):
    psi = WaveformSamples(grid, gaussian_amplitude(grid))
    assert quadrature_inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-10)


def test_hg0_is_gaussian(grid):
    np.testing.assert_allclose(hg_amplitude(0, grid),
                               gaussian_amplitude(grid), rtol=0, atol=1e-15)


def test_hg1_vanishes_at_origin():
    assert hg_amplitude(1, 0.0) == 0.0


def test_hg_orthonormality(grid):
    modes = np.array([hg_amplitude(n, grid) for n in range(8)])
    gram = np.trapezoid(modes[:, None, :] * modes[None, :, :], grid, axis=2)
    assert np.abs(gram - np.eye(8)).max() < 1e-8


def test_hg_orthonormality_largest_cutoff(grid):
    modes = np.array([hg_amplitude(n, grid) for n in range(16)])
    gram = np.trapezoid(modes[:, None, :] * modes[None, :, :], grid, axis=2)
    assert np.abs(gram - np.eye(16)).max() < 1e-8


@pytest.mark.parametrize("n", range(8))
def test_hg_parity(grid, n):
    values = hg_amplitude(n, grid)
    np.testing.assert_allclose(values, (-1) ** n * values[::-1], rtol=0, atol=1e-13)


def test_hg_mode_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        hg_amplitude(-1, 0.0)


@pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
def test_shifted_pair_total_norm(tau):
    # GRID holds both pulses psi(t +/- tau/2) / sqrt(2) at every separation up to
    # GRID_TAU_MARGIN: their squared norms sum to one
    norms = [np.trapezoid(gaussian_amplitude(GRID + sign * tau / 2.0) ** 2 / 2.0, GRID)
             for sign in (+1, -1)]
    assert sum(norms) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0])
def test_shifted_pair_overlap(tau):
    # <psi_-|psi_+> = (1/2) exp(-tau^2 / 8 sigma^2) with the 1/sqrt(2) weights; the
    # channel modes (psi_+ +/- psi_-)/sqrt(2) differ in squared norm by twice that
    psi_s, psi_a = coherent_modes(tau)
    overlap = (np.trapezoid(psi_s**2, GRID) - np.trapezoid(psi_a**2, GRID)) / 2.0
    assert overlap == pytest.approx(0.5 * np.exp(-tau**2 / 8.0), abs=1e-10)


def test_inner_product_grid_mismatch(grid):
    psi = WaveformSamples(grid, gaussian_amplitude(grid))
    other_grid = make_grid(points=2049)
    other = WaveformSamples(other_grid, gaussian_amplitude(other_grid))
    with pytest.raises(ValueError, match="grid"):
        quadrature_inner_product(psi, other)


def test_inner_product_parity_zero(grid):
    psi = WaveformSamples(grid, gaussian_amplitude(grid))
    hg1 = WaveformSamples(grid, hg_amplitude(1, grid))
    assert abs(quadrature_inner_product(hg1, psi)) < 1e-10


def test_hg0_shifted_overlap_two_resolutions():
    # <HG_0 | psi(t - tau/2)> at tau = sigma_t equals exp(-1/32)
    for points in (2001, 4001):
        grid = make_grid(points=points)
        hg0 = WaveformSamples(grid, hg_amplitude(0, grid))
        shifted = WaveformSamples(grid, gaussian_amplitude(grid - 0.5))
        value = quadrature_inner_product(hg0, shifted).real
        assert value == pytest.approx(np.exp(-1.0 / 32.0), abs=1e-8)


def test_inner_product_grid_doubling_convergence():
    results = []
    for points in (4096, 8192):
        grid = make_grid(points=points)
        hg2 = WaveformSamples(grid, hg_amplitude(2, grid))
        shifted = WaveformSamples(grid, gaussian_amplitude(grid - 0.7))
        results.append(quadrature_inner_product(hg2, shifted).real)
    assert abs(results[0] - results[1]) < 1e-8


def test_waveform_samples_validation(grid):
    with pytest.raises(ValueError):
        WaveformSamples(grid[::-1], np.zeros_like(grid))
    with pytest.raises(ValueError):
        WaveformSamples(grid, np.zeros(len(grid) - 1))


def test_standard_grid_is_checked_once_and_other_grids_every_time(grid, monkeypatch):
    def refuse(values):
        raise AssertionError("grid checked again")

    monkeypatch.setattr(oracles, "_check_increasing", refuse)
    WaveformSamples(GRID, np.zeros_like(GRID))
    with pytest.raises(AssertionError):
        WaveformSamples(grid, np.zeros_like(grid))   # equal values, another array
