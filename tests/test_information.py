import numpy as np
import pytest

from oracles import (
    WaveformSamples,
    channel_probs,
    classical_fi_discrete,
    coherent_modes,
    fd_intensity_fi,
    modified_qfi,
)
from tempres import (
    QFI,
    coherent_channel_fi_analytic,
    fisher_report,
    gaussian_amplitude,
    hg_projection_probs,
    incoherent_intensity_profile,
    intensity_fi,
    intensity_profiles,
)
from tempres.information import FisherReport, mixed_channel_fi_analytic
from tempres.pulses import GRID

# enough modes that truncation is negligible up to tau = 3 sigma_t
WIDE_CUTOFF = 16
TAU_GRID = np.linspace(0.05, 3.0, 25)
GAMMA_GRID = [0.0, 0.125, 0.25, 0.375, 0.5]

# quadrature value of the incoherent intensity FI at tau = 0.1 sigma_t, frozen
# from the finite-difference oracle (Rayleigh's curse: ~0.5% of the quantum FI)
INCOH_INTENSITY_FI_AT_0P1 = 1.2437913060e-3


def test_incoherent_fi_saturates_quantum_bound():
    incoh = lambda tau: sum(hg_projection_probs(WIDE_CUTOFF, tau))
    for tau in (0.05, 0.5, 1.0, 2.0, 3.0):
        assert classical_fi_discrete(incoh, tau) == pytest.approx(0.25, rel=1e-6)


def test_symmetric_channel_fi_vanishes_at_zero():
    fi = classical_fi_discrete(channel_probs(WIDE_CUTOFF, channels="s"), 0.0)
    assert fi == pytest.approx(0.0, abs=1e-10)


def test_mixed_channel_fi_sums_to_quantum_bound():
    for tau in (0.1, 0.5, 1.0):
        total = classical_fi_discrete(channel_probs(WIDE_CUTOFF, gamma=0.25), tau)
        assert total == pytest.approx(0.25, rel=1e-6)


@pytest.mark.parametrize("gamma", GAMMA_GRID)
def test_saturation_every_gamma(gamma):
    for tau in TAU_GRID[::4]:
        total = classical_fi_discrete(channel_probs(WIDE_CUTOFF, gamma=gamma), tau)
        assert total == pytest.approx(0.25, rel=1e-6)


def test_analytic_channel_fi_values():
    f_s, f_a = coherent_channel_fi_analytic(0.0)
    assert f_s == pytest.approx(0.0, abs=1e-15)
    assert f_a == pytest.approx(0.25, abs=1e-15)

    f_s, f_a = coherent_channel_fi_analytic(50.0)
    assert f_s == pytest.approx(0.125, abs=1e-12)
    assert f_a == pytest.approx(0.125, abs=1e-12)

    # at tau = 2 sigma_t the oscillating parenthesis vanishes exactly
    f_s, _ = coherent_channel_fi_analytic(2.0)
    assert f_s == pytest.approx(0.125, abs=1e-15)


def test_analytic_sum_constant():
    for tau in TAU_GRID:
        f_s, f_a = coherent_channel_fi_analytic(tau)
        assert f_s + f_a == pytest.approx(0.25, abs=1e-15)


def test_analytic_vs_finite_difference():
    for tau in TAU_GRID:
        f_s, f_a = coherent_channel_fi_analytic(tau)
        d_s = classical_fi_discrete(channel_probs(WIDE_CUTOFF, channels="s"), tau)
        d_a = classical_fi_discrete(channel_probs(WIDE_CUTOFF, channels="a"), tau)
        assert d_s == pytest.approx(f_s, rel=1e-6)
        assert d_a == pytest.approx(f_a, rel=1e-6)


def test_fi_step_halving_stable():
    for tau in (0.1, 1.0, 2.5):
        coarse = classical_fi_discrete(channel_probs(WIDE_CUTOFF), tau, step=1e-4)
        fine = classical_fi_discrete(channel_probs(WIDE_CUTOFF), tau, step=5e-5)
        assert abs(coarse - fine) / fine < 1e-6


def test_fi_rejects_negative_probabilities():
    with pytest.raises(ValueError, match="negative"):
        classical_fi_discrete(lambda tau: np.array([-0.1, 1.1]), 0.5)


def test_qfi_constant():
    assert QFI == pytest.approx(0.25)
    assert 1.0 / QFI == pytest.approx(4.0)


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_modified_qfi_matches_channel_fi(tau):
    f_s, f_a = coherent_channel_fi_analytic(tau)
    q_s = modified_qfi(lambda t: WaveformSamples(GRID, coherent_modes(t)[0]), tau)
    q_a = modified_qfi(lambda t: WaveformSamples(GRID, coherent_modes(t)[1]), tau)
    assert q_s == pytest.approx(f_s, rel=1e-6)
    assert q_a == pytest.approx(f_a, rel=1e-6)


def test_modified_qfi_parameter_independent_state(grid):
    psi = WaveformSamples(grid, gaussian_amplitude(grid))
    value = modified_qfi(lambda t: psi, 0.7)
    assert value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_intensity_fi_coherent_sum(tau):
    fi_s, fi_a = (intensity_fi(*profile) for profile in intensity_profiles(tau))
    assert fi_s + fi_a == pytest.approx(0.25, abs=1e-5)


def test_intensity_fi_matches_channel_fi():
    # time-resolved intensity detection of a coherent channel is optimal
    for tau in (0.2, 1.0):
        f_s, f_a = coherent_channel_fi_analytic(tau)
        fi_s, fi_a = (intensity_fi(*profile) for profile in intensity_profiles(tau))
        assert fi_s == pytest.approx(f_s, abs=2e-6)
        assert fi_a == pytest.approx(f_a, abs=2e-6)


PROFILES = {"s": lambda tau: intensity_profiles(tau)[0],
            "a": lambda tau: intensity_profiles(tau)[1],
            "incoherent": incoherent_intensity_profile}


@pytest.mark.parametrize("which", PROFILES)
def test_intensity_fi_closed_form_matches_finite_differences(which):
    profile = PROFILES[which]
    for tau in np.linspace(0.05, 4.0, 80):
        expected = fd_intensity_fi(lambda t: profile(t)[0], tau)
        assert intensity_fi(*profile(tau)) == pytest.approx(expected, rel=1e-9)
    # the finite difference leaves about 1e-23 here
    assert intensity_fi(*profile(0.0)) == 0.0


def test_rayleigh_curse_monotone_decay():
    values = [intensity_fi(*incoherent_intensity_profile(tau))
              for tau in (1.0, 0.5, 0.2, 0.1, 0.05)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0


def test_rayleigh_curse_frozen_fixture():
    value = intensity_fi(*incoherent_intensity_profile(0.1))
    assert value == pytest.approx(INCOH_INTENSITY_FI_AT_0P1, rel=1e-6)
    assert value < 0.01 * QFI


def test_incoherent_intensity_below_mode_projection():
    for tau in (0.05, 0.2, 0.5, 0.9):
        fi_int = intensity_fi(*incoherent_intensity_profile(tau))
        assert fi_int < 0.25


def test_mixed_channel_fi_analytic():
    f_s, f_a = coherent_channel_fi_analytic(0.6)
    m_s, m_a = mixed_channel_fi_analytic(0.6, 0.375)
    assert m_s == pytest.approx(0.625 * f_s + 0.375 * f_a)
    assert m_a == pytest.approx(0.375 * f_s + 0.625 * f_a)


def test_fisher_report_contents():
    report = fisher_report(0.5, 0.25)
    assert report.fi_total == pytest.approx(0.25, abs=1e-12)
    assert report.crb_per_event == pytest.approx(4.0, abs=1e-9)
    assert report.qfi == pytest.approx(0.25)
    assert report.fi_intensity_incoherent < report.fi_total


def test_fisher_report_validation():
    with pytest.raises(ValueError, match="negative"):
        FisherReport(tau=0.5, gamma=0.0, fi_s=-0.1, fi_a=0.2, fi_total=0.1,
                     qfi=0.25, fi_intensity_s=0.0, fi_intensity_a=0.0,
                     fi_intensity_incoherent=0.0, crb_per_event=10.0)
    with pytest.raises(ValueError, match="quantum bound"):
        FisherReport(tau=0.5, gamma=0.0, fi_s=0.2, fi_a=0.2, fi_total=0.4,
                     qfi=0.25, fi_intensity_s=0.0, fi_intensity_a=0.0,
                     fi_intensity_incoherent=0.0, crb_per_event=2.5)
