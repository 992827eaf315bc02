from decimal import Decimal, localcontext

import numpy as np
import pytest

from oracles import (
    GRID,
    WaveformSamples,
    channel_probs,
    classical_fi_discrete,
    coherent_modes,
    fd_intensity_fi,
    gaussian_amplitude,
    incoherent_density,
    modified_qfi,
)
from tempres import (
    QFI,
    coherent_channel_fi_analytic,
    fisher_report,
    hg_projection_probs,
    intensity_fi,
)
from tempres.channels import TAU_MAX
from tempres.information import FisherReport, mixed_channel_fi_analytic

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


def decimal_channel_fi(tau):
    """F_s and F_a at the binary value of tau, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(tau)
        osc = (Decimal(1) / 8 - t * t / 32) * (-t * t / 8).exp()
        return Decimal(1) / 8 - osc, Decimal(1) / 8 + osc


def assert_matches_decimal(value, reference):
    assert abs(Decimal(value) - reference) <= Decimal("1e-14") * abs(reference), (
        value, reference)


@pytest.mark.parametrize("tau", [1e-8, 1e-6, 1e-4, 1e-2, 1 / 6, 0.5, 1.0, 2.0, 4.0, 50.0])
def test_analytic_channel_fi_matches_decimal_reference(tau):
    # written as 1/8 - (1/8 - tau^2/32) e^-x, F_s keeps only ~3 tau^2/64 of 1/8 at small tau
    for value, reference in zip(coherent_channel_fi_analytic(tau), decimal_channel_fi(tau)):
        assert_matches_decimal(value, reference)


@pytest.mark.parametrize("tau", [1e-8, 1e-6, 1e-4, 1e-2])
def test_fisher_report_small_tau_matches_decimal_reference(tau):
    report = fisher_report(tau, 0.0)
    f_s, f_a = decimal_channel_fi(tau)
    for value, reference in ((report.fi_s, f_s), (report.fi_a, f_a),
                             (report.fi_intensity_s, f_s), (report.fi_intensity_a, f_a)):
        assert_matches_decimal(value, reference)


PI_40 = Decimal("3.141592653589793238462643383279502884197")


def decimal_intensity_fi(tau):
    """Incoherent intensity FI at the binary value of tau, to 40 digits.

    A trapezoid sum, spacing 1/16 on [-16, 16], of the direct integrand, with
    d = tau/2,

        (dP/dtau)^2 / P = ((t - d) phi(t - d) - (t + d) phi(t + d))^2
                          / (8 (phi(t - d) + phi(t + d))):

    it shares no identity with intensity_fi's form, and its poles at
    t = +/- i pi / tau leave an error near exp(-32 pi^2 / tau), below 1e-34 at
    tau = 4.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(tau) / 2
        scale = 1 / (2 * PI_40).sqrt()
        total = Decimal(0)
        for k in range(-256, 257):
            t = Decimal(k) / 16
            early = scale * (-(t - d) ** 2 / 2).exp()   # phi(t - d)
            late = scale * (-(t + d) ** 2 / 2).exp()    # phi(t + d)
            total += ((t - d) * early - (t + d) * late) ** 2 / (8 * (early + late))
        return total / 16


@pytest.mark.parametrize("tau", [1e-8, 1e-4, 1e-2, 1 / 6, 0.5, 1.0, 2.0, 4.0])
def test_intensity_fi_matches_decimal_reference(tau):
    assert_matches_decimal(intensity_fi(tau), decimal_intensity_fi(tau))


@pytest.mark.parametrize("tau", [-1e-3, TAU_MAX * (1 + 2**-52), float("nan")])
def test_intensity_fi_rejects_tau_outside_range(tau):
    with pytest.raises(ValueError, match="tau must lie"):
        intensity_fi(tau)


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_intensity_fi_coherent_sum(tau):
    report = fisher_report(tau, 0.0)
    assert report.fi_intensity_s + report.fi_intensity_a == pytest.approx(QFI, abs=1e-15)


def test_intensity_fi_matches_channel_fi():
    # time-resolved intensity detection of a coherent channel is optimal, down
    # to tau = 0, where the a port keeps the whole quantum FI:
    # F_a = 1/4 - 3 tau^2/64 + O(tau^4)
    for tau in (0.0, 1e-8, 1e-6, 1e-4):
        report = fisher_report(tau, 0.0)
        assert report.fi_intensity_s == report.fi_s
        assert report.fi_intensity_a == report.fi_a
        assert report.fi_intensity_a == pytest.approx(QFI - 3 * tau**2 / 64, abs=1e-12)


# which -> (density on GRID, its intensity FI, that FI at tau = 0); each
# coherent port's density is |psi|^2 of its oracle superposition
PROFILES = {
    "s": (lambda tau: coherent_modes(tau)[0] ** 2,
          lambda tau: fisher_report(tau, 0.0).fi_intensity_s, 0.0),
    "a": (lambda tau: coherent_modes(tau)[1] ** 2,
          lambda tau: fisher_report(tau, 0.0).fi_intensity_a, QFI),
    "incoherent": (incoherent_density, intensity_fi, 0.0),
}


@pytest.mark.parametrize("which", PROFILES)
def test_intensity_fi_closed_form_matches_finite_differences(which):
    density, closed_form, at_zero = PROFILES[which]
    for tau in np.linspace(0.05, 4.0, 80):
        assert closed_form(tau) == pytest.approx(fd_intensity_fi(density, tau), rel=1e-9)
    assert closed_form(0.0) == at_zero


def test_rayleigh_curse_monotone_decay():
    # the intensity FI falls to exactly 0 as the pulses merge, along the series
    # tau^2/8 (1 - tau^2/2 + tau^4/3 + ...)
    values = [intensity_fi(tau) for tau in np.linspace(0.0, TAU_MAX, 401)]
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values, values[1:]))
    for tau in (1e-8, 1e-6, 1e-5, 1e-4):
        assert intensity_fi(tau) == pytest.approx(tau**2 / 8 * (1 - tau**2 / 2), rel=1e-12)


def test_rayleigh_curse_frozen_fixture():
    value = intensity_fi(0.1)
    assert value == pytest.approx(INCOH_INTENSITY_FI_AT_0P1, rel=1e-6)
    assert value < 0.01 * QFI


def test_incoherent_intensity_below_mode_projection():
    for tau in np.linspace(0.0, TAU_MAX, 401):
        assert intensity_fi(tau) < QFI


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
