"""Fisher information of mode projections and intensity measurements, plus bounds.

Every quantity is quoted per single detection event in units of 1/sigma_t^2
(sigma_t = 1), the same normalization used for the Cramer-Rao bounds.  Every
value is closed form except the incoherent pair's intensity FI, a trapezoid
sum of one cancellation-free integrand; the finite-difference oracles they are
checked against live with the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import TAU_MAX, check_gamma

# quantum FI of the two-pulse separation, 1/(4 sigma_t^2), the same at every tau
QFI = 0.25

# intensity_fi's trapezoid nodes, spacing h = 1/8 on [-12, 12], and the weights
# h t^2 phi(t) / 4 of its integrand; t^2 phi(t) < 1e-29 past |t| = 12
_NODES = np.arange(-96, 97) / 8.0
_WEIGHTS = _NODES**2 * np.exp(-_NODES**2 / 2.0) / (32.0 * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class FisherReport:
    """Every information quantity of interest at one (tau, gamma) point."""

    tau: float
    gamma: float
    fi_s: float
    fi_a: float
    fi_total: float
    qfi: float
    fi_intensity_s: float
    fi_intensity_a: float
    fi_intensity_incoherent: float
    crb_per_event: float

    def __post_init__(self):
        for name in ("fi_s", "fi_a", "fi_total", "qfi",
                     "fi_intensity_s", "fi_intensity_a", "fi_intensity_incoherent"):
            if getattr(self, name) < -1e-12:
                raise ValueError(f"{name} is negative: {getattr(self, name)}")
        if self.fi_total > self.qfi + 1e-9:
            raise ValueError(
                f"fi_total = {self.fi_total} exceeds the quantum bound {self.qfi}")


def coherent_channel_fi_analytic(tau: float):
    """Closed-form per-channel FI of the fully coherent superpositions.

    F_s = 1/8 - (1/8 - tau^2/32) e^-x, x = tau^2/8, taken through expm1 so it
    keeps full precision as tau -> 0, and F_a with the opposite sign of the
    second term; the sum is the constant quantum FI 1/4.  Each channel's
    amplitudes are real, so its time-resolved intensity attains the same FI.
    """
    x = tau**2 / 8.0
    decay = math.exp(-x)
    return (-math.expm1(-x) / 8.0 + tau**2 / 32.0 * decay,
            1.0 / 8.0 + (1.0 / 8.0 - tau**2 / 32.0) * decay)


def mixed_channel_fi_analytic(tau: float, gamma: float):
    """Channel FI of the gamma mixture: convex combinations of F_s and F_a."""
    g = check_gamma(gamma)
    f_s, f_a = coherent_channel_fi_analytic(tau)
    return (1.0 - g) * f_s + g * f_a, g * f_s + (1.0 - g) * f_a


def intensity_fi(tau: float) -> float:
    """FI of intensity-only detection of the incoherent pair, integral (dP/dtau)^2 / P dt.

    The pair's density is P = (phi(t - d) + phi(t + d)) / 2, d = tau/2, with
    phi the standard normal density, so 4 dP/dtau = (t - d) phi(t - d) -
    (t + d) phi(t + d).  Writing phi(t -/+ d) = c phi(t) e^(+/- t d),
    c = e^(-d^2/2), turns the integrand into c phi(t) (t sinh - d cosh)^2 /
    (4 cosh), with sinh and cosh of t d.  Split t^2 sinh^2 / cosh =
    t^2 cosh - t^2 / cosh; the normal moments E[cosh] = e^(d^2/2),
    E[t sinh] = d e^(d^2/2) and E[t^2 cosh] = (1 + d^2) e^(d^2/2) then sum to
    1/4, and with E[t^2] = 1 what is left is

        F = 1/4 E[t^2 (1 - c / cosh)]
          = 1/4 E[t^2 (2 sinh^2(t d / 2) - expm1(-d^2 / 2)) / cosh(t d)].

    Both terms of the numerator are >= 0, so nothing cancels as tau -> 0:
    F(0) = 0 exactly (Rayleigh's curse) and F = tau^2/8 (1 - tau^2/2) +
    O(tau^6).  The integrand is analytic but for the zeros of cosh at
    t = +/- i pi / tau, so the trapezoid sum on _NODES errs by about
    exp(-2 pi^2 / (tau h)); a tau outside [0, TAU_MAX] raises ValueError.
    """
    if not 0.0 <= tau <= TAU_MAX:
        raise ValueError(f"tau must lie in [0, {TAU_MAX:g}], where the intensity FI "
                         f"quadrature holds full precision, got {tau}")
    d = tau / 2.0
    x = _NODES * d
    return float((_WEIGHTS * (2.0 * np.sinh(x / 2.0) ** 2 - math.expm1(-d * d / 2.0))
                  / np.cosh(x)).sum())


def fisher_report(tau: float, gamma: float) -> FisherReport:
    """Assemble every information quantity at one (tau, gamma) grid point.

    The coherent channels' intensity FIs equal their projection FIs; the
    incoherent pair's is intensity_fi.
    """
    g = check_gamma(gamma)
    fi_s, fi_a = mixed_channel_fi_analytic(tau, g)
    fi_total = fi_s + fi_a

    fi_int_s, fi_int_a = coherent_channel_fi_analytic(tau)
    fi_int_incoh = intensity_fi(tau)

    return FisherReport(
        tau=tau, gamma=g,
        fi_s=fi_s, fi_a=fi_a, fi_total=fi_total, qfi=QFI,
        fi_intensity_s=fi_int_s, fi_intensity_a=fi_int_a,
        fi_intensity_incoherent=fi_int_incoh,
        crb_per_event=1.0 / fi_total,
    )
