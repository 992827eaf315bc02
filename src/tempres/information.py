"""Fisher information of mode projections and intensity measurements, plus bounds.

Every quantity is quoted per single detection event in units of 1/sigma_t^2
(sigma_t = 1), the same normalization used for the Cramer-Rao bounds.  Every
value is closed form except the incoherent mixture's intensity FI, which
integrates its closed-form density derivative on GRID; the finite-difference
oracles they are checked against live with the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import check_gamma, incoherent_intensity_profile
from .pulses import GRID

# quantum FI of the two-pulse separation, 1/(4 sigma_t^2), the same at every tau
QFI = 0.25

# Densities below this contribute nothing to the intensity FI: there the
# integrand is a 0/0 term.
PROB_FLOOR = 1e-14


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


def intensity_fi(density: np.ndarray, derivative: np.ndarray) -> float:
    """FI of a time-resolved intensity measurement, integral (dP/dtau)^2 / P dt.

    density is P(t | tau) on GRID and derivative its closed-form dP/dtau, as
    the profile functions of channels return them; points where P falls
    below PROB_FLOOR contribute zero.
    """
    integrand = np.zeros_like(density)
    keep = density > PROB_FLOOR
    integrand[keep] = derivative[keep] ** 2 / density[keep]
    return float(np.trapezoid(integrand, GRID))


def fisher_report(tau: float, gamma: float) -> FisherReport:
    """Assemble every information quantity at one (tau, gamma) grid point.

    The coherent channels' intensity FIs equal their projection FIs; only
    the incoherent intensity FI integrates its density derivative on GRID.
    """
    g = check_gamma(gamma)
    fi_s, fi_a = mixed_channel_fi_analytic(tau, g)
    fi_total = fi_s + fi_a

    fi_int_s, fi_int_a = coherent_channel_fi_analytic(tau)
    fi_int_incoh = intensity_fi(*incoherent_intensity_profile(tau))

    return FisherReport(
        tau=tau, gamma=g,
        fi_s=fi_s, fi_a=fi_a, fi_total=fi_total, qfi=QFI,
        fi_intensity_s=fi_int_s, fi_intensity_a=fi_int_a,
        fi_intensity_incoherent=fi_int_incoh,
        crb_per_event=1.0 / fi_total,
    )
