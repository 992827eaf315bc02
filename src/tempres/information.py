"""Fisher information of mode projections and intensity measurements, plus bounds.

Every quantity is quoted per single detection event in units of 1/sigma_t^2
(sigma_t = 1), the same normalization used for the Cramer-Rao bounds.
Finite-difference evaluators exist next to every closed form so the two routes
can cross-check each other.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import check_gamma, incoherent_intensity_profile, intensity_profiles
from .pulses import GRID, WaveformSamples, quadrature_inner_product

DEFAULT_FD_STEP = 1e-4

# quantum FI of the two-pulse separation, 1/(4 sigma_t^2), the same at every tau
QFI = 0.25

# Zero-probability outcomes contribute 0/0 terms; both thresholds must hold
# before a term is dropped, so genuinely inconsistent inputs still blow up.
PROB_FLOOR = 1e-14
DERIV_FLOOR = 1e-12


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


def _central_derivative(fn, tau: float, step: float):
    """Fourth-order central difference; falls back near the tau >= 0 boundary."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    h = step if tau >= step else max(tau / 2.0, 0.0)
    if h == 0.0:
        # one-sided second-order difference at tau = 0
        f0, f1, f2 = fn(0.0), fn(step), fn(2.0 * step)
        return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * step)
    return (fn(tau - h) - 8.0 * fn(tau - h / 2.0)
            + 8.0 * fn(tau + h / 2.0) - fn(tau + h)) / (6.0 * h)


def classical_fi_discrete(prob_fn, tau: float, step: float = DEFAULT_FD_STEP) -> float:
    """FI of a discrete outcome distribution, sum_n (d p_n / d tau)^2 / p_n.

    prob_fn maps tau to the probability vector; the derivative is a
    fourth-order central difference of width `step`.
    """
    p = np.asarray(prob_fn(tau), dtype=float)
    if np.any(p < -1e-12):
        raise ValueError("negative probabilities returned by the model")
    dp = _central_derivative(lambda t: np.asarray(prob_fn(t), dtype=float), tau, step)
    keep = ~((p < PROB_FLOOR) & (np.abs(dp) < DERIV_FLOOR))
    return float(np.sum(dp[keep] ** 2 / np.maximum(p[keep], PROB_FLOOR)))


def coherent_channel_fi_analytic(tau: float):
    """Closed-form per-channel FI of the fully coherent superpositions.

    F_s = 1/8 - (1/8 - tau^2/32) exp(-tau^2 / 8) and F_a with the opposite
    sign of the second term; the sum is the constant quantum FI 1/4.
    """
    base = 1.0 / 8.0
    osc = (1.0 / 8.0 - tau**2 / 32.0) * math.exp(-tau**2 / 8.0)
    return base - osc, base + osc


def mixed_channel_fi_analytic(tau: float, gamma: float):
    """Channel FI of the gamma mixture: convex combinations of F_s and F_a."""
    g = check_gamma(gamma)
    f_s, f_a = coherent_channel_fi_analytic(tau)
    return (1.0 - g) * f_s + g * f_a, g * f_s + (1.0 - g) * f_a


def modified_qfi(state_fn, tau: float, step: float = DEFAULT_FD_STEP) -> float:
    """Quantum FI generalized to states whose norm depends on the parameter.

    Q = 4 <d psi | d psi> + (1/N) [<psi|d psi> - <d psi|psi>]^2 with
    N = <psi|psi>; the bracket vanishes identically for real waveforms.
    Derivatives are central differences of the sampled state, evaluated at
    `step` and at step/2; the finer value is returned, with a warning when
    the two disagree.
    """

    def evaluate(h):
        psi = state_fn(tau)
        plus = state_fn(tau + h)
        minus = state_fn(tau - h)
        dpsi = WaveformSamples(psi.grid, (plus.values - minus.values) / (2.0 * h))
        value = 4.0 * quadrature_inner_product(dpsi, dpsi).real
        norm = quadrature_inner_product(psi, psi).real
        if norm > 1e-14:
            bracket = (quadrature_inner_product(psi, dpsi)
                       - quadrature_inner_product(dpsi, psi))
            value += (bracket**2).real / norm
        return value

    value = evaluate(step)
    refined = evaluate(step / 2.0)
    scale = max(abs(refined), 1e-30)
    if abs(value - refined) / scale > 1e-4:
        warnings.warn(
            f"modified_qfi has not converged at step {step}: "
            f"{value} vs {refined} after halving", RuntimeWarning)
    return refined


def intensity_fi(profile_fn, tau: float) -> float:
    """FI of a time-resolved intensity measurement, integral (dP/dtau)^2 / P dt.

    profile_fn maps tau to the detection density P(t | tau) sampled on GRID,
    which the integral runs over; points where P falls below PROB_FLOOR
    contribute zero.
    """
    p = profile_fn(tau)
    dp = _central_derivative(profile_fn, tau, DEFAULT_FD_STEP)
    integrand = np.zeros_like(p)
    keep = p > PROB_FLOOR
    integrand[keep] = dp[keep] ** 2 / p[keep]
    return float(np.trapezoid(integrand, GRID))


def per_detection_fi(fi: float, detected_fraction: float) -> float:
    """Rescale FI per detection in one channel by that channel's intensity share.

    Diverges as the anti-phase channel empties (detected_fraction -> 0); a
    zero fraction returns +inf with a warning rather than raising.
    """
    if detected_fraction < 0:
        raise ValueError(f"detected_fraction must be >= 0, got {detected_fraction}")
    if detected_fraction == 0:
        warnings.warn("per-detection FI undefined at zero detected fraction; "
                      "reporting inf", RuntimeWarning)
        return math.inf
    return fi / detected_fraction


def fisher_report(tau: float, gamma: float) -> FisherReport:
    """Assemble every information quantity at one (tau, gamma) grid point.

    Channel FI values use the analytic mixtures; intensity FI values are
    quadrature evaluations (the two routes are cross-checked in the tests).
    """
    g = check_gamma(gamma)
    fi_s, fi_a = mixed_channel_fi_analytic(tau, g)
    fi_total = fi_s + fi_a

    fi_int_s = intensity_fi(lambda t: intensity_profiles(t)[0], tau)
    fi_int_a = intensity_fi(lambda t: intensity_profiles(t)[1], tau)
    fi_int_incoh = intensity_fi(incoherent_intensity_profile, tau)

    return FisherReport(
        tau=tau, gamma=g,
        fi_s=fi_s, fi_a=fi_a, fi_total=fi_total, qfi=QFI,
        fi_intensity_s=fi_int_s, fi_intensity_a=fi_int_a,
        fi_intensity_incoherent=fi_int_incoh,
        crb_per_event=1.0 / fi_total,
    )
