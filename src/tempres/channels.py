"""In-phase / anti-phase channels, their HG projection statistics and device response.

The symmetric ("s", in-phase) channel collects the even HG modes, the
antisymmetric ("a", anti-phase) channel the odd ones.  Partial coherence is a
convex mixing of the two channel assignments with weight gamma in [0, 1/2].
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pulses import GRID, gaussian_amplitude, hg_amplitude

GAMMA_MIN, GAMMA_MAX = 0.0, 0.5


def check_gamma(gamma: float) -> float:
    if not GAMMA_MIN <= gamma <= GAMMA_MAX:
        raise ValueError(f"coherence parameter must lie in [0, 1/2], got {gamma}")
    return float(gamma)


@dataclass(frozen=True)
class DeviceModel:
    """Affine map from ideal probabilities to detected rates.

    crosstalk_eps leaks a fraction of each mode's rate symmetrically into the
    two neighboring (parity-opposite) mode indices; leakage below n = 0 is
    reflected back into n = 0, leakage past the cutoff is lost.
    """

    crosstalk_eps: float = 0.0
    efficiency: float = 1.0
    dark_rate: float = 0.0   # expected dark counts per projection per run

    def __post_init__(self):
        if not 0.0 <= self.crosstalk_eps < 1.0:
            raise ValueError(f"crosstalk_eps must be in [0, 1), got {self.crosstalk_eps}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.dark_rate < 0:
            raise ValueError(f"dark_rate must be >= 0, got {self.dark_rate}")


def coherent_modes(tau: float, centroid_offset: float = 0.0):
    """Symmetric / antisymmetric superpositions of the two shifted pulses, on GRID.

    psi_s = (psi_+ + psi_-)/sqrt(2), psi_a = (psi_+ - psi_-)/sqrt(2), with
    psi_+/- = g(t +/- tau/2)/sqrt(2); with these weights,
    ||psi_s||^2 + ||psi_a||^2 = 1.  An optional joint centroid offset models
    timing drift between signal and gating.
    """
    t = GRID - centroid_offset
    plus = gaussian_amplitude(t + tau / 2.0) / np.sqrt(2.0)
    minus = gaussian_amplitude(t - tau / 2.0) / np.sqrt(2.0)
    return (plus + minus) / np.sqrt(2.0), (plus - minus) / np.sqrt(2.0)


def _xlogy(n, x) -> float:
    """n log x, with 0 log 0 = 0 and n log 0 = -inf for n > 0."""
    if n == 0:
        return 0.0
    return n * math.log(x) if x > 0 else -math.inf


def mode_weight(tau, n) -> np.ndarray:
    """Closed-form projection weight p_n(tau) = x^n/n! e^(-x), x = tau^2/16.

    A Poisson pmf in the mode index, which is also why the weights sum to one
    over all n.  tau and n broadcast against each other.  The value is
    exp(n log x - log n! - x) with libm's log and an exact log n!: the
    operations of scipy.stats.poisson.pmf in its order, so the two agree bit
    for bit up to n = 12 (np.log and math.lgamma would not).
    """
    x = tau**2 / 16.0
    pairs = np.broadcast(n, x)
    log_pmf = [_xlogy(k, v) - math.log(math.factorial(k)) - v for k, v in pairs]
    return np.exp(np.reshape(log_pmf, pairs.shape))


def hg_projection_probs(mode_cutoff: int, tau: float):
    """Ideal-device HG detection probabilities (probs_s, probs_a), n < mode_cutoff.

    The symmetric channel carries p_n(tau) at even n and exact zeros at odd n;
    the antisymmetric channel is the parity complement.
    """
    n = np.arange(mode_cutoff)
    p = mode_weight(tau, n)
    even = n % 2 == 0
    return np.where(even, p, 0.0), np.where(~even, p, 0.0)


@functools.lru_cache(maxsize=4)
def _trapezoid_mode_table(mode_cutoff: int) -> np.ndarray:
    """HG_0 .. HG_(mode_cutoff - 1) on the standard grid times its trapezoid weights.

    Row k dotted with samples f on GRID is the trapezoid integral of HG_k f,
    the sum np.trapezoid(HG_k * f, GRID) forms, with its terms regrouped.
    Read-only.
    """
    half_steps = np.diff(GRID) / 2.0
    weights = np.zeros_like(GRID)
    weights[:-1] += half_steps
    weights[1:] += half_steps
    table = np.array([hg_amplitude(k, GRID) * weights for k in range(mode_cutoff)])
    table.flags.writeable = False
    return table


def quadrature_projection_probs(mode_cutoff: int, tau: float,
                                centroid_offset: float = 0.0):
    """Projection probabilities (probs_s, probs_a) from brute-force overlap integrals.

    Oracle for the closed form when centroid_offset = 0; the only route when a
    drift offset breaks the parity structure.  The overlaps are trapezoid
    integrals on the standard grid: a cached table of HG modes times the
    trapezoid weights, applied to both channels in one matrix product.
    """
    psi_s, psi_a = coherent_modes(tau, centroid_offset)
    amps = _trapezoid_mode_table(mode_cutoff) @ np.stack([psi_s, psi_a], axis=1)
    return amps[:, 0] ** 2, amps[:, 1] ** 2


def mixed_projection_probs(probs_s: np.ndarray, probs_a: np.ndarray, gamma: float):
    """Convex channel-swapping mixture with coherence parameter gamma.

    gamma = 0 returns the coherent inputs unchanged; gamma = 1/2 yields two
    identical half-weight copies of the incoherent distribution.
    """
    g = check_gamma(gamma)
    return (1.0 - g) * probs_s + g * probs_a, g * probs_s + (1.0 - g) * probs_a


def _shifted_pair(tau: float):
    """a = g(t + tau/2), b = g(t - tau/2) on GRID and their tau-derivatives.

    g'(t) = -t g(t) / 2, so da/dtau = -(t + tau/2) a / 4 and
    db/dtau = +(t - tau/2) b / 4.
    """
    early, late = GRID + tau / 2.0, GRID - tau / 2.0
    a, b = gaussian_amplitude(early), gaussian_amplitude(late)
    return a, b, -early * a / 4.0, late * b / 4.0


def intensity_profiles(tau: float):
    """Detection densities |psi_s|^2 and |psi_a|^2 on GRID, each as (P, dP/dtau).

    P_s = ((a + b)/2)^2 and P_a = ((a - b)/2)^2 in the terms of _shifted_pair.
    """
    a, b, da, db = _shifted_pair(tau)
    return ((((a + b) / 2.0) ** 2, (a + b) * (da + db) / 2.0),
            (((a - b) / 2.0) ** 2, (a - b) * (da - db) / 2.0))


def incoherent_intensity_profile(tau: float):
    """Density of the incoherent mixture on GRID as (P, dP/dtau).

    P = |psi_+|^2 + |psi_-|^2 = (a^2 + b^2)/2 in the terms of _shifted_pair (unit integral).
    """
    a, b, da, db = _shifted_pair(tau)
    return (a**2 + b**2) / 2.0, a * da + b * db


def apply_device(probs: np.ndarray, dev: DeviceModel,
                 dark_rate_normalized: float = 0.0) -> np.ndarray:
    """Detected rate vector of one channel's probabilities P = probs under the device.

    rate(n) = eta [ (1 - eps) P(n) + eps/2 (P(n-1) + P(n+1)) ] + dark, with
    reflection at n = 0 and absorption past the cutoff.  dark_rate_normalized
    is the dark rate expressed in the same per-detection units as P (the
    caller divides DeviceModel.dark_rate by the expected total detections).
    """
    eps = dev.crosstalk_eps
    leaked = np.zeros_like(probs)
    leaked[1:] += 0.5 * eps * probs[:-1]
    leaked[:-1] += 0.5 * eps * probs[1:]
    leaked[0] += 0.5 * eps * probs[0]   # reflecting boundary below n = 0
    rate = dev.efficiency * ((1.0 - eps) * probs + leaked) + dark_rate_normalized
    return rate
