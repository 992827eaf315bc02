"""In-phase / anti-phase channels, their HG projection statistics and device response.

The symmetric ("s", in-phase) channel collects the even HG modes, the
antisymmetric ("a", anti-phase) channel the odd ones.  Partial coherence is a
convex mixing of the two channel assignments with weight gamma in [0, 1/2].
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

GAMMA_MIN, GAMMA_MAX = 0.0, 0.5
# Largest separation, in units of sigma_t: up to here the error of
# information.intensity_fi's trapezoid sum of spacing 1/8, near
# exp(-2 pi^2 / (tau / 8)), stays below rounding; it grows to 2e-14 at tau = 6.
TAU_MAX = 4.0


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
        if not 0.0 <= self.dark_rate < math.inf:
            raise ValueError(f"dark_rate must be finite and >= 0, got {self.dark_rate}")


@functools.lru_cache(maxsize=4)
def _inverse_sqrt_factorials(mode_cutoff: int) -> np.ndarray:
    """1 / sqrt(n!) for n < mode_cutoff, read-only."""
    table = np.array([1.0 / math.sqrt(math.factorial(n)) for n in range(mode_cutoff)])
    table.flags.writeable = False
    return table


def _displaced_amplitudes(mode_cutoff: int, d: float) -> np.ndarray:
    """HG amplitudes <HG_n | g(t - d)>, n < mode_cutoff, of the unit pulse displaced by d.

    A displaced Gaussian is a coherent state of the HG ladder:
    exp(-a^2 / 2) a^n / sqrt(n!) with a = d / 2.
    """
    a = d / 2.0
    return (math.exp(-a * a / 2.0) * a ** np.arange(mode_cutoff)
            * _inverse_sqrt_factorials(mode_cutoff))


def hg_projection_probs(mode_cutoff: int, tau: float):
    """Ideal-device HG detection probabilities (probs_s, probs_a), n < mode_cutoff.

    The offset-0 case of quadrature_projection_probs: A_n(-d) = (-1)^n A_n(d),
    so the pulses' amplitudes add in the even modes and cancel in the odd ones,
    leaving one pulse's weights at displacement tau/2, p_n(tau) = x^n/n! e^(-x)
    with x = tau^2/16.  probs_s holds them at even n, probs_a at odd n, and
    exact zeros fill the rest.
    """
    p = _displaced_amplitudes(mode_cutoff, tau / 2.0) ** 2
    even = np.arange(mode_cutoff) % 2 == 0
    return np.where(even, p, 0.0), np.where(~even, p, 0.0)


def quadrature_projection_probs(mode_cutoff: int, tau: float,
                                centroid_offset: float = 0.0):
    """Projection probabilities (probs_s, probs_a) of the pulse pair displaced by an offset.

    The drift path: an offset o breaks the even/odd structure of
    hg_projection_probs.  The pulses sit at o - tau/2 and o + tau/2, and
    psi_s, psi_a are half the sum and half the difference of the two, so
    each channel's amplitudes are that combination of the pulses' closed-form
    coherent-state amplitudes.  The name is kept because the benchmark's
    traced layers bind it, until tempres times its own stages (ROADMAP
    item 13).
    """
    early = _displaced_amplitudes(mode_cutoff, centroid_offset - tau / 2.0)
    late = _displaced_amplitudes(mode_cutoff, centroid_offset + tau / 2.0)
    return ((early + late) / 2.0) ** 2, ((early - late) / 2.0) ** 2


def mixed_projection_probs(probs_s: np.ndarray, probs_a: np.ndarray, gamma: float):
    """Convex channel-swapping mixture with coherence parameter gamma.

    gamma = 0 returns the coherent inputs unchanged; gamma = 1/2 yields two
    identical half-weight copies of the incoherent distribution.
    """
    g = check_gamma(gamma)
    return (1.0 - g) * probs_s + g * probs_a, g * probs_s + (1.0 - g) * probs_a


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
