"""In-phase / anti-phase channels, their HG projection statistics and device response.

The symmetric ("s", in-phase) channel collects the even HG modes, the
antisymmetric ("a", anti-phase) channel the odd ones.  Partial coherence is a
convex mixing of the two channel assignments with weight gamma in [0, 1/2].
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pulses import GRID, WaveformSamples, gaussian_amplitude, hg_amplitude, shifted_pulse

GAMMA_MIN, GAMMA_MAX = 0.0, 0.5


def check_gamma(gamma: float) -> float:
    if not GAMMA_MIN <= gamma <= GAMMA_MAX:
        raise ValueError(f"coherence parameter must lie in [0, 1/2], got {gamma}")
    return float(gamma)


@dataclass(frozen=True)
class ChannelDistribution:
    """Per-mode detection probabilities for one channel at fixed tau."""

    channel: str            # "s" or "a"
    probs: np.ndarray       # P(n | tau), n = 0 .. mode_cutoff - 1
    tail_mass: float        # probability beyond the cutoff, never dropped silently

    def __post_init__(self):
        if self.channel not in ("s", "a"):
            raise ValueError(f"channel must be 's' or 'a', got {self.channel!r}")
        probs = np.asarray(self.probs, dtype=float)
        if np.any(probs < -1e-15):
            raise ValueError("negative probability in channel distribution")
        object.__setattr__(self, "probs", probs)


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


@dataclass(frozen=True)
class IntensityProfile:
    """Time-resolved detection density P(t | tau) = |psi(t)|^2 for one channel."""

    channel: str
    grid: np.ndarray
    density: np.ndarray


def coherent_modes(tau: float, centroid_offset: float = 0.0):
    """Symmetric / antisymmetric superpositions of the two shifted pulses.

    psi_s = (psi_+ + psi_-)/sqrt(2), psi_a = (psi_+ - psi_-)/sqrt(2); with the
    1/sqrt(2) component weights, ||psi_s||^2 + ||psi_a||^2 = 1.  An optional
    joint centroid offset models timing drift between signal and gating.
    """
    t = GRID - centroid_offset
    plus = gaussian_amplitude(t + tau / 2.0) / np.sqrt(2.0)
    minus = gaussian_amplitude(t - tau / 2.0) / np.sqrt(2.0)
    psi_s = WaveformSamples(GRID, (plus + minus) / np.sqrt(2.0))
    psi_a = WaveformSamples(GRID, (plus - minus) / np.sqrt(2.0))
    return psi_s, psi_a


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


@functools.lru_cache(maxsize=1024)
def hg_projection_probs(mode_cutoff: int, tau: float):
    """Ideal-device HG detection probabilities for both channels, n < mode_cutoff.

    The symmetric channel carries p_n(tau) at even n and exact zeros at odd n;
    the antisymmetric channel is the parity complement.  Tail mass beyond the
    cutoff is reported per channel.  Memoized per (mode_cutoff, tau); the
    probability arrays are read-only.
    """
    n = np.arange(mode_cutoff)
    p = mode_weight(tau, n)
    even = n % 2 == 0
    probs_s = np.where(even, p, 0.0)
    probs_a = np.where(~even, p, 0.0)

    x = tau**2 / 16.0
    total_even = 0.5 * (1.0 + np.exp(-2.0 * x))   # sum of p_n over all even n
    total_odd = 0.5 * (1.0 - np.exp(-2.0 * x))
    tail_s = max(total_even - probs_s.sum(), 0.0)
    tail_a = max(total_odd - probs_a.sum(), 0.0)
    probs_s.flags.writeable = probs_a.flags.writeable = False
    return (ChannelDistribution("s", probs_s, tail_s),
            ChannelDistribution("a", probs_a, tail_a))


@functools.lru_cache(maxsize=4)
def _hg_mode_table(mode_cutoff: int) -> np.ndarray:
    """HG_0 .. HG_(mode_cutoff - 1) sampled on the standard grid, read-only."""
    modes = np.array([hg_amplitude(k, GRID) for k in range(mode_cutoff)])
    modes.flags.writeable = False
    return modes


def quadrature_projection_probs(mode_cutoff: int, tau: float,
                                centroid_offset: float = 0.0):
    """Projection probabilities computed by brute-force overlap integrals.

    Oracle for the closed form when centroid_offset = 0; the only route when a
    drift offset breaks the parity structure.
    """
    psi_s, psi_a = coherent_modes(tau, centroid_offset)
    modes = _hg_mode_table(mode_cutoff)
    amp_s = np.trapezoid(modes * psi_s.values, GRID, axis=1)
    amp_a = np.trapezoid(modes * psi_a.values, GRID, axis=1)
    probs_s = amp_s**2
    probs_a = amp_a**2
    tail_s = max(psi_s.norm_sq() - probs_s.sum(), 0.0)
    tail_a = max(psi_a.norm_sq() - probs_a.sum(), 0.0)
    return (ChannelDistribution("s", probs_s, tail_s),
            ChannelDistribution("a", probs_a, tail_a))


def mixed_projection_probs(ideal_s: ChannelDistribution, ideal_a: ChannelDistribution,
                           gamma: float):
    """Convex channel-swapping mixture with coherence parameter gamma.

    gamma = 0 returns the coherent inputs unchanged; gamma = 1/2 yields two
    identical half-weight copies of the incoherent distribution.
    """
    g = check_gamma(gamma)
    mixed_s = ChannelDistribution(
        "s", (1.0 - g) * ideal_s.probs + g * ideal_a.probs,
        (1.0 - g) * ideal_s.tail_mass + g * ideal_a.tail_mass)
    mixed_a = ChannelDistribution(
        "a", g * ideal_s.probs + (1.0 - g) * ideal_a.probs,
        g * ideal_s.tail_mass + (1.0 - g) * ideal_a.tail_mass)
    return mixed_s, mixed_a


def intensity_profiles(tau: float):
    """Pointwise |psi_s|^2 and |psi_a|^2 on the standard grid."""
    psi_s, psi_a = coherent_modes(tau)
    return (IntensityProfile("s", GRID, np.abs(psi_s.values) ** 2),
            IntensityProfile("a", GRID, np.abs(psi_a.values) ** 2))


def incoherent_intensity_profile(tau: float) -> IntensityProfile:
    """Intensity of the incoherent mixture, |psi_+|^2 + |psi_-|^2 (unit integral)."""
    plus = shifted_pulse(tau, +1)
    minus = shifted_pulse(tau, -1)
    density = np.abs(plus.values) ** 2 + np.abs(minus.values) ** 2
    return IntensityProfile("incoh", GRID, density)


def apply_device(ideal: ChannelDistribution, dev: DeviceModel,
                 dark_rate_normalized: float = 0.0) -> np.ndarray:
    """Detected rate vector for one channel under the imperfect device.

    rate(n) = eta [ (1 - eps) P(n) + eps/2 (P(n-1) + P(n+1)) ] + dark, with
    reflection at n = 0 and absorption past the cutoff.  dark_rate_normalized
    is the dark rate expressed in the same per-detection units as P (the
    caller divides DeviceModel.dark_rate by the expected total detections).
    """
    p = ideal.probs
    eps = dev.crosstalk_eps
    leaked = np.zeros_like(p)
    leaked[1:] += 0.5 * eps * p[:-1]
    leaked[:-1] += 0.5 * eps * p[1:]
    leaked[0] += 0.5 * eps * p[0]   # reflecting boundary below n = 0
    rate = dev.efficiency * ((1.0 - eps) * p + leaked) + dark_rate_normalized
    return rate
