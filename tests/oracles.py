"""Brute-force and finite-difference oracles the closed forms of tempres are checked against.

None of this runs in the commands: the Gaussian pulse sampled on a standard
time grid, waveforms with their own grids and quadrature inner products, HG
modes and trapezoid overlap integrals on GRID, finite-difference Fisher
information, and a per-draw sampler: one numpy generator per count and per
drift step.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from tempres import montecarlo
from tempres.channels import hg_projection_probs, mixed_projection_probs

# Times are in units of the pulse width sigma_t.  GRID is wide enough that
# Gaussian tails are far below double precision (|psi| < 1e-31 at 12 sigma_t)
# for every separation up to GRID_TAU_MARGIN.
GRID_HALF_WIDTH = 12.0   # in units of sigma_t, before the tau margin
GRID_POINTS = 4096
GRID_TAU_MARGIN = 4.0   # largest separation the standard grid covers

# the standard grid, shared by every caller, so it is read-only
GRID = np.linspace(-(GRID_HALF_WIDTH + GRID_TAU_MARGIN), GRID_HALF_WIDTH + GRID_TAU_MARGIN,
                   GRID_POINTS)
GRID.flags.writeable = False

DEFAULT_FD_STEP = 1e-4

# Zero-probability outcomes and densities contribute 0/0 terms.  In
# classical_fi_discrete both thresholds must hold before a term is dropped, so
# genuinely inconsistent inputs still blow up.
PROB_FLOOR = 1e-14
DERIV_FLOOR = 1e-12


# ---------------------------------------------------------------- waveforms

def gaussian_amplitude(t):
    """Unit-norm Gaussian amplitude (2 pi)^(-1/4) exp(-t^2 / 4)."""
    return (2.0 * np.pi) ** (-0.25) * np.exp(-np.asarray(t, dtype=float) ** 2 / 4.0)


@dataclass(frozen=True)
class WaveformSamples:
    """Amplitudes sampled on an ordered time grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        if grid.ndim != 1 or values.shape != grid.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if grid is not GRID:   # the standard grid is checked once, on import
            _check_increasing(grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def norm_sq(self) -> float:
        return float(np.trapezoid(np.abs(self.values) ** 2, self.grid))


def _check_increasing(grid: np.ndarray):
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")


_check_increasing(GRID)


def make_grid(points: int = GRID_POINTS) -> np.ndarray:
    """Uniform quadrature grid covering every shifted pulse used in a study."""
    half = GRID_HALF_WIDTH + GRID_TAU_MARGIN
    return np.linspace(-half, half, points)


def quadrature_inner_product(f: WaveformSamples, g: WaveformSamples) -> complex:
    """Trapezoid approximation of <f|g> = integral conj(f) g dt.

    This is the brute-force oracle every closed-form overlap is checked
    against; both waveforms must share the same grid.
    """
    if f.grid.shape != g.grid.shape or not np.array_equal(f.grid, g.grid):
        raise ValueError("waveforms are sampled on different grids")
    return complex(np.trapezoid(np.conj(f.values) * g.values, f.grid))


def hg_amplitude(n: int, t):
    """Hermite-Gauss temporal mode HG_n(t), orthonormal in L2.

    Evaluated with the normalized three-term recurrence
    HG_n = sqrt(2/n) x HG_{n-1} - sqrt((n-1)/n) HG_{n-2}, x = t / sqrt(2),
    which keeps amplitudes O(1) for any practical n (no factorials formed).
    """
    if n < 0:
        raise ValueError(f"mode index {n} out of range, must be >= 0")
    x = np.asarray(t, dtype=float) / np.sqrt(2.0)
    prev = np.zeros_like(x)
    cur = gaussian_amplitude(t)
    for k in range(1, n + 1):
        prev, cur = cur, np.sqrt(2.0 / k) * x * cur - np.sqrt((k - 1) / k) * prev
    return cur


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


def incoherent_density(tau: float) -> np.ndarray:
    """Detection density (g(t + tau/2)^2 + g(t - tau/2)^2) / 2 of the incoherent pair, on GRID.

    Its intensity FI is the one information.intensity_fi computes in closed
    form; it has unit integral.
    """
    return (gaussian_amplitude(GRID + tau / 2.0) ** 2
            + gaussian_amplitude(GRID - tau / 2.0) ** 2) / 2.0


def trapezoid_projection_probs(mode_cutoff: int, tau: float, centroid_offset: float = 0.0):
    """Projection probabilities (probs_s, probs_a) as trapezoid overlap integrals on GRID.

    The brute-force reference for both closed forms, hg_projection_probs and
    the displaced-pulse quadrature_projection_probs: |<HG_n|psi>|^2 per channel.
    """
    modes = np.array([hg_amplitude(k, GRID) for k in range(mode_cutoff)])
    psi_s, psi_a = coherent_modes(tau, centroid_offset)
    return (np.trapezoid(modes * psi_s, GRID, axis=1) ** 2,
            np.trapezoid(modes * psi_a, GRID, axis=1) ** 2)


def poisson_pmf(tau, n):
    """HG projection weight p_n(tau) = x^n e^(-x) / n!, x = tau^2/16, as the textbook pmf.

    The reference for hg_projection_probs, which squares coherent-state
    amplitudes instead; tau and n broadcast against each other.
    """
    x = np.asarray(tau, dtype=float) ** 2 / 16.0
    n = np.asarray(n)
    return x**n * np.exp(-x) / np.vectorize(math.factorial, otypes=[float])(n)


# ------------------------------------------------------- Fisher information

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


def channel_probs(mode_cutoff: int, gamma: float = 0.0, channels: str = "sa"):
    """tau -> the closed-form HG projection probabilities of `channels` at gamma, concatenated."""
    def fn(tau):
        mixed = mixed_projection_probs(*hg_projection_probs(mode_cutoff, tau), gamma)
        return np.concatenate([probs for ch, probs in zip("sa", mixed) if ch in channels])
    return fn


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


def fd_intensity_fi(profile_fn, tau: float) -> float:
    """FI of a time-resolved intensity measurement, integral (dP/dtau)^2 / P dt.

    The finite-difference reference for information.intensity_fi: profile_fn
    maps tau to the detection density P(t | tau) sampled on GRID, which the
    integral runs over; points where P falls below PROB_FLOOR contribute zero.
    """
    p = profile_fn(tau)
    dp = _central_derivative(profile_fn, tau, DEFAULT_FD_STEP)
    integrand = np.zeros_like(p)
    keep = p > PROB_FLOOR
    integrand[keep] = dp[keep] ** 2 / p[keep]
    return float(np.trapezoid(integrand, GRID))


# ------------------------------------------------------------------ sampler

def reference_rng(config, *key):
    return np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=key))


def reference_offset(config, ti, gi, run):
    """The drift offset, replayed from its period's start with one rng per step."""
    drift = config.drift
    if drift is None or drift.std == 0.0:
        return 0.0
    start = (run // drift.recenter_period) * drift.recenter_period
    total = 0.0
    for j in range(start, run):
        total += drift.std * reference_rng(config, 1, ti, gi, j).standard_normal()
    return total


def sample_run(config, tau_index: int, gamma_index: int, run_index: int):
    """One run of the per-draw sampler: one default_rng(SeedSequence) per count
    and drift step, built from the spawn keys alone."""
    tau, gamma = config.tau_grid[tau_index], config.gammas[gamma_index]
    rates = montecarlo.detection_rates(
        config, tau, gamma, reference_offset(config, tau_index, gamma_index, run_index))
    counts = [tuple(int(reference_rng(config, 0, tau_index, gamma_index, run_index, ch, n)
                        .poisson(config.mean_total_detections * rates[ch][n]))
                    for n in range(montecarlo.N_RECORDED))
              for ch in range(2)]
    return montecarlo.DetectionRecord(tau, gamma, run_index, *counts)
