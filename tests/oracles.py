"""Brute-force and finite-difference oracles the closed forms of tempres are checked against.

None of this runs in the commands: waveforms with their own grids and
quadrature inner products, finite-difference Fisher information, and single
runs of the sampler.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from tempres import montecarlo
from tempres.channels import hg_projection_probs, mixed_projection_probs
from tempres.information import PROB_FLOOR
from tempres.pulses import GRID, GRID_HALF_WIDTH, GRID_POINTS, GRID_TAU_MARGIN

DEFAULT_FD_STEP = 1e-4

# Zero-probability outcomes contribute 0/0 terms; both thresholds must hold
# before a term is dropped, so genuinely inconsistent inputs still blow up.
DERIV_FLOOR = 1e-12


# ---------------------------------------------------------------- waveforms

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

def sample_run(config, tau_index: int, gamma_index: int, run_index: int):
    """Poisson counts for the first four projections of both channels, one run."""
    return montecarlo._sample_cell(config, tau_index, gamma_index,
                                   range(run_index, run_index + 1))[0]
