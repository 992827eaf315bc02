"""Gaussian pulse waveforms, Hermite-Gauss temporal modes and overlap quadrature.

Times are in units of the pulse width sigma_t, which is 1 throughout the
library, so every waveform is the unit-width one.  All waveforms live on one
standard uniform grid, GRID, wide enough that Gaussian tails are far below
double precision (|psi| < 1e-31 at 12 sigma_t).
"""

from dataclasses import dataclass

import numpy as np

GRID_HALF_WIDTH = 12.0   # in units of sigma_t, before the tau margin
GRID_POINTS = 4096
GRID_TAU_MARGIN = 4.0   # largest separation the standard grid covers


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
        if grid is not GRID:   # the standard grid is checked once, where it is built
            _check_increasing(grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def norm_sq(self) -> float:
        return float(np.trapezoid(np.abs(self.values) ** 2, self.grid))


def _check_increasing(grid: np.ndarray):
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")


def make_grid(points: int = GRID_POINTS) -> np.ndarray:
    """Uniform quadrature grid covering every shifted pulse used in a study."""
    half = GRID_HALF_WIDTH + GRID_TAU_MARGIN
    return np.linspace(-half, half, points)


# the standard grid, shared by every caller, so it is read-only
GRID = make_grid()
_check_increasing(GRID)
GRID.flags.writeable = False


def gaussian_amplitude(t):
    """Unit-norm Gaussian amplitude (2 pi)^(-1/4) exp(-t^2 / 4)."""
    return (2.0 * np.pi) ** (-0.25) * np.exp(-np.asarray(t, dtype=float) ** 2 / 4.0)


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


def shifted_pulse(tau: float, sign: int) -> WaveformSamples:
    """One of the pair psi(t +/- tau/2) / sqrt(2).

    The 1/sqrt(2) weight keeps the pair's total intensity normalized to one:
    ||psi_+||^2 + ||psi_-||^2 = 1.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    values = gaussian_amplitude(GRID + sign * tau / 2.0) / np.sqrt(2.0)
    return WaveformSamples(GRID, values)


def quadrature_inner_product(f: WaveformSamples, g: WaveformSamples) -> complex:
    """Trapezoid approximation of <f|g> = integral conj(f) g dt.

    This is the brute-force oracle every closed-form overlap is checked
    against; both waveforms must share the same grid.
    """
    if f.grid.shape != g.grid.shape or not np.array_equal(f.grid, g.grid):
        raise ValueError("waveforms are sampled on different grids")
    return complex(np.trapezoid(np.conj(f.values) * g.values, f.grid))
