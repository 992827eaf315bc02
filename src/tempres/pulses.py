"""Gaussian pulse waveforms, Hermite-Gauss temporal modes and overlap quadrature.

Internally sigma_t = 1 is the natural choice; every public function accepts an
explicit PulseSpec so scaled widths remain available for unit-scaling tests.
All waveforms live on a shared uniform grid wide enough that Gaussian tails
are far below double precision (|psi| < 1e-31 at 12 sigma).
"""

from dataclasses import dataclass

import numpy as np

GRID_HALF_WIDTH = 12.0   # in units of sigma_t, before the tau_max margin
GRID_POINTS = 4096
GRID_TAU_MARGIN = 4.0   # largest separation the standard grid covers


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian waveform family: width sigma_t and number of retained HG modes."""

    sigma_t: float = 1.0
    mode_cutoff: int = 8

    def __post_init__(self):
        if not self.sigma_t > 0:
            raise ValueError(f"sigma_t must be positive, got {self.sigma_t}")
        if self.mode_cutoff < 2:
            raise ValueError(
                f"mode_cutoff must be >= 2 (one even and one odd mode), got {self.mode_cutoff}"
            )


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
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def norm_sq(self) -> float:
        return float(np.trapezoid(np.abs(self.values) ** 2, self.grid))


def make_grid(spec: PulseSpec, tau_max: float = GRID_TAU_MARGIN,
              points: int = GRID_POINTS) -> np.ndarray:
    """Standard quadrature grid covering every shifted pulse used in a study."""
    half = GRID_HALF_WIDTH * spec.sigma_t + tau_max
    return np.linspace(-half, half, points)


def gaussian_amplitude(spec: PulseSpec, t):
    """Unit-norm Gaussian amplitude (2 pi sigma^2)^(-1/4) exp(-t^2 / 4 sigma^2)."""
    s2 = spec.sigma_t**2
    return (2.0 * np.pi * s2) ** (-0.25) * np.exp(-np.asarray(t, dtype=float) ** 2 / (4.0 * s2))


def hg_amplitude(spec: PulseSpec, n: int, t):
    """Hermite-Gauss temporal mode HG_n(t), orthonormal in L2.

    Evaluated with the normalized three-term recurrence
    HG_n = sqrt(2/n) x HG_{n-1} - sqrt((n-1)/n) HG_{n-2}, x = t / (sqrt(2) sigma),
    which keeps amplitudes O(1) for any practical n (no factorials formed).
    """
    if not 0 <= n < spec.mode_cutoff:
        raise ValueError(
            f"mode index {n} out of range [0, {spec.mode_cutoff})"
        )
    x = np.asarray(t, dtype=float) / (np.sqrt(2.0) * spec.sigma_t)
    prev = np.zeros_like(x)
    cur = gaussian_amplitude(spec, t)
    for k in range(1, n + 1):
        prev, cur = cur, np.sqrt(2.0 / k) * x * cur - np.sqrt((k - 1) / k) * prev
    return cur


def shifted_pulse(spec: PulseSpec, tau: float, sign: int,
                  grid: np.ndarray | None = None) -> WaveformSamples:
    """One of the pair psi(t +/- tau/2) / sqrt(2).

    The 1/sqrt(2) weight keeps the pair's total intensity normalized to one:
    ||psi_+||^2 + ||psi_-||^2 = 1.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if grid is None:
        grid = make_grid(spec)
    values = gaussian_amplitude(spec, grid + sign * tau / 2.0) / np.sqrt(2.0)
    return WaveformSamples(grid, values)


def quadrature_inner_product(f: WaveformSamples, g: WaveformSamples) -> complex:
    """Trapezoid approximation of <f|g> = integral conj(f) g dt.

    This is the brute-force oracle every closed-form overlap is checked
    against; both waveforms must share the same grid.
    """
    if f.grid.shape != g.grid.shape or not np.array_equal(f.grid, g.grid):
        raise ValueError("waveforms are sampled on different grids")
    return complex(np.trapezoid(np.conj(f.values) * g.values, f.grid))
