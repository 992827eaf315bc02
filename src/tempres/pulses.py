"""Gaussian pulse waveforms and Hermite-Gauss temporal modes.

Times are in units of the pulse width sigma_t, which is 1 throughout the
library, so every waveform is the unit-width one.  Every waveform is a plain
array sampled on one standard uniform grid, GRID, wide enough that Gaussian
tails are far below double precision (|psi| < 1e-31 at 12 sigma_t).
"""

import numpy as np

GRID_HALF_WIDTH = 12.0   # in units of sigma_t, before the tau margin
GRID_POINTS = 4096
GRID_TAU_MARGIN = 4.0   # largest separation the standard grid covers

# the standard grid, shared by every caller, so it is read-only
GRID = np.linspace(-(GRID_HALF_WIDTH + GRID_TAU_MARGIN), GRID_HALF_WIDTH + GRID_TAU_MARGIN,
                   GRID_POINTS)
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
