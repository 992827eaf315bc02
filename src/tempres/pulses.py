"""The Gaussian pulse waveform and the standard time grid it is sampled on.

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

