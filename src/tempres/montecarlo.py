"""Photon-counting Monte Carlo over the (tau, gamma) grid.

Each projection setting is measured sequentially in the experiment, so counts
are independent Poisson draws per (channel, mode).  Random streams are derived
counter-style from the master seed and the full cell coordinates, which makes
every record independent of evaluation order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DeviceModel,
    apply_device,
    check_gamma,
    hg_projection_probs,
    mixed_projection_probs,
    quadrature_projection_probs,
)
from .pulses import GRID_TAU_MARGIN

N_RECORDED = 4   # projections n = 0..3 enter the records, as in the estimator

# mode_cutoff covers at least the recorded projections.  HG_n oscillates out to
# t = 2 sqrt(n + 1/2) sigma_t, inside the standard quadrature grid (+-16 sigma_t)
# up to n = 63
MAX_MODE_CUTOFF = 64

# numpy's Poisson sampler rejects means above about 9.2e18; a draw's mean is at
# most mean_total_detections + dark_rate
MAX_POISSON_MEAN = 1e18

# spawn-key tags keep count streams and drift streams disjoint
_COUNT_STREAM = 0
_DRIFT_STREAM = 1

DEFAULT_TAU_GRID = tuple(i / 6.0 for i in range(7))
DEFAULT_GAMMAS = (0.0, 0.125, 0.25, 0.375, 0.5)


@dataclass(frozen=True)
class DriftSpec:
    """Slow timing drift: Gaussian random-walk centroid offset, recentered periodically."""

    std: float
    recenter_period: int = 10

    def __post_init__(self):
        if not 0 <= self.std < math.inf:
            raise ValueError(f"drift std must be finite and >= 0, got {self.std}")
        if self.recenter_period < 1:
            raise ValueError(f"recenter period must be >= 1, got {self.recenter_period}")


@dataclass(frozen=True)
class ExperimentConfig:
    mode_cutoff: int = 8     # HG modes per channel in the rate model
    tau_grid: tuple = DEFAULT_TAU_GRID
    gammas: tuple = DEFAULT_GAMMAS
    repetitions: int = 100
    mean_total_detections: float = 1e4
    device: DeviceModel = field(default_factory=DeviceModel)
    drift: DriftSpec | None = None
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        object.__setattr__(self, "gammas", tuple(check_gamma(float(g)) for g in self.gammas))
        outside = [t for t in self.tau_grid if not 0 <= t <= GRID_TAU_MARGIN]
        if outside:
            raise ValueError(f"tau_grid values must lie in [0, {GRID_TAU_MARGIN:g}], the "
                             f"separations the quadrature grid covers, got {outside[0]}")
        if not N_RECORDED <= self.mode_cutoff <= MAX_MODE_CUTOFF:
            raise ValueError(f"mode_cutoff must lie in [{N_RECORDED}, {MAX_MODE_CUTOFF}], "
                             f"got {self.mode_cutoff}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0 < self.mean_total_detections <= MAX_POISSON_MEAN:
            raise ValueError(f"mean_total_detections must lie in (0, {MAX_POISSON_MEAN:g}], "
                             f"got {self.mean_total_detections}")
        if not self.device.dark_rate <= MAX_POISSON_MEAN:
            raise ValueError(f"dark_rate must be at most {MAX_POISSON_MEAN:g}, "
                             f"got {self.device.dark_rate}")
        if math.isinf(self.device.dark_rate / self.mean_total_detections):
            # detection rates carry the dark rate in units of mean_total_detections
            raise ValueError(f"dark_rate {self.device.dark_rate} overflows in units of "
                             f"mean_total_detections {self.mean_total_detections}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class DetectionRecord:
    """Counts for the first four HG projections in both channels, one run."""

    tau_true: float
    gamma: float
    run_index: int
    counts_s: tuple
    counts_a: tuple

    def __post_init__(self):
        for counts in (self.counts_s, self.counts_a):
            if any(c < 0 or int(c) != c for c in counts):
                raise ValueError("counts must be nonnegative integers")


def detection_rates(config: ExperimentConfig, tau: float, gamma: float,
                    centroid_offset: float = 0.0):
    """Expected per-projection detection rates (probability units) for one cell.

    Closed-form projections when there is no drift offset; brute-force
    quadrature otherwise, since an offset breaks the even/odd structure.
    """
    if centroid_offset == 0.0:
        ideal_s, ideal_a = hg_projection_probs(config.mode_cutoff, tau)
    else:
        ideal_s, ideal_a = quadrature_projection_probs(
            config.mode_cutoff, tau, centroid_offset=centroid_offset)
    mixed_s, mixed_a = mixed_projection_probs(ideal_s, ideal_a, gamma)
    dark_norm = config.device.dark_rate / config.mean_total_detections
    rate_s = apply_device(mixed_s, config.device, dark_norm)
    rate_a = apply_device(mixed_a, config.device, dark_norm)
    return rate_s, rate_a


def apply_drift(config: ExperimentConfig, tau_index: int, gamma_index: int,
                run_index: int) -> float:
    """Centroid offset at a given run: random walk reset every recenter period.

    The walk increments come from their own counter-derived streams, so the
    offset at any run can be reconstructed without replaying earlier runs.
    """
    drift = config.drift
    if drift is None or drift.std == 0.0:
        return 0.0
    start = (run_index // drift.recenter_period) * drift.recenter_period
    offset = 0.0
    for j in range(start, run_index):
        seq = np.random.SeedSequence(
            config.master_seed,
            spawn_key=(_DRIFT_STREAM, tau_index, gamma_index, j))
        offset += drift.std * np.random.default_rng(seq).standard_normal()
    return offset


def sample_run(config: ExperimentConfig, tau_index: int, gamma_index: int,
               run_index: int) -> DetectionRecord:
    """Poisson counts for the first four projections of both channels, one run."""
    tau = config.tau_grid[tau_index]
    gamma = config.gammas[gamma_index]
    offset = apply_drift(config, tau_index, gamma_index, run_index)
    rate_s, rate_a = detection_rates(config, tau, gamma, offset)

    counts = {}
    for ch_idx, rates in ((0, rate_s), (1, rate_a)):
        means = config.mean_total_detections * rates[:N_RECORDED]
        drawn = []
        for n in range(N_RECORDED):
            seq = np.random.SeedSequence(
                config.master_seed,
                spawn_key=(_COUNT_STREAM, tau_index, gamma_index, run_index, ch_idx, n))
            drawn.append(int(np.random.default_rng(seq).poisson(means[n])))
        counts[ch_idx] = tuple(drawn)
    return DetectionRecord(tau, gamma, run_index, counts[0], counts[1])


def run_experiment(config: ExperimentConfig):
    """All records over the full tau x gamma x repetition grid, in grid order."""
    return [sample_run(config, ti, gi, r)
            for ti in range(len(config.tau_grid))
            for gi in range(len(config.gammas))
            for r in range(config.repetitions)]
