"""Calibration and constrained GLS estimation of the pulse separation.

Mirrors the measurement pipeline: the mean counts of the first four HG
projections in each channel are calibrated with a degree-4 polynomial in tau,
and each run's counts are inverted through a generalized least squares fit
constrained to tau_hat >= 0.  Weights are inverse Poisson variances of the
counts, evaluated at a pilot unweighted estimate.  Everything is in counts,
so mean_total_detections sets no limit of its own: only counts whose squares
pass float range make the scan overflow.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .kernels import weighted_scan
from .montecarlo import N_RECORDED, DetectionRecord, ExperimentConfig, detection_rates

POLY_DEGREE = 4
SCAN_POINTS = 1001
SCAN_TAU_MAX = 2.0      # upper end of the GLS scan, in units of sigma_t

# the scan grid and its powers tau^0..tau^8, shared by every calibration
SCAN_GRID = np.linspace(0.0, SCAN_TAU_MAX, SCAN_POINTS)
SCAN_POWERS = SCAN_GRID ** np.arange(2 * POLY_DEGREE + 1)[:, None]
SCAN_GRID.flags.writeable = False
SCAN_POWERS.flags.writeable = False
# the grid as Python floats, for the refinement's scalar arithmetic
_SCAN_TAUS = SCAN_GRID.tolist()
# exponents of a quartic's ascending coefficients
_EXPONENTS = np.arange(POLY_DEGREE + 1)
_EXPONENTS.flags.writeable = False

# fresh random streams for self-calibration runs, disjoint from estimation data
CALIBRATION_SEED_OFFSET = 0x9E3779B97F4A7C15


class CalibrationError(ValueError):
    pass


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class CalibrationModel:
    """Calibrated mean counts for one coherence setting.

    Component order is fixed: channel s projections 0..3, then channel a
    projections 0..3.  coeffs[k] holds the ascending polynomial coefficients
    of component k's mean count per run.  scan_terms is weighted_scan's
    coefficient table for SCAN_POWERS.
    """

    coeffs: np.ndarray          # (8, POLY_DEGREE + 1)
    residual_rms: np.ndarray    # (8,)
    scan_terms: np.ndarray      # (16, 2 * POLY_DEGREE + 1)

    def mean_response(self, tau: float) -> np.ndarray:
        """Calibrated mean counts at one finite scalar tau, all 8 components."""
        return self.coeffs @ tau ** _EXPONENTS


class GlsEstimate(NamedTuple):
    tau_hat: float
    low_information: bool


@dataclass(frozen=True)
class EstimateStats:
    tau_true: float
    gamma: float
    n_runs: int
    mean: float
    variance: float | None       # None for a single estimate
    bias: float
    variance_per_detection: float | None

    def __post_init__(self):
        if self.variance is not None and self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


def record_components(record: DetectionRecord) -> np.ndarray:
    """The run's counts as floats, in the fixed component order."""
    return np.asarray(record.counts_s + record.counts_a, dtype=float)


def calibrate(records, gamma: float, config: ExperimentConfig) -> CalibrationModel:
    """Fit the mean response of each (channel, projection) with a quartic in tau.

    records must carry known true separations for the given gamma; at least
    five distinct tau values are required for a degree-4 fit.
    """
    groups = {}
    for r in records:
        if r.gamma == gamma:
            groups.setdefault(r.tau_true, []).append(r.counts_s + r.counts_a)
    taus = sorted(groups)
    if len(taus) <= POLY_DEGREE:
        raise CalibrationError(
            f"calibration needs more than {POLY_DEGREE} distinct tau values, "
            f"got {len(taus)} for gamma = {gamma}")

    # each row as record_components makes it, in counts, one array per tau
    means = np.array([np.array(groups[tau], dtype=float).mean(axis=0) for tau in taus])

    tau_arr = np.asarray(taus)
    try:
        coeffs = npoly.polyfit(tau_arr, means, POLY_DEGREE)   # (deg+1, 8)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"singular design matrix: {exc}") from exc
    fitted = npoly.polyval(tau_arr, coeffs)                   # (8, n_tau)
    residual_rms = np.sqrt(np.mean((fitted.T - means) ** 2, axis=0))

    # weighted_scan's terms in the plain ascending basis, which keeps the
    # small-tau terms precise (a basis centred inside the scan does not):
    # each m_k^2 (np.convolve, as npoly.polymul without its trimming), then -2 m_k
    scan_terms = np.zeros((4 * N_RECORDED, 2 * POLY_DEGREE + 1))
    scan_terms[:2 * N_RECORDED] = [np.convolve(row, row) for row in coeffs.T]
    scan_terms[2 * N_RECORDED:, :POLY_DEGREE + 1] = -2.0 * coeffs.T
    return CalibrationModel(coeffs=coeffs.T, residual_rms=residual_rms, scan_terms=scan_terms)


def _refine_minimum(objective: np.ndarray) -> float:
    """Parabolic vertex through the SCAN_GRID minimum and its neighbors.

    The arithmetic runs on Python floats, which round exactly as float64
    scalars do.  A non-finite minimum (argmin picks the first NaN) means the
    objective overflowed, for example on counts whose squares pass float range
    (above about 1e154); the scan then locates nothing, so it is an error.
    """
    j = int(objective.argmin())
    lowest = float(objective[j])
    if not math.isfinite(lowest):
        raise EstimationError(f"GLS scan objective is {lowest} at its minimum: the "
                              "counts overflow")
    if j == 0 or j == SCAN_POINTS - 1:
        return _SCAN_TAUS[j]
    y0, y1, y2 = objective[j - 1:j + 2].tolist()
    denom = y0 - 2.0 * y1 + y2
    if denom <= 0:
        return _SCAN_TAUS[j]
    shift = min(max(0.5 * (y0 - y2) / denom, -1.0), 1.0)
    g0, g1 = _SCAN_TAUS[j:j + 2]
    tau = g0 + shift * (g1 - g0)
    return min(max(tau, _SCAN_TAUS[0]), _SCAN_TAUS[-1])


# the pilot scan weights every component alike; shared by every run, so read-only
_UNIT_WEIGHTS = np.ones(2 * N_RECORDED)
_UNIT_WEIGHTS.flags.writeable = False


def estimate_gls(record: DetectionRecord, cal: CalibrationModel,
                 config: ExperimentConfig) -> GlsEstimate:
    """Constrained GLS estimate of tau from one run's counts.

    A pilot unweighted scan locates tau_hat_0; Poisson variances of the
    calibrated means at tau_hat_0 then weight the final scan.  Both scans run
    over [0, SCAN_TAU_MAX] so the tau_hat >= 0 constraint holds by construction.
    Each scan is one weighted_scan call, which forms the degree-8 objective's
    9 coefficients from the run's counts and weights and evaluates them on the
    whole grid; the refinement and the weights take a few operations on
    8-element arrays and Python floats, so a run costs little beyond its two
    scans.
    """
    if not any(record.counts_s) and not any(record.counts_a):
        return GlsEstimate(0.0, True)
    c = record_components(record)

    terms = cal.scan_terms
    pilot = _refine_minimum(weighted_scan(c, _UNIT_WEIGHTS, terms, SCAN_POWERS))
    # 1 / Var[count], with Var = mean count, floored at one count
    weights = 1.0 / np.maximum(cal.mean_response(pilot), 1.0)
    tau_hat = _refine_minimum(weighted_scan(c, weights, terms, SCAN_POWERS))
    return GlsEstimate(tau_hat, False)


def expected_detections(config: ExperimentConfig, tau: float, gamma: float):
    """Expected recorded detections per run: (total, antisymmetric channel).

    Each mode's mean count is formed before the sum, as the sampler forms it,
    so a dark rate near float range in per-detection units stays finite.
    """
    rate_s, rate_a = detection_rates(config, tau, gamma)
    n_s = (config.mean_total_detections * rate_s[:N_RECORDED]).sum()
    n_a = (config.mean_total_detections * rate_a[:N_RECORDED]).sum()
    return n_s + n_a, n_a


def aggregate(tau_hats, tau_true: float, gamma: float,
              mean_detections_per_run: float) -> EstimateStats:
    """Sample statistics of a group of estimates at one (tau, gamma) setting."""
    values = np.asarray(list(tau_hats), dtype=float)
    if values.size == 0:
        raise ValueError("cannot aggregate an empty estimate group")
    mean = float(values.mean())
    if values.size > 1:
        variance = float(values.var(ddof=1))
        var_per_det = variance * mean_detections_per_run
    else:
        variance = None
        var_per_det = None
    return EstimateStats(tau_true=tau_true, gamma=gamma, n_runs=int(values.size),
                         mean=mean, variance=variance, bias=mean - tau_true,
                         variance_per_detection=var_per_det)


def calibration_config(config: ExperimentConfig,
                       repetitions: int | None = None) -> ExperimentConfig:
    """Config for fresh calibration runs: same grid, disjoint random streams."""
    from dataclasses import replace

    return replace(config,
                   repetitions=repetitions or config.repetitions,
                   master_seed=config.master_seed + CALIBRATION_SEED_OFFSET)
