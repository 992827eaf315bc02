"""Experiment orchestration: simulate, calibrate, estimate, aggregate."""

from collections import defaultdict
from dataclasses import dataclass

from . import estimator as est
from . import montecarlo as mc


@dataclass(frozen=True)
class PipelineResult:
    estimates: list            # (DetectionRecord, GlsEstimate)
    stats: list                # EstimateStats, ordered by (tau, gamma)


def aggregate_estimates(estimates, config: mc.ExperimentConfig):
    groups = defaultdict(list)
    for record, gls in estimates:
        groups[(record.tau_true, record.gamma)].append(gls.tau_hat)
    stats = []
    for (tau, gamma), hats in sorted(groups.items()):
        n_total, _ = est.expected_detections(config, tau, gamma)
        stats.append(est.aggregate(hats, tau, gamma, n_total))
    return stats


def run_pipeline(config: mc.ExperimentConfig, records=None,
                 calibration_records=None,
                 calibration_repetitions: int | None = None) -> PipelineResult:
    """Full chain from counts to estimator statistics.

    With records=None, the records are simulated from config.  One
    CalibrationModel is fitted per coherence setting from calibration_records;
    with calibration_records=None, fresh calibration runs
    (calibration_repetitions per cell, default config.repetitions) are
    simulated from a seed stream disjoint from the estimation data, so by
    default calibration and estimation never share counts.
    """
    if records is None:
        records = mc.run_experiment(config)
    if calibration_records is None:
        calibration_records = mc.run_experiment(
            est.calibration_config(config, calibration_repetitions))
    calibrations = {g: est.calibrate(calibration_records, g, config) for g in config.gammas}
    del calibration_records   # simulated calibration runs are not held while estimating
    estimates = [(r, est.estimate_gls(r, calibrations[r.gamma], config)) for r in records]
    return PipelineResult(estimates, aggregate_estimates(estimates, config))
