"""Temporal superresolution of two overlapping Gaussian pulses.

Hermite-Gauss temporal-mode projections, Fisher information bounds, photon
counting Monte Carlo and constrained GLS estimation of the pulse separation.
"""

from .channels import (
    DeviceModel,
    apply_device,
    hg_projection_probs,
    incoherent_intensity_profile,
    intensity_profiles,
    mixed_projection_probs,
    quadrature_projection_probs,
)
from .estimator import (
    CalibrationError,
    CalibrationModel,
    EstimateStats,
    aggregate,
    calibrate,
    estimate_gls,
)
from .information import (
    QFI,
    FisherReport,
    coherent_channel_fi_analytic,
    fisher_report,
    intensity_fi,
)
from .montecarlo import (
    DetectionRecord,
    DriftSpec,
    ExperimentConfig,
    run_experiment,
)
from .pulses import gaussian_amplitude

__version__ = "0.1.0"
