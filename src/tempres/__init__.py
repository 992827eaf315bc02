"""Temporal superresolution of two overlapping Gaussian pulses.

Hermite-Gauss temporal-mode projections, Fisher information bounds, photon
counting Monte Carlo and constrained GLS estimation of the pulse separation.
"""

from .channels import (
    ChannelDistribution,
    DeviceModel,
    apply_device,
    coherent_modes,
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
    classical_fi_discrete,
    coherent_channel_fi_analytic,
    fisher_report,
    intensity_fi,
    modified_qfi,
    per_detection_fi,
)
from .montecarlo import (
    DetectionRecord,
    DriftSpec,
    ExperimentConfig,
    run_experiment,
    sample_run,
)
from .pulses import (
    WaveformSamples,
    gaussian_amplitude,
    hg_amplitude,
    make_grid,
    quadrature_inner_product,
    shifted_pulse,
)

__version__ = "0.1.0"
