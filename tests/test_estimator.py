import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from oracles import poisson_pmf
from tempres import (
    CalibrationError,
    DeviceModel,
    DriftSpec,
    ExperimentConfig,
    aggregate,
    calibrate,
    estimate_gls,
)
from tempres.estimator import (
    SCAN_GRID,
    SCAN_POINTS,
    SCAN_POWERS,
    SCAN_TAU_MAX,
    EstimationError,
    GlsEstimate,
    calibration_config,
    expected_detections,
    record_components,
)
from tempres.kernels import weighted_scan
from tempres.montecarlo import DetectionRecord, detection_rates, run_experiment
from tempres import pipeline

TAUS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def noiseless_records(config, gamma, runs=1):
    """Records whose counts equal the model means exactly (rounded)."""
    records = []
    for tau in config.tau_grid:
        counts = [int(round(m)) for m in detection_rates(config, tau, gamma)]
        for run in range(runs):
            records.append(DetectionRecord(tau, gamma, run, counts[:4], counts[4:]))
    return records


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(tau_grid=TAUS, gammas=(0.0,), repetitions=40,
                            mean_total_detections=1e6, master_seed=77)


@pytest.fixture(scope="module")
def noiseless_cal(config):
    return calibrate(noiseless_records(config, 0.0), 0.0, config)


def test_calibrate_requires_five_taus(config):
    records = [r for r in noiseless_records(config, 0.0) if r.tau_true < 0.7]
    with pytest.raises(CalibrationError, match="distinct tau"):
        calibrate(records, 0.0, config)


def test_calibrate_matches_closed_form_response(config, noiseless_cal):
    # quartic fit of p_1(tau) over [0, 1]: truncation error is the tau^6 term
    taus = np.linspace(0.0, 1.0, 50)
    fitted = np.array([noiseless_cal.mean_response(t)[5] for t in taus])
    n_total = config.mean_total_detections
    exact = n_total * poisson_pmf(taus, 1)
    assert np.abs(fitted - exact).max() < 5e-4 * n_total


def test_calibrate_constant_response(config):
    records = [DetectionRecord(tau, 0.0, 0, (1000, 0, 0, 0), (0, 0, 0, 0))
               for tau in TAUS]
    cal = calibrate(records, 0.0, config)
    coeffs = cal.coeffs[0]   # channel s, n = 0
    assert coeffs[0] == pytest.approx(1000, rel=1e-9)
    assert np.abs(coeffs[1:]).max() < 1e-12 * config.mean_total_detections


def test_calibration_noise_shrinks_with_repetitions():
    # dense tau grid so the fit has enough residual degrees of freedom
    taus = tuple(np.linspace(0.0, 1.0, 13))
    rms = {}
    for reps in (50, 2000):
        cfg = ExperimentConfig(tau_grid=taus, gammas=(0.0,), repetitions=reps,
                               mean_total_detections=1e4, master_seed=3)
        cal = calibrate(run_experiment(cfg), 0.0, cfg)
        rms[reps] = cal.residual_rms.sum()
    assert rms[2000] < rms[50]


def test_estimate_noiseless_recovers_tau(config, noiseless_cal):
    counts = [int(round(m)) for m in detection_rates(config, 0.4, 0.0)]
    record = DetectionRecord(0.4, 0.0, 0, counts[:4], counts[4:])
    est = estimate_gls(record, noiseless_cal, config)
    assert not est.low_information
    assert est.tau_hat == pytest.approx(0.4, abs=1e-4)


def test_estimate_all_zero_counts(config, noiseless_cal):
    record = DetectionRecord(0.4, 0.0, 0, (0, 0, 0, 0), (0, 0, 0, 0))
    est = estimate_gls(record, noiseless_cal, config)
    assert est.tau_hat == 0.0 and est.low_information


def test_estimates_nonnegative_and_unbiased():
    cfg = ExperimentConfig(tau_grid=TAUS, gammas=(0.0,), repetitions=100,
                           mean_total_detections=1e4, master_seed=21)
    result = pipeline.run_pipeline(cfg, calibration_repetitions=400)
    hats = [gls.tau_hat for _, gls in result.estimates]
    assert all(h >= 0.0 for h in hats)

    by_tau = {s.tau_true: s for s in result.stats}
    stats = by_tau[0.6]
    se = np.sqrt(stats.variance / stats.n_runs)
    assert abs(stats.bias) < 3 * se

    # one-sided constraint folds the tau_true = 0 estimates upward
    assert by_tau[0.0].mean > 0.0


def test_aggregate_edge_cases():
    single = aggregate([0.3], 0.3, 0.0, 1e4)
    assert single.variance is None and single.variance_per_detection is None
    assert single.n_runs == 1

    same = aggregate([0.3, 0.3, 0.3], 0.25, 0.0, 1e4)
    assert same.variance == 0.0
    assert same.bias == pytest.approx(0.05)

    with pytest.raises(ValueError):
        aggregate([], 0.3, 0.0, 1e4)


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_record_raises_estimation_error(config, noiseless_cal):
    # counts of 10**160 (a DetectionRecord takes ints of any size) overflow
    # when the scan squares them, so the scan minimum is inf
    record = DetectionRecord(0.5, 0.0, 0, (10**160,) * 4, (10**160,) * 4)
    with pytest.raises(EstimationError, match="GLS scan objective is inf"):
        estimate_gls(record, noiseless_cal, config)


def test_record_components_order(config):
    record = DetectionRecord(0.1, 0.0, 0, (1, 2, 3, 4), (5, 6, 7, 8))
    c = record_components(record)
    assert c.dtype == float
    np.testing.assert_array_equal(c, np.arange(1, 9))


def test_expected_detections(config):
    n_total, n_a = expected_detections(config, 1.0, 0.0)
    # anti-phase intensity at tau = sigma_t: (1/2)(1 - e^{-1/8}), tiny tail beyond n = 3
    assert n_a / config.mean_total_detections == pytest.approx(
        0.5 * (1 - np.exp(-0.125)), abs=1e-6)
    assert n_total <= config.mean_total_detections * (1 + 1e-9)


def test_calibration_config_disjoint_seed(config):
    cal_cfg = calibration_config(config, repetitions=10)
    assert cal_cfg.master_seed != config.master_seed
    assert cal_cfg.repetitions == 10
    assert cal_cfg.tau_grid == config.tau_grid


# ------------------------------------------------- reference estimator

def reference_refine_minimum(grid, objective):
    j = int(np.argmin(objective))
    assert math.isfinite(objective[j])
    if j == 0 or j == len(grid) - 1:
        return float(grid[j])
    y0, y1, y2 = objective[j - 1], objective[j], objective[j + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom <= 0:
        return float(grid[j])
    shift = 0.5 * (y0 - y2) / denom
    h = grid[j + 1] - grid[j]
    tau = float(grid[j] + np.clip(shift, -1.0, 1.0) * h)
    return min(max(tau, float(grid[0])), float(grid[-1]))


def reference_scan(counts, weights, model):
    resid = counts[None, :] - model
    return np.einsum("jk,k->j", resid * resid, weights)


def reference_model(cal, n_total):
    """Every component's calibrated mean at every scan point, (J, 8), in
    units of n_total (mean_total_detections)."""
    return npoly.polyval(SCAN_GRID, cal.coeffs.T / n_total).T


def normalized_counts(record, n_total):
    return np.array(record.counts_s + record.counts_a, dtype=float) / n_total


def reference_estimate_gls(record, cal, config):
    """The estimator in its first form, in units of mean_total_detections:
    np.clip, npoly.polyval, np.ones_like, and squared residuals against the
    model at every scan point."""
    n_total = config.mean_total_detections
    c = normalized_counts(record, n_total)
    if not np.any(c > 0):
        return GlsEstimate(0.0, True)
    ones = np.ones_like(c)
    model = reference_model(cal, n_total)
    pilot = reference_refine_minimum(SCAN_GRID, reference_scan(c, ones, model))
    means = np.maximum(npoly.polyval(pilot, cal.coeffs.T / n_total), 1.0 / n_total)
    weights = n_total / means
    return GlsEstimate(reference_refine_minimum(
        SCAN_GRID, reference_scan(c, weights, model)), False)


EQUIVALENCE = ExperimentConfig(tau_grid=TAUS, gammas=(0.0, 0.25), repetitions=20,
                               mean_total_detections=1e6, master_seed=5)
_calibrations = []


def equivalence_calibrations():
    """A noiseless and a simulated calibration, built on first use."""
    if not _calibrations:
        _calibrations.append(calibrate(noiseless_records(EQUIVALENCE, 0.0), 0.0, EQUIVALENCE))
        _calibrations.append(calibrate(run_experiment(EQUIVALENCE), 0.25, EQUIVALENCE))
    return _calibrations


def model_counts(tau, noise):
    """Counts near the mean response at tau (beyond the scan for tau > 2)."""
    means = detection_rates(EQUIVALENCE, tau, 0.0) * (1.0 + np.asarray(noise))
    return tuple(int(round(m)) for m in means)


small_counts = st.one_of(
    st.just((0,) * 8),
    st.lists(st.integers(0, 3), min_size=8, max_size=8).map(tuple),
    st.builds(model_counts, st.floats(0.0, 4.0),
              st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8)),
)
# far from any calibrated response: the objective is flat near its minimum
unphysical_counts = st.lists(st.integers(0, 2_000_000), min_size=8, max_size=8).map(tuple)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(counts=st.one_of(small_counts, unphysical_counts), tau=st.floats(0.0, SCAN_TAU_MAX))
def test_scan_objective_matches_the_reference_scan(counts, tau):
    # the coefficient form cancels sum_k w_k c_k^2 against the model terms, so
    # its error scales with them: measured at most 1.4e-15 of this scale over
    # 6,000 count vectors with unit and Poisson weights.  The reference works
    # in units of mean_total_detections N, with the weights times N^2, which
    # is the same objective.
    record = DetectionRecord(0.5, 0.0, 0, counts[:4], counts[4:])
    n_total = EQUIVALENCE.mean_total_detections
    c = record_components(record)
    for cal in equivalence_calibrations():
        model = npoly.polyval(SCAN_GRID, cal.coeffs.T).T
        poisson = 1.0 / np.maximum(cal.mean_response(tau), 1.0)
        for w in (np.ones(8), poisson):
            scale = (w * (c * c + model * model)).sum(axis=1)
            error = weighted_scan(c, w, cal.scan_terms, SCAN_POWERS) - reference_scan(
                normalized_counts(record, n_total), w * n_total**2,
                reference_model(cal, n_total))
            assert (np.abs(error) <= 1e-13 * scale).all()


def assert_near_reference(counts, tolerance):
    record = DetectionRecord(0.5, 0.0, 0, counts[:4], counts[4:])
    for cal in equivalence_calibrations():
        estimate = estimate_gls(record, cal, EQUIVALENCE)
        reference = reference_estimate_gls(record, cal, EQUIVALENCE)
        assert type(estimate.tau_hat) is float
        assert estimate.low_information == reference.low_information
        assert abs(estimate.tau_hat - reference.tau_hat) <= tolerance


@settings(derandomize=True, max_examples=150, deadline=None)
@given(counts=small_counts)
@example(counts=(0,) * 8)
@example(counts=model_counts(0.0, [0.0] * 8))
@example(counts=model_counts(3.0, [0.0] * 8))
def test_estimate_gls_matches_the_reference_to_1e_9(counts):
    # the objective's rounding moves tau_hat by at most 5.2e-12 here (measured over 4,000 runs)
    assert_near_reference(counts, 1e-9)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(counts=unphysical_counts)
@example(counts=(938818, 1693052, 176, 938818, 176, 1302, 583504, 176))
def test_estimate_gls_stays_within_one_scan_step_on_unphysical_counts(counts):
    # where the objective is flat, rounding can swap near-tied grid minima:
    # the worst move measured was 7.6e-6, at the explicit example
    assert_near_reference(counts, SCAN_TAU_MAX / (SCAN_POINTS - 1))


@pytest.mark.parametrize("counts, tau_hat", [
    ((0,) * 8, 0.0), (model_counts(0.0, [0.0] * 8), 0.0),
    (model_counts(3.0, [0.0] * 8), SCAN_TAU_MAX)])
def test_reference_examples_reach_both_scan_edges(counts, tau_hat):
    # the explicit examples above cover a run without counts and minima at
    # either end of the scan, where the parabolic refinement is skipped
    record = DetectionRecord(0.5, 0.0, 0, counts[:4], counts[4:])
    [cal, _] = equivalence_calibrations()
    assert reference_estimate_gls(record, cal, EQUIVALENCE).tau_hat == tau_hat


# mean_total_detections from few counts to the sampler's limit, and a drifted
# imperfect device, each calibrated on its own simulated runs at gamma = 0.25
SCALES = {f"N={n:g}": replace(EQUIVALENCE, mean_total_detections=n) for n in (1e2, 1e4, 1e18)}
SCALES["drift_device"] = replace(
    EQUIVALENCE, mean_total_detections=1e4, drift=DriftSpec(0.05),
    device=DeviceModel(crosstalk_eps=0.02, efficiency=0.9, dark_rate=1.0))
_scale_calibrations = {}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SCALES)), tau=st.floats(0.0, SCAN_TAU_MAX),
       z=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8))
def test_estimate_in_counts_matches_the_normalized_reference_to_1e_11(name, tau, z):
    # estimate_gls works in counts, the reference in units of
    # mean_total_detections: the same objectives up to a constant factor, so
    # tau_hat differs by rounding only.  Counts lie within 3 Poisson sd of the
    # mean counts at tau; the largest difference measured over 20,000 such
    # runs was 8.9e-12, on the drifted device near tau = 1
    config = SCALES[name]
    if name not in _scale_calibrations:
        _scale_calibrations[name] = calibrate(run_experiment(config), 0.25, config)
    cal = _scale_calibrations[name]
    means = detection_rates(config, tau, 0.25)
    counts = [round(max(m + zk * math.sqrt(m), 0.0)) for m, zk in zip(means, z)]
    record = DetectionRecord(0.5, 0.25, 0, counts[:4], counts[4:])
    estimate = estimate_gls(record, cal, config)
    reference = reference_estimate_gls(record, cal, config)
    assert estimate.low_information == reference.low_information
    assert abs(estimate.tau_hat - reference.tau_hat) <= 1e-11


@settings(derandomize=True, max_examples=100, deadline=None)
@given(tau=st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, 2.0])))
def test_mean_response_matches_polyval_to_a_few_ulp(tau):
    # the power-basis product rounds apart from polyval's Horner rule by at
    # most 2.9 ulp of sum_k |c_k tau^k| (measured over 42,000 taus in [-1000, 1000]
    # on both calibrations); estimate_gls only evaluates finite taus in the scan
    for cal in equivalence_calibrations():
        expected = npoly.polyval(tau, cal.coeffs.T)
        scale = np.abs(cal.coeffs * tau ** np.arange(cal.coeffs.shape[1])).sum(axis=1)
        error = np.abs(cal.mean_response(tau) - expected)
        assert (error <= 4 * np.finfo(float).eps * scale).all()
