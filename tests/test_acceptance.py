"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report.
The Monte Carlo criteria use a pinned master seed (the simulation is
bit-for-bit deterministic), with tolerance bands that absorb the expected
statistical fluctuations at 100 runs per setting.
"""

import time

import numpy as np
import pytest

from oracles import (
    GRID,
    WaveformSamples,
    channel_probs,
    classical_fi_discrete,
    coherent_modes,
    modified_qfi,
    trapezoid_projection_probs,
)
from tempres import (
    DeviceModel,
    QFI,
    ExperimentConfig,
    coherent_channel_fi_analytic,
    hg_projection_probs,
    intensity_fi,
    quadrature_projection_probs,
)
from tempres import pipeline
from tempres.cli import main
from tempres.estimator import expected_detections

SEED = 9
TAUS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0)   # seven shifts, 0.1 sigma_t smallest
GAMMAS = (0.0, 0.125, 0.25, 0.375, 0.5)
CAL_REPETITIONS = 400

QCRB_PER_DETECTION = 4.0                          # 4 sigma_t^2
VAR_BAND = (0.8 * QCRB_PER_DETECTION, 2.0 * QCRB_PER_DETECTION)

INCOH_INTENSITY_FI_AT_0P1 = 1.2437913060e-3       # frozen finite-difference value

MODE_CUTOFF = 8                                   # more than the rate model's RATE_MODES
WIDE_CUTOFF = 16                                  # negligible truncation to tau = 3


def report(number, message):
    print(f"PASS criterion {number}: {message}")


def run_stats(config):
    start = time.perf_counter()
    result = pipeline.run_pipeline(config, calibration_repetitions=CAL_REPETITIONS)
    elapsed = time.perf_counter() - start
    return {(s.tau_true, s.gamma): s for s in result.stats}, elapsed


@pytest.fixture(scope="module")
def ideal_run():
    config = ExperimentConfig(tau_grid=TAUS, gammas=GAMMAS, repetitions=100,
                              mean_total_detections=1e4, master_seed=SEED)
    stats, elapsed = run_stats(config)
    return config, stats, elapsed


@pytest.fixture(scope="module")
def crosstalk_run():
    config = ExperimentConfig(tau_grid=TAUS, gammas=(0.0, 0.5), repetitions=100,
                              mean_total_detections=1e4, master_seed=SEED,
                              device=DeviceModel(crosstalk_eps=0.01))
    stats, elapsed = run_stats(config)
    return config, stats, elapsed


def test_criterion_1_qfi_constancy():
    start = time.perf_counter()

    worst = 0.0
    for gamma in GAMMAS:
        fn = channel_probs(WIDE_CUTOFF, gamma)
        for tau in np.linspace(0.05, 3.0, 25):
            total = classical_fi_discrete(fn, tau)
            worst = max(worst, abs(total - QFI) / QFI)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 1.0
    report(1, f"fi_total = 1/(4 sigma_t^2), worst rel err {worst:.2e} "
              f"({elapsed:.2f} s)")


def test_criterion_2_closed_form_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    # both closed forms against trapezoid overlap integrals on GRID: the parity
    # form with no offset, the displaced-pulse form with a drift offset
    for tau in (0.1, 0.5, 1.0, 1.5, 2.0):
        s, a = hg_projection_probs(MODE_CUTOFF, tau)
        qs, qa = trapezoid_projection_probs(MODE_CUTOFF, tau)
        worst = max(worst, np.abs(s - qs).max(), np.abs(a - qa).max())
    worst_offset = 0.0
    for offset in (0.01, -0.05, 0.2, 1.0):
        for tau in (0.0, 0.1, 0.4, 1.0, 2.0, 4.0):
            s, a = quadrature_projection_probs(MODE_CUTOFF, tau, centroid_offset=offset)
            qs, qa = trapezoid_projection_probs(MODE_CUTOFF, tau, centroid_offset=offset)
            worst_offset = max(worst_offset, np.abs(s - qs).max(), np.abs(a - qa).max())
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert worst_offset <= 1e-12
    assert elapsed < 5.0
    report(2, f"p_n closed forms vs quadrature, worst abs err {worst:.2e}, "
              f"{worst_offset:.2e} with a drift offset ({elapsed:.2f} s)")


def test_criterion_3_channel_fi_vs_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for tau in np.linspace(0.05, 3.0, 25):
        f_s, f_a = coherent_channel_fi_analytic(tau)
        d_s, d_a = (classical_fi_discrete(channel_probs(WIDE_CUTOFF, channels=ch), tau)
                    for ch in "sa")
        worst = max(worst, abs(d_s - f_s) / f_s, abs(d_a - f_a) / f_a)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    report(3, f"analytic channel FI vs finite differences, worst rel err "
              f"{worst:.2e} ({elapsed:.2f} s)")


def test_criterion_4_modified_qfi_optimality():
    start = time.perf_counter()
    worst = 0.0
    for tau in (0.1, 0.5, 1.0, 2.0):
        f_s, f_a = coherent_channel_fi_analytic(tau)
        q_s = modified_qfi(lambda t: WaveformSamples(GRID, coherent_modes(t)[0]), tau)
        q_a = modified_qfi(lambda t: WaveformSamples(GRID, coherent_modes(t)[1]), tau)
        worst = max(worst, abs(q_s - f_s) / f_s, abs(q_a - f_a) / f_a)
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    report(4, f"norm-aware QFI matches channel FI, worst rel err {worst:.2e} "
              f"({elapsed:.2f} s)")


def test_criterion_5_rayleigh_curse():
    start = time.perf_counter()
    values = {tau: intensity_fi(tau)
              for tau in (1.0, 0.5, 0.2, 0.1, 0.05)}
    ordered = [values[t] for t in (1.0, 0.5, 0.2, 0.1, 0.05)]
    elapsed = time.perf_counter() - start
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    assert values[0.1] < 0.01 * QFI
    assert values[0.1] == pytest.approx(INCOH_INTENSITY_FI_AT_0P1, rel=1e-6)
    assert elapsed < 5.0
    report(5, f"incoherent intensity FI decays to {values[0.1]:.3e} at "
              f"tau = 0.1 sigma_t ({elapsed:.2f} s)")


def test_criterion_6_crb_saturation(ideal_run):
    config, stats, elapsed = ideal_run
    lo, hi = VAR_BAND
    for tau in TAUS:
        v = stats[(tau, 0.0)].variance_per_detection
        assert lo <= v <= hi, f"tau={tau}: variance per detection {v}"
    fi_int = intensity_fi(0.1)
    intensity_crb = 1.0 / fi_int
    v01 = stats[(0.1, 0.0)].variance_per_detection
    assert v01 * 5.0 <= intensity_crb
    assert elapsed < 120.0
    report(6, f"coherent variance per detection in [{lo}, {hi}] for all tau, "
              f"{intensity_crb / v01:.0f}x below the intensity-only CRB at "
              f"tau = 0.1 ({elapsed:.1f} s)")


def test_criterion_7_crosstalk_signature(crosstalk_run):
    config, stats, elapsed = crosstalk_run
    smallest = min(TAUS)
    v_incoh = stats[(smallest, 0.5)].variance_per_detection
    v_coh = stats[(smallest, 0.0)].variance_per_detection
    fi_int = intensity_fi(smallest)
    assert v_incoh > v_coh
    assert v_incoh < 1.0 / fi_int
    assert elapsed < 120.0
    report(7, f"crosstalk raises the incoherent variance ({v_incoh:.1f} vs "
              f"{v_coh:.1f} at tau = {smallest}) yet stays below the "
              f"intensity-only CRB {1.0 / fi_int:.0f} ({elapsed:.1f} s)")


def test_criterion_8_resource_counting(ideal_run):
    config, stats, _ = ideal_run
    s01 = stats[(0.1, 0.0)]
    n_total, n_a = expected_detections(config, 0.1, 0.0)
    per_a = s01.variance * n_a
    per_total = s01.variance * n_total
    # per-total error sits at the quantum CRB (not below, within the
    # statistical slack of criterion 6); per-anti-phase-detection error
    # falls far below it, the resource-miscounting artifact
    assert per_a < QCRB_PER_DETECTION
    assert per_total >= 0.8 * QCRB_PER_DETECTION
    report(8, f"error per anti-phase detection {per_a:.2e} << quantum CRB "
              f"{QCRB_PER_DETECTION}, per total detection {per_total:.2f} is not below")


def test_criterion_9_estimator_bias(ideal_run):
    config, stats, _ = ideal_run
    worst = 0.0
    for (tau, gamma), s in stats.items():
        if tau < 0.2:
            continue
        limit = 2.0 * np.sqrt(s.variance) / np.sqrt(s.n_runs)
        assert abs(s.bias) < limit, f"tau={tau} gamma={gamma}: bias {s.bias}"
        worst = max(worst, abs(s.bias) / limit)
    report(9, f"|bias| < 2 std/sqrt(100) for every tau >= 0.2, all gamma "
              f"(worst ratio {worst:.2f})")


def test_criterion_10_simulate_determinism(tmp_path):
    start = time.perf_counter()
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "tau_grid": list(TAUS), "gammas": [0.0, 0.5],
        "repetitions": 25, "master_seed": SEED}))
    for name in ("one", "two"):
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / name)]) == 0
    first = (tmp_path / "one" / "records.csv").read_bytes()
    second = (tmp_path / "two" / "records.csv").read_bytes()
    elapsed = time.perf_counter() - start
    assert first == second
    assert elapsed < 60.0
    report(10, f"cmd_simulate is byte-identical under a fixed seed "
               f"({elapsed:.1f} s)")
