import numpy as np
import pytest

from tempres import DeviceModel, DriftSpec, ExperimentConfig, run_experiment, sample_run
from tempres.montecarlo import apply_drift, detection_rates


def small_config(**overrides):
    base = dict(tau_grid=(0.0, 0.5, 1.0), gammas=(0.0, 0.5), repetitions=5,
                mean_total_detections=1e4, master_seed=123)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_default_grid_size():
    cfg = ExperimentConfig()
    records = run_experiment(cfg)
    assert len(records) == 7 * 5 * 100


def test_determinism_same_seed():
    cfg = small_config()
    assert run_experiment(cfg) == run_experiment(cfg)


def test_different_seed_differs():
    a = run_experiment(small_config(master_seed=1))
    b = run_experiment(small_config(master_seed=2))
    assert a != b


def test_sample_run_is_independent_of_evaluation_order():
    cfg = small_config(repetitions=4, drift=DriftSpec(std=0.05, recenter_period=3))
    records = run_experiment(cfg)
    triples = [(ti, gi, run) for ti in range(len(cfg.tau_grid))
               for gi in range(len(cfg.gammas)) for run in range(cfg.repetitions)]
    order = np.random.default_rng(11).permutation(len(triples))
    assert ([sample_run(cfg, *triples[k]) for k in order]
            == [records[k] for k in order])


def test_coherent_tau_zero_counts():
    cfg = small_config()
    for run in range(5):
        record = sample_run(cfg, 0, 0, run)   # tau = 0, gamma = 0
        assert record.counts_a == (0, 0, 0, 0)
        assert record.counts_s[1:] == (0, 0, 0)
        assert record.counts_s[0] > 0


def test_empirical_means_match_model():
    cfg = ExperimentConfig(tau_grid=(1.0,), gammas=(0.0,), repetitions=1000,
                           mean_total_detections=1e4, master_seed=5)
    records = run_experiment(cfg)
    rate_s, rate_a = detection_rates(cfg, 1.0, 0.0)
    for channel, rates in (("s", rate_s), ("a", rate_a)):
        counts = np.array([getattr(r, f"counts_{channel}") for r in records])
        for n in range(4):
            mean_rate = rates[n] * cfg.mean_total_detections
            se = max(np.sqrt(mean_rate / len(records)), 1e-9)
            if mean_rate < 1e-6:
                assert counts[:, n].sum() == 0
            else:
                assert abs(counts[:, n].mean() - mean_rate) < 4 * se


def test_channel_symmetry_at_gamma_half():
    cfg = ExperimentConfig(tau_grid=(0.8,), gammas=(0.5,), repetitions=1000,
                           mean_total_detections=1e4, master_seed=6)
    records = run_experiment(cfg)
    s = np.array([r.counts_s for r in records], dtype=float)
    a = np.array([r.counts_a for r in records], dtype=float)
    for n in range(4):
        pooled_se = np.sqrt((s[:, n].var() + a[:, n].var()) / len(records))
        if pooled_se == 0:
            assert s[:, n].mean() == a[:, n].mean()
        else:
            assert abs(s[:, n].mean() - a[:, n].mean()) < 4 * pooled_se


def test_drift_disabled_zero_offset():
    cfg = small_config()
    assert apply_drift(cfg, 0, 0, 7) == 0.0


def test_drift_recenters_periodically():
    cfg = small_config(drift=DriftSpec(std=0.05, recenter_period=10))
    for run in (0, 10, 20):
        assert apply_drift(cfg, 1, 0, run) == 0.0
    assert apply_drift(cfg, 1, 0, 5) != 0.0


def test_drift_offset_deterministic_and_cumulative():
    cfg = small_config(drift=DriftSpec(std=0.05, recenter_period=10))
    a = apply_drift(cfg, 0, 0, 7)
    assert a == apply_drift(cfg, 0, 0, 7)
    # walk is cumulative within a period: offset(7) builds on offset(6)'s increments
    assert apply_drift(cfg, 0, 0, 6) != a


def test_drift_inflates_counts_variance():
    # direction-only Monte Carlo A/B: drift adds variance to the HG_1 counts
    taus = (0.1, 0.3, 0.5, 0.7, 0.9)
    base = ExperimentConfig(tau_grid=taus, gammas=(0.0,), repetitions=60,
                            mean_total_detections=1e4, master_seed=10)
    drifty = ExperimentConfig(tau_grid=taus, gammas=(0.0,), repetitions=60,
                              mean_total_detections=1e4, master_seed=10,
                              drift=DriftSpec(std=0.2, recenter_period=10))
    var_base = var_drift = 0.0
    for records, acc in ((run_experiment(base), "base"), (run_experiment(drifty), "drift")):
        counts = np.array([r.counts_a[1] for r in records if r.tau_true == 0.1])
        if acc == "base":
            var_base = counts.var()
        else:
            var_drift = counts.var()
    assert var_drift > var_base


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(tau_grid=(-0.1,))
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mean_total_detections=0.0)
    with pytest.raises(ValueError):
        DriftSpec(std=-1.0)


def test_device_enters_rates():
    cfg = small_config(device=DeviceModel(crosstalk_eps=0.02, efficiency=0.5))
    rate_s, _ = detection_rates(cfg, 0.0, 0.0)
    # HG_0 leaks into HG_1 and efficiency halves everything
    assert rate_s[1] == pytest.approx(0.5 * 0.01, rel=1e-12)
    assert rate_s[0] == pytest.approx(0.5 * 0.99, rel=1e-12)
