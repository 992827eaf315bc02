from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_offset, sample_run
from tempres import DeviceModel, DriftSpec, ExperimentConfig, montecarlo, run_experiment
from tempres.channels import hg_projection_probs, quadrature_projection_probs
from tempres.estimator import CALIBRATION_SEED_OFFSET
from tempres.montecarlo import (
    MAX_DRIFT_STD,
    N_RECORDED,
    RATE_MODES,
    DetectionRecord,
    _device_rates,
    _drift_offsets,
    _seeded,
    _StreamWords,
    _stream_words,
    apply_drift,
    detection_rates,
)


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
    for record in run_experiment(cfg)[:cfg.repetitions]:   # cell 0: tau = 0, gamma = 0
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
    # the sampler's rates carry dark_rate / mean_total_detections: 1e309 is inf,
    # and any finite ratio holds, up to near float's largest
    with pytest.raises(ValueError, match="dark_rate / mean_total_detections"):
        ExperimentConfig(mean_total_detections=1e-300, device=DeviceModel(dark_rate=1e9))
    for n_total, dark_rate in ((1e-300, 1.7e8), (0.5e-150, 1.0), (1e-140, 1e11), (5e-324, 0.0)):
        ExperimentConfig(mean_total_detections=n_total, device=DeviceModel(dark_rate=dark_rate))
    # run counts and seeds are integers: range() would reject a float only
    # once sampling began, and a float seed would hash as its integer part
    for key, value in (("repetitions", 2.5), ("repetitions", True), ("repetitions", "3"),
                       ("master_seed", 1.5), ("master_seed", np.True_),
                       ("master_seed", float("inf"))):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            ExperimentConfig(**{key: value})
    for period in (1.5, True):
        with pytest.raises(ValueError, match="recenter_period must be an integer"):
            DriftSpec(std=0.1, recenter_period=period)
    # numpy integers and integral floats count, and are held as Python ints
    cfg = ExperimentConfig(repetitions=np.int64(2), master_seed=np.uint64(2**63),
                           drift=DriftSpec(0.1, recenter_period=3.0))
    held = (cfg.repetitions, cfg.master_seed, cfg.drift.recenter_period)
    assert held == (2, 2**63, 3) and {type(v) for v in held} == {int}


@pytest.mark.parametrize("counts", [
    (0, 1, 2, 3), (), (2.0, 0.0, -0.0, 7.0), (np.int64(4), np.uint8(0), 1, 2),
    (Fraction(4, 2), 1, 1, 1), (True, False, 0, 0)])
def test_detection_record_accepts_nonnegative_integral_counts(counts):
    DetectionRecord(0.5, 0.0, 0, counts, (1, 2, 3, 4))
    DetectionRecord(0.5, 0.0, 0, (1, 2, 3, 4), counts)
    DetectionRecord(0.5, 0.0, 0, list(counts), np.array([1, 2, 3, 4]))


@pytest.mark.parametrize("counts, error", [
    ((0, -1, 2, 3), ValueError), ((0, 1, 2.5, 3), ValueError),
    ((np.int64(-4), 0, 1, 2), ValueError), ((Fraction(1, 2), 1, 1, 1), ValueError),
    ((-0.5, 1, 1, 1), ValueError), ((float("nan"), 1, 1, 1), ValueError),
    ((float("inf"), 1, 1, 1), OverflowError), (("1", 1, 1, 1), TypeError)])
def test_detection_record_rejects_other_counts(counts, error):
    for pair in ((counts, (1, 2, 3, 4)), ((1, 2, 3, 4), counts)):
        with pytest.raises(error):
            DetectionRecord(0.5, 0.0, 0, *pair)


def test_device_enters_rates():
    cfg = small_config(device=DeviceModel(crosstalk_eps=0.02, efficiency=0.5))
    rate_s, _ = detection_rates(cfg, 0.0, 0.0)
    # HG_0 leaks into HG_1 and efficiency halves everything
    assert rate_s[1] == pytest.approx(0.5 * 0.01, rel=1e-12)
    assert rate_s[0] == pytest.approx(0.5 * 0.99, rel=1e-12)


def test_detection_rates_are_read_only_and_repeatable():
    cfg = small_config(device=DeviceModel(crosstalk_eps=0.02, dark_rate=1.0))
    first = detection_rates(cfg, 0.5, 0.25)
    for rates in first:
        with pytest.raises(ValueError):
            rates[0] = 1.0
    again = detection_rates(cfg, 0.5, 0.25)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


def test_recorded_rates_do_not_depend_on_modes_past_rate_modes():
    # crosstalk moves rate one mode index at a time, so mode RATE_MODES and above
    # never reach a recorded projection: more modes give the same recorded rates.
    # No rate is negative, on either path, at any cutoff.
    device = DeviceModel(crosstalk_eps=0.05, efficiency=0.9, dark_rate=1.0)
    cfg = small_config(device=device)
    dark_norm = device.dark_rate / cfg.mean_total_detections
    for tau in np.linspace(0.0, 4.0, 17):
        for gamma in (0.0, 0.125, 0.25, 0.375, 0.5):
            recorded = [r[:N_RECORDED] for r in detection_rates(cfg, tau, gamma)]
            for modes in (8, 16, 64):
                wide = _device_rates(*hg_projection_probs(modes, tau), device, dark_norm, gamma)
                for got, want in zip(recorded, wide):
                    np.testing.assert_array_equal(got, want[:N_RECORDED])
                    assert np.all(want >= 0)
            for offset in (-0.3, -0.1, -0.01, 0.01, 0.1, 0.3):   # 0 takes the closed form
                recorded = [r[:N_RECORDED] for r in detection_rates(cfg, tau, gamma, offset)]
                for modes in (8, 16, 64):
                    wide = _device_rates(*quadrature_projection_probs(modes, tau, offset),
                                         device, dark_norm, gamma)
                    for got, want in zip(recorded, wide):
                        np.testing.assert_allclose(got, want[:N_RECORDED], rtol=0, atol=1e-17)
                        assert np.all(want >= 0)
    # one mode fewer drops mode N_RECORDED's leak into the last recorded projection
    short = _device_rates(*hg_projection_probs(RATE_MODES - 1, 2.0), device, dark_norm, 0.0)
    assert short[0][N_RECORDED - 1] < detection_rates(cfg, 2.0, 0.0)[0][N_RECORDED - 1]


MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, CALIBRATION_SEED_OFFSET + 7, 3**200]
MAX_WORD = 2**32 - 1


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("keys", [
    [(1, 0, 0, 0), (1, 6, 4, 99), (MAX_WORD, 1, MAX_WORD, 0), (0, 0, 0, MAX_WORD)],
    [(0, 0, 0, 0, 0, 0), (0, 3, 2, 57, 1, 3), (MAX_WORD,) * 6, (0, 1, 2, 2**31, 0, 1)],
])
def test_stream_words_match_seed_sequence(master_seed, keys):
    words = _stream_words(master_seed, keys)
    assert words.dtype == np.uint64 and words.shape == (len(keys), 4)
    for key, row in zip(keys, words):
        expected = np.random.SeedSequence(master_seed, spawn_key=key).generate_state(
            4, np.uint64)
        np.testing.assert_array_equal(row, expected)


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_seeded_generator_matches_a_fresh_default_rng(master_seed):
    keys = [(0, 1, 2, 3, 1, 0), (0, 1, 2, 4, 0, 3), (0, 0, 0, MAX_WORD, 1, 1)]
    for key, rng in zip(keys, _seeded(master_seed, keys)):
        fresh = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert rng.poisson(12.5, size=3).tolist() == fresh.poisson(12.5, size=3).tolist()


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                             (8, np.uint64), (4, np.int64), (0, np.uint64)])
def test_stream_words_serve_only_four_uint64_words(n_words, dtype):
    # they hold exactly what PCG64 asks for; any other request must not be
    # answered with those four words
    stream = _StreamWords(_stream_words(3, [(0, 1, 2, 3)])[0])
    assert stream.generate_state(4, np.uint64) is stream.words
    with pytest.raises(ValueError, match="4 words of uint64"):
        stream.generate_state(n_words, dtype)


@pytest.mark.parametrize("key", [(0, 0, 0, 2**32), (2**32 + 5, 0, 0, 0, 0, 0), (0, -1, 0, 0)])
def test_spawn_key_word_out_of_range_raises(key):
    # numpy would split 2**32 into two words; the vectorized hash must not wrap it
    with pytest.raises(ValueError, match="spawn-key"):
        _stream_words(0, [key])


def reference_experiment(config):
    """The per-draw sampler over the whole grid, in grid order."""
    return [sample_run(config, ti, gi, run) for ti in range(len(config.tau_grid))
            for gi in range(len(config.gammas)) for run in range(config.repetitions)]


def experiment_configs(drift):
    return st.builds(
        ExperimentConfig,
        tau_grid=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2, unique=True),
        gammas=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=2, unique=True),
        repetitions=st.integers(1, 12),
        mean_total_detections=st.floats(1.0, 1e5),
        device=st.builds(DeviceModel, crosstalk_eps=st.floats(0.0, 0.1),
                         efficiency=st.floats(0.5, 1.0), dark_rate=st.floats(0.0, 5.0)),
        drift=drift,
        master_seed=st.one_of(st.integers(0, 2**40), st.integers(2**64, 2**130)),
    )


def assert_matches_the_per_draw_sampler(config):
    assert run_experiment(config) == reference_experiment(config)
    if config.drift is None:
        return
    # an offset a few ulp off rarely moves a count, so compare the offsets bit for bit
    runs = range(config.repetitions)
    for ti in range(len(config.tau_grid)):
        for gi in range(len(config.gammas)):
            expected = [reference_offset(config, ti, gi, run) for run in runs]
            assert _drift_offsets(config, ti, gi, config.repetitions) == expected
            assert [apply_drift(config, ti, gi, run) for run in runs] == expected


DRIFTS = st.builds(DriftSpec, std=st.floats(0.01, 0.3), recenter_period=st.integers(1, 5))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(config=experiment_configs(drift=st.none()))
def test_run_experiment_matches_the_per_draw_sampler(config):
    assert_matches_the_per_draw_sampler(config)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(config=experiment_configs(drift=DRIFTS))
def test_drifted_run_experiment_matches_the_per_draw_sampler(config):
    assert_matches_the_per_draw_sampler(config)


# Blocks of a few runs put their edges inside cells; the default block holds
# more runs than any config drawn here.
BLOCK_RUNS = [1, 3, 5]


@pytest.mark.parametrize("block_runs", BLOCK_RUNS)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(config=experiment_configs(drift=st.one_of(st.none(), DRIFTS)))
def test_run_experiment_matches_the_per_draw_sampler_in_small_blocks(block_runs, config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_HASH_BLOCK_RUNS", block_runs)
        assert_matches_the_per_draw_sampler(config)


@pytest.mark.parametrize("block_runs", BLOCK_RUNS)
def test_drift_period_straddling_a_block_edge(block_runs, monkeypatch):
    # 7 runs per cell and a period of 4: cells, not drift periods, straddle the
    # hash-block edges; cell 0 (flat runs 0-6) and cell 1 (runs 7-13) each cross
    # an edge of every block size here, and read their rows across it
    config = small_config(repetitions=7, drift=DriftSpec(std=0.1, recenter_period=4))
    blocks = []

    def stream_words(seed, keys, hash_keys=montecarlo._stream_words):
        if np.shape(keys)[1] == 6:   # count keys; drift keys hold 4 values
            blocks.append(len(keys) // (2 * N_RECORDED))
        return hash_keys(seed, keys)

    monkeypatch.setattr(montecarlo, "_HASH_BLOCK_RUNS", block_runs)
    monkeypatch.setattr(montecarlo, "_stream_words", stream_words)
    assert_matches_the_per_draw_sampler(config)
    total = len(config.tau_grid) * len(config.gammas) * config.repetitions
    assert blocks == [block_runs] * (total // block_runs) + [total % block_runs] * (
        total % block_runs > 0)


def test_drift_std_above_the_limit_is_rejected():
    # at the limit a drifted run's amplitudes stay finite (warnings are errors);
    # above it, numpy's Poisson sampler met NaN means
    config = ExperimentConfig(tau_grid=(0.0, 1.0), gammas=(0.0,), repetitions=3,
                              drift=DriftSpec(MAX_DRIFT_STD))
    assert len(run_experiment(config)) == 6
    for std in (MAX_DRIFT_STD * (1 + 2**-52), 1e77):
        with pytest.raises(ValueError, match="MAX_DRIFT_STD"):
            ExperimentConfig(repetitions=3, drift=DriftSpec(std))
