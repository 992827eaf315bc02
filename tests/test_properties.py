"""Property tests: malformed configs exit 2, records.csv round-trips the counts.

derandomize=True fixes the examples, so the suite stays deterministic.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tempres import ExperimentConfig, run_experiment
from tempres.cli import fmt, main, read_records

# a valid base that reproduce runs in well under a second
BASE = {"tau_grid": [0.0, 0.25, 0.5, 0.75, 1.0], "repetitions": 1}

junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 5e-324, 1e-300, 1e300, 1e400, "nan", "inf", "-1", "x",
                     [], {}, [0.5], {"std": 0.1}]),
)


# a huge run count is a long job rather than a malformed config, so the count
# fields get junk without large numbers
count_junk = st.one_of(
    st.none(), st.booleans(), st.floats(-3.0, 3.0),
    st.sampled_from([math.nan, math.inf, -math.inf, "nan", "2", "x", [], {}, [1]]),
)


def one_key_of(fields):
    """Objects that set one of the keys to a value drawn from its strategy."""
    return st.one_of([st.fixed_dictionaries({key: values})
                      for key, values in fields.items()])


def merged(dicts):
    return {key: value for d in dicts for key, value in d.items()}


# one or two keys per example, so most examples fail on one fault at a time
config_changes = st.lists(one_key_of({
    "mode_cutoff": st.one_of(st.integers(2, 12), junk),
    "tau_grid": st.one_of(st.lists(st.one_of(st.floats(0.0, 4.0), junk), max_size=7),
                          junk),
    "gammas": st.one_of(st.lists(st.one_of(st.floats(0.0, 0.5), junk), max_size=3),
                        junk),
    "repetitions": st.one_of(st.integers(-1, 3), count_junk),
    "mean_total_detections": st.one_of(st.floats(1.0, 1e6), junk),
    "master_seed": st.one_of(st.integers(-1, 2**64), junk),
    "device": st.one_of(one_key_of({"crosstalk_eps": st.one_of(st.floats(0.0, 0.2), junk),
                                    "efficiency": st.one_of(st.floats(0.5, 1.0), junk),
                                    "dark_rate": st.one_of(st.floats(0.0, 10.0), junk)}),
                        junk),
    "drift": st.one_of(st.lists(one_key_of({
        "std": st.one_of(st.floats(0.0, 0.2), junk),
        "recenter_period": st.one_of(st.integers(-1, 4), junk)}),
        max_size=2).map(merged), junk),
    "calibration": st.one_of(one_key_of({
        "repetitions": st.one_of(st.integers(-1, 2), count_junk),
        "reuse_records": st.one_of(st.booleans(), junk)}), junk),
}), min_size=1, max_size=2).map(merged)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(changes=config_changes)
def test_malformed_config_exits_0_or_2(changes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**BASE, **changes}))
        code = main(["reproduce", "fig2", "--config", str(path), "--out", tmp])
    assert code in (0, 2)


grids = st.fixed_dictionaries({
    # records.csv keeps 12 significant digits, so grid values must differ there
    "tau_grid": st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4, unique_by=fmt),
    "gammas": st.lists(st.floats(0.0, 0.5), min_size=1, max_size=3, unique_by=fmt),
    "repetitions": st.integers(1, 3),
    "master_seed": st.integers(0, 2**32),
})


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=grids)
def test_simulate_then_read_records_gives_back_the_counts(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(path), "--out", tmp]) == 0
        read = read_records(Path(tmp) / "records.csv")
    expected = sorted((float(fmt(r.tau_true)), float(fmt(r.gamma)), r.run_index,
                       r.counts_s, r.counts_a)
                      for r in run_experiment(ExperimentConfig(**data)))
    assert [(r.tau_true, r.gamma, r.run_index, r.counts_s, r.counts_a)
            for r in read] == expected
