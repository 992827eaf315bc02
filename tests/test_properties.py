"""Property tests: malformed configs exit 2, records.csv round-trips the counts,
read_records agrees with a row-by-row reference parser, and the drifted
projections are a distribution even in the offset.

derandomize=True fixes the examples, so the suite stays deterministic.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tempres import DetectionRecord, ExperimentConfig, run_experiment
from tempres.channels import hg_projection_probs, quadrature_projection_probs
from tempres.cli import EXIT_MISMATCH, RECORDS_HEADER, CliError, fmt, main, read_records

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


def reference_read_records(path):
    """records.csv parsed one row at a time with csv.reader, as first written."""
    cells = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != RECORDS_HEADER:
                raise ValueError("unexpected header")
            for row in reader:
                if not row:
                    continue
                tau, gamma, run_idx, channel, n, count = row
                key = (float(tau), float(gamma), int(run_idx))
                cell = cells.get(key)
                if cell is None:
                    cell = cells[key] = {"s": [None] * 4, "a": [None] * 4}
                n = int(n)
                if not 0 <= n < 4:
                    raise ValueError(f"mode index n = {n}")
                counts = cell[channel]
                if counts[n] is not None:
                    raise ValueError("repeated row")
                counts[n] = int(count)
        records = []
        for (tau, gamma, run_idx), counts in sorted(cells.items()):
            if any(c is None for c in counts["s"] + counts["a"]):
                raise ValueError("incomplete counts")
            records.append(DetectionRecord(tau, gamma, run_idx,
                                           tuple(counts["s"]), tuple(counts["a"])))
    except (KeyError, ValueError) as exc:
        raise CliError(EXIT_MISMATCH, str(exc)) from exc
    return records


def exact(records):
    """Records as tuples whose floats compare by bits and whose types must match."""
    return [(r.tau_true.hex(), r.gamma.hex(), r.run_index, r.counts_s, r.counts_a,
             tuple(map(type, (r.tau_true, r.gamma, r.run_index, *r.counts_s, *r.counts_a))))
            for r in records]


# tau and gamma as simulate writes them (fmt) and as other writers might (repr)
grid_text = st.one_of(st.floats(0.0, 4.0).map(fmt), st.floats(0.0, 4.0).map(repr),
                      st.sampled_from(["0", "0.5", "-0.0", "1e-3", "2.50", " 0.5", "inf"]))
cell_keys = st.lists(st.tuples(grid_text, grid_text, st.integers(0, 2**31 - 1)),
                     min_size=1, max_size=4, unique_by=lambda k: k[2])


@st.composite
def records_files(draw, valid=True):
    """A records.csv: rows shuffled, blank lines between some, some fields quoted."""
    rows = [[tau, gamma, str(run), channel, str(n),
             str(draw(st.integers(0, 2**63 - 1)))]
            for tau, gamma, run in draw(cell_keys) for channel in "sa" for n in range(4)]
    rows = draw(st.permutations(rows))
    if not valid:
        row = draw(st.sampled_from(rows))
        column = draw(st.integers(0, 5))
        row[column] = draw(st.sampled_from(["", "x", "ss", "-1", "4", "2.5", "1e3", "nan",
                                            "1/6", "1,2"]))
        if draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))   # a repeated row
    lines = [",".join(f'"{field}"' if draw(st.booleans()) else field for field in row)
             + "\n" * draw(st.sampled_from([1, 1, 2])) for row in rows]
    return ",".join(RECORDS_HEADER) + "\n" + "".join(lines)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=records_files())
def test_read_records_matches_the_row_by_row_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        path.write_text(text)
        assert exact(read_records(path)) == exact(reference_read_records(path))


def test_read_records_keys_a_cell_by_its_first_row_like_the_reference(tmp_path):
    # 0 and -0.0 are one cell key; the record keeps the sign of its first row
    path = tmp_path / "records.csv"
    for first, other in (("0", "-0.0"), ("-0.0", "0")):
        rows = [f"{other},0.5,0,{ch},{n},1" for n in range(4) for ch in "as"]
        rows[0] = first + rows[0][len(other):]   # channel a, so not first in slot order
        path.write_text(",".join(RECORDS_HEADER) + "\n" + "\n".join(rows) + "\n")
        assert exact(read_records(path)) == exact(reference_read_records(path))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=records_files(valid=False))
def test_read_records_refuses_what_the_reference_refuses(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        path.write_text(text)
        try:
            expected = exact(reference_read_records(path))
        except CliError:
            expected = None
        try:
            got = exact(read_records(path))
        except CliError as exc:
            assert exc.code == EXIT_MISMATCH
            got = None
        assert got == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tau=st.floats(0.0, 4.0), offset=st.floats(-2.0, 2.0))
def test_drifted_projections_are_a_distribution_even_in_the_offset(tau, offset):
    # the pulses sit at offset -/+ tau/2, so |a| = |offset + tau/2| / 2 <= 2: the
    # Poisson mass past 64 modes is far below 1e-12
    s, a = quadrature_projection_probs(64, tau, offset)
    assert abs(s.sum() + a.sum() - 1.0) <= 1e-12
    assert np.all(s >= 0) and np.all(a >= 0)
    for got, want in zip(quadrature_projection_probs(64, tau, -offset), (s, a)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    for got, want in zip(quadrature_projection_probs(64, tau, 0.0),
                         hg_projection_probs(64, tau)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
