import csv
import hashlib
import json
from pathlib import Path

import pytest

from tempres import ExperimentConfig
from tempres import config as config_mod
from tempres import montecarlo, pipeline
from tempres.cli import CliError, fmt, main, read_records
from tempres.config import ConfigError

SMALL = {
    "tau_grid": [0.0, 0.1, 0.3, 0.5, 0.7, 1.0],
    "gammas": [0.0, 0.5],
    "repetitions": 10,
    "mean_total_detections": 1e4,
    "master_seed": 17,
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------- config

def test_config_defaults():
    run = config_mod.load(None)
    assert run.experiment.repetitions == 100
    assert len(run.experiment.tau_grid) == 7
    assert run.experiment.gammas == (0.0, 0.125, 0.25, 0.375, 0.5)
    assert run.experiment.mean_total_detections == 1e4


def test_config_defaults_are_the_dataclass_defaults():
    assert config_mod.from_dict({}).experiment == ExperimentConfig()


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"repetitons": 10}')
    with pytest.raises(ConfigError, match="repetitons"):
        config_mod.load(str(path))


def test_config_nested_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"device": {"crosstalk": 0.1}}')
    with pytest.raises(ConfigError, match="device.*crosstalk"):
        config_mod.load(str(path))


def test_config_syntax_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "repetitions": 10,\n}')
    with pytest.raises(ConfigError, match=r":3:"):
        config_mod.load(str(path))


def test_config_invalid_value(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"repetitions": 0}')
    with pytest.raises(ConfigError):
        config_mod.load(str(path))


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_config_exits_3(tmp_path, capsys, name):
    code = main(["fisher", "--config", str(tmp_path / name), "--out", str(tmp_path / "f")])
    assert code == 3
    [err] = capsys.readouterr().err.splitlines()
    assert "cannot read config" in err


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"nope": 1}')
    code = main(["fisher", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "nope" in capsys.readouterr().err


# Case id -> (config as data, JSON text or raw bytes; text the one error line
# must hold).  The ids are explicit, so adding or removing a case renames no
# other; the plain-dict cases keep the ids pytest first gave them by position.
BAD_CONFIGS = {
    "data0-0.7": ({"gammas": [0.7]}, "0.7"),
    "data1-repetitions": ({"repetitions": True}, "repetitions"),
    "data2-repetitions": ({"repetitions": 2.7}, "repetitions"),
    "data3-repetitions": ({"repetitions": "3"}, "repetitions"),
    "data4-master_seed": ({"master_seed": 1.5}, "master_seed"),
    "data5-master_seed": ({"master_seed": False}, "master_seed"),
    "data6-master_seed": ({"master_seed": -1}, "master_seed"),
    # not a key: the rate model holds RATE_MODES modes
    "data7-mode_cutoff": ({"mode_cutoff": 8}, "mode_cutoff"),
    "data8-recenter_period": ({"drift": {"std": 0.05, "recenter_period": True}},
                              "recenter_period"),
    "data9-recenter_period": ({"drift": {"std": 0.05, "recenter_period": 2.5}},
                              "recenter_period"),
    "data10-calibration.repetitions": ({"calibration": {"repetitions": 2.7}},
                                       "calibration.repetitions"),
    "data11-calibration.repetitions": ({"calibration": {"repetitions": "4"}},
                                       "calibration.repetitions"),
    "data12-calibration.repetitions": ({"calibration": {"repetitions": 0}},
                                       "calibration.repetitions"),
    # reuse_records takes a JSON boolean only: bool("false") would read as true
    "string-reuse_records": ({"calibration": {"reuse_records": "false"}}, "reuse_records"),
    "int-reuse_records": ({"calibration": {"reuse_records": 1}}, "reuse_records"),
    "data15-tau_grid": ({"tau_grid": [0.0, 0.25, 0.5, 0.75, "nan"]}, "tau_grid"),
    "data16-tau_grid": ({"tau_grid": [0.0, 0.25, 0.5, 0.75, 1e200]}, "tau_grid"),
    "data17-drift std": ({"drift": {"std": "nan"}}, "drift std"),
    "1e400-mean_total_detections": ('{"mean_total_detections": 1e400}',
                                    "mean_total_detections"),
    "data19-mean_total_detections": ({"mean_total_detections": 1e300},
                                     "mean_total_detections"),
    "data20-dark_rate": ({"device": {"dark_rate": "inf"}}, "dark_rate"),
    "data21-dark_rate": ({"mean_total_detections": 5e-324, "device": {"dark_rate": 1.0}},
                         "dark_rate"),
    "data22-calibration": ({"calibration": None}, "calibration"),
    # numeric fields take JSON numbers only, and the grids JSON arrays
    "string-tau_grid": ({"tau_grid": "01234"}, "tau_grid"),
    "string-gammas": ({"gammas": "0"}, "gammas"),
    "bool-in-tau_grid": ({"tau_grid": [0, 0.5, 0.75, 1.5, True]}, "tau_grid[4]"),
    "bool-in-gammas": ({"gammas": [0.5, False]}, "gammas[1]"),
    "string-mean_total_detections": ({"mean_total_detections": "1e4"},
                                     "mean_total_detections"),
    "huge-int-mean_total_detections": ({"mean_total_detections": 10**400},
                                       "mean_total_detections"),
    "bool-drift-std": ({"drift": {"std": True}}, "drift std"),
    "bool-efficiency": ({"device": {"efficiency": True}}, "device.efficiency"),
    "null-reuse_records": ({"calibration": {"reuse_records": None}}, "reuse_records"),
    # an empty grid has no cells to run
    "empty-tau_grid": ({"tau_grid": []}, "tau_grid"),
    "empty-gammas": ({"gammas": [], "repetitions": 2}, "gammas"),
    "non-utf8-bytes": (b'{"repetitions": 2, "x": "\xff"}', "not UTF-8"),
    # a walk this wide overflows the displaced-pulse amplitudes (a**4 past 1.8e308)
    "huge-drift-std": ({"repetitions": 3, "drift": {"std": 1e77}}, "drift std"),
    # reused records calibrate on their own runs: calibration.repetitions would go unused
    "repetitions-and-reuse_records": (
        {"calibration": {"repetitions": 4, "reuse_records": True}},
        "calibration.repetitions and calibration.reuse_records"),
}


@pytest.mark.parametrize("data, key", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_bad_config_values_exit_2(tmp_path, capsys, data, key):
    path = tmp_path / "bad.json"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data if isinstance(data, str) else json.dumps(data))
    code = main(["fisher", "--config", str(path), "--out", str(tmp_path / "f")])
    assert code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert key in err


# ------------------------------------------------------------- fisher

def test_fisher_csv(tmp_path, small_config):
    assert main(["fisher", "--config", str(small_config),
                 "--out", str(tmp_path / "f")]) == 0
    rows = read_csv(tmp_path / "f" / "fisher_report.csv")
    assert rows[0] == ["tau", "gamma", "fi_s", "fi_a", "fi_total", "qfi",
                       "fi_int_s", "fi_int_a", "fi_int_incoh", "crb_per_event"]
    assert len(rows) - 1 == len(SMALL["tau_grid"]) * len(SMALL["gammas"])
    by_key = {(float(r[0]), float(r[1])): r for r in rows[1:]}
    for (tau, _), row in by_key.items():
        assert float(row[4]) == pytest.approx(0.25, rel=1e-6)     # fi_total
        if tau == 0:   # the incoherent intensity FI vanishes there (Rayleigh's
            # curse); the coherent a port keeps its limit 1/4
            assert row[6:9] == ["0", "0.25", "0"]
        assert float(row[9]) == pytest.approx(4.0, rel=1e-6)      # crb_per_event
    assert float(by_key[(0.0, 0.0)][2]) == 0.0                    # fi_s at tau=0
    assert float(by_key[(0.1, 0.5)][8]) < 0.0025                  # Rayleigh curse


# ----------------------------------------------------------- simulate

def test_simulate_csv_and_roundtrip(tmp_path, small_config):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(small_config), "--out", str(out)]) == 0
    rows = read_csv(out / "records.csv")
    assert rows[0] == ["tau_true", "gamma", "run", "channel", "n", "counts"]
    n_cells = len(SMALL["tau_grid"]) * len(SMALL["gammas"]) * SMALL["repetitions"]
    assert len(rows) - 1 == n_cells * 2 * 4
    records = read_records(out / "records.csv")
    assert len(records) == n_cells

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 17
    assert manifest["outputs"][0]["path"] == "records.csv"
    assert len(manifest["outputs"][0]["sha256"]) == 64


def test_simulate_deterministic(tmp_path, small_config):
    for name in ("a", "b"):
        assert main(["simulate", "--config", str(small_config),
                     "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "a" / "records.csv").read_bytes()
            == (tmp_path / "b" / "records.csv").read_bytes())


def test_seed_flag_overrides_config(tmp_path, small_config):
    assert main(["simulate", "--config", str(small_config), "--seed", "99",
                 "--out", str(tmp_path / "s")]) == 0
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["master_seed"] == 99
    assert manifest["config"]["master_seed"] == 99


def test_unwritable_output_dir(tmp_path, small_config, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["simulate", "--config", str(small_config),
                 "--out", str(blocker / "sub")])
    assert code == 3


# ----------------------------------------------------------- estimate

def test_estimate_outputs(tmp_path, small_config):
    sim = tmp_path / "sim"
    out = tmp_path / "est"
    assert main(["simulate", "--config", str(small_config), "--out", str(sim)]) == 0
    assert main(["estimate", str(sim / "records.csv"),
                 "--config", str(small_config), "--out", str(out)]) == 0

    stats = read_csv(out / "stats.csv")
    assert stats[0] == ["tau_true", "gamma", "n_runs", "mean", "variance",
                        "bias", "variance_per_detection"]
    assert len(stats) - 1 == len(SMALL["tau_grid"]) * len(SMALL["gammas"])

    estimates = read_csv(out / "estimates.csv")
    assert estimates[0] == ["tau_true", "gamma", "run", "tau_hat"]
    hats = [float(r[3]) for r in estimates[1:]]
    assert len(hats) == 10 * len(SMALL["tau_grid"]) * len(SMALL["gammas"])
    assert all(h >= 0.0 for h in hats)


def test_estimate_grid_mismatch(tmp_path, small_config, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(small_config), "--out", str(sim)]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**SMALL, "tau_grid": [0.0, 0.2, 0.4, 0.6, 0.8]}))
    code = main(["estimate", str(sim / "records.csv"),
                 "--config", str(other), "--out", str(tmp_path / "est")])
    assert code == 4
    assert "grid" in capsys.readouterr().err


def test_estimate_checks_the_run_count_of_every_cell(tmp_path, capsys):
    # move run 2 of cell (0, 0) to cell (0, 0.5): 30 runs over 10 cells, as
    # expected on average, but 2 runs in one cell and 4 in another
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
    rows = read_csv(sim / "records.csv")
    for row in rows[1:]:
        if row[:3] == ["0", "0", "2"]:
            row[1:3] = ["0.5", "3"]
    with open(sim / "records.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["estimate", str(sim / "records.csv"), "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "2 runs in cell tau=0, gamma=0, config expects 3" in err[0]


def test_estimate_missing_records(tmp_path, small_config):
    code = main(["estimate", str(tmp_path / "nope.csv"),
                 "--config", str(small_config), "--out", str(tmp_path / "est")])
    assert code == 3


@pytest.mark.parametrize("column, value", [
    ("counts", "-3"), ("counts", "2.5"), ("counts", "1e3"), ("n", "-1"), ("n", "4"),
    ("channel", "x"), ("channel", "ss"),
    # counts must fit in int64 and be plain ASCII digits
    ("counts", str(2**63)), ("counts", "1_000"),
    # column None: the row value is added after the eight valid rows
    pytest.param(None, "0.0,0.0,0", id="short-row"),
    pytest.param(None, "0.5,0,0,s,3,7,7", id="long-row"),
    pytest.param(None, "0.5,0,0,s,3,999999", id="repeated-row"),
])
def test_bad_records_value_is_a_mismatch(tmp_path, column, value):
    header = ["tau_true", "gamma", "run", "channel", "n", "counts"]
    rows = [["0.5", "0", "0", ch, str(n), "7"] for ch in "sa" for n in range(4)]
    if column is None:
        rows.append(value.split(","))
    else:
        rows[3][header.index(column)] = value
    path = tmp_path / "records.csv"
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    with pytest.raises(CliError) as exc:
        read_records(path)
    assert exc.value.code == 4


@pytest.mark.parametrize("data", [
    {"repetitions": 2},
    {"repetitions": 2, "gammas": [0.0, 0.123456789012345, 0.5],
     "calibration": {"reuse_records": True}},
])
def test_round_trip_on_grids_that_records_csv_rounds(tmp_path, data):
    # the default tau grid holds sixths, which records.csv stores rounded
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    sim, est = tmp_path / "sim", tmp_path / "est"
    assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
    assert main(["estimate", str(sim / "records.csv"),
                 "--config", str(config), "--out", str(est)]) == 0
    stats = read_csv(est / "stats.csv")[1:]
    assert len(stats) == 7 * len(data.get("gammas", range(5)))
    assert {row[0] for row in stats} == {f"{i / 6:.12g}" for i in range(7)}


def test_blank_lines_in_records_are_skipped(tmp_path):
    rows = [f"0.5,0,0,{ch},{n},7" for ch in "sa" for n in range(4)]
    path = tmp_path / "records.csv"
    path.write_text("tau_true,gamma,run,channel,n,counts\n\n" + "\n\n".join(rows) + "\n\n")
    [record] = read_records(path)
    assert record.counts_s == record.counts_a == (7, 7, 7, 7)


@pytest.mark.parametrize("bad_row", ["0.5,0,0,s,1,x", "0.5,0,0,s,1,7,7"],
                         ids=["value", "field-count"])
def test_malformed_row_names_its_file_line(tmp_path, bad_row):
    # the header and the blank line count: the bad row is line 4 of the file
    path = tmp_path / "records.csv"
    path.write_text(f"tau_true,gamma,run,channel,n,counts\n\n0.5,0,0,s,0,7\n{bad_row}\n")
    with pytest.raises(CliError, match=r"records\.csv:4: malformed records file") as exc:
        read_records(path)
    assert exc.value.code == 4 and " row " not in str(exc.value)


@pytest.mark.parametrize("argv", [["estimate", "records.csv"], ["reproduce", "fig2"]])
def test_short_tau_grid_exits_2_where_calibration_needs_it(tmp_path, capsys, argv):
    # the quartic calibration needs five distinct taus
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tau_grid": [0.0, 0.25, 0.5, 1.0],
                                  "repetitions": 2}))
    args = ["--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv + args) == 2
    assert "tau_grid" in capsys.readouterr().err
    for command in ("simulate", "fisher"):
        assert main([command] + args) == 0


@pytest.mark.parametrize("argv", [["estimate"], ["reproduce", "fig2"]],
                         ids=["estimate", "reproduce"])
def test_tau_past_the_scan_exits_2_where_estimates_are_made(tmp_path, capsys, argv):
    # the GLS scan ends at SCAN_TAU_MAX, so a larger true tau would read as exactly 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tau_grid": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
                                  "gammas": [0.0], "repetitions": 2}))
    args = ["--config", str(config), "--out", str(tmp_path / "out")]
    for command in ("simulate", "fisher"):
        assert main([command] + args) == 0
    if argv == ["estimate"]:
        argv = argv + [str(tmp_path / "out" / "records.csv")]
    assert main(argv + args) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert "SCAN_TAU_MAX" in err and "2.5" in err


@pytest.mark.parametrize("data, key", [
    ({"tau_grid": [0, 0.25, 0.5, 0.5, 0.75, 1]}, "tau_grid"),
    ({"gammas": [0, 0.25, 0.25, 0.5]}, "gammas"),
    ({"tau_grid": [0.0, -0.0, 0.5, 0.75, 1.0]}, "tau_grid"),
])
@pytest.mark.parametrize("argv", [["simulate"], ["reproduce", "fig2"]])
def test_repeated_grid_value_exits_2_at_load(tmp_path, capsys, monkeypatch, data, key, argv):
    # a repeated value would give one (tau, gamma) cell two sets of runs, which
    # reproduce fig2 would pool into one cell
    def simulate(config):
        raise AssertionError("simulated a grid with a repeated value")

    monkeypatch.setattr(montecarlo, "run_experiment", simulate)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(argv + ["--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tempres: ")
    assert f"{key} values must be distinct" in err[0]


@pytest.mark.parametrize("data, key, first, second", [
    ({"tau_grid": [0.1, 0.10000000000001, 0.2, 0.3, 0.4, 0.5]}, "tau_grid",
     "0.1", "0.10000000000001"),
    ({"gammas": [0.0, 0.25, 0.2500000000000001]}, "gammas", "0.25", "0.2500000000000001"),
])
@pytest.mark.parametrize("argv", [["simulate"], ["fisher"]])
def test_grid_values_that_print_alike_exit_2_at_load(tmp_path, capsys, data, key, first,
                                                      second, argv):
    # the output files write grid values to 12 digits, so these distinct values
    # would share one printed (tau, gamma) key: simulate's records would read
    # back as repeated rows, and fisher would write two rows for one key
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tempres: ")
    assert f"{key} values {first} and {second}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("data", [{"repetitions": 10**12},
                                  {"calibration": {"repetitions": 10**12}}])
@pytest.mark.parametrize("argv", [["fisher"], ["simulate"], ["estimate", "records.csv"],
                                  ["reproduce", "fig3"]])
def test_too_many_runs_exit_2_before_simulating(tmp_path, capsys, monkeypatch, data, argv):
    def simulate(config):
        raise AssertionError("simulated past the run limit")

    monkeypatch.setattr(montecarlo, "run_experiment", simulate)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(argv + ["--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "repetitions" in capsys.readouterr().err


def test_run_limit_counts_the_gammas_reproduce_uses():
    # default grid: 7 taus, and reproduce fig3 runs 5 gammas even when 1 is listed
    most = config_mod.MAX_RUNS // 35
    for data in ({"repetitions": most}, {"calibration": {"repetitions": most}}):
        config_mod.from_dict(data)
    for data in ({"repetitions": most + 1}, {"gammas": [0.0], "repetitions": most + 1},
                 {"calibration": {"repetitions": most + 1}}):
        with pytest.raises(ConfigError, match="runs"):
            config_mod.from_dict(data)


def test_negative_seed_flag_exit_2(tmp_path, capsys):
    assert main(["fisher", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "master_seed" in capsys.readouterr().err


# ---------------------------------------------------------- reproduce

def test_reproduce_fig3_series(tmp_path, small_config):
    out = tmp_path / "fig3"
    assert main(["reproduce", "fig3", "--config", str(small_config),
                 "--svg", "--out", str(out)]) == 0
    rows = read_csv(out / "fig3.csv")
    assert rows[0] == ["series", "tau", "value"]
    series = {r[0] for r in rows[1:]}
    gamma_series = {s for s in series if s.startswith("gamma=")}
    assert len(gamma_series) == 5
    assert series - gamma_series == {"qcrb", "intensity_crb"}
    assert (out / "fig3.svg").read_text().startswith("<svg")


def test_reproduce_fig4_resource_counting(tmp_path, small_config):
    out = tmp_path / "fig4"
    assert main(["reproduce", "fig4", "--config", str(small_config),
                 "--out", str(out)]) == 0
    rows = read_csv(out / "fig4.csv")[1:]
    values = {}
    for series, tau, value in rows:
        values.setdefault(series, {})[float(tau)] = float(value)
    smallest = min(values["per_a_detection"])
    qcrb = values["qcrb"][smallest]
    assert values["per_a_detection"][smallest] < qcrb
    assert values["per_total_detection"][smallest] > values["per_a_detection"][smallest]


@pytest.mark.parametrize("figure", ["fig3", "fig4"])
def test_reproduce_svg_with_one_repetition(tmp_path, figure):
    # one run per cell gives no variance, so only the bound series have points
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL, "repetitions": 1}))
    out = tmp_path / figure
    assert main(["reproduce", figure, "--config", str(config), "--svg",
                 "--out", str(out)]) == 0
    assert {r[0] for r in read_csv(out / f"{figure}.csv")[1:]} == {"qcrb", "intensity_crb"}
    assert (out / f"{figure}.svg").read_text().startswith("<svg")


def test_reproduce_fig2_tracks_diagonal(tmp_path, small_config):
    out = tmp_path / "fig2"
    assert main(["reproduce", "fig2", "--config", str(small_config),
                 "--out", str(out)]) == 0
    rows = read_csv(out / "fig2.csv")
    assert rows[0] == ["tau_true", "gamma", "mean", "std"]
    for tau_true, gamma, mean, std in rows[1:]:
        if float(gamma) == 0.5 and float(tau_true) >= 0.2:
            assert abs(float(mean) - float(tau_true)) < 2.5 * float(std)


def test_reproduce_calibrates_on_reused_records(tmp_path):
    # with reuse_records the figure's own runs calibrate too, the call estimate
    # makes; fresh calibration runs would leave every mean as it was without the key
    means = {}
    for reuse in (False, True):
        config = tmp_path / f"{reuse}.json"
        config.write_text(json.dumps({"repetitions": 5,
                                      "calibration": {"reuse_records": reuse}}))
        out = tmp_path / f"fig2-{reuse}"
        assert main(["reproduce", "fig2", "--config", str(config), "--out", str(out)]) == 0
        means[reuse] = [row[2] for row in read_csv(out / "fig2.csv")[1:]]
    cfg = ExperimentConfig(gammas=(0.0, 0.25, 0.5), repetitions=5)
    records = montecarlo.run_experiment(cfg)
    result = pipeline.run_pipeline(cfg, records=records, calibration_records=records)
    assert means[True] == [fmt(s.mean) for s in result.stats]
    assert means[True] != means[False]


def replace_counts(path, count):
    rows = read_csv(path)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [row[:-1] + [count] for row in rows[1:]])


def test_overflowing_scan_objective_exits_4(tmp_path, capsys):
    # counts of 10**18 fit in int64 and load, but in units of the smallest
    # mean_total_detections the count scale allows, 1e-150, they are 1e168,
    # which would overflow when squared: rejected before the scan, without a
    # numpy warning
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL, "mean_total_detections": 1e-150}))
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
    replace_counts(sim / "records.csv", str(10**18))
    assert main(["estimate", str(sim / "records.csv"), "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tempres: ")
    assert "1e+168 in units of mean_total_detections" in err[0]
    assert "MAX_NORMALIZED_COUNT" in err[0]


@pytest.mark.filterwarnings("error")
def test_count_beyond_int64_exits_4_at_read_time(tmp_path, capsys, small_config):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(small_config), "--out", str(sim)]) == 0
    replace_counts(sim / "records.csv", str(10**200))
    assert main(["estimate", str(sim / "records.csv"), "--config", str(small_config),
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tempres: ")
    assert "malformed records file" in err[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["fisher"], ["simulate"], ["estimate", "records.csv"],
                                  ["reproduce", "fig2"]],
                         ids=["fisher", "simulate", "estimate", "reproduce"])
def test_overflowing_count_scale_exits_2(tmp_path, capsys, monkeypatch, argv):
    # with dark counts of 1 per projection, one count is 1e300 in units of
    # mean_total_detections, which overflows when squared
    def simulate(config):
        raise AssertionError("simulated past the count-scale limit")

    monkeypatch.setattr(montecarlo, "run_experiment", simulate)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mean_total_detections": 1e-300,
                                  "device": {"dark_rate": 1}}))
    assert main(argv + ["--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tempres: ")
    assert "MAX_COUNT_SCALE" in err[0]


@pytest.mark.filterwarnings("error")
def test_count_scale_limit_runs_clean_at_the_bound(tmp_path, capsys):
    limit = montecarlo.MAX_COUNT_SCALE
    for data in ({"mean_total_detections": 1 / limit},
                 {"mean_total_detections": 1e18 / limit, "device": {"dark_rate": 1e18}}):
        config_mod.from_dict(data)
    for data in ({"mean_total_detections": 0.5 / limit},
                 {"mean_total_detections": 1e-140, "device": {"dark_rate": 1e11}}):
        with pytest.raises(ConfigError, match="MAX_COUNT_SCALE"):
            config_mod.from_dict(data)
    # every count is a dark count of about 1e150 in units of mean_total_detections
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mean_total_detections": 1 / limit,
                                  "device": {"dark_rate": 1}, "repetitions": 3}))
    assert main(["reproduce", "fig2", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_drift_std_limit_runs_clean_at_the_bound(tmp_path, capsys):
    limit = montecarlo.MAX_DRIFT_STD
    config_mod.from_dict({"drift": {"std": limit}})
    with pytest.raises(ConfigError, match="MAX_DRIFT_STD"):
        config_mod.from_dict({"drift": {"std": limit * (1 + 2**-52)}})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"repetitions": 3, "drift": {"std": limit}}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_reproduce_unknown_figure(tmp_path, small_config):
    with pytest.raises(SystemExit):
        main(["reproduce", "fig9", "--config", str(small_config),
              "--out", str(tmp_path)])


# ------------------------------------------------------------- golden

TINY = {"tau_grid": [0.0, 0.25, 0.5, 0.75, 1.0], "gammas": [0.0, 0.5],
        "repetitions": 3, "master_seed": 7}


def output_digest(tmp_path, argv, data, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 0
    return hashlib.sha256((out / name).read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", [["fisher"], ["simulate"], ["estimate"],
                                  ["reproduce", "fig3", "--svg"]],
                         ids=["fisher", "simulate", "estimate", "reproduce"])
def test_manifest_digests_match_outputs(tmp_path, argv):
    if argv == ["estimate"]:
        sim = tmp_path / "sim"
        sim.mkdir()
        output_digest(sim, ["simulate"], TINY, "records.csv")
        argv = ["estimate", str(sim / "out" / "records.csv")]
    output_digest(tmp_path, argv, TINY, "manifest.json")
    out = tmp_path / "out"
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(o["path"] for o in outputs) == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json")
    for output in outputs:
        assert output["sha256"] == hashlib.sha256((out / output["path"]).read_bytes()).hexdigest()


# each test is named by its output file, so a re-pinned digest keeps the test's name
GOLDEN = [
    (["simulate"], "records.csv",
     "98495d996dc47280b9e9d61984adcaaa88fe7d803d572fd29fd3e129cad30e79"),
    # fig2-fig4 moved when mean_response came to be evaluated as one product
    # with the powers of tau instead of by Horner's rule: the pilot's weights,
    # and so tau_hat, round differently (by at most 3.3e-14 over 35,000 runs),
    # and 6, 8 and 3 printed values change in their last digits
    (["reproduce", "fig2"], "fig2.csv",
     "31c5443bb5e533297309f85deb67bf4db3af4e6ea520e6d712be3b143e0771b6"),
    # fisher_report.csv moved when intensity_fi came to sum one
    # cancellation-free integrand instead of integrating the incoherent density
    # on a grid with a probability floor: fi_int_incoh at tau = 0.25 and 1 now
    # equals the 40-digit value in all 12 printed digits (4 rows, last digits)
    (["fisher"], "fisher_report.csv",
     "01bf6d145a552ef802c5e07767d3f79bd6190f946b0c07faa435a0bfd0396757"),
    # fig3.csv and fig4.csv moved with it: intensity_crb at tau = 0.5 and 1
    # (2 rows each, last digit), now the 40-digit value rounded to 12 digits
    (["reproduce", "fig3"], "fig3.csv",
     "3df9681064705deb23f53e160a48bceba5b2f30881a0c23ebb129ed66359976f"),
    (["reproduce", "fig4"], "fig4.csv",
     "2957f970e7ae6a743ce7b7bee2c08951dadf25dd442a533319a156fe6936c674"),
    (["reproduce", "fig3", "--svg"], "fig3.svg",
     "bee5b377d297221319c88613f53680b8fb7b8cefc8c699b7f75d17fb832bc25c"),
]


@pytest.mark.parametrize("argv, name, sha256", GOLDEN, ids=[name for _, name, _ in GOLDEN])
def test_golden_output_digest(tmp_path, argv, name, sha256):
    # a changed digest means the sampling streams or the estimator arithmetic
    # moved: make that change on purpose and record the new digest with it
    assert output_digest(tmp_path, argv, TINY, name) == sha256


def test_golden_output_digest_drift_device(tmp_path):
    # drifted runs take the displaced-pulse projections instead of their offset-0 parity split
    data = {**TINY, "drift": {"std": 0.05},
            "device": {"crosstalk_eps": 0.02, "efficiency": 0.9, "dark_rate": 1.0}}
    assert (output_digest(tmp_path, ["simulate"], data, "records.csv")
            == "a2d059932ad987d3c59957c02cacc9888c73131a7e0664805097dda9bed897a6")


GOLDEN_ESTIMATE = [
    # both moved with mean_response's product form, as fig2-fig4 did: one
    # tau_hat and 16 stats values change in their last printed digits
    ("stats.csv", "1292c1a2edc942f89ccad7ee2d44b3d4209e9b9a662e3194256d2e45a75465d5"),
    ("estimates.csv", "66eaa75f7e903ef4206d429050b274afaaddb9c743e95cf7acf3710c188fb557"),
]


@pytest.mark.parametrize("name, sha256", GOLDEN_ESTIMATE,
                         ids=[name for name, _ in GOLDEN_ESTIMATE])
def test_golden_output_digest_estimate(tmp_path, name, sha256):
    # estimate on simulate's records: the read-back, calibration and GLS path
    sim = tmp_path / "sim"
    sim.mkdir()
    output_digest(sim, ["simulate"], TINY, "records.csv")
    records = sim / "out" / "records.csv"
    assert output_digest(tmp_path, ["estimate", str(records)], TINY, name) == sha256
