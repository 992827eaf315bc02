"""Command-line front end: fisher / simulate / estimate / reproduce.

Every command reads an optional JSON config, writes CSV into --out, and drops
a manifest.json with the echoed config, seed and SHA-256 digests of every
output, which is enough to reproduce each file bit for bit.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 data mismatch.
"""

import argparse
import csv
import hashlib
import json
import re
import sys
import warnings
from collections import Counter
from dataclasses import astuple, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import config as config_mod
from . import estimator as est
from . import montecarlo as mc
from . import pipeline, svgplot
from .config import ConfigError
from .information import fisher_report
from .montecarlo import N_RECORDED, DetectionRecord

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MISMATCH = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def fmt(value) -> str:
    """12 significant digits; empty cell for missing values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _load_config(path, seed=None) -> config_mod.RunConfig:
    try:
        run = config_mod.load(path)
    except ConfigError as exc:
        raise CliError(EXIT_CONFIG, str(exc)) from exc
    except OSError as exc:
        raise CliError(EXIT_IO, f"{path}: cannot read config: {exc}") from exc
    if seed is not None:
        try:
            experiment = replace(run.experiment, master_seed=seed)
        except ValueError as exc:
            raise CliError(EXIT_CONFIG, f"--seed: {exc}") from exc
        run = replace(run, experiment=experiment, raw={**run.raw, "master_seed": seed})
    # the output files hold grid values as fmt() text, so two values that print
    # alike would write one (tau, gamma) key for two cells
    for key in ("tau_grid", "gammas"):
        printed = {}
        for value in getattr(run.experiment, key):
            other = printed.setdefault(fmt(value), value)
            if other != value:
                raise CliError(EXIT_CONFIG,
                               f"{key} values {other!r} and {value!r} both print as "
                               f"{fmt(value)}: the output files could not tell them apart")
    return run


def _load_calibrated_config(args) -> config_mod.RunConfig:
    """The config of a command that estimates: enough distinct taus, none past the scan."""
    run = _load_config(args.config, args.seed)
    taus = len(run.experiment.tau_grid)
    if taus <= est.POLY_DEGREE:
        raise CliError(EXIT_CONFIG,
                       f"tau_grid needs more than {est.POLY_DEGREE} distinct values "
                       f"for the degree-{est.POLY_DEGREE} calibration, got {taus}")
    beyond = [t for t in run.experiment.tau_grid if t > est.SCAN_TAU_MAX]
    if beyond:
        raise CliError(EXIT_CONFIG, f"tau_grid value {beyond[0]:g} lies past SCAN_TAU_MAX = "
                                    f"{est.SCAN_TAU_MAX:g}, where the GLS scan ends: its "
                                    f"estimates would all read {est.SCAN_TAU_MAX:g}")
    return run


def _write_csv(path: Path, header, rows):
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(v) for v in row])
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _write_manifest(out_dir: Path, run: config_mod.RunConfig, outputs):
    digests = []
    for name in outputs:
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        digests.append({"path": name, "sha256": digest})
    manifest = {
        "tool_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "master_seed": run.experiment.master_seed,
        "config": run.raw,
        "outputs": digests,
    }
    try:
        with open(out_dir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write manifest: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot create output directory {out}: {exc}") from exc
    return out


# ---------------------------------------------------------------- commands

def cmd_fisher(args):
    run = _load_config(args.config, args.seed)
    cfg = run.experiment
    out = _out_dir(args)
    # FisherReport's fields are in the column order
    _write_csv(out / "fisher_report.csv",
               ["tau", "gamma", "fi_s", "fi_a", "fi_total", "qfi",
                "fi_int_s", "fi_int_a", "fi_int_incoh", "crb_per_event"],
               (astuple(fisher_report(tau, gamma))
                for tau in cfg.tau_grid for gamma in cfg.gammas))
    _write_manifest(out, run, ["fisher_report.csv"])
    return 0


RECORDS_HEADER = ["tau_true", "gamma", "run", "channel", "n", "counts"]


def _records_rows(records):
    for r in records:
        for channel, counts in (("s", r.counts_s), ("a", r.counts_a)):
            for n, c in enumerate(counts):
                yield [r.tau_true, r.gamma, r.run_index, channel, n, c]


def cmd_simulate(args):
    run = _load_config(args.config, args.seed)
    out = _out_dir(args)
    records = mc.run_experiment(run.experiment)
    _write_csv(out / "records.csv", RECORDS_HEADER, _records_rows(records))
    _write_manifest(out, run, ["records.csv"])
    return 0


# records.csv columns as read: int64 counts, so a count must fit in 63 bits
RECORDS_DTYPE = np.dtype([("tau", "f8"), ("gamma", "f8"), ("run", "i4"),
                          ("channel", "S2"), ("n", "i1"), ("count", "i8")])


def _load_rows(lines):
    return np.loadtxt(lines, dtype=RECORDS_DTYPE, delimiter=",", comments=None,
                      quotechar='"', ndmin=1)


def _read_table(path):
    """Every data row of a records.csv as one table, after checking its header.

    Blank lines are skipped and fields may be quoted.  A row without exactly
    six fields, or a value its column cannot hold, is a mismatch, reported
    with its line in the file.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            header = next(csv.reader([fh.readline()]), None)
            if header != RECORDS_HEADER:
                raise CliError(EXIT_MISMATCH, f"{path}: unexpected header {header}")
            # numpy before 2.4 reads 2.5 or 1e3 as an integer after this warning
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                return _load_rows(fh)
            except (ValueError, DeprecationWarning) as exc:
                # numpy's "at row N" counts neither the header nor blank lines,
                # from 0 or from 1 by the kind of error: find the line that fails alone
                fh.seek(0)
                fh.readline()
                for number, line in enumerate(fh, start=2):
                    try:
                        _load_rows([line])
                    except (ValueError, DeprecationWarning) as line_exc:
                        message = re.sub(r" at row [0-9]+", "", str(line_exc))
                        raise CliError(EXIT_MISMATCH, f"{path}:{number}: malformed "
                                                      f"records file: {message}") from exc
                raise
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except (ValueError, DeprecationWarning, csv.Error) as exc:
        raise CliError(EXIT_MISMATCH, f"{path}: malformed records file: {exc}") from exc


def _cell_text(table, row):
    return f"tau={table['tau'][row]}, gamma={table['gamma'][row]}, run={table['run'][row]}"


def _cell_counts(table, path):
    """Each (tau, gamma, run) cell's key columns and its (cells, 8) counts, in key order.

    Checks every row's channel, n and count, then that each cell has exactly
    one row per (channel, n); rows may come in any order.
    """
    channel = table["channel"]
    antisymmetric = channel == b"a"
    problems = (
        ("channel", ~(antisymmetric | (channel == b"s")), "is neither s nor a"),
        ("n", (table["n"] < 0) | (table["n"] >= N_RECORDED),
         f"is outside 0..{N_RECORDED - 1}"),
        ("count", table["count"] < 0, "is negative"))
    for column, bad, why in problems:
        if bad.any():
            row = int(bad.argmax())
            value = table[column][row]
            value = value.decode("latin-1") if column == "channel" else int(value)
            raise CliError(EXIT_MISMATCH, f"{path}: {_cell_text(table, row)}: "
                                          f"{column} {value!r} {why}")

    # a stable sort, so each cell keeps its rows in file order
    order = np.lexsort((table["run"], table["gamma"], table["tau"]))
    table = table[order]
    starts = np.ones(len(table), dtype=bool)
    starts[1:] = np.logical_or.reduce([table[key][1:] != table[key][:-1]
                                       for key in ("tau", "gamma", "run")])
    first = np.flatnonzero(starts)
    slot = ((np.cumsum(starts) - 1) * (2 * N_RECORDED)
            + N_RECORDED * antisymmetric[order] + table["n"])
    filled = np.bincount(slot, minlength=len(first) * 2 * N_RECORDED)
    if (filled > 1).any():
        row = int((filled[slot] > 1).argmax())
        raise CliError(EXIT_MISMATCH,
                       f"{path}: repeated row for {_cell_text(table, row)}, "
                       f"channel={table['channel'][row].decode()}, n={table['n'][row]}")
    complete = filled.reshape(-1, 2 * N_RECORDED).all(axis=1)
    if not complete.all():
        row = first[int(complete.argmin())]
        raise CliError(EXIT_MISMATCH,
                       f"{path}: incomplete counts for {_cell_text(table, row)}")

    counts = np.empty((len(first), 2 * N_RECORDED), dtype=np.int64)
    counts.reshape(-1)[slot] = table["count"]
    return [table[key][first].tolist() for key in ("tau", "gamma", "run")], counts


def read_records(path):
    """Parse a records.csv back into DetectionRecord objects, ordered by cell.

    The rows are parsed by one np.loadtxt call into typed columns and
    checked as arrays: channel s or a, n in 0..3, counts nonnegative
    integers that fit in int64, and exactly one row per (channel, n) in each
    (tau, gamma, run) cell, in any row order.  Any violation exits 4 with one
    message, which names the file line of a row that does not parse.
    """
    keys, counts = _cell_counts(_read_table(path), path)
    # one column list per count, not one list per cell: the cells' count
    # tuples are sliced straight from each zipped row
    rows = zip(*keys, *counts.T.tolist())
    return [DetectionRecord(*row[:3], row[3:3 + N_RECORDED], row[3 + N_RECORDED:])
            for row in rows]


def _match_grid(records, cfg: mc.ExperimentConfig, path):
    """The records with their grid values replaced by the config's own.

    records.csv holds each tau and gamma as fmt() text, which rounds values
    such as 1/6, so cells are matched in that form.  Every (tau, gamma) cell
    must hold cfg.repetitions runs, and every count, in units of
    mean_total_detections, must stay within MAX_NORMALIZED_COUNT, past which
    the GLS scan objective overflows.
    """
    grid = {(fmt(t), fmt(g)): (t, g) for t in cfg.tau_grid for g in cfg.gammas}
    runs = Counter((fmt(r.tau_true), fmt(r.gamma)) for r in records)
    if runs.keys() != grid.keys():
        raise CliError(EXIT_MISMATCH,
                       f"{path}: records grid does not match config "
                       f"(records: {len(runs)} cells, config: {len(grid)})")
    for tau, gamma in grid:
        if runs[tau, gamma] != cfg.repetitions:
            raise CliError(EXIT_MISMATCH,
                           f"{path}: {runs[tau, gamma]} runs in cell tau={tau}, "
                           f"gamma={gamma}, config expects {cfg.repetitions}")
    limit = mc.MAX_NORMALIZED_COUNT * cfg.mean_total_detections
    for r in records:
        largest = max(r.counts_s + r.counts_a)
        if largest > limit:
            raise CliError(EXIT_MISMATCH,
                           f"{path}: tau={r.tau_true}, gamma={r.gamma}, run={r.run_index}: "
                           f"count {largest} is {largest / cfg.mean_total_detections:g} in "
                           f"units of mean_total_detections, above MAX_NORMALIZED_COUNT = "
                           f"{mc.MAX_NORMALIZED_COUNT:g}, where the GLS scan objective "
                           f"overflows")
    matched = []
    for r in records:
        tau, gamma = grid[fmt(r.tau_true), fmt(r.gamma)]
        matched.append(replace(r, tau_true=tau, gamma=gamma))
    return matched


def _run_pipeline(cfg: mc.ExperimentConfig, **kwargs):
    """pipeline.run_pipeline, with an estimate that fails as a data mismatch."""
    try:
        return pipeline.run_pipeline(cfg, **kwargs)
    except est.EstimationError as exc:
        raise CliError(EXIT_MISMATCH, str(exc)) from exc


STATS_HEADER = [field.name for field in fields(est.EstimateStats)]


def cmd_estimate(args):
    run = _load_calibrated_config(args)
    cfg = run.experiment
    out = _out_dir(args)
    records = _match_grid(read_records(args.records), cfg, args.records)

    result = _run_pipeline(
        cfg, records=records,
        calibration_records=records if run.reuse_records_for_calibration else None,
        calibration_repetitions=run.calibration_repetitions)
    _write_csv(out / "estimates.csv",
               ["tau_true", "gamma", "run", "tau_hat"],
               ([r.tau_true, r.gamma, r.run_index, gls.tau_hat]
                for r, gls in result.estimates))
    _write_csv(out / "stats.csv", STATS_HEADER, map(astuple, result.stats))
    _write_manifest(out, run, ["estimates.csv", "stats.csv"])
    return 0


# ------------------------------------------------------------- reproduce

def _bound_series(cfg: mc.ExperimentConfig):
    """Quantum CRB and incoherent intensity-only CRB per detection vs tau."""
    # imported at call time, so a wrapper set on information.intensity_fi
    # after import (a profiler's) sees these calls too
    from .information import QFI, intensity_fi

    int_crb = []
    for tau in cfg.tau_grid:
        if tau <= 0:
            continue   # Rayleigh's curse: bound diverges at tau = 0
        fi = intensity_fi(tau)
        if fi > 0:
            int_crb.append((tau, 1.0 / fi))
    return {"qcrb": [(tau, 1.0 / QFI) for tau in cfg.tau_grid],
            "intensity_crb": int_crb}


def _figure_pipeline(run: config_mod.RunConfig, gammas):
    """The figure's config and pipeline result; reused records also calibrate."""
    cfg = replace(run.experiment, gammas=tuple(gammas))
    records = mc.run_experiment(cfg) if run.reuse_records_for_calibration else None
    return cfg, _run_pipeline(cfg, records=records, calibration_records=records,
                              calibration_repetitions=run.calibration_repetitions)


def cmd_reproduce(args):
    run = _load_calibrated_config(args)
    out = _out_dir(args)
    figure = args.figure

    if figure == "fig2":
        cfg, result = _figure_pipeline(run, (0.0, 0.25, 0.5))
        rows = [[s.tau_true, s.gamma, s.mean,
                 None if s.variance is None else s.variance**0.5]
                for s in result.stats]
        _write_csv(out / "fig2.csv", ["tau_true", "gamma", "mean", "std"], rows)
        series = {f"gamma={gamma:g}": [(s.tau_true, s.mean) for s in result.stats
                                       if s.gamma == gamma]
                  for gamma in cfg.gammas}
        series["truth"] = list(zip(cfg.tau_grid, cfg.tau_grid))
        svg_args = dict(title="Estimated vs true separation",
                        xlabel="true tau / sigma_t", ylabel="mean estimate")
    else:
        if figure == "fig3":
            cfg, result = _figure_pipeline(run, (0.5, 0.375, 0.25, 0.125, 0.0))
            series = {f"gamma={gamma:g}": [(s.tau_true, s.variance_per_detection)
                                           for s in result.stats if s.gamma == gamma
                                           and s.variance_per_detection is not None]
                      for gamma in cfg.gammas}
            title = "Estimator variance per detection"
        else:
            cfg, result = _figure_pipeline(run, (0.0,))
            measured = [s for s in result.stats if s.variance is not None]
            per_a = []
            for s in measured:
                _, n_a = est.expected_detections(cfg, s.tau_true, s.gamma)
                if n_a > 0:
                    per_a.append((s.tau_true, s.variance * n_a))
            series = {"per_total_detection": [(s.tau_true, s.variance_per_detection)
                                              for s in measured],
                      "per_a_detection": per_a}
            title = "Coherent estimation error per detection"
        series.update(_bound_series(cfg))
        _write_csv(out / f"{figure}.csv", ["series", "tau", "value"],
                   ([name, tau, v] for name, pts in series.items() for tau, v in pts))
        svg_args = dict(title=title, xlabel="tau / sigma_t",
                        ylabel="variance per detection", ylog=True)

    outputs = [f"{figure}.csv"]
    if args.svg:
        try:
            svgplot.write_svg(out / f"{figure}.svg", series, **svg_args)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write SVG: {exc}") from exc
        outputs.append(f"{figure}.svg")
    _write_manifest(out, run, outputs)
    return 0


# ------------------------------------------------------------------ main

def build_parser():
    parser = argparse.ArgumentParser(
        prog="tempres",
        description="Temporal two-pulse separation estimation: Fisher bounds, "
                    "Monte Carlo photon counting and constrained GLS estimation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults when omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("fisher", help="Fisher information and CRB table")
    common(p)
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("simulate", help="Monte Carlo detection records")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="calibrate and estimate from records")
    p.add_argument("records", help="records.csv produced by 'simulate'")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("reproduce", help="figure-ready CSV (and optional SVG)")
    p.add_argument("figure", choices=["fig2", "fig3", "fig4"])
    common(p)
    p.add_argument("--svg", action="store_true", help="also render an SVG plot")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"tempres: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
