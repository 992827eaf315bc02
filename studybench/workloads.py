"""The three workloads of the study benchmark: their inputs and output checks.

Each workload turns a seed into a config file and an argv for one child
execution, and checks what that execution wrote.  Checks are statistical or
structural, never golden digests, so they survive a deliberate change of the
program's random streams; byte-identical repeats are checked by the runner.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TAU_GRID = tuple(i / 6.0 for i in range(7))      # the program's default grid
GAMMAS = (0.0, 0.125, 0.25, 0.375, 0.5)           # the program's default gammas
FIG2_GAMMAS = (0.0, 0.25, 0.5)                    # fixed by `reproduce fig2`
MEAN_DETECTIONS = 1e4                             # default mean_total_detections
RECORDED_MODES = 4
QCRB = 4.0                                        # 4 sigma_t^2 per detection, sigma_t = 1
BAND_SIGMAS = 5.0


def _read_rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(rows, columns):
    bad = [row for row in rows for c in columns if not math.isfinite(float(row[c]))]
    return [f"non-finite value in row {bad[0]}"] if bad else []


def crb_ratio_problem(variances, repetitions, label):
    """Pooled variance per detection over tau > 0 cells against 4 sigma_t^2.

    The band is BAND_SIGMAS standard errors of the mean of len(variances)
    independent sample variances of `repetitions` near-normal estimates, each
    with relative spread sqrt(2 / (repetitions - 1)).  A band per cell would
    trip by chance; the pooled ratio does not.
    """
    ratio = sum(variances) / len(variances) / QCRB
    half_width = BAND_SIGMAS * math.sqrt(2.0 / (repetitions - 1) / len(variances))
    if abs(ratio - 1.0) > half_width:
        return [f"{label}: pooled variance per detection / 4 sigma_t^2 = {ratio:.4f}, "
                f"outside 1 +/- {half_width:.4f} ({len(variances)} cells)"]
    return []


@dataclass(frozen=True)
class Figure:
    """`tempres reproduce <figure>` on a config file."""

    name: str
    why: str
    figure: str
    gammas: tuple
    repetitions: int
    overrides: dict = field(default_factory=dict)
    svg: bool = False

    @property
    def analysed_runs(self):
        return len(TAU_GRID) * len(self.gammas) * self.repetitions

    @property
    def outputs(self):
        return (f"{self.figure}.csv",) + ((f"{self.figure}.svg",) if self.svg else ())

    def setup(self, directory: Path, seed: int):
        """Write the config; return the command argv (output dir appended later)."""
        config = directory / "config.json"
        config.write_text(json.dumps({**self.overrides, "repetitions": self.repetitions}))
        return (["reproduce", self.figure] + (["--svg"] if self.svg else [])
                + ["--config", str(config), "--seed", str(seed)])

    def check(self, out: Path):
        rows = _read_rows(out / f"{self.figure}.csv")
        if self.figure == "fig2":
            expected = len(TAU_GRID) * len(self.gammas)
            problems = _finite(rows, ("mean", "std"))
        else:
            # one row per (gamma, tau) cell, 4 sigma^2 per tau, intensity CRB per tau > 0
            expected = len(TAU_GRID) * (len(self.gammas) + 2) - 1
            problems = _finite(rows, ("value",))
            cells = [float(r["value"]) for r in rows
                     if r["series"].startswith("gamma=") and float(r["tau"]) > 0]
            if cells and not problems:
                problems += crb_ratio_problem(cells, self.repetitions, self.figure)
        if len(rows) != expected:
            problems.append(f"{self.figure}.csv has {len(rows)} rows, expected {expected}")
        return problems


def closed_form_means(tau, gamma):
    """Mean counts of the recorded HG projections, ideal device, both channels.

    p_n(tau) = x^n e^-x / n!, x = tau^2 / 16 (sigma_t = 1); even n go to the
    symmetric channel and odd n to the antisymmetric one, then the two are
    mixed with weight gamma.
    """
    x = tau * tau / 16.0
    p = np.array([x**n * math.exp(-x) / math.factorial(n) for n in range(RECORDED_MODES)])
    even = np.arange(RECORDED_MODES) % 2 == 0
    sym, anti = np.where(even, p, 0.0), np.where(even, 0.0, p)
    return (MEAN_DETECTIONS * ((1.0 - gamma) * sym + gamma * anti),
            MEAN_DETECTIONS * (gamma * sym + (1.0 - gamma) * anti))


def write_records(path: Path, seed: int, repetitions: int):
    """A records.csv of the default grid with Poisson counts drawn from seed.

    Same header, row order and 12-significant-digit floats as
    `tempres simulate`, but the counts come from numpy here, so the input
    bytes do not depend on the simulator under test.
    """
    rng = np.random.default_rng(seed)
    lines = ["tau_true,gamma,run,channel,n,counts"]
    for tau in TAU_GRID:
        for gamma in GAMMAS:
            means = np.concatenate(closed_form_means(tau, gamma))
            counts = rng.poisson(means, size=(repetitions, 2 * RECORDED_MODES)).tolist()
            prefix = f"{tau:.12g},{gamma:.12g},"
            for run, row in enumerate(counts):
                head = f"{prefix}{run},"
                lines += [f"{head}s,{n},{c}" for n, c in enumerate(row[:RECORDED_MODES])]
                lines += [f"{head}a,{n},{c}" for n, c in enumerate(row[RECORDED_MODES:])]
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class EstimateReuse:
    """Estimation from a benchmark-made records file, calibrated on the same records.

    `tempres estimate` exits 4 on the default grid: `fmt` writes 12
    significant digits (1/6 -> 0.166666666667) and the grid check compares
    floats exactly.  So the child runs `cli.read_records` and
    `pipeline.run_pipeline` directly instead; a dyadic tau grid that happens
    to round-trip would hide the defect rather than measure the default study.
    """

    name: str
    why: str
    repetitions: int
    outputs: tuple = ("estimates.csv", "stats.csv")

    @property
    def analysed_runs(self):
        return len(TAU_GRID) * len(GAMMAS) * self.repetitions

    def setup(self, directory: Path, seed: int):
        config = directory / "config.json"
        config.write_text(json.dumps({"repetitions": self.repetitions,
                                      "calibration": {"reuse_records": True}}))
        records = directory / "records.csv"
        write_records(records, seed, self.repetitions)
        return ["estimate-reuse", str(records), "--config", str(config),
                "--seed", str(seed)]

    def check(self, out: Path):
        estimates = _read_rows(out / "estimates.csv")
        stats = _read_rows(out / "stats.csv")
        problems = _finite(estimates, ("tau_hat",))
        if len(estimates) != self.analysed_runs:
            problems.append(f"estimates.csv has {len(estimates)} rows, "
                            f"expected {self.analysed_runs}")
        cells = len(TAU_GRID) * len(GAMMAS)
        if len(stats) != cells:
            problems.append(f"stats.csv has {len(stats)} rows, expected {cells}")
        return problems


WORKLOADS = {w.name: w for w in (
    Figure("fig3_default",
           "reproduce fig3 --svg on the default grid: 7000 simulated runs, 3500 "
           "estimates; simulation dominates, so sampling changes show here",
           figure="fig3", gammas=GAMMAS, repetitions=100, svg=True),
    EstimateReuse("estimate_reuse",
                  "read_records and run_pipeline on 35000 benchmark-made runs; "
                  "no simulation, so CSV parsing and the GLS scans dominate",
                  repetitions=1000),
    Figure("drift_device",
           "reproduce fig2 with drift and an imperfect device: 90% of 2100 runs "
           "take the per-run quadrature path instead of the closed form",
           figure="fig2", gammas=FIG2_GAMMAS, repetitions=50,
           overrides={"device": {"crosstalk_eps": 0.02, "efficiency": 0.9,
                                 "dark_rate": 1.0},
                      "drift": {"std": 0.05, "recenter_period": 10}}),
)}
