"""One execution of a workload: time `import tempres`, run one command, report.

    python3 studybench/child.py --report FILE [--trace FILE] -- COMMAND...

COMMAND is either a `tempres` CLI argv (`reproduce fig3 --svg --config c.json
--seed 1 --out d`) or `estimate-reuse RECORDS --config C --seed N --out D`,
which runs the body of `tempres estimate` on a records file without its grid
check (see workloads.EstimateReuse for why).  The report holds the import
and command times and the versions the command ran against; with --trace,
every layer listed in spans.LAYERS is wrapped and its spans are dumped.
"""

import argparse
import csv
import json
import platform
import sys
import time
from dataclasses import replace
from importlib import metadata
from pathlib import Path


def estimate_reuse(argv, cli, config, pipeline):
    parser = argparse.ArgumentParser(prog="estimate-reuse")
    parser.add_argument("records")
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    run = config.load(args.config)
    experiment = replace(run.experiment, master_seed=args.seed)
    records = cli.read_records(args.records)
    result = pipeline.run_pipeline(experiment, records=records,
                                   calibration_records=records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "estimates.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tau_true", "gamma", "run", "tau_hat"])
        writer.writerows([r.tau_true, r.gamma, r.run_index, repr(gls.tau_hat)]
                         for r, gls in result.estimates)
    with open(out / "stats.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tau_true", "gamma", "n_runs", "mean", "variance",
                         "variance_per_detection"])
        writer.writerows([s.tau_true, s.gamma, s.n_runs, repr(s.mean),
                          repr(s.variance), repr(s.variance_per_detection)]
                         for s in result.stats)
    return 0


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import_start = time.perf_counter()
    import tempres
    from tempres import cli, config, pipeline
    imported = time.perf_counter()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    work_start = time.perf_counter()
    if command[:1] == ["estimate-reuse"]:
        code = estimate_reuse(command[1:], cli, config, pipeline)
    else:
        code = cli.main(command)
    end = time.perf_counter()

    if tracer is not None:
        tracer.dump(args.trace)
    kernels = sys.modules.get("tempres.kernels")
    report = {
        "exit": code,
        "import_s": imported - import_start,
        "work_s": end - work_start,
        "env": {
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "backend": getattr(kernels, "BACKEND", "absent"),
            "tempres": str(Path(tempres.__file__).parent),
        },
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
