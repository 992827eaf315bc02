"""Study benchmark for tempres: the figure commands end to end, and per layer.

    python3 studybench/run.py --workload fig3_default --seed 1 --seconds 30 --trace 0

Run it from the root of a tempres checkout; it imports the package from
./src only, and fails without printing a result when ./src/tempres is not
there.  It writes its inputs and outputs under ./.studybench.

The seed makes the workload's inputs (workloads.py), which are set up
several times and timed as setup_s.  Then one fresh single-threaded child
(child.py) at a time runs the workload's command: at least MIN_EXECUTIONS,
and more while a typical execution still ends within --seconds.  Every
execution's outputs are checked, and repeats must be byte-identical.

With --trace 0 the report holds the end-to-end metrics; with --trace 1 every
other execution is traced (spans.py) and the report holds the per-layer
metrics.  The last line of standard output is one JSON object; the lines
above it give each metric by name with its unit, the spread of wall_s and
the environment.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import layer_metrics, per_layer_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = (5, 200)      # at least 5 set-ups, and more while under SETUP_BUDGET_S
SETUP_BUDGET_S = 0.5
MIN_EXECUTIONS = 3
CHILD_TIMEOUT_S = 90
END_TO_END_UNITS = {"wall_s": "s", "runs_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Execution:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    report: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    digest: str = ""
    problems: list = field(default_factory=list)


def child_env(root: Path):
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), TEMPRES_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def digest_files(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def execute(workload, argv, root: Path, directory: Path, traced: bool):
    """Run one child to completion and check what it wrote."""
    directory.mkdir(parents=True)
    out, report, spans = directory / "out", directory / "report.json", directory / "spans.json"
    command = [sys.executable, str(HERE / "child.py"), "--report", str(report)]
    command += ["--trace", str(spans)] if traced else []
    command += ["--", *argv, "--out", str(out)]
    result = Execution(traced)
    with open(directory / "stderr.txt", "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=root, env=child_env(root),
                                stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        result.wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result.cpu_s = usage.ru_utime + usage.ru_stime
    result.peak_rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        lines = (directory / "stderr.txt").read_text().strip().splitlines() or [""]
        result.problems.append(f"exit {proc.returncode}: {lines[-1]}")
        return result
    result.report = json.loads(report.read_text())
    imported_from = Path(result.report["env"]["tempres"])
    if imported_from != root / "src" / "tempres":
        result.problems.append(f"imported tempres from {imported_from}")
    missing = [name for name in workload.outputs if not (out / name).is_file()]
    if missing:
        result.problems.append(f"missing outputs {missing}")
        return result
    result.problems += workload.check(out)
    result.digest = digest_files(out / name for name in workload.outputs)
    if traced:
        trace = json.loads(spans.read_text())
        result.layers = layer_metrics(trace)
        result.absent = trace["absent"]
    shutil.rmtree(out)
    spans.unlink(missing_ok=True)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def run(workload, seed: int, seconds: float, trace: bool, root: Path, work: Path):
    """Set up, execute and check one workload; return the full result."""
    compileall.compile_dir(root / "src", quiet=1)   # bytecode cache, outside any timing
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    setup_times, input_digests = [], set()
    while (len(setup_times) < SETUP_REPEATS[0]
           or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_REPEATS[1])):
        start = time.perf_counter()
        argv = workload.setup(inputs, seed)
        setup_times.append(time.perf_counter() - start)
        input_digests.add(digest_files(sorted(inputs.iterdir())))
    problems = [] if len(input_digests) == 1 else ["set-ups from one seed made different inputs"]

    executions = []
    deadline = time.perf_counter() + seconds
    # start another execution only if a typical one still ends before the deadline
    while (len(executions) < MIN_EXECUTIONS or time.perf_counter()
           + statistics.median(e.wall_s for e in executions) < deadline):
        traced = trace and len(executions) % 2 == 1
        executions.append(execute(workload, argv, root, work / f"exec{len(executions)}",
                                  traced))
    reference = next((e.digest for e in executions if e.digest), "")
    for e in executions:
        if e.digest and e.digest != reference:
            e.problems.append("outputs differ from the first execution with the same seed")
    problems += [p for e in executions for p in e.problems]
    ok = [e for e in executions if not e.problems]
    plain = [e for e in ok if not e.traced]
    walls = [e.wall_s for e in plain]

    if trace:
        units = per_layer_units()
        traced_ok = [e for e in ok if e.traced]

        def whole(group):
            return median_or_zero([e.report["import_s"] + e.report["work_s"] for e in group])

        metrics = {name: median_or_zero([e.layers.get(name, 0) for e in traced_ok])
                   for name in units}
        metrics["import.tempres_s"] = median_or_zero([e.report["import_s"] for e in ok])
        metrics["trace.overhead_s"] = whole(traced_ok) - whole(plain)
    else:
        units = END_TO_END_UNITS
        metrics = {
            "wall_s": median_or_zero(walls),
            "runs_per_s": median_or_zero([workload.analysed_runs / e.report["work_s"]
                                          for e in plain]),
            "cpu_s": median_or_zero([e.cpu_s for e in plain]),
            "peak_rss_mb": median_or_zero([e.peak_rss_mb for e in plain]),
            "setup_s": statistics.median(setup_times),
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "env": {**(ok[0].report["env"] if ok else {}),
                "nproc": len(os.sched_getaffinity(0)), "seed": seed},
        "attempted": len(executions),
        "failed": sum(1 for e in executions if e.problems),
        "correct": not problems,
        "problems": problems,
        "absent": next((e.absent for e in ok if e.traced), []),
        "walls": walls,
        "setup_times": setup_times,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def describe(result):
    """Human-readable lines: environment, every metric with its unit, spread."""
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    lines = [f"studybench {result['workload']} trace={int(result['trace'])}", f"env: {env}"]
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    fail_ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_ratio':<{width}}  {fail_ratio:.6g} ratio "
                 f"({result['failed']}/{result['attempted']} executions)")
    walls = result["walls"]
    if walls and not result["trace"]:
        q1, q3 = quartiles(walls)
        tail_p = tail(walls)
        tail_text = (f"p{tail_p[0]} {tail_p[1]:.4f} s" if tail_p else
                     "no tail percentile: fewer than 10 samples above the median")
        lines.append(f"  wall_s quartiles {q1:.4f} / {q3:.4f} s, n={len(walls)}, {tail_text}")
    for layer, binding in result["absent"]:
        lines.append(f"  absent: {layer} ({binding} not found)")
    lines += [f"  problem: {p}" for p in result["problems"]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "tempres" / "__init__.py").is_file():
        print(f"studybench: {root} has no src/tempres; run from a tempres checkout",
              file=sys.stderr)
        return 2
    work = root / ".studybench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 root, work)
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(work / "inputs")
    print("\n".join(describe(result)))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
