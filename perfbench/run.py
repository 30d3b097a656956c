"""End-to-end benchmark of the vrpcast CLI.

Runs one workload's CLI calls in-process through `vrpcast.cli.main`, CSV in
and artifacts out, in whole rounds for as long as another round is expected
to end within --seconds, checks every output (checks.py), and prints each
metric with its unit, then one JSON object as the last line of standard
output.  With --trace 1 the layers
are traced (tracing.py) and the per-layer metrics are printed instead of the
end-to-end ones.  Run it from the root of a checkout:

    python3 perfbench/run.py --workload grid_search --seed 1 --seconds 30 --trace 0
"""

import os

# One BLAS thread: on two cores, two OpenBLAS threads spend more CPU for no
# less wall time (README.md).  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

SETUP_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "test_mse_ratio": "ratio"}


def time_setup(root, workload, seed, input_dir):
    """Wall time of a fresh interpreter that imports the package and writes
    the workload's inputs: the set-up a user pays before the first call."""
    script = os.path.join(root, "perfbench", "workloads.py")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, script, "--workload", workload.name, "--seed", str(seed),
                    "--dir", input_dir], cwd=root, check=True, timeout=150)
    return time.perf_counter() - t0


def check_op(kind, workload, series, run_dir, paths, values):
    """Check one call's artifacts; returns the test-MSE ratio or None."""
    if kind == "compare":
        return checks.check_compare(run_dir, values[series], workload.lag,
                                    int(workload.hidden), workloads.MAX_EPOCHS,
                                    workloads.TRAIN_FRACTION)
    if kind == "evaluate":
        checks.check_evaluate(run_dir, os.path.join(os.path.dirname(run_dir), "model.json"),
                              values[paths["eval"]])
        return None
    model = checks.check_model(run_dir, values[series])
    checks.check_kpss(run_dir, values[series])
    if workload.lag is None:
        checks.check_entropy_profile(run_dir, values[series], model["lag"], workloads.MAX_LAG,
                                     workloads.BINS, workloads.TRAIN_FRACTION)
    if ":" in workload.hidden:
        lo, hi = (int(v) for v in workload.hidden.split(":"))
        checks.check_grid(run_dir, lo, hi, model["hidden"])
        print(f"  {os.path.basename(series)}: selected lag {model['lag']}, hidden {model['hidden']}")
    return model["ratio"]


def run_round(cli, workload, ops, paths, values):
    """One pass over the workload's calls.  Returns each call's wall time,
    the test-MSE ratios, and the counts of failed calls."""
    times = []
    ratios = []
    failed = unexpected = 0
    for kind, index, argv, run_dir in ops:
        shutil.rmtree(run_dir, ignore_errors=True)
        series = paths["series"][index]
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception as exc:  # a raising call is a failed operation
            code = f"raised {exc!r}"
        times.append(time.perf_counter() - t0)
        try:
            if code != 0:
                raise checks.CheckError(f"exit {code}: {out.getvalue()[-300:]}")
            ratio = check_op(kind, workload, series, run_dir, paths, values)
        except checks.KnownFault:
            failed += 1
            continue
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            print(f"  FAILED {kind} {os.path.basename(series)}: {exc}")
            failed += 1
            unexpected += 1
            continue
        if ratio is not None:
            ratios.append(ratio)
    return times, ratios, failed, unexpected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vrpcast", "cli.py")):
        print(f"error: {root} is not a vrpcast checkout (no src/vrpcast)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, "perfbench", "_work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    input_dir = os.path.join(work, "inputs")
    setup = [time_setup(root, workload, args.seed, input_dir) for _ in range(SETUP_REPEATS)]

    from vrpcast import cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    paths = workloads.input_paths(workload, input_dir)
    ops = workloads.operations(workload, paths, os.path.join(work, "out"))
    values = {p: checks.read_values(p) for p in paths["series"] + [paths["eval"]] if p}

    rounds = []
    t_start = time.perf_counter()
    while True:
        first = len(tracer.spans) if tracer else 0
        times, ratios, failed, unexpected = run_round(cli, workload, ops, paths, values)
        layers = tracer.metrics(first, len(tracer.spans)) if tracer else None
        rounds.append((times, ratios, failed, unexpected, layers))
        print(f"round {len(rounds)}: {len(ops)} calls, {failed} failed, wall {sum(times):.3f} s")
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    if tracer:
        tracer.write(os.path.join(work, "spans.csv"))

    attempted = len(ops) * len(rounds)
    failed = sum(r[2] for r in rounds)
    correct = all(r[3] == 0 for r in rounds)
    if args.trace:
        metrics = {name: (statistics.median(r[4][name] for r in rounds), unit)
                   for name, unit in tracing.UNITS.items()}
    else:
        ratios = rounds[0][1]   # the same in every round
        metrics = {
            # each call's fastest round: the machine's speed drifts by tens of
            # percent over seconds (README.md), and drift only adds time
            "wall_s": sum(min(call) for call in zip(*(r[0] for r in rounds))),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_mse_ratio": statistics.median(ratios) if ratios else float("nan"),
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
