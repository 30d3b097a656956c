"""Workload definitions and input generation for the vrpcast benchmark.

Each workload is a list of CLI calls over K synthetic `persistence_bursts`
series whose generator seeds are derived from the benchmark's --seed, so
the same seed always gives the same CSV files.  One round runs every call
once; a run repeats whole rounds.

Run as a script, this module is the benchmark's set-up step: it imports the
package, generates the workload's series and writes their CSV files and the
shared config file.  `run.py` times it in fresh interpreters.

    python3 perfbench/workloads.py --workload grid_search --seed 1 --dir DIR
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

KIND = "persistence_bursts"
# Every workload caps training at 50 epochs (through the CLI's --config).
# At the default 1000, whether a BRNN fit converges in tens of epochs or runs
# to the cap is chaotic in the series: one 20 000-point fit took 0.5 s on one
# seed and 67 s on the next, so no run that fits in a minute averages enough
# series to give a wall time that holds from seed to seed.  With the cap,
# about half the BRNN fits still stop at it, so the stopping fault keeps
# dominating the time (see trainers.max_epoch_stops).
MAX_EPOCHS = 50
MAX_LAG = 12
BINS = 16
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    n_series: int        # K series per round
    n_points: int        # length of each series
    hidden: str          # --hidden argument
    lag: int | None      # --lag argument, None = entropy selection
    command: str         # "train" or "compare"
    evaluate: bool       # also evaluate each model on a second series


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_search", 40, 2000, "2:10", None, "train", False),
        Workload("long_series", 2, 50000, "9", None, "train", True),
        Workload("compare_algos", 8, 5000, "9", 6, "compare", False),
    )
}


def series_seed(seed: int, index: int) -> int:
    """Generator seed of series `index` of a run with benchmark seed `seed`."""
    return seed * 1000 + index


def eval_series_seed(seed: int) -> int:
    """Generator seed of the evaluation series; never equal to a training seed."""
    return seed * 1000 + 999


def input_paths(workload: Workload, input_dir: str):
    series = [os.path.join(input_dir, f"series_{i:02d}.csv") for i in range(workload.n_series)]
    return {
        "series": series,
        "eval": os.path.join(input_dir, "eval_series.csv") if workload.evaluate else None,
        "config": os.path.join(input_dir, "config.json"),
    }


def write_inputs(workload: Workload, seed: int, input_dir: str) -> None:
    """Generate the workload's series from `seed` and write them as CSV."""
    from vrpcast.data_ingest import generate_synthetic, save_csv

    os.makedirs(input_dir, exist_ok=True)
    paths = input_paths(workload, input_dir)
    spec = {"kind": KIND, "n": workload.n_points}
    for i, path in enumerate(paths["series"]):
        save_csv(generate_synthetic(spec, series_seed(seed, i)), path)
    if paths["eval"]:
        save_csv(generate_synthetic(spec, eval_series_seed(seed)), paths["eval"])
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump({"max_epochs": MAX_EPOCHS}, fh)


def operations(workload: Workload, paths: dict, out_dir: str):
    """The round's CLI calls as (kind, series index, argv, output dir)."""
    ops = []
    for i, series in enumerate(paths["series"]):
        run_dir = os.path.join(out_dir, f"run_{i:02d}")
        argv = [workload.command, "--input", series, "--hidden", workload.hidden,
                "--config", paths["config"], "--out", run_dir]
        if workload.lag is not None:
            argv += ["--lag", str(workload.lag)]
        ops.append((workload.command, i, argv, run_dir))
        if workload.evaluate:
            eval_dir = os.path.join(run_dir, "eval")
            argv = ["evaluate", "--model", os.path.join(run_dir, "model.json"),
                    "--input", paths["eval"], "--out", eval_dir]
            ops.append(("evaluate", i, argv, eval_dir))
    return ops


def main(argv=None):
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    import vrpcast.cli  # noqa: F401  (the import is part of set-up)
    write_inputs(WORKLOADS[args.workload], args.seed, args.dir)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    main()
