"""Time the series I/O.

For each series length, reports the per-call wall time of loading a
power-mode CSV (`load_csv`), of loading the same series with `NA` in every
100th value (`load_csv(1% NA)`, whose rows with a marker go through the row
parser), of writing one (`save_csv`), and of writing the residuals.csv
artifact that `vrpcast train` writes.  Each time is the best
of --repeats calls, since the machine's speed drifts and drift only adds
time.  The files go to a temporary directory that is removed at the end.

Usage: PYTHONPATH=src python3 benchmarks/bench_io.py [--repeats 9] [--sizes 2000 5000 50000]
"""

import argparse
import os
import tempfile
import time
from datetime import datetime

from vrpcast import difference, generate_synthetic
from vrpcast.data_ingest import load_csv, save_csv, write_csv

SIZES = [2000, 5000, 50_000]


def best_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 2:
        parser.error("--repeats must be >= 1 and every size >= 2")
    with tempfile.TemporaryDirectory() as tmp:
        series_csv = os.path.join(tmp, "series.csv")
        gaps_csv = os.path.join(tmp, "gaps.csv")
        residuals_csv = os.path.join(tmp, "residuals.csv")
        for n in args.sizes:
            series = generate_synthetic({"kind": "persistence_bursts", "n": n}, 0)
            residuals = difference(series).residuals
            save_csv(series, series_csv)
            values = ["NA" if i % 100 == 0 else repr(v)
                      for i, v in enumerate(series.values.tolist())]
            write_csv(gaps_csv, ["timestamp", "vrp_watts"],
                      [map(datetime.isoformat, series.timestamps), values])
            t_load = best_call(lambda: load_csv(series_csv), args.repeats)
            t_gaps = best_call(lambda: load_csv(gaps_csv), args.repeats)
            t_save = best_call(lambda: save_csv(series, series_csv), args.repeats)
            t_resid = best_call(
                lambda: write_csv(residuals_csv, ["index", "residual_watts"],
                                  [range(residuals.size), residuals]),
                args.repeats)
            print(f"n={n:6d}  load_csv {t_load * 1e3:8.2f} ms  "
                  f"load_csv(1% NA) {t_gaps * 1e3:8.2f} ms  save_csv {t_save * 1e3:8.2f} ms  "
                  f"residuals.csv {t_resid * 1e3:8.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
