"""Command-line front end. Thin wrappers over the library; no numeric
logic lives here.

Exit codes: 0 success, 1 usage error, 2 data or numeric failure.
"""

import argparse
import logging
import os
import sys

from . import pipeline, trainers
from .data_ingest import (MODES, SYNTHETIC_KINDS, SYNTHETIC_SPEC_TYPES, check_json,
                          generate_synthetic, read_json, save_csv)
from .errors import VrpcastError
from .stat_tests import ErrorStats


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_hidden(text):
    """Single size '9' or inclusive range '2:25'."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    return int(text)


def _build_parser():
    parser = _Parser(prog="vrpcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_common(p, *, training=False):
        p.add_argument("--input", dest="input_path", help="input CSV path")
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        if training:
            p.add_argument("--lag", type=int, help="lag window p (default: entropy-selected)")
            p.add_argument("--bins", type=int)
            p.add_argument("--hidden", type=_parse_hidden,
                           help="hidden size, or a:b range for grid search")
            p.add_argument("--algo", dest="algorithm", choices=trainers.ALGORITHMS)
            p.add_argument("--train-fraction", type=float, default=None)
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("ingest", help="load and clean a CSV series")
    add_common(p)

    p = sub.add_parser("stationarity", help="KPSS on the raw and differenced series")
    add_common(p)

    p = sub.add_parser("lags", help="entropy profile and selected lag")
    add_common(p)
    p.add_argument("--bins", type=int)
    p.add_argument("--max-lag", type=int)

    p = sub.add_parser("train", help="run the pipeline with one algorithm")
    add_common(p, training=True)

    p = sub.add_parser("forecast", help="iterated multi-step forecast from a saved model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--input", help="optional CSV to refresh the forecast window")
    p.add_argument("--mode", choices=MODES, default="power")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("evaluate", help="evaluate a saved model on a series")
    p.add_argument("--model", required=True)
    add_common(p)

    p = sub.add_parser("compare", help="run LM, SCG and BRNN on identical patterns")
    add_common(p, training=True)

    p = sub.add_parser("synth", help="write a deterministic synthetic series")
    p.add_argument("--kind", choices=SYNTHETIC_KINDS, default="persistence_bursts")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", help="JSON file with the full generator spec")
    p.add_argument("--out", required=True, help="output CSV path")

    return parser


def _pipeline_config(args):
    payload = read_json(args.config) if args.config else {}
    for key in pipeline.PipelineConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            payload[key] = value
    cfg = pipeline.PipelineConfig.from_dict(payload)
    if cfg.input_path is None:
        print("error: --input (or --config with input_path) is required", file=sys.stderr)
        raise SystemExit(1)
    return cfg


def _test_stats_line(stats: ErrorStats) -> str:
    return (f"test ME {stats.mean_error:.6g} W, MSE {stats.mean_squared_error:.6g} W^2, "
            f"R^2 {stats.r_squared if stats.r_squared is not None else 'undefined'}")


def _cmd_ingest(args):
    cfg = _pipeline_config(args)
    series = pipeline.load_series(cfg)
    print(f"loaded {len(series)} usable observations "
          f"({series.timestamps[0].isoformat()} .. {series.timestamps[-1].isoformat()})")
    if cfg.out_dir:
        print(f"wrote {pipeline.write_series(cfg.out_dir, series)}")


def _cmd_stationarity(args):
    cfg = _pipeline_config(args)
    _, raw, resid = pipeline.stationarity(pipeline.load_series(cfg))
    for name, result in (("raw", raw), ("differenced", resid)):
        verdict = "reject stationarity" if result.reject_at_5pct else "stationary (fail to reject)"
        print(f"{name}: KPSS statistic {result.statistic:.4f} "
              f"(truncation lag {result.truncation_lag}) -> {verdict} at 5%")
    if cfg.out_dir:
        print(f"wrote {pipeline.write_kpss(cfg.out_dir, raw, resid)}")


def _cmd_lags(args):
    cfg = _pipeline_config(args)
    diff, _, _ = pipeline.stationarity(pipeline.load_series(cfg))
    profile = pipeline.select_lag(diff, cfg)
    for lag, delta in zip(profile.lags, profile.delta):
        print(f"lag {lag:3d}  delta {delta:.6f}")
    print(f"selected lag: {profile.selected_lag}")
    if cfg.out_dir:
        print(f"wrote {pipeline.write_entropy_profile(cfg.out_dir, profile)}")


def _cmd_train(args):
    cfg = _pipeline_config(args)
    model, report, provenance = pipeline.run_pipeline(cfg)
    print(f"algorithm {provenance['algorithm']}, lag {provenance['lag']}, "
          f"hidden {provenance['hidden']}, epochs {provenance['epochs_used']}")
    print(_test_stats_line(report.test_stats))
    if cfg.out_dir:
        print(f"artifacts in {cfg.out_dir}")


def _cmd_forecast(args):
    series = None
    if args.input:
        series = pipeline.load_series(
            pipeline.PipelineConfig(input_path=args.input, mode=args.mode))
    forecast = pipeline.forecast_saved(args.model, args.steps, series)
    for step, value in enumerate(forecast, start=1):
        print(f"step {step}: {value:.6g} W")
    if args.out:
        print(f"wrote {pipeline.write_forecast(args.out, forecast)}")


def _cmd_evaluate(args):
    cfg = _pipeline_config(args)
    report = pipeline.evaluate_saved(args.model, pipeline.load_series(cfg))
    print(_test_stats_line(report.test_stats))
    print(f"ACF fidelity (mean abs diff, lags 1-{pipeline.ACF_MAX_LAG}): "
          f"{report.acf_fidelity:.4f}")
    if cfg.out_dir:
        print(f"wrote {pipeline.write_eval_report(cfg.out_dir, report)}")


def _cmd_compare(args):
    cfg = _pipeline_config(args)
    result = pipeline.compare_algorithms(cfg)
    print(f"lag {result['lag']}, hidden {result['hidden']}, seed {result['seed']}")
    for algorithm, entry in result["algorithms"].items():
        if "error" in entry:
            print(f"{algorithm}: failed ({entry['error']})")
            continue
        print(f"{algorithm}: {_test_stats_line(ErrorStats(**entry['test_stats']))}")
    if cfg.out_dir:
        print(f"wrote {os.path.join(cfg.out_dir, 'comparison.json')}")


def _cmd_synth(args):
    if args.spec:
        spec = read_json(args.spec)
        check_json(args.spec, spec, SYNTHETIC_SPEC_TYPES, (), closed=False)
        spec.setdefault("kind", args.kind)
        spec.setdefault("n", args.n)
    else:
        spec = {"kind": args.kind, "n": args.n}
    series = generate_synthetic(spec, args.seed)
    save_csv(series, args.out)
    print(f"wrote {len(series)} observations to {args.out}")


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stationarity": _cmd_stationarity,
    "lags": _cmd_lags,
    "train": _cmd_train,
    "forecast": _cmd_forecast,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        _COMMANDS[args.subcommand](args)
    except SystemExit as exc:  # usage errors, from the parser or _pipeline_config
        return int(exc.code or 0)
    except (VrpcastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
