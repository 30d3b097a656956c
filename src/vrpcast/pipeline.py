"""End-to-end orchestration: ingest -> stationarity -> lag selection ->
patterns -> training -> forecasting -> evaluation, with all artifacts
written as CSV/JSON. The CLI's inspection subcommands call the same stage
functions and artifact writers as training."""

import logging
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import lag_select, mlp, series_ops, stat_tests, trainers
from .data_ingest import TimeSeries, load_csv, save_csv, write_csv, write_json
from .errors import PipelineStageError, TrainingError, VrpcastError

log = logging.getLogger(__name__)

ACF_MAX_LAG = 20


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# The JSON values PipelineConfig.from_dict accepts per field annotation.
_CONFIG_TYPES = {
    int: ("an int", _is_int),
    Optional[int]: ("an int or null", lambda v: v is None or _is_int(v)),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    Optional[str]: ("a string or null", lambda v: v is None or isinstance(v, str)),
    tuple: ("two ints", lambda v: isinstance(v, (list, tuple)) and len(v) == 2
            and all(map(_is_int, v))),
}


@dataclass(frozen=True)
class PipelineConfig:
    input_path: Optional[str] = None
    mode: str = "power"
    train_fraction: float = 0.8
    lag: Optional[int] = None            # None = entropy-based selection
    max_lag: int = 12
    bins: int = lag_select.DEFAULT_BINS
    hidden: Optional[int] = None         # None = grid search over h_range
    h_range: tuple = (2, 25)             # inclusive bounds
    algorithm: str = "brnn"
    max_epochs: int = 1000
    out_dir: Optional[str] = None
    seed: int = 0

    def train_config(self, algorithm: Optional[str] = None) -> trainers.TrainConfig:
        return trainers.TrainConfig(
            algorithm=algorithm or self.algorithm,
            max_epochs=self.max_epochs,
            seed=self.seed,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        """The config of a JSON object; ValueError naming the key for an
        unknown key or a value of the wrong type."""
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.name in payload:
                what, accepts = _CONFIG_TYPES[f.type]
                if not accepts(payload[f.name]):
                    raise ValueError(f"config key {f.name!r} must be {what}, "
                                     f"got {payload[f.name]!r}")
        if "h_range" in payload:
            payload = dict(payload, h_range=tuple(payload["h_range"]))
        return cls(**payload)


@dataclass(frozen=True)
class EvalReport:
    train_stats: stat_tests.ErrorStats
    test_stats: stat_tests.ErrorStats
    acf_actual: tuple
    acf_forecast: tuple
    acf_fidelity: float
    paired_ttest: stat_tests.TTestResult
    two_sample_ttest: stat_tests.TTestResult
    provenance: dict = field(default_factory=dict)


def _stage(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except VrpcastError as exc:
        raise PipelineStageError(stage, str(exc)) from exc


def one_step_predictions_watts(model, patterns, values):
    """One-step forecasts in watts for every pattern, each anchored on the
    actual previous observation. Returns (actual_watts, predicted_watts)."""
    pred_norm = mlp.forward_batch(model, patterns.inputs)
    pred_resid = patterns.norm.invert(pred_norm)
    p = patterns.lag
    idx = np.arange(patterns.n_patterns)
    anchors = values[idx + p]
    actual = values[idx + p + 1]
    return actual, anchors + pred_resid


def forecast_multi_step(model, last_window, horizon, norm, last_observed_value):
    """Iterated one-step forecasts; window holds the most recent residuals
    (watt units, oldest first). Returns watt-level forecasts."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    window = np.asarray(last_window, dtype=float).copy()
    if window.shape != (model.input_dim,):
        raise ValueError(f"window must have length {model.input_dim}")
    preds_resid = np.empty(horizon)
    for step in range(horizon):
        pred_norm = mlp.forward(model, norm.apply(window))
        if not np.isfinite(pred_norm):
            raise TrainingError(f"non-finite forecast at horizon step {step + 1}")
        resid = float(norm.invert(pred_norm))
        preds_resid[step] = resid
        window = np.concatenate([window[1:], [resid]])
    return series_ops.undifference(preds_resid, last_observed_value)


def evaluate(model, patterns, values, provenance=None) -> EvalReport:
    """Error statistics, ACF comparison and hypothesis tests in watt units."""
    actual, predicted = one_step_predictions_watts(model, patterns, values)
    split = patterns.split_index
    train_stats = stat_tests.error_stats(actual[:split], predicted[:split])
    test_stats = stat_tests.error_stats(actual[split:], predicted[split:])
    acf_actual = series_ops.acf(actual[split:], ACF_MAX_LAG)
    acf_forecast = series_ops.acf(predicted[split:], ACF_MAX_LAG)
    fidelity = float(np.mean(np.abs(acf_actual[1:] - acf_forecast[1:])))
    paired = stat_tests.paired_ttest(actual[split:], predicted[split:])
    target_resid = patterns.norm.invert(patterns.targets)
    two_sample = stat_tests.two_sample_ttest(target_resid[:split], target_resid[split:])
    return EvalReport(
        train_stats=train_stats,
        test_stats=test_stats,
        acf_actual=tuple(float(v) for v in acf_actual),
        acf_forecast=tuple(float(v) for v in acf_forecast),
        acf_fidelity=fidelity,
        paired_ttest=paired,
        two_sample_ttest=two_sample,
        provenance=provenance or {},
    )


@dataclass(frozen=True)
class Prepared:
    """The front half of the pipeline on one series."""

    series: TimeSeries
    diff: series_ops.DifferencedSeries
    kpss_raw: stat_tests.KpssResult
    kpss_resid: stat_tests.KpssResult
    profile: Optional[lag_select.EntropyProfile]    # None when config.lag is set
    patterns: series_ops.PatternSet


def load_series(config: PipelineConfig) -> TimeSeries:
    """Stage `load`: the series at config.input_path, read in config.mode."""
    if config.input_path is None:
        raise ValueError("config.input_path or an in-memory series is required")
    return _stage("load", load_csv, config.input_path, config.mode)


def stationarity(series: TimeSeries):
    """Stages `kpss-raw`, `difference` and `kpss-residuals`:
    (differenced series, KPSS of the raw values, KPSS of the residuals).
    A rejection is reported, not raised."""
    kpss_raw = _stage("kpss-raw", stat_tests.kpss_level, series.values)
    diff = _stage("difference", series_ops.difference, series)
    kpss_resid = _stage("kpss-residuals", stat_tests.kpss_level, diff.residuals)
    return diff, kpss_raw, kpss_resid


def select_lag(diff: series_ops.DifferencedSeries,
               config: PipelineConfig) -> lag_select.EntropyProfile:
    """Stage `lag-selection`: the entropy profile of the training prefix of
    the residuals only (no test leakage), up to config.max_lag."""
    n_train_resid = int(np.floor(config.train_fraction * diff.residuals.size))
    return _stage("lag-selection", lag_select.entropy_profile,
                  diff.residuals[:n_train_resid], config.max_lag, config.bins)


def _prepare(series: Optional[TimeSeries], config: PipelineConfig) -> Prepared:
    """Front half of the training paths: load (unless a series is given),
    difference + KPSS, lag, patterns. Aborts when the first differences are
    still non-stationary."""
    if series is None:
        series = load_series(config)
    diff, kpss_raw, kpss_resid = stationarity(series)
    if kpss_resid.reject_at_5pct:
        raise PipelineStageError(
            "kpss-residuals",
            "first differences are still non-stationary at 5%; "
            "second differencing is not supported",
        )
    profile = None if config.lag is not None else select_lag(diff, config)
    lag = config.lag if profile is None else profile.selected_lag
    patterns = _stage("extract-patterns", series_ops.extract_patterns,
                      diff.residuals, lag, config.train_fraction)
    return Prepared(series, diff, kpss_raw, kpss_resid, profile, patterns)


def evaluate_saved(model, provenance, series: TimeSeries) -> EvalReport:
    """evaluate() of a saved model on `series`, whose patterns use the lag,
    train fraction and normaliser recorded in the model's provenance."""
    diff = _stage("difference", series_ops.difference, series)
    patterns = _stage(
        "extract-patterns", series_ops.extract_patterns, diff.residuals,
        provenance["lag"], provenance.get("train_fraction", PipelineConfig.train_fraction),
        series_ops.NormParams(**provenance["norm"]),
    )
    return evaluate(model, patterns, series.values, provenance)


def forecast_saved(model, provenance, horizon, series: Optional[TimeSeries] = None):
    """forecast_multi_step() of a saved model with its saved normaliser, from
    the end of `series` when one is given, else from the residual window and
    last value recorded in the model's provenance."""
    norm = series_ops.NormParams(**provenance["norm"])
    if series is None:
        window = provenance["last_window_residuals"]
        last_value = provenance["last_observed_value"]
    else:
        diff = _stage("difference", series_ops.difference, series)
        window = diff.residuals[-model.input_dim:]
        last_value = float(series.values[-1])
    return forecast_multi_step(model, window, horizon, norm, last_value)


def _choose_hidden(patterns, config: PipelineConfig):
    """(hidden, grid table, (model, report) of the grid winner); the last
    two are None for a fixed hidden size."""
    if config.hidden is not None:
        return config.hidden, None, None
    lo, hi = config.h_range
    best_h, table, model, report = _stage(
        "grid-search",
        trainers.grid_search_fit,
        patterns,
        range(lo, hi + 1),
        config.train_config(),
    )
    return best_h, table, (model, report)


def _model_provenance(config, hidden, report, prep: Prepared):
    return {
        "algorithm": config.algorithm,
        "seed": config.seed,
        "lag": prep.patterns.lag,
        "hidden": hidden,
        "train_fraction": config.train_fraction,
        "epochs_used": report.epochs_used,
        "converged": report.converged,
        "final_objective": report.final_objective,
        "alpha": report.alpha,
        "beta": report.beta,
        "gamma_effective": report.gamma_effective,
        "norm": {"min": prep.patterns.norm.min, "max": prep.patterns.norm.max},
        "last_window_residuals": [float(v) for v in prep.diff.residuals[-prep.patterns.lag:]],
        "last_observed_value": float(prep.series.values[-1]),
    }


def run_pipeline(config: PipelineConfig, series: Optional[TimeSeries] = None):
    """Full experiment on one training algorithm.

    Returns (model, EvalReport, provenance dict). Artifacts are written to
    config.out_dir when set."""
    prep = _prepare(series, config)
    if not prep.kpss_raw.reject_at_5pct:
        log.info("raw series already level-stationary by KPSS; differencing anyway")
    hidden, grid_table, fit = _choose_hidden(prep.patterns, config)
    if fit is None:
        model0 = mlp.init(prep.patterns.lag, hidden, config.seed)
        fit = _stage("train", trainers.train, model0, prep.patterns, config.train_config())
    model, report = fit
    provenance = _model_provenance(config, hidden, report, prep)
    eval_report = evaluate(model, prep.patterns, prep.series.values, provenance)
    if config.out_dir:
        _write_artifacts(config.out_dir, prep, grid_table, model, report, eval_report)
    return model, eval_report, provenance


def _artifact_path(out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_series(out_dir, series: TimeSeries) -> str:
    """Write out_dir/series.csv, creating out_dir, and return its path; the
    other write_* functions do the same for their artifact."""
    path = _artifact_path(out_dir, "series.csv")
    save_csv(series, path)
    return path


def write_kpss(out_dir, kpss_raw, kpss_resid) -> str:
    path = _artifact_path(out_dir, "kpss.json")
    write_json(path, {"raw": asdict(kpss_raw), "residuals": asdict(kpss_resid)})
    return path


def write_entropy_profile(out_dir, profile: lag_select.EntropyProfile) -> str:
    path = _artifact_path(out_dir, "entropy_profile.csv")
    write_csv(path, ["lag", "delta"], [profile.lags, profile.delta])
    return path


def write_forecast(out_dir, forecast) -> str:
    path = _artifact_path(out_dir, "forecast.csv")
    write_csv(path, ["step", "forecast_watts"], [range(1, len(forecast) + 1), forecast])
    return path


def write_eval_report(out_dir, report: EvalReport) -> str:
    path = _artifact_path(out_dir, "eval_report.json")
    write_json(path, asdict(report))
    return path


def _write_artifacts(out_dir, prep: Prepared, grid_table, model, report, eval_report):
    write_series(out_dir, prep.series)
    residuals = prep.diff.residuals
    write_csv(_artifact_path(out_dir, "residuals.csv"), ["index", "residual_watts"],
              [range(residuals.size), residuals])
    write_kpss(out_dir, prep.kpss_raw, prep.kpss_resid)
    if prep.profile is not None:
        write_entropy_profile(out_dir, prep.profile)
    if grid_table is not None:
        write_json(_artifact_path(out_dir, "grid_search.json"), grid_table)
    mlp.save(model, _artifact_path(out_dir, "model.json"), eval_report.provenance)
    write_json(_artifact_path(out_dir, "train_report.json"), asdict(report))
    write_eval_report(out_dir, eval_report)


def compare_algorithms(config: PipelineConfig, series: Optional[TimeSeries] = None):
    """Run the identical pipeline once per training algorithm (same seed,
    hidden size and patterns) and emit a per-algorithm error table."""
    prep = _prepare(series, config)
    hidden, _, _ = _choose_hidden(prep.patterns, config)
    table = {}
    for algorithm in trainers.ALGORITHMS:
        model0 = mlp.init(prep.patterns.lag, hidden, config.seed)
        try:
            model, report = trainers.train(
                model0, prep.patterns, config.train_config(algorithm)
            )
        except VrpcastError as exc:
            table[algorithm] = {"error": str(exc)}
            continue
        eval_report = evaluate(model, prep.patterns, prep.series.values)
        table[algorithm] = {
            "train_stats": asdict(eval_report.train_stats),
            "test_stats": asdict(eval_report.test_stats),
            "converged": report.converged,
            "epochs_used": report.epochs_used,
        }
    result = {
        "lag": prep.patterns.lag,
        "hidden": hidden,
        "seed": config.seed,
        "algorithms": table,
    }
    if config.out_dir:
        write_json(_artifact_path(config.out_dir, "comparison.json"), result)
    return result
