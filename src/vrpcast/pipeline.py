"""End-to-end orchestration: ingest -> stationarity -> lag selection ->
patterns -> training -> forecasting -> evaluation, with all artifacts
written as CSV/JSON. The CLI's inspection subcommands call the same stage
functions and artifact writers as training. A network row, its levels and
the state a fit saves are series_ops'; this module runs the network on rows."""

import logging
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Union

import numpy as np

from . import data_ingest, lag_select, mlp, series_ops, stat_tests, trainers
from .data_ingest import TimeSeries, check_json, load_csv, save_csv, write_csv, write_json
from .errors import DegenerateDataError, PipelineStageError, VrpcastError

log = logging.getLogger(__name__)

ACF_MAX_LAG = 20


@dataclass(frozen=True)
class PipelineConfig:
    """One experiment. hidden is one hidden size or a pair (lo, hi), from
    from_dict [lo, hi]; hidden_sizes reads it. Building it checks each field's
    data_ingest.JSON_TYPES type, the training settings, mode in data_ingest.MODES,
    train_fraction in (0, 1), seed >= 0, lag (when set) and max_lag >= 1, bins >= 2
    and hidden_sizes (ValueError), so a bad setting fails before any series is read."""

    input_path: Optional[str] = None
    mode: str = "power"
    train_fraction: float = series_ops.DEFAULT_TRAIN_FRACTION
    lag: Optional[int] = None            # None = entropy-based selection
    max_lag: int = 12
    bins: int = lag_select.DEFAULT_BINS
    hidden: Union[int, tuple] = (2, 25)
    algorithm: str = trainers.TrainConfig.algorithm
    max_epochs: int = trainers.TrainConfig.max_epochs
    out_dir: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            what, accepts = data_ingest.JSON_TYPES[f.type]
            if not accepts(value := getattr(self, f.name)):
                raise ValueError(f"{f.name} must be {what}, not {value!r}")
        if self.mode not in data_ingest.MODES:
            raise ValueError(f"mode must be one of {', '.join(data_ingest.MODES)}, "
                             f"not {self.mode!r}")
        series_ops.check_train_fraction(self.train_fraction)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        if self.lag is not None and self.lag < 1:
            raise ValueError(f"lag must be at least 1, not {self.lag}")
        self.hidden_sizes
        if self.max_lag < 1:
            raise ValueError(f"max_lag must be at least 1, not {self.max_lag}")
        if self.bins < 2:
            raise ValueError(f"bins must be at least 2, not {self.bins}")
        self.train_config()

    @property
    def hidden_sizes(self) -> range:
        """The sizes hidden names: h alone, or lo..hi inclusive. ValueError
        unless hidden names sizes >= 1."""
        lo, hi = (self.hidden, self.hidden) if isinstance(self.hidden, int) else self.hidden
        if hi < lo:
            raise ValueError(f"hidden {lo}:{hi} is an empty range")
        if lo < 1:
            raise ValueError(f"hidden sizes must be at least 1, not {self.hidden}")
        return range(lo, hi + 1)

    def train_config(self, algorithm: Optional[str] = None) -> trainers.TrainConfig:
        return trainers.TrainConfig(algorithm=algorithm or self.algorithm,
                                    max_epochs=self.max_epochs)

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        """The config of a JSON object; DataFormatError naming the key for an
        unknown key or a value of the wrong type."""
        check_json("config", payload, {f.name: f.type for f in fields(cls)}, (),
                   closed=True)
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
    """fn(*args, **kwargs), a VrpcastError, ValueError or MemoryError from it
    raised again as a PipelineStageError naming the stage; logs its time."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except (VrpcastError, ValueError, MemoryError) as exc:
        raise PipelineStageError(stage, str(exc) or type(exc).__name__) from exc
    finally:
        log.info("stage %s: %.3f s", stage, time.perf_counter() - t0)


def forecast_multi_step(model, last_window, horizon, norm, last_observed_value):
    """series_ops.iterate from the window of the most recent residuals (watt
    units, oldest first) and last_observed_value: watt-level forecasts."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    window = np.asarray(last_window, dtype=float)
    if window.shape != (model.input_dim,):
        raise ValueError(f"window has {window.size} residuals; the model needs {model.input_dim}")
    if not np.all(np.isfinite(window)):
        raise ValueError("window must be finite")
    return series_ops.iterate(window[None], [last_observed_value], horizon, norm,
                              lambda inputs: mlp.forward_batch(model, inputs))[0]


def _check_blocks(patterns) -> None:
    """DegenerateDataError when the training block is too short for a fit
    and the two-sample t-test, or the test block for evaluate()'s ACF."""
    if patterns.split_index < 2:
        raise DegenerateDataError(
            f"the training block has {patterns.split_index} of the {patterns.n_patterns} "
            "patterns; the fit and the two-sample t-test need at least 2")
    n_test = patterns.n_patterns - patterns.split_index
    if n_test <= ACF_MAX_LAG:
        raise DegenerateDataError(
            f"the test block has {n_test} one-step forecasts; "
            f"their ACF to lag {ACF_MAX_LAG} needs at least {ACF_MAX_LAG + 1}")


def evaluate(model, patterns, values, provenance=None) -> EvalReport:
    """Error statistics, ACF comparison and hypothesis tests in watt units."""
    _check_blocks(patterns)
    actual, predicted = series_ops.one_step_levels(
        patterns, values, lambda inputs: mlp.forward_batch(model, inputs))
    split = patterns.split_index
    train_stats = stat_tests.error_stats(actual[:split], predicted[:split])
    test_stats = stat_tests.error_stats(actual[split:], predicted[split:])
    acf_actual = series_ops.acf(actual[split:], ACF_MAX_LAG)
    acf_forecast = series_ops.acf(predicted[split:], ACF_MAX_LAG)
    fidelity = float(np.mean(np.abs(acf_actual[1:] - acf_forecast[1:])))
    paired = stat_tests.paired_ttest(actual[split:], predicted[split:])
    target_resid = series_ops.row_differences(patterns.targets, patterns.norm)
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
    still non-stationary or, before any fit, when a block is too short."""
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
    _stage("evaluate", _check_blocks, patterns)
    return Prepared(series, diff, kpss_raw, kpss_resid, profile, patterns)


def evaluate_saved(model_path, series: TimeSeries) -> EvalReport:
    """Stage `evaluate`: evaluate() of the model saved at model_path on
    `series`, whose patterns use the model's lag (its input_dim) and the
    train fraction and normaliser series_ops.read_saved_state reads."""
    model, provenance = mlp.load(model_path)
    fraction, norm, *_ = series_ops.read_saved_state(model_path, provenance, (), model.input_dim)
    diff = _stage("difference", series_ops.difference, series)
    patterns = _stage("extract-patterns", series_ops.extract_patterns, diff.residuals,
                      model.input_dim, fraction, norm)
    return _stage("evaluate", evaluate, model, patterns, series.values, provenance)


def forecast_saved(model_path, horizon, series: Optional[TimeSeries] = None):
    """Stage `forecast`: forecast_multi_step() of the model saved at
    model_path with its saved normaliser, from the end of `series` when one
    is given, else from the residual window and last value recorded in the
    model's provenance, as series_ops.read_saved_state reads them."""
    needs = () if series is not None else ("last_window_residuals", "last_observed_value")
    model, provenance = mlp.load(model_path)
    _, norm, window, level = series_ops.read_saved_state(model_path, provenance, needs,
                                                         model.input_dim)
    if series is not None:
        diff = _stage("difference", series_ops.difference, series)
        window, level = series_ops.end_state(diff.residuals, series.values, model.input_dim)
    return _stage("forecast", forecast_multi_step, model, window, horizon, norm, level)


def _fit(patterns, config: PipelineConfig):
    """Stage `train`: grid_search_fit's (selected h, table, model, report)
    over config.hidden_sizes, one size or many."""
    return _stage("train", trainers.grid_search_fit, patterns, config.hidden_sizes,
                  config.train_config(), config.seed)


def _model_provenance(config, hidden, report, prep: Prepared):
    return {
        "algorithm": config.algorithm,
        "seed": config.seed,
        "hidden": hidden,
        "epochs_used": report.epochs_used,
        "converged": report.converged,
        "alpha": report.alpha,
        "beta": report.beta,
        "gamma_effective": report.gamma_effective,
        **series_ops.saved_state(prep.patterns, prep.diff.residuals, prep.series.values),
    }


def run_pipeline(config: PipelineConfig, series: Optional[TimeSeries] = None):
    """Full experiment on one training algorithm.

    Returns (model, EvalReport, provenance dict). Artifacts are written to
    config.out_dir when set."""
    prep = _prepare(series, config)
    if not prep.kpss_raw.reject_at_5pct:
        log.info("raw series already level-stationary by KPSS; differencing anyway")
    hidden, grid_table, model, report = _fit(prep.patterns, config)
    provenance = _model_provenance(config, hidden, report, prep)
    eval_report = _stage("evaluate", evaluate, model, prep.patterns, prep.series.values,
                         provenance)
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
    write_json(_artifact_path(out_dir, "grid_search.json"), list(map(asdict, grid_table)))
    mlp.save(model, _artifact_path(out_dir, "model.json"), eval_report.provenance)
    write_json(_artifact_path(out_dir, "train_report.json"), asdict(report))
    write_eval_report(out_dir, eval_report)


def compare_algorithms(config: PipelineConfig, series: Optional[TimeSeries] = None):
    """run_pipeline's fit of config.algorithm and, at the size it selects, a
    fit of each other algorithm from the same start on the same patterns:
    a per-algorithm error table, whose entry for a failed fit is its error
    (a VrpcastError or MemoryError message).

    With a training block of one mlp.BLOCK_ROWS block, [config.algorithm's
    grid fit, the other two] run side by side in min(3, mlp.free_cpus())
    contiguous runs (mlp.in_runs), holding up to three fits' working sets;
    with a range of sizes the other two start once the grid has selected h.
    A longer block runs the fits in turn, each on its own row runs. No result
    depends on the threads; a grid abort is raised once all have ended."""
    prep = _prepare(series, config)
    patterns = prep.patterns
    algorithms = [config.algorithm] + [a for a in trainers.ALGORITHMS if a != config.algorithm]
    fits = {}
    hidden = config.hidden_sizes[0]
    if len(config.hidden_sizes) > 1:
        hidden, _, *fits[algorithms.pop(0)] = _fit(patterns, config)    # the others need h
    start = trainers.initial_model(patterns.lag, hidden, config.seed)

    def fit(algorithm):
        if algorithm == config.algorithm:
            return _fit(patterns, config)[2:]
        try:
            return trainers.train(start, patterns, config.train_config(algorithm))
        except (VrpcastError, MemoryError) as exc:
            return {"error": str(exc) or type(exc).__name__}

    many_blocks = patterns.split_index > mlp.BLOCK_ROWS
    runs = mlp.split_runs(algorithms, 1 if many_blocks else min(len(algorithms), mlp.free_cpus()))
    log.info("compare: %s fits %s: %s", ", ".join(algorithms),
             f"side by side on {len(runs)} threads" if len(runs) > 1 else "one after another",
             "each fit of more than one block runs its own row runs" if many_blocks
             else f"mlp.free_cpus() is {mlp.free_cpus()}")
    fits.update(zip(algorithms, mlp.in_runs(lambda run: [fit(a) for a in run], runs)))
    table = {}
    for algorithm in trainers.ALGORITHMS:
        table[algorithm] = fits[algorithm]
        if isinstance(fits[algorithm], dict):   # a failed fit's error entry
            continue
        model, report = fits[algorithm]
        eval_report = _stage("evaluate", evaluate, model, patterns, prep.series.values)
        table[algorithm] = {"train_stats": asdict(eval_report.train_stats),
                            "test_stats": asdict(eval_report.test_stats),
                            "converged": report.converged, "stop_reason": report.stop_reason,
                            "epochs_used": report.epochs_used}
    result = {"lag": patterns.lag, "hidden": hidden, "seed": config.seed, "algorithms": table}
    if config.out_dir:
        write_json(_artifact_path(config.out_dir, "comparison.json"), result)
    return result
