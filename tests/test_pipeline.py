import json
import logging
import threading
import time
from dataclasses import asdict, fields

import numpy as np
import pytest

from vrpcast import (
    PipelineConfig,
    compare_algorithms,
    difference,
    extract_patterns,
    forecast_multi_step,
    generate_synthetic,
    init,
    run_pipeline,
)
from vrpcast import data_ingest, mlp, pipeline, series_ops, stat_tests, trainers
from vrpcast.errors import DataFormatError, PipelineStageError, TrainingError
from vrpcast.series_ops import NormParams


BURSTY = {"kind": "persistence_bursts", "n": 1500}
FAST = dict(lag=3, hidden=4, max_epochs=60, seed=1)
CPUS = mlp._cpus    # the CPUs this process may use


class TestRunPipeline:
    def test_pattern_count_identity(self):
        series = generate_synthetic({"kind": "persistence_bursts", "n": 4713}, 42)
        cfg = PipelineConfig(lag=6, hidden=3, max_epochs=10, seed=0)
        _, _, provenance = run_pipeline(cfg, series)
        assert provenance["lag"] == 6
        patterns = extract_patterns(difference(series).residuals, 6, 0.8)
        assert patterns.n_patterns == 4713 - 1 - 6

    def test_ar6_predictability(self):
        spec = {"kind": "ar", "n": 2000, "phi": [0.2, 0.1, 0.05, 0.05, 0.1, 0.45]}
        series = generate_synthetic(spec, 7)
        cfg = PipelineConfig(lag=6, hidden=9, algorithm="brnn", max_epochs=300, seed=2)
        _, report, _ = run_pipeline(cfg, series)
        # linear one-step oracle on the same patterns bounds what is learnable
        patterns = extract_patterns(difference(series).residuals, 6, 0.8)
        design = np.column_stack([patterns.train_inputs,
                                  np.ones(patterns.split_index)])
        coef, *_ = np.linalg.lstsq(design, patterns.train_targets, rcond=None)
        n_test = patterns.n_patterns - patterns.split_index
        test_design = np.column_stack([patterns.inputs[patterns.split_index:], np.ones(n_test)])
        pred_resid = patterns.norm.invert(test_design @ coef)
        idx = np.arange(patterns.split_index, patterns.n_patterns)
        actual = series.values[idx + 7]
        pred = series.values[idx + 6] + pred_resid
        oracle_r2 = 1 - np.sum((actual - pred) ** 2) / np.sum(
            (actual - actual.mean()) ** 2
        )
        assert report.test_stats.r_squared > 0.3
        assert report.test_stats.r_squared >= 0.6 * oracle_r2

    def test_one_step_anchoring(self):
        series = generate_synthetic(BURSTY, 9)
        cfg = PipelineConfig(**FAST)
        model, _, provenance = run_pipeline(cfg, series)
        patterns = extract_patterns(difference(series).residuals, cfg.lag, 0.8)
        actual, predicted = series_ops.one_step_levels(
            patterns, series.values, lambda inputs: mlp.forward_batch(model, inputs)
        )
        pred_resid = patterns.norm.invert(mlp.forward_batch(model, patterns.inputs))
        for i in (0, 5, patterns.n_patterns - 1):
            assert predicted[i] == pytest.approx(
                series.values[i + cfg.lag] + pred_resid[i]
            )
            assert actual[i] == series.values[i + cfg.lag + 1]

    def test_nonstationary_residuals_abort(self):
        walk = generate_synthetic({"kind": "random_walk", "n": 800}, 3)
        doubly = np.cumsum(walk.values)  # first difference is a random walk
        series = generate_synthetic({"kind": "white_noise", "n": 800}, 0)
        series = type(series)(series.timestamps, doubly)
        with pytest.raises(PipelineStageError, match="kpss-residuals"):
            run_pipeline(PipelineConfig(**FAST), series)

    def test_artifacts_and_determinism(self, tmp_path):
        series = generate_synthetic(BURSTY, 5)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = PipelineConfig(out_dir=str(out), **FAST)
            run_pipeline(cfg, series)
        for name in ("model.json", "eval_report.json", "train_report.json",
                     "kpss.json", "series.csv", "residuals.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_a_single_size_is_a_one_size_grid(self, tmp_path):
        series = generate_synthetic(BURSTY, 5)
        p, h, seed = FAST["lag"], FAST["hidden"], FAST["seed"]
        for name, hidden in (("alone", h), ("grid", (h, h))):
            run_pipeline(PipelineConfig(out_dir=str(tmp_path / name), **dict(FAST, hidden=hidden)),
                         series)
        names = sorted(path.name for path in (tmp_path / "alone").iterdir())
        assert "grid_search.json" in names
        assert names == sorted(path.name for path in (tmp_path / "grid").iterdir())
        for name in names:
            assert ((tmp_path / "alone" / name).read_bytes()
                    == (tmp_path / "grid" / name).read_bytes())
        patterns = extract_patterns(difference(series).residuals, p, 0.8)
        expected, _ = trainers.train(init(p, h, seed + h), patterns,
                                     trainers.TrainConfig(max_epochs=FAST["max_epochs"]))
        model, _ = mlp.load(tmp_path / "alone" / "model.json")
        np.testing.assert_array_equal(mlp.flatten(model), mlp.flatten(expected))

    def test_eval_report_fields(self):
        series = generate_synthetic(BURSTY, 6)
        _, report, _ = run_pipeline(PipelineConfig(**FAST), series)
        assert len(report.acf_actual) == len(report.acf_forecast) == 21
        assert np.isfinite(report.acf_fidelity)
        assert 0.0 <= report.paired_ttest.p_value <= 1.0
        payload = asdict(report)
        json.dumps(payload)  # serializable
        assert payload["train_stats"]["mean_squared_error"] >= 0

    def test_json_reports_hold_their_dataclass_fields(self, tmp_path):
        run_pipeline(PipelineConfig(out_dir=str(tmp_path), **FAST), generate_synthetic(BURSTY, 5))

        def read(name):
            return json.loads((tmp_path / name).read_text())

        def names(cls):
            return {f.name for f in fields(cls)}

        assert set(read("train_report.json")) == names(trainers.TrainReport)
        report = read("eval_report.json")
        assert set(report) == names(pipeline.EvalReport)
        for key in ("train_stats", "test_stats"):
            assert set(report[key]) == names(stat_tests.ErrorStats)
        for key in ("paired_ttest", "two_sample_ttest"):
            assert set(report[key]) == names(stat_tests.TTestResult)
        kpss = read("kpss.json")
        assert set(kpss) == {"raw", "residuals"}
        for result in kpss.values():
            assert set(result) == names(stat_tests.KpssResult)
            assert list(result["critical_values"]) == ["0.01", "0.025", "0.05", "0.1"]


    def test_model_saved_with_final_objective_still_loads(self, tmp_path):
        # models saved before final_objective left the provenance carry it
        series = generate_synthetic(BURSTY, 5)
        run_pipeline(PipelineConfig(out_dir=str(tmp_path), **FAST), series)
        payload = json.loads((tmp_path / "model.json").read_text())
        assert "final_objective" not in payload["provenance"]
        payload["provenance"]["final_objective"] = 599.0
        (tmp_path / "old_model.json").write_text(json.dumps(payload))
        model, provenance = mlp.load(tmp_path / "model.json")
        old_model, old_provenance = mlp.load(tmp_path / "old_model.json")
        assert old_provenance["final_objective"] == 599.0
        np.testing.assert_array_equal(mlp.flatten(old_model), mlp.flatten(model))
        assert (pipeline.evaluate_saved(tmp_path / "old_model.json", series).test_stats
                == pipeline.evaluate_saved(tmp_path / "model.json", series).test_stats)


class TestPipelineConfig:
    @pytest.mark.parametrize("hidden, sizes", [(9, range(9, 10)), ((2, 5), range(2, 6)),
                                               ([2, 5], range(2, 6)), ((4, 4), range(4, 5))],
                             ids=["int", "tuple", "list", "one-size-pair"])
    def test_hidden_sizes(self, hidden, sizes):
        assert PipelineConfig(hidden=hidden).hidden_sizes == sizes

    @pytest.mark.parametrize("hidden, message", [
        ((5, 2), "hidden 5:2 is an empty range"),
        ((0, 4), "hidden sizes must be at least 1, not (0, 4)"),
        (0, "hidden sizes must be at least 1, not 0"),
        ((2.5, 4), "hidden must be an int or two ints, not (2.5, 4)"),
        (9.0, "hidden must be an int or two ints, not 9.0"),
        ("9", "hidden must be an int or two ints, not '9'"),
        ((2, 3, 4), "hidden must be an int or two ints, not (2, 3, 4)"),
        (None, "hidden must be an int or two ints, not None"),
    ], ids=["empty-range", "range-below-1", "size-below-1", "float-bound", "float", "str",
            "three-ints", "none"])
    def test_bad_hidden_fails_when_built(self, hidden, message):
        with pytest.raises(ValueError) as info:
            PipelineConfig(hidden=hidden)
        assert str(info.value) == message

    def test_bad_mode_fails_when_built(self):
        assert [PipelineConfig(mode=mode).mode for mode in data_ingest.MODES] == [
            "power", "radiance"]
        with pytest.raises(ValueError) as info:
            PipelineConfig(mode="foo")
        assert str(info.value) == "mode must be one of power, radiance, not 'foo'"

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, True, float("nan")])
    def test_bad_train_fraction_fails_when_built(self, fraction):
        # the one rule, series_ops.check_train_fraction; extract_patterns and
        # a saved model's reader reject the same values. True is not a number,
        # which the type check of every field says first
        with pytest.raises(ValueError) as info:
            PipelineConfig(train_fraction=fraction)
        rule = "must be a number" if fraction is True else "must be in (0, 1)"
        assert str(info.value) == f"train_fraction {rule}, not {fraction}"

    @pytest.mark.parametrize("name, value, what", [
        ("seed", 1.5, "an int"), ("lag", 2.5, "an int or null"), ("max_lag", 2.0, "an int"),
        ("bins", 3.0, "an int"), ("max_epochs", True, "an int"),
        ("train_fraction", "0.5", "a number"), ("out_dir", None, None),
    ], ids=["seed", "lag", "max_lag", "bins", "max_epochs", "train_fraction", "path-out_dir"])
    def test_field_of_the_wrong_type_fails_when_built(self, name, value, what, tmp_path):
        # every field is checked against data_ingest.JSON_TYPES, the table
        # from_dict reads; a path given in Python may be a pathlib.Path
        if what is None:
            series = generate_synthetic(BURSTY, 5)
            run_pipeline(PipelineConfig(out_dir=tmp_path / "run", **FAST), series)
            assert (tmp_path / "run" / "model.json").is_file()
            return
        with pytest.raises(ValueError) as info:
            PipelineConfig(**{name: value})
        assert str(info.value) == f"{name} must be {what}, not {value!r}"


class TestSavedModelReaders:
    def test_short_forecast_window_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        mlp.save(init(3, 2, 0), path, {"lag": 3, "norm": {"min": 0.0, "max": 1.0},
                                       "last_window_residuals": [1.0, 2.0],
                                       "last_observed_value": 5.0})
        with pytest.raises(DataFormatError, match="2 values"):
            pipeline.evaluate_saved(path, generate_synthetic(BURSTY, 5))
        with pytest.raises(DataFormatError, match="2 values"):
            pipeline.forecast_saved(path, 3)

    def test_missing_norm_names_file_and_key(self, tmp_path):
        path = tmp_path / "model.json"
        mlp.save(init(3, 2, 0), path, {"lag": 3, "last_window_residuals": [1.0, 2.0, 3.0],
                                       "last_observed_value": 5.0})
        with pytest.raises(DataFormatError) as info:
            pipeline.evaluate_saved(path, generate_synthetic(BURSTY, 5))
        assert str(info.value) == f"{path} provenance key 'norm' is missing"
        with pytest.raises(DataFormatError, match="'norm' is missing"):
            pipeline.forecast_saved(path, 3)

    @pytest.mark.parametrize("fraction, rule", [
        (1.5, "must be in (0, 1), got 1.5"), (0.0, "must be in (0, 1), got 0.0"),
        (1.0, "must be in (0, 1), got 1.0"), (True, "must be a number, got True")],
        ids=["1.5", "0.0", "1.0", "true"])
    def test_train_fraction_out_of_range_names_file_and_key(self, tmp_path, fraction, rule):
        path = tmp_path / "model.json"
        mlp.save(init(3, 2, 0), path, {"lag": 3, "train_fraction": fraction,
                                       "norm": {"min": 0.0, "max": 1.0},
                                       "last_window_residuals": [1.0, 2.0, 3.0],
                                       "last_observed_value": 5.0})
        for read in (lambda: pipeline.evaluate_saved(path, generate_synthetic(BURSTY, 5)),
                     lambda: pipeline.forecast_saved(path, 3)):
            with pytest.raises(DataFormatError) as info:
                read()
            assert str(info.value) == f"{path} provenance key 'train_fraction' {rule}"

    @staticmethod
    def scores(report):
        """The report's numbers, without the provenance it echoes."""
        return json.dumps(dict(asdict(report), provenance=None))

    @pytest.mark.parametrize("key, default", [("train_fraction", 0.8), ("lag", FAST["lag"])])
    def test_a_model_without_a_state_key_reads_its_default(self, tmp_path, key, default):
        # model files may omit these keys: the config's train fraction, and
        # a lag of the network's input count
        series = generate_synthetic(BURSTY, 5)
        run_pipeline(PipelineConfig(out_dir=str(tmp_path), **FAST), series)
        payload = json.loads((tmp_path / "model.json").read_text())
        assert payload["provenance"].pop(key) == default
        (tmp_path / "old_model.json").write_text(json.dumps(payload))
        assert (self.scores(pipeline.evaluate_saved(tmp_path / "old_model.json", series))
                == self.scores(pipeline.evaluate_saved(tmp_path / "model.json", series)))

    def test_a_saved_train_fraction_is_the_split_evaluate_uses(self, tmp_path):
        series = generate_synthetic(BURSTY, 5)
        model, report, provenance = run_pipeline(
            PipelineConfig(out_dir=str(tmp_path), train_fraction=0.7, **FAST), series)
        saved = json.loads((tmp_path / "model.json").read_text())["provenance"]
        assert provenance["train_fraction"] == saved["train_fraction"] == 0.7
        evaluated = pipeline.evaluate_saved(tmp_path / "model.json", series)
        assert self.scores(evaluated) == self.scores(report)
        at_default = extract_patterns(difference(series).residuals, FAST["lag"], 0.8,
                                      NormParams(**saved["norm"]))
        assert (pipeline.evaluate(model, at_default, series.values).train_stats
                != evaluated.train_stats)


class TestForecastMultiStep:
    def make_context(self):
        series = generate_synthetic(BURSTY, 11)
        model, _, provenance = run_pipeline(PipelineConfig(**FAST), series)
        norm = NormParams(**provenance["norm"])
        window = np.asarray(provenance["last_window_residuals"])
        last = provenance["last_observed_value"]
        return model, norm, window, last

    def test_horizon_one_is_single_step(self):
        model, norm, window, last = self.make_context()
        single = forecast_multi_step(model, window, 1, norm, last)
        pred = norm.invert(mlp.forward_batch(model, norm.apply(window)[None])[0])
        assert single.shape == (1,)
        assert single[0] == pytest.approx(last + pred)

    def test_zero_residual_model_forecasts_flat(self):
        _, norm, window, last = self.make_context()
        # constant output at the normalized image of residual 0
        flat = mlp.MlpModel([0.0] * 5 + [float(norm.apply(0.0))], 3, 1)
        forecast = forecast_multi_step(flat, window, 6, norm, last)
        np.testing.assert_allclose(forecast, last, rtol=1e-12)

    def test_matches_manual_iteration(self):
        model, norm, window, last = self.make_context()
        forecast = forecast_multi_step(model, window, 5, norm, last)
        w = window.copy()
        level = last
        manual = []
        for _ in range(5):
            resid = float(norm.invert(mlp.forward_batch(model, norm.apply(w)[None])[0]))
            w = np.concatenate([w[1:], [resid]])
            level += resid
            manual.append(level)
        np.testing.assert_allclose(forecast, manual, rtol=1e-12)

    def test_bad_horizon(self):
        model, norm, window, last = self.make_context()
        with pytest.raises(ValueError):
            forecast_multi_step(model, window, 0, norm, last)

    def test_one_step_forecast_of_a_prefix_is_its_evaluated_row(self, tmp_path):
        # evaluate and forecast share one row: the forecast from a prefix of
        # the series is the one-step prediction of the row that ends there
        series = generate_synthetic({"kind": "persistence_bursts", "n": 600}, 4)
        run_pipeline(PipelineConfig(out_dir=str(tmp_path), **FAST), series)
        model, _ = mlp.load(tmp_path / "model.json")
        p = FAST["lag"]
        patterns = extract_patterns(difference(series).residuals, p, 0.8)
        _, predicted = series_ops.one_step_levels(
            patterns, series.values, lambda inputs: mlp.forward_batch(model, inputs))
        for i in (0, patterns.split_index - 1, patterns.n_patterns - 1):
            prefix = type(series)(series.timestamps[: i + p + 1], series.values[: i + p + 1])
            forecast = pipeline.forecast_saved(tmp_path / "model.json", 1, prefix)
            assert forecast.tolist() == [predicted[i]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window(self, bad):
        model, norm, window, last = self.make_context()
        window[-1] = bad
        with pytest.raises(ValueError, match="window must be finite"):
            forecast_multi_step(model, window, 3, norm, last)


class TestCompareAlgorithms:
    """compare's fits run side by side: every test of the class runs with
    three free CPUs, so each fit of a one-block compare has its own thread."""

    @pytest.fixture(autouse=True)
    def free_cpus(self, monkeypatch):
        def set_free_cpus(cpus, blas_threads="1"):
            """cpus CPUs (None: the real ones), BLAS on blas_threads (None: unset)."""
            monkeypatch.setattr(mlp, "_cpus", CPUS if cpus is None else lambda: cpus)
            for name in mlp._BLAS_THREAD_VARS:
                monkeypatch.delenv(name, raising=False)
            if blas_threads is not None:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        set_free_cpus(3)
        return set_free_cpus

    @pytest.fixture
    def fits(self, monkeypatch):
        """(algorithm, on the calling thread, numpy's divide error state) of
        each trainers.train call; side by side, in no fixed order."""
        real = trainers.train
        calls = []

        def train(model, patterns, config):
            calls.append((config.algorithm, threading.current_thread() is threading.main_thread(),
                          np.geterr()["divide"]))
            return real(model, patterns, config)

        monkeypatch.setattr(trainers, "train", train)
        return calls

    @pytest.mark.parametrize("cpus, blas_threads", [
        (1, "1"), (2, "1"), (3, "1"), (3, None), (None, "1")])
    def test_comparison_json_does_not_depend_on_the_threads(
            self, tmp_path, free_cpus, fits, caplog, cpus, blas_threads):
        threads = min(CPUS() if cpus is None else cpus, 3) if blas_threads else 1
        series = generate_synthetic(BURSTY, 4)
        expected = tmp_path / "one_thread"
        free_cpus(1)
        compare_algorithms(PipelineConfig(out_dir=str(expected), **FAST), series)
        fits.clear()
        free_cpus(cpus, blas_threads)
        with caplog.at_level(logging.INFO, logger="vrpcast.pipeline"):
            compare_algorithms(PipelineConfig(out_dir=str(tmp_path / "cmp"), **FAST), series)
        assert ((tmp_path / "cmp" / "comparison.json").read_bytes()
                == (expected / "comparison.json").read_bytes())
        assert sorted((a, main) for a, main, _ in fits) == [
            ("brnn", True), ("lm", threads == 1), ("scg", threads == 1)]
        assert (f"compare: brnn, lm, scg fits side by side on {threads} threads" if threads > 1
                else "compare: brnn, lm, scg fits one after another: mlp.free_cpus() is 1"
                ) in caplog.text
        assert "stage train: " in caplog.text and "stage evaluate: " in caplog.text

    def test_a_range_fits_the_others_after_the_grid(self, free_cpus, fits):
        free_cpus(2)
        result = compare_algorithms(PipelineConfig(**dict(FAST, hidden=(2, 3))),
                                    generate_synthetic(BURSTY, 4))
        assert sorted((a, main) for a, main, _ in fits) == [
            ("brnn", True), ("brnn", True), ("lm", True), ("scg", False)]
        assert all("test_stats" in entry for entry in result["algorithms"].values())

    def test_fits_of_many_blocks_run_one_after_another(self, monkeypatch, fits, caplog):
        monkeypatch.setattr(mlp, "BLOCK_ROWS", 64)
        with caplog.at_level(logging.INFO, logger="vrpcast.pipeline"):
            compare_algorithms(PipelineConfig(**FAST), generate_synthetic(BURSTY, 4))
        assert [(a, main) for a, main, _ in fits] == [("brnn", True), ("lm", True), ("scg", True)]
        assert "fits one after another: each fit of more than one block" in caplog.text

    def test_a_grid_abort_is_raised_once_the_other_fits_end(self, monkeypatch):
        real = trainers.train
        ended = []

        def train(model, patterns, config):
            if config.algorithm == "brnn":
                raise TrainingError("abort brnn")
            time.sleep(0.05)
            fit = real(model, patterns, config)
            ended.append(config.algorithm)
            return fit

        monkeypatch.setattr(trainers, "train", train)
        with pytest.raises(PipelineStageError, match="abort brnn"):
            compare_algorithms(PipelineConfig(**FAST), generate_synthetic(BURSTY, 4))
        assert sorted(ended) == ["lm", "scg"]

    def test_pool_fits_keep_the_callers_numpy_error_state(self, fits):
        with np.errstate(divide="ignore"):
            compare_algorithms(PipelineConfig(**FAST), generate_synthetic(BURSTY, 4))
        assert sorted(fits) == [
            ("brnn", True, "ignore"), ("lm", False, "ignore"), ("scg", False, "ignore")]

    def test_table_shape_and_determinism(self, tmp_path):
        series = generate_synthetic(BURSTY, 4)
        cfg = PipelineConfig(out_dir=str(tmp_path / "cmp"), **FAST)
        result = compare_algorithms(cfg, series)
        assert set(result["algorithms"]) == {"lm", "scg", "brnn"}
        for entry in result["algorithms"].values():
            assert "test_stats" in entry
        again = compare_algorithms(cfg, series)
        assert result == again

    def test_failed_algorithm_gets_an_error_entry(self, abort_training):
        abort_training({"scg"}, {FAST["hidden"]})
        result = compare_algorithms(PipelineConfig(**FAST), generate_synthetic(BURSTY, 4))
        assert result["algorithms"]["scg"] == {"error": "abort scg h = 4"}
        assert all("test_stats" in result["algorithms"][a] for a in ("lm", "brnn"))

    def test_allocation_failure_gets_an_error_entry(self, monkeypatch):
        real = trainers.train

        def train(model, patterns, config):
            if config.algorithm == "lm":
                raise MemoryError("Unable to allocate 1.82 TiB for an array")
            return real(model, patterns, config)

        monkeypatch.setattr(trainers, "train", train)
        result = compare_algorithms(PipelineConfig(**dict(FAST, algorithm="scg")),
                                    generate_synthetic(BURSTY, 4))
        assert result["algorithms"]["lm"] == {"error": "Unable to allocate 1.82 TiB for an array"}
        assert all("test_stats" in result["algorithms"][a] for a in ("scg", "brnn"))

    def test_zero_noise_teacher_all_algorithms_fit(self):
        # representable target: every trainer should explain > 99% variance
        from vrpcast import TrainConfig, error_stats, train

        rng = np.random.default_rng(8)
        teacher = init(4, 3, 21)
        x = rng.uniform(0, 1, (300, 4))
        y = mlp.forward_batch(teacher, x)
        m0 = init(4, 6, 0)
        for algo in ("lm", "scg", "brnn"):
            model, _ = train(m0, (x[:200], y[:200]),
                             TrainConfig(algorithm=algo, max_epochs=500))
            stats = error_stats(y[200:], mlp.forward_batch(model, x[200:]))
            assert stats.r_squared > 0.99, algo


def test_load_series_needs_an_input_path():
    with pytest.raises(ValueError, match="input_path"):
        pipeline.load_series(PipelineConfig())


def test_non_finite_forecast_is_a_training_error():
    # tanh(10) ~ 1, so the output 1e308 * tanh(10) + 1e308 overflows to inf
    model = mlp.MlpModel([1.0, 10.0, 1e308, 1e308], 1, 1)
    with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match="non-finite forecast at horizon step 1"):
        forecast_multi_step(model, [0.5], 3, NormParams(0.0, 1.0), 10.0)
