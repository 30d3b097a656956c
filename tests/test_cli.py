import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vrpcast
from vrpcast import (cli, forecast_multi_step, generate_synthetic, mlp, pipeline,
                     series_ops, stat_tests, trainers)
from vrpcast.data_ingest import save_csv
from vrpcast.series_ops import NormParams, fit_normalizer


@pytest.fixture()
def series_csv(tmp_path):
    series = generate_synthetic({"kind": "persistence_bursts", "n": 900}, 13)
    path = tmp_path / "series.csv"
    save_csv(series, str(path))
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("synth", "--kind", "white_noise", "--n", 200,
                       "--seed", 7, "--out", a) == 0
        assert run_cli("synth", "--kind", "white_noise", "--n", 200,
                       "--seed", 7, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_memory_is_a_failure_not_a_traceback(self, tmp_path, capsys, monkeypatch):
        # numpy raises MemoryError for an n too large to allocate
        def generate(spec, seed):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "generate_synthetic", generate)
        capsys.readouterr()
        assert run_cli("synth", "--n", 10 ** 11, "--out", tmp_path / "big.csv") == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 745. GiB for an array\n"
        assert "Traceback" not in err and not (tmp_path / "big.csv").exists()

    def test_default_seed_is_zero(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("synth", "--n", 200, "--out", a) == 0
        assert run_cli("synth", "--n", 200, "--seed", 0, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "ar", "n": 300, "phi": [0.6]}))
        out = tmp_path / "ar.csv"
        assert run_cli("synth", "--spec", spec, "--out", out) == 0
        assert out.exists()


class TestIngest:
    def test_round_trip(self, series_csv, tmp_path, capsys):
        out = tmp_path / "ingested"
        assert run_cli("ingest", "--input", series_csv, "--out", out) == 0
        assert "900 usable observations" in capsys.readouterr().out
        assert (out / "series.csv").exists()

    def test_missing_input_is_usage_error(self):
        assert run_cli("ingest") == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("ingest", "--input", tmp_path / "nope.csv") == 2


class TestStationarityAndLags:
    def test_stationarity_writes_kpss(self, series_csv, tmp_path, capsys):
        out = tmp_path / "stat"
        assert run_cli("stationarity", "--input", series_csv, "--out", out) == 0
        payload = json.loads((out / "kpss.json").read_text())
        assert set(payload) == {"raw", "residuals"}
        assert "KPSS statistic" in capsys.readouterr().out

    def test_lags_profile(self, series_csv, tmp_path, capsys):
        out = tmp_path / "lags"
        assert run_cli("lags", "--input", series_csv, "--max-lag", 8,
                       "--out", out) == 0
        text = (out / "entropy_profile.csv").read_text()
        assert text.splitlines()[0] == "lag,delta"
        assert "selected lag:" in capsys.readouterr().out


class TestTrainForecastEvaluate:
    def train(self, series_csv, out):
        return run_cli("train", "--input", series_csv, "--lag", 3,
                       "--hidden", 4, "--algo", "lm", "--seed", 1, "--out", out)

    def test_train_writes_artifacts(self, series_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        for name in ("model.json", "eval_report.json", "train_report.json"):
            assert (out / name).exists()
        assert "algorithm lm, lag 3, hidden 4" in capsys.readouterr().out

    def test_hidden_range_triggers_grid_search(self, series_csv, tmp_path):
        out = tmp_path / "grid"
        assert run_cli("train", "--input", series_csv, "--lag", 3,
                       "--hidden", "2:4", "--algo", "lm", "--out", out) == 0
        table = json.loads((out / "grid_search.json").read_text())
        assert [row["hidden"] for row in table] == [2, 3, 4]

    def test_single_size_writes_a_one_row_grid_table(self, series_csv, tmp_path):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        (row,) = json.loads((out / "grid_search.json").read_text())
        report = json.loads((out / "train_report.json").read_text())
        assert (row["hidden"], row["epochs_used"], row["error"]) == (4, report["epochs_used"],
                                                                     None)

    def test_brnn_grid_writes_skipped_rows(self, series_csv, tmp_path):
        out = tmp_path / "grid"
        assert run_cli("train", "--input", series_csv, "--lag", 3,
                       "--hidden", "2:12", "--out", out) == 0
        table = json.loads((out / "grid_search.json").read_text())
        assert [row["hidden"] for row in table] == list(range(2, 13))
        skipped = [row for row in table if row["skipped"] is not None]
        assert skipped and all(row["objective"] is None and row["error"] is None
                               for row in skipped)
        hidden = json.loads((out / "model.json").read_text())["hidden_dim"]
        assert hidden not in {row["hidden"] for row in skipped}

    def test_forecast_matches_library(self, series_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        model, provenance = mlp.load(out / "model.json")
        for steps in (1, 4, 20):
            expected = forecast_multi_step(
                model,
                provenance["last_window_residuals"],
                steps,
                NormParams(**provenance["norm"]),
                provenance["last_observed_value"],
            )
            # the saved state is the training series' end state, so both
            # sources of the window and level give the same forecast, bit for bit
            for source in ([], ["--input", series_csv]):
                fc = tmp_path / f"fc{steps}{len(source)}"
                assert run_cli("forecast", "--model", out / "model.json",
                               "--steps", steps, "--out", fc, *source) == 0
                lines = (fc / "forecast.csv").read_text().strip().splitlines()
                cli_values = np.array([float(r.split(",")[1]) for r in lines[1:]])
                np.testing.assert_array_equal(cli_values, expected)

    def test_evaluate_saved_model(self, series_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        assert run_cli("evaluate", "--model", out / "model.json",
                       "--input", series_csv, "--out", tmp_path / "ev") == 0
        payload = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        assert "test_stats" in payload
        assert (f"ACF fidelity (mean abs diff, lags 1-{pipeline.ACF_MAX_LAG}): "
                f"{payload['acf_fidelity']:.4f}\n") in capsys.readouterr().out

    def test_evaluate_uses_saved_normalizer(self, series_csv, tmp_path):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        other = generate_synthetic({"kind": "persistence_bursts", "n": 700}, 29)
        other_csv = tmp_path / "other.csv"
        save_csv(other, str(other_csv))
        assert run_cli("evaluate", "--model", out / "model.json",
                       "--input", other_csv, "--out", tmp_path / "ev") == 0
        reported = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        model, provenance = mlp.load(out / "model.json")
        p = model.input_dim
        values = other.values
        resid = np.diff(values)
        n_patterns = resid.size - p
        split = int(np.floor(provenance["train_fraction"] * n_patterns + 0.5))
        windows = np.stack([resid[k : k + n_patterns] for k in range(p)], axis=1)

        def test_mse(norm):
            pred = norm.invert(mlp.forward_batch(model, norm.apply(windows)))
            err = (resid[p:] - pred)[split:]
            return float(err @ err) / err.size

        saved = test_mse(NormParams(**provenance["norm"]))
        refit = test_mse(fit_normalizer(resid[: split + p]))
        assert saved != pytest.approx(refit, rel=1e-6)
        assert reported["test_stats"]["mean_squared_error"] == pytest.approx(saved, rel=1e-10)

    def test_evaluate_rejects_model_with_edited_lag(self, series_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        path = out / "model.json"
        payload = json.loads(path.read_text())
        payload["provenance"]["lag"] = 5
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("evaluate", "--model", path, "--input", series_csv) == 2
        assert "lag is 5" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("hidden_activation", "relu"),
                                            ("output_activation", "sigmoid")])
    def test_evaluate_and_forecast_reject_other_activation(self, series_csv, tmp_path,
                                                           capsys, key, value):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        path = out / "model.json"
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("evaluate", "--model", path, "--input", series_csv) == 2
        assert f"{key} is '{value}'" in capsys.readouterr().err
        assert run_cli("forecast", "--model", path, "--steps", 2,
                       "--out", tmp_path / "fc") == 2
        assert f"{key} is '{value}'" in capsys.readouterr().err


class TestCompare:
    def test_compare_byte_identical_reruns(self, series_csv, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            assert run_cli("compare", "--input", series_csv, "--lag", 3,
                           "--hidden", 4, "--seed", 2, "--out", out) == 0
            outs.append((out / "comparison.json").read_bytes())
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert set(payload["algorithms"]) == {"lm", "scg", "brnn"}

    def test_failed_algorithm_is_reported(self, series_csv, tmp_path, abort_training, capsys):
        abort_training({"lm"}, {4})
        assert run_cli("compare", "--input", series_csv, "--lag", 3, "--hidden", 4,
                       "--out", tmp_path / "c") == 0
        out = capsys.readouterr().out
        assert "lm: failed (abort lm h = 4)" in out
        assert "scg: test ME" in out and "brnn: test ME" in out
        payload = json.loads((tmp_path / "c" / "comparison.json").read_text())
        assert payload["algorithms"]["lm"] == {"error": "abort lm h = 4"}

    @staticmethod
    def compare_and_train(tmp_path, algo, hidden):
        """compare's entry for algo, and train's model, eval and train reports,
        on the same 600-point series at 30 epochs."""
        series, cfg = tmp_path / "series.csv", tmp_path / "cfg.json"
        assert run_cli("synth", "--n", 600, "--seed", 3, "--out", series) == 0
        cfg.write_text(json.dumps({"max_epochs": 30}))
        common = ["--input", series, "--config", cfg, "--lag", 3, "--hidden", hidden,
                  "--algo", algo]
        assert run_cli("compare", *common, "--out", tmp_path / "c") == 0
        assert run_cli("train", *common, "--out", tmp_path / "t") == 0
        compared = json.loads((tmp_path / "c" / "comparison.json").read_text())
        entry = compared["algorithms"][algo]
        trained = json.loads((tmp_path / "t" / "train_report.json").read_text())
        assert entry["test_stats"] == json.loads(
            (tmp_path / "t" / "eval_report.json").read_text())["test_stats"]
        assert (entry["stop_reason"], entry["epochs_used"]) == (trained["stop_reason"],
                                                                trained["epochs_used"])
        return compared["hidden"], json.loads((tmp_path / "t" / "model.json").read_text())

    @pytest.mark.parametrize("algo, hidden", [("brnn", 4), ("lm", 5)])
    def test_hidden_range_picks_the_size_train_picks(self, tmp_path, algo, hidden):
        compared, model = self.compare_and_train(tmp_path, algo, "2:5")
        assert compared == model["hidden_dim"] == hidden

    def test_single_size_entry_is_the_fit_train_reports(self, tmp_path):
        compared, model = self.compare_and_train(tmp_path, "brnn", "4")
        assert compared == model["hidden_dim"] == 4

    def test_grid_fit_is_not_refitted(self, series_csv, tmp_path, monkeypatch):
        calls = []
        real = trainers.train

        def train(model, patterns, config):
            calls.append((config.algorithm, model.hidden_dim))
            return real(model, patterns, config)

        monkeypatch.setattr(trainers, "train", train)
        assert run_cli("compare", "--input", series_csv, "--lag", 3, "--hidden", "2:4",
                       "--algo", "lm", "--out", tmp_path / "c") == 0
        hidden = json.loads((tmp_path / "c" / "comparison.json").read_text())["hidden"]
        assert calls == [("lm", 2), ("lm", 3), ("lm", 4), ("scg", hidden), ("brnn", hidden)]

    def test_undefined_r_squared_prints_undefined(self):
        stats = stat_tests.ErrorStats(mean_error=0.5, mean_squared_error=2.0, r_squared=None)
        assert cli._test_stats_line(stats) == "test ME 0.5 W, MSE 2 W^2, R^2 undefined"


class TestLmValidationStop:
    """lm holds out the last 15 % of the training rows as a validation block
    and stops on it; its artifacts keep one meaning of e_d."""

    @pytest.fixture(scope="class")
    def bursts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("lm_validation")
        series = generate_synthetic({"kind": "persistence_bursts", "n": 5000}, 9001)
        csv, config = root / "series.csv", root / "config.json"
        save_csv(series, str(csv))
        config.write_text(json.dumps({"max_epochs": 50}))
        return root, csv, config

    @staticmethod
    def training_rows(csv, lag):
        values = np.array([float(line.split(",")[1])
                           for line in Path(csv).read_text().splitlines()[1:]])
        resid = np.diff(values)
        n = resid.size - lag
        inputs = np.stack([resid[k : k + n] for k in range(lag)], axis=1)
        split = int(math.floor(0.8 * n + 0.5))
        return inputs[:split], resid[lag:][:split], resid[: split + lag]

    @classmethod
    def training_sse(cls, run_dir, csv):
        """SSE over every training row of model.json, by a numpy forward pass
        with the normaliser fitted on the training residuals."""
        model = json.loads((run_dir / "model.json").read_text())
        p, h = model["input_dim"], model["hidden_dim"]
        inputs, targets, touched = cls.training_rows(csv, p)
        lo, hi = touched.min(), touched.max()
        theta = np.array(model["params"])
        w1, b1 = theta[: h * p].reshape(h, p), theta[h * p : h * p + h]
        w2, b2 = theta[h * p + h : -1], theta[-1]
        out = np.tanh((inputs - lo) / (hi - lo) @ w1.T + b1) @ w2 + b2
        err = (targets - lo) / (hi - lo) - out
        return err, targets.size

    def test_compare_lm_stops_on_validation(self, bursts):
        root, csv, config = bursts
        assert run_cli("compare", "--input", csv, "--lag", 6, "--hidden", 9,
                       "--config", config, "--out", root / "c") == 0
        lm = json.loads((root / "c" / "comparison.json").read_text())["algorithms"]["lm"]
        assert (lm["stop_reason"], lm["converged"]) == ("validation", True)
        assert lm["epochs_used"] < 50
        # the same fit through train: its weights are the argmin of its trace
        assert run_cli("train", "--input", csv, "--lag", 6, "--hidden", 9, "--algo", "lm",
                       "--config", config, "--out", root / "t") == 0
        report = json.loads((root / "t" / "train_report.json").read_text())
        assert (report["stop_reason"], report["epochs_used"]) == ("validation",
                                                                  lm["epochs_used"])
        trace = report["validation_trace"]
        err, n = self.training_sse(root / "t", csv)
        n_val = int(0.15 * n)
        val_err = err[n - n_val:]
        assert float(val_err @ val_err) == pytest.approx(min(trace), rel=1e-9)
        assert int(np.argmin(trace)) == len(trace) - 7

    def test_lm_grid_e_d_covers_every_training_row(self, bursts):
        root, csv, config = bursts
        out = root / "g"
        assert run_cli("train", "--input", csv, "--lag", 6, "--hidden", "2:4", "--algo", "lm",
                       "--config", config, "--out", out) == 0
        report = json.loads((out / "train_report.json").read_text())
        err, n = self.training_sse(out, csv)
        assert report["e_d"] == pytest.approx(float(err @ err), rel=1e-9)
        assert report["validation_trace"] is not None
        hidden = json.loads((out / "model.json").read_text())["hidden_dim"]
        rows = json.loads((out / "grid_search.json").read_text())
        selected = next(r for r in rows if r["hidden"] == hidden)
        assert selected["objective"] == report["e_d"] / n
        # every size: its objective is the whole-block SSE of its fit over n
        patterns = series_ops.extract_patterns(
            np.diff(np.array([float(line.split(",")[1])
                              for line in csv.read_text().splitlines()[1:]])), 6, 0.8)
        for row in rows:
            _, fit = trainers.train(mlp.init(6, row["hidden"], row["hidden"]), patterns,
                                    trainers.TrainConfig(algorithm="lm", max_epochs=50))
            assert row["objective"] == fit.e_d / n
            assert (row["epochs_used"], row["converged"]) == (fit.epochs_used, fit.converged)


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_bad_flag_value(self, series_csv):
        assert run_cli("train", "--input", series_csv, "--algo", "adam") == 1

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,vrp_watts\n2020-01-01,not_a_number\n")
        assert run_cli("stationarity", "--input", bad) == 2

    def test_bad_config_keys(self, series_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input_path": str(series_csv), "bogus": 1}))
        assert run_cli("train", "--config", cfg) == 2

    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"), ("seed", True), ("max_epochs", 1.5), ("bins", None),
        ("lag", "3"), ("hidden", 4.0), ("hidden", [2, "x"]), ("hidden", [2, 3, 4]),
        ("train_fraction", "0.8"), ("mode", 1), ("algorithm", None), ("out_dir", 7),
        ("hidden", None),
    ])
    def test_bad_config_value_type(self, series_csv, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        payload = {"input_path": str(series_csv), "lag": 3, "hidden": 4, "max_epochs": 5}
        cfg.write_text(json.dumps(dict(payload, **{key: value})))
        capsys.readouterr()
        assert run_cli("train", "--config", cfg) == 2
        assert f"error: config key {key!r} must be " in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "{not json"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "forecast", "synth"])
    def test_json_input_not_an_object(self, series_csv, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = {
            "train": ["train", "--input", series_csv, "--config", bad],
            "evaluate": ["evaluate", "--input", series_csv, "--model", bad],
            "forecast": ["forecast", "--model", bad],
            "synth": ["synth", "--spec", bad, "--out", tmp_path / "s.csv"],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err
        assert "Traceback" not in err

    # A saved model that `forecast` runs from; each --model case below breaks it once.
    MODEL = {"input_dim": 1, "hidden_dim": 2, "params": [0.1] * 7, "provenance": {
        "lag": 1, "train_fraction": 0.8, "norm": {"min": 0, "max": 1},
        "last_window_residuals": [0.5], "last_observed_value": 10.0}}

    @pytest.mark.parametrize("option, payload, key", [
        ("--spec", {"kind": "ar", "n": [1]}, "n"),
        ("--spec", {"kind": "ar", "n": 50, "phi": {"a": 1}}, "phi"),
        ("--spec", {"n": "50"}, "n"),
        ("--spec", {"sigma": True}, "sigma"),
        ("--model", {"schema_version": 1}, "input_dim"),
        ("--model", dict(MODEL, provenance={"lag": 1}), "norm"),
        ("--model", dict(MODEL, params="abc"), "params"),
        ("--model", dict(MODEL, params=[0.1] * 5), "params"),
        ("--model", dict(MODEL, provenance=dict(
            MODEL["provenance"], norm={"min": 0, "max": 1, "mid": 0.5})), "mid"),
        ("--model", dict(MODEL, provenance=dict(
            MODEL["provenance"], last_observed_value="x")), "last_observed_value"),
        ("--model", dict(MODEL, input_dim=0, params=[0.1] * 5, provenance=dict(
            MODEL["provenance"], lag=0, last_window_residuals=[])), "input_dim"),
        ("--model", dict(MODEL, hidden_dim=0, params=[0.1]), "hidden_dim"),
        ("--model", dict(MODEL, provenance=dict(
            MODEL["provenance"], norm={"min": 1, "max": 1})), "max"),
        ("--model", dict(MODEL, provenance=dict(
            MODEL["provenance"], last_window_residuals=[math.nan])), "last_window_residuals"),
        ("--model", dict(MODEL, provenance=dict(
            MODEL["provenance"], norm={"min": 0, "max": math.inf})), "max"),
        ("--model", dict(MODEL, provenance=dict(
            MODEL["provenance"], last_observed_value=math.inf)), "last_observed_value"),
        ("--spec", {"kind": "white_noise", "n": 50, "sigma": 10 ** 400}, "sigma"),
        ("--model", dict(MODEL, params=[10 ** 400] + [0.1] * 6), "params"),
        ("--model", dict(MODEL, provenance=dict(
            MODEL["provenance"], train_fraction=1.5)), "train_fraction"),
        ("--model", dict(MODEL, provenance=dict(
            MODEL["provenance"], train_fraction=0.0)), "train_fraction"),
    ])
    def test_json_input_bad_key(self, tmp_path, capsys, option, payload, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        argv = (["synth", "--spec", bad, "--out", tmp_path / "s.csv"] if option == "--spec"
                else ["forecast", "--model", bad])
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting, value", [
        ("max_epochs", -5), ("max_epochs", 0), ("algorithm", "foo"), ("train_fraction", 0),
        ("train_fraction", math.nan), ("train_fraction", 1.5), ("seed", -1)])
    def test_bad_training_setting_fails_before_load(self, series_csv, tmp_path, capsys,
                                                    caplog, setting, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input_path": str(series_csv), setting: value}))
        capsys.readouterr()
        with caplog.at_level(logging.INFO):
            assert run_cli("train", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting in err
        assert "loaded" not in caplog.text

    def test_lags_rejects_a_train_fraction_before_load(self, series_csv, tmp_path, capsys,
                                                       caplog):
        # lags profiles the training prefix of the residuals; a fraction
        # above 1 would profile the test block too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input_path": str(series_csv), "train_fraction": 1.5}))
        capsys.readouterr()
        with caplog.at_level(logging.INFO):
            assert run_cli("lags", "--config", cfg) == 2
        out, err = capsys.readouterr()
        assert err == "error: train_fraction must be in (0, 1), not 1.5\n"
        assert out == "" and "loaded" not in caplog.text

    def test_config_h_range_is_unknown(self, series_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input_path": str(series_csv), "h_range": [2, 6]}))
        capsys.readouterr()
        assert run_cli("train", "--config", cfg) == 2
        assert "error: config key 'h_range' is unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_hidden_range_names_hidden(self, tmp_path, capsys, source):
        # the input does not exist: the config rejects the range before any read
        missing = tmp_path / "missing.csv"
        if source == "flag":
            argv = ["--input", missing, "--lag", 2, "--hidden", "5:2"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"input_path": str(missing), "lag": 2,
                                       "hidden": [5, 2]}))
            argv = ["--config", cfg]
        capsys.readouterr()
        assert run_cli("train", *argv) == 2
        assert capsys.readouterr() == ("", "error: hidden 5:2 is an empty range\n")

    def test_config_hidden_range_equals_flag(self, series_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        common = {"input_path": str(series_csv), "lag": 3, "algorithm": "lm",
                  "max_epochs": 20}
        cfg.write_text(json.dumps(dict(common, hidden=[2, 6], out_dir=str(tmp_path / "a"))))
        assert run_cli("train", "--config", cfg) == 0
        cfg.write_text(json.dumps(dict(common, out_dir=str(tmp_path / "b"))))
        assert run_cli("train", "--config", cfg, "--hidden", "2:6") == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "grid_search.json" in names
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("command, n, flags, stage", [
        ("train", 15, ["--hidden", 2], "kpss-raw"),
        ("train", 60, ["--hidden", 2], "lag-selection"),
        # 300 points leave 299 residuals; a lag-p window needs more than p + 1
        ("train", 300, ["--lag", 400, "--hidden", 2], "extract-patterns"),
        ("train", 300, ["--lag", 298, "--hidden", 2], "extract-patterns"),
        ("train", 300, ["--lag", 2, "--hidden", 3, "--train-fraction", 0.001], "evaluate"),
        ("compare", 300, ["--lag", 400, "--hidden", 2], "extract-patterns"),
        ("train", 100, ["--hidden", 3], "evaluate"),
        ("compare", 100, ["--lag", 2, "--hidden", 3], "evaluate"),
    ])
    def test_stage_failure_names_the_stage(self, tmp_path, capsys, command, n, flags, stage):
        path = tmp_path / "short.csv"
        save_csv(generate_synthetic({"kind": "persistence_bursts", "n": n}, 3), str(path))
        capsys.readouterr()
        assert run_cli(command, "--input", path, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{stage}] ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--lag", 0, "--hidden", 2], "lag must be at least 1, not 0"),
        ("train", ["--lag", 2, "--hidden", 0], "hidden sizes must be at least 1, not 0"),
        ("compare", ["--lag", 2, "--hidden", 0], "hidden sizes must be at least 1, not 0"),
        ("train", ["--hidden", "0:4"], "hidden sizes must be at least 1, not (0, 4)"),
        ("lags", ["--max-lag", 0], "max_lag must be at least 1, not 0"),
        ("lags", ["--bins", 1], "bins must be at least 2, not 1"),
        ("compare", ["--lag", 2, "--hidden", "5:2"], "hidden 5:2 is an empty range"),
    ], ids=["train-lag", "train-hidden", "compare-hidden", "train-hidden-range",
            "lags-max-lag", "lags-bins", "compare-hidden-empty"])
    def test_bad_size_fails_before_load(self, tmp_path, capsys, command, flags, message):
        # the input does not exist: the config rejects the size before any read
        capsys.readouterr()
        assert run_cli(command, "--input", tmp_path / "missing.csv", *flags) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bad_mode_fails_before_load(self, tmp_path, capsys):
        # --mode takes only the modes; a config file's mode is checked when built
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "foo"}))
        capsys.readouterr()
        assert run_cli("train", "--input", tmp_path / "missing.csv", "--config", cfg) == 2
        assert capsys.readouterr() == ("", "error: mode must be one of power, radiance, "
                                           "not 'foo'\n")

    @pytest.mark.parametrize("command, rows, message", [
        ("evaluate", None, "[evaluate] the test block has 19 one-step forecasts; "
                           "their ACF to lag 20 needs at least 21\n"),
        ("forecast", 3, "[forecast] window has 2 residuals; the model needs 6\n"),
    ])
    def test_saved_model_on_short_input_names_the_stage(self, tmp_path, capsys, command, rows,
                                                        message):
        # 100 points leave 19 test forecasts, too few for the ACF to lag 20;
        # 3 rows leave 2 residuals for a lag-6 model's window
        longer, path = tmp_path / "longer.csv", tmp_path / "short.csv"
        save_csv(generate_synthetic({"kind": "persistence_bursts", "n": 400}, 3), str(longer))
        save_csv(generate_synthetic({"kind": "persistence_bursts", "n": 100}, 3), str(path))
        if rows is not None:
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:1 + rows]))
        assert run_cli("train", "--input", longer, "--lag", 6, "--hidden", 3, "--algo", "lm",
                       "--out", tmp_path / "run") == 0
        capsys.readouterr()
        assert run_cli(command, "--model", tmp_path / "run" / "model.json", "--input", path) == 2
        assert capsys.readouterr().err == f"error: {message}"

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--hidden", "2:4", "--config", "cfg.json"]),
        ("compare", ["--lag", 2, "--hidden", 3]),
    ])
    def test_short_test_block_fails_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                   command, flags):
        def train(*args):
            raise AssertionError("trainers.train was called")

        monkeypatch.setattr(trainers, "train", train)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"max_epochs": 5}))
        assert run_cli("synth", "--n", 100, "--seed", 3, "--out", "short.csv") == 0
        capsys.readouterr()
        assert run_cli(command, "--input", "short.csv", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [evaluate] the test block has ")
        assert err.endswith(" one-step forecasts; their ACF to lag 20 needs at least 21\n")

    def test_short_training_block_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def train(*args):
            raise AssertionError("trainers.train was called")

        monkeypatch.setattr(trainers, "train", train)
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", "--n", 600, "--seed", 3, "--out", "series.csv") == 0
        capsys.readouterr()
        assert run_cli("train", "--input", "series.csv", "--lag", 3, "--hidden", 3,
                       "--train-fraction", 0.001) == 2
        assert capsys.readouterr().err == (
            "error: [evaluate] the training block has 1 of the 596 patterns; "
            "the fit and the two-sample t-test need at least 2\n")

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_single_size_abort_names_the_cause(self, series_csv, capsys, abort_training,
                                               command):
        abort_training({"brnn"}, {4})
        capsys.readouterr()
        assert run_cli(command, "--input", series_csv, "--lag", 3, "--hidden", 4) == 2
        assert capsys.readouterr().err == (
            "error: [train] every hidden size aborted; h = 4: abort brnn h = 4\n")

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 2.00 GiB for an array", "Unable to allocate 2.00 GiB for an array"),
        ("", "MemoryError")], ids=["numpy", "bare"])
    def test_memory_error_names_the_stage(self, series_csv, capsys, monkeypatch, message,
                                          shown):
        def train(*args):
            raise MemoryError(message)

        monkeypatch.setattr(trainers, "train", train)
        capsys.readouterr()
        assert run_cli("train", "--input", series_csv, "--lag", 3, "--hidden", 4) == 2
        assert capsys.readouterr().err == f"error: [train] {shown}\n"

    def test_config_file_supplies_input(self, series_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input_path": str(series_csv), "lag": 3, "hidden": 4,
            "algorithm": "lm", "max_epochs": 40,
        }))
        assert run_cli("train", "--config", cfg) == 0
        assert "algorithm lm" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    # scipy is a test-only reference; importing it costs every process
    # about 25 MiB and 0.4 s.
    env = dict(os.environ, PYTHONPATH=str(Path(vrpcast.__file__).parents[1]))
    code = ("import sys, vrpcast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"


def test_artifacts_do_not_depend_on_the_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of more than about 10 000 elements over
    # its threads; at 15 000 points the training residuals, KPSS's sums and
    # the training block's error sums are longer than that
    save_csv(generate_synthetic({"kind": "persistence_bursts", "n": 15_000}, 7),
             str(tmp_path / "series.csv"))
    (tmp_path / "cfg.json").write_text(json.dumps({"max_epochs": 20}))
    code = ("import sys; from vrpcast import cli; sys.exit(cli.main("
            "['train', '--input', '../series.csv', '--lag', '6', '--hidden', '9',"
            " '--config', '../cfg.json', '--out', 'run']) or cli.main("
            "['evaluate', '--model', 'run/model.json', '--input', '../series.csv', '--out', 'eval']))")
    trees = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"blas{threads}"
        cwd.mkdir()
        env = {k: v for k, v in os.environ.items() if k not in ("MKL_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(PYTHONPATH=str(Path(vrpcast.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        trees.append((out, {str(p.relative_to(cwd)): p.read_bytes()
                            for p in sorted(cwd.rglob("*")) if p.is_file()}))
    assert "run/kpss.json" in trees[0][1] and "eval/eval_report.json" in trees[0][1]
    assert trees[0] == trees[1]
