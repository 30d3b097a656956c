import json

import numpy as np
import pytest

from vrpcast import cli, forecast_multi_step, generate_synthetic, mlp
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

    def test_forecast_matches_library(self, series_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        assert run_cli("forecast", "--model", out / "model.json",
                       "--steps", 4, "--out", out) == 0
        lines = (out / "forecast.csv").read_text().strip().splitlines()
        cli_values = np.array([float(r.split(",")[1]) for r in lines[1:]])
        model, provenance = mlp.load(out / "model.json")
        expected = forecast_multi_step(
            model,
            provenance["last_window_residuals"],
            4,
            NormParams(**provenance["norm"]),
            provenance["last_observed_value"],
        )
        np.testing.assert_allclose(cli_values, expected, rtol=1e-12)

    def test_evaluate_saved_model(self, series_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(series_csv, out) == 0
        assert run_cli("evaluate", "--model", out / "model.json",
                       "--input", series_csv, "--out", tmp_path / "ev") == 0
        payload = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        assert "test_stats" in payload

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
        ("lag", "3"), ("hidden", 4.0), ("h_range", 5), ("h_range", [2, "x"]),
        ("train_fraction", "0.8"), ("mode", 1), ("algorithm", None), ("out_dir", 7),
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

    def test_config_file_supplies_input(self, series_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input_path": str(series_csv), "lag": 3, "hidden": 4,
            "algorithm": "lm", "max_epochs": 40,
        }))
        assert run_cli("train", "--config", cfg) == 0
        assert "algorithm lm" in capsys.readouterr().out
