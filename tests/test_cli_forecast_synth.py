"""`forecast` and `synth` take no --config, and `forecast --input` reads its
series through the pipeline's load stage."""

import json

import numpy as np
import pytest

from vrpcast import cli, difference, forecast_multi_step, generate_synthetic, load_csv, mlp
from vrpcast.data_ingest import save_csv
from vrpcast.series_ops import NormParams


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(model.json path, a second series' CSV path) of one short fit."""
    tmp = tmp_path_factory.mktemp("trained")
    series_csv = tmp / "series.csv"
    other_csv = tmp / "other.csv"
    save_csv(generate_synthetic({"kind": "persistence_bursts", "n": 600}, 13), str(series_csv))
    save_csv(generate_synthetic({"kind": "persistence_bursts", "n": 500}, 29), str(other_csv))
    assert run_cli("train", "--input", series_csv, "--lag", 3, "--hidden", 4,
                   "--algo", "lm", "--seed", 1, "--out", tmp / "run") == 0
    return tmp / "run" / "model.json", other_csv


@pytest.fixture()
def bogus_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "radiance", "bogus": 1}))
    return path


def test_forecast_rejects_config(trained, bogus_config, tmp_path, capsys):
    model_json, _ = trained
    capsys.readouterr()
    assert run_cli("forecast", "--model", model_json, "--config", bogus_config,
                   "--out", tmp_path / "fc") == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --config" in captured.err
    assert captured.out.count("step ") == 0
    assert not (tmp_path / "fc").exists()


def test_synth_rejects_config(bogus_config, tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert run_cli("synth", "--n", 50, "--config", bogus_config, "--out", out) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


def test_forecast_input_error_carries_load_stage(trained, tmp_path, capsys):
    model_json, _ = trained
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,vrp_watts\n2020-01-01,1.0\nbad,2.0\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--model", model_json, "--input", bad) == 2
    evaluate_err = capsys.readouterr().err
    assert run_cli("forecast", "--model", model_json, "--input", bad) == 2
    forecast_err = capsys.readouterr().err
    assert forecast_err == evaluate_err == "error: [load] row 3: bad timestamp 'bad'\n"


def test_forecast_input_starts_from_the_series_end(trained, tmp_path, capsys):
    model_json, other_csv = trained
    assert run_cli("forecast", "--model", model_json, "--input", other_csv,
                   "--steps", 3, "--out", tmp_path / "fc") == 0
    lines = (tmp_path / "fc" / "forecast.csv").read_text().splitlines()
    assert lines[0] == "step,forecast_watts"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    model, provenance = mlp.load(model_json)
    series = load_csv(other_csv)
    expected = forecast_multi_step(model, difference(series).residuals[-model.input_dim:], 3,
                                   NormParams(**provenance["norm"]), float(series.values[-1]))
    np.testing.assert_array_equal([float(line.split(",")[1]) for line in lines[1:]], expected)
