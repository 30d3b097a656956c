"""The inspection subcommands run train's own front half and artifact writers."""

import json
import os
import subprocess
import sys

import pytest

import vrpcast
from vrpcast import cli, generate_synthetic
from vrpcast.data_ingest import save_csv

SRC = os.path.dirname(os.path.dirname(vrpcast.__file__))


def write_series(tmp_path, n, seed):
    path = tmp_path / "series.csv"
    save_csv(generate_synthetic({"kind": "persistence_bursts", "n": n}, seed), str(path))
    return path


def write_config(tmp_path, **payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("argv", [
    ["ingest"], ["stationarity"], ["lags"], ["train"], ["compare"],
    ["evaluate", "--model", "model.json"],
], ids=lambda argv: argv[0])
def test_config_without_input_is_usage_error(tmp_path, argv):
    cfg = write_config(tmp_path, max_epochs=5)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "vrpcast.cli", *argv, "--config", str(cfg)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "--input (or --config with input_path) is required" in proc.stderr


def test_ingest_and_train_write_identical_series_csv(tmp_path):
    series = write_series(tmp_path, 400, 5)
    cfg = write_config(tmp_path, max_epochs=5)
    assert cli.main(["ingest", "--input", str(series), "--out", str(tmp_path / "ing")]) == 0
    assert cli.main(["train", "--input", str(series), "--lag", "3", "--hidden", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    written = (tmp_path / "ing" / "series.csv").read_bytes()
    assert b"\r" not in written
    assert written == (tmp_path / "run" / "series.csv").read_bytes()


def test_lags_prints_the_lag_train_uses(tmp_path, capsys):
    # lag selection on all residuals picks 1 here, on the training prefix 2
    series = write_series(tmp_path, 2000, 36)
    cfg = write_config(tmp_path, max_epochs=5)
    capsys.readouterr()
    assert cli.main(["lags", "--input", str(series), "--out", str(tmp_path / "lags")]) == 0
    selected = capsys.readouterr().out.splitlines()[-2]
    assert cli.main(["train", "--input", str(series), "--hidden", "3",
                     "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    trained = capsys.readouterr().out.splitlines()[0]
    assert selected == "selected lag: 2"
    assert trained.startswith("algorithm brnn, lag 2, hidden 3")
    # train writes the profile lags writes
    assert ((tmp_path / "lags" / "entropy_profile.csv").read_bytes()
            == (tmp_path / "run" / "entropy_profile.csv").read_bytes())


def test_lags_honours_config_max_lag(tmp_path, capsys):
    series = write_series(tmp_path, 900, 13)
    cfg = write_config(tmp_path, input_path=str(series), max_lag=4)
    capsys.readouterr()
    assert cli.main(["lags", "--config", str(cfg), "--out", str(tmp_path / "lags")]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("lag ")]
    assert len(rows) == 4
    lines = (tmp_path / "lags" / "entropy_profile.csv").read_text().splitlines()
    assert lines[0] == "lag,delta"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]
