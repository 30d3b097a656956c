"""Each benchmark check accepts the CLI's real artifacts and rejects a
corrupted copy, so that none of them can pass vacuously.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402

N_POINTS = 1000
LAG, HIDDEN = 2, 3
MAX_EPOCHS = 30


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Artifacts of one grid-search train, one compare and one evaluate."""
    from vrpcast import cli
    from vrpcast.data_ingest import generate_synthetic, save_csv

    base = tmp_path_factory.mktemp("bench")
    series, other, config = (str(base / n) for n in ("s.csv", "e.csv", "cfg.json"))
    spec = {"kind": "persistence_bursts", "n": N_POINTS}
    save_csv(generate_synthetic(spec, 3), series)
    save_csv(generate_synthetic(spec, 4), other)
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"max_epochs": MAX_EPOCHS}, fh)
    train, compare = str(base / "train"), str(base / "compare")
    evaluate = os.path.join(train, "eval")
    common = ["--input", series, "--config", config]
    assert cli.main(["train", *common, "--hidden", "2:4", "--out", train]) == 0
    assert cli.main(["compare", *common, "--lag", str(LAG), "--hidden", str(HIDDEN),
                     "--out", compare]) == 0
    assert cli.main(["evaluate", "--model", os.path.join(train, "model.json"),
                     "--input", other, "--out", evaluate]) == 0
    return {"train": train, "compare": compare, "evaluate": evaluate,
            "values": checks.read_values(series), "other": checks.read_values(other)}


def _check_train(run_dir, values):
    model = checks.check_model(run_dir, values)
    checks.check_kpss(run_dir, values)
    checks.check_entropy_profile(run_dir, values, model["lag"], 12, 16, 0.8)
    checks.check_grid(run_dir, 2, 4, model["hidden"])


def _check_compare(run_dir, values):
    checks.check_compare(run_dir, values, LAG, HIDDEN, MAX_EPOCHS, 0.8)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _scale_weight(model):
    params = model["params"]
    params[max(range(len(params)), key=lambda i: abs(params[i]))] *= 1.001


def _swap_grid_argmin(table):
    ranked = sorted(table, key=lambda e: (e["objective"], e["hidden"]))
    ranked[0]["objective"], ranked[1]["objective"] = ranked[1]["objective"] * 1.001, ranked[0]["objective"]


def _edit_csv_value(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lag, delta = lines[3].split(",")
    lines[3] = f"{lag},{float(delta) + 1e-6!r}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _set_compare(algorithm, edit):
    def apply(result):
        edit(result["algorithms"][algorithm])
    return apply


TRAIN_CORRUPTIONS = {
    "one weight in model.json": ("model.json", _scale_weight),
    "train_report e_d": ("train_report.json", lambda r: r.update(e_d=r["e_d"] * (1 + 1e-6))),
    "eval_report test MSE": ("eval_report.json",
                             lambda r: r["test_stats"].update(mean_squared_error=1.0)),
    "BRNN gamma above n_w": ("train_report.json", lambda r: r.update(gamma_effective=1e6)),
    "BRNN alpha not positive": ("train_report.json", lambda r: r.update(alpha=0.0)),
    "grid selected h not the argmin": ("grid_search.json", _swap_grid_argmin),
    "grid entry missing": ("grid_search.json", lambda t: t.pop()),
    "kpss statistic": ("kpss.json", lambda k: k["raw"].update(statistic=k["raw"]["statistic"] * 1.01)),
    "kpss verdict": ("kpss.json", lambda k: k["residuals"].update(
        reject_at_5pct=not k["residuals"]["reject_at_5pct"])),
    "entropy profile value": ("entropy_profile.csv", None),
    "lag in provenance": ("model.json", lambda m: m["provenance"].update(lag=m["provenance"]["lag"] + 1)),
}

COMPARE_CORRUPTIONS = {
    "algorithm missing": lambda r: r["algorithms"].pop("scg"),
    "algorithm error": _set_compare("lm", lambda e: e.update(error="diverged")),
    "test MSE outside the band": _set_compare(
        "brnn", lambda e: e["test_stats"].update(mean_squared_error=e["test_stats"]["mean_squared_error"] * 10)),
    "hidden size": lambda r: r.update(hidden=HIDDEN + 1),
}


def test_real_artifacts_pass(runs):
    _check_train(runs["train"], runs["values"])
    _check_compare(runs["compare"], runs["values"])


@pytest.mark.parametrize("name", sorted(TRAIN_CORRUPTIONS))
def test_train_checks_reject(runs, tmp_path, name):
    run_dir = str(tmp_path / "train")
    shutil.copytree(runs["train"], run_dir)
    filename, edit = TRAIN_CORRUPTIONS[name]
    path = os.path.join(run_dir, filename)
    if edit is None:
        _edit_csv_value(path)
    else:
        _edit_json(path, edit)
    with pytest.raises(checks.CheckError):
        _check_train(run_dir, runs["values"])


def test_entropy_check_rejects_another_selected_lag(runs):
    lag = checks.check_model(runs["train"], runs["values"])["lag"]
    with pytest.raises(checks.CheckError):
        checks.check_entropy_profile(runs["train"], runs["values"], lag + 1, 12, 16, 0.8)


@pytest.mark.parametrize("name", sorted(COMPARE_CORRUPTIONS))
def test_compare_checks_reject(runs, tmp_path, name):
    run_dir = str(tmp_path / "compare")
    shutil.copytree(runs["compare"], run_dir)
    _edit_json(os.path.join(run_dir, "comparison.json"), COMPARE_CORRUPTIONS[name])
    with pytest.raises(checks.CheckError):
        _check_compare(run_dir, runs["values"])


def test_evaluate_check_tells_saved_from_refitted_normaliser(runs, tmp_path):
    model_path = os.path.join(runs["train"], "model.json")
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)
    values = runs["other"]
    norm = model["provenance"]["norm"]
    saved = checks._test_mse(model, values, norm["min"], norm["max"])
    refit = checks._test_mse(model, values, *checks.training_norm(values, model["input_dim"], 0.8))
    assert saved != refit
    eval_dir = str(tmp_path / "eval")
    shutil.copytree(runs["evaluate"], eval_dir)
    report = os.path.join(eval_dir, "eval_report.json")
    for reported, outcome in ((saved, None), (refit, checks.KnownFault),
                              (saved * (1 + 1e-6), checks.CheckError)):
        _edit_json(report, lambda r: r["test_stats"].update(mean_squared_error=reported))
        if outcome is None:
            checks.check_evaluate(eval_dir, model_path, values)
        else:
            with pytest.raises(outcome) as info:
                checks.check_evaluate(eval_dir, model_path, values)
            assert (info.type is checks.KnownFault) == (outcome is checks.KnownFault)
