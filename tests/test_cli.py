"""End-to-end tests of the command-line front end.

Most cases drive `cli.main(argv)` in-process (same code path as the console
script, without interpreter startup); one test exercises the installed
`multivec` entry point through a real subprocess.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from multivec import cli
from multivec.errors import FlatParamsError
from multivec.families import FAMILIES


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_params(path, mapping):
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def pair_csv(tmp_path_factory):
    # one shared synthetic data set for the fit tests: 2000 dependent pairs
    # from alpha=5, beta=8, sigma1=1, sigma2=2, kotz (r=0.4, q=1.5, s=1.1)
    tmp = tmp_path_factory.mktemp("pairs")
    params = tmp / "truth.json"
    params.write_text(
        json.dumps(
            {"alpha": 5.0, "beta": 8.0, "sigma1": 1.0, "sigma2": 2.0,
             "r": 0.4, "q": 1.5, "s": 1.1}
        ),
        encoding="utf-8",
    )
    out = tmp / "pairs.csv"
    rc = cli.main(
        ["sample", "--model", "kotz-gamma", "--params", str(params),
         "-n", "2000", "--seed", "11", "--out", str(out)]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# eval


def test_eval_prints_scalar_gamma_log_density(tmp_path, capsys):
    # kotz (r=1/2, q=1, s=1) with alpha=1, sigma=1 is Exponential(scale 2):
    # log f(2) = -log 2 - 1
    p = write_params(tmp_path / "p.json",
                     {"alpha": 1.0, "sigma": 1.0, "r": 0.5, "q": 1.0, "s": 1.0})
    rc, out, err = run_cli(["eval", "--model", "kotz-gamma", "--params", p,
                            "--point", "2"], capsys)
    assert rc == 0
    assert out == "-1.69314718056\n"
    assert err == ""


def test_eval_outside_support_prints_minus_inf(tmp_path, capsys):
    p = write_params(tmp_path / "p.json",
                     {"alpha1": 1.0, "alpha0": 2.0, "beta1": 1.5})
    rc, out, _ = run_cli(["eval", "--model", "mv-beta1", "--params", p,
                          "--point", "1.5"], capsys)
    assert rc == 0
    assert out == "-inf\n"


def test_eval_missing_param_key_exits_1(tmp_path, capsys):
    p = write_params(tmp_path / "p.json",
                     {"alpha": 1.0, "r": 0.5, "q": 1.0, "s": 1.0})
    rc, out, err = run_cli(["eval", "--model", "kotz-gamma", "--params", p,
                            "--point", "2"], capsys)
    assert rc == 1
    assert "params missing key 'sigma'" in err


def test_eval_unknown_model_exits_1(tmp_path, capsys):
    p = write_params(tmp_path / "p.json", {"alpha": 1.0})
    rc, _, err = run_cli(["eval", "--model", "no-such-model", "--params", p,
                          "--point", "1"], capsys)
    assert rc == 1
    assert "unknown model 'no-such-model'" in err
    assert "kotz-gamma" in err  # the error lists what IS available


def test_eval_malformed_point_exits_1(tmp_path, capsys):
    p = write_params(tmp_path / "p.json",
                     {"alpha": 1.0, "sigma": 1.0, "r": 0.5, "q": 1.0, "s": 1.0})
    rc, _, err = run_cli(["eval", "--model", "kotz-gamma", "--params", p,
                          "--point", "1,foo"], capsys)
    assert rc == 1
    assert "--point" in err


def test_flag_error_exits_1_not_2(tmp_path):
    # exit code 2 is reserved for non-convergence, so argparse errors must
    # come back as 1
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fit", "--model", "kotz-gamma", "--mode", "sideways",
                  "--input", "x.csv", "--out", "y.json"])
    assert excinfo.value.code == 1


# ---------------------------------------------------------------------------
# sample


def test_sample_same_seed_same_bytes(tmp_path, capsys):
    p = write_params(tmp_path / "p.json",
                     {"mu1": 0.0, "mu2": 1.0, "sigma1": 1.0, "sigma2": 2.0,
                      "r": 0.5, "q": 1.0, "s": 1.0})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc, _, _ = run_cli(["sample", "--model", "mv-elliptical", "--params", p,
                            "-n", "500", "--seed", "9", "--out", str(out)], capsys)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    rows = np.loadtxt(a, delimiter=",", skiprows=1)
    assert rows.shape == (500, 2)


def test_sample_zero_rows_writes_header_only(tmp_path, capsys):
    p = write_params(tmp_path / "p.json",
                     {"alpha": 5.0, "beta": 8.0, "sigma1": 1.0, "sigma2": 2.0,
                      "r": 0.4, "q": 1.5, "s": 1.1})
    out = tmp_path / "empty.csv"
    rc, _, _ = run_cli(["sample", "--model", "kotz-gamma", "--params", p,
                        "-n", "0", "--seed", "1", "--out", str(out)], capsys)
    assert rc == 0
    assert out.read_text(encoding="utf-8") == "u,v\n"


def test_sample_negative_n_exits_1(tmp_path, capsys):
    p = write_params(tmp_path / "p.json",
                     {"alpha": 5.0, "beta": 8.0, "sigma1": 1.0, "sigma2": 2.0,
                      "r": 0.4, "q": 1.5, "s": 1.1})
    rc, _, err = run_cli(["sample", "--model", "kotz-gamma", "--params", p,
                          "-n", "-3", "--seed", "1", "--out", str(tmp_path / "x.csv")],
                         capsys)
    assert rc == 1
    assert "-n must be >= 0" in err


# ---------------------------------------------------------------------------
# every model


_KOTZ = {"q": 1.3, "r": 0.7, "s": 1.1}
MODEL_PARAMS = {  # model -> (flat params, sample header)
    "kotz-gamma": ({"alpha": 2.0, "beta": 3.0, "sigma1": 1.0, "sigma2": 1.5, **_KOTZ}, "u,v"),
    "mv-gengamma": ({"alpha1": 2.0, "alpha2": 1.3, "sigma1": 1.0, "sigma2": 0.8, **_KOTZ}, "u,v"),
    "mv-elliptical": ({"mu1": 0.1, "mu2": -0.4, "sigma1": 1.0, "sigma2": 0.6, **_KOTZ}, "u,v"),
    "log-elliptical": ({"mu1": 0.1, "mu2": -0.4, "sigma1": 1.0, "sigma2": 0.6, **_KOTZ}, "u,v"),
    "mv-t": ({"alpha0": 1.6, "beta1": 1.0, "beta2": 2.5}, "u,v"),
    "mv-pearson2": ({"alpha0": 1.3, "beta1": 1.2, "beta2": 0.7}, "u,v"),
    "mv-beta1": ({"alpha0": 1.5, "alpha1": 1.0, "alpha2": 2.0, "beta1": 1.0, "beta2": 3.0}, "u,v"),
    "mv-beta2": ({"alpha0": 2.2, "alpha1": 1.4, "alpha2": 1.1, "beta1": 1.0, "beta2": 0.8}, "u,v"),
    "gengamma-pearson7": ({"alpha0": 1.5, "sigma0": 1.0, "sigma1": 0.9, **_KOTZ}, "s0,u"),
    "gengamma-pearson2": ({"alpha0": 1.8, "sigma0": 0.9, "sigma1": 1.05, **_KOTZ}, "s0,u"),
    "gengamma-beta1": ({"alpha0": 1.4, "alpha1": 1.2, "sigma0": 1.0, "sigma1": 0.8, **_KOTZ}, "s0,u"),
    "gengamma-beta2": ({"alpha0": 1.3, "alpha1": 1.1, "sigma0": 1.0, "sigma1": 0.95, **_KOTZ}, "s0,u"),
}


@pytest.mark.parametrize("model", sorted(cli._MODELS))
def test_every_model_samples_evaluates_and_names_missing_keys(model, tmp_path, capsys):
    params, header = MODEL_PARAMS[model]
    p = write_params(tmp_path / "p.json", params)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc, _, err = run_cli(["sample", "--model", model, "--params", p,
                              "-n", "5", "--seed", "3", "--out", str(out)], capsys)
        assert rc == 0, err
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) == 6
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])

    point = f"--point={lines[1]}"
    rc, out, err = run_cli(["eval", "--model", model, "--params", p, point], capsys)
    assert rc == 0, err
    assert math.isfinite(float(out))
    for key in params:
        dropped = write_params(tmp_path / "d.json",
                               {k: v for k, v in params.items() if k != key})
        rc, _, err = run_cli(["eval", "--model", model, "--params", dropped, point], capsys)
        assert rc == 1
        assert f"params missing key '{key}'" in err


@pytest.mark.parametrize("model", ["mv-pearson2", "gengamma-pearson2", "mv-elliptical",
                                   "gengamma-beta2"])
def test_eval_at_an_overflowing_point_prints_minus_inf_and_no_warning(model, tmp_path, capsys):
    # squares and products of 1e300 overflow: the density reads them as +inf
    p = write_params(tmp_path / "p.json", MODEL_PARAMS[model][0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(["eval", "--model", model, "--params", p,
                                "--point=1e300,1e300"], capsys)
    assert rc == 0
    assert out == "-inf\n"
    assert err == ""
    assert [str(w.message) for w in caught] == []


def test_models_are_the_families_with_flat_keys_and_errors_are_typed():
    assert set(cli._MODELS) == set(MODEL_PARAMS)
    assert all(FAMILIES[m].count is not None for m in cli._MODELS)
    with pytest.raises(FlatParamsError, match="params missing key 'beta2'"):
        FAMILIES["mv-t"].build({"alpha0": 1.6, "beta1": 1.0}, 2)
    with pytest.raises(FlatParamsError, match="must be a finite number"):
        FAMILIES["mv-t"].build({"alpha0": "x", "beta1": 1.0}, 1)


@pytest.mark.parametrize("model", ["gengamma-pearson7", "gengamma-pearson2"])
def test_sample_joint_model_without_sigma1_names_it(model, tmp_path, capsys):
    params = {k: v for k, v in MODEL_PARAMS[model][0].items() if k != "sigma1"}
    p = write_params(tmp_path / "p.json", params)
    rc, _, err = run_cli(["sample", "--model", model, "--params", p,
                          "-n", "4", "--seed", "1", "--out", str(tmp_path / "x.csv")], capsys)
    assert rc == 1
    assert "params missing key 'sigma1'" in err


# ---------------------------------------------------------------------------
# fit


def test_fit_dependent_round_trip_recovers_shapes(pair_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    rc, _, _ = run_cli(["fit", "--model", "kotz-gamma", "--mode", "dependent",
                        "--input", str(pair_csv), "--out", str(out)], capsys)
    # the fit estimates (alpha, beta, sigma2/sigma1) at a real optimum; the
    # single shared generator draw cannot fix the rest, which meta.pinned names
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["mode"] == "dependent"
    assert doc["meta"]["converged"] is True
    assert doc["meta"]["pinned"] == ["q", "r", "s", "sigma1", "sigma2"]
    assert abs(doc["params"]["alpha"] - 5.0) / 5.0 < 0.10
    assert abs(doc["params"]["beta"] - 8.0) / 8.0 < 0.10
    assert math.isfinite(doc["loglik"])


def test_fit_independent_exits_0_with_ten_params(pair_csv, tmp_path, capsys):
    out = tmp_path / "ifit.json"
    rc, _, _ = run_cli(["fit", "--model", "kotz-gamma", "--mode", "independent",
                        "--input", str(pair_csv), "--out", str(out)], capsys)
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["meta"]["converged"] is True
    assert sorted(doc["params"]) == [
        "alpha", "beta", "q1", "q2", "r1", "r2", "s1", "s2", "sigma1", "sigma2",
    ]
    # output documents are canonical JSON: load -> re-encode is byte identical
    raw = out.read_bytes()
    assert cli._canonical_json(json.loads(raw.decode("utf-8"))).encode("utf-8") == raw


def test_fit_zero_entry_is_rejected_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("u,v\n1.0,2.0\n0.0,1.2\n3.0,4.0\n", encoding="utf-8")
    rc, _, err = run_cli(["fit", "--model", "kotz-gamma", "--mode", "dependent",
                          "--input", str(bad), "--out", str(tmp_path / "o.json")],
                         capsys)
    assert rc == 1
    assert "line 3: column u must be a positive decimal, got 0.0" in err


def test_fit_wrong_header_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1.0,2.0\n1.0,2.0\n1.0,2.0\n", encoding="utf-8")
    rc, _, err = run_cli(["fit", "--model", "kotz-gamma", "--mode", "dependent",
                          "--input", str(bad), "--out", str(tmp_path / "o.json")],
                         capsys)
    assert rc == 1
    assert "line 1: expected header 'u,v'" in err


def test_fit_too_few_rows_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("u,v\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    rc, _, err = run_cli(["fit", "--model", "kotz-gamma", "--mode", "independent",
                          "--input", str(bad), "--out", str(tmp_path / "o.json")],
                         capsys)
    assert rc == 1
    assert "need at least 3 data rows, got 2" in err


def test_fit_iteration_cap_exits_2(pair_csv, tmp_path, capsys):
    out = tmp_path / "capped.json"
    rc, _, _ = run_cli(["fit", "--model", "kotz-gamma", "--mode", "independent",
                        "--input", str(pair_csv), "--out", str(out),
                        "--max-iters", "1"], capsys)
    assert rc == 2
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["meta"]["converged"] is False  # result still written for inspection


# ---------------------------------------------------------------------------
# check


def test_check_identities_passes_and_is_deterministic(capsys):
    argv = ["check", "--suite", "identities", "--seed", "5", "--n-draws", "20000"]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert len(records) >= 20
    for rec in records:
        assert sorted(rec) == ["details", "name", "passed", "residual", "tolerance"]
        assert rec["passed"] is True


def test_check_corrupt_hook_exits_3(capsys):
    rc, out, _ = run_cli(["check", "--suite", "identities", "--seed", "5",
                          "--n-draws", "5000", "--corrupt"], capsys)
    assert rc == 3
    last = json.loads(out.splitlines()[-1])
    assert last["name"] == "corrupt-hook-mis-scaled-density"
    assert last["passed"] is False


def test_check_rejects_malformed_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("MULTIVEC_THREADS", "many")
    rc, _, err = run_cli(["check", "--suite", "identities", "--n-draws", "5000"],
                         capsys)
    assert rc == 1
    assert "MULTIVEC_THREADS" in err


# ---------------------------------------------------------------------------
# grid


def test_grid_surface_is_symmetric_and_carries_the_mass(tmp_path, capsys):
    # alpha=beta, sigma1=sigma2 makes the surface symmetric in (u, v); with
    # q=1, s=1 the joint factorizes into two Gamma(2, scale 2) margins,
    # giving an independent closed form for the box mass
    p = write_params(tmp_path / "p.json",
                     {"alpha": 2.0, "beta": 2.0, "sigma1": 1.0, "sigma2": 1.0,
                      "r": 0.5, "q": 1.0, "s": 1.0})
    out = tmp_path / "grid.csv"
    rc, _, _ = run_cli(["grid", "--model", "kotz-gamma-2d", "--params", p,
                        "--range", "0.05,14,0.05,14", "--steps", "121",
                        "--out", str(out)], capsys)
    assert rc == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (121 * 121, 3)
    pdf = rows[:, 2].reshape(121, 121)
    assert np.max(np.abs(pdf - pdf.T)) < 1e-12
    us = rows[:, 0].reshape(121, 121)[:, 0]
    mass = np.trapezoid(np.trapezoid(pdf, us, axis=1), us)
    margin = stats.gamma(2.0, scale=2.0)
    expected = (margin.cdf(14.0) - margin.cdf(0.05)) ** 2
    assert abs(mass - expected) < 0.01


def test_grid_single_step_emits_one_corner_row(tmp_path, capsys):
    p = write_params(tmp_path / "p.json",
                     {"alpha": 1.0, "beta": 1.0, "sigma1": 1.0, "sigma2": 1.0,
                      "r": 0.5, "q": 1.0, "s": 1.0})
    out = tmp_path / "one.csv"
    rc, _, _ = run_cli(["grid", "--model", "kotz-gamma-2d", "--params", p,
                        "--range", "1,2,3,4", "--steps", "1", "--out", str(out)],
                       capsys)
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "u,v,pdf"
    assert len(lines) == 2
    u, v, pdf = (float(tok) for tok in lines[1].split(","))
    assert (u, v) == (1.0, 3.0)
    # the factorized case again: f(u, v) = (1/4) exp(-(u + v)/2)
    assert pdf == pytest.approx(0.25 * math.exp(-2.0), rel=1e-12)


def test_grid_invalid_ranges_exit_1(tmp_path, capsys):
    p = write_params(tmp_path / "p.json",
                     {"alpha": 1.0, "beta": 1.0, "sigma1": 1.0, "sigma2": 1.0,
                      "r": 0.5, "q": 1.0, "s": 1.0})
    for rng in ("3,1,1,2", "-1,2,1,2", "1,2,1"):
        # --range= form: a bare "-1,..." token would be read as a flag
        rc, _, err = run_cli(["grid", "--model", "kotz-gamma-2d", "--params", p,
                              f"--range={rng}", "--steps", "5",
                              "--out", str(tmp_path / "x.csv")], capsys)
        assert rc == 1
        assert "--range" in err


# ---------------------------------------------------------------------------
# console script


def test_installed_entry_point_reports_version():
    exe = shutil.which("multivec")
    cmd = [exe, "--version"] if exe else [sys.executable, "-m", "multivec.cli",
                                          "--version"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("multivec ")
