"""End-to-end tests of the command-line front end.

Most cases drive `cli.main(argv)` in-process (same code path as the console
script, without interpreter startup); one test exercises the installed
`multivec` entry point through a real subprocess.
"""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
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


def test_readme_families_table_names_every_cli_model():
    # the backticked names in the first column of README's families table
    # are the models the CLI runs, no more and no fewer
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Families\n", 1)[1].strip().split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # past the header and its rule
    named = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(named) == sorted(cli._MODELS) and len(named) == len(set(named))


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
    # past two columns the header names them x1, x2, ...
    for model, params, header in (
        ("kotz-gamma", {"alpha": 5.0, "beta": 8.0, "sigma1": 1.0, "sigma2": 2.0,
                        "r": 0.4, "q": 1.5, "s": 1.1}, "u,v\n"),
        ("mv-t", {"alpha0": 1.6, "beta1": 1.0, "beta2": 2.5, "beta3": 0.5}, "x1,x2,x3\n"),
    ):
        p = write_params(tmp_path / "p.json", params)
        out = tmp_path / "empty.csv"
        rc, _, _ = run_cli(["sample", "--model", model, "--params", p,
                            "-n", "0", "--seed", "1", "--out", str(out)], capsys)
        assert rc == 0
        assert out.read_text(encoding="utf-8") == header


def test_csv_rows_are_the_17_digit_decimals_of_each_value(tmp_path):
    rows = np.array([[0.1, -0.0, 1e-310], [2.0 / 3.0, 1e300, np.inf], [5.0, -7.25, 0.0]])
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), ["a", "b", "c"], rows)
    want = "a,b,c\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
    assert out.read_text(encoding="utf-8") == want


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


# JSON values a params key may hold that no key, or no sigma key, can use
_HOSTILE = {"true": True, "null": None, "string": "1", "list": [], "400-digit-integer": 10**400,
            "1e200": 1e200}


@pytest.mark.parametrize("model", sorted(cli._MODELS))
def test_every_key_of_every_model_reads_a_hostile_value_as_a_density_or_one_error(
        model, tmp_path, capsys):
    params, header = MODEL_PARAMS[model]
    point = "--point=" + ",".join(["0.3"] * len(header.split(",")))
    for key in params:
        for name, value in _HOSTILE.items():
            p = write_params(tmp_path / "p.json", {**params, key: value})
            rc, out, err = run_cli(["eval", "--model", model, "--params", p, point], capsys)
            assert rc in (0, 1), (key, name, err)
            if rc == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, \
                    (key, name, err)


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

# sha256 of each mode's --out document for pair_csv: the fitted values, their
# 17-digit decimals and the meta block (a version bump changes them too)
PINNED_FIT_OUT = {
    "dependent": "1e5a76fae0328f68b28406ccab7ef3b439562d2e16e50843ecb1e24b21ec245c",
    "independent": "51eb609b621e46f8740196ea11fddb78db38f3b43ec6a7355be79e7ebb06ac58",
}


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
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_FIT_OUT["dependent"]


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
    assert hashlib.sha256(raw).hexdigest() == PINNED_FIT_OUT["independent"]


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


def test_fit_past_the_upper_bracket_edge_exits_2(tmp_path, capsys):
    # a column drawn as Gamma(3)^(1/64) has its profile optimum beyond s = 32
    rng = np.random.default_rng(0)
    pairs = tmp_path / "pairs.csv"
    cli._write_csv(str(pairs), ["u", "v"], np.column_stack(
        [rng.gamma(3.0, size=500) ** (1.0 / 64.0), rng.gamma(2.0, 1.5, 500)]))
    out = tmp_path / "o.json"
    rc, stdout, _ = run_cli(["fit", "--model", "kotz-gamma", "--mode", "independent",
                             "--input", str(pairs), "--out", str(out)], capsys)
    assert (rc, stdout) == (2, "")
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["meta"]["converged"] is False and doc["params"]["s1"] == 32.0


def test_fit_negative_iteration_cap_exits_1(pair_csv, tmp_path, capsys):
    out = tmp_path / "o.json"
    rc, _, err = run_cli(["fit", "--model", "kotz-gamma", "--mode", "dependent",
                          "--input", str(pair_csv), "--out", str(out),
                          "--max-iters", "-5"], capsys)
    assert rc == 1
    assert "--max-iters must be >= 0, got -5" in err and "Traceback" not in err
    assert not out.exists()
    rc, _, _ = run_cli(["fit", "--model", "kotz-gamma", "--mode", "dependent",
                        "--input", str(pair_csv), "--out", str(out),
                        "--max-iters", "0"], capsys)
    assert rc == 2
    assert json.loads(out.read_text(encoding="utf-8"))["meta"]["iterations"] == 0


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


def _strict_json(line):
    """json.loads, refusing NaN and Infinity, which JSON does not have."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(line, parse_constant=refuse)


def test_a_failing_quadrature_is_a_failing_row(capsys, monkeypatch):
    # a case whose integral is NaN makes quad_normalization raise; check
    # prints that case as a failing row, runs the others and exits 3
    from multivec import validation

    cases = validation._normalization_cases()
    name, _, support, tol = cases[0]
    cases[0] = (name, lambda x: np.full(len(x), np.nan), support, tol)
    monkeypatch.setattr(validation, "_normalization_cases", lambda: cases)
    rc, out, err = run_cli(["check", "--suite", "normalization"], capsys)
    assert rc == 3 and err == ""
    records = [_strict_json(line) for line in out.splitlines()]
    assert [r["name"] for r in records] == [case[0] for case in cases]
    assert records[0] == {"details": f"QuadratureFailure: {name}: integral is nan", "name": name,
                          "passed": False, "residual": None, "tolerance": tol}
    assert all(r["passed"] for r in records[1:])


def test_a_failing_pushforward_is_a_failing_row(capsys, monkeypatch):
    # a case, and the uncorrected beta-I variant, whose density is NaN on the
    # whole grid make pushforward_check raise; check prints both as failing
    # rows (a discrimination check that cannot run shows no power), runs the
    # others and exits 3
    from multivec import validation

    cases = validation._pushforward_cases()
    name, sampler, _, support = cases[0]
    cases[0] = (name, sampler, lambda x: np.full(len(x), np.nan), support)
    monkeypatch.setattr(validation, "_pushforward_cases", lambda: cases)
    monkeypatch.setattr(validation, "_uncorrected_beta1_logpdf", lambda p, b: np.full(len(b), np.nan))
    rc, out, err = run_cli(["check", "--suite", "pushforward", "--n-draws", "1000"], capsys)
    assert rc == 3 and err == ""
    records = [_strict_json(line) for line in out.splitlines()]
    discrimination = "discrimination-beta1-uncorrected-exponent"
    assert [r["name"] for r in records] == [case[0] for case in cases] + [discrimination]
    assert records[0] == {"details": f"QuadratureFailure: {name}: density total on the grid is nan",
                          "name": name, "passed": False, "residual": None, "tolerance": 0.0}
    assert records[-1] == {"details": "QuadratureFailure: push-beta1-uncorrected-exponent-raw: "
                                      "density total on the grid is nan",
                           "name": discrimination, "passed": False, "residual": None, "tolerance": 0.5}
    assert all(r["passed"] for r in records[1:-1])


def test_a_failing_radial_identity_is_a_failing_row(capsys, monkeypatch):
    # Pearson II at q = -0.9 holds mass at its singular end that the rule
    # cannot reach, so each of its radial rows raises QuadratureFailure
    from multivec import PearsonII, validation

    radial = validation.radial_integral_identity_check

    def singular_pearson2(spec, n, a):
        return radial(PearsonII(q=-0.9) if isinstance(spec, PearsonII) else spec, n, a)

    monkeypatch.setattr(validation, "radial_integral_identity_check", singular_pearson2)
    rc, out, err = run_cli(["check", "--suite", "identities"], capsys)
    assert rc == 3 and err == ""
    records = [_strict_json(line) for line in out.splitlines()]
    failed = [r for r in records if not r["passed"]]
    assert [r["name"] for r in failed] == [f"identity-radial-integral-pearson2-n{n}-a{a}"
                                           for n in ("1", "2", "3", "4.5") for a in ("1", "2.5")]
    for r in failed:
        assert r["residual"] is None
        assert r["details"].startswith("QuadratureFailure: radial identity of")
    assert len(records) == 50


def test_check_runs_each_suite_on_the_calling_thread(capsys, monkeypatch):
    from multivec import validation

    suites = ("run_normalization_suite", "run_identity_suite", "run_pushforward_suite")
    seen = []

    def recorder(suite):
        def run(*args, **kwargs):
            seen.append((suite, threading.current_thread()))
            return []
        return run

    for suite in suites:
        monkeypatch.setattr(validation, suite, recorder(suite))
    assert run_cli(["check", "--suite", "all"], capsys) == (0, "", "")
    assert seen == [(suite, threading.current_thread()) for suite in suites]


@pytest.mark.parametrize("n_draws", ["0", "-1"])
def test_check_rejects_fewer_than_one_draw(n_draws, capsys):
    rc, out, err = run_cli(["check", "--suite", "identities", "--n-draws", n_draws], capsys)
    assert rc == 1 and out == ""
    assert f"--n-draws must be >= 1, got {n_draws}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,seed", [
    (["sample", "--model", "kotz-gamma", "-n", "5"], "-1"),
    (["check", "--suite", "pushforward"], "-1"),
    (["check", "--suite", "identities"], "-1"),
    (["check", "--suite", "identities"], "-11"),
], ids=["sample", "check", "identities", "identities-11"])
def test_a_negative_seed_exits_1(argv, seed, tmp_path, capsys):
    if argv[0] == "sample":
        argv = argv + ["--out", str(tmp_path / "x.csv"), "--params", write_params(
            tmp_path / "p.json", {"alpha": 5.0, "beta": 8.0, "sigma1": 1.0, "sigma2": 2.0,
                                  "r": 0.4, "q": 1.5, "s": 1.1})]
    rc, out, err = run_cli(argv + ["--seed", seed], capsys)
    assert rc == 1 and out == ""
    assert f"seed must be >= 0, got {seed}\n" in err and "Traceback" not in err


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


@pytest.mark.parametrize("steps, bounds", [
    (1, "0.1,8,0.1,8"), (7, "0.1,8,0.1,8"), (200, "0.1,8,0.1,8"), (7, "0.123,7.77,0.3,9.1"),
    (50, "1e-300,900,1e-300,2000"),  # the pdf underflows to 0 over most of it
])
def test_grid_bytes_equal_the_generic_csv_writers(tmp_path, capsys, steps, bounds):
    # grid formats each axis value once into its row template; the file must
    # be the one _write_csv writes from the (u, v, pdf) rows
    params = {"alpha": 5.0, "beta": 8.0, "sigma1": 1.0, "sigma2": 2.0, "r": 0.4, "q": 1.5, "s": 1.1}
    p = write_params(tmp_path / "p.json", params)
    out = tmp_path / "grid.csv"
    rc, _, _ = run_cli(["grid", "--model", "kotz-gamma-2d", "--params", p,
                        f"--range={bounds}", "--steps", str(steps), "--out", str(out)], capsys)
    assert rc == 0
    umin, umax, vmin, vmax = (float(b) for b in bounds.split(","))
    uu, vv = np.meshgrid(np.linspace(umin, umax, steps), np.linspace(vmin, vmax, steps),
                         indexing="ij")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    model = cli._MODELS["kotz-gamma"]
    with np.errstate(under="ignore"):
        pdf = np.exp(model.logpdf(model.build(params, 2), pts))
    want = tmp_path / "want.csv"
    cli._write_csv(str(want), ["u", "v", "pdf"], np.column_stack([pts, pdf]))
    assert out.read_bytes() == want.read_bytes()
    if steps == 50:
        assert np.sum(pdf == 0.0) > steps


def test_fmt_is_the_percent_17g_of_csv_rows():
    # grid's axis values go through _fmt, its pdf column through "%.17g"
    bits = np.random.default_rng(17).integers(0, 2**64, 20_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist() + [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]
    assert [cli._fmt(x) for x in values] == ["%.17g" % x for x in values]


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
# input errors: exit 1, nothing on stdout, one line on stderr

_EVAL = ["eval", "--model", "kotz-gamma", "--params", "{d}/p.json"]
_FIT = ["fit", "--model", "kotz-gamma", "--mode", "dependent", "--input", "{d}/pairs.csv",
        "--out", "{d}/o.json"]
_GRID = ["grid", "--model", "kotz-gamma-2d", "--params", "{d}/p.json", "--out", "{d}/g.csv"]
_EXIT_1_CASES = {  # id: (argv, {file name: text}, stderr); {d} is the case's directory
    "params-unreadable": (_EVAL + ["--point=1,2"], {}, "error: cannot read params file: "),
    "params-not-json": (_EVAL + ["--point=1,2"], {"p.json": "{alpha"},
                        "error: params file is not valid JSON: "),
    "params-not-an-object": (_EVAL + ["--point=1,2"], {"p.json": "[1, 2]"},
                             "error: params file must contain a JSON object\n"),
    "params-field-not-an-object": (_EVAL + ["--point=1,2"], {"p.json": '{"params": [1]}'},
                                   "error: 'params' must be a JSON object of name -> number\n"),
    "params-index-gap": (
        ["sample", "--model", "mv-t", "--params", "{d}/p.json", "-n", "3", "--seed", "1",
         "--out", "{d}/x.csv"], {"p.json": json.dumps({"alpha0": 1.6, "beta1": 1.0, "beta3": 2.5})},
        "error: params missing key 'beta2'\n"),
    "params-joint-index-gap": (
        ["sample", "--model", "gengamma-pearson7", "--params", "{d}/p.json", "-n", "3", "--seed",
         "1", "--out", "{d}/x.csv"],
        {"p.json": json.dumps({"alpha0": 1.5, "sigma0": 1.0, "sigma2": 0.9, **_KOTZ})},
        "error: params missing key 'sigma1'\n"),
    # JSON numbers that are no finite double, or whose square is none
    "params-boolean": (_EVAL + ["--point=1,2"],
                       {"p.json": json.dumps({**MODEL_PARAMS["kotz-gamma"][0], "alpha": True})},
                       "error: params key 'alpha' must be a finite number, got True\n"),
    "params-integer-beyond-double": (
        _EVAL + ["--point=1,2"], {"p.json": json.dumps({**MODEL_PARAMS["kotz-gamma"][0],
                                                        "alpha": 10**400})},
        "error: params key 'alpha' must be a finite number, got 1000"),
    "params-integer-past-digit-limit": (
        _EVAL + ["--point=1,2"], {"p.json": '{"alpha": 1' + "0" * 5000 + "}"},
        "error: params file is not valid JSON: Exceeds the limit (4300 digits)"),
    "params-square-overflows": (
        ["eval", "--model", "mv-elliptical", "--params", "{d}/p.json", "--point=1,2"],
        {"p.json": json.dumps({**MODEL_PARAMS["mv-elliptical"][0], "sigma1": 1e200})},
        "error: params key 'sigma1' must have a positive finite square, got 1e+200\n"),
    "params-square-underflows": (
        ["eval", "--model", "gengamma-pearson7", "--params", "{d}/p.json", "--point=1,2"],
        {"p.json": json.dumps({**MODEL_PARAMS["gengamma-pearson7"][0], "sigma0": 1e-200})},
        "error: params key 'sigma0' must have a positive finite square, got 1e-200\n"),
    "pairs-unreadable": (_FIT, {}, "error: cannot read input file: "),
    "pairs-empty": (_FIT, {"pairs.csv": ""},
                    "error: line 1: empty file; expected header 'u,v'\n"),
    "pairs-three-columns": (_FIT, {"pairs.csv": "u,v\n1,2\n1,2,3\n3,4\n"},
                            "error: line 3: expected 2 columns, got 3\n"),
    # lines 3 and 4 are blank and skipped, so the bad cell is reported on line 5
    "pairs-not-decimal": (_FIT, {"pairs.csv": "u,v\n1,2\n\n  \n3,x\n4,5\n"},
                          "error: line 5: column v is not a decimal: 'x'\n"),
    # a NUL byte is read into the cell, which is then no decimal
    "pairs-nul-in-cell": (_FIT, {"pairs.csv": "u,v\n1,2\n3\x00,4\n5,6\n"},
                          "error: line 3: column u is not a decimal: '3\\x00'\n"),
    "pairs-field-past-csv-limit": (_FIT, {"pairs.csv": "u,v\n1,2\n" + "1" * 140_000 + ",3\n"},
                                   "error: line 3: field larger than field limit (131072)\n"),
    # positive finite pairs whose column sum overflows: the dependent log-likelihood is -inf
    "pairs-column-sum-overflows": (_FIT, {"pairs.csv": "u,v\n1e308,1\n1e308,2\n1e308,3\n2,5\n"},
                                   "error: sum of column u overflows; log-likelihood is -inf\n"),
    "point-empty": (_EVAL + ["--point="], {}, "error: --point is empty\n"),
    # an empty token is not dropped: '1,,2' is not the point (1, 2)
    "point-empty-token": (_EVAL + ["--point=1,,2"], {},
                          "error: --point must be comma-separated decimals, got '1,,2'\n"),
    "point-trailing-comma": (_EVAL + ["--point=1,2,"], {},
                             "error: --point must be comma-separated decimals, got '1,2,'\n"),
    "point-non-finite": (_EVAL + ["--point=1,inf"], {}, "error: --point values must be finite\n"),
    "point-too-short": (["eval", "--model", "gengamma-pearson7", "--params", "{d}/p.json",
                         "--point=1"], {}, "error: model 'gengamma-pearson7' has no block count "
                                           "matching a 1-dimensional point\n"),
    "grid-other-model": (_GRID[:2] + ["kotz-gamma"] + _GRID[3:] + ["--range=1,2,1,2",
                                                                   "--steps", "3"], {},
                         "error: grid supports --model kotz-gamma-2d\n"),
    "grid-three-bounds": (_GRID + ["--range=1,2,3", "--steps", "3"], {},
                          "error: --range must be 'umin,umax,vmin,vmax', got '1,2,3'\n"),
    "grid-non-decimal-bound": (_GRID + ["--range=1,2,x,4", "--steps", "3"], {},
                               "error: --range must be four decimals, got '1,2,x,4'\n"),
    "grid-zero-steps": (_GRID + ["--range=1,2,1,2", "--steps", "0"], {},
                        "error: --steps must be >= 1, got 0\n"),
    "out-unwritable": (["sample", "--model", "kotz-gamma", "--params", "{d}/p.json", "-n", "3",
                        "--seed", "1", "--out", "{d}/no-such-dir/x.csv"], {},
                       "error: cannot write {d}/no-such-dir/x.csv: "),
    # a point shorter than the params' blocks is not the law of fewer blocks
    "point-shorter-than-beta-blocks": (
        ["eval", "--model", "mv-beta1", "--params", "{d}/p.json", "--point=0.2,0.3"],
        {"p.json": json.dumps({"alpha0": 2.0, "alpha1": 1.5, "alpha2": 2.5, "alpha3": 3.0,
                               "beta1": 1.0, "beta2": 2.0, "beta3": 1.5})},
        "error: model 'mv-beta1' params declare 3 blocks, so --point needs 3 values, got 2\n"),
    "point-shorter-than-elliptical-blocks": (
        ["eval", "--model", "mv-elliptical", "--params", "{d}/p.json", "--point=0.2"],
        {"p.json": json.dumps({"mu1": 0.0, "mu2": 1.0, "mu3": 2.0, "sigma1": 1.0,
                               "sigma2": 1.0, "sigma3": 1.0, "r": 0.5, "q": 1.0, "s": 1.0})},
        "error: model 'mv-elliptical' params declare 3 blocks, so --point needs 3 values, "
        "got 1\n"),
    # zero rows still build the params and the generator
    "sample-zero-rows-bad-params": (
        ["sample", "--model", "mv-t", "--params", "{d}/p.json", "-n", "0", "--seed", "1",
         "--out", "{d}/x.csv"],
        {"p.json": json.dumps({"alpha0": -1.0, "beta1": 1.0, "beta2": 2.5})},
        "error: alpha0 must be positive, got (-1.0,)\n"),
    "sample-zero-rows-negative-seed": (
        ["sample", "--model", "kotz-gamma", "--params", "{d}/p.json", "-n", "0", "--seed", "-1",
         "--out", "{d}/x.csv"], {}, "error: seed must be >= 0, got -1\n"),
}


@pytest.mark.parametrize("case", sorted(_EXIT_1_CASES))
def test_input_errors_exit_1_with_one_message(case, tmp_path, capsys):
    argv, files, message = _EXIT_1_CASES[case]
    if case != "params-unreadable":
        write_params(tmp_path / "p.json", MODEL_PARAMS["kotz-gamma"][0])
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    rc, out, err = run_cli([tok.format(d=tmp_path) for tok in argv], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith(message.format(d=tmp_path)) and err.count("\n") == 1, err
    assert not (tmp_path / "o.json").exists() and not (tmp_path / "g.csv").exists()


def test_a_params_file_that_is_not_utf8_exits_1_with_one_message(tmp_path, capsys):
    (tmp_path / "p.json").write_bytes(b'{"alpha": "\xff"}')
    rc, out, err = run_cli(_EVAL[:-1] + [str(tmp_path / "p.json"), "--point=1,2"], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("error: params file is not valid JSON: ") and err.count("\n") == 1, err


def test_a_pairs_file_that_is_not_utf8_exits_1_with_one_message(tmp_path, capsys):
    # the reader decodes as it goes: the bad byte is met in the row loop
    (tmp_path / "pairs.csv").write_bytes(b"u,v\n1,2\n\xff,3\n4,5\n")
    rc, out, err = run_cli([tok.format(d=tmp_path) for tok in _FIT], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: input file is not UTF-8: byte 0xff (invalid start byte)\n"
    assert not (tmp_path / "o.json").exists()


def test_a_pairs_file_with_a_utf8_bom_fits_as_without_it(pair_csv, tmp_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(pair_csv).read_bytes())
    outs = []
    for path in (pair_csv, bom):
        out = tmp_path / f"{Path(path).stem}.json"
        rc, _, err = run_cli(["fit", "--model", "kotz-gamma", "--mode", "dependent", "--input",
                              str(path), "--out", str(out)], capsys)
        assert (rc, err) == (0, "")
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_eval_of_a_negative_kotz_gamma_point_prints_minus_inf(tmp_path, capsys):
    # the density raises NonPositiveInput off the positive orthant; eval
    # reads that as a zero density
    p = write_params(tmp_path / "p.json", MODEL_PARAMS["kotz-gamma"][0])
    rc, out, err = run_cli(["eval", "--model", "kotz-gamma", "--params", p, "--point=-1,2"],
                           capsys)
    assert (rc, out, err) == (0, "-inf\n", "")


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
