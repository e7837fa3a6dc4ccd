"""Start-up cost: what importing the package and the CLI pulls in.

Each case runs in a fresh interpreter, so ``sys.modules`` starts clean.
"""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multivec

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str):
    """Run code in a new interpreter with the source tree on the path; it
    prints one JSON document as its last line, returned decoded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_numpy():
    loaded = run_fresh(
        "import json, sys, multivec\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))))"
    )
    assert loaded == []


def test_every_public_name_resolves_lazily():
    doc = run_fresh(
        "import json, multivec\n"
        "names = list(multivec.__all__)\n"
        "missing = [n for n in names if n not in dir(multivec)]\n"
        "for n in names:\n"
        "    exec(f'from multivec import {n}')\n"
        "unknown = hasattr(multivec, 'no_such_name')\n"
        "print(json.dumps({'n': len(names), 'unique': len(set(names)),\n"
        "                  'missing': missing, 'unknown': unknown}))"
    )
    assert doc == {"n": 82, "unique": 82, "missing": [], "unknown": False}


def test_each_module_all_matches_its_package_exports():
    # errors defines no __all__: its exports are its exception classes
    for module, names in multivec._EXPORTS.items():
        if module != "errors":
            mod = importlib.import_module(f"multivec.{module}")
            assert sorted(mod.__all__) == sorted(names), module


def test_identity_suite_runs_without_scipy_stats():
    # the radial identity runs on the double-exponential rule, so QUADPACK
    # (scipy.integrate) is not loaded
    doc = run_fresh(
        "import json, sys\n"
        "from multivec import run_identity_suite\n"
        "reports = run_identity_suite(seed=0)\n"
        "print(json.dumps({'passed': all(r.passed for r in reports),\n"
        "                  'loaded': [m for m in ('scipy.stats', 'scipy.integrate')\n"
        "                             if m in sys.modules]}))"
    )
    assert doc == {"passed": True, "loaded": []}


def test_normalization_suite_runs_without_scipy_stats():
    # the suite is quadrature alone, on the double-exponential rule: no
    # Monte Carlo proposal (scipy.stats) and no QUADPACK (scipy.integrate)
    doc = run_fresh(
        "import contextlib, io, json, sys\n"
        "from multivec import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['check', '--suite', 'normalization'])\n"
        "print(json.dumps({'code': code,\n"
        "                  'loaded': [m for m in ('scipy.stats', 'scipy.integrate')\n"
        "                             if m in sys.modules]}))"
    )
    assert doc == {"code": 0, "loaded": []}


PARAMS = {"alpha": 5.0, "beta": 8.0, "sigma1": 1.0, "sigma2": 2.0, "r": 0.4, "q": 1.5, "s": 1.1}

# each command with its arguments; {p} is the parameter file, {d} the sample
# CSV and {o} an output directory
SCIPY_FREE_COMMANDS = {
    "eval": ["eval", "--model", "kotz-gamma", "--params", "{p}", "--point", "1.5,2.5"],
    "sample": ["sample", "--model", "kotz-gamma", "--params", "{p}", "-n", "50",
               "--seed", "3", "--out", "{o}/s.csv"],
    "grid": ["grid", "--model", "kotz-gamma-2d", "--params", "{p}",
             "--range", "0.1,8,0.1,8", "--steps", "20", "--out", "{o}/g.csv"],
    "fit-dependent": ["fit", "--model", "kotz-gamma", "--mode", "dependent",
                      "--input", "{d}", "--out", "{o}/fit.json"],
    "fit-independent": ["fit", "--model", "kotz-gamma", "--mode", "independent",
                        "--input", "{d}", "--out", "{o}/fit.json"],
}


@pytest.mark.parametrize("command", sorted(SCIPY_FREE_COMMANDS))
def test_command_loads_no_scipy(command, tmp_path):
    from multivec import cli

    params, data = tmp_path / "params.json", tmp_path / "data.csv"
    params.write_text(json.dumps(PARAMS), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sample", "--model", "kotz-gamma", "--params", str(params),
                         "-n", "200", "--seed", "5", "--out", str(data)]) == 0
    argv = [a.format(p=params, d=data, o=tmp_path) for a in SCIPY_FREE_COMMANDS[command]]
    doc = run_fresh(
        "import contextlib, io, json, sys\n"
        "from multivec import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code,\n"
        "                  'loaded': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))"
    )
    assert doc == {"code": 0, "loaded": []}
    if command == "grid":
        assert len((tmp_path / "g.csv").read_text(encoding="utf-8").splitlines()) == 20 * 20 + 1


def test_core_loads_no_scipy():
    loaded = run_fresh(
        "import json, sys, multivec.core\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    assert loaded == []


def test_a_grid_under_the_split_threshold_starts_no_thread(tmp_path):
    # grid --steps 200 is one logpdf call of 40,000 points, fewer than the
    # rows a batch must pass to split: no pool, so no concurrent.futures
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS), encoding="utf-8")
    argv = ["grid", "--model", "kotz-gamma-2d", "--params", str(params),
            "--range", "0.1,8,0.1,8", "--steps", "200", "--out", str(tmp_path / "g.csv")]
    doc = run_fresh(
        "import contextlib, io, json, sys, threading\n"
        "from multivec import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'threads': threading.active_count(),\n"
        "                  'loaded': sorted(m for m in sys.modules\n"
        "                                   if m.split('.')[0] == 'scipy' or m == 'concurrent.futures')}))"
    )
    assert doc == {"code": 0, "threads": 1, "loaded": []}
    assert len((tmp_path / "g.csv").read_text(encoding="utf-8").splitlines()) == 200 * 200 + 1


def test_betaln_and_kve_load_scipy_special_when_called():
    # Pearson VII's normalizer needs betaln and the Bessel kernel kve: each
    # imports scipy.special inside the function that calls it
    from multivec import PearsonVII, log_bessel_k, log_norm_const

    doc = run_fresh(
        "import json, sys\n"
        "from multivec import PearsonVII, log_bessel_k, log_norm_const\n"
        "before = 'scipy.special' in sys.modules\n"
        "c = log_norm_const(PearsonVII(r=3.0, q=2.2), 2.0)\n"
        "k = log_bessel_k(0.3, 1.7)\n"
        "print(json.dumps({'before': before, 'c': c, 'k': k,\n"
        "                  'after': 'scipy.special' in sys.modules}))"
    )
    assert doc == {"before": False, "after": True,
                   "c": log_norm_const(PearsonVII(r=3.0, q=2.2), 2.0),
                   "k": log_bessel_k(0.3, 1.7)}


def test_no_command_and_no_bessel_overflow_loads_mpmath(tmp_path):
    # mpmath is a test dependency only (the 40-digit Bessel references), so
    # it is installed here and this assertion would see a stray import
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS), encoding="utf-8")
    sample = tmp_path / "s.csv"
    commands = [
        ["eval", "--model", "kotz-gamma", "--params", str(params), "--point", "1.5,2.5"],
        ["sample", "--model", "kotz-gamma", "--params", str(params), "-n", "200",
         "--seed", "3", "--out", str(sample)],
        ["grid", "--model", "kotz-gamma-2d", "--params", str(params),
         "--range", "0.1,8,0.1,8", "--steps", "20", "--out", str(tmp_path / "g.csv")],
        ["fit", "--model", "kotz-gamma", "--mode", "dependent", "--input", str(sample),
         "--out", str(tmp_path / "fit.json")],
        ["check", "--suite", "identities", "--n-draws", "5000"],
    ]
    doc = run_fresh(
        "import contextlib, io, json, math, sys\n"
        "from multivec import cli, log_bessel_k\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {commands!r}]\n"
        "k = log_bessel_k(100.0, 1e-3)  # kve overflows here\n"
        "print(json.dumps({'codes': codes, 'finite': math.isfinite(k),\n"
        "                  'mpmath': 'mpmath' in sys.modules}))"
    )
    assert doc == {"codes": [0, 0, 0, 0, 0], "finite": True, "mpmath": False}
