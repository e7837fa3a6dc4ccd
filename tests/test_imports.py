"""Start-up cost: what importing the package and the CLI pulls in.

Each case runs in a fresh interpreter, so ``sys.modules`` starts clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# never loaded at start-up: `check` loads them, and an elliptical model's
# first Cholesky factor loads scipy.linalg
DEFERRED = ("scipy.stats", "scipy.interpolate", "scipy.integrate", "scipy.linalg",
            "scipy.optimize")


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


def test_cli_and_fit_leave_the_heavy_scipy_modules_unloaded():
    loaded = run_fresh(
        "import json, sys\n"
        "import multivec.cli\n"
        "from multivec import fit_dependent, fit_independent, make_rng\n"
        "u = make_rng(0).gamma(3.0, size=(200, 2)) ** 0.8\n"
        "fit_dependent(u)\n"
        "fit_independent(u)\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
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


def test_identity_suite_runs_without_scipy_stats():
    # the radial identity runs on the double-exponential rule, so neither
    # QUADPACK (scipy.integrate) nor the extended-precision Bessel fallback
    # (mpmath) is loaded
    doc = run_fresh(
        "import json, sys\n"
        "from multivec import run_identity_suite\n"
        "reports = run_identity_suite(seed=0, n_draws=5000)\n"
        "print(json.dumps({'passed': all(r.passed for r in reports),\n"
        "                  'loaded': [m for m in ('scipy.stats', 'scipy.integrate', 'mpmath')\n"
        "                             if m in sys.modules]}))"
    )
    assert doc == {"passed": True, "loaded": []}
