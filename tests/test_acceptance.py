"""Acceptance gate: one test per shipping criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
Each test states its tolerance inline; together they certify the density
formulas, the exact samplers, the likelihood code, the fitting pipeline, the
worked closed-form example, the documentation of the irreproducible original
application, and byte-level determinism of the command line.
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from multivec import (
    Kotz,
    KotzGammaDepParams,
    MvEllipticalParams,
    Partition,
    PearsonVII,
    SampleMatrix,
    ScaleShapeParams,
    SuffStats,
    fit_dependent,
    fit_independent,
    gamma_init,
    logpdf_mv_elliptical,
    logpdf_mv_gengamma,
    loglik_dependent,
    loglik_independent,
    make_rng,
    sample_mv_gengamma,
)
from multivec.validation import (
    run_identity_suite,
    run_normalization_suite,
    run_pushforward_suite,
)
from multivec import cli

GAUSS = Kotz(q=1.0, r=0.5, s=1.0)
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sample_pairs(p: KotzGammaDepParams, m: int, seed: int) -> np.ndarray:
    """One dependent draw of m pairs: a single 2m-block vector, reshaped."""
    base = ScaleShapeParams(
        shapes=(p.alpha,) * m + (p.beta,) * m,
        scales=(p.sigma1**2,) * m + (p.sigma2**2,) * m,
    )
    flat = np.asarray(sample_mv_gengamma(base, Kotz(q=p.q, r=p.r, s=p.s), make_rng(seed)))
    return np.column_stack([flat[:m], flat[m:]])


def test_criterion_01_normalization_suite_passes_within_time_budget():
    t0 = time.perf_counter()
    reports = run_normalization_suite()
    elapsed = time.perf_counter() - t0
    failures = [r.name for r in reports if not r.passed]
    assert failures == [], f"normalization failures: {failures}"
    assert len(reports) >= 15  # every family appears
    assert elapsed <= 300.0, f"normalization suite took {elapsed:.1f}s > 300s"


def test_criterion_02_gaussian_and_student_t_reductions_match_scipy():
    rng = np.random.default_rng(10)
    # Kotz(q=1, r=1/2, s=1) must BE the multivariate normal, 1e-12 absolute
    S1 = np.array([[2.0, 0.4], [0.4, 1.0]])
    S2 = np.array([[0.9]])
    mu = np.array([0.5, -1.0, 2.0])
    p = MvEllipticalParams(partition=Partition(dims=(2, 1)), mus=(mu[:2], mu[2:]),
                           sigmas=(S1, S2))
    mvn = stats.multivariate_normal(
        mean=mu, cov=np.block([[S1, np.zeros((2, 1))], [np.zeros((1, 2)), S2]])
    )
    for _ in range(20):
        x = rng.normal(size=3) * 2.0
        assert abs(logpdf_mv_elliptical(p, GAUSS, x) - mvn.logpdf(x)) < 1e-12
    # Pearson VII with q = (n + r)/2 must BE the multivariate t, 1e-10 relative
    for n, nu in ((1, 3.0), (2, 5.0), (3, 2.0)):
        S = np.eye(n) + 0.3 * np.ones((n, n))
        pt = MvEllipticalParams(partition=Partition(dims=(n,)), mus=(np.zeros(n),),
                                sigmas=(S,))
        spec = PearsonVII(r=nu, q=(n + nu) / 2.0)
        mvt = stats.multivariate_t(loc=np.zeros(n), shape=S, df=nu)
        for _ in range(20):
            x = rng.normal(size=n) * 1.5
            want = mvt.logpdf(x)
            assert abs(logpdf_mv_elliptical(pt, spec, x) - want) <= 1e-10 * max(1.0, abs(want))


def test_criterion_03_radial_and_jacobian_identity_suite_passes():
    reports = run_identity_suite(seed=0)
    failures = [r.name for r in reports if not r.passed]
    assert failures == [], f"identity failures: {failures}"
    # the ball map's root-to-image identity must have held at three seeds per dimension
    ball = [r for r in reports if r.name.startswith("jacobian-ball-map")]
    assert len(ball) == 9
    radial = [r for r in reports if r.name.startswith("identity-radial-integral")]
    assert len(radial) >= 30 and all(r.tolerance <= 1e-6 for r in radial)


def test_criterion_04_sampler_density_gof_passes_and_discriminates():
    for seed in (0, 1, 2):
        reports = run_pushforward_suite(seed=seed, n_draws=100_000)
        failures = [r.name for r in reports if not r.passed]
        assert failures == [], f"seed {seed} pushforward failures: {failures}"
        assert len(reports) == 14  # 13 families + the discrimination control
        control = [r for r in reports if r.name.startswith("discrimination")]
        assert len(control) == 1  # passes only if the broken density FAILED GOF


def test_criterion_05_likelihood_matches_density_oracle_on_50_point_grid():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        m = int(rng.integers(3, 12))
        u = rng.gamma(2.0, 1.5, size=m)
        v = rng.gamma(3.0, 0.8, size=m)
        p = KotzGammaDepParams(
            sigma1=rng.uniform(0.5, 2.0), sigma2=rng.uniform(0.5, 2.0),
            alpha=rng.uniform(0.8, 4.0), beta=rng.uniform(0.8, 4.0),
            r=rng.uniform(0.3, 3.0), q=rng.uniform(0.3, 3.0), s=rng.uniform(0.5, 2.0),
        )
        # dependent likelihood == one 2m-block joint density evaluation
        direct = logpdf_mv_gengamma(
            ScaleShapeParams(shapes=(p.alpha,) * m + (p.beta,) * m,
                             scales=(p.sigma1**2,) * m + (p.sigma2**2,) * m),
            Kotz(q=p.q, r=p.r, s=p.s),
            np.concatenate([u, v]),
        )
        got = loglik_dependent(p, SuffStats(u, v))
        assert abs(got - direct) <= 1e-8 * max(1.0, abs(direct))
        # independent likelihood == sum of single-block densities
        one = ScaleShapeParams(shapes=(p.alpha,), scales=(p.sigma1**2,))
        spec = Kotz(q=p.q, r=p.r, s=p.s)
        direct_ind = sum(logpdf_mv_gengamma(one, spec, np.array([uj])) for uj in u)
        got_ind = loglik_independent(p.sigma1, p.alpha, p.r, p.q, p.s, u)
        assert abs(got_ind - direct_ind) <= 1e-8 * max(1.0, abs(direct_ind))
        # Gaussian generator: the joint factorizes, dep == ind + ind exactly
        g = KotzGammaDepParams(sigma1=p.sigma1, sigma2=p.sigma2, alpha=p.alpha,
                               beta=p.beta, r=0.5, q=1.0, s=1.0)
        lhs = loglik_dependent(g, SuffStats(u, v))
        rhs = (loglik_independent(p.sigma1, p.alpha, 0.5, 1.0, 1.0, u)
               + loglik_independent(p.sigma2, p.beta, 0.5, 1.0, 1.0, v))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_criterion_06_frozen_generator_dependent_equals_independent():
    rng = np.random.default_rng(42)
    data = np.column_stack([rng.lognormal(0.2, 0.6, 300), rng.gamma(2.5, 1.7, 300)])
    dep = fit_dependent(data, freeze_generator=True)
    ind = fit_independent(data, freeze_generator=True)
    assert dep.converged and ind.converged
    for key in ("sigma1", "alpha", "sigma2", "beta"):
        assert abs(dep.params[key] - ind.params[key]) <= 1e-4 * abs(ind.params[key])


def test_criterion_07_closed_form_gamma_estimate_worked_example():
    alpha, sigma = gamma_init(np.array([1.0, 2.0, 3.0, 4.0]))
    # the 7-digit reference value, at 1e-5 relative
    assert abs(alpha - 4.260441) / 4.260441 <= 1e-5
    # and the exact closed form frozen to full precision
    assert abs(alpha - 4.260429365453257) < 1e-12
    assert abs(sigma - 0.5416619411526722) < 1e-12
    # Monte Carlo consistency: at m = 1e5 the estimate sits near the truth
    draws = np.random.default_rng(7).gamma(3.0, 1.7, size=100_000)
    alpha_mc, _ = gamma_init(draws)
    assert abs(alpha_mc - 3.0) < 0.1


def test_criterion_08_synthetic_recovery_within_time_budget():
    truth = KotzGammaDepParams(sigma1=1.0, sigma2=2.0, alpha=5.0, beta=8.0,
                               r=0.4, q=1.5, s=1.1)
    data = _sample_pairs(truth, m=2000, seed=2024)
    truth_ll = loglik_dependent(truth, SuffStats(data[:, 0], data[:, 1]))
    t0 = time.perf_counter()
    fit = fit_dependent(SampleMatrix(data))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"fit took {elapsed:.1f}s > 60s"
    assert abs(fit.params["alpha"] - truth.alpha) / truth.alpha < 0.10
    assert abs(fit.params["beta"] - truth.beta) / truth.beta < 0.10
    assert fit.loglik >= truth_ll - 3.0


def test_criterion_09_original_estimates_documented_as_not_reproducible():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "not publicly available" in readme
    assert "not reproducible" in readme
    assert "synthetic" in readme


def test_criterion_10_byte_identical_over_reruns_and_thread_counts(tmp_path):
    # sampling: same flags -> same bytes
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"alpha": 5.0, "beta": 8.0, "sigma1": 1.0,
                                  "sigma2": 2.0, "r": 0.4, "q": 1.5, "s": 1.1}),
                      encoding="utf-8")
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli.main(["sample", "--model", "kotz-gamma", "--params", str(params),
                       "-n", "500", "--seed", "3", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # checking: thread count must change wall time only, never output
    exe = shutil.which("multivec")
    base_cmd = [exe] if exe else [sys.executable, "-m", "multivec.cli"]
    results = []
    for threads in ("1", "3"):
        env = dict(os.environ, MULTIVEC_THREADS=threads, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(base_cmd + ["check", "--suite", "all", "--seed", "7"],
                              capture_output=True, env=env, timeout=540)
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        results.append(proc.stdout)
    assert results[0] == results[1]
    for line in results[0].decode("utf-8").splitlines():
        assert json.loads(line)["passed"] is True
