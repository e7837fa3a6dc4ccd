"""The four benchmark workloads: verify, fit, batch and cli.

Each workload builds its inputs from the workload seed in ``setup`` and
returns the ops of one pass of its fixed job.  An op is one closed-loop step
(one oracle check, one fit, one batched call, one CLI invocation) with an
output check and a wall-time cap.  multivec is driven only through the
public functions of ``core``, ``generators``, ``densities``, ``sampling``,
``mle`` and ``validation``, and through ``python -m multivec.cli``.

Why these workloads (each loads a different layer):

- verify: the scalar-call path of the oracles, where the test suite spends
  its time; moves with per-call overhead in core/generators/densities.
- fit: only mle; two sample sizes an order of magnitude apart separate
  optimizer iterations from per-evaluation cost.
- batch: the same densities/sampling code as verify with per-call overhead
  spread over 1e5-point batches; moves with kernel changes, not caching.
- cli: interpreter start and import on every operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import stats

from multivec import (
    Bessel,
    BetaParams,
    ExtendedShape,
    JointScaleParams,
    Kotz,
    KotzGammaDepParams,
    MvEllipticalParams,
    MvTParams,
    Partition,
    PearsonVII,
    PearsonII,
    SampleMatrix,
    ScaleShapeParams,
    SuffStats,
    fit_dependent,
    fit_independent,
    logpdf_gengamma_beta1,
    logpdf_gengamma_beta2,
    logpdf_gengamma_pearson2,
    logpdf_gengamma_pearson7,
    logpdf_mv_beta1,
    logpdf_mv_beta2,
    logpdf_mv_elliptical,
    logpdf_mv_gengamma,
    logpdf_mv_log_elliptical,
    logpdf_mv_pearson2,
    logpdf_mv_t,
    loglik_dependent,
    make_rng,
    radial_integral_identity_check,
    sample_gengamma_beta1,
    sample_gengamma_beta2,
    sample_gengamma_pearson2,
    sample_gengamma_pearson7,
    sample_mv_beta1,
    sample_mv_beta2,
    sample_mv_elliptical,
    sample_mv_gengamma,
    sample_mv_log_elliptical,
    sample_mv_pearson2,
    sample_mv_t,
)
from multivec.validation import mc_normalization, pushforward_check, quad_normalization

INF = math.inf
GAUSS = Kotz(q=1.0, r=0.5, s=1.0)
# README truth of the paired kotz-gamma model
TRUTH = KotzGammaDepParams(sigma1=1.0, sigma2=2.0, alpha=5.0, beta=8.0, r=0.4, q=1.5, s=1.1)
TRUTH_JSON = {"alpha": 5.0, "beta": 8.0, "sigma1": 1.0, "sigma2": 2.0, "r": 0.4, "q": 1.5, "s": 1.1}
# Stochastic oracles (MC normalization, pushforward GOF, Jacobian chi-square)
# run at the shipped suite seed: at a fresh seed a correct density fails
# KS at p > 0.01 a few percent of the time, which would read as a defect.
ORACLE_SEED = 0


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[Any], Any]  # takes the tracer
    check: Callable[[Any], str | None]  # None when the output is right
    cap_s: float
    extra: Callable[[Any], dict] | None = None  # per-layer facts read off the output


@dataclass
class OpResult:
    name: str
    kind: str
    seconds: float
    scaled: float  # seconds at the reference host speed (see run.py)
    error: str | None
    extra: dict = field(default_factory=dict)


def tail(times: list[float]) -> tuple[float | None, int | None]:
    """(value, percentile) of the highest integer percentile with at least ten
    samples above it; (None, None) with ten samples or fewer."""
    n = len(times)
    if n <= 10:
        return None, None
    ordered = sorted(times)
    pct = math.floor(100.0 * (n - 10) / n)
    return ordered[max(0, math.ceil(pct / 100.0 * n) - 1)], pct


def _expect(cond: bool, reason: str) -> str | None:
    return None if cond else reason


class Workload:
    name = ""
    min_passes = 1
    # rounds of the traced pass; two let every op run once in each order
    trace_rounds = 2

    def summary(self, st, results: list[OpResult]) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit); times
        are at the reference host speed, like wall_s."""
        return {}

    def warm(self, st) -> None:
        """Pay the job's one-time costs outside any op (before a traced pass)."""

    def peak_rss_mb(self, st) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self, st) -> None:
        pass


# ---------------------------------------------------------------------------
# verify: a fixed subset of the shipped oracle cases, one check per op


def _bessel_fixture():
    p = MvEllipticalParams(
        partition=Partition(dims=(2,)), mus=(np.array([0.5, -0.5]),),
        sigmas=(np.array([[1.0, 0.3], [0.3, 0.8]]),),
    )
    return p, Bessel(r=1.0, q=0.3)


BETA1_K2 = BetaParams(shape=ExtendedShape(alphas=(1.0, 2.0), alpha0=1.5), betas=(1.0, 3.0))


def uncorrected_beta1_logpdf(b):
    """Beta-I density without the alpha0 term of the (1 - b_i) exponent."""
    b2 = np.atleast_2d(np.asarray(b, dtype=float))
    inside = np.all((b2 > 0) & (b2 < 1), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        extra = np.where(inside, BETA1_K2.shape.alpha0 * np.sum(np.log1p(-b2), axis=-1), 0.0)
    return logpdf_mv_beta1(BETA1_K2, b2) + extra


def quad_cases(tiny: bool):
    """(name, logpdf, support, tol, must_fail); shipped normalization cases."""
    pvii1 = MvEllipticalParams(
        partition=Partition(dims=(1,)), mus=(np.zeros(1),), sigmas=(np.eye(1),)
    )
    kotz1 = ScaleShapeParams(shapes=(2.0,), scales=(1.0,))
    kotz1_spec = Kotz(q=1.0, r=2.0, s=1.5)
    mvt = MvTParams(dims=(1, 1), alpha0=1.6, betas=(1.0, 2.5))
    beta1_3 = BetaParams(
        shape=ExtendedShape(alphas=(1.0, 2.0, 1.5), alpha0=2.0), betas=(1.0, 1.0, 1.0)
    )
    cases = [
        ("norm-mv-elliptical-pearson7-1d",
         lambda x: logpdf_mv_elliptical(pvii1, PearsonVII(r=3.0, q=2.2), x),
         [(-INF, INF)], 1e-5, False),
        ("norm-mv-gengamma-kotz-k1",
         lambda x: logpdf_mv_gengamma(kotz1, kotz1_spec, x), [(0.0, INF)], 1e-6, False),
        # power control: the --corrupt hook's mis-scaled density must fail
        ("power-corrupt-gengamma-k1",
         lambda x: math.log(2.0) + logpdf_mv_gengamma(kotz1, kotz1_spec, x),
         [(0.0, INF)], 1e-6, True),
        ("norm-mv-t-k2", lambda x: logpdf_mv_t(mvt, x), [(-INF, INF), (-INF, INF)], 1e-5, False),
        # 3-d box, bounded axes, beta-I endpoint singularity
        ("norm-mv-beta1-k3-3d", lambda x: logpdf_mv_beta1(beta1_3, x),
         [(0.0, 1.0)] * 3, 1e-4, False),
    ]
    if tiny:
        cases = cases[:-1]
    return cases


def push_cases():
    """(name, sampler, logpdf, support, must_fail)."""
    bessel_p, bessel_spec = _bessel_fixture()
    return [
        ("push-mv-elliptical-bessel-2d",
         lambda rng, n: sample_mv_elliptical(bessel_p, bessel_spec, rng, size=n),
         lambda x: logpdf_mv_elliptical(bessel_p, bessel_spec, x),
         [(-INF, INF), (-INF, INF)], False),
        ("push-mv-beta1-k2",
         lambda rng, n: sample_mv_beta1(BETA1_K2, rng, size=n),
         lambda x: logpdf_mv_beta1(BETA1_K2, x),
         [(0.0, 1.0), (0.0, 1.0)], False),
        # power control: the uncorrected beta-I exponent must fail the same GOF
        ("power-beta1-uncorrected",
         lambda rng, n: sample_mv_beta1(BETA1_K2, rng, size=n),
         uncorrected_beta1_logpdf,
         [(0.0, 1.0), (0.0, 1.0)], True),
    ]


IDENTITY_GRID = [
    ("kotz-gauss", Kotz(q=1.0, r=0.5, s=1.0)),
    ("kotz", Kotz(q=1.5, r=2.0, s=0.8)),
    ("pearson7", PearsonVII(r=1.0, q=3.0)),
    ("pearson2", PearsonII(q=1.5)),
    ("bessel", Bessel(r=1.0, q=0.3)),
]


def identity_cases(tiny: bool):
    """The shipped radial-integral identity grid (generator x dimension x a)."""
    out = []
    for label, spec in IDENTITY_GRID:
        for n in (1.0, 2.0, 3.0, 4.5):
            if isinstance(spec, PearsonVII) and spec.q <= n / 2.0:
                continue
            if isinstance(spec, Bessel) and not (-n / 2.0 < spec.q < n + 1.0):
                continue
            if isinstance(spec, Kotz) and 2.0 * spec.q + n <= 2.0:
                continue
            for a in (1.0, 2.5):
                out.append((f"identity-{label}-n{n:g}-a{a:g}", spec, n, a))
    return out[:2] if tiny else out


def _detail(report, key: str) -> float:
    m = re.search(rf"\b{key}=([0-9.eE+-]+)", report.details)
    return float(m.group(1)) if m else math.nan


class Verify(Workload):
    name = "verify"
    # one round takes about a minute; a second would bring the traced run
    # near the 180 s a run may take
    trace_rounds = 1

    def setup(self, seed: int, tiny: bool, root: Path):
        mvt = MvTParams(dims=(1, 1), alpha0=1.5, betas=(1.0, 2.5))
        cov = np.diag([3.0 * b for b in mvt.betas])
        prop = stats.multivariate_normal(mean=np.zeros(2), cov=cov)
        return {
            "quad": quad_cases(tiny),
            "push": push_cases(),
            "identity": identity_cases(tiny),
            "mc": (lambda x: logpdf_mv_t(mvt, x),
                   lambda rng, n: rng.multivariate_normal(np.zeros(2), cov, size=n),
                   prop.logpdf),
        }

    def ops(self, st, pass_index: int) -> list[Op]:
        ops: list[Op] = []
        for name, logpdf, support, tol, must_fail in st["quad"]:
            def run(tr, logpdf=logpdf, support=support, tol=tol, name=name):
                with tr.span("validation.quad_normalization", "validation"):
                    return quad_normalization(
                        tr.wrap(logpdf, "integrand", "densities"), support, tol, name=name
                    )
            ops.append(Op(name, "quad", run, _power_check(must_fail), cap_s=120.0,
                          extra=lambda r: {"err_est": _detail(r, "err_est")}))

        def run_mc(tr, mc=st["mc"]):
            logpdf, prop_sample, prop_logpdf = mc
            with tr.span("validation.mc_normalization", "validation"):
                return mc_normalization(
                    tr.wrap(logpdf, "logpdf", "densities"),
                    tr.wrap(prop_sample, "proposal_sampler", "bench"),
                    tr.wrap(prop_logpdf, "proposal_logpdf", "bench"),
                    n=1_000_000, seed=ORACLE_SEED, name="norm-mc-mv-t-k2",
                )
        ops.append(Op("norm-mc-mv-t-k2", "mc", run_mc, _power_check(False), cap_s=60.0,
                      extra=lambda r: {"ess": _detail(r, "ess")}))

        for name, spec, n, a in st["identity"]:
            def run_id(tr, spec=spec, n=n, a=a):
                with tr.span("generators.radial_integral_identity_check", "generators"):
                    return radial_integral_identity_check(spec, n, a)
            ops.append(Op(name, "identity", run_id,
                          lambda r: _expect(r <= 1e-6, f"identity residual {r:.3g} > 1e-6"),
                          cap_s=60.0))

        for name, sampler, logpdf, support, must_fail in st["push"]:
            def run_push(tr, sampler=sampler, logpdf=logpdf, support=support, name=name):
                with tr.span("validation.pushforward_check", "validation"):
                    return pushforward_check(
                        tr.wrap(sampler, "sampler", "sampling"),
                        tr.wrap(logpdf, "logpdf", "densities"),
                        support, n_draws=100_000, seed=ORACLE_SEED, name=name,
                    )
            ops.append(Op(name, "push", run_push, _power_check(must_fail), cap_s=120.0))
        return ops

    def warm(self, st) -> None:
        # the Bessel inverse-CDF build, which the timed run's first pass pays
        # inside push-mv-elliptical-bessel-2d (sampling.bessel.cold_build_s)
        st["push"][0][1](make_rng(0), 1)

    def layer_metrics(self, st, tr, results: list[OpResult]) -> dict:
        selfs = tr.self_times()
        ops = {s["name"]: s for s in tr.spans if s["layer"] == "bench"}
        out = {
            "validation.quad.self_s": sum(
                selfs[s["id"]] for s in tr.spans if s["name"] == "validation.quad_normalization"),
            "validation.push.self_s": sum(
                selfs[s["id"]] for s in tr.spans if s["name"] == "validation.pushforward_check"),
        }
        for res in results:
            op = ops.get(res.name)
            if op is None or res.error is not None:
                continue
            if res.kind == "quad":
                out[f"validation.quad.{res.name}.s"] = tr.duration(op)
                out[f"validation.quad.{res.name}.evals"] = sum(
                    a["count"] for c in tr.children(op) for a in tr.callbacks_under(c))
                out[f"validation.quad.{res.name}.err_est"] = res.extra["err_est"]
            elif res.kind == "push":
                out[f"validation.push.{res.name}.s"] = tr.duration(op)
            elif res.kind == "mc":
                out["validation.mc.ess"] = res.extra["ess"]
        return out


def _power_check(must_fail: bool):
    def check(report):
        if must_fail:
            return _expect(not report.passed, f"power control passed: {report.details}")
        return _expect(report.passed, f"check failed: {report.details}")
    return check


# ---------------------------------------------------------------------------
# fit: paired kotz-gamma data from the README truth, three fits per sample


def sample_pairs(m: int, rng) -> np.ndarray:
    """One dependent draw of m pairs: a single 2m-block vector, reshaped."""
    base = ScaleShapeParams(
        shapes=(TRUTH.alpha,) * m + (TRUTH.beta,) * m,
        scales=(TRUTH.sigma1**2,) * m + (TRUTH.sigma2**2,) * m,
    )
    flat = np.asarray(sample_mv_gengamma(base, Kotz(q=TRUTH.q, r=TRUTH.r, s=TRUTH.s), rng))
    return np.column_stack([flat[:m], flat[m:]])


FIT_SIZES = (200, 2000)
FIT_KINDS = ("dependent", "independent", "frozen")
# The samples are fixed draws at criterion 08's seed, not drawn from the
# workload seed: the dependent likelihood has no maximum, so the optimizer's
# path, and with it the fit time, changes by up to 2x from one draw to the
# next; seed-drawn data would bury every code change in noise.
FIT_DATA_SEED = 2024


class Fit(Workload):
    name = "fit"
    # one fit's wall time swings by a third between runs on a shared host,
    # so a run takes each fit's median over three passes
    min_passes = 3

    def setup(self, seed: int, tiny: bool, root: Path):
        data = []
        for m in FIT_SIZES:
            pairs = sample_pairs(m, make_rng(FIT_DATA_SEED))
            truth_ll = loglik_dependent(TRUTH, SuffStats(pairs[:, 0], pairs[:, 1]))
            data.append((m, SampleMatrix(pairs), truth_ll))
        # warm-up: one frozen fit touches every code path the fits share
        fit_dependent(data[0][1], freeze_generator=True)
        return {"data": data, "max_iter": 400 if tiny else 10_000}

    def ops(self, st, pass_index: int) -> list[Op]:
        ops = []
        max_iter = st["max_iter"]
        largest = max(FIT_SIZES)
        for m, data, truth_ll in st["data"]:
            for kind in FIT_KINDS:
                if kind == "independent":
                    call, label = (lambda d: fit_independent(d, max_iter=max_iter)), "mle.fit_independent"
                elif kind == "frozen":
                    call, label = (lambda d: fit_dependent(d, freeze_generator=True, max_iter=max_iter)), "mle.fit_dependent_frozen"
                else:
                    call, label = (lambda d: fit_dependent(d, max_iter=max_iter)), "mle.fit_dependent"

                def run(tr, call=call, label=label, data=data):
                    with tr.span(label, "mle"):
                        return call(data)

                def check(res, kind=kind, m=m, truth_ll=truth_ll):
                    if not math.isfinite(res.loglik):
                        return f"non-finite loglik {res.loglik}"
                    if kind == "dependent" and m == largest:
                        for key, true in (("alpha", TRUTH.alpha), ("beta", TRUTH.beta)):
                            if abs(res.params[key] - true) / true >= 0.10:
                                return f"{key}={res.params[key]:.4g} not within 10% of {true}"
                        if res.loglik < truth_ll - 3.0:
                            return f"loglik {res.loglik:.6g} < truth {truth_ll:.6g} - 3"
                    return None

                ops.append(Op(f"fit-{kind}-m{m}", f"{kind}.{m}", run, check, cap_s=60.0,
                              extra=_fit_facts))
        return ops

    def summary(self, st, results: list[OpResult]) -> dict:
        largest = max(FIT_SIZES)
        out = {}
        for kind, key in (("dependent", "fit_dependent_s"), ("independent", "fit_independent_s")):
            times = [r.scaled for r in results if r.kind == f"{kind}.{largest}" and r.error is None]
            out[key] = (float(np.median(times)) if times else math.nan, "s")
        return out

    def layer_metrics(self, st, tr, results: list[OpResult]) -> dict:
        out = {}
        for kind in FIT_KINDS:
            for m in FIT_SIZES:
                rows = [r for r in results if r.kind == f"{kind}.{m}" and "iterations" in r.extra]
                iters = sum(r.extra["iterations"] for r in rows)
                restarts = sum(r.extra["restarts"] for r in rows)
                conv = sum(r.extra["restarts_converged"] for r in rows)
                secs = sum(r.seconds for r in rows)
                out[f"mle.{kind}.{m}.nm_iterations"] = iters
                out[f"mle.{kind}.{m}.converged_ratio"] = conv / restarts if restarts else 0.0
                out[f"mle.{kind}.{m}.s_per_iteration"] = secs / iters if iters else 0.0
        return out


def _fit_facts(res) -> dict:
    restarts = res.restarts or [{"converged": res.converged}]
    return {
        "iterations": res.iterations,
        "restarts": len(restarts),
        "restarts_converged": sum(1 for r in restarts if r["converged"]),
    }


# ---------------------------------------------------------------------------
# batch: vectorized logpdf and sampling, every CLI family plus Bessel


@dataclass
class Family:
    name: str
    logpdf: Callable[[np.ndarray], np.ndarray]  # (n, d) -> (n,)
    logpdf_one: Callable[[np.ndarray], float]  # (d,) -> scalar
    sample: Callable[[Any, int], np.ndarray]  # (rng, n) -> (n, d)
    support: list[tuple[float, float]]


def _plain(name, dens, samp, p, support, spec=None):
    args = (p,) if spec is None else (p, spec)
    return Family(
        name,
        lambda x: dens(*args, x),
        lambda x: dens(*args, x),
        lambda rng, n: np.atleast_2d(samp(*args, rng, size=n)),
        support,
    )


def _joint(name, dens, samp, p, support):
    def sample(rng, n):
        s0, blocks = samp(p, rng, size=n)
        return np.column_stack([np.asarray(s0), np.atleast_2d(blocks)])

    return Family(
        name,
        lambda x: dens(p, x[:, 0], x[:, 1:]),
        lambda x: dens(p, float(x[0]), x[1:]),
        sample,
        support,
    )


# families whose single-point logpdf call the traced run probes
SCALAR_PROBE_FAMILIES = (
    "kotz-gamma", "mv-elliptical", "mv-elliptical-bessel", "mv-t", "mv-beta1", "gengamma-beta1",
)
GAUSS_2D = MvEllipticalParams.scalar_blocks(mus=[0.0, 1.0], sigma2s=[1.0, 4.0])


def batch_families() -> list[Family]:
    kg = ScaleShapeParams(shapes=(TRUTH.alpha, TRUTH.beta), scales=(TRUTH.sigma1**2, TRUTH.sigma2**2))
    kg_spec = Kotz(q=TRUTH.q, r=TRUTH.r, s=TRUTH.s)
    gg3 = ScaleShapeParams(shapes=(2.0, 1.3, 1.7), scales=(1.0, 0.6, 1.4))
    logell = MvEllipticalParams.scalar_blocks(mus=[0.2, -0.1], sigma2s=[0.8, 1.2])
    mvt = MvTParams(dims=(1, 1), alpha0=1.6, betas=(1.0, 2.5))
    mvp2 = MvTParams(dims=(1, 1), alpha0=1.3, betas=(1.2, 0.7))
    beta2_p = BetaParams(shape=ExtendedShape(alphas=(1.4, 1.1), alpha0=2.2), betas=(1.0, 0.8))
    p7 = JointScaleParams(spec=GAUSS, alpha0=1.5, sigma2s=(1.0, 0.8), dims=(1,))
    p2 = JointScaleParams(spec=GAUSS, alpha0=1.8, sigma2s=(0.9, 1.1), dims=(1,))
    gb1 = JointScaleParams(spec=GAUSS, alpha0=1.4, sigma2s=(1.0, 0.7), alphas=(1.2,))
    gb2 = JointScaleParams(spec=PearsonVII(r=2.0, q=4.5), alpha0=1.3, sigma2s=(1.0, 0.9), alphas=(1.1,))
    bessel_p, bessel_spec = _bessel_fixture()
    pos, real, unit, sym = (0.0, INF), (-INF, INF), (0.0, 1.0), (-1.0, 1.0)
    return [
        _plain("kotz-gamma", logpdf_mv_gengamma, sample_mv_gengamma, kg, [pos] * 2, kg_spec),
        _plain("mv-gengamma", logpdf_mv_gengamma, sample_mv_gengamma, gg3, [pos] * 3,
               Kotz(q=0.8, r=1.0, s=1.2)),
        _plain("mv-elliptical", logpdf_mv_elliptical, sample_mv_elliptical, GAUSS_2D, [real] * 2, GAUSS),
        _plain("log-elliptical", logpdf_mv_log_elliptical, sample_mv_log_elliptical, logell,
               [pos] * 2, kg_spec),
        _plain("mv-t", logpdf_mv_t, sample_mv_t, mvt, [real] * 2),
        _plain("mv-pearson2", logpdf_mv_pearson2, sample_mv_pearson2, mvp2, [sym] * 2),
        _plain("mv-beta1", logpdf_mv_beta1, sample_mv_beta1, BETA1_K2, [unit] * 2),
        _plain("mv-beta2", logpdf_mv_beta2, sample_mv_beta2, beta2_p, [pos] * 2),
        _joint("gengamma-pearson7", logpdf_gengamma_pearson7, sample_gengamma_pearson7, p7, [pos, real]),
        _joint("gengamma-pearson2", logpdf_gengamma_pearson2, sample_gengamma_pearson2, p2, [pos, sym]),
        _joint("gengamma-beta1", logpdf_gengamma_beta1, sample_gengamma_beta1, gb1, [pos, unit]),
        _joint("gengamma-beta2", logpdf_gengamma_beta2, sample_gengamma_beta2, gb2, [pos, pos]),
        _plain("mv-elliptical-bessel", logpdf_mv_elliptical, sample_mv_elliptical, bessel_p,
               [real] * 2, bessel_spec),
    ]


def criterion02_points():
    """The points and references of the Gaussian / Student-t reduction criterion."""
    rng = np.random.default_rng(10)
    S1 = np.array([[2.0, 0.4], [0.4, 1.0]])
    S2 = np.array([[0.9]])
    mu = np.array([0.5, -1.0, 2.0])
    p = MvEllipticalParams(partition=Partition(dims=(2, 1)), mus=(mu[:2], mu[2:]), sigmas=(S1, S2))
    mvn = stats.multivariate_normal(
        mean=mu, cov=np.block([[S1, np.zeros((2, 1))], [np.zeros((1, 2)), S2]])
    )
    cases = [(p, GAUSS, rng.normal(size=(20, 3)) * 2.0, mvn.logpdf, 1e-12, False)]
    for n, nu in ((1, 3.0), (2, 5.0), (3, 2.0)):
        S = np.eye(n) + 0.3 * np.ones((n, n))
        pt = MvEllipticalParams(partition=Partition(dims=(n,)), mus=(np.zeros(n),), sigmas=(S,))
        mvt = stats.multivariate_t(loc=np.zeros(n), shape=S, df=nu)
        cases.append((pt, PearsonVII(r=nu, q=(n + nu) / 2.0), rng.normal(size=(20, n)) * 1.5,
                      mvt.logpdf, 1e-10, True))
    return cases


def check_reductions() -> str | None:
    """Batched Gaussian and Student-t reductions against scipy."""
    for p, spec, xs, ref, tol, relative in criterion02_points():
        got = np.asarray(logpdf_mv_elliptical(p, spec, xs))
        want = np.asarray([ref(x) for x in xs])
        scale = np.maximum(1.0, np.abs(want)) if relative else 1.0
        err = float(np.max(np.abs(got - want) / scale))
        if not err <= tol:
            return f"{type(spec).__name__} reduction differs from scipy by {err:.3g} > {tol}"
    return None


class Batch(Workload):
    name = "batch"
    subsample = 8
    # its ops take 0.02-0.3 s, short enough for a slow spell of the host to
    # hit one pass's copy of an op hard; each op's median is over four passes
    min_passes = 4

    def setup(self, seed: int, tiny: bool, root: Path):
        n = 2_000 if tiny else 100_000
        families = batch_families()
        rng = make_rng(seed)
        # the logpdf input is n/10 draws of the family's own sampler repeated
        # ten times (a logpdf call's cost does not depend on repeats, and 1e5
        # Bessel draws would double set-up); the first Bessel draw pays the
        # cold inverse-CDF build
        points = {f.name: np.tile(f.sample(rng, n // 10), (10, 1)) for f in families}
        for f in families:
            f.logpdf(points[f.name][:16])
        return {"n": n, "seed": seed, "families": families, "points": points}

    def ops(self, st, pass_index: int) -> list[Op]:
        ops = []
        n = st["n"]
        for f in st["families"]:
            pts = st["points"][f.name]

            def run_logpdf(tr, f=f, pts=pts):
                with tr.span(f"densities.{f.name}.logpdf", "densities"):
                    return np.asarray(f.logpdf(pts))

            def check_logpdf(vals, f=f, pts=pts):
                if vals.shape != (pts.shape[0],):
                    return f"logpdf shape {vals.shape}"
                if np.any(np.isnan(vals)):
                    return "NaN logpdf at a sampled point"
                idx = np.linspace(0, pts.shape[0] - 1, self.subsample).astype(int)
                scalar = np.array([float(f.logpdf_one(pts[i])) for i in idx])
                if not np.allclose(vals[idx], scalar, rtol=1e-12, atol=1e-12):
                    return f"batched logpdf {vals[idx]} differs from scalar calls {scalar}"
                if f.name == "mv-elliptical":
                    mvn = stats.multivariate_normal(mean=[0.0, 1.0], cov=np.diag([1.0, 4.0]))
                    ref = mvn.logpdf(pts[idx])
                    if not np.all(np.abs(ref - vals[idx]) <= 1e-12 * np.maximum(1.0, np.abs(ref))):
                        return "Gaussian batch differs from scipy"
                    return check_reductions()
                return None

            rng = make_rng([st["seed"], pass_index, len(ops)])  # fresh draws every pass

            def run_sample(tr, f=f, rng=rng):
                with tr.span(f"sampling.{f.name}.sample", "sampling"):
                    return f.sample(rng, n)

            def check_sample(x, f=f):
                if x.shape != (n, len(f.support)):
                    return f"sample shape {x.shape}"
                if not np.all(np.isfinite(x)):
                    return "non-finite draw"
                for j, (lo, hi) in enumerate(f.support):
                    if not np.all((x[:, j] > lo) & (x[:, j] < hi)):
                        return f"draw outside support on column {j}"
                return None

            ops.append(Op(f"logpdf-{f.name}", f"logpdf.{f.name}", run_logpdf, check_logpdf, cap_s=30.0))
            ops.append(Op(f"sample-{f.name}", f"sample.{f.name}", run_sample, check_sample, cap_s=30.0))
        return ops

    def summary(self, st, results: list[OpResult]) -> dict:
        n = st["n"]
        lp = [r.scaled for r in results if r.kind.startswith("logpdf.")]
        sm = [r.scaled for r in results if r.kind.startswith("sample.")]
        return {
            "logpdf_evals_per_s": (n * len(lp) / sum(lp) if lp else math.nan, "1/s"),
            "draws_per_s": (n * len(sm) / sum(sm) if sm else math.nan, "1/s"),
        }

    def layer_metrics(self, st, tr, results: list[OpResult]) -> dict:
        out = {}
        n = st["n"]
        for f in st["families"]:
            for kind, key in (("logpdf", f"densities.{f.name}.batch_per_s"),
                              ("sample", f"sampling.{f.name}.draws_per_s")):
                secs = [r.seconds for r in results if r.kind == f"{kind}.{f.name}"]
                out[key] = n * len(secs) / sum(secs) if secs else 0.0
        return out


# ---------------------------------------------------------------------------
# cli: one `python -m multivec.cli` subprocess at a time, round-robin


CLI_COMMANDS = ("eval", "sample", "grid", "fit", "check")


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, cwd: Path, spool: Path):
    """Run one child to completion; return (rc, stdout, stderr, peak_rss_kb).

    The child is killed and reaped when the op's cap interrupts the wait.
    Its output is spooled to files under ``spool``.
    """
    with tempfile.TemporaryFile(dir=spool) as out, tempfile.TemporaryFile(dir=spool) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


class Cli(Workload):
    name = "cli"
    # byte-identity needs each command twice
    min_passes = 2

    def setup(self, seed: int, tiny: bool, root: Path):
        import multivec.cli as mcli

        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        params = work / "params.json"
        params.write_text(json.dumps(TRUTH_JSON), encoding="utf-8")
        # a fixed fit input, for the reason given at FIT_DATA_SEED: with
        # seed-drawn pairs the fit's iteration count varies 25-fold and some
        # draws do not converge (exit 2)
        pairs = sample_pairs(60, make_rng(FIT_DATA_SEED))
        inp = work / "pairs.csv"
        inp.write_text("u,v\n" + "".join(f"{float(u)!r},{float(v)!r}\n" for u, v in pairs), encoding="utf-8")
        point = make_rng(seed).uniform(0.5, 6.0, size=2)
        point_arg = f"{point[0]:.6f},{point[1]:.6f}"
        base = ScaleShapeParams(shapes=(TRUTH.alpha, TRUTH.beta),
                                scales=(TRUTH.sigma1**2, TRUTH.sigma2**2))
        value = float(logpdf_mv_gengamma(base, Kotz(q=TRUTH.q, r=TRUTH.r, s=TRUTH.s),
                                         np.array([float(t) for t in point_arg.split(",")])))
        expected_eval = ("-inf" if value == -INF else format(value, ".12g")) + "\n"
        n, steps, n_draws = (200, 20, 2_000) if tiny else (2_000, 200, 100_000)
        args = {
            "eval": ["eval", "--model", "kotz-gamma", "--params", str(params), "--point", point_arg],
            "sample": ["sample", "--model", "kotz-gamma", "--params", str(params), "-n", str(n),
                       "--seed", str(seed), "--out", "{out}.csv"],
            "grid": ["grid", "--model", "kotz-gamma-2d", "--params", str(params),
                     "--range", "0.1,8,0.1,8", "--steps", str(steps), "--out", "{out}.csv"],
            "fit": ["fit", "--model", "kotz-gamma", "--mode", "independent",
                    "--input", str(inp), "--out", "{out}.json"],
            "check": ["check", "--suite", "identities", "--seed", str(ORACLE_SEED),
                      "--n-draws", str(n_draws)],
        }
        return {"root": root, "work": work, "args": args, "env": cli_env(root), "cli": mcli,
                "expected_eval": expected_eval.encode(), "n": n, "steps": steps,
                "reference": {}, "rss_kb": [], "invocations": 0}

    def _argv(self, st, cmd: str) -> tuple[list[str], Path | None]:
        st["invocations"] += 1
        stem = st["work"] / f"{cmd}-{st['invocations']}"
        out_path = None
        argv = []
        for a in st["args"][cmd]:
            if a.startswith("{out}"):
                out_path = Path(str(stem) + a[len("{out}"):])
                a = str(out_path)
            argv.append(a)
        return argv, out_path

    def ops(self, st, pass_index: int) -> list[Op]:
        ops = []
        for cmd in CLI_COMMANDS:
            def run(tr, cmd=cmd):
                argv, out_path = self._argv(st, cmd)
                with tr.span(f"cli.{cmd}", "cli"):
                    rc, out, err, rss = run_child(
                        [sys.executable, "-m", "multivec.cli", *argv], st["env"], st["root"],
                        st["work"],
                    )
                st["rss_kb"].append(rss)
                body = b""
                if out_path is not None and out_path.exists():
                    body = out_path.read_bytes()
                    out_path.unlink()
                return rc, out, err, body

            def check(res, cmd=cmd):
                rc, out, err, body = res
                if rc != 0:
                    return f"exit code {rc}: {err.decode(errors='replace')[-300:]}"
                problem = self._check_content(st, cmd, out, body)
                if problem:
                    return problem
                ref = st["reference"].setdefault(cmd, (out, body))
                return _expect(ref == (out, body), "output differs from the previous invocation")

            ops.append(Op(f"cli-{cmd}", f"cli.{cmd}", run, check, cap_s=60.0))
        return ops

    def _check_content(self, st, cmd, out: bytes, body: bytes) -> str | None:
        if cmd == "eval":
            return _expect(out == st["expected_eval"],
                           f"eval printed {out!r}, library gives {st['expected_eval']!r}")
        if cmd == "sample":
            lines = body.decode().splitlines()
            return _expect(lines[:1] == ["u,v"] and len(lines) == st["n"] + 1, "bad sample CSV")
        if cmd == "grid":
            lines = body.decode().splitlines()
            return _expect(lines[:1] == ["u,v,pdf"] and len(lines) == st["steps"] ** 2 + 1,
                           "bad grid CSV")
        if cmd == "fit":
            doc = json.loads(body)
            return _expect(math.isfinite(doc["loglik"]) and doc["mode"] == "independent",
                           "bad fit JSON")
        if cmd == "check":
            rows = [json.loads(line) for line in out.decode().splitlines()]
            return _expect(bool(rows) and all(r["passed"] for r in rows), "a check failed")
        return None

    def summary(self, st, results: list[OpResult]) -> dict:
        times = [r.scaled for r in results]
        value, pct = tail(times)
        return {
            "cli_p50_s": (float(np.median(times)), "s"),
            "cli_tail_s": (value, "s"),
            "cli_tail_percentile": (pct, "%"),
            "cli_invocations": (len(times), "count"),
        }

    def peak_rss_mb(self, st) -> float:
        return max(st["rss_kb"], default=0) / 1024.0

    def inproc(self, st) -> dict:
        """Each command's arguments run through ``cli.main`` in this process."""
        out = {}
        for cmd in CLI_COMMANDS:
            argv, out_path = self._argv(st, cmd)
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = st["cli"].main(argv)
            out[f"cli.{cmd}.inproc_s"] = time.perf_counter() - t0
            if out_path is not None and out_path.exists():
                out_path.unlink()
            if rc != 0:
                raise RuntimeError(f"in-process cli {cmd} exited {rc}")
        return out

    def layer_metrics(self, st, tr, results: list[OpResult]) -> dict:
        out = {}
        for cmd in CLI_COMMANDS:
            times = [r.seconds for r in results if r.kind == f"cli.{cmd}"]
            out[f"cli.{cmd}.wall_s"] = float(np.median(times)) if times else 0.0
        out.update(self.inproc(st))
        return out

    def close(self, st) -> None:
        shutil.rmtree(st["work"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Verify(), Fit(), Batch(), Cli())}
