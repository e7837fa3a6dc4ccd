"""Kotz-gamma maximum likelihood: paired dependent fit vs per-variable fits.

The dependent model treats all 2m observations (u_1..u_m, v_1..v_m) as one
draw of a 2m-block scalar gengamma vector with a shared Kotz generator, so
its log-likelihood depends on the data only through the sufficient statistics
(m, a, b, c, d).  The independent model fits each column on its own with a
per-column generator.  Both likelihood expressions are guarded by the
density-sum oracle in the test suite: they must agree with direct sums of
``logpdf_mv_gengamma`` evaluations to 1e-8.

All fits are deterministic: positivity is enforced by optimizing logs of the
parameters with a self-contained Nelder-Mead simplex, started from the
closed-form gamma estimates and restarted from fixed perturbations of the
generator shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import FitResult, SampleMatrix
from .errors import (
    DegenerateSample,
    EmptySample,
    NonFiniteLikelihood,
    NonPositiveInput,
    ParameterOutOfDomain,
)

__all__ = [
    "KotzGammaDepParams",
    "SuffStats",
    "loglik_dependent",
    "loglik_independent",
    "gamma_init",
    "NelderMeadResult",
    "nelder_mead",
    "fit_dependent",
    "fit_independent",
]

# below this, log(sample mean) - mean(log sample) is numerical noise
_T_EPS = 1e-12

# a restart must beat the incumbent by this many nats to replace it; the
# likelihood surface has exact flat directions, so ties are common and the
# Gaussian-anchor start is the preferred representative
_RESTART_MARGIN = 1e-6


@dataclass(frozen=True)
class KotzGammaDepParams:
    """Seven parameters of the paired dependent model.

    (sigma1, alpha) and (sigma2, beta) are the per-column gamma scale/shape
    pairs; (r, q, s) is the shared Kotz generator.  The generator constraint
    2q + n > 2 holds at the data-determined dimension n = 2m(alpha+beta), so
    it depends on the sample size and is checked by :func:`loglik_dependent`.
    """

    sigma1: float
    sigma2: float
    alpha: float
    beta: float
    r: float
    q: float
    s: float

    def __post_init__(self) -> None:
        for name in ("sigma1", "sigma2", "alpha", "beta", "r", "s"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ParameterOutOfDomain(f"{name} must be positive, got {val}")
        if not np.isfinite(self.q):
            raise ParameterOutOfDomain(f"q must be finite, got {self.q}")

    def validate_at(self, m: int) -> None:
        """Check the Kotz domain constraint at sample size m."""
        n = 2.0 * m * (self.alpha + self.beta)
        if not 2.0 * self.q + n > 2.0:
            raise ParameterOutOfDomain(
                f"Kotz constraint 2q + n > 2 fails at n = {n} with q = {self.q}"
            )


class SuffStats:
    """Sufficient statistics of a paired positive sample.

    a = sum(log u), b = sum(log v), c = sum(u), d = sum(v); all sums use
    compensated (exactly rounded) summation so values are independent of
    evaluation order.
    """

    __slots__ = ("m", "a", "b", "c", "d")

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        u = np.asarray(u, dtype=float).ravel()
        v = np.asarray(v, dtype=float).ravel()
        if u.size == 0 or v.size == 0:
            raise EmptySample("sufficient statistics need a non-empty sample")
        if u.size != v.size:
            raise DegenerateSample(
                f"paired sample with mismatched lengths {u.size} and {v.size}"
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NonPositiveInput("sample contains NaN or Inf")
        if np.any(u <= 0) or np.any(v <= 0):
            raise NonPositiveInput("paired gengamma sample must be positive")
        self.m = int(u.size)
        self.a = math.fsum(np.log(u))
        self.b = math.fsum(np.log(v))
        self.c = math.fsum(u)
        self.d = math.fsum(v)

    @classmethod
    def from_matrix(cls, data: SampleMatrix | np.ndarray) -> "SuffStats":
        values = _as_matrix(data)
        return cls(values[:, 0], values[:, 1])


def loglik_dependent(p: KotzGammaDepParams, stats: SuffStats) -> float:
    """Joint log-likelihood of the paired sample under the dependent model.

    log s + [q + m(a+b) - 1] log(r)/s + logG(m(a+b)) - logG([q + m(a+b) - 1]/s)
      + (alpha-1) a + (beta-1) b
      - m {2 alpha log sig1 + 2 beta log sig2 + logG(alpha) + logG(beta)}
      + (q-1) log w - r w^s,          w = c/sig1^2 + d/sig2^2
    """
    p.validate_at(stats.m)
    m = stats.m
    mab = m * (p.alpha + p.beta)
    nu = (p.q + mab - 1.0) / p.s
    if nu <= 0:
        raise ParameterOutOfDomain(f"kernel moment index (q + m(a+b) - 1)/s = {nu} <= 0")
    w = stats.c / p.sigma1**2 + stats.d / p.sigma2**2
    value = (
        math.log(p.s)
        + nu * math.log(p.r)
        + gammaln(mab)
        - gammaln(nu)
        + (p.alpha - 1.0) * stats.a
        + (p.beta - 1.0) * stats.b
        - m
        * (
            2.0 * p.alpha * math.log(p.sigma1)
            + 2.0 * p.beta * math.log(p.sigma2)
            + gammaln(p.alpha)
            + gammaln(p.beta)
        )
        + (p.q - 1.0) * math.log(w)
        - p.r * w**p.s
    )
    if not np.isfinite(value):
        raise NonFiniteLikelihood(f"dependent log-likelihood is {value}")
    return float(value)


def loglik_independent(
    sigma: float, shape: float, r: float, q: float, s: float, sample: np.ndarray
) -> float:
    """Log-likelihood of one positive column under an independent model.

    m log s + m(q + shape - 1) log(r)/s - m logG([q + shape - 1]/s)
      - 2m(q + shape - 1) log sigma + (q + shape - 2) a - r sigma^{-2s} b_s,
    with a = sum(log u) and b_s = sum(u^s).
    """
    u = np.asarray(sample, dtype=float).ravel()
    if u.size == 0:
        raise EmptySample("independent likelihood needs a non-empty sample")
    if not np.all(np.isfinite(u)):
        raise NonPositiveInput("sample contains NaN or Inf")
    if np.any(u <= 0):
        raise NonPositiveInput("gengamma sample must be positive")
    for name, val in (("sigma", sigma), ("shape", shape), ("r", r), ("s", s)):
        if not (np.isfinite(val) and val > 0):
            raise ParameterOutOfDomain(f"{name} must be positive, got {val}")
    nu = (q + shape - 1.0) / s
    if nu <= 0:
        raise ParameterOutOfDomain(f"kernel moment index (q + shape - 1)/s = {nu} <= 0")
    m = u.size
    a = math.fsum(np.log(u))
    b_s = math.fsum(u**s)
    value = (
        m * math.log(s)
        + m * nu * math.log(r)
        - m * gammaln(nu)
        - 2.0 * m * (q + shape - 1.0) * math.log(sigma)
        + (q + shape - 2.0) * a
        - r * sigma ** (-2.0 * s) * b_s
    )
    if not np.isfinite(value):
        raise NonFiniteLikelihood(f"independent log-likelihood is {value}")
    return float(value)


def gamma_init(sample: np.ndarray) -> tuple[float, float]:
    """Closed-form gamma estimates (shape, scale) used to start every fit.

    t = log(mean u) - mean(log u);  alpha = (3 - t + sqrt((t-3)^2 + 24t))/(12t);
    sigma = sqrt(sum(u) / (2 m alpha)).  The scale convention matches the
    gengamma reduction u ~ Gamma(alpha, 2 sigma^2).
    """
    u = np.asarray(sample, dtype=float).ravel()
    if u.size == 0:
        raise EmptySample("gamma initializer needs a non-empty sample")
    if not np.all(np.isfinite(u)):
        raise NonPositiveInput("sample contains NaN or Inf")
    if np.any(u <= 0):
        raise NonPositiveInput("gamma initializer needs positive data")
    m = u.size
    total = math.fsum(u)
    t = math.log(total / m) - math.fsum(np.log(u)) / m
    if t <= _T_EPS:
        raise DegenerateSample(
            f"log-moment gap t = {t} is not positive; sample is (near-)constant"
        )
    alpha = (3.0 - t + math.sqrt((t - 3.0) ** 2 + 24.0 * t)) / (12.0 * t)
    sigma = math.sqrt(total / (2.0 * m * alpha))
    return alpha, sigma


# ---------------------------------------------------------------------------
# Derivative-free optimizer


@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(
    objective,
    x0: np.ndarray,
    f_tol: float = 1e-10,
    max_iter: int = 10_000,
) -> NelderMeadResult:
    """Minimize with a standard simplex: reflect 1, expand 2, contract and shrink 1/2.

    Stops when the simplex function spread falls below ``f_tol`` (parameter
    scales in a fit differ by orders of magnitude, so function spread is the
    meaningful criterion) or after ``max_iter`` iterations, in which case the
    best point is returned with ``converged=False``.  Non-finite objective
    values during the search are treated as +inf so the simplex backs away;
    the starting point itself must be finite.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    d = x0.size

    def f(x: np.ndarray) -> float:
        val = objective(x)
        return float(val) if np.isfinite(val) else math.inf

    f0 = objective(x0)
    if not np.isfinite(f0):
        raise NonFiniteLikelihood(f"objective is {f0} at the starting point")

    simplex = [x0]
    for i in range(d):
        step = 0.05 * x0[i] if x0[i] != 0.0 else 0.00025
        vertex = x0.copy()
        vertex[i] += step
        simplex.append(vertex)
    simplex = np.asarray(simplex)
    fvals = np.array([float(f0)] + [f(v) for v in simplex[1:]])

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        spread = fvals[-1] - fvals[0]
        if np.isfinite(spread) and spread < f_tol:
            # a symmetric simplex can straddle the optimum with near-equal
            # values; declare convergence only if a contraction toward the
            # centroid cannot improve the best vertex
            candidate = 0.5 * (simplex[0] + simplex.mean(axis=0))
            f_cand = f(candidate)
            if not f_cand < fvals[0]:
                converged = True
                break
            iterations += 1
            simplex[-1], fvals[-1] = candidate, f_cand
            continue
        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = f(reflected)
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_c = f(contracted)
                accept = f_c <= f_r
            else:
                contracted = centroid + 0.5 * (simplex[-1] - centroid)
                f_c = f(contracted)
                accept = f_c < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                best = simplex[0]
                simplex = best + 0.5 * (simplex - best)
                fvals = np.array([fvals[0]] + [f(v) for v in simplex[1:]])

    order = np.argsort(fvals, kind="stable")
    simplex, fvals = simplex[order], fvals[order]
    return NelderMeadResult(
        x=simplex[0], fun=float(fvals[0]), iterations=iterations, converged=converged
    )


# ---------------------------------------------------------------------------
# Fit drivers

_GAUSS_RQS = (0.5, 1.0, 1.0)


def _restart_starts(
    theta0: np.ndarray, q_idx: int, s_idx: int, count: int = 3
) -> list[np.ndarray]:
    """Gaussian anchor plus fixed perturbations of q and s (in log space).

    Restart i pairs opposite +-20%-per-level moves of q and s, widening every
    two restarts; the default of three reproduces the anchor and one +-20%
    pair in each direction.
    """
    if count < 1:
        raise ParameterOutOfDomain(f"need at least one start, got {count}")
    starts = [theta0]
    for i in range(1, count):
        level = (i + 1) // 2
        fq, fs = (1.2**level, 0.8**level) if i % 2 else (0.8**level, 1.2**level)
        t = theta0.copy()
        t[q_idx] += math.log(fq)
        t[s_idx] += math.log(fs)
        starts.append(t)
    return starts


def _as_matrix(data: SampleMatrix | np.ndarray) -> np.ndarray:
    values = data.values if isinstance(data, SampleMatrix) else np.asarray(data, float)
    if values.ndim != 2 or values.shape[1] != 2:
        raise DegenerateSample(f"paired fit needs an m x 2 matrix, got {values.shape}")
    return values


def _best_of_starts(
    objective, starts: list[np.ndarray], f_tol: float, max_iter: int
) -> tuple[NelderMeadResult, int, list[dict]]:
    """Run Nelder-Mead from each start; (best result, total iterations, restart log).

    A later start replaces the incumbent only if it beats it by _RESTART_MARGIN.
    """
    best: NelderMeadResult | None = None
    restart_log: list[dict] = []
    total_iter = 0
    for start in starts:
        res = nelder_mead(objective, start, f_tol=f_tol, max_iter=max_iter)
        total_iter += res.iterations
        restart_log.append(
            {
                "start": [float(v) for v in np.exp(start)],
                "loglik": -res.fun,
                "converged": res.converged,
                "iterations": res.iterations,
            }
        )
        if best is None or res.fun < best.fun - _RESTART_MARGIN:
            best = res
    return best, total_iter, restart_log


def fit_dependent(
    data: SampleMatrix | np.ndarray,
    freeze_generator: bool = False,
    f_tol: float = 1e-10,
    max_iter: int = 10_000,
    restarts: int = 3,
) -> FitResult:
    """Maximize the dependent likelihood over (sigma1, alpha, sigma2, beta, r, q, s).

    All seven parameters are optimized as logs, starting from the per-column
    gamma estimates with the Gaussian generator (r, q, s) = (1/2, 1, 1).  The
    surface is multimodal in (r, q, s), so two extra restarts perturb q and s
    by +-20% and the best final likelihood wins.  With ``freeze_generator``
    the generator stays at the Gaussian point and only the four gamma
    parameters move (the model then factorizes into the two per-column gamma
    likelihoods).  Deterministic given (data, options).
    """
    values = _as_matrix(data)
    if values.shape[0] < 3:
        raise DegenerateSample(f"dependent fit needs m >= 3 pairs, got {values.shape[0]}")
    stats = SuffStats(values[:, 0], values[:, 1])
    a1, s1 = gamma_init(values[:, 0])
    a2, s2 = gamma_init(values[:, 1])

    def unpack(theta: np.ndarray) -> KotzGammaDepParams:
        if freeze_generator:
            sig1, alpha, sig2, beta = np.exp(theta)
            r, q, s = _GAUSS_RQS
        else:
            sig1, alpha, sig2, beta, r, q, s = np.exp(theta)
        return KotzGammaDepParams(
            sigma1=sig1, sigma2=sig2, alpha=alpha, beta=beta, r=r, q=q, s=s
        )

    def objective(theta: np.ndarray) -> float:
        try:
            return -loglik_dependent(unpack(theta), stats)
        except (ParameterOutOfDomain, NonFiniteLikelihood, OverflowError):
            return math.inf

    gauss_block = np.log([s1, a1, s2, a2])
    if freeze_generator:
        starts = [gauss_block]
    else:
        theta0 = np.concatenate([gauss_block, np.log(_GAUSS_RQS)])
        starts = _restart_starts(theta0, q_idx=5, s_idx=6, count=restarts)

    best, total_iter, restart_log = _best_of_starts(objective, starts, f_tol, max_iter)
    p = unpack(best.x)
    loglik = -best.fun
    if not np.isfinite(loglik):
        raise NonFiniteLikelihood("dependent fit did not reach a finite likelihood")
    params = {
        "sigma1": p.sigma1,
        "alpha": p.alpha,
        "sigma2": p.sigma2,
        "beta": p.beta,
        "r": p.r,
        "q": p.q,
        "s": p.s,
    }
    return FitResult(
        params=params,
        loglik=loglik,
        iterations=total_iter,
        converged=best.converged,
        mode="dependent" + ("-frozen" if freeze_generator else ""),
        restarts=restart_log,
    )


def _fit_one_column(
    u: np.ndarray, freeze_generator: bool, f_tol: float, max_iter: int, restarts: int
) -> tuple[dict[str, float], float, int, bool, list[dict]]:
    alpha0, sigma0 = gamma_init(u)

    def unpack(theta: np.ndarray) -> tuple[float, float, float, float, float]:
        if freeze_generator:
            sigma, shape = np.exp(theta)
            r, q, s = _GAUSS_RQS
        else:
            sigma, shape, r, q, s = np.exp(theta)
        return sigma, shape, r, q, s

    def objective(theta: np.ndarray) -> float:
        try:
            return -loglik_independent(*unpack(theta), u)
        except (ParameterOutOfDomain, NonFiniteLikelihood, OverflowError):
            return math.inf

    if freeze_generator:
        starts = [np.log([sigma0, alpha0])]
    else:
        theta0 = np.log([sigma0, alpha0, *_GAUSS_RQS])
        starts = _restart_starts(theta0, q_idx=3, s_idx=4, count=restarts)

    best, total_iter, restart_log = _best_of_starts(objective, starts, f_tol, max_iter)
    sigma, shape, r, q, s = unpack(best.x)
    params = {"sigma": sigma, "shape": shape, "r": r, "q": q, "s": s}
    return params, -best.fun, total_iter, best.converged, restart_log


def fit_independent(
    data: SampleMatrix | np.ndarray,
    freeze_generator: bool = False,
    f_tol: float = 1e-10,
    max_iter: int = 10_000,
    restarts: int = 3,
) -> FitResult:
    """Two separate five-parameter fits, one per column, under independence.

    Each column gets its own (sigma, shape, r, q, s) maximizing
    :func:`loglik_independent`, with the same initialization and restart
    policy as the dependent fit.  The reported likelihood is the sum of the
    two column likelihoods.
    """
    values = _as_matrix(data)
    if values.shape[0] < 3:
        raise DegenerateSample(f"independent fit needs m >= 3 pairs, got {values.shape[0]}")
    p1, ll1, it1, conv1, log1 = _fit_one_column(
        values[:, 0], freeze_generator, f_tol, max_iter, restarts
    )
    p2, ll2, it2, conv2, log2 = _fit_one_column(
        values[:, 1], freeze_generator, f_tol, max_iter, restarts
    )
    loglik = ll1 + ll2
    if not np.isfinite(loglik):
        raise NonFiniteLikelihood("independent fit did not reach a finite likelihood")
    params = {
        "sigma1": p1["sigma"],
        "alpha": p1["shape"],
        "r1": p1["r"],
        "q1": p1["q"],
        "s1": p1["s"],
        "sigma2": p2["sigma"],
        "beta": p2["shape"],
        "r2": p2["r"],
        "q2": p2["q"],
        "s2": p2["s"],
    }
    return FitResult(
        params=params,
        loglik=loglik,
        iterations=it1 + it2,
        converged=conv1 and conv2,
        mode="independent" + ("-frozen" if freeze_generator else ""),
        restarts=log1 + log2,
    )
