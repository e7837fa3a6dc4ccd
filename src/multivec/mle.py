"""Kotz-gamma maximum likelihood: paired dependent fit vs per-variable fits.

The dependent model treats all 2m observations (u_1..u_m, v_1..v_m) as one
draw of a 2m-block scalar gengamma vector with a shared Kotz generator, so
its log-likelihood depends on the data only through the sufficient statistics
(m, a, b, c, d).  The independent model fits each column on its own with a
per-column generator.  Both likelihood expressions are guarded by the
density-sum oracle in the test suite: they must agree with direct sums of
``logpdf_mv_gengamma`` evaluations to 1e-8.

Each fit estimates only what its likelihood identifies, by small smooth
solves; every column fit solves ``log a - digamma(a) = t`` for the gamma
shape by Newton's method, at most ``max_iter`` steps from a closed-form
start.  With the generator frozen at (r, q, s) =
(1/2, 1, 1), both models are two gamma likelihoods.  Generator free, the paired sample u = sigma^2 W D shares one
squared radius W, independent of the Dirichlet direction D: the likelihood
splits into a Dirichlet part in (alpha, beta, sigma2/sigma1) and one
generalized-gamma observation of W, unbounded in (sigma1, r, q, s), which are
pinned.  An independent column is Stacy's three-parameter generalized gamma,
profiled in s within a fixed bracket; an optimum on the bracket edge (the
log-normal limit, with no MLE) is reported as not converged.
``FitResult.pinned`` names the parameters set by convention rather than by the
data, and ``FitResult.restarts`` holds one log entry per solve.

The module imports no scipy: ``gammaln``, ``digamma`` and ``trigamma`` are
the Cephes ports in ``generators``, bit for bit scipy's, and the profile's
root finder is a port of scipy's Brent routine.  Every sum over the data is
exactly rounded by ``core._fsum``, which gives math.fsum's bits without a
Python float per term: in one integer pass when the terms share a narrow
exponent window, binned by exponent otherwise.  Each fit, the frozen
dependent one included, checks its matrix once and takes each column's logs
and their sum once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import _EXPORTS
from .core import FitResult, SampleMatrix, _fsum, _positive, _whole
from .errors import DegenerateSample, EmptySample, NonFiniteLikelihood, NonPositiveInput
from .generators import Kotz, digamma, gammaln, trigamma

__all__ = list(_EXPORTS["mle"])

# below this, log(sample mean) - mean(log sample) is numerical noise
_T_EPS = 1e-12

# exp() of anything larger is not a finite double
_LOG_MAX = math.log(sys.float_info.max)

# search interval for log s in the independent column fit; an optimum on its
# edge means the profile keeps rising toward s -> 0 (log-normal) or s -> inf
_LOG_S_BRACKET = (math.log(1.0 / 32.0), math.log(32.0))

# Newton on the dependent profile has converged once a step in (log alpha,
# log beta) is below _STEP_TOL; steps below _WHOLE_STEP skip the line search
_STEP_TOL, _WHOLE_STEP = 1e-10, 1e-3


@dataclass(frozen=True)
class KotzGammaDepParams:
    """Seven parameters of the paired dependent model.

    (sigma1, alpha) and (sigma2, beta) are the per-column gamma scale/shape
    pairs; (r, q, s) is the shared Kotz generator, checked as ``Kotz(r, q,
    s)`` checks it.  Where the generator exists also depends on the
    data-determined dimension n = 2m(alpha+beta), so :func:`loglik_dependent`
    checks it there.
    """

    sigma1: float
    sigma2: float
    alpha: float
    beta: float
    r: float
    q: float
    s: float

    def __post_init__(self) -> None:
        for name in ("sigma1", "sigma2", "alpha", "beta"):
            _positive(name, (getattr(self, name),))
        Kotz(r=self.r, q=self.q, s=self.s)


class SuffStats:
    """Sufficient statistics of a paired positive sample.

    a = sum(log u), b = sum(log v), c = sum(u), d = sum(v); each is the
    exactly rounded sum (``core._fsum``, math.fsum's bits), so values are
    independent of evaluation order.
    """

    __slots__ = ("m", "a", "b", "c", "d")

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        u, v = (np.asarray(x, dtype=float).ravel() for x in (u, v))
        if u.size == 0 or v.size == 0:
            raise EmptySample("sufficient statistics need a non-empty sample")
        if u.size != v.size:
            raise DegenerateSample(f"paired sample with mismatched lengths {u.size} and {v.size}")
        u, v = (_positive_column(x, "paired gengamma sample") for x in (u, v))
        self._fill(u, v, _logs(u)[1], _logs(v)[1])

    def _fill(self, u: np.ndarray, v: np.ndarray, a: float, b: float) -> SuffStats:
        """Set the statistics of checked columns u, v whose log sums are a, b."""
        self.m, self.a, self.b = int(u.size), a, b
        self.c, self.d = _column_sum(u, "column u"), _column_sum(v, "column v")
        return self


def _positive_column(sample: np.ndarray, user: str) -> np.ndarray:
    u = np.asarray(sample, dtype=float).ravel()
    if u.size == 0:
        raise EmptySample(f"{user} needs a non-empty sample")
    if not np.all(np.isfinite(u)):
        raise NonPositiveInput("sample contains NaN or Inf")
    if np.any(u <= 0):
        raise NonPositiveInput(f"{user} needs positive data")
    return u


def _column_sum(u: np.ndarray, column: str) -> float:
    """The exactly rounded sum of a checked column; NonFiniteLikelihood,
    naming the column, when it overflows a double."""
    try:
        return _fsum(u)
    except OverflowError:
        raise NonFiniteLikelihood(f"sum of {column} overflows; log-likelihood is -inf") from None


def _logs(u: np.ndarray) -> tuple[np.ndarray, float]:
    """A checked column's logs and their exactly rounded sum."""
    log_u = np.log(u)
    return log_u, _fsum(log_u)


def _log_sum_exp(x: np.ndarray) -> float:
    """log(sum(exp(x))) without overflow, with an exactly rounded sum."""
    top = float(np.max(x))
    return top + math.log(_fsum(np.exp(x - top)))


def _exp_penalty(log_value: float, model: str) -> float:
    """exp() of the r w^s likelihood term, formed from its logarithm."""
    if log_value > _LOG_MAX:
        raise NonFiniteLikelihood(f"{model} log-likelihood is -inf (r w^s overflows)")
    return math.exp(log_value)


def loglik_dependent(p: KotzGammaDepParams, stats: SuffStats) -> float:
    """Joint log-likelihood of the paired sample under the dependent model.

    log s + [q + m(a+b) - 1] log(r)/s + logG(m(a+b)) - logG([q + m(a+b) - 1]/s)
      + (alpha-1) a + (beta-1) b
      - m {2 alpha log sig1 + 2 beta log sig2 + logG(alpha) + logG(beta)}
      + (q-1) log w - r w^s,          w = c/sig1^2 + d/sig2^2

    log w and r w^s are formed in log space, so extreme scales do not
    overflow on the way to a finite value.  (r, q, s) is checked as a Kotz
    generator at n = 2m(alpha+beta).
    """
    m = stats.m
    mab = m * (p.alpha + p.beta)
    Kotz(r=p.r, q=p.q, s=p.s).validate_at(2.0 * mab)
    nu = (p.q + mab - 1.0) / p.s
    log_s1, log_s2 = math.log(p.sigma1), math.log(p.sigma2)
    log_w = float(np.logaddexp(math.log(stats.c) - 2.0 * log_s1,
                               math.log(stats.d) - 2.0 * log_s2))
    value = (
        math.log(p.s) + nu * math.log(p.r) + gammaln(mab) - gammaln(nu)
        + (p.alpha - 1.0) * stats.a + (p.beta - 1.0) * stats.b
        - m * (2.0 * p.alpha * log_s1 + 2.0 * p.beta * log_s2
               + gammaln(p.alpha) + gammaln(p.beta))
        + (p.q - 1.0) * log_w
        - _exp_penalty(math.log(p.r) + p.s * log_w, "dependent")
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
    with a = sum(log u) and b_s = sum(u^s); the last term is formed in log
    space.  (r, q, s) is checked as a Kotz generator at n = 2 shape.
    """
    return _column_loglik(sigma, shape, r, q, s,
                          *_logs(_positive_column(sample, "independent likelihood")))


def _column_loglik(sigma: float, shape: float, r: float, q: float, s: float,
                   log_u: np.ndarray, a: float) -> float:
    """:func:`loglik_independent` from the column's logs and their sum a."""
    for name, val in (("sigma", sigma), ("shape", shape)):
        _positive(name, (val,))
    Kotz(r, q, s).validate_at(2.0 * shape)
    nu = (q + shape - 1.0) / s
    m = log_u.size
    log_sigma = math.log(sigma)
    log_penalty = math.log(r) - 2.0 * s * log_sigma + _log_sum_exp(s * log_u)
    value = (
        m * math.log(s) + m * nu * math.log(r) - m * gammaln(nu)
        - 2.0 * m * (q + shape - 1.0) * log_sigma + (q + shape - 2.0) * a
        - _exp_penalty(log_penalty, "independent")
    )
    if not np.isfinite(value):
        raise NonFiniteLikelihood(f"independent log-likelihood is {value}")
    return float(value)


def _gamma_shape_start(t: float) -> float:
    """Closed-form approximate root of log a - digamma(a) = t (t > 0)."""
    return (3.0 - t + math.sqrt((t - 3.0) ** 2 + 24.0 * t)) / (12.0 * t)


def _check_gap(t: float) -> None:
    if t <= _T_EPS:
        raise DegenerateSample(f"log-moment gap t = {t} is not positive; sample is (near-)constant")


def gamma_init(sample: np.ndarray) -> tuple[float, float]:
    """Closed-form gamma estimates (shape, scale).

    t = log(mean u) - mean(log u);  alpha = (3 - t + sqrt((t-3)^2 + 24t))/(12t);
    sigma = sqrt(sum(u) / (2 m alpha)).  The scale convention matches the
    gengamma reduction u ~ Gamma(alpha, 2 sigma^2).
    """
    u = _positive_column(sample, "gamma initializer")
    m, total = u.size, _column_sum(u, "the gamma initializer's sample")
    alpha = _gamma_start(m, total, _fsum(np.log(u)))
    sigma = math.sqrt(total / (2.0 * m * alpha))
    return alpha, sigma


def _gamma_start(m: int, total: float, log_total: float) -> float:
    """gamma_init's shape from a column's sum and its sum of logs."""
    t = math.log(total / m) - log_total / m
    _check_gap(t)
    return _gamma_shape_start(t)


def _gamma_shape(t: float, max_iter: int) -> tuple[float, int, bool]:
    """Gamma MLE shape: Newton's method on log a - digamma(a) = t.

    Starts from the closed form of :func:`gamma_init`.  The left side is
    convex and decreasing, so after one step the iterates rise to the root; a
    step past a = 0 halves a instead.  Returns (shape, steps, converged), where
    converged means the residual reached rounding level.
    """
    _check_gap(t)
    a = _gamma_shape_start(t)
    for steps in range(max_iter + 1):
        g = math.log(a) - digamma(a) - t
        if abs(g) <= 16.0 * sys.float_info.epsilon * max(1.0, abs(math.log(a)), t):
            return a, steps, True
        if steps < max_iter:
            a_next = a - g / (1.0 / a - trigamma(a))
            a = a_next if a_next > 0 else 0.5 * a
    return a, max_iter, False


def _paired_columns(data: SampleMatrix | np.ndarray, max_iter: int, fit: str
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """The columns of an m x 2 matrix of m >= 3 finite positive pairs, and
    the cap as a whole number (core._whole): both fits' one check of their
    arguments, cap first, before any log is formed."""
    max_iter = _whole(max_iter, "max_iter")
    values = data.values if isinstance(data, SampleMatrix) else np.asarray(data, float)
    if values.ndim != 2 or values.shape[1] != 2:
        raise DegenerateSample(f"paired fit needs an m x 2 matrix, got {values.shape}")
    if values.size:  # no pairs at all is a short sample, not an empty column
        _positive_column(values, "paired fit")
    if len(values) < 3:
        raise DegenerateSample(f"{fit} fit needs m >= 3 pairs, got {len(values)}")
    return values[:, 0], values[:, 1], max_iter


def _fit_result(params: dict, loglik: float, solves: list[dict], mode: str,
                pinned: tuple[str, ...]) -> FitResult:
    return FitResult(params=params, loglik=loglik,
                     iterations=sum(e["iterations"] for e in solves),
                     converged=all(e["converged"] for e in solves),
                     mode=mode, restarts=solves, pinned=pinned)


# ---------------------------------------------------------------------------
# Independent columns: the generalized gamma profile in s.  A column is
# centred on its geometric mean g, ell = log(u/g): (u/g)^s stays representable
# and mean(log (u/g)^s) = 0, so t(s) = log mean((u/g)^s) is the gamma
# log-moment gap of y = (u/g)^s.


def _column_score(log_s: float, ell: np.ndarray, top_ell: float, max_iter: int) -> float:
    """d(profile loglik)/d(log s) over m: 1 - s nu E_w[ell], weights w ~ (u/g)^s;
    top_ell = max(ell)."""
    s = math.exp(log_s)
    top = s * top_ell
    w = np.exp(s * ell - top)
    total = _fsum(w)
    nu = _gamma_shape(top + math.log(total / ell.size), max_iter)[0]
    return 1.0 - s * nu * _fsum(w * ell) / total


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float, max_iter: int
            ) -> tuple[float, int, bool]:
    """Root of f in [xpre, xcur], given f at both ends with opposite signs.

    Brent's method, step for step as scipy's ``brentq`` (its Zeros/brentq.c)
    at xtol = 1e-12 and rtol = 4 eps, so roots and step counts are the same
    bits; this module then needs no ``scipy.optimize`` import.  Returns
    (root, steps, converged); after max_iter steps the last iterate comes
    back unconverged.
    """
    xtol, rtol = 1e-12, 4.0 * sys.float_info.epsilon
    xblk = fblk = spre = scur = 0.0
    for step in range(1, max_iter + 1):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, step, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur, max(max_iter, 0), False


def _fit_column(log_u: np.ndarray, a: float, freeze_generator: bool, max_iter: int
                ) -> tuple[tuple[float, float, float], dict]:
    """(sigma, shape, s) at the gauge r = 1/2, q = 1, and the solve log entry,
    from a column's logs and their sum a."""
    log_g = a / log_u.size
    ell = log_u - log_g
    lo, hi = _LOG_S_BRACKET
    log_s, converged, steps = 0.0, True, 0
    if not freeze_generator:
        top_ell = float(np.max(ell))

        def score(x: float) -> float:
            return _column_score(x, ell, top_ell, max_iter)

        score_lo, score_hi = score(lo), score(hi)
        if score_lo <= 0.0:
            log_s, converged = lo, False
        elif score_hi >= 0.0:
            log_s, converged = hi, False
        else:
            log_s, steps, converged = _brentq(score, lo, hi, score_lo, score_hi, max_iter)
    s = math.exp(log_s)
    t = _log_sum_exp(s * ell) - math.log(log_u.size)
    nu, shape_steps, shape_ok = _gamma_shape(t, max_iter)
    # the rate nu / mean(u^s) equals r sigma^(-2s) at r = 1/2
    sigma = math.exp((t - math.log(2.0 * nu)) / (2.0 * s) + 0.5 * log_g)
    loglik = _column_loglik(sigma, nu * s, 0.5, 1.0, s, log_u, a)
    start = [_gamma_shape_start(t)] if freeze_generator else [math.exp(lo), math.exp(hi)]
    return (sigma, nu * s, s), {"start": start, "loglik": loglik,
                                "converged": converged and shape_ok,
                                "iterations": steps + shape_steps}


def fit_independent(data: SampleMatrix | np.ndarray, freeze_generator: bool = False,
                    max_iter: int = 10_000) -> FitResult:
    """Two separate column fits under independence; the loglik is their sum.

    A column is a generalized gamma in (sigma, shape, s) at the gauge r = 1/2,
    q = 1: alpha and q enter only as q + alpha, and (sigma, r) only as
    r sigma^(-2s).  ``freeze_generator`` also pins s = 1, a gamma column.
    ``max_iter`` caps the bracket and Newton steps of each solve.
    """
    u, v, max_iter = _paired_columns(data, max_iter, "independent")
    params, solves = {}, []
    for j, shape_key, column in ((1, "alpha", u), (2, "beta", v)):
        (sigma, shape, s), solve = _fit_column(*_logs(column), freeze_generator, max_iter)
        params.update({f"sigma{j}": sigma, shape_key: shape, f"r{j}": 0.5, f"q{j}": 1.0,
                       f"s{j}": s})
        solves.append(solve)
    pinned = ("q1", "q2", "r1", "r2") + (("s1", "s2") if freeze_generator else ())
    return _fit_result(params, solves[0]["loglik"] + solves[1]["loglik"], solves,
                       "independent" + ("-frozen" if freeze_generator else ""), pinned)


# ---------------------------------------------------------------------------
# Dependent fit: the Dirichlet profile in (alpha, beta), rho^2 = alpha d/(beta c)


def _dirichlet_profile(ab: np.ndarray, st: SuffStats) -> float:
    """lgG(N) - N log(alpha+beta) - m[lgG(alpha) - alpha log alpha]
    - m[lgG(beta) - beta log beta] + (alpha-1) a + (beta-1) b - m alpha log c
    - m beta log d,  with N = m(alpha+beta)."""
    (alpha, beta), m = ab, st.m
    n = m * (alpha + beta)
    return float(
        gammaln(n) - n * math.log(alpha + beta)
        - m * (gammaln(alpha) - alpha * math.log(alpha))
        - m * (gammaln(beta) - beta * math.log(beta))
        + (alpha - 1.0) * st.a + (beta - 1.0) * st.b
        - m * alpha * math.log(st.c) - m * beta * math.log(st.d)
    )


def _fit_dirichlet(st: SuffStats, start: np.ndarray, max_iter: int
                   ) -> tuple[np.ndarray, dict]:
    """Newton's method in (log alpha, log beta) with step halving.

    The (alpha, beta) Hessian is negative definite everywhere, so each step is
    the (alpha, beta) Newton step taken multiplicatively: an ascent direction
    that keeps the shapes positive, and quadratic near the optimum, where the
    log-coordinate Hessian's gradient term vanishes.  Steps above _WHOLE_STEP
    are halved until the profile rises; shorter ones are below its rounding.
    """
    m, ab = st.m, start.copy()
    f = _dirichlet_profile(ab, st)
    converged, steps = False, 0
    while steps < max_iter and not converged:
        steps += 1
        total = float(ab[0] + ab[1])
        grad = (m * (digamma(m * total) - math.log(total) + np.log(ab)
                     - np.array([digamma(v) for v in ab.tolist()]))
                + np.array([st.a - m * math.log(st.c), st.b - m * math.log(st.d)]))
        cross = m * (m * trigamma(m * total) - 1.0 / total)
        hess = cross + np.diag(m * (1.0 / ab - np.array([trigamma(v) for v in ab.tolist()])))
        step = -np.linalg.solve(hess, grad) / ab
        size = float(np.max(np.abs(step)))
        converged = size <= _STEP_TOL
        while True:
            trial = ab * np.exp(step)
            f_trial = _dirichlet_profile(trial, st)
            if size <= _WHOLE_STEP or f_trial > f:
                break
            step, size = 0.5 * step, 0.5 * size
        ab, f = trial, f_trial
    return ab, {"start": [float(v) for v in start], "loglik": f,
                "converged": converged, "iterations": steps}


def fit_dependent(data: SampleMatrix | np.ndarray, freeze_generator: bool = False,
                  max_iter: int = 10_000) -> FitResult:
    """Fit the paired dependent model, estimating only what it identifies.

    Generator free: (alpha, beta) maximize the Dirichlet profile,
    rho^2 = (sigma2/sigma1)^2 = alpha d / (beta c), the generator is pinned at
    the Gaussian point (r, q, s) = (1/2, 1, 1), and sigma1^2 = (c + d/rho^2)/(2N)
    is its Gaussian-generator MLE.  With ``freeze_generator`` it is the product
    of two frozen gamma columns, as in :func:`fit_independent`.  ``max_iter``
    caps each solve.
    """
    u, v, max_iter = _paired_columns(data, max_iter, "dependent")
    (log_u, a), (log_v, b) = _logs(u), _logs(v)
    stats = SuffStats.__new__(SuffStats)._fill(u, v, a, b)  # u, v passed the gate
    if freeze_generator:
        (sigma1, alpha, _), first = _fit_column(log_u, a, True, max_iter)
        (sigma2, beta, _), second = _fit_column(log_v, b, True, max_iter)
        solves, pinned = [first, second], ("q", "r", "s")
    else:
        start = np.array([_gamma_start(stats.m, stats.c, stats.a),
                          _gamma_start(stats.m, stats.d, stats.b)])
        (alpha, beta), solve = _fit_dirichlet(stats, start, max_iter)
        rho2 = alpha * stats.d / (beta * stats.c)
        sigma1 = math.sqrt((stats.c + stats.d / rho2) / (2.0 * stats.m * (alpha + beta)))
        sigma2 = sigma1 * math.sqrt(rho2)
        solves, pinned = [solve], ("q", "r", "s", "sigma1", "sigma2")
    p = KotzGammaDepParams(sigma1=sigma1, sigma2=sigma2, alpha=float(alpha),
                           beta=float(beta), r=0.5, q=1.0, s=1.0)
    return _fit_result(asdict(p), loglik_dependent(p, stats), solves,
                       "dependent" + ("-frozen" if freeze_generator else ""), pinned)
