"""Oracle layer: normalization, change-of-variables, and pushforward checks.

Every density formula in this package is accepted only if it passes the
checks here: quadrature of exp(logpdf) over the declared support (total
dimension <= 3), importance-sampled Monte-Carlo normalization for higher
dimensions, each generator's radial-integral identity on the same quadrature
rule, the ball-to-space Jacobian identity, and sampler-vs-density
goodness of fit (marginal KS plus 2-d chi-square).  The quadrature is one
tensor double-exponential rule fed (n, d) batches; its err_est is the change
between the last two step halvings, under a fixed budget of points.  Both
suites take their cases from one ordered fixture list over the family table
of ``families``.  The pushforward suite also carries a discrimination check:
a deliberately uncorrected variant of the beta-I density must FAIL goodness
of fit, demonstrating that the corrected exponent is required and the tests
have power.

Reports are deterministic given (inputs, seed) and serialize as JSON lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special

from .core import ExtendedShape, MvEllipticalParams, Partition, ScaleShapeParams
from .densities import (
    BetaParams,
    GammaLogGammaParams,
    JointScaleParams,
    MixedParams,
    MvTParams,
    logpdf_mv_beta1,
    logpdf_mv_t,
)
from .errors import DegenerateWeights, DimensionMismatch, ParameterOutOfDomain, QuadratureFailure
from .families import FAMILIES
from .generators import Bessel, GeneratorSpec, Kotz, PearsonII, PearsonVII, log_norm_const
from .sampling import make_rng, sample_unit_sphere

__all__ = [
    "CheckReport",
    "quad_normalization",
    "radial_integral_identity_check",
    "mc_normalization",
    "jacobian_check",
    "jacobian_grid_check",
    "pushforward_check",
    "run_normalization_suite",
    "run_identity_suite",
    "run_pushforward_suite",
    "run_all_suites",
]


@dataclass(frozen=True)
class CheckReport:
    """One validation outcome; ``passed`` is always ``residual <= tolerance``."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    details: str = ""

    def __post_init__(self) -> None:
        if self.passed != (self.residual <= self.tolerance):
            raise ValueError("passed must equal (residual <= tolerance)")

    @classmethod
    def build(cls, name: str, residual: float, tolerance: float, details: str = "") -> "CheckReport":
        return cls(
            name=name,
            residual=float(residual),
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            details=details,
        )

    def to_json(self) -> str:
        payload = {
            "details": self.details,
            "name": self.name,
            "passed": self.passed,
            "residual": float(f"{self.residual:.17g}"),
            "tolerance": float(f"{self.tolerance:.17g}"),
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Normalization by double-exponential quadrature

Interval = tuple[float, float]

_DE_WINDOW = 4.5  # |t| <= _DE_WINDOW on every axis of the DE substitution
_DE_EDGE = 0.25  # width in t of each outer edge of the nodes an axis keeps
_CHUNK = 1 << 16  # points per integrand call
_POINT_BUDGET = 1 << 22  # integrand points per integral, all levels together


def _de_axis(lo: float, hi: float, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x(t), weights |dx/dt| and outer-edge mask of one axis at t = k h.

    tanh-sinh on a finite interval, exp-sinh on a half-line, sinh-sinh on the
    whole line.  Distances to finite endpoints are formed directly, without
    the 1 - tanh cancellation; nodes that round onto an endpoint are
    dropped, so the density never sees a boundary point.  The edge mask
    marks the kept nodes within _DE_EDGE of the outermost kept t on either
    side: an integrable density carries almost no mass there.
    """
    t = h * np.arange(-(_DE_WINDOW // h), _DE_WINDOW // h + 1)
    u = 0.5 * math.pi * np.sinh(t)
    dudt = 0.5 * math.pi * np.cosh(t)
    if math.isfinite(lo) and math.isfinite(hi):
        e = np.exp(-2.0 * np.abs(u))
        dist = (hi - lo) * e / (1.0 + e)  # to the nearer endpoint
        x = np.where(t > 0, hi - dist, lo + dist)
        w = (hi - lo) * dudt * 2.0 * e / (1.0 + e) ** 2
    elif math.isfinite(lo) or math.isfinite(hi):
        g = np.exp(u)
        x = lo + g if math.isfinite(lo) else hi - g
        w = dudt * g
    else:
        x, w = np.sinh(u), dudt * np.cosh(u)
    keep = (x > lo) & (x < hi)
    t = t[keep]
    return x[keep], w[keep], (t <= t[0] + _DE_EDGE) | (t >= t[-1] - _DE_EDGE)


def _de_grid_sum(
    logpdf: Callable, axes: list[tuple[np.ndarray, np.ndarray, np.ndarray]], name: str
) -> tuple[float, float]:
    """Sums of weight * exp(logpdf) over the tensor grid of the axes, in chunks:
    over every point, and over the points on the edge of any axis."""
    shape = tuple(len(x) for x, _, _ in axes)
    size = math.prod(shape)
    total = edge = 0.0
    for start in range(0, size, _CHUNK):
        idx = np.unravel_index(np.arange(start, min(start + _CHUNK, size)), shape)
        pts = np.column_stack([x[i] for (x, _, _), i in zip(axes, idx)])
        w = np.prod([wt[i] for (_, wt, _), i in zip(axes, idx)], axis=0)
        on_edge = np.any([e[i] for (_, _, e), i in zip(axes, idx)], axis=0)
        try:
            vals = np.asarray(logpdf(pts), dtype=float)
        except Exception as exc:
            raise QuadratureFailure(f"{name}: integrand raised: {exc}") from exc
        if vals.shape != (len(pts),):
            raise DimensionMismatch(f"{name}: logpdf returned {vals.shape} for {len(pts)} points")
        mass = w * np.exp(vals)
        total += float(np.sum(mass))
        edge += float(np.sum(mass[on_edge]))
    return total, edge


def quad_normalization(
    logpdf: Callable[[np.ndarray], np.ndarray],
    support: Sequence[Interval],
    tol: float,
    name: str = "quad-normalization",
) -> CheckReport:
    """Integrate exp(logpdf) over the support box; residual is |I - 1|.

    logpdf maps an (n, d) batch of points strictly inside the box to shape
    (n,).  The rule is a tensor-product double-exponential trapezoid
    (Takahasi & Mori 1974) whose step halves level by level, at least 3
    levels, until two level sums differ by at most 1e-3 * tol; that
    difference is err_est.  Raises QuadratureFailure when the integrand
    raises or a level sum is not finite; when the points on the edge of any
    axis carry more than tol of mass, as for a density that is not
    integrable over the box; and when the refinement stops at _POINT_BUDGET
    points with err_est above tol.  A normalized-but-wrong density is a
    failed check.
    """
    d = len(support)
    if not 1 <= d <= 3:
        raise ParameterOutOfDomain(f"quadrature supports 1 <= dims <= 3, got {d}")
    value, err, edge, level, used = math.nan, math.inf, 0.0, 0, 0
    while not (level >= 3 and err <= 1e-3 * tol):
        h = 2.0 ** -level
        axes = [_de_axis(float(lo), float(hi), h) for lo, hi in support]
        used += math.prod(len(x) for x, _, _ in axes)
        if used > _POINT_BUDGET:
            break
        total, on_edge = _de_grid_sum(logpdf, axes, name)
        prev, value, edge = value, h ** d * total, h ** d * on_edge
        if not math.isfinite(value):
            raise QuadratureFailure(f"{name}: integral is {value}")
        if level:
            err = abs(value - prev)
        level += 1
    if edge > tol:
        raise QuadratureFailure(
            f"{name}: mass {edge:.3g} on the outer edge of the nodes; the density is not"
            " integrable over the box, or not resolved near its ends"
        )
    if err > tol:
        raise QuadratureFailure(
            f"{name}: no convergence within {_POINT_BUDGET} points, err_est {err:.3g}"
        )
    return CheckReport.build(
        name, abs(value - 1.0), tol, details=f"integral={value:.12g} err_est={err:.3g} dims={d}"
    )


def radial_integral_identity_check(spec: GeneratorSpec, n: float, a: float) -> float:
    """Relative residual of int_0^inf z^{n/2-1} h(z/a) dz = a^{n/2} Gamma(n/2) / pi^{n/2}.

    h is the normalized generator at dimension n.  The left side over the
    right is integrated by quad_normalization, on (0, a) for Pearson II,
    whose kernel support ends there, and on (0, inf) otherwise; the residual
    is |I - 1|, and values above 1e-6 indicate a broken constant.

    Raises QuadratureFailure where the rule does not converge or cannot
    reach the mass.  The half-line nodes span z in about (1e-31, 1e30), so
    an integrand near z^-0.85 at 0 or z^-1.2 at infinity fails, as does a
    Pearson II kernel with q below about -1/2, whose singular end holds
    more than 1e-6 of the mass within the rounding of z/a to 1.
    """
    if not a > 0:
        raise ParameterOutOfDomain(f"a must be positive, got {a}")
    log_rhs = float(special.gammaln(n / 2)) + (n / 2) * math.log(a / math.pi)
    offset = log_norm_const(spec, n) - log_rhs

    def log_integrand(z: np.ndarray) -> np.ndarray:
        z = z[:, 0]
        return (n / 2 - 1) * np.log(z) + offset + spec.log_kernel(z / a)

    upper = a if isinstance(spec, PearsonII) else math.inf
    report = quad_normalization(log_integrand, [(0.0, upper)], 1e-6,
                                name=f"radial identity of {spec} at n={n:g}, a={a:g}")
    return report.residual


# ---------------------------------------------------------------------------
# Normalization by importance sampling


def mc_normalization(
    logpdf: Callable[[np.ndarray], np.ndarray],
    proposal_sampler: Callable[[np.random.Generator, int], np.ndarray],
    proposal_logpdf: Callable[[np.ndarray], np.ndarray],
    n: int,
    seed: int,
    name: str = "mc-normalization",
) -> CheckReport:
    """Importance-sampling estimate of the total mass; passes when |I-1| <= 3 SE."""
    rng = make_rng(seed)
    x = proposal_sampler(rng, n)
    logw = np.asarray(logpdf(x), dtype=float) - np.asarray(proposal_logpdf(x), dtype=float)
    w = np.exp(logw)
    if not np.all(np.isfinite(w)):
        raise DegenerateWeights("non-finite importance weights")
    total = float(np.sum(w))
    total_sq = float(np.sum(w * w))
    ess = total * total / total_sq if total_sq > 0 else 0.0
    if ess < n / 100.0:
        raise DegenerateWeights(
            f"effective sample size {ess:.1f} below {n / 100:.0f}; proposal too far from target"
        )
    estimate = total / n
    se = float(np.std(w, ddof=1)) / math.sqrt(n)
    residual = abs(estimate - 1.0)
    return CheckReport.build(
        name,
        residual,
        3.0 * se,
        details=f"estimate={estimate:.8f} se={se:.3g} ess={ess:.0f} n={n} seed={seed}",
    )


# ---------------------------------------------------------------------------
# Ball-to-space Jacobian identity


def _chi2_quantile_gof(
    values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray], bins: int
) -> tuple[float, float]:
    """Equal-probability-bin chi-square GOF; returns (statistic, p-value)."""
    n = values.size
    probs = np.linspace(0.0, 1.0, bins + 1)
    u = np.asarray(cdf(values), dtype=float)
    counts, _ = np.histogram(u, bins=probs)
    expected = n / bins
    stat = float(np.sum((counts - expected) ** 2) / expected)
    return stat, float(special.chdtrc(bins - 1, stat))  # scipy.stats.chi2.sf, bit for bit


def _betaprime_cdf(a: float, x: np.ndarray) -> np.ndarray:
    """CDF of BetaPrime(a, 1) at x >= 0, by the incomplete-beta branches of
    scipy.stats.betaprime (bit for bit, without importing scipy.stats)."""
    x = np.asarray(x, dtype=float)
    big, out = x > 1, np.empty_like(x)
    out[big] = special.betaincc(1.0, a, 1.0 / (1.0 + x[big]))
    out[~big] = special.betainc(a, 1.0, x[~big] / (1.0 + x[~big]))
    return out


def jacobian_check(n: int, n_draws: int = 100_000, seed: int = 0) -> CheckReport:
    """Verify the unit-ball to whole-space volume-element identity by MC.

    x uniform in the unit n-ball is pushed through y = (1 - ||x||^2)^{-1/2} x.
    Under the claimed volume element (dy) = (1 - ||x||^2)^{-(n/2+1)} (dx),
    the squared norm ||y||^2 must follow BetaPrime(n/2, 1); a chi-square GOF
    with equal-probability bins arbitrates (p > 0.001).  The inverse map
    round-trip is asserted to 1e-12 alongside.
    """
    if n < 1:
        raise ParameterOutOfDomain(f"dimension must be >= 1, got {n}")
    rng = make_rng(seed)
    radius = rng.uniform(0.0, 1.0, size=n_draws) ** (1.0 / n)
    direction = sample_unit_sphere(n, rng, size=n_draws)
    x = radius[:, None] * direction
    sq = np.sum(x * x, axis=1)
    y = x / np.sqrt(1.0 - sq)[:, None]
    # round-trip through the algebraic inverse
    y_sq = np.sum(y * y, axis=1)
    x_back = y / np.sqrt(1.0 + y_sq)[:, None]
    round_trip = float(np.max(np.abs(x_back - x)))
    if round_trip > 1e-12:
        raise AssertionError(f"inverse-map round trip error {round_trip}")
    stat, p = _chi2_quantile_gof(y_sq, partial(_betaprime_cdf, n / 2.0), bins=20)
    return CheckReport.build(
        f"jacobian-ball-map-n{n}",
        1.0 - p,
        1.0 - 0.001,
        details=f"chi2={stat:.2f} p={p:.5f} n_draws={n_draws} seed={seed} roundtrip={round_trip:.2e}",
    )


def jacobian_grid_check(grid_points: int = 201) -> CheckReport:
    """1-d cross-check of the same Jacobian against central differences.

    For n = 1 the map is y = x (1-x^2)^{-1/2} and the claimed volume factor
    is (1-x^2)^{-3/2}; a numerical dy/dx must match it to 1e-3 in sup norm.
    """
    x = np.linspace(-0.9, 0.9, grid_points)
    h = 1e-6
    y = lambda t: t / np.sqrt(1.0 - t * t)
    dy_num = (y(x + h) - y(x - h)) / (2.0 * h)
    dy_formula = (1.0 - x * x) ** -1.5
    residual = float(np.max(np.abs(dy_num - dy_formula)))
    return CheckReport.build(
        "jacobian-1d-grid", residual, 1e-3, details=f"grid={grid_points} sup-norm vs central diff"
    )


# ---------------------------------------------------------------------------
# Sampler-vs-density goodness of fit


def _tensor_pdf(
    logpdf: Callable[[np.ndarray], np.ndarray],
    grids: list[np.ndarray],
) -> np.ndarray:
    mesh = np.meshgrid(*grids, indexing="ij")
    flat = np.column_stack([m.ravel() for m in mesh])
    vals = np.asarray(logpdf(flat), dtype=float).reshape(mesh[0].shape)
    with np.errstate(over="ignore"):
        return np.exp(vals)


def _marginal_cdfs(
    pdf_grid: np.ndarray, grids: list[np.ndarray]
) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Per-axis CDF interpolants from a tensor pdf, each normalized on its box."""
    from scipy import integrate
    from scipy.interpolate import PchipInterpolator

    d = pdf_grid.ndim
    out = []
    for axis in range(d):
        marg = pdf_grid
        for other in sorted(set(range(d)) - {axis}, reverse=True):
            marg = integrate.simpson(marg, x=grids[other], axis=other)
        cdf = integrate.cumulative_simpson(marg, x=grids[axis], initial=0.0)
        cdf /= cdf[-1]
        cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
        # PCHIP needs strictly increasing data on the support of the margin
        keep = np.concatenate([[True], np.diff(cdf) > 0]) | np.concatenate(
            [np.diff(cdf) > 0, [True]]
        )
        out.append(PchipInterpolator(grids[axis][keep], cdf[keep]))
    return out


def _snap_edges(grid: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """Indices of quantile-like cell edges snapped to grid nodes, box ends included."""
    idx = np.clip(np.searchsorted(grid, quantiles), 1, grid.size - 2)
    return np.unique(np.concatenate([[0], idx, [grid.size - 1]]))


def _cell_probabilities(
    pdf01: np.ndarray, gx: np.ndarray, gy: np.ndarray,
    ix: np.ndarray, iy: np.ndarray,
) -> np.ndarray:
    """Rectangle probabilities between grid-node edges, by exact CDF differences."""
    from scipy import integrate

    cdf = integrate.cumulative_simpson(pdf01, x=gx, initial=0.0, axis=0)
    cdf = integrate.cumulative_simpson(cdf, x=gy, initial=0.0, axis=1)
    corner = cdf[np.ix_(ix, iy)]
    cells = corner[1:, 1:] - corner[:-1, 1:] - corner[1:, :-1] + corner[:-1, :-1]
    return np.maximum(cells, 0.0) / cdf[-1, -1]


def pushforward_check(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    logpdf: Callable[[np.ndarray], np.ndarray],
    support: Sequence[Interval],
    n_draws: int = 100_000,
    seed: int = 0,
    name: str = "pushforward",
    grid_points: int | None = None,
    chi2_bins: int = 6,
) -> CheckReport:
    """Draws vs density: KS per scalar margin (p > 0.01) and, for two or more
    dimensions, chi-square on the leading 2-d histogram (p > 0.001).

    Marginal CDFs come from Simpson integration of exp(logpdf) on a tensor
    grid over a box that covers the sample with padding; the residual is the
    worst threshold shortfall, so 0 means every sub-check passed.
    """
    from scipy import integrate, stats

    rng = make_rng(seed)
    x = np.atleast_2d(np.asarray(sampler(rng, n_draws), dtype=float))
    d = x.shape[1]
    if d != len(support):
        raise ParameterOutOfDomain(f"support has {len(support)} dims, sample has {d}")
    if d > 3:
        raise ParameterOutOfDomain("pushforward grids limited to 3 dims")
    if grid_points is None:
        # CDF bias must stay well under the KS resolution ~ 1/sqrt(n_draws)
        grid_points = {1: 2001, 2: 641, 3: 161}[d]

    grids = []
    for j, (lo, hi) in enumerate(support):
        smin, smax = float(np.min(x[:, j])), float(np.max(x[:, j]))
        span = max(smax - smin, 1e-6)
        # stay strictly inside open support edges: densities may reject the boundary
        glo = smin - 0.1 * span
        if glo <= lo:
            glo = 0.5 * (lo + smin)
        ghi = smax + 0.1 * span
        if ghi >= hi:
            ghi = 0.5 * (hi + smax)
        if lo >= 0.0 and not np.isfinite(hi):
            # positive axes concentrate near 0 with power tails: resolve both
            # ends with geometric spacing instead of a uniform grid
            grids.append(np.geomspace(glo, ghi, grid_points))
        else:
            grids.append(np.linspace(glo, ghi, grid_points))

    pdf_grid = _tensor_pdf(logpdf, grids)
    cdfs = _marginal_cdfs(pdf_grid, grids)

    ks_ps = []
    for j in range(d):
        interp, g = cdfs[j], grids[j]
        res = stats.kstest(
            x[:, j],
            lambda v, interp=interp, g=g: np.clip(interp(np.clip(v, g[0], g[-1])), 0.0, 1.0),
        )
        ks_ps.append(float(res.pvalue))

    chi2_p = None
    if d >= 2:
        pdf01 = pdf_grid
        for other in range(d - 1, 1, -1):
            pdf01 = integrate.simpson(pdf01, x=grids[other], axis=other)
        qs = np.linspace(0.0, 1.0, chi2_bins + 1)[1:-1]
        ix = _snap_edges(grids[0], np.quantile(x[:, 0], qs))
        iy = _snap_edges(grids[1], np.quantile(x[:, 1], qs))
        probs = _cell_probabilities(pdf01, grids[0], grids[1], ix, iy)
        counts, _, _ = np.histogram2d(x[:, 0], x[:, 1], bins=[grids[0][ix], grids[1][iy]])
        expected = n_draws * probs
        mask = expected > 1e-9
        stat = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(mask.sum()) - 1
        chi2_p = float(stats.chi2.sf(stat, df=dof))

    shortfalls = [max(0.0, 0.01 - p) for p in ks_ps]
    if chi2_p is not None:
        shortfalls.append(max(0.0, 0.001 - chi2_p))
    residual = max(shortfalls)
    details = (
        f"ks_p={['%.4f' % p for p in ks_ps]}"
        + (f" chi2_p={chi2_p:.5f}" if chi2_p is not None else "")
        + f" n={n_draws} seed={seed}"
    )
    return CheckReport.build(name, residual, 0.0, details=details)


# ---------------------------------------------------------------------------
# Oracle fixtures: one ordered list feeds both suites

_GAUSS = Kotz(q=1.0, r=0.5, s=1.0)
_INF = math.inf


def _uncorrected_beta1_logpdf(p: BetaParams, b: np.ndarray) -> np.ndarray:
    """Beta-I variant whose (1-b_i) exponent omits the alpha0 contribution.

    This is the formula with the transcription slip kept in place: the
    discrimination check requires it to fail goodness of fit, proving the
    corrected exponent is load-bearing.
    """
    corrected = logpdf_mv_beta1(p, b)
    b2 = np.atleast_2d(np.asarray(b, dtype=float))
    inside = np.all((b2 > 0) & (b2 < 1), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        extra = np.where(inside, p.shape.alpha0 * np.sum(np.log1p(-b2), axis=-1), 0.0)
    out = corrected + extra
    return out if np.asarray(b).ndim > 1 else np.squeeze(out)


class _Fixture(NamedTuple):
    """One oracle case: a family of the table at fixed params over a support box."""

    suffix: str
    family: str  # key of FAMILIES
    params: tuple
    support: list[Interval]
    quad_tol: float | None  # tolerance in the normalization suite; None: not in it
    push: bool  # in the pushforward suite


def _fixtures() -> list[_Fixture]:
    """Every oracle fixture in suite order; each suite's cases filter this list.

    The fixtures live here, not on the ``FAMILIES`` records, because this
    order is the order of the ``check`` output lines: ``mv-beta1-k3-3d`` sits
    between the two gengamma-pearson rows."""
    line, pos, unit, sym, box = (-_INF, _INF), (0.0, _INF), (0.0, 1.0), (-1.0, 1.0), (-9.0, 9.0)
    bessel2 = MvEllipticalParams(
        partition=Partition(dims=(2,)), mus=(np.array([0.5, -0.5]),),
        sigmas=(np.array([[1.0, 0.3], [0.3, 0.8]]),),
    )
    gauss2 = MvEllipticalParams(partition=Partition(dims=(2,)), mus=(np.zeros(2),), sigmas=(np.eye(2),))
    pvii1 = MvEllipticalParams(partition=Partition(dims=(1,)), mus=(np.zeros(1),), sigmas=(np.eye(1),))
    logell1 = MvEllipticalParams(
        partition=Partition(dims=(1,)), mus=(np.array([0.2]),), sigmas=(np.array([[0.8]]),)
    )
    mixed = (MixedParams(base=MvEllipticalParams(
        partition=Partition(dims=(1, 1)), mus=(np.array([0.1]), np.array([-0.3])),
        sigmas=(np.array([[1.0]]), np.array([[0.5]])),
    ), k1=1), _GAUSS)
    beta1_3 = BetaParams(shape=ExtendedShape(alphas=(1.0, 2.0, 1.5), alpha0=2.0), betas=(1.0, 1.0, 1.0))
    F = _Fixture
    return [
        F("mv-elliptical-bessel-2d", "mv-elliptical", (bessel2, Bessel(r=1.0, q=0.3)),
          [line, line], None, True),
        F("mv-elliptical-gaussian-2d", "mv-elliptical", (gauss2, _GAUSS), [box, box], 1e-8, False),
        F("mv-elliptical-pearson7-1d", "mv-elliptical", (pvii1, PearsonVII(r=3.0, q=2.2)),
          [line], 1e-5, False),
        F("log-elliptical-1d", "log-elliptical", (logell1, _GAUSS), [pos], 1e-5, True),
        # the quadrature integrates the linear axis over a finite box
        F("mixed-1p1", "mixed-ell-logell", mixed, [box, pos], 1e-5, False),
        F("mixed-1p1", "mixed-ell-logell", mixed, [line, pos], None, True),
        F("mv-t-k2", "mv-t", (MvTParams(dims=(1, 1), alpha0=1.6, betas=(1.0, 2.5)),),
          [line, line], 1e-5, True),
        F("mv-pearson2-k2", "mv-pearson2", (MvTParams(dims=(1, 1), alpha0=1.3, betas=(1.2, 0.7)),),
          [sym, sym], 1e-5, True),
        F("mv-gengamma-kotz-k1", "mv-gengamma",
          (ScaleShapeParams(shapes=(2.0,), scales=(1.0,)), Kotz(q=1.0, r=2.0, s=1.5)),
          [pos], 1e-6, False),
        F("mv-gengamma-k2", "mv-gengamma",
          (ScaleShapeParams(shapes=(2.0, 1.3), scales=(1.0, 0.6)), Kotz(q=0.8, r=1.0, s=1.2)),
          [pos, pos], 1e-5, True),
        F("mv-beta1-k2", "mv-beta1",
          (BetaParams(shape=ExtendedShape(alphas=(1.0, 2.0), alpha0=1.5), betas=(1.0, 3.0)),),
          [unit, unit], 1e-5, True),
        F("mv-beta2-k2", "mv-beta2",
          (BetaParams(shape=ExtendedShape(alphas=(1.4, 1.1), alpha0=2.2), betas=(1.0, 0.8)),),
          [pos, pos], 1e-5, True),
        F("gengamma-pearson7-k1", "gengamma-pearson7",
          (JointScaleParams(spec=_GAUSS, alpha0=1.5, sigma2s=(1.0, 0.8), dims=(1,)),),
          [pos, line], 1e-4, True),
        F("mv-beta1-k3-3d", "mv-beta1", (beta1_3,), [unit, unit, unit], 1e-4, False),
        F("gengamma-pearson2-k1", "gengamma-pearson2",
          (JointScaleParams(spec=_GAUSS, alpha0=1.8, sigma2s=(0.9, 1.1), dims=(1,)),),
          [pos, sym], 1e-4, True),
        F("gengamma-beta1-k1", "gengamma-beta1",
          (JointScaleParams(spec=_GAUSS, alpha0=1.4, sigma2s=(1.0, 0.7), alphas=(1.2,)),),
          [pos, unit], 1e-4, True),
        F("gengamma-beta2-k1", "gengamma-beta2",
          (JointScaleParams(spec=PearsonVII(r=2.0, q=4.5), alpha0=1.3, sigma2s=(1.0, 0.9),
                            alphas=(1.1,)),),
          [pos, pos], 1e-4, True),
        F("gamma-loggamma-1p1", "gamma-loggamma",
          (GammaLogGammaParams(spec=_GAUSS, alphas=(1.5,), sigma2s=(0.9,), rhos=(2.0,),
                               delta2s=(1.2,)),),
          [pos, line], 1e-4, True),
    ]


def _fixture(suffix: str) -> _Fixture:
    return next(f for f in _fixtures() if f.suffix == suffix)


def _normalization_cases() -> list[tuple[str, Callable, list[Interval], float]]:
    return [
        (f"norm-{f.suffix}", partial(FAMILIES[f.family].logpdf, f.params), f.support, f.quad_tol)
        for f in _fixtures()
        if f.quad_tol is not None
    ]


def run_normalization_suite(seed: int = 0) -> list[CheckReport]:
    """Quadrature normalization for every family at total dims <= 3."""
    from scipy import stats

    reports = [
        quad_normalization(logpdf, support, tol, name=name)
        for name, logpdf, support, tol in _normalization_cases()
    ]
    # MC fallback: heavy-tailed t with a deliberately wider Gaussian proposal
    mvt = MvTParams(dims=(1, 1), alpha0=1.5, betas=(1.0, 2.5))
    cov = np.diag([3.0 * b for b in mvt.betas])  # 3x the t variance (E[t_i^2] = beta_i)

    def prop_sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.multivariate_normal(np.zeros(2), cov, size=n)

    prop = stats.multivariate_normal(mean=np.zeros(2), cov=cov)
    reports.append(
        mc_normalization(
            lambda x: logpdf_mv_t(mvt, x),
            prop_sample,
            prop.logpdf,
            n=1_000_000,
            seed=seed,
            name="norm-mc-mv-t-k2",
        )
    )
    return reports


def run_identity_suite(seed: int = 0, n_draws: int = 100_000) -> list[CheckReport]:
    """Radial-integral identity across the generator grid plus the Jacobian checks."""
    reports: list[CheckReport] = []
    grid: list[tuple[str, GeneratorSpec]] = [
        ("kotz-gauss", Kotz(q=1.0, r=0.5, s=1.0)),
        ("kotz", Kotz(q=1.5, r=2.0, s=0.8)),
        ("pearson7", PearsonVII(r=1.0, q=3.0)),
        ("pearson2", PearsonII(q=1.5)),
        ("bessel", Bessel(r=1.0, q=0.3)),
    ]
    for label, spec in grid:
        for n in (1.0, 2.0, 3.0, 4.5):
            try:
                spec.validate_at(n)
            except ParameterOutOfDomain:
                continue  # the generator has no law in this dimension
            for a in (1.0, 2.5):
                residual = radial_integral_identity_check(spec, n, a)
                reports.append(
                    CheckReport.build(
                        f"identity-radial-integral-{label}-n{n:g}-a{a:g}", residual, 1e-6,
                        details="kernel moment integral vs closed-form normalizer",
                    )
                )
    for n in (1, 2, 3):
        for s in range(3):
            reports.append(jacobian_check(n, n_draws=n_draws, seed=seed + 10 * n + s))
    reports.append(jacobian_grid_check())
    return reports


def _pushforward_cases() -> list[tuple[str, Callable, Callable, list[Interval]]]:
    cases = []
    for f in _fixtures():
        if f.push:
            family = FAMILIES[f.family]
            cases.append((f"push-{f.suffix}", partial(family.sample, f.params),
                          partial(family.logpdf, f.params), f.support))
    return cases


def run_pushforward_suite(seed: int = 0, n_draws: int = 100_000) -> list[CheckReport]:
    """Sampler-vs-density GOF for every family plus the discrimination check."""
    reports: list[CheckReport] = []
    for name, sampler, logpdf, support in _pushforward_cases():
        reports.append(
            pushforward_check(
                sampler, logpdf, support, n_draws=n_draws, seed=seed, name=name
            )
        )

    # Discrimination: the beta-I density without the alpha0 exponent term
    # must fail the identical GOF, demonstrating the test has power.
    beta = _fixture("mv-beta1-k2")
    wrong = pushforward_check(
        partial(FAMILIES[beta.family].sample, beta.params),
        lambda b: _uncorrected_beta1_logpdf(*beta.params, b),
        beta.support,
        n_draws=n_draws,
        seed=seed,
        name="push-beta1-uncorrected-exponent-raw",
    )
    reports.append(
        CheckReport.build(
            "discrimination-beta1-uncorrected-exponent",
            0.0 if not wrong.passed else 1.0,
            0.5,
            details=f"uncorrected variant must fail GOF; it reported: {wrong.details}",
        )
    )
    return reports


def run_all_suites(seed: int = 0, n_draws: int = 100_000) -> list[CheckReport]:
    return (
        run_normalization_suite(seed)
        + run_identity_suite(seed, n_draws=n_draws)
        + run_pushforward_suite(seed, n_draws=n_draws)
    )
