"""Oracle layer: normalization, change-of-variables, and pushforward checks.

Every density formula in this package is accepted only if it passes the
checks here: quadrature of exp(logpdf) over the declared support (total
dimension <= 3), importance-sampled Monte-Carlo normalization for higher
dimensions, each generator's radial-integral identity on the same quadrature
rule, the ball-to-space Jacobian identity, and sampler-vs-density
goodness of fit in 1 or 2 dims (marginal KS plus 2-d chi-square, both read
off one cumulative table of the density on a grid).  The quadrature is one
tensor double-exponential rule fed (n, d) batches; its err_est is the change
between the last two step halvings, under a fixed budget of points, and its
window widens once when its outermost nodes hold mass.  The cumulative table
comes from this module's own Simpson pass (scipy's cumulative_simpson, bit
for bit, without scipy.integrate), and the KS statistic is formed directly
from the sorted margin, with its p-value from the exact Kolmogorov law.  Both
suites take their cases from one ordered fixture list over the family table
of ``families``.  The pushforward suite also carries a discrimination check:
a deliberately uncorrected variant of the beta-I density must FAIL goodness
of fit, demonstrating that the corrected exponent is required and the tests
have power.

The grids pass logpdf block-major batches: read-only (n, d) views of (d, n)
arrays, whose coordinate columns are contiguous.  One helper (_grid_rows)
builds each chunk of either grid from the grid rows it spans, and the
quadrature forms each chunk's weights and edge mask from the same rows, so
no array holds a whole grid's points or a whole level's weights.  Every
row-wise stage runs on core._map_chunks: the quadrature grid, the
pushforward grid and the Monte Carlo weights in chunks of core._CHUNK
points, the cumulative Simpson table in bands of lanes, and each pushforward
check's KS margins and chi-square as tasks side by side.  The calling thread
takes chunks and, when a map has more than one, so do the threads of the
package's one pool, which lives in ``core`` and is shared with the long
logpdf batches of ``densities``: MULTIVEC_THREADS threads in all, else one
per CPU the process may run on.
Each chunk's sums come back to the caller, which adds them in chunk order;
whole-array sums run after the map, and every density is row-wise, so no
report depends on the number of threads.

Reports are deterministic given (inputs, seed) and serialize as JSON lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special

from . import _EXPORTS
from .core import (
    ExtendedShape,
    MvEllipticalParams,
    Partition,
    ScaleShapeParams,
    _CHUNK,
    _SHORT_AXIS,
    _all_last,
    _map_chunks,
    _sum_last,
)
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

__all__ = list(_EXPORTS["validation"])


@dataclass(frozen=True)
class CheckReport:
    """One validation outcome; it passed when ``residual <= tolerance``."""

    name: str
    residual: float
    tolerance: float
    details: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

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

_DE_WINDOW = 4.5  # |t| <= window on every axis of the DE substitution, at first
_DE_MAX_WINDOW = 6.0  # the retry; wider, exp-sinh nodes near 1e-227 overflow 1/z-like integrands
_DE_EDGE = 0.25  # width in t of each outer edge of the nodes an axis keeps
_POINT_BUDGET = 1 << 22  # integrand points per integral, all levels together


def _de_axis(
    lo: float, hi: float, h: float, window: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x(t), weights |dx/dt| and outer-edge mask of one axis at t = k h,
    |t| <= window.

    tanh-sinh on a finite interval, exp-sinh on a half-line, sinh-sinh on the
    whole line.  Distances to finite endpoints are formed directly, without
    the 1 - tanh cancellation; nodes that round onto an endpoint are
    dropped, so the density never sees a boundary point.  The edge mask
    marks the kept nodes within _DE_EDGE of the outermost kept t on either
    side: an integrable density carries almost no mass there.
    """
    t = h * np.arange(-(window // h), window // h + 1)
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


def _row_span(start: int, stop: int, m: int) -> tuple[slice, slice]:
    """The rows of m points that points start..stop-1 of a C-order grid
    span, and where those points fall in the rows' points laid end to end."""
    first = start // m
    return slice(first, -(-stop // m)), slice(start - first * m, stop - first * m)


def _grid_rows(nodes: Sequence[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Points start..stop-1 of the C-order tensor grid of the node vectors,
    as a read-only block-major (n, d) batch: a view of a (d, n) array, whose
    coordinate columns are contiguous.

    A (d, rows, n_last) buffer takes each axis's nodes broadcast over the
    grid rows the range spans, a row being one point of the grid of the
    axes before the last, and the batch is a slice of it.  A 1-d batch is a
    view of the nodes themselves: read-only, a logpdf that writes into its
    batch raises instead of moving the points of later chunks."""
    *outer, last = nodes
    if outer:
        rows, cut = _row_span(start, stop, len(last))
        buf = np.empty((len(nodes), rows.stop - rows.start, len(last)))
        buf[:-1] = _grid_rows(outer, rows.start, rows.stop).T[:, :, None]
        buf[-1] = last
        pts = buf.reshape(len(nodes), -1)[:, cut].T
    else:
        pts = last[start:stop, None]
    pts.flags.writeable = False
    return pts


def _grid_outer(op: np.ufunc, vectors: Sequence[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Entries start..stop-1 of the C-order outer op of the vectors, folded
    from the left as (v0 op v1) op v2, formed from the grid rows the range
    spans."""
    *outer, last = vectors
    if not outer:
        return last[start:stop]
    rows, cut = _row_span(start, stop, len(last))
    return op.outer(_grid_outer(op, outer, rows.start, rows.stop), last).ravel()[cut]


def _de_grid_sum(
    logpdf: Callable, axes: list[tuple[np.ndarray, np.ndarray, np.ndarray]], name: str
) -> tuple[float, float]:
    """Sums of weight * exp(logpdf) over the tensor grid of the axes, in chunks:
    over every point, and over the points on the edge of any axis.  Each
    chunk's points (_grid_rows), its weights, as (w0 w1) w2, and its edge
    mask (_grid_outer) come from the rows it spans, so no array covers a
    whole level."""
    nodes, weights, edges = zip(*axes)
    size = math.prod(len(x) for x in nodes)

    def chunk_sums(c: int) -> tuple[float, float]:
        start = c * _CHUNK
        stop = min(start + _CHUNK, size)
        try:
            vals = np.asarray(logpdf(_grid_rows(nodes, start, stop)), dtype=float)
        except Exception as exc:
            raise QuadratureFailure(f"{name}: integrand raised: {exc}") from exc
        if vals.shape != (stop - start,):
            raise DimensionMismatch(f"{name}: logpdf returned {vals.shape} for {stop - start} points")
        w = _grid_outer(np.multiply, weights, start, stop)
        on_edge = _grid_outer(np.logical_or, edges, start, stop)
        # a widened window reaches nodes where a singular density overflows
        # exp; the level sum is then inf, which raises QuadratureFailure
        with np.errstate(over="ignore"):
            mass = w * np.exp(vals)
        return float(np.sum(mass)), float(np.sum(mass[on_edge]))

    total = edge = 0.0
    for chunk_total, chunk_edge in _map_chunks(chunk_sums, -(-size // _CHUNK)):
        total += chunk_total
        edge += chunk_edge
    return total, edge


def _de_levels(
    logpdf: Callable, support: Sequence[Interval], tol: float, name: str, window: float,
    budget: int,
) -> tuple[float, float, float, int] | None:
    """Level sums of the rule at one window, the step halving from 1 until
    converged or until the next level would pass `budget` points: the last
    sum, err_est, the last edge mass and the points used.  None when the
    budget admits no level."""
    d = len(support)
    value, err, edge, level, used = math.nan, math.inf, 0.0, 0, 0
    while not (level >= 3 and err <= 1e-3 * tol):
        h = 2.0 ** -level
        axes = [_de_axis(float(lo), float(hi), h, window) for lo, hi in support]
        size = math.prod(len(x) for x, _, _ in axes)
        if used + size > budget:
            break
        used += size
        total, on_edge = _de_grid_sum(logpdf, axes, name)
        prev, value, edge = value, h ** d * total, h ** d * on_edge
        if not math.isfinite(value):
            raise QuadratureFailure(f"{name}: integral is {value}")
        if level:
            err = abs(value - prev)
        level += 1
    return (value, err, edge, used) if level else None


def quad_normalization(
    logpdf: Callable[[np.ndarray], np.ndarray],
    support: Sequence[Interval],
    tol: float,
    name: str = "quad-normalization",
) -> CheckReport:
    """Integrate exp(logpdf) over the support box; residual is |I - 1|.

    logpdf maps an (n, d) batch of points strictly inside the box to shape
    (n,).  The rule is a tensor-product double-exponential trapezoid
    (Takahasi & Mori 1974) over |t| <= 4.5 whose step halves level by
    level, at least 3 levels, until two level sums differ by at most
    1e-3 * tol; that difference is err_est.  When the points on the edge of
    any axis then carry more than tol of mass, the rule runs once more over
    |t| <= 6, reaching mass beyond the first nodes, with what is left of
    one budget of _POINT_BUDGET points.  Raises QuadratureFailure when the
    integrand raises or a level sum is not finite; when the edge still
    carries more than tol, as for a density that is not integrable over the
    box; and when the refinement stops at the budget with err_est above
    tol.  A normalized-but-wrong density is a failed check.
    """
    d = len(support)
    if not 1 <= d <= 3:
        raise ParameterOutOfDomain(f"quadrature supports 1 <= dims <= 3, got {d}")
    value, err, edge, used = _de_levels(logpdf, support, tol, name, _DE_WINDOW, _POINT_BUDGET)
    if edge > tol:
        wide = _de_levels(logpdf, support, tol, name, _DE_MAX_WINDOW, _POINT_BUDGET - used)
        if wide is not None:  # None: what is left of the budget admits no level
            value, err, edge, _ = wide
    if edge > tol:
        raise QuadratureFailure(
            f"{name}: mass {edge:.3g} on the outer edge of the nodes; the density is not"
            " integrable over the box, or not resolved near its ends"
        )
    if err > tol:
        raise QuadratureFailure(
            f"{name}: no convergence within {_POINT_BUDGET} points, err_est {err:.3g}"
        )
    return CheckReport(
        name, abs(value - 1.0), tol, details=f"integral={value:.12g} err_est={err:.3g} dims={d}"
    )


def radial_integral_identity_check(spec: GeneratorSpec, n: float, a: float) -> float:
    """Relative residual of int_0^inf z^{n/2-1} h(z/a) dz = a^{n/2} Gamma(n/2) / pi^{n/2}.

    h is the normalized generator at dimension n.  The left side over the
    right is integrated by quad_normalization, on (0, a) for Pearson II,
    whose kernel support ends there, and on (0, inf) otherwise; the residual
    is |I - 1|, and values above 1e-6 indicate a broken constant.

    Raises QuadratureFailure where the rule does not converge or cannot
    reach the mass.  The half-line nodes span z in about (1e-31, 1e30) and,
    when their edge holds more than 1e-6 of the mass, those of the retry
    span about (1e-138, 1e138).  So an integrand near z^-0.95
    at 0 or z^-1.05 at infinity fails, as does a Pearson II kernel with q
    below about -1/2, whose singular end holds more than 1e-6 of the mass
    within the rounding of z/a to 1.
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
    """Importance-sampling estimate of the total mass; passes when |I-1| <= 3 SE.

    Both densities must be row-wise, as the grids' are: each maps an (m, d)
    slice of the draws to shape (m,), and no row's value depends on another
    row.  They run on the same _CHUNK-row slices on _map_chunks, each slice
    writing its weights into one array; the sums are taken over that whole
    array, so the report does not depend on the number of threads.

    Raises ParameterOutOfDomain for n < 2, where the SE is undefined, and
    DimensionMismatch when either density returns another shape than its
    slice's.
    """
    if n < 2:
        raise ParameterOutOfDomain(f"n must be >= 2, got {n}")
    rng = make_rng(seed)
    x = proposal_sampler(rng, n)
    w = np.empty(n)

    def chunk_weights(c: int) -> None:
        rows = slice(c * _CHUNK, (c + 1) * _CHUNK)
        out = w[rows]
        target = np.asarray(logpdf(x[rows]), dtype=float)
        proposal = np.asarray(proposal_logpdf(x[rows]), dtype=float)
        for label, vals in (("logpdf", target), ("proposal_logpdf", proposal)):
            if vals.shape != out.shape:
                raise DimensionMismatch(f"{name}: {label} returned {vals.shape} for {out.size} points")
        np.exp(np.subtract(target, proposal, out=out), out=out)

    _map_chunks(chunk_weights, -(-n // _CHUNK))
    del x  # the draws are spent: free them before the sums' temporaries
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
    return CheckReport(
        name,
        residual,
        3.0 * se,
        details=f"estimate={estimate:.8f} se={se:.3g} ess={ess:.0f} n={n} seed={seed}",
    )


# ---------------------------------------------------------------------------
# Ball-to-space Jacobian identity

_JACOBIAN_GRID_POINTS = 201
_JACOBIAN_BINS = 20  # equal-probability bins of the chi-square


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


def _sum_columns(cols: list[np.ndarray]) -> np.ndarray:
    """_sum_last(np.stack(cols, axis=-1)), bit for bit, with no stack below
    _SHORT_AXIS columns."""
    if len(cols) >= _SHORT_AXIS:
        return np.sum(np.stack(cols, axis=-1), axis=-1)
    out = cols[0] + 0.0
    for c in cols[1:]:
        out += c
    return out


def _betaprime_cdf_to_bin(a: float, x: np.ndarray, bins: int) -> np.ndarray:
    """_betaprime_cdf(a, x) as far as bins of width 1/bins can tell.

    The closed form (x / (1 + x))^a = I_{x/(1+x)}(a, 1) differed from
    scipy's incomplete beta by at most 3.3e-16 over 18M Jacobian draws
    (seeds 0-59, n = 1, 2, 3), so it puts a value in scipy's bin unless it
    lies within 1e-9 of a bin edge.  Those values, and the ones where the
    closed form is not finite, take _betaprime_cdf's own.
    """
    with np.errstate(invalid="ignore"):  # inf / inf
        u = (x / (1.0 + x)) ** a
        t = bins * u
        # NaN compares false, so a non-finite u also takes scipy's value
        edge = ~(np.abs(t - np.rint(t)) > bins * 1e-9)
    if edge.any():
        u[edge] = _betaprime_cdf(a, x[edge])
    return u


def jacobian_check(n: int, n_draws: int = 100_000, seed: int = 0) -> CheckReport:
    """Verify the unit-ball to whole-space volume-element identity by MC.

    x uniform in the unit n-ball is pushed through y = (1 - ||x||^2)^{-1/2} x.
    Under the claimed volume element (dy) = (1 - ||x||^2)^{-(n/2+1)} (dx),
    the squared norm ||y||^2 must follow BetaPrime(n/2, 1); a chi-square GOF
    with equal-probability bins arbitrates (p > 0.001).  Each draw is binned
    by the closed-form CDF (||y||^2 / (1 + ||y||^2))^{n/2}; scipy's incomplete
    beta (_betaprime_cdf) decides only the draws within 1e-9 of a bin edge,
    so every draw lands in the bin scipy's CDF gives it.  The inverse map
    round-trip is asserted to 1e-12 alongside.  The maps run one coordinate
    column at a time, as _sum_last adds them.
    """
    if n < 1:
        raise ParameterOutOfDomain(f"dimension must be >= 1, got {n}")
    if n_draws < 1:
        raise ParameterOutOfDomain(f"n_draws must be >= 1, got {n_draws}")
    rng = make_rng(seed)
    radius = rng.uniform(0.0, 1.0, size=n_draws) ** (1.0 / n)
    direction = sample_unit_sphere(n, rng, size=n_draws)
    x = [radius * direction[:, j] for j in range(n)]
    scale = np.sqrt(1.0 - _sum_columns([c * c for c in x]))
    y = [c / scale for c in x]
    # round-trip through the algebraic inverse
    y_sq = _sum_columns([c * c for c in y])
    back = np.sqrt(1.0 + y_sq)
    round_trip = float(np.max([np.max(np.abs(c / back - c0)) for c, c0 in zip(y, x)]))
    if round_trip > 1e-12:
        raise AssertionError(f"inverse-map round trip error {round_trip}")
    stat, p = _chi2_quantile_gof(
        y_sq, partial(_betaprime_cdf_to_bin, n / 2.0, bins=_JACOBIAN_BINS), _JACOBIAN_BINS
    )
    return CheckReport(
        f"jacobian-ball-map-n{n}",
        1.0 - p,
        1.0 - 0.001,
        details=f"chi2={stat:.2f} p={p:.5f} n_draws={n_draws} seed={seed} roundtrip={round_trip:.2e}",
    )


def jacobian_grid_check() -> CheckReport:
    """1-d cross-check of the same Jacobian against central differences.

    For n = 1 the map is y = x (1-x^2)^{-1/2} and the claimed volume factor
    is (1-x^2)^{-3/2}; a numerical dy/dx must match it to 1e-3 in sup norm.
    """
    x = np.linspace(-0.9, 0.9, _JACOBIAN_GRID_POINTS)
    h = 1e-6
    y = lambda t: t / np.sqrt(1.0 - t * t)
    dy_num = (y(x + h) - y(x - h)) / (2.0 * h)
    dy_formula = (1.0 - x * x) ** -1.5
    residual = float(np.max(np.abs(dy_num - dy_formula)))
    return CheckReport(
        "jacobian-1d-grid", residual, 1e-3,
        details=f"grid={_JACOBIAN_GRID_POINTS} sup-norm vs central diff",
    )


# ---------------------------------------------------------------------------
# Sampler-vs-density goodness of fit

# grid points per axis, by dimension: the CDF bias must stay well under the
# KS resolution ~ 1/sqrt(n_draws)
_PUSH_GRID_POINTS = {1: 2001, 2: 641}
_PUSH_CHI2_BINS = 6  # equal-count bins per axis of the 2-d chi-square
_SIMPSON_BAND = 64  # lanes of the other axis per task of a cumulative Simpson pass


def _cumulative_simpson(y: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Cumulative Simpson integral of y (1 or 2 dims) over the nodes x (at
    least 3, strictly increasing) along `axis`, 0 at x[0]:
    scipy.integrate.cumulative_simpson with initial=0, bit for bit.

    Each interval is integrated once, by the quadratic through its two nodes
    and one neighbour (Cartwright's formula for irregular spacing, in scipy's
    operation order): the next node for even intervals, the previous node for
    odd intervals and for the last one.  scipy evaluates both neighbours over
    every interval and keeps half of each.  The three nodes of each parity
    are read as strided slices, and the table runs in bands of _SIMPSON_BAND
    lanes of the other axis on _map_chunks, each band's products and running
    sum written in place; every element sees the same operations in the same
    order at any band count.
    """
    dx = np.diff(x)
    i = np.arange(dx.size)
    nxt = (i % 2 == 0) & (i < dx.size - 1)
    x21, x32 = dx, dx[i + np.where(nxt, 1, -1)]
    x21_x31 = x21 / (x21 + x32)
    q = x21_x31 * (x21 / x32)
    coeffs = np.stack([3 - x21_x31, 3 + q + x21_x31, -q, x21 / 6])[:, :, None]
    half = dx.size // 2  # the even intervals that take the next node; as many are odd

    def every_other(k: int) -> slice:  # k, k + 2, ..., half of them
        return slice(k, 2 * half + k, 2)

    # per kind of interval: its output rows, its far, near and other node,
    # and its coefficients; interval i ends at output row i + 1
    kinds = [
        (every_other(1), every_other(0), every_other(1), every_other(2), coeffs[:, every_other(0)]),
        (every_other(2), every_other(2), every_other(1), every_other(0), coeffs[:, every_other(1)]),
    ]
    if dx.size % 2:  # an even last interval takes the previous node
        kinds.append((slice(-1, None), slice(-1, None), slice(-2, -1), slice(-3, -2), coeffs[:, -1:]))
    out = np.empty(y.shape)
    # the integration axis first, lanes second: views of y and out
    src, dst = (np.moveaxis(a, axis, 0).reshape(y.shape[axis], -1) for a in (y, out))

    def band(b: int) -> None:
        lanes = slice(b * _SIMPSON_BAND, (b + 1) * _SIMPSON_BAND)
        ys, res = src[:, lanes], dst[:, lanes]
        # a leading 0 makes the sums 0 + s_0 + s_1 + ..., which is what
        # scipy's cumsum plus its initial 0 gives, signed zeros included
        res[0] = 0.0
        tmp = np.empty((half, res.shape[1]))
        for rows, far, near, other, (c1, c2, c3, w) in kinds:
            acc, t = res[rows], tmp[:len(c1)]
            np.multiply(c1, ys[far], out=acc)  # w * (c1 f + c2 n + c3 o), as scipy orders it
            acc += np.multiply(c2, ys[near], out=t)
            acc += np.multiply(c3, ys[other], out=t)
            acc *= w
        np.cumsum(res, axis=0, out=res)

    _map_chunks(band, -(-src.shape[1] // _SIMPSON_BAND))
    return out


def _ks_pvalue(values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided one-sample KS p-value of sorted values against cdf: the
    exact Kolmogorov law of D = max(D+, D-), as stats.kstest's default mode
    gives it."""
    from scipy import stats

    n = values.size
    c = cdf(values)
    d_plus = np.max(np.arange(1.0, n + 1) / n - c)
    d_minus = np.max(c - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return float(np.clip(stats.kstwo.sf(d, n), 0.0, 1.0))


def _snap_edges(grid: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """Indices of quantile-like cell edges snapped to grid nodes, box ends included."""
    idx = np.clip(np.searchsorted(grid, quantiles), 1, grid.size - 2)
    return np.unique(np.concatenate([[0], idx, [grid.size - 1]]))


def pushforward_check(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    logpdf: Callable[[np.ndarray], np.ndarray],
    support: Sequence[Interval],
    n_draws: int = 100_000,
    seed: int = 0,
    name: str = "pushforward",
) -> CheckReport:
    """Draws vs density in 1 or 2 dims: KS per scalar margin (p > 0.01) and,
    in 2 dims, chi-square on the 2-d histogram (p > 0.001).

    exp(logpdf) on a tensor grid over a box that covers the sample with
    padding, fed to logpdf a chunk of grid rows at a time (_grid_rows),
    becomes one CDF table, by a cumulative Simpson pass along each axis
    (_cumulative_simpson), normalized on the box.  Each marginal CDF is
    the table's edge at the last node of the other axis, read through a
    PCHIP interpolant; the KS p-value of each sorted margin is that of
    stats.kstest's default, exact mode (_ks_pvalue).  Each chi-square cell
    probability is a difference of the table's corners.  The residual is the
    worst threshold shortfall, so 0 means every sub-check passed.
    """
    if n_draws < 1:
        raise ParameterOutOfDomain(f"n_draws must be >= 1, got {n_draws}")
    from scipy.interpolate import PchipInterpolator

    rng = make_rng(seed)
    x = np.atleast_2d(np.asarray(sampler(rng, n_draws), dtype=float))
    d = x.shape[1]
    if d != len(support):
        raise ParameterOutOfDomain(f"support has {len(support)} dims, sample has {d}")
    if d not in _PUSH_GRID_POINTS:
        raise ParameterOutOfDomain(f"pushforward grids cover 1 or 2 dims, got {d}")
    grid_points = _PUSH_GRID_POINTS[d]

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

    cdf = np.empty(math.prod(g.size for g in grids))

    def chunk_density(c: int) -> None:
        start = c * _CHUNK
        out = cdf[start:start + _CHUNK]
        with np.errstate(over="ignore"):
            vals = np.asarray(logpdf(_grid_rows(grids, start, start + out.size)), dtype=float)
            if vals.shape != out.shape:
                raise DimensionMismatch(f"{name}: logpdf returned {vals.shape} for {out.size} points")
            np.exp(vals, out=out)

    _map_chunks(chunk_density, -(-cdf.size // _CHUNK))
    cdf = cdf.reshape([g.size for g in grids])
    for axis, g in enumerate(grids):
        cdf = _cumulative_simpson(cdf, g, axis)
    cdf /= cdf[(-1,) * d]

    import scipy.stats  # noqa: F401 -- loaded on this thread, not inside a pool thread's task

    margins = [np.sort(x[:, j]) for j in range(d)]  # each sorted once, for KS and the quantiles

    def ks_margin(j: int) -> float:
        g = grids[j]
        edge = cdf[tuple(slice(None) if i == j else -1 for i in range(d))]
        edge = np.maximum.accumulate(np.clip(edge, 0.0, 1.0))
        # PCHIP needs strictly increasing data on the support of the margin
        rises = np.diff(edge) > 0
        keep = np.concatenate([[True], rises]) | np.concatenate([rises, [True]])
        interp = PchipInterpolator(g[keep], edge[keep])
        return _ks_pvalue(margins[j], lambda v: np.clip(interp(np.clip(v, g[0], g[-1])), 0.0, 1.0))

    def chi2_cells() -> float:
        qs = np.linspace(0.0, 1.0, _PUSH_CHI2_BINS + 1)[1:-1]
        ix = _snap_edges(grids[0], np.quantile(margins[0], qs))
        iy = _snap_edges(grids[1], np.quantile(margins[1], qs))
        corner = cdf[np.ix_(ix, iy)]
        cells = corner[1:, 1:] - corner[:-1, 1:] - corner[1:, :-1] + corner[:-1, :-1]
        counts, _, _ = np.histogram2d(x[:, 0], x[:, 1], bins=[grids[0][ix], grids[1][iy]])
        expected = n_draws * np.maximum(cells, 0.0)
        mask = expected > 1e-9
        stat = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(mask.sum()) - 1
        return float(special.chdtrc(dof, stat))

    # side by side, the chi-square first: it takes about as long as both KS tests
    tasks = [chi2_cells] * (d == 2) + [partial(ks_margin, j) for j in range(d)]
    ps = _map_chunks(lambda t: tasks[t](), len(tasks))
    chi2_p, ks_ps = (ps[0] if d == 2 else None), ps[-d:]

    shortfalls = [max(0.0, 0.01 - p) for p in ks_ps]
    if chi2_p is not None:
        shortfalls.append(max(0.0, 0.001 - chi2_p))
    residual = max(shortfalls)
    details = (
        f"ks_p={['%.4f' % p for p in ks_ps]}"
        + (f" chi2_p={chi2_p:.5f}" if chi2_p is not None else "")
        + f" n={n_draws} seed={seed}"
    )
    return CheckReport(name, residual, 0.0, details=details)


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
    inside = _all_last((b2 > 0) & (b2 < 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        extra = np.where(inside, p.shape.alpha0 * _sum_last(np.log1p(-b2)), 0.0)
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
    """Radial-integral identity across the generator grid plus the Jacobian checks.

    A negative seed raises ParameterOutOfDomain before any check runs."""
    if seed < 0:
        raise ParameterOutOfDomain(f"seed must be >= 0, got {seed}")
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
            for a in (1.0, 2.5):
                residual = radial_integral_identity_check(spec, n, a)
                reports.append(
                    CheckReport(
                        f"identity-radial-integral-{label}-n{n:g}-a{a:g}", residual, 1e-6,
                        details="kernel moment integral vs closed-form normalizer",
                    )
                )
    for n in (1, 2, 3):
        for s in range(3):  # the s-th draw per n: one name per row, whatever the seed
            rep = jacobian_check(n, n_draws=n_draws, seed=seed + 10 * n + s)
            reports.append(replace(rep, name=f"{rep.name}-{s}"))
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
        CheckReport(
            "discrimination-beta1-uncorrected-exponent",
            0.0 if not wrong.passed else 1.0,
            0.5,
            details=f"uncorrected variant must fail GOF; it reported: {wrong.details}",
        )
    )
    return reports
