"""Oracle layer: normalization, change-of-variables, and pushforward checks.

Every density formula in this package is accepted only if it passes the
checks here: quadrature of exp(logpdf) over the declared support (total
dimension <= 3), each generator's radial-integral identity on the same
quadrature rule, the ball map's change of variables on the package's own
sampler map and densities, and sampler-vs-density goodness of fit in 1 or 2
dims (marginal KS plus 2-d chi-square, both read off one cumulative table of
the density on a grid).  A suite row whose quadrature, or cumulative
table, raises QuadratureFailure is a failing row that names the error; the
other rows still run.  mc_normalization, an importance-sampled estimate of
the total mass, is a library oracle that no suite runs.  The quadrature is
one tensor double-exponential rule fed (n, d) batches; its err_est is the
change between the last two step halvings, under a fixed budget of points,
and its window widens once when its outermost nodes hold mass.  The
cumulative table comes from this module's own Simpson pass (scipy's
cumulative_simpson, bit for bit, without scipy.integrate), and the KS
statistic is formed directly from the sorted margin, with its p-value from
the exact Kolmogorov law.  Both
suites take their cases from one ordered fixture list over the family table
of ``families``.  The pushforward suite also carries a discrimination check:
a deliberately uncorrected variant of the beta-I density must FAIL goodness
of fit, demonstrating that the corrected exponent is required and the tests
have power.

The grids pass logpdf block-major batches: read-only (n, d) views of (d, n)
arrays, whose coordinate columns are contiguous.  One helper (_grid_rows)
builds each chunk of either grid from the grid rows it spans: its points,
and in the quadrature its weights and edge flags too, as the products and
ors along the rows of the same chunk of the axis weights' and edge flags'
grids, so no array holds a whole grid's points or a whole level's weights.
One chunk rule (_grid_density) evaluates both grids.  A density that
raises on either becomes a QuadratureFailure, so its suite row fails; only
exp, not the density, runs under the errstate that lets exp overflow.
These stages share core._map_chunks: the chunks of core._CHUNK points of
both grids, the bands of lanes of the cumulative Simpson table, the Monte
Carlo weights of each core._CHUNK-row chunk of draws beside the draw of
the next chunk, and, in ``densities``, the ranges of a split logpdf_*
batch.  A pushforward check's KS margins and chi-square then run in order
on the calling thread.  The calling thread takes chunks and, when a map has
more than one, so do the threads of the package's one pool, which lives in
``core``: MULTIVEC_THREADS threads in all, else one per CPU the process may
run on.
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

from . import _EXPORTS
from .core import (
    ExtendedShape,
    MvEllipticalParams,
    Partition,
    ScaleShapeParams,
    _CHUNK,
    _all_last,
    _count,
    _map_chunks,
    _sum_last,
    _whole,
)
from .densities import (
    BetaParams,
    GammaLogGammaParams,
    JointScaleParams,
    MixedParams,
    MvTParams,
    _ball_forward,
    logpdf_mv_beta1,
    logpdf_mv_pearson2,
    logpdf_mv_t,
)
from .errors import DegenerateWeights, DimensionMismatch, ParameterOutOfDomain, QuadratureFailure
from .families import FAMILIES
from .generators import Bessel, GeneratorSpec, Kotz, PearsonII, PearsonVII, gammaln, log_norm_const
from .sampling import make_rng, sample_mv_t

__all__ = list(_EXPORTS["validation"])


@dataclass(frozen=True)
class CheckReport:
    """One validation outcome; it passed when ``residual <= tolerance``.

    An oracle that raised reports residual inf, which its JSON line writes
    as null, so every line is strict JSON."""

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
            "residual": self.residual if math.isfinite(self.residual) else None,
            "tolerance": self.tolerance,
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Normalization by double-exponential quadrature

Interval = tuple[float, float]

_DE_WINDOW = 4.5  # |t| <= window on every axis of the DE substitution, at first
_DE_MAX_WINDOW = 6.0  # the retry; wider, exp-sinh nodes near 1e-227 overflow 1/z-like integrands
_DE_EDGE = 0.25  # width in t of each outer edge of the nodes an axis keeps
_POINT_BUDGET = 1 << 22  # integrand points per integral, all levels together


def _check_box(support: Sequence[Interval]) -> None:
    """ParameterOutOfDomain naming the first axis of the box that is not a
    (lo, hi) pair, or whose interval does not have lo < hi (a NaN end
    included)."""
    for axis, pair in enumerate(support):
        try:
            lo, hi = pair
        except (TypeError, ValueError):
            raise ParameterOutOfDomain(
                f"support axis {axis} needs a (lo, hi) pair, got {pair!r}") from None
        if not lo < hi:
            raise ParameterOutOfDomain(f"support axis {axis} needs lo < hi, got ({lo}, {hi})")


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


def _grid_rows(nodes: Sequence[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Points start..stop-1 of the C-order tensor grid of the node vectors,
    as a read-only block-major (n, d) batch: a view of a (d, n) array, whose
    coordinate columns are contiguous.

    A (d, rows, n_last) buffer of the last vector's dtype (edge flags stay
    booleans) takes each axis's nodes broadcast over the grid rows the range
    spans, a row being one point of the grid of the axes before the last,
    and the batch is a slice of it.  A 1-d batch is a
    view of the nodes themselves: read-only, a logpdf that writes into its
    batch raises instead of moving the points of later chunks."""
    *outer, last = nodes
    if outer:
        m = len(last)
        first, end = start // m, -(-stop // m)
        buf = np.empty((len(nodes), end - first, m), dtype=last.dtype)
        buf[:-1] = _grid_rows(outer, first, end).T[:, :, None]
        buf[-1] = last
        pts = buf.reshape(len(nodes), -1)[:, start - first * m:stop - first * m].T
    else:
        pts = last[start:stop, None]
    pts.flags.writeable = False
    return pts


def _check_rows(vals: np.ndarray, m: int, name: str, label: str) -> None:
    """DimensionMismatch unless the values an oracle's callback `label`
    returned for m points have shape (m,): one value per point."""
    if vals.shape != (m,):
        raise DimensionMismatch(f"{name}: {label} returned {vals.shape} for {m} points")


def _grid_density(
    logpdf: Callable, nodes: Sequence[np.ndarray], start: int, stop: int, name: str,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """exp(logpdf) at points start..stop-1 of the tensor grid of the node
    vectors (_grid_rows), into `out` when given: the one chunk rule of both
    grids.  A logpdf that raises, or whose values are not numbers, raises
    QuadratureFailure naming the error; one that returns another shape
    than (stop - start,) raises DimensionMismatch.  logpdf runs outside the
    errstate that lets exp overflow, so its own warnings stay visible."""
    try:
        vals = np.asarray(logpdf(_grid_rows(nodes, start, stop)), dtype=float)
    except Exception as exc:
        raise QuadratureFailure(f"{name}: integrand raised: {exc}") from exc
    _check_rows(vals, stop - start, name, "logpdf")
    # a singular density may overflow exp at the nodes nearest its pole; the
    # grid's total is then inf, which each oracle refuses
    with np.errstate(over="ignore"):
        return np.exp(vals, out=out)


def _de_grid_sum(
    logpdf: Callable, axes: list[tuple[np.ndarray, np.ndarray, np.ndarray]], name: str
) -> tuple[float, float]:
    """Sums of weight * exp(logpdf) over the tensor grid of the axes, in chunks:
    over every point, and over the points on the edge of any axis.
    _grid_density evaluates each chunk's points, and _grid_rows builds its
    weights and edge flags as the same rows of the grids of the axis
    weights and edge flags, reduced along each row as (w0 w1) w2 and
    e0 | e1 | e2 (numpy reduces a short strided axis left to right), so no
    array covers a whole level."""
    nodes, weights, edges = zip(*axes)
    size = math.prod(len(x) for x in nodes)

    def chunk_sums(c: int) -> tuple[float, float]:
        start = c * _CHUNK
        stop = min(start + _CHUNK, size)
        mass = _grid_density(logpdf, nodes, start, stop, name)
        on_edge = np.logical_or.reduce(_grid_rows(edges, start, stop), axis=-1)
        with np.errstate(over="ignore"):  # as exp may: an inf level sum raises QuadratureFailure
            mass *= np.multiply.reduce(_grid_rows(weights, start, stop), axis=-1)
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
    tol.  A normalized-but-wrong density is a failed check.  Raises
    ParameterOutOfDomain, before any density call, for other than 1 to 3
    axes or an axis without lo < hi.
    """
    d = len(support)
    if not 1 <= d <= 3:
        raise ParameterOutOfDomain(f"quadrature supports 1 <= dims <= 3, got {d}")
    _check_box(support)
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
    log_rhs = gammaln(n / 2) + (n / 2) * math.log(a / math.pi)
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

    The draws stream in chunks of _CHUNK rows.  proposal_sampler(rng, m) is
    called once per chunk, with m <= _CHUNK rows (the last chunk takes the
    remainder), in chunk order and one call at a time, possibly on a pool
    thread; it must return an (m, d) array, the same d for every chunk.  A
    sampler that draws row after row from rng, as numpy's normal and
    multivariate_normal do, so returns the rows of one n-row call.  While
    chunk c is weighted, chunk c + 1 is drawn beside it on _map_chunks, so
    at most two chunks of draws and one chunk's density values are alive
    beside the n weights; the sums then add one temporary of n values.

    Both densities must be row-wise, as the grids' are: each maps a chunk
    of draws to shape (m,), and no row's value depends on another row.
    Each chunk writes its weights into its slice of one n-row array; the
    sums are taken over that whole array, so the report does not depend on
    the number of threads.

    Raises ParameterOutOfDomain for n < 2, where the SE is undefined, or n
    not a whole number, and DimensionMismatch when a draw or either
    density has another shape than its chunk's.
    """
    n = _count(n, "n", least=2)
    rng = make_rng(seed)
    chunks = -(-n // _CHUNK)
    w = np.empty(n)

    def draw(c: int, width: int | None = None) -> np.ndarray:
        m = min(_CHUNK, n - c * _CHUNK)
        x = np.asarray(proposal_sampler(rng, m))
        if x.ndim != 2 or x.shape != (m, x.shape[1] if width is None else width):
            raise DimensionMismatch(f"{name}: proposal_sampler returned {x.shape} for {m} points")
        return x

    def weigh(c: int, x: np.ndarray) -> None:
        out = w[c * _CHUNK:(c + 1) * _CHUNK]
        target = np.asarray(logpdf(x), dtype=float)
        proposal = np.asarray(proposal_logpdf(x), dtype=float)
        _check_rows(target, out.size, name, "logpdf")
        _check_rows(proposal, out.size, name, "proposal_logpdf")
        np.exp(np.subtract(target, proposal, out=out), out=out)

    drawn = {0: draw(0)}  # chunk -> its draws, each popped by the task that weighs it
    width = drawn[0].shape[1]

    def step(c: int, task: int) -> None:  # task 0 weighs chunk c, task 1 draws chunk c + 1
        if task:
            drawn[c + 1] = draw(c + 1, width)
        else:
            weigh(c, drawn.pop(c))

    for c in range(chunks):
        _map_chunks(partial(step, c), min(2, chunks - c))
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
# The ball map's change of variables, on the package's own code

_JACOBIAN_TOL = 1e-5  # rows at n = 1-3, seeds 0-1999, read at most 2.4e-6
_BALL_T = MvTParams(dims=(1,), alpha0=1.6, betas=(1.3,))  # the rows' mv-t, at dims (n,)


def _image_identity_residual(
    x: np.ndarray, root_logpdf: Callable, image_logpdf: Callable, forward: Callable
) -> float:
    """max over the (m, n) rows x of |g(F(x)) - f(x) + log|det DF(x)||, for a
    root density f, an image density g and the sampler's forward map F.  DF
    is taken by central differences, step 1e-6 max(1, |x_j|), and its
    log|det| by slogdet.  A row whose down point F does not map to finite
    values lies within that step of F's domain edge (log's 0); its column
    takes the step 1e-6 |x_j| instead.  F runs on copies: a sampler map
    writes into its argument."""
    jac = np.empty(x.shape + x.shape[-1:])

    def moved(j: int, step: np.ndarray) -> np.ndarray:  # F at x with column j moved by step
        points = x.copy()
        points[:, j] += step
        return forward(points)

    for j in range(x.shape[1]):
        step = 1e-6 * np.maximum(1.0, np.abs(x[:, j]))
        with np.errstate(divide="ignore", invalid="ignore"):  # the probe may leave F's domain
            near_edge = ~_all_last(np.isfinite(moved(j, -step)))
        step[near_edge] = 1e-6 * np.abs(x[near_edge, j])
        width = (x[:, j] + step) - (x[:, j] - step)  # the step as rounded
        jac[:, :, j] = (moved(j, step) - moved(j, -step)) / width[:, None]
    residual = image_logpdf(forward(x.copy())) - root_logpdf(x) + np.linalg.slogdet(jac)[1]
    return float(np.max(np.abs(residual)))


def _ball_report(name: str, p: MvTParams, t: np.ndarray, details: str) -> CheckReport:
    """The identity from mv-t to mv-pearson2 at the points t, through the
    sampler's ball map r = t / sqrt(1 + ||t||^2) (densities._ball_forward)."""
    residual = _image_identity_residual(t, partial(logpdf_mv_t, p), partial(logpdf_mv_pearson2, p),
                                        partial(_ball_forward, p.dims))
    return CheckReport(name, residual, _JACOBIAN_TOL, details=details)


def jacobian_check(n: int, n_draws: int = 1000, seed: int = 0) -> CheckReport:
    """The ball map's Jacobian on the package's own code, at n_draws points of
    mv-t at dims (n,) (alpha0 = 1.6, beta = 1.3): logpdf_mv_pearson2 at the
    sampler's image r of each t must equal logpdf_mv_t at t less the
    log-determinant of the map's central-difference Jacobian.  The residual
    is the largest gap (_image_identity_residual); the tolerance is 1e-5.
    """
    n = _count(n, "dimension", 1)
    n_draws = _count(n_draws, "n_draws", least=1)
    p = replace(_BALL_T, dims=(n,))
    t = sample_mv_t(p, make_rng(seed), size=n_draws)
    return _ball_report(f"jacobian-ball-map-n{n}", p, t, f"n_draws={n_draws} seed={seed}")


def jacobian_grid_check() -> CheckReport:
    """jacobian_check's identity at n = 1 on 201 fixed points t in [-10, 10]."""
    t = np.linspace(-10.0, 10.0, 201)[:, None]
    return _ball_report("jacobian-1d-grid", _BALL_T, t, "grid=201 t in [-10, 10]")


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


def _cell_counts(x: np.ndarray, edges: Sequence[np.ndarray]) -> np.ndarray:
    """np.histogram2d(x[:, 0], x[:, 1], bins=edges)[0] for ascending edges:
    each draw's index along an axis counts the edges, all but the last, at
    or below it, plus one past the last edge, and one np.bincount counts
    the cells.  Indices 0 and the last, the draws outside the edges, are
    dropped; a draw on the last edge counts in the last cell."""
    cell, shape = 0, [e.size + 1 for e in edges]
    for j, e in enumerate(edges):
        cell = cell * shape[j] + sum(x[:, j] >= v for v in e[:-1]) + (x[:, j] > e[-1])
    return np.bincount(cell, minlength=math.prod(shape)).reshape(shape)[1:-1, 1:-1]


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
    padding, fed to logpdf a chunk of grid rows at a time (_grid_density),
    becomes one CDF table, by a cumulative Simpson pass along each axis
    (_cumulative_simpson), normalized on the box.  Each marginal CDF is
    the table's edge at the last node of the other axis, read through a
    PCHIP interpolant; the KS p-value of each sorted margin is that of
    stats.kstest's default, exact mode (_ks_pvalue).  Each chi-square cell
    probability is a difference of the table's corners, and its count is
    np.histogram2d's (_cell_counts).  A draw with a finite coordinate at or
    beyond a finite end of its support axis lies outside the law, where
    neither the KS margins nor the chi-square cells, which drop draws past
    the grid's end nodes, need notice it: the share of such draws is one
    more shortfall, and details then give their count (``outside=<count>``).
    The residual is the worst shortfall, so 0 means every sub-check passed.

    Raises ParameterOutOfDomain, before any draw, for a support of other
    than 1 or 2 axes or with an axis without lo < hi; DimensionMismatch
    when the sampler returns other than n_draws rows, or logpdf another
    shape than its chunk's; and QuadratureFailure when logpdf raises or the
    table's total is not finite and positive (a density that is NaN, inf
    or zero across the grid).
    """
    n_draws = _count(n_draws, "n_draws", least=1)
    d = len(support)
    if d not in _PUSH_GRID_POINTS:
        raise ParameterOutOfDomain(f"pushforward grids cover 1 or 2 dims, got {d}")
    _check_box(support)
    from scipy import special
    from scipy.interpolate import PchipInterpolator

    rng = make_rng(seed)
    x = np.atleast_2d(np.asarray(sampler(rng, n_draws), dtype=float))
    if x.shape[0] != n_draws:  # the chi-square's expected counts assume n_draws rows
        raise DimensionMismatch(f"{name}: sampler returned {x.shape} for {n_draws} draws")
    if x.shape[1] != d:
        raise ParameterOutOfDomain(f"support has {d} dims, sample has {x.shape[1]}")

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
        # positive axes concentrate near 0 with power tails: resolve both
        # ends with geometric spacing instead of a uniform grid
        spacing = np.geomspace if lo >= 0.0 and not np.isfinite(hi) else np.linspace
        grids.append(spacing(glo, ghi, _PUSH_GRID_POINTS[d]))

    cdf = np.empty(math.prod(g.size for g in grids))

    def chunk_density(c: int) -> None:
        start = c * _CHUNK
        out = cdf[start:start + _CHUNK]
        _grid_density(logpdf, grids, start, start + out.size, name, out)

    _map_chunks(chunk_density, -(-cdf.size // _CHUNK))
    cdf = cdf.reshape([g.size for g in grids])
    with np.errstate(over="ignore", invalid="ignore"):  # a table that is not finite is refused below
        for axis, g in enumerate(grids):
            cdf = _cumulative_simpson(cdf, g, axis)
    total = float(cdf[(-1,) * d])
    if not (math.isfinite(total) and total > 0.0):
        raise QuadratureFailure(f"{name}: density total on the grid is {total}")
    cdf /= total

    margins = [np.sort(x[:, j]) for j in range(d)]  # each sorted once, for KS and the quantiles
    ks_ps = []
    for j, g in enumerate(grids):
        edge = cdf[tuple(slice(None) if i == j else -1 for i in range(d))]
        edge = np.maximum.accumulate(np.clip(edge, 0.0, 1.0))
        # PCHIP needs strictly increasing data on the support of the margin
        rises = np.diff(edge) > 0
        keep = np.concatenate([[True], rises]) | np.concatenate([rises, [True]])
        interp = PchipInterpolator(g[keep], edge[keep])
        ks_ps.append(_ks_pvalue(margins[j],
                                lambda v: np.clip(interp(np.clip(v, g[0], g[-1])), 0.0, 1.0)))
    shortfalls = [max(0.0, 0.01 - p) for p in ks_ps]
    details = f"ks_p={['%.4f' % p for p in ks_ps]}"

    if d == 2:
        qs = np.linspace(0.0, 1.0, _PUSH_CHI2_BINS + 1)[1:-1]
        ix, iy = (_snap_edges(g, np.quantile(m, qs)) for g, m in zip(grids, margins))
        corner = cdf[np.ix_(ix, iy)]
        cells = corner[1:, 1:] - corner[:-1, 1:] - corner[1:, :-1] + corner[:-1, :-1]
        counts = _cell_counts(x, [grids[0][ix], grids[1][iy]])
        expected = n_draws * np.maximum(cells, 0.0)
        mask = expected > 1e-9
        stat = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        chi2_p = float(special.chdtrc(int(mask.sum()) - 1, stat))
        shortfalls.append(max(0.0, 0.001 - chi2_p))
        details += f" chi2_p={chi2_p:.5f}"
    lo, hi = np.asarray(support, dtype=float).T  # no finite draw lies beyond an infinite end
    outside = int(np.sum(np.any(np.isfinite(x) & ((x <= lo) | (x >= hi)), axis=1)))
    if outside:
        shortfalls.append(outside / n_draws)
        details += f" outside={outside}"
    return CheckReport(name, max(shortfalls), 0.0, details=f"{details} n={n_draws} seed={seed}")


# ---------------------------------------------------------------------------
# Oracle fixtures: one ordered list feeds both suites

_GAUSS = Kotz.gaussian()
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


def _oracle_row(name: str, tol: float, oracle: Callable[[], CheckReport]) -> CheckReport:
    """oracle()'s row; if its quadrature raises QuadratureFailure, the failing
    row: residual inf, with the error in details."""
    try:
        return oracle()
    except QuadratureFailure as exc:
        return CheckReport(name, math.inf, tol, details=f"QuadratureFailure: {exc}")


def run_normalization_suite() -> list[CheckReport]:
    """Quadrature normalization for every fixture at total dims <= 3, one
    row per case in fixture order; a case whose quadrature raises
    QuadratureFailure is a failing row (_oracle_row)."""
    return [
        _oracle_row(name, tol, partial(quad_normalization, logpdf, support, tol, name=name))
        for name, logpdf, support, tol in _normalization_cases()
    ]


def run_identity_suite(seed: int = 0) -> list[CheckReport]:
    """Radial-integral identity across the generator grid plus the Jacobian checks.

    A radial row whose quadrature raises QuadratureFailure is a failing row
    (_oracle_row).  A seed that is not a whole number >= 0 (core._whole)
    raises ParameterOutOfDomain before any check runs."""
    seed = _whole(seed, "seed")
    reports: list[CheckReport] = []
    grid: list[tuple[str, GeneratorSpec]] = [
        ("kotz-gauss", _GAUSS),
        ("kotz", Kotz(q=1.5, r=2.0, s=0.8)),
        ("pearson7", PearsonVII(r=1.0, q=3.0)),
        ("pearson2", PearsonII(q=1.5)),
        ("bessel", Bessel(r=1.0, q=0.3)),
    ]
    for label, spec in grid:
        for n in (1.0, 2.0, 3.0, 4.5):
            for a in (1.0, 2.5):
                name = f"identity-radial-integral-{label}-n{n:g}-a{a:g}"
                reports.append(_oracle_row(name, 1e-6, lambda: CheckReport(
                    name, radial_integral_identity_check(spec, n, a), 1e-6,
                    details="kernel moment integral vs closed-form normalizer")))
    for n in (1, 2, 3):
        for s in range(3):  # the s-th draw per n: one name per row, whatever the seed
            rep = jacobian_check(n, seed=seed + 10 * n + s)
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
    """Sampler-vs-density GOF for every family plus the discrimination check.

    A case whose check raises QuadratureFailure is a failing row
    (_oracle_row); so is the discrimination row when its check raises,
    since a check that cannot run shows no power."""
    reports = [
        _oracle_row(name, 0.0, partial(pushforward_check, sampler, logpdf, support,
                                n_draws=n_draws, seed=seed, name=name))
        for name, sampler, logpdf, support in _pushforward_cases()
    ]

    # Discrimination: the beta-I density without the alpha0 exponent term
    # must fail the identical GOF, demonstrating the test has power.
    beta = _fixture("mv-beta1-k2")
    row = "discrimination-beta1-uncorrected-exponent"

    def discrimination() -> CheckReport:
        wrong = pushforward_check(
            partial(FAMILIES[beta.family].sample, beta.params),
            lambda b: _uncorrected_beta1_logpdf(*beta.params, b),
            beta.support,
            n_draws=n_draws,
            seed=seed,
            name="push-beta1-uncorrected-exponent-raw",
        )
        details = f"uncorrected variant must fail GOF; it reported: {wrong.details}"
        return CheckReport(row, 0.0 if not wrong.passed else 1.0, 0.5, details=details)

    reports.append(_oracle_row(row, 0.5, discrimination))
    return reports
