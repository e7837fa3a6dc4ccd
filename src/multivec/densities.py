"""Log densities for the multivector and derived multivariate families.

Conventions shared by every function here:

- All values are log densities; -inf encodes zero density outside a
  bounded or half-line support whenever the support restriction comes from
  the distribution itself (unit balls, the (0,1) cube, the s0 > 0
  half-line).  Operations whose contract declares the argument positive up
  front (log-elliptical v, generalized-gamma u, beta II f, the gamma block
  of the gamma/log-gamma family) raise NonPositiveInput instead.
- Inputs may be batched: the trailing axis is the coordinate axis and
  leading axes broadcast.  A call whose result is 0-d returns a float, so
  plain vector (1-d) calls do; any other call returns an array.  Kernels
  work column by column on the trailing block axis, in any memory layout:
  a batch, its block-major copy and its points one by one give the same
  bits at any number of blocks.  Every per-row sum runs in core._sum_last,
  which owns that rule.
- The generator h is always normalized at the family's effective
  dimension: the total vector dimension for the block-vector families and
  2 * (sum of every shape parameter, alpha_0 included where present) for
  the scalar-block families.  That choice is the one under which the
  normalizing constants integrate to one, and the validation suite pins it.
  Each scalar-block law's params own its shape sum, which the density, the
  sampler and, where the params hold the generator, its check all read:
  ScaleShapeParams.total_shape (np.sum of the shapes),
  GammaLogGammaParams.total_shape (np.sum of alphas + rhos) and
  JointScaleParams.alpha_star (alpha_0 + np.sum of the block shapes).  The
  order matters in the last bit; no kernel sums shapes itself.

Six roots carry every normalizing constant: mv-elliptical, mv-t,
gengamma-pearson7, mv-gengamma, mv-beta2 and gengamma-beta2.  Every other
law is a root's image under one change of variables, block by block, and
each map lives here in both directions: the forward map, which the image's
sampler applies to its root's draws, and the inverse with its log-Jacobian,
at which the image's density reads its root's kernel, -inf off the support.

- The ball map r_i = t_i/(1+||t_i||^2)^{1/2} (_ball_forward), t_i's
  direction where ||t_i||^2 overflows, takes mv-t to mv-pearson2 and
  gengamma-pearson7 to gengamma-pearson2.  Its inverse
  t_i = r_i/(1-||r_i||^2)^{1/2} has log-Jacobian
  -sum (n_i/2+1) log(1-||r_i||^2) (_ball_inverse), and gives mv-t
  log ||t_i||^2 where its bracket overflows.
- The unit map b_i = f_i/(1+f_i) (_unit_forward), 1 at f_i = +inf, takes
  mv-beta2 to mv-beta1 and gengamma-beta2 to gengamma-beta1.  Its inverse
  f_i = b_i/(1-b_i) has log-Jacobian -2 sum log(1-b_i) (_unit_inverse).
- The exp map v_i = exp(x_i) on the coordinates past the first k1 blocks
  takes mv-elliptical to mixed-ell-logell, and to log-elliptical at k1 = 0.
  Its inverse x_i = log v_i has log-Jacobian -sum log v_i.  Its mirror
  y_j = log u_j on the last k2 blocks takes mv-gengamma to gamma-loggamma,
  with inverse u_j = exp(y_j) and log-Jacobian sum y_j.  The samplers apply
  numpy's exp or log to those columns in place, and the densities _join the
  untouched blocks to the inverse's.

Commonly printed forms of the images that fail to integrate to one misstate
one of these Jacobians.  Every exponent is pinned by a quadrature test and,
where a sampler exists, a goodness-of-fit test.

Every public logpdf_* splits a batch of more than core._CHUNK rows into row
ranges of at most _RANGE rows, at least one per thread of the package's
shared pool (_split_rows, core._map_chunks), MULTIVEC_THREADS threads in
all.  The kernels are row-wise, so the split moves no bit; a batch of at
most _CHUNK rows runs on the calling thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, is_dataclass

import numpy as np

from . import _EXPORTS
from .core import (
    ExtendedShape,
    MvEllipticalParams,
    ScaleShapeParams,
    _CHUNK,
    _all_last,
    _block_dims,
    _block_sqnorms,
    _cut_blocks,
    _map_chunks,
    _positive,
    _result,
    _sum_in_order,
    _sum_last,
    _threads,
    _whole,
    block_quadform,
)
from .errors import DimensionMismatch, NonPositiveInput, ParameterOutOfDomain
from .generators import GeneratorSpec, gammaln, log_h, log_norm_const

__all__ = list(_EXPORTS["densities"])

_LOG_PI = math.log(math.pi)
_RANGE = _CHUNK // 2  # the most rows one range of a split logpdf batch holds


def _split_rows(fn):
    """fn, splitting a long batch into row ranges over the shared chunk pool.

    fn is a public logpdf: its params and generator specs are dataclasses,
    and every other argument but None is data.  A call splits only when each
    data argument is an array of 1 or 2 dims, all of them share a leading
    axis of more than _CHUNK rows, and one has 2 dims (so that the axis
    counts points, not the coordinates of one point).  The rows then go in
    max(_threads(), ceil(rows / _RANGE)) near-equal ranges, each writing its
    slice of one output, so no thread holds the temporaries of more than
    _RANGE rows at a time.  Every other layout, a broadcast one included, runs
    fn as is.  A range that raises makes the call re-run whole, so a bad
    batch raises what the unsplit call raises, wherever its bad rows lie.
    """

    @functools.wraps(fn)
    def split(*args, **kwargs):
        data = [a for a in (*args, *kwargs.values()) if a is not None and not is_dataclass(a)]
        rows = data[0].shape[0] if data and isinstance(data[0], np.ndarray) and data[0].ndim else 0
        if rows <= _CHUNK or not any(a.ndim == 2 for a in data) or not all(
                isinstance(a, np.ndarray) and a.ndim in (1, 2) and a.shape[0] == rows for a in data):
            return fn(*args, **kwargs)
        n = max(_threads(), -(-rows // _RANGE))
        bounds = [rows * i // n for i in range(n + 1)]
        out = np.empty(rows)

        def run(i: int) -> None:
            part = slice(bounds[i], bounds[i + 1])

            def cut(a):
                return a if a is None or is_dataclass(a) else a[part]

            out[part] = fn(*map(cut, args), **{key: cut(a) for key, a in kwargs.items()})

        try:
            _map_chunks(run, n)
        except Exception:
            return fn(*args, **kwargs)
        return out

    return split


def _vector(x, name: str, k: int) -> np.ndarray:
    """x as a float array whose last axis has length k (a scalar counts as
    length 1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != k:
        raise DimensionMismatch(f"{name} has length {x.shape[-1]}, expected {k}")
    return x


def _positive_vector(x, name: str, k: int) -> np.ndarray:
    x = _vector(x, name, k)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise NonPositiveInput(f"{name} must be strictly positive and finite")
    return x


def _sqnorms_by_dims(dims: tuple[int, ...], x, name: str) -> np.ndarray:
    """Per-block squared norms of x, shape (..., k), block-major, from
    core._block_sqnorms (an overflowing or NaN norm is +inf); validates the
    trailing length."""
    x = _vector(x, name, sum(dims))
    sq = np.empty(x.shape[:-1] + (len(dims),), order="F")
    return _block_sqnorms(_cut_blocks(dims, x), sq)


def _scaled(blocks: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Each block over its largest |x_ij|, and those largest, shape (..., k).
    A coordinate at the largest reads as its sign, so that an infinite one
    reads +-1 (a finite one beside it 0) and an all-zero block stays 0; a
    block holding NaN is all NaN.  No square of a scaled block overflows."""
    tops = np.stack([np.max(np.abs(blk), -1) for blk in blocks], axis=-1)
    with np.errstate(invalid="ignore"):  # inf / inf and 0 / 0, where the sign is taken
        return [np.where(np.abs(blk) == tops[..., [i]], np.sign(blk), blk / tops[..., [i]])
                for i, blk in enumerate(blocks)], tops


def _log_sqnorms(dims: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """log ||x_i||^2 of each block of the rows x, shape (rows, k): twice the
    log of the block's largest |x_ij| plus the log of the core._block_sqnorms
    of the _scaled block."""
    scaled, tops = _scaled(_cut_blocks(dims, x))
    sq = _block_sqnorms(scaled, np.empty(tops.shape))
    with np.errstate(divide="ignore"):  # an all-zero block's log norm is -inf
        return 2.0 * np.log(tops) + np.log(sq)


# ---------------------------------------------------------------------------
# Block-vector families


@_split_rows
def logpdf_mv_elliptical(p: MvEllipticalParams, spec: GeneratorSpec, x) -> np.ndarray | float:
    """Block elliptical density: -1/2 sum log|Sigma_ii| + log h(sum of quadforms).

    A non-finite quadratic form (from a non-finite coordinate, or overflow)
    counts as +inf, where h is zero: NaN comes from inf - inf in the solve.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)  # a scalar is a length-1 vector
    with np.errstate(invalid="ignore"):
        quad = block_quadform(p, x)
    quad = np.where(np.isfinite(quad), quad, np.inf)
    logdet = _sum_in_order(ld for _, ld in p.factors)
    out = -0.5 * logdet + log_h(spec, quad, float(p.partition.total))
    return _result(out)


@dataclass(frozen=True)
class MixedParams:
    """Mixed linear/positive family: first k1 blocks enter linearly, the rest in logs."""

    base: MvEllipticalParams
    k1: int

    def __post_init__(self) -> None:
        k1 = _whole(self.k1, "k1", error=DimensionMismatch)
        if k1 > self.base.partition.k:
            raise DimensionMismatch(f"k1 must lie in [0, {self.base.partition.k}], got {self.k1}")
        object.__setattr__(self, "k1", k1)

    @property
    def k2(self) -> int:
        return self.base.partition.k - self.k1

    @property
    def n_linear(self) -> int:
        return int(sum(self.base.partition.dims[: self.k1]))

    @property
    def n_log(self) -> int:
        return self.base.partition.total - self.n_linear


def _join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a and b broadcast to one batch and joined along the last axis."""
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    return np.concatenate([np.broadcast_to(z, batch + z.shape[-1:]) for z in (a, b)], axis=-1)


@_split_rows
def logpdf_mixed_ell_logell(p: MixedParams, spec: GeneratorSpec, x, v) -> np.ndarray | float:
    """Joint density of linear blocks x and positive blocks v under one shared h."""
    x = _vector(x, "x", p.n_linear)
    logv = np.log(_positive_vector(v, "v", p.n_log))
    # the unsplit kernel: only the public call splits its rows
    return _result(logpdf_mv_elliptical.__wrapped__(p.base, spec, _join(x, logv)) - _sum_last(logv))


@_split_rows
def logpdf_mv_log_elliptical(p: MvEllipticalParams, spec: GeneratorSpec, v) -> np.ndarray | float:
    """Elementwise-log pushforward of the block elliptical law, Jacobian
    prod 1/v_i: the mixed law at k1 = 0."""
    return logpdf_mixed_ell_logell.__wrapped__(MixedParams(p, 0), spec, (), v)


@dataclass(frozen=True)
class MvTParams:
    """Parameters of the multivector t and Pearson II families.

    dims are the block dimensions n_i; alpha0 generalizes n_0/2 to a
    positive real; betas are the block variance ratios sigma_i^2/sigma_0^2.
    Only alpha0 extends to real values — the per-block exponents stay tied
    to n_i/2, because the density stops integrating to one otherwise.
    """

    dims: tuple[int, ...]
    alpha0: float
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _block_dims(self.dims))
        betas = _positive("betas", self.betas)
        if len(self.dims) != len(betas):
            raise DimensionMismatch(f"{len(self.dims)} block dims vs {len(betas)} betas")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha0", _positive("alpha0", (self.alpha0,))[0])

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return int(sum(self.dims))

    @property
    def alpha_star(self) -> float:
        return self.alpha0 + self.total / 2.0


def _ball_forward(dims: tuple[int, ...], t: np.ndarray) -> np.ndarray:
    """r_i = t_i / sqrt(1 + ||t_i||^2), block by block in t's own array and
    one row-length buffer.  Where ||t_i||^2 is +inf (it overflows, or a
    coordinate is infinite or NaN), r_i is t_i's direction t_i / ||t_i||:
    the _scaled block over its norm."""
    rows = np.atleast_2d(t)  # a view: the updates below land in t
    den = np.empty(rows.shape[0])
    for blk in _cut_blocks(dims, rows):
        _block_sqnorms((blk,), den[:, None])
        far = np.flatnonzero(den == np.inf)
        if far.size:  # the direction, which the division by sqrt(0 + 1) keeps
            (big,), _ = _scaled([blk[far]])
            blk[far], den[far] = big / np.sqrt(_block_sqnorms((big,), np.empty((far.size, 1)))), 0.0
        den += 1.0
        blk /= np.sqrt(den, out=den)[:, None]
    return t


def _ball_inverse(dims: tuple[int, ...], r):
    """||t_i||^2 for t_i = r_i/sqrt(1-||r_i||^2), the log-Jacobian, the mask
    of the open unit balls, and a function that gives log ||t_i||^2 on a
    mask of rows as log ||r_i||^2 - log(1-||r_i||^2), finite where
    ||t_i||^2 / beta_i overflows; masked-out points take a finite stand-in."""
    sq = _sqnorms_by_dims(dims, r, "r")
    ok = sq < 1.0
    sq = np.where(ok, sq, 0.5)
    one_m = 1.0 - sq
    log_one_m = np.log(one_m)
    log_jac = -_sum_last(log_one_m, np.asarray(dims, dtype=float) / 2.0 + 1.0)

    def log_sq(rows):
        with np.errstate(divide="ignore"):  # an all-zero block's log norm is -inf
            return np.log(sq[rows]) - log_one_m[rows]

    return sq / one_m, log_jac, _all_last(ok), log_sq


def _mv_t_at(p: MvTParams, sq: np.ndarray, log_sq=None):
    """mv-t log density at block squared norms sq = ||t_i||^2.  Given also
    log_sq, a function that gives log ||t_i||^2 on a mask of rows, a row
    whose bracket sum_i ||t_i||^2 / beta_i overflows takes the bracket's log
    from those log norms by _log1p_scaled_sum's log-sum-exp, unless one of
    them is +inf or NaN (an infinite or NaN coordinate); every other row
    keeps log1p of the bracket, bit for bit."""
    half_dims = np.asarray(p.dims, dtype=float) / 2.0
    log_const = float(
        gammaln(p.alpha_star)
        - gammaln(p.alpha0)
        - np.sum(half_dims * np.log(p.betas))
        - p.total / 2.0 * _LOG_PI  # the sum of the n_i/2, as alpha_star adds it
    )
    bracket = _sum_last(sq, p.betas, np.divide)
    log1p = np.log1p(bracket, out=np.empty(np.shape(bracket)))  # an array even for one point
    far = np.asarray(bracket == np.inf)  # an array even for one point
    if log_sq is not None and far.any():
        logs = log_sq(far)
        far[far] = finite = _all_last(logs < np.inf)
        log1p[far] = _log1p_scaled_sum(sq[far], logs[finite], p.betas)
    out = log_const - p.alpha_star * log1p
    return _result(out)


@_split_rows
def logpdf_mv_t(p: MvTParams, t) -> np.ndarray | float:
    """Multivector t density on the full space.

    The pi exponent is sum_i n_i/2, the dimension actually integrated over
    — with the larger exponent n*/2 the function does not integrate to one.
    Past about 1.3e154, where a coordinate's square overflows, a finite point
    still reads its finite log density.
    """
    t = _vector(t, "t", p.total)
    return _mv_t_at(p, _sqnorms_by_dims(p.dims, t, "t"), lambda rows: _log_sqnorms(p.dims, t[rows]))


@_split_rows
def logpdf_mv_pearson2(p: MvTParams, r) -> np.ndarray | float:
    """Multivector Pearson II density on the product of open unit balls.

    Image of logpdf_mv_t under r_i = t_i/sqrt(1+||t_i||^2) per block, with
    Jacobian prod (1-||r_i||^2)^{-(n_i/2+1)}.  Expanded, the (1-||r_i||^2)
    exponent is alpha0 + sum_{j != i} n_j/2 - 1 (equivalently
    alpha* - n_i/2 - 1); the alpha0 contribution, which comes from the t
    law's alpha* power, is required for the density to integrate to one.
    """
    sq_t, log_jac, inside, log_sq = _ball_inverse(p.dims, r)
    return _result(np.where(inside, _mv_t_at(p, sq_t, log_sq) + log_jac, -np.inf))


# ---------------------------------------------------------------------------
# Joint laws of the aggregate square s0 and reduced blocks


@dataclass(frozen=True)
class JointScaleParams:
    """Parameters of the joint (s0, blocks) families.

    sigma2s lists sigma_0^2 first, then one sigma_i^2 per block.  Vector
    joints (Pearson VII / Pearson II blocks) set integer `dims` and use
    block shapes n_i/2; scalar joints (beta I / beta II blocks) set free
    positive `alphas`.  alpha0 generalizes n_0/2 to a positive real.  The
    generator spec rides along because every joint density keeps its h
    factor (normalized at effective dimension 2*alpha_star).
    """

    spec: GeneratorSpec
    alpha0: float
    sigma2s: tuple[float, ...]
    dims: tuple[int, ...] | None = None
    alphas: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.dims is None) == (self.alphas is None):
            raise DimensionMismatch("exactly one of dims / alphas must be given")
        sigma2s = _positive("sigma^2", self.sigma2s)
        object.__setattr__(self, "sigma2s", sigma2s)
        if self.dims is not None:
            object.__setattr__(self, "dims", _block_dims(self.dims, least_blocks=0))
        else:
            object.__setattr__(self, "alphas", _positive("alphas", self.alphas))
        if len(sigma2s) != self.k + 1:
            raise DimensionMismatch(
                f"need {self.k + 1} sigma^2 values (sigma_0^2 first), got {len(sigma2s)}"
            )
        object.__setattr__(self, "alpha0", _positive("alpha0", (self.alpha0,))[0])
        # fail fast if the generator is invalid at the effective dimension
        log_norm_const(self.spec, 2.0 * self.alpha_star)

    @property
    def k(self) -> int:
        return len(self.dims) if self.dims is not None else len(self.alphas)

    def _blocks(self, vector: bool) -> tuple:
        """dims of a vector joint, or alphas of a scalar one; DimensionMismatch
        for a joint of the other kind."""
        blocks = self.dims if vector else self.alphas
        if blocks is None:
            raise DimensionMismatch("vector joint needs integer block dims" if vector
                                    else "scalar joint needs real alphas")
        return blocks

    @property
    def block_shapes(self) -> np.ndarray:
        if self.dims is not None:
            return np.asarray(self.dims, dtype=float) / 2.0
        return np.asarray(self.alphas, dtype=float)

    @property
    def shapes(self) -> np.ndarray:
        """alpha0, then the block shapes."""
        return np.concatenate([[self.alpha0], self.block_shapes])

    @property
    def alpha_star(self) -> float:
        """alpha0 + sum(block shapes): the joint's one shape total."""
        return self.alpha0 + float(np.sum(self.block_shapes))

    @property
    def betas(self) -> np.ndarray:
        """Variance ratios sigma_i^2/sigma_0^2 of the marginalized block law."""
        s2 = np.asarray(self.sigma2s)
        return s2[1:] / s2[0]


def _joint_out(p: JointScaleParams, s0, log_const, stat, extra, inside):
    """Assemble log_const + (a*-1) log s0 + extra + log h(rate*s0), where
    rate = 1/sigma_0^2 + sum_i stat_i/sigma_i^2; -inf where s0 <= 0 or
    outside `inside`."""
    sigma2 = np.asarray(p.sigma2s)
    rate = 1.0 / sigma2[0] + _sum_last(stat, sigma2[1:], np.divide)
    s0 = np.asarray(s0, dtype=float)
    ok = (s0 > 0) & np.isfinite(s0) & inside
    s0_safe = np.where(ok, s0, 1.0)
    a_star = p.alpha_star
    with np.errstate(over="ignore"):  # h is zero at an overflowing argument
        arg = rate * s0_safe
    out = (
        log_const
        + (a_star - 1.0) * np.log(s0_safe)
        + extra
        + log_h(p.spec, arg, 2.0 * a_star)
    )
    return _result(np.where(ok, out, -np.inf))


def _gengamma_pearson7_at(p: JointScaleParams, s0, sq, log_jac, inside):
    """gengamma-pearson7 log density at s0 and block squared norms
    sq = ||t_i||^2, plus log_jac; -inf outside `inside`."""
    # pi^{alpha0} / (Gamma(alpha0) sigma0^{2 alpha0} prod sigma_i^{n_i})
    log_const = float(
        p.alpha0 * _LOG_PI
        - gammaln(p.alpha0)
        - p.alpha0 * math.log(p.sigma2s[0])
        - np.sum(p.block_shapes * np.log(p.sigma2s[1:]))
    )
    return _joint_out(p, s0, log_const, sq, log_jac, inside)


@_split_rows
def logpdf_gengamma_pearson7(p: JointScaleParams, s0, t) -> np.ndarray | float:
    """Joint law of s0 = ||x_0||^2 and the divided blocks t_i = x_i/||x_0||."""
    sq = _sqnorms_by_dims(p._blocks(vector=True), t, "t")
    return _gengamma_pearson7_at(p, s0, sq, 0.0, True)


@_split_rows
def logpdf_gengamma_pearson2(p: JointScaleParams, s0, r) -> np.ndarray | float:
    """Joint (s0, r) law: the Pearson VII joint under t_i = (1-||r_i||^2)^{-1/2} r_i.

    The substitution turns ||t_i||^2 into ||r_i||^2/(1-||r_i||^2) — in
    particular the h argument is NOT (1-||r_i||^2)||r_i||^2 — and brings the
    Jacobian prod (1-||r_i||^2)^{-(n_i/2+1)}.
    """
    sq_t, log_jac, inside, _ = _ball_inverse(p._blocks(vector=True), r)
    return _gengamma_pearson7_at(p, s0, sq_t, log_jac, inside)


def _unit_forward(f: np.ndarray) -> np.ndarray:
    """b = f / (1 + f) in f's own array, 1 + f formed a column at a time in
    one row-length buffer; f = +inf goes to its limit 1."""
    rows = np.atleast_2d(f)  # a view: the updates below land in f
    den = np.empty(rows.shape[0])
    for j in range(rows.shape[1]):
        col = rows[:, j]
        with np.errstate(invalid="ignore"):  # inf / inf, set to 1 below
            np.divide(col, np.add(col, 1.0, out=den), out=col)
        col[den == np.inf] = 1.0
    return f


def _unit_inverse(b, k: int):
    """f_i = b_i/(1-b_i), log f, the log-Jacobian and the mask of (0,1)^k,
    one column at a time; masked-out points take a finite stand-in."""
    b = _vector(b, "b", k)
    # block-major f, log f and 1 - b, then log(1 - b) in its place
    f, log_f, one_m = (np.empty(b.shape, order="F") for _ in range(3))
    ok = True
    for j in range(k):  # True & ok_1 & ..., as _all_last
        bj, ok_j = b[..., j], (b[..., j] > 0.0) & (b[..., j] < 1.0)
        if not ok_j.all():
            bj = np.where(ok_j, bj, 0.5)
        col = np.subtract(1.0, bj, out=one_m[..., j])  # a 0-d view for one point
        np.divide(bj, col, out=f[..., j])
        np.subtract(np.log(bj), np.log(col, out=col), out=log_f[..., j])
        ok &= ok_j
    return f, log_f, -2.0 * _sum_last(one_m), ok


def _gengamma_beta2_at(p: JointScaleParams, s0, f, log_f, log_jac, inside):
    """gengamma-beta2 log density at s0 and f (log_f = log f), plus
    log_jac; -inf outside `inside`."""
    log_const = _gengamma_log_const(p.alpha_star, p.shapes, p.sigma2s)
    extra = _sum_last(log_f, np.asarray(p.alphas) - 1.0) + log_jac
    return _joint_out(p, s0, log_const, f, extra, inside)


@_split_rows
def logpdf_gengamma_beta1(p: JointScaleParams, s0, b) -> np.ndarray | float:
    """Joint (s0, b) law with beta-I-type blocks b_i in (0,1).

    Image of the beta II joint under f_i = b_i/(1-b_i), the per-block radial
    reduction b_i = ||r_i||^2 of the Pearson II joint; the h argument uses
    b_i/(1-b_i), not (1-b_i)b_i — the latter fails both the normalization
    and the pushforward checks.
    """
    return _gengamma_beta2_at(p, s0, *_unit_inverse(b, len(p._blocks(vector=False))))


@_split_rows
def logpdf_gengamma_beta2(p: JointScaleParams, s0, f) -> np.ndarray | float:
    """Joint (s0, f) law with beta-II-type blocks f_i > 0."""
    f = _vector(f, "f", len(p._blocks(vector=False)))
    # the density vanishes at f_i = +inf: h decays faster than f_i^(alpha_i-1) grows
    ok = (f > 0.0) & (f < np.inf)
    f = np.where(ok, f, 1.0)
    return _gengamma_beta2_at(p, s0, f, np.log(f), 0.0, _all_last(ok))


# ---------------------------------------------------------------------------
# Scalar-block families (aggregate squares and their ratios)


def _gengamma_log_const(total: float, shapes: np.ndarray, sigma2) -> float:
    """log of pi^total / prod_i sigma_i^{2 alpha_i} Gamma(alpha_i), the alpha_i
    being shapes and total their sum as the law's params add it."""
    return float(
        total * _LOG_PI
        - np.sum(shapes * np.log(sigma2) + [gammaln(a) for a in shapes.tolist()])
    )


def _mv_gengamma_at(spec: GeneratorSpec, total: float, alphas: np.ndarray, sigma2, u, log_u):
    """mv-gengamma log density at u (log_u = log u), shapes alphas summing to
    total, scales sigma2."""
    return (
        _gengamma_log_const(total, alphas, sigma2)
        + _sum_last(log_u, alphas - 1.0)
        + log_h(spec, _sum_last(u, sigma2, np.divide), 2.0 * total)
    )


@_split_rows
def logpdf_mv_gengamma(p: ScaleShapeParams, spec: GeneratorSpec, u) -> np.ndarray | float:
    """Joint law of the block squared norms u_i; h at effective dimension 2*sum(alpha)."""
    u = _positive_vector(u, "u", p.k)
    return _result(_mv_gengamma_at(spec, p.total_shape, np.asarray(p.shapes), p.scales, u, np.log(u)))


@dataclass(frozen=True)
class BetaParams:
    """Shapes (alpha_0 and alpha_1..k) plus scale ratios beta_i for the beta families."""

    shape: ExtendedShape
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        betas = _positive("betas", self.betas)
        if len(betas) != self.shape.k:
            raise DimensionMismatch(f"{self.shape.k} shapes vs {len(betas)} betas")
        object.__setattr__(self, "betas", betas)

    @property
    def k(self) -> int:
        return self.shape.k


def _mv_beta2_at(p: BetaParams, f, log_f):
    """mv-beta2 log density at f (log_f = log f)."""
    alphas = np.asarray(p.shape.alphas)
    log_dk = float(
        np.sum([gammaln(a) for a in p.shape.alphas])
        + gammaln(p.shape.alpha0)
        - gammaln(p.shape.alpha_star)
    )
    log_const = float(-np.sum(alphas * np.log(p.betas))) - log_dk
    return (
        log_const
        + _sum_last(log_f, alphas - 1.0)
        - p.shape.alpha_star * _log1p_scaled_sum(f, log_f, p.betas)
    )


def _log1p_scaled_sum(f, log_f, betas: tuple[float, ...]):
    """log1p(sum_i f_i / beta_i).  Where that sum overflows, it is the
    log-sum-exp of log f_i - log beta_i: the 1 is then far below an ulp."""
    scaled = _sum_last(f, betas, np.divide)
    big = scaled == np.inf
    if not big.any():
        return np.log1p(scaled)
    terms = log_f - np.log(betas)
    top = np.max(terms, axis=-1)
    lse = top + np.log(_sum_last(np.exp(terms - top[..., None])))
    return np.where(big, lse, np.log1p(scaled))


@_split_rows
def logpdf_mv_beta1(p: BetaParams, b) -> np.ndarray | float:
    """Multivariate beta I on (0,1)^k.

    Image of logpdf_mv_beta2 under f_i = b_i/(1-b_i).  Expanded, the (1-b_i)
    exponent is alpha0 + sum_{j != i} alpha_j - 1; dropping the alpha0 term,
    which comes from the beta II law's alpha* power, breaks normalization.
    """
    f, log_f, log_jac, inside = _unit_inverse(b, p.k)
    return _result(np.where(inside, _mv_beta2_at(p, f, log_f) + log_jac, -np.inf))


@_split_rows
def logpdf_mv_beta2(p: BetaParams, f) -> np.ndarray | float:
    """Multivariate beta II (F-type) density on the positive orthant."""
    f = _positive_vector(f, "f", p.k)
    return _result(_mv_beta2_at(p, f, np.log(f)))


@dataclass(frozen=True)
class GammaLogGammaParams:
    """k1 gamma-type blocks (alphas, sigma2s) and k2 log-gamma blocks (rhos, delta2s)."""

    spec: GeneratorSpec
    alphas: tuple[float, ...] = ()
    sigma2s: tuple[float, ...] = ()
    rhos: tuple[float, ...] = ()
    delta2s: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in ("alphas", "sigma2s", "rhos", "delta2s"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        if len(self.alphas) != len(self.sigma2s):
            raise DimensionMismatch("alphas and sigma2s must pair up")
        if len(self.rhos) != len(self.delta2s):
            raise DimensionMismatch("rhos and delta2s must pair up")
        if not self.alphas and not self.rhos:
            raise DimensionMismatch("need at least one block")
        log_norm_const(self.spec, 2.0 * self.total_shape)

    @property
    def k1(self) -> int:
        return len(self.alphas)

    @property
    def k2(self) -> int:
        return len(self.rhos)

    @functools.cached_property
    def total_shape(self) -> float:
        """sum(alphas + rhos), as numpy adds them: the law's one shape total."""
        return float(np.sum(self.alphas + self.rhos))


@_split_rows
def logpdf_gamma_loggamma(p: GammaLogGammaParams, u=None, y=None) -> np.ndarray | float:
    """Joint law of gamma-type blocks u_i > 0 and log-gamma blocks y_j in R.

    Image of logpdf_mv_gengamma (shapes alphas + rhos, scales sigma2s +
    delta2s) under u_j = exp(y_j) on the last k2 blocks.  With k2 = 0 this
    is exactly logpdf_mv_gengamma; with k1 = 0 it is the multivariate
    log-gamma law of y_j = log u_j.
    """
    u = _positive_vector(() if u is None else u, "u", p.k1) if p.k1 else np.zeros((0,))
    y = _vector(() if y is None else y, "y", p.k2)
    if not np.all(np.isfinite(y)):
        raise ParameterOutOfDomain("y must be finite")
    with np.errstate(over="ignore"):  # exp(y) overflows to +inf, where h is zero
        all_u = _join(u, np.exp(y))
    alphas, sigma2 = np.asarray(p.alphas + p.rhos), np.asarray(p.sigma2s + p.delta2s)
    out = _mv_gengamma_at(p.spec, p.total_shape, alphas, sigma2, all_u, _join(np.log(u), y))
    with np.errstate(over="ignore"):  # y_j near -1.8e308: the log density is -inf
        return _result(out + _sum_last(y))
