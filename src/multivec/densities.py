"""Log densities for the multivector and derived multivariate families.

Conventions shared by every function here:

- All values are log densities; -inf encodes zero density outside a
  bounded or half-line support whenever the support restriction comes from
  the distribution itself (unit balls, the (0,1) cube, the s0 > 0
  half-line).  Operations whose contract declares the argument positive up
  front (log-elliptical v, generalized-gamma u, beta II f, the gamma block
  of the gamma/log-gamma family) raise NonPositiveInput instead.
- Inputs may be batched: the trailing axis is the coordinate axis, leading
  axes broadcast, and plain vector (1-d) calls return float.
- The generator h is always normalized at the family's effective
  dimension: the total vector dimension for the block-vector families and
  2 * (sum of every shape parameter, alpha_0 included where present) for
  the scalar-block families.  That choice is the one under which the
  normalizing constants integrate to one, and the validation suite pins it.

Where commonly printed forms of these densities fail to integrate to one,
the exponents here are re-derived from the block map
t_i = (1 - ||r_i||^2)^{-1/2} r_i (Jacobian (1 - ||r_i||^2)^{-(n_i/2+1)}
per block) and the Dirichlet integral.  Every corrected exponent is pinned
by a quadrature test and, where a sampler exists, a goodness-of-fit test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import ExtendedShape, MvEllipticalParams, ScaleShapeParams, block_quadform
from .errors import DimensionMismatch, NonPositiveInput, ParameterOutOfDomain
from .generators import GeneratorSpec, log_h, log_norm_const

__all__ = [
    "MixedParams",
    "MvTParams",
    "BetaParams",
    "JointScaleParams",
    "GammaLogGammaParams",
    "logpdf_mv_elliptical",
    "logpdf_mv_log_elliptical",
    "logpdf_mixed_ell_logell",
    "logpdf_mv_t",
    "logpdf_mv_pearson2",
    "logpdf_gengamma_pearson7",
    "logpdf_gengamma_pearson2",
    "logpdf_mv_gengamma",
    "logpdf_mv_beta1",
    "logpdf_mv_beta2",
    "logpdf_gengamma_beta1",
    "logpdf_gengamma_beta2",
    "logpdf_gamma_loggamma",
]

_LOG_PI = math.log(math.pi)


def _scalarize(out, scalar: bool):
    if scalar:
        return float(np.asarray(out)[()])
    return np.asarray(out)


def _vector(x, name: str, k: int) -> tuple[np.ndarray, bool]:
    """x as a float array whose last axis has length k (a scalar counts as
    length 1), and whether the call was unbatched."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim <= 1
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != k:
        raise DimensionMismatch(f"{name} has length {x.shape[-1]}, expected {k}")
    return x, scalar


def _positive_vector(x, name: str, k: int) -> tuple[np.ndarray, bool]:
    x, scalar = _vector(x, name, k)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise NonPositiveInput(f"{name} must be strictly positive and finite")
    return x, scalar


def _sqnorms_by_dims(dims: tuple[int, ...], x, name: str) -> tuple[np.ndarray, bool]:
    """Per-block squared norms, shape (..., k); validates trailing length.

    A block with a NaN coordinate gets norm +inf: it lies nowhere in the
    space, and every density here is zero at infinity."""
    x, scalar = _vector(x, name, int(sum(dims)))
    if not dims:
        return np.zeros(x.shape[:-1] + (0,)), scalar
    parts = []
    off = 0
    for d in dims:
        blk = x[..., off:off + d]
        with np.errstate(over="ignore"):  # an overflowing norm is +inf, where f is zero
            parts.append(np.sum(blk * blk, axis=-1))
        off += d
    sq = np.stack(parts, axis=-1)
    return np.fmin(sq, np.inf, out=sq), scalar  # fmin maps NaN to +inf


# ---------------------------------------------------------------------------
# Block-vector families


def logpdf_mv_elliptical(p: MvEllipticalParams, spec: GeneratorSpec, x) -> np.ndarray | float:
    """Block elliptical density: -1/2 sum log|Sigma_ii| + log h(sum of quadforms).

    A non-finite quadratic form (from a non-finite coordinate, or overflow)
    counts as +inf, where h is zero: NaN comes from inf - inf in the solve.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim <= 1
    if x.ndim == 0:
        x = x.reshape(1)  # a scalar is a length-1 vector
    with np.errstate(invalid="ignore"):
        quad = block_quadform(p, x)
    quad = np.where(np.isfinite(quad), quad, np.inf)
    logdet = sum(ld for _, ld in p.factors)
    out = -0.5 * logdet + log_h(spec, quad, float(p.partition.total))
    return _scalarize(out, scalar)


def logpdf_mv_log_elliptical(p: MvEllipticalParams, spec: GeneratorSpec, v) -> np.ndarray | float:
    """Elementwise-log pushforward of the block elliptical law; Jacobian prod 1/v_i."""
    v, scalar = _positive_vector(v, "v", p.partition.total)
    logv = np.log(v)
    out = logpdf_mv_elliptical(p, spec, logv) - np.sum(logv, axis=-1)
    return _scalarize(out, scalar)


@dataclass(frozen=True)
class MixedParams:
    """Mixed linear/positive family: first k1 blocks enter linearly, the rest in logs."""

    base: MvEllipticalParams
    k1: int

    def __post_init__(self) -> None:
        if not 0 <= int(self.k1) <= self.base.partition.k:
            raise DimensionMismatch(
                f"k1 must lie in [0, {self.base.partition.k}], got {self.k1}"
            )
        object.__setattr__(self, "k1", int(self.k1))

    @property
    def k2(self) -> int:
        return self.base.partition.k - self.k1

    @property
    def n_linear(self) -> int:
        return int(sum(self.base.partition.dims[: self.k1]))

    @property
    def n_log(self) -> int:
        return self.base.partition.total - self.n_linear


def logpdf_mixed_ell_logell(p: MixedParams, spec: GeneratorSpec, x, v) -> np.ndarray | float:
    """Joint density of linear blocks x and positive blocks v under one shared h."""
    x, scalar_x = _vector(x, "x", p.n_linear)
    v, scalar_v = _positive_vector(v, "v", p.n_log)
    logv = np.log(v)
    batch = np.broadcast_shapes(x.shape[:-1], logv.shape[:-1])
    x_b = np.broadcast_to(x, batch + x.shape[-1:])
    logv_b = np.broadcast_to(logv, batch + logv.shape[-1:])
    full = np.concatenate([x_b, logv_b], axis=-1)
    out = logpdf_mv_elliptical(p.base, spec, full) - np.sum(logv_b, axis=-1)
    return _scalarize(out, scalar_x and scalar_v)


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
        dims = tuple(int(d) for d in self.dims)
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "betas", betas)
        if len(dims) != len(betas) or not dims:
            raise DimensionMismatch(f"{len(dims)} block dims vs {len(betas)} betas")
        if any(d < 1 for d in dims):
            raise DimensionMismatch(f"block dims must be >= 1, got {dims}")
        if any(not math.isfinite(b) or b <= 0 for b in betas):
            raise ParameterOutOfDomain(f"betas must be positive, got {betas}")
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ParameterOutOfDomain(f"alpha0 must be positive, got {self.alpha0}")
        object.__setattr__(self, "alpha0", float(self.alpha0))

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return int(sum(self.dims))

    @property
    def alpha_star(self) -> float:
        return self.alpha0 + self.total / 2.0


def _mv_t_log_const(p: MvTParams) -> float:
    half_dims = np.asarray(p.dims, dtype=float) / 2.0
    return float(
        special.gammaln(p.alpha_star)
        - special.gammaln(p.alpha0)
        - np.sum(half_dims * np.log(p.betas))
        - np.sum(half_dims) * _LOG_PI
    )


def logpdf_mv_t(p: MvTParams, t) -> np.ndarray | float:
    """Multivector t density on the full space.

    The pi exponent is sum_i n_i/2, the dimension actually integrated over
    — with the larger exponent n*/2 the function does not integrate to one.
    """
    sq, scalar = _sqnorms_by_dims(p.dims, t, "t")
    bracket = np.sum(sq / np.asarray(p.betas), axis=-1)
    out = _mv_t_log_const(p) - p.alpha_star * np.log1p(bracket)
    return _scalarize(out, scalar)


def logpdf_mv_pearson2(p: MvTParams, r) -> np.ndarray | float:
    """Multivector Pearson II density on the product of open unit balls.

    Image of logpdf_mv_t under r_i = t_i/sqrt(1+||t_i||^2) per block, with
    Jacobian prod (1-||r_i||^2)^{-(n_i/2+1)}.  The (1-||r_i||^2) exponent is
    alpha0 + sum_{j != i} n_j/2 - 1 (equivalently alpha* - n_i/2 - 1); the
    alpha0 contribution is required for the density to integrate to one.
    """
    sq, scalar = _sqnorms_by_dims(p.dims, r, "r")
    inside = np.all(sq < 1.0, axis=-1)
    sq_safe = np.where(sq < 1.0, sq, 0.5)
    one_m = 1.0 - sq_safe
    log_one_m = np.log(one_m)
    half_dims = np.asarray(p.dims, dtype=float) / 2.0
    a_star = p.alpha_star
    ratio = np.sum(sq_safe / (one_m * np.asarray(p.betas)), axis=-1)
    log_bracket = np.sum(log_one_m, axis=-1) + np.log1p(ratio)
    out = (
        _mv_t_log_const(p)
        + np.sum((a_star - half_dims - 1.0) * log_one_m, axis=-1)
        - a_star * log_bracket
    )
    out = np.where(inside, out, -np.inf)
    return _scalarize(out, scalar)


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
        sigma2s = tuple(float(s) for s in self.sigma2s)
        object.__setattr__(self, "sigma2s", sigma2s)
        if self.dims is not None:
            dims = tuple(int(d) for d in self.dims)
            object.__setattr__(self, "dims", dims)
            if any(d < 1 for d in dims):
                raise DimensionMismatch(f"block dims must be >= 1, got {dims}")
            k = len(dims)
        else:
            alphas = tuple(float(a) for a in self.alphas)
            object.__setattr__(self, "alphas", alphas)
            if any(not math.isfinite(a) or a <= 0 for a in alphas):
                raise ParameterOutOfDomain(f"alphas must be positive, got {alphas}")
            k = len(alphas)
        if len(sigma2s) != k + 1:
            raise DimensionMismatch(
                f"need {k + 1} sigma^2 values (sigma_0^2 first), got {len(sigma2s)}"
            )
        if any(not math.isfinite(s) or s <= 0 for s in sigma2s):
            raise ParameterOutOfDomain(f"sigma^2 must be positive, got {sigma2s}")
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ParameterOutOfDomain(f"alpha0 must be positive, got {self.alpha0}")
        object.__setattr__(self, "alpha0", float(self.alpha0))
        # fail fast if the generator is invalid at the effective dimension
        log_norm_const(self.spec, 2.0 * self.alpha_star)

    @property
    def k(self) -> int:
        return len(self.dims) if self.dims is not None else len(self.alphas)

    @property
    def block_shapes(self) -> np.ndarray:
        if self.dims is not None:
            return np.asarray(self.dims, dtype=float) / 2.0
        return np.asarray(self.alphas, dtype=float)

    @property
    def alpha_star(self) -> float:
        return self.alpha0 + float(np.sum(self.block_shapes))

    @property
    def betas(self) -> np.ndarray:
        """Variance ratios sigma_i^2/sigma_0^2 of the marginalized block law."""
        s2 = np.asarray(self.sigma2s)
        return s2[1:] / s2[0]


def _joint_vector_log_const(p: JointScaleParams) -> float:
    # pi^{alpha0} / (Gamma(alpha0) sigma0^{2 alpha0} prod sigma_i^{n_i})
    shapes = p.block_shapes
    return float(
        p.alpha0 * _LOG_PI
        - special.gammaln(p.alpha0)
        - p.alpha0 * math.log(p.sigma2s[0])
        - np.sum(shapes * np.log(p.sigma2s[1:]))
    )


def _joint_scalar_log_const(p: JointScaleParams) -> float:
    # pi^{alpha*} / prod_{i=0..k} sigma_i^{2 alpha_i} Gamma(alpha_i)
    shapes = np.concatenate([[p.alpha0], p.block_shapes])
    sigma2 = np.asarray(p.sigma2s)
    return float(
        p.alpha_star * _LOG_PI
        - np.sum(shapes * np.log(sigma2) + special.gammaln(shapes))
    )


def _joint_out(p: JointScaleParams, s0, log_const, extra, rate, inside, scalar_blocks):
    """Assemble log_const + (a*-1) log s0 + extra + log h(rate*s0), guarding s0 <= 0."""
    s0 = np.asarray(s0, dtype=float)
    scalar = s0.ndim == 0 and scalar_blocks
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
    out = np.where(ok, out, -np.inf)
    return _scalarize(out, scalar)


def logpdf_gengamma_pearson7(p: JointScaleParams, s0, t) -> np.ndarray | float:
    """Joint law of s0 = ||x_0||^2 and the divided blocks t_i = x_i/||x_0||."""
    if p.dims is None:
        raise DimensionMismatch("vector joint needs integer block dims")
    sq, scalar_blocks = _sqnorms_by_dims(p.dims, t, "t")
    sigma2 = np.asarray(p.sigma2s)
    rate = 1.0 / sigma2[0] + np.sum(sq / sigma2[1:], axis=-1)
    inside = np.ones(np.shape(rate), dtype=bool)
    return _joint_out(p, s0, _joint_vector_log_const(p), 0.0, rate, inside, scalar_blocks)


def logpdf_gengamma_pearson2(p: JointScaleParams, s0, r) -> np.ndarray | float:
    """Joint (s0, r) law: the Pearson VII joint under t_i = (1-||r_i||^2)^{-1/2} r_i.

    The substitution turns ||t_i||^2 into ||r_i||^2/(1-||r_i||^2) — in
    particular the h argument is NOT (1-||r_i||^2)||r_i||^2 — and brings the
    Jacobian prod (1-||r_i||^2)^{-(n_i/2+1)}.
    """
    if p.dims is None:
        raise DimensionMismatch("vector joint needs integer block dims")
    sq, scalar_blocks = _sqnorms_by_dims(p.dims, r, "r")
    inside = np.all(sq < 1.0, axis=-1)
    sq_safe = np.where(sq < 1.0, sq, 0.5)
    one_m = 1.0 - sq_safe
    sigma2 = np.asarray(p.sigma2s)
    rate = 1.0 / sigma2[0] + np.sum(sq_safe / (one_m * sigma2[1:]), axis=-1)
    half_dims = np.asarray(p.dims, dtype=float) / 2.0
    extra = -np.sum((half_dims + 1.0) * np.log(one_m), axis=-1)
    return _joint_out(p, s0, _joint_vector_log_const(p), extra, rate, inside, scalar_blocks)


def logpdf_gengamma_beta1(p: JointScaleParams, s0, b) -> np.ndarray | float:
    """Joint (s0, b) law with beta-I-type blocks b_i in (0,1).

    Obtained from the Pearson II joint by the per-block radial reduction
    b_i = ||r_i||^2; the h argument uses b_i/(1-b_i), not (1-b_i)b_i — the
    latter fails both the normalization and the pushforward checks.
    """
    if p.alphas is None:
        raise DimensionMismatch("scalar joint needs real alphas")
    b, scalar_blocks = _vector(b, "b", p.k)
    inside = np.all((b > 0.0) & (b < 1.0), axis=-1)
    b_safe = np.where((b > 0.0) & (b < 1.0), b, 0.5)
    one_m = 1.0 - b_safe
    alphas = np.asarray(p.alphas)
    sigma2 = np.asarray(p.sigma2s)
    rate = 1.0 / sigma2[0] + np.sum(b_safe / (one_m * sigma2[1:]), axis=-1)
    extra = np.sum((alphas - 1.0) * np.log(b_safe) - (alphas + 1.0) * np.log(one_m), axis=-1)
    return _joint_out(p, s0, _joint_scalar_log_const(p), extra, rate, inside, scalar_blocks)


def logpdf_gengamma_beta2(p: JointScaleParams, s0, f) -> np.ndarray | float:
    """Joint (s0, f) law with beta-II-type blocks f_i > 0."""
    if p.alphas is None:
        raise DimensionMismatch("scalar joint needs real alphas")
    f, scalar_blocks = _vector(f, "f", p.k)
    # the density vanishes at f_i = +inf: h decays faster than f_i^(alpha_i-1) grows
    ok = (f > 0.0) & (f < np.inf)
    inside = np.all(ok, axis=-1)
    f_safe = np.where(ok, f, 1.0)
    alphas = np.asarray(p.alphas)
    sigma2 = np.asarray(p.sigma2s)
    rate = 1.0 / sigma2[0] + np.sum(f_safe / sigma2[1:], axis=-1)
    extra = np.sum((alphas - 1.0) * np.log(f_safe), axis=-1)
    return _joint_out(p, s0, _joint_scalar_log_const(p), extra, rate, inside, scalar_blocks)


# ---------------------------------------------------------------------------
# Scalar-block families (aggregate squares and their ratios)


def logpdf_mv_gengamma(p: ScaleShapeParams, spec: GeneratorSpec, u) -> np.ndarray | float:
    """Joint law of the block squared norms u_i; h at effective dimension 2*sum(alpha)."""
    u, scalar = _positive_vector(u, "u", p.k)
    alphas = np.asarray(p.shapes)
    sigma2 = np.asarray(p.scales)
    n_eff = 2.0 * float(np.sum(alphas))
    const = float(
        np.sum(alphas) * _LOG_PI
        - np.sum(alphas * np.log(sigma2) + special.gammaln(alphas))
    )
    out = (
        const
        + np.sum((alphas - 1.0) * np.log(u), axis=-1)
        + log_h(spec, np.sum(u / sigma2, axis=-1), n_eff)
    )
    return _scalarize(out, scalar)


@dataclass(frozen=True)
class BetaParams:
    """Shapes (alpha_0 and alpha_1..k) plus scale ratios beta_i for the beta families."""

    shape: ExtendedShape
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.shape.alpha0 is None:
            raise ParameterOutOfDomain("beta families need alpha0")
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "betas", betas)
        if len(betas) != self.shape.k:
            raise DimensionMismatch(f"{self.shape.k} shapes vs {len(betas)} betas")
        if any(not math.isfinite(b) or b <= 0 for b in betas):
            raise ParameterOutOfDomain(f"betas must be positive, got {betas}")

    @property
    def k(self) -> int:
        return self.shape.k


def _beta_log_const(p: BetaParams) -> float:
    alphas = np.asarray(p.shape.alphas)
    log_dk = float(
        np.sum(special.gammaln(alphas))
        + special.gammaln(p.shape.alpha0)
        - special.gammaln(p.shape.alpha_star)
    )
    return float(-np.sum(alphas * np.log(p.betas))) - log_dk


def logpdf_mv_beta1(p: BetaParams, b) -> np.ndarray | float:
    """Multivariate beta I on (0,1)^k.

    The (1-b_i) exponent is alpha0 + sum_{j != i} alpha_j - 1; dropping the
    alpha0 term breaks normalization.  Implemented in the equivalent stable
    form with exponent -(alpha_i+1) and log1p of sum b_i/(beta_i(1-b_i)).
    """
    b, scalar = _vector(b, "b", p.k)
    inside = np.all((b > 0.0) & (b < 1.0), axis=-1)
    b_safe = np.where((b > 0.0) & (b < 1.0), b, 0.5)
    alphas = np.asarray(p.shape.alphas)
    betas = np.asarray(p.betas)
    one_m = 1.0 - b_safe
    s = np.sum(b_safe / (one_m * betas), axis=-1)
    out = (
        _beta_log_const(p)
        + np.sum((alphas - 1.0) * np.log(b_safe), axis=-1)
        - np.sum((alphas + 1.0) * np.log(one_m), axis=-1)
        - p.shape.alpha_star * np.log1p(s)
    )
    out = np.where(inside, out, -np.inf)
    return _scalarize(out, scalar)


def logpdf_mv_beta2(p: BetaParams, f) -> np.ndarray | float:
    """Multivariate beta II (F-type) density on the positive orthant."""
    f, scalar = _positive_vector(f, "f", p.k)
    alphas = np.asarray(p.shape.alphas)
    betas = np.asarray(p.betas)
    out = (
        _beta_log_const(p)
        + np.sum((alphas - 1.0) * np.log(f), axis=-1)
        - p.shape.alpha_star * np.log1p(np.sum(f / betas, axis=-1))
    )
    return _scalarize(out, scalar)


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
            vals = tuple(float(v) for v in getattr(self, name))
            if any(not math.isfinite(v) or v <= 0 for v in vals):
                raise ParameterOutOfDomain(f"{name} must be positive, got {vals}")
            object.__setattr__(self, name, vals)
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

    @property
    def total_shape(self) -> float:
        return float(sum(self.alphas) + sum(self.rhos))


def logpdf_gamma_loggamma(p: GammaLogGammaParams, u=None, y=None) -> np.ndarray | float:
    """Joint law of gamma-type blocks u_i > 0 and log-gamma blocks y_j in R.

    With k2 = 0 this is exactly logpdf_mv_gengamma; with k1 = 0 it is the
    multivariate log-gamma law of y_j = log u_j.
    """
    if p.k1:
        u, scalar_u = _positive_vector(() if u is None else u, "u", p.k1)
    else:
        u, scalar_u = np.zeros((0,)), True
    y, scalar_y = _vector(() if y is None else y, "y", p.k2)
    if not np.all(np.isfinite(y)):
        raise ParameterOutOfDomain("y must be finite")
    alphas = np.asarray(p.alphas)
    rhos = np.asarray(p.rhos)
    sigma2 = np.asarray(p.sigma2s)
    delta2 = np.asarray(p.delta2s)
    const = float(
        p.total_shape * _LOG_PI
        - np.sum(alphas * np.log(sigma2) + special.gammaln(alphas))
        - np.sum(rhos * np.log(delta2) + special.gammaln(rhos))
    )
    batch = np.broadcast_shapes(u.shape[:-1], y.shape[:-1])
    arg = np.zeros(batch)
    terms = np.full(batch, const)
    if p.k1:
        arg = arg + np.sum(u / sigma2, axis=-1)
        terms = terms + np.sum((alphas - 1.0) * np.log(u), axis=-1)
    if p.k2:
        # exp may overflow for extreme y; h(inf) = -inf is the right limit
        with np.errstate(over="ignore"):
            arg = arg + np.sum(np.exp(y) / delta2, axis=-1)
        terms = terms + np.sum(rhos * y, axis=-1)
    out = terms + log_h(p.spec, arg, 2.0 * p.total_shape)
    return _scalarize(out, scalar_u and scalar_y)
