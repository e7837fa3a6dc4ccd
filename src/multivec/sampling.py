"""Seeded samplers for every family, via radial/angular decomposition.

RNG policy
----------
All randomness flows through numpy's Generator seeded with PCG64 (a
permuted-congruential generator with published constants): identical seed
means identical stream on every platform.  Gaussian variates come from the
generator's ziggurat method — an exact, published inversion-free scheme fed
solely by the named bit generator, used here in place of a textbook
Box-Muller for speed; no global or platform RNG is ever touched.  For
parallel use, split streams with `spawn_rngs(seed, count)`, which derives
child seeds through numpy's SeedSequence spawning (deterministic and
collision-free); never share one Generator across threads.

Sampler structure
-----------------
Spherical draws factor into an independent radius and direction.  The
radius is an exact transformation of gamma or beta variates for every
kernel: Kotz, Pearson VII, Pearson II, and Bessel, whose radius is
2 r sqrt(G1 G2) for two independent gammas (the K-distribution).  No
sampler tabulates or inverts a CDF numerically.  Every derived family is
the deterministic image of its parent sampler, so goodness-of-fit tests on
the images validate the corrected densities end to end.

All samplers take an optional `size`: None returns one draw with the
family's natural shape; a whole number returns an array with a leading
sample axis.  Joint (s0, blocks) samplers put s0 in column 0.

Every transform writes into the arrays its RNG calls returned
(``out=``), so a call of m draws holds little more than its output: a
factor that varies by row and column is formed a column at a time in one
row-length buffer, not as a full-size product.  Each element still sees
the same operations in the same order, so the draws keep their bits; only
the two factors of a product or the two terms of a sum may trade places,
which is exact.
"""

from __future__ import annotations

import operator

import numpy as np

from . import _EXPORTS
from .core import MvEllipticalParams, ScaleShapeParams, _sum_sq_last
from .densities import (
    BetaParams,
    GammaLogGammaParams,
    JointScaleParams,
    MixedParams,
    MvTParams,
)
from .errors import DimensionMismatch, ParameterOutOfDomain
from .generators import (
    GeneratorSpec,
    Kotz,
    PearsonII,
    PearsonVII,
    RadialLaw,
)

__all__ = list(_EXPORTS["sampling"])


def _seeded(make, seed):
    """make(seed), with a seed numpy refuses raised as ParameterOutOfDomain."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ParameterOutOfDomain(f"seed must be >= 0, got {seed}")
    try:
        return make(seed)
    except (TypeError, ValueError):
        raise ParameterOutOfDomain(
            f"seed must be None, an integer >= 0 or a sequence of them, got {seed!r}"
        ) from None


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Seeded PCG64 generator; equal seed gives an identical stream everywhere.

    None and sequences of non-negative integers pass through to numpy; a
    negative seed, or one that is not an integer or a sequence of them,
    raises ParameterOutOfDomain."""
    return _seeded(np.random.default_rng, seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Deterministically split one seed into independent child generators."""
    children = _seeded(np.random.SeedSequence, seed).spawn(_whole(count, "count"))
    return [np.random.default_rng(s) for s in children]


def _whole(value, name: str, least: int = 0) -> int:
    """value as an int >= least: integers and integral floats pass; a
    fraction, NaN, infinity or non-number raises ParameterOutOfDomain."""
    try:
        whole = operator.index(value)
    except TypeError:
        try:
            x = float(value)
        except (TypeError, ValueError):
            x = float("nan")
        if not x.is_integer():
            raise ParameterOutOfDomain(f"{name} must be a whole number, got {value!r}") from None
        whole = int(x)
    if whole < least:
        raise ParameterOutOfDomain(f"{name} must be >= {least}, got {value}")
    return whole


def _n_draws(size: int | None) -> int:
    return 1 if size is None else _whole(size, "size")


def _squeeze(out: np.ndarray, size: int | None) -> np.ndarray:
    return out[0] if size is None else out


def _sqrt_sq_norms(z: np.ndarray) -> np.ndarray:
    """np.linalg.norm(z, axis=-1), bit for bit, in a fresh row-length array."""
    norms = _sum_sq_last(z)
    return np.sqrt(norms, out=norms)


def _onto_unit_sphere(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """z's (m, n) standard normal draws, each row divided by its norm in z:
    m rotationally uniform points on the unit sphere in R^n."""
    norms = _sqrt_sq_norms(z)
    # a draw of exactly 0 has probability 0, but never divide by it
    while not norms.all():
        redo = norms == 0.0
        z[redo] = rng.standard_normal((int(np.sum(redo)), z.shape[1]))
        norms = _sqrt_sq_norms(z)
    return np.divide(z, norms[:, None], out=z)


def sample_unit_sphere(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Rotationally uniform points on the unit sphere in R^n."""
    n = _whole(n, "n", least=1)
    return _squeeze(_onto_unit_sphere(rng.standard_normal((_n_draws(size), n)), rng), size)


# ---------------------------------------------------------------------------
# Radius sampling


def sample_radius(
    law: RadialLaw, rng: np.random.Generator, size: int | None = None
) -> np.ndarray | float:
    """Draw of ||x|| for a spherical vector with the law's generator and dimension.

    Every kernel has an exact transformation path: a gamma power (Kotz), a
    gamma ratio (Pearson VII), a beta root (Pearson II) or a gamma product
    (Bessel).
    """
    spec, n = law.spec, law.n
    m = _n_draws(size)
    if isinstance(spec, Kotz):
        shape = (2.0 * spec.q + n - 2.0) / (2.0 * spec.s)
        r = rng.gamma(shape, 1.0, size=m)
        r /= spec.r
        r **= 1.0 / (2.0 * spec.s)  # the fast paths of y ** e too (np.sqrt at e = 0.5)
    elif isinstance(spec, PearsonVII):
        r = rng.gamma(n / 2.0, 1.0, size=m)
        g2 = rng.gamma(spec.q - n / 2.0, 1.0, size=m)
        r *= spec.r
        r /= g2
        np.sqrt(r, out=r)
    elif isinstance(spec, PearsonII):
        r = rng.beta(n / 2.0, spec.q + 1.0, size=m)
        np.sqrt(r, out=r)
    else:  # Bessel: the K-distribution, a product of two gammas (see Bessel)
        r = rng.gamma((n + 1.0 + spec.q) / 2.0, 1.0, size=m)
        g2 = rng.gamma((n + 1.0 - spec.q) / 2.0, 1.0, size=m)
        r *= g2
        np.sqrt(r, out=r)
        r *= 2.0 * spec.r
    if size is None:
        return float(r[0])
    return r


def _spherical(spec: GeneratorSpec, n: int, rng: np.random.Generator, m: int) -> np.ndarray:
    """m spherical draws in R^n with density h(||x||^2) normalized at n."""
    r = sample_radius(RadialLaw(spec, float(n)), rng, size=m)
    u = sample_unit_sphere(n, rng, size=m)
    return np.multiply(u, r[:, None], out=u)


# ---------------------------------------------------------------------------
# Vector families


def sample_mv_elliptical(
    p: MvEllipticalParams, spec: GeneratorSpec, rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """x = mu + blockdiag(chol(Sigma_ii)) (r u) with spherical (r u) at dim n."""
    m = _n_draws(size)
    z = _spherical(spec, p.partition.total, rng, m)
    off = p.partition.offsets
    L = np.zeros((off[-1], off[-1]))
    for (c, _), lo, hi in zip(p.factors, off, off[1:]):
        L[lo:hi, lo:hi] = np.tril(c)
    out = z @ L.T
    out += np.concatenate(p.mus)
    return _squeeze(out, size)


def sample_mv_log_elliptical(
    p: MvEllipticalParams, spec: GeneratorSpec, rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    x = sample_mv_elliptical(p, spec, rng, size=size)
    return np.exp(x, out=x)


def sample_mixed_ell_logell(
    p: MixedParams, spec: GeneratorSpec, rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Columns 0..n_linear-1 are the linear blocks, the rest exponentiated."""
    x = sample_mv_elliptical(p.base, spec, rng, size=size)
    logs = x[..., p.n_linear:]
    np.exp(logs, out=logs)
    return x


def sample_mv_t(
    p: MvTParams, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """t_i = sqrt(beta_i) z_i / ||x_0||: Gaussian blocks over a chi-type divisor.

    The construction divides independent Gaussian blocks by the root of an
    independent 2*Gamma(alpha0) variate; any generator with the same finite
    scale-mixture structure produces the identical t law, so the Gaussian
    path is canonical.
    """
    m = _n_draws(size)
    v0 = rng.gamma(p.alpha0, 1.0, size=m)
    v0 *= 2.0
    z = rng.standard_normal((m, p.total))
    scale = np.repeat(np.sqrt(np.asarray(p.betas)), p.dims)
    z *= scale
    z /= np.sqrt(v0, out=v0)[:, None]
    return _squeeze(z, size)


def _t_to_pearson2(t: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """r_i = t_i / sqrt(1 + ||t_i||^2), block by block in t's own array and
    one row-length buffer.

    A block whose squared norm is NaN gets +inf there, as the densities'
    _sqnorms_by_dims gives it."""
    rows = np.atleast_2d(t)  # a view: the updates below land in t
    den = np.empty(rows.shape[0])
    off = 0
    with np.errstate(over="ignore"):  # an overflowing norm is +inf
        for d in dims:
            blk = rows[:, off:off + d]
            _sum_sq_last(blk, out=den)
            np.fmin(den, np.inf, out=den)
            den += 1.0
            blk /= np.sqrt(den, out=den)[:, None]
            off += d
    return t


def sample_mv_pearson2(
    p: MvTParams, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Deterministic image r_i = t_i / sqrt(1 + ||t_i||^2) of the t sampler."""
    t = sample_mv_t(p, rng, size=size)
    return _t_to_pearson2(t, p.dims)


# ---------------------------------------------------------------------------
# Joint (s0, blocks) families


def sample_gengamma_pearson7(
    p: JointScaleParams, rng: np.random.Generator, size: int | None = None
) -> tuple[np.ndarray | float, np.ndarray]:
    """(s0, t) pair: radial-Dirichlet split of one spherical vector at dim 2a*.

    W = R^2 splits as W*D over blocks (Dirichlet with the block shapes);
    s0 = sigma_0^2 W D_0 and t_i = sqrt(beta_i D_i / D_0) u_i with u_i
    uniform on the block sphere.
    """
    if p.dims is None:
        raise DimensionMismatch("vector joint needs integer block dims")
    m = _n_draws(size)
    shapes = np.concatenate([[p.alpha0], p.block_shapes])
    d = rng.dirichlet(shapes, size=m)
    r = sample_radius(RadialLaw(p.spec, 2.0 * p.alpha_star), rng, size=m)
    s0 = np.multiply(r, r, out=r)  # W, then sigma_0^2 W D_0
    s0 *= p.sigma2s[0]
    s0 *= d[:, 0]
    t = np.empty((m, sum(p.dims)))
    off = 0
    for i, n_i in enumerate(p.dims):
        # one block fills t: its sphere points are drawn in t itself
        z = rng.standard_normal(out=t) if len(p.dims) == 1 else rng.standard_normal((m, n_i))
        u = _onto_unit_sphere(z, rng)
        norm = d[:, i + 1]  # sqrt(beta_i D_i / D_0), written over D_i
        norm *= p.betas[i]
        norm /= d[:, 0]
        np.sqrt(norm, out=norm)
        np.multiply(u, norm[:, None], out=t[:, off:off + n_i])
        off += n_i
    if size is None:
        return float(s0[0]), t[0]
    return s0, t


def sample_gengamma_pearson2(
    p: JointScaleParams, rng: np.random.Generator, size: int | None = None
) -> tuple[np.ndarray | float, np.ndarray]:
    """(s0, r) pair with r the per-block Pearson II image of the joint t."""
    s0, t = sample_gengamma_pearson7(p, rng, size=size)
    return s0, _t_to_pearson2(t, p.dims)


# ---------------------------------------------------------------------------
# Scalar families


def _gengamma_draws(
    alphas: np.ndarray, scales: np.ndarray, spec: GeneratorSpec, rng: np.random.Generator,
    m: int,
) -> np.ndarray:
    """m rows u_ij = sigma_j^2 W_i D_ij of the mv-gengamma law whose k
    (shape, scale) pairs the float arrays alphas and scales hold.

    Each entry is D_ij times sigma_j^2 W_i.  With at least as many rows as
    columns, a column at a time takes sigma_j^2 W in one row-length buffer;
    with more columns (the pair sampler's one row), one broadcast product
    does.  One block has D = 1, so its rows are sigma^2 W, in W's array."""
    r = sample_radius(RadialLaw(spec, 2.0 * float(np.sum(alphas))), rng, size=m)
    w = np.multiply(r, r, out=r)
    k = len(alphas)
    if k == 1:
        return np.multiply(w, scales[0], out=w)[:, None]
    d = rng.dirichlet(alphas, size=m)
    if k > m:
        d *= scales * w[:, None]
        return d
    buf = np.empty(m)
    for j in range(k):
        d[:, j] *= np.multiply(scales[j], w, out=buf)
    return d


def sample_mv_gengamma(
    p: ScaleShapeParams, spec: GeneratorSpec, rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """u_i = sigma_i^2 W D_i: Dirichlet split of the squared radius at dim 2*sum(alpha)."""
    m = _n_draws(size)
    u = _gengamma_draws(np.asarray(p.shapes, dtype=float), np.asarray(p.scales), spec, rng, m)
    return _squeeze(u, size)


def sample_gengamma_pairs(
    p: ScaleShapeParams, spec: GeneratorSpec, rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """m pairs (u_j, v_j) that are ONE draw of the 2m-block law of
    ``sample_mv_gengamma``, with p's two (shape, scale) pairs repeated per
    column: the dependence structure the paired fit maximizes."""
    if p.k != 2:
        raise DimensionMismatch("kotz-gamma sampling emits pairs; provide alpha/beta params")
    m = _n_draws(size)
    if m == 0:
        return np.zeros((0, 2))
    flat = _gengamma_draws(np.repeat(p.shapes, m), np.repeat(p.scales, m), spec, rng, 1)[0]
    return _squeeze(np.column_stack([flat[:m], flat[m:]]), size)


def sample_mv_beta2(
    p: BetaParams, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """f_i = beta_i G_i / G_0 with independent unit-scale gammas."""
    m = _n_draws(size)
    g0 = rng.gamma(p.shape.alpha0, 1.0, size=m)
    g = rng.gamma(np.asarray(p.shape.alphas), 1.0, size=(m, p.k))
    g *= np.asarray(p.betas)
    g /= g0[:, None]
    return _squeeze(g, size)


def _beta2_to_beta1(f: np.ndarray) -> np.ndarray:
    """b = f / (1 + f) in f's own array, 1 + f formed a column at a time in
    one row-length buffer."""
    rows = np.atleast_2d(f)  # a view: the updates below land in f
    den = np.empty(rows.shape[0])
    for j in range(rows.shape[1]):
        col = rows[:, j]
        np.divide(col, np.add(col, 1.0, out=den), out=col)
    return f


def sample_mv_beta1(
    p: BetaParams, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """b_i = f_i / (1 + f_i), the bounded image of the beta II sampler."""
    return _beta2_to_beta1(sample_mv_beta2(p, rng, size=size))


def sample_gengamma_beta2(
    p: JointScaleParams, rng: np.random.Generator, size: int | None = None
) -> tuple[np.ndarray | float, np.ndarray]:
    """(s0, f) pair: s0 = u_0 and f_i = u_i/u_0 for a (k+1)-block gengamma draw."""
    if p.alphas is None:
        raise DimensionMismatch("scalar joint needs real alphas")
    base = ScaleShapeParams(
        shapes=(p.alpha0,) + tuple(p.alphas), scales=tuple(p.sigma2s)
    )
    u = np.atleast_2d(sample_mv_gengamma(base, p.spec, rng, size=size))
    s0, f = u[:, 0], u[:, 1:]
    f /= u[:, :1]
    if size is None:
        return float(s0[0]), f[0]
    return s0, f


def sample_gengamma_beta1(
    p: JointScaleParams, rng: np.random.Generator, size: int | None = None
) -> tuple[np.ndarray | float, np.ndarray]:
    """(s0, b) pair with b_i = f_i/(1+f_i) applied to the beta II joint."""
    s0, f = sample_gengamma_beta2(p, rng, size=size)
    return s0, _beta2_to_beta1(f)


def sample_gamma_loggamma(
    p: GammaLogGammaParams, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Columns (u_1..k1, y_1..k2): one gengamma draw, log applied to the last k2."""
    base = ScaleShapeParams(
        shapes=p.alphas + p.rhos, scales=p.sigma2s + p.delta2s
    )
    u = sample_mv_gengamma(base, p.spec, rng, size=size)
    logs = u[..., p.k1:]
    np.log(logs, out=logs)
    return u
