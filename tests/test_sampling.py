"""Samplers: determinism, closed-form laws at fixed seeds, stream identities.

Every stochastic assertion uses a frozen seed, so the observed p-values are
reproducible numbers, not random events; the thresholds below hold with a
wide margin for the committed streams.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from multivec import (
    Bessel,
    GammaLogGammaParams,
    JointScaleParams,
    Kotz,
    MvEllipticalParams,
    MvTParams,
    BetaParams,
    ExtendedShape,
    Partition,
    PearsonII,
    RadialLaw,
    ScaleShapeParams,
    block_quadform,
    logpdf_gengamma_beta1,
    logpdf_gengamma_beta2,
    logpdf_gengamma_pearson2,
    logpdf_gengamma_pearson7,
    make_rng,
    sample_gamma_loggamma,
    sample_gengamma_beta1,
    sample_gengamma_beta2,
    sample_gengamma_pearson2,
    sample_gengamma_pearson7,
    sample_mv_beta1,
    sample_mv_elliptical,
    sample_mv_gengamma,
    sample_mv_t,
    sample_radius,
    sample_unit_sphere,
    spawn_rngs,
)
from multivec.errors import DimensionMismatch, ParameterOutOfDomain
from multivec.mle import KotzGammaDepParams
from multivec.sampling import sample_gengamma_pairs

from multivec.validation import _pushforward_cases

GAUSS = Kotz.gaussian()


# ---------------------------------------------------------------------------
# unit sphere


def test_sphere_unit_norm():
    rng = make_rng(1)
    for n in (1, 2, 3, 7):
        x = sample_unit_sphere(n, rng, size=200)
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12


def test_sphere_norms_are_linalg_norm_bit_for_bit():
    # the column-by-column sum of squares is np.linalg.norm's for n < 8
    for n in range(1, 8):
        z = make_rng(n).standard_normal((100_000, n))
        want = z / np.linalg.norm(z, axis=-1, keepdims=True)
        got = sample_unit_sphere(n, make_rng(n), size=100_000)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class _ZerosFirst:
    """A generator whose first standard_normal block is all zeros."""

    def __init__(self, seed):
        self.rng, self.shapes = make_rng(seed), []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        draw = self.rng.standard_normal(shape)
        return np.zeros(shape) if len(self.shapes) == 1 else draw


@pytest.mark.parametrize("n,size", [(1, 5), (3, 4), (2, None)])
def test_sphere_redraws_a_zero_norm_draw(n, size):
    rng = _ZerosFirst(5)
    x = np.atleast_2d(sample_unit_sphere(n, rng, size=size))
    m = 1 if size is None else size
    assert rng.shapes == [(m, n), (m, n)]  # every zero row is drawn again, once
    assert x.shape == (m, n) and np.all(np.isfinite(x))
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12


def test_sphere_n1_sign_balance():
    s = sample_unit_sphere(1, make_rng(7), size=10_000).ravel()
    npos = int(np.sum(s > 0))
    p = stats.chisquare([npos, 10_000 - npos]).pvalue
    assert p > 0.01


def test_sphere_n2_angle_uniform():
    x = sample_unit_sphere(2, make_rng(123), size=100_000)
    ang = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
    assert stats.kstest(ang, stats.uniform(0, 2.0 * np.pi).cdf).pvalue > 0.01


def test_sphere_n3_coordinate_means():
    y = sample_unit_sphere(3, make_rng(99), size=100_000)
    assert np.max(np.abs(y.mean(axis=0))) < 4.0 / math.sqrt(100_000)


# ---------------------------------------------------------------------------
# radius


def test_radius_gaussian_n2_is_chi2():
    r = sample_radius(RadialLaw(GAUSS, 2.0), make_rng(3), size=100_000)
    assert stats.kstest(r**2, stats.expon(scale=2.0).cdf).pvalue > 0.01


def test_radius_pearson2_q0_uniform():
    r = sample_radius(RadialLaw(PearsonII(q=0.0), 1.0), make_rng(4), size=100_000)
    assert stats.kstest(r, stats.uniform.cdf).pvalue > 0.01


def test_radius_gaussian_n5_second_moment():
    r = sample_radius(RadialLaw(GAUSS, 5.0), make_rng(5), size=100_000)
    r2 = r**2
    se = np.std(r2, ddof=1) / math.sqrt(r2.size)
    assert abs(np.mean(r2) - 5.0) < 3.0 * se


def test_radius_bessel_exact_path():
    # the gamma-product radius must agree with the radial density integrated
    # numerically
    law = RadialLaw(Bessel(r=1.0, q=0.3), 2.0)
    rb = sample_radius(law, make_rng(6), size=50_000)
    grid = np.linspace(1e-9, float(np.max(rb)) * 1.5, 4001)
    pdf = np.exp(law.logpdf(grid))
    cdf = integrate.cumulative_simpson(pdf, x=grid, initial=0.0)
    cdf /= cdf[-1]
    p = stats.kstest(rb, lambda v: np.interp(v, grid, cdf)).pvalue
    assert p > 0.01


@pytest.mark.parametrize(
    "spec,n",
    [(Bessel(r=1.0, q=2.7), 2.0), (Bessel(r=0.3, q=1.95), 1.0), (Bessel(r=3.0, q=3.9), 3.0)],
    ids=["n2-q2.7", "n1-q1.95", "n3-q3.9"],
)
def test_radius_bessel_second_moment_near_the_domain_edge(spec, n):
    # |q| close to n+1 puts an integrable singularity at r = 0
    law = RadialLaw(spec, n)
    r = sample_radius(law, make_rng(12), size=100_000)
    assert np.all(np.isfinite(r)) and np.all(r > 0)
    moment = sum(
        integrate.quad(lambda v: v * v * math.exp(law.logpdf(v)), a, b, limit=200)[0]
        for a, b in ((0.0, 1e-8), (1e-8, 1.0), (1.0, np.inf))
    )
    r2 = r * r
    se = np.std(r2, ddof=1) / math.sqrt(r2.size)
    assert abs(np.mean(r2) - moment) < 4.0 * se


@pytest.mark.parametrize("case", _pushforward_cases(), ids=lambda c: c[0])
def test_push_draws_in_support_with_finite_density(case):
    name, sampler, logpdf, support = case
    x = sampler(make_rng(0), 100_000)
    assert x.shape == (100_000, len(support)), name
    lo, hi = np.array(support).T
    assert np.all((x > lo) & (x < hi)), name
    assert np.all(np.isfinite(logpdf(x))), name


def test_radial_angular_independence():
    # permutation test on corr(r, first direction coordinate)
    n, m = 3, 4_000
    rng = make_rng(11)
    r = sample_radius(RadialLaw(Kotz(r=0.6, q=1.3, s=0.9), float(n)), rng, size=m)
    u = sample_unit_sphere(n, rng, size=m)
    stat = abs(np.corrcoef(r, u[:, 0])[0, 1])
    prng = make_rng(12)
    perm = np.array([
        abs(np.corrcoef(r, u[prng.permutation(m), 0])[0, 1]) for _ in range(500)
    ])
    assert np.mean(perm >= stat) > 0.01


# ---------------------------------------------------------------------------
# determinism


def test_equal_seeds_equal_streams():
    p = MvTParams(dims=(1, 2), alpha0=1.5, betas=(1.0, 2.0))
    a = sample_mv_t(p, make_rng(42), size=1_000)
    b = sample_mv_t(p, make_rng(42), size=1_000)
    assert np.array_equal(a, b)
    pg = ScaleShapeParams(shapes=(1.3, 2.0), scales=(1.0, 0.5))
    ua = sample_mv_gengamma(pg, Kotz(r=0.7, q=1.2, s=1.1), make_rng(9), size=1_000)
    ub = sample_mv_gengamma(pg, Kotz(r=0.7, q=1.2, s=1.1), make_rng(9), size=1_000)
    assert np.array_equal(ua, ub)


def test_a_negative_integer_seed_is_out_of_domain():
    for seed in (-1, np.int64(-7)):
        with pytest.raises(ParameterOutOfDomain, match="seed must be >= 0"):
            make_rng(seed)
    assert np.array_equal(make_rng([5, 0, 1]).random(3),
                          np.random.default_rng([5, 0, 1]).random(3))
    make_rng(None).random()


def test_spawned_streams_deterministic_and_distinct():
    xs = [r.standard_normal(8) for r in spawn_rngs(5, 3)]
    ys = [r.standard_normal(8) for r in spawn_rngs(5, 3)]
    for x, y in zip(xs, ys):
        assert np.array_equal(x, y)
    assert not np.array_equal(xs[0], xs[1])


# ---------------------------------------------------------------------------
# family samplers against closed-form laws


def test_elliptical_moments_and_quadform():
    S = np.array([[2.0, 0.6], [0.6, 1.0]])
    p = MvEllipticalParams(
        partition=Partition(dims=(2,)), mus=(np.array([1.0, -2.0]),), sigmas=(S,)
    )
    x = sample_mv_elliptical(p, GAUSS, make_rng(31), size=100_000)
    C = np.cov(x, rowvar=False)
    assert np.linalg.norm(C - S) / np.linalg.norm(S) < 0.05
    assert np.max(np.abs(x.mean(axis=0) - [1.0, -2.0])) < 0.02
    q = block_quadform(p, x)
    assert stats.kstest(q, stats.chi2(df=2).cdf).pvalue > 0.01


def test_mv_t_scaled_student_law():
    # scalar block over a 2-degree divisor: t * sqrt(2) is Student t(2)
    p = MvTParams(dims=(1,), alpha0=1.0, betas=(1.0,))
    t = sample_mv_t(p, make_rng(21), size=100_000).ravel()
    assert stats.kstest(t * math.sqrt(2.0), stats.t(df=2).cdf).pvalue > 0.01


def test_mv_t_beta_scale_equivariance():
    p1 = MvTParams(dims=(1,), alpha0=1.0, betas=(1.0,))
    p4 = MvTParams(dims=(1,), alpha0=1.0, betas=(4.0,))
    t4 = sample_mv_t(p4, make_rng(22), size=50_000).ravel()
    t1 = sample_mv_t(p1, make_rng(23), size=50_000).ravel()
    assert stats.ks_2samp(t4 / 2.0, t1).pvalue > 0.01


def test_gengamma_gaussian_gamma_law():
    p = ScaleShapeParams(shapes=(2.3,), scales=(1.44,))
    u = sample_mv_gengamma(p, GAUSS, make_rng(42), size=100_000).ravel()
    assert stats.kstest(u, stats.gamma(a=2.3, scale=2.0 * 1.44).cdf).pvalue > 0.01


def test_beta1_uniform_case():
    p = BetaParams(shape=ExtendedShape(alphas=(1.0,), alpha0=1.0), betas=(1.0,))
    b = sample_mv_beta1(p, make_rng(51), size=100_000).ravel()
    assert stats.kstest(b, stats.uniform.cdf).pvalue > 0.01


def test_joint_s0_margin_gamma_law():
    p = JointScaleParams(spec=GAUSS, alpha0=1.5, sigma2s=(2.0, 1.0), dims=(1,))
    s0, _ = sample_gengamma_pearson7(p, make_rng(71), size=100_000)
    assert stats.kstest(s0, stats.gamma(a=1.5, scale=4.0).cdf).pvalue > 0.01


@pytest.mark.parametrize(
    "sampler,logpdf,blocks",
    [
        (sample_gengamma_pearson7, logpdf_gengamma_pearson7, {"dims": ()}),
        (sample_gengamma_pearson2, logpdf_gengamma_pearson2, {"dims": ()}),
        (sample_gengamma_beta2, logpdf_gengamma_beta2, {"alphas": ()}),
        (sample_gengamma_beta1, logpdf_gengamma_beta1, {"alphas": ()}),
    ],
    ids=["pearson7", "pearson2", "beta2", "beta1"],
)
def test_joint_samplers_with_no_blocks(sampler, logpdf, blocks):
    # k = 0 leaves only s0; the block array keeps its (m, 0) shape
    p = JointScaleParams(spec=GAUSS, alpha0=1.5, sigma2s=(2.0,), **blocks)
    s0, b = sampler(p, make_rng(81), size=50)
    assert s0.shape == (50,) and b.shape == (50, 0)
    assert np.all(np.isfinite(logpdf(p, s0, b)))


@pytest.mark.parametrize(
    "sampler,logpdf,wrong",
    [
        (sample_gengamma_pearson7, logpdf_gengamma_pearson7, {"alphas": (1.2,)}),
        (sample_gengamma_pearson2, logpdf_gengamma_pearson2, {"alphas": (1.2,)}),
        (sample_gengamma_beta2, logpdf_gengamma_beta2, {"dims": (1,)}),
        (sample_gengamma_beta1, logpdf_gengamma_beta1, {"dims": (1,)}),
    ],
    ids=["pearson7", "pearson2", "beta2", "beta1"],
)
def test_joint_params_of_the_wrong_kind_raise_one_error(sampler, logpdf, wrong):
    # vector laws need block dims, scalar laws real alphas; sampler and
    # density reject the other kind alike
    p = JointScaleParams(spec=GAUSS, alpha0=1.5, sigma2s=(2.0, 1.0), **wrong)
    with pytest.raises(DimensionMismatch):
        sampler(p, make_rng(0), size=5)
    with pytest.raises(DimensionMismatch):
        logpdf(p, np.ones(5), np.full((5, 1), 0.5))


def test_loggamma_is_log_of_gengamma_stream():
    p = GammaLogGammaParams(spec=GAUSS, rhos=(1.7,), delta2s=(0.9,))
    y = sample_gamma_loggamma(p, make_rng(61), size=2_000)
    u = sample_mv_gengamma(
        ScaleShapeParams(shapes=(1.7,), scales=(0.9,)), GAUSS, make_rng(61), size=2_000
    )
    assert np.array_equal(y, np.log(u))


def test_pair_sampler_matches_the_acceptance_copy():
    from test_acceptance import _sample_pairs

    truth = KotzGammaDepParams(sigma1=1.0, sigma2=2.0, alpha=5.0, beta=8.0, r=0.4, q=1.5, s=1.1)
    pairs = ScaleShapeParams(shapes=(5.0, 8.0), scales=(1.0, 4.0))
    spec = Kotz(q=1.5, r=0.4, s=1.1)
    got = sample_gengamma_pairs(pairs, spec, make_rng(2024), size=300)
    assert np.array_equal(got, _sample_pairs(truth, 300, 2024))
    assert sample_gengamma_pairs(pairs, spec, make_rng(1)).shape == (2,)
    assert sample_gengamma_pairs(pairs, spec, make_rng(1), size=0).shape == (0, 2)
    with pytest.raises(DimensionMismatch, match="emits pairs"):
        sample_gengamma_pairs(ScaleShapeParams(shapes=(5.0,), scales=(1.0,)), spec, make_rng(1))
