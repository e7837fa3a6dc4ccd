"""Samplers: determinism, closed-form laws at fixed seeds, stream identities.

Every stochastic assertion uses a frozen seed, so the observed p-values are
reproducible numbers, not random events; the thresholds below hold with a
wide margin for the committed streams.
"""

import dataclasses
import hashlib
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import integrate, stats

from multivec import (
    Bessel,
    GammaLogGammaParams,
    JointScaleParams,
    Kotz,
    MvEllipticalParams,
    MixedParams,
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
    sample_mixed_ell_logell,
    sample_mv_beta1,
    sample_mv_beta2,
    sample_mv_elliptical,
    sample_mv_gengamma,
    sample_mv_pearson2,
    sample_mv_t,
    sample_radius,
    sample_unit_sphere,
    spawn_rngs,
)
from multivec.errors import DimensionMismatch, ParameterOutOfDomain
from multivec.families import FAMILIES
from multivec.mle import KotzGammaDepParams
from multivec.sampling import sample_gengamma_pairs

from multivec.validation import _fixtures, _pushforward_cases

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
        with pytest.raises(ParameterOutOfDomain, match="seed must be >= 0"):
            spawn_rngs(seed, 2)
    # seeds numpy refuses with its own TypeError or ValueError
    for seed in (1.5, 2.0, "7", [5, -1]):
        with pytest.raises(ParameterOutOfDomain, match="seed must be None, an integer >= 0"):
            make_rng(seed)
        with pytest.raises(ParameterOutOfDomain, match="seed must be None, an integer >= 0"):
            spawn_rngs(seed, 2)
    with pytest.raises(ParameterOutOfDomain, match="count must be >= 0, got -1"):
        spawn_rngs(5, -1)
    with pytest.raises(ParameterOutOfDomain, match="count must be a whole number"):
        spawn_rngs(5, 1.5)
    assert np.array_equal(make_rng([5, 0, 1]).random(3),
                          np.random.default_rng([5, 0, 1]).random(3))
    make_rng(None).random()
    assert spawn_rngs(5, 0) == []
    assert np.array_equal(spawn_rngs(5, np.int64(2))[1].random(3), spawn_rngs(5, 2.0)[1].random(3))


def test_sizes_and_dims_must_be_whole_numbers():
    for bad in (2.5, float("nan"), float("inf"), "two"):
        with pytest.raises(ParameterOutOfDomain, match="size must be a whole number"):
            sample_mv_t(MvTParams(dims=(1,), alpha0=2.0, betas=(1.0,)), make_rng(0), size=bad)
        with pytest.raises(ParameterOutOfDomain, match="n must be a whole number"):
            sample_unit_sphere(bad, make_rng(0), 3)
    with pytest.raises(ParameterOutOfDomain, match="size must be >= 0, got -1"):
        sample_unit_sphere(2, make_rng(0), -1.0)
    with pytest.raises(ParameterOutOfDomain, match="n must be >= 1, got 0"):
        sample_unit_sphere(0, make_rng(0), 3)
    # integral floats and numpy integers give the integer's draws
    want = sample_unit_sphere(3, make_rng(4), 5)
    for n, size in ((3.0, 5.0), (np.int64(3), np.int32(5)), (np.float64(3.0), 5)):
        got = sample_unit_sphere(n, make_rng(4), size)
        assert got.shape == (5, 3) and np.array_equal(got, want)


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


# ---------------------------------------------------------------------------
# every sampler's bits, pinned


def _draw_digest(*outs) -> str:
    """sha256 over each output's shape and float64 bytes, in order."""
    h = hashlib.sha256()
    for out in outs:
        for part in out if isinstance(out, tuple) else (out,):
            a = np.ascontiguousarray(np.asarray(part, dtype=np.float64))
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


_PIN_SIZES = (None, 1, 7, 100_000)


def _pinned_laws():
    """(name, sampler, params) for every oracle fixture's family and ten wider
    laws: blocks of 2 or more dims, k >= 3 and the Pearson II radius, which
    no fixture reaches."""
    laws, seen = [], set()
    for f in _fixtures():
        if f.suffix not in seen:  # mixed-1p1 appears twice with the same params
            seen.add(f.suffix)
            laws.append((f.suffix, FAMILIES[f.family].sampler, f.params))
    ell = MvEllipticalParams(
        partition=Partition(dims=(2, 1)), mus=(np.array([0.5, -1.0]), np.array([2.0])),
        sigmas=(np.array([[1.0, 0.4], [0.4, 2.0]]), np.array([[0.3]])),
    )
    return laws + [
        ("mv-elliptical-pearson2-2p1", sample_mv_elliptical, (ell, PearsonII(q=1.5))),
        ("mixed-2p1", sample_mixed_ell_logell, (MixedParams(base=ell, k1=1), GAUSS)),
        ("mv-t-1p2p3", sample_mv_t,
         (MvTParams(dims=(1, 2, 3), alpha0=2.1, betas=(1.0, 0.5, 2.0)),)),
        ("mv-pearson2-2p3", sample_mv_pearson2,
         (MvTParams(dims=(2, 3), alpha0=1.7, betas=(0.8, 1.3)),)),
        ("mv-gengamma-bessel-k3", sample_mv_gengamma,
         (ScaleShapeParams(shapes=(1.0, 2.0, 0.7), scales=(1.0, 0.5, 2.0)), Bessel(r=1.0, q=0.3))),
        ("mv-beta2-k3", sample_mv_beta2,
         (BetaParams(shape=ExtendedShape(alphas=(1.0, 2.0, 1.5), alpha0=2.0),
                     betas=(1.0, 0.4, 3.0)),)),
        ("gengamma-pearson7-2p1", sample_gengamma_pearson7,
         (JointScaleParams(spec=Kotz(q=1.2, r=0.9, s=0.8), alpha0=1.5, sigma2s=(1.0, 0.8, 1.2),
                           dims=(2, 1)),)),
        ("gengamma-pearson2-3", sample_gengamma_pearson2,
         (JointScaleParams(spec=PearsonII(q=0.5), alpha0=1.3, sigma2s=(0.9, 1.1), dims=(3,)),)),
        ("gengamma-beta1-k2", sample_gengamma_beta1,
         (JointScaleParams(spec=Bessel(r=1.0, q=0.3), alpha0=1.4, sigma2s=(1.0, 0.7, 2.0),
                           alphas=(1.2, 0.8)),)),
        ("gamma-loggamma-2p2", sample_gamma_loggamma,
         (GammaLogGammaParams(spec=GAUSS, alphas=(1.5, 0.7), sigma2s=(0.9, 1.3), rhos=(2.0, 1.1),
                              delta2s=(1.2, 0.5)),)),
    ]


def _pinned_samplers():
    """(name, draw(rng, size)) for every law of _pinned_laws, the kotz-gamma
    pair sampler, and the unit sphere at n = 8 and 12."""
    cases = [(name, partial(lambda s, p, rng, size: s(*p, rng, size=size), sampler, params))
             for name, sampler, params in _pinned_laws()]
    pairs = ScaleShapeParams(shapes=(5.0, 8.0), scales=(1.0, 4.0))
    cases.append(("kotz-gamma-pairs", lambda rng, size: sample_gengamma_pairs(
        pairs, Kotz(q=1.5, r=0.4, s=1.1), rng, size=size)))
    for n in (8, 12):
        cases.append((f"unit-sphere-{n}", partial(lambda n, rng, size: sample_unit_sphere(
            n, rng, size=size), n)))
    return cases


# sha256 of the draws at sizes None, 1, 7 and 1e5 from seeds 2400 + i + 10 j
# (i: the case's index, j: the size's), taken from the samplers as they stood
# before their transforms moved into the draws' own arrays
_PINNED_DIGESTS = {
    "mv-elliptical-bessel-2d": "135ffd6764a93ba4e130a2f466066737d8d7c9019c0119da1fbf7865f2e0b167",
    "mv-elliptical-gaussian-2d": "f3a090909102a18a06314c54327ce87a04ef6dc8fd790a99e5e22127f2a7f9d6",
    "mv-elliptical-pearson7-1d": "f97ccb8eb8222fe2a3bcb02baea14bb478f133098405b230e13e1bb2abc80577",
    "log-elliptical-1d": "f9c8a4f1320f24c062d3d696544d6bd8d9b961e872faaf1e153e03e533902193",
    "mixed-1p1": "19565ff148ee0df64eea58a426cf96354c20faaa5818552fb7d8b9e2b7e8d85b",
    "mv-t-k2": "d5e92e3db9ace652e9d02296d46300463711f3130ab9020104e3bc35d12deab5",
    "mv-pearson2-k2": "a96defaa3353cf59e634e06694a34725011e732ed87bfed9e9833909687642df",
    "mv-gengamma-kotz-k1": "b39faaaf7f46394987263d16fead3822f5499c6654bf4981f0985a83655678eb",
    "mv-gengamma-k2": "ead18c8b53c0203a102c671a4ef1c295e6d18eca1712b016708ecada00f1fcbc",
    "mv-beta1-k2": "2289e1bffa9528a71d8bfc5cc04a5b548f7b294ed3ef34d96104d42dc068e9b6",
    "mv-beta2-k2": "d7abcd9cc95b25f9c7b75efcceb2b6a65b3f7686a00988d8623a0233305907a8",
    "gengamma-pearson7-k1": "2dbd9e670bc6cfd82a6e521b3e0ffd02ddf1e2f9161387d75ccd3c6a5ee1d22d",
    "mv-beta1-k3-3d": "43d1a851cbb78a32f74258d6f859eb8920ece97181b0e18b81161abcf4fb8d2b",
    "gengamma-pearson2-k1": "bab340db36a37177235e14f3895ca3c209cdd07ff5682756ddd1707e692009c6",
    "gengamma-beta1-k1": "9706d81001d0752b3ff75609dd3c7848f786162a1ae3d266cfd1a688c5e7867b",
    "gengamma-beta2-k1": "ab8ecc7b0043934481feb2b65d18af6f2cb23898be9004bb9c4d93ca1062cdca",
    "gamma-loggamma-1p1": "49c421d7f5f61a8dd0702ac67de6cea1299927e2ea2cc23cf260e8d1a29f1cb1",
    "mv-elliptical-pearson2-2p1": "cc928e6e444ad8a445de2cfa36eeb93f52c78fe62102b64e8bf328a30136a609",
    "mixed-2p1": "074af72a453649659871b4242ff0a639f9fe5aeb639958d0a74bd1957a88b8ac",
    "mv-t-1p2p3": "5ea31846776e5644d0c9c8dd03986c0d7d246c5a65a93b3fa88e1496609b439c",
    "mv-pearson2-2p3": "0d0740efd41dd8d221084b10174a6b967cf4b62e63cef58e772d744f7790059c",
    "mv-gengamma-bessel-k3": "87720e296c0f32e475dd12e7340124f0458ec227f8d2cc51e7eb1666c85b2fec",
    "mv-beta2-k3": "2ffcde9edfcb669ccca497dd57816bb32396afe7e77ce2e75a300cb2e945b185",
    "gengamma-pearson7-2p1": "af33c0d893fbe1e953675cad5e9b3af96e532eb07c01f9d9e87ae6aae4c9f87d",
    "gengamma-pearson2-3": "bc7cf88811defc83e546d1ad2331bb1a1593e8782fef1e09182700c4ea2fdbb6",
    "gengamma-beta1-k2": "fb31ab887910e118860b0de358a75dc609a130ee610b069daa76dd2428b7afb0",
    "gamma-loggamma-2p2": "e4dcb013adc58e7fe6aab8a3cf781a48392dba97e3b66cb88e4b26d3af00b947",
    "kotz-gamma-pairs": "236205dc5ef3750b2f0e2f90bb8eb390c4f1a60cefc4f9c7fd2ac4c953081bb9",
    "unit-sphere-8": "ad27b482c2b74ea30bcf27186167044aae43bb0e3f6b94df8fd072d465fcea50",
    "unit-sphere-12": "517981d6e7b1f2734e984e45795771d29b58fd5921b5dfb547156c3c72a7d938",
}


def test_every_sampler_keeps_its_bits():
    got = {}
    for i, (name, draw) in enumerate(_pinned_samplers()):
        got[name] = _draw_digest(*(
            draw(make_rng(2400 + i + 10 * j), size) for j, size in enumerate(_PIN_SIZES)
        ))
    assert got == _PINNED_DIGESTS


# tracemalloc peak, in MB, of one call of 1e5 draws, RNG calls included, as
# the samplers reach it with numpy 2.4: sample_mv_gengamma at k = 2 held a
# full-size scales * W product (4.13 MB), the pair sampler its 2m-block
# params as Python floats (19.2 MB); the unit sphere at n >= 8 squares a copy
# of its draws, as numpy's pairwise row sums need
_PINNED_PEAKS_MB = {
    "mv-elliptical-bessel-2d": 4.00,
    "mv-elliptical-gaussian-2d": 4.00,
    "mv-elliptical-pearson7-1d": 2.41,
    "log-elliptical-1d": 2.41,
    "mixed-1p1": 4.00,
    "mv-t-k2": 2.47,
    "mv-pearson2-k2": 2.47,
    "mv-gengamma-kotz-k1": 0.80,
    "mv-gengamma-k2": 3.20,
    "mv-beta1-k2": 2.47,
    "mv-beta2-k2": 2.47,
    "gengamma-pearson7-k1": 4.01,
    "mv-beta1-k3-3d": 3.27,
    "gengamma-pearson2-k1": 4.01,
    "gengamma-beta1-k1": 3.20,
    "gengamma-beta2-k1": 3.20,
    "gamma-loggamma-1p1": 3.20,
    "mv-elliptical-pearson2-2p1": 4.87,
    "mixed-2p1": 4.87,
    "mv-t-1p2p3": 5.67,
    "mv-pearson2-2p3": 5.60,
    "mv-gengamma-bessel-k3": 4.00,
    "mv-beta2-k3": 3.27,
    "gengamma-pearson7-2p1": 8.81,
    "gengamma-pearson2-3": 6.40,
    "gengamma-beta1-k2": 4.00,
    "gamma-loggamma-2p2": 4.80,
    "kotz-gamma-pairs": 6.40,
    "unit-sphere-8": 13.60,
    "unit-sphere-12": 20.00,
}


def test_every_sampler_holds_its_pinned_working_set():
    # within 5% of its pin; the draws themselves are 0.8 MB per column
    over = {}
    for i, (name, draw) in enumerate(_pinned_samplers()):
        draw(make_rng(i), 10)
        tracemalloc.start()
        try:
            draw(make_rng(i), 100_000)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        if peak > 1.05 * _PINNED_PEAKS_MB[name]:
            over[name] = round(peak, 2)
    assert over == {}


def _param_arrays(obj) -> list[np.ndarray]:
    """Every array a params object holds, through nested params and tuples:
    the elliptical mus and sigmas, and the Cholesky factors cached on them
    (betas, scales and shapes are stored as tuples)."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _param_arrays(item)]
    if dataclasses.is_dataclass(obj):
        if isinstance(obj, MvEllipticalParams):
            obj.factors  # cache them now, so that the copy below covers them
        return [a for v in vars(obj).values() for a in _param_arrays(v)]
    return []


@pytest.mark.parametrize("law", _pinned_laws(), ids=lambda law: law[0])
def test_sampling_never_writes_into_its_params(law):
    _, sampler, params = law
    arrays = _param_arrays(params)
    before = [(a.shape, a.tobytes()) for a in arrays]
    first = sampler(*params, make_rng(77), size=1000)
    assert [(a.shape, a.tobytes()) for a in arrays] == before
    assert _draw_digest(sampler(*params, make_rng(77), size=1000)) == _draw_digest(first)
