"""Log-densities of every family: closed-form anchors, reductions, identities."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from multivec import (
    Bessel,
    BetaParams,
    DimensionMismatch,
    ExtendedShape,
    GammaLogGammaParams,
    JointScaleParams,
    Kotz,
    MixedParams,
    MvEllipticalParams,
    MultivecError,
    MvTParams,
    NonPositiveInput,
    ParameterOutOfDomain,
    Partition,
    PearsonVII,
    ScaleShapeParams,
    block_quadform,
    log_h,
    logpdf_gamma_loggamma,
    logpdf_gengamma_beta1,
    logpdf_gengamma_beta2,
    logpdf_gengamma_pearson2,
    logpdf_gengamma_pearson7,
    logpdf_mixed_ell_logell,
    logpdf_mv_beta1,
    logpdf_mv_beta2,
    logpdf_mv_elliptical,
    logpdf_mv_gengamma,
    logpdf_mv_log_elliptical,
    logpdf_mv_pearson2,
    logpdf_mv_t,
    make_rng,
    quad_normalization,
    sample_gamma_loggamma,
)
from multivec.families import FAMILIES

GAUSS = Kotz.gaussian()
LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# elliptical / log-elliptical / mixed


def test_elliptical_bivariate_origin():
    p = MvEllipticalParams.scalar_blocks([0.0, 0.0], [1.0, 1.0])
    assert abs(logpdf_mv_elliptical(p, GAUSS, np.zeros(2)) - (-LOG_2PI)) < 1e-12


def test_elliptical_reads_a_scalar_as_a_length_one_vector():
    p = MvEllipticalParams.scalar_blocks([0.0], [1.0])
    got = logpdf_mv_elliptical(p, GAUSS, 0.5)
    assert isinstance(got, float)
    assert got == logpdf_mv_elliptical(p, GAUSS, np.array([0.5]))
    assert abs(got - (-0.5 * LOG_2PI - 0.125)) < 1e-12
    two = MvEllipticalParams.scalar_blocks([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch, match="vector length 1 does not match partition total 2"):
        logpdf_mv_elliptical(two, GAUSS, 0.5)


def test_elliptical_matches_multivariate_normal():
    rng = np.random.default_rng(10)
    S1 = np.array([[2.0, 0.4], [0.4, 1.0]])
    S2 = np.array([[0.9]])
    mu = np.array([0.5, -1.0, 2.0])
    p = MvEllipticalParams(
        partition=Partition(dims=(2, 1)),
        mus=(mu[:2], mu[2:]),
        sigmas=(S1, S2),
    )
    full_cov = np.block([[S1, np.zeros((2, 1))], [np.zeros((1, 2)), S2]])
    mvn = stats.multivariate_normal(mean=mu, cov=full_cov)
    for _ in range(20):
        x = rng.normal(size=3) * 2.0
        assert abs(logpdf_mv_elliptical(p, GAUSS, x) - mvn.logpdf(x)) < 1e-12


def test_elliptical_single_block_collapse():
    # k=1 must equal the plain elliptical form -1/2 log|S| + log h(quadform)
    rng = np.random.default_rng(11)
    S = np.array([[1.5, -0.3], [-0.3, 0.8]])
    p = MvEllipticalParams(partition=Partition(dims=(2,)), mus=(np.zeros(2),), sigmas=(S,))
    spec = PearsonVII(r=2.0, q=3.0)
    sign, logdet = np.linalg.slogdet(S)
    for _ in range(20):
        x = rng.normal(size=2)
        want = -0.5 * logdet + log_h(spec, float(x @ np.linalg.solve(S, x)), 2.0)
        assert abs(logpdf_mv_elliptical(p, spec, x) - want) < 1e-12


def test_elliptical_gaussian_factorizes_over_blocks():
    rng = np.random.default_rng(12)
    p = MvEllipticalParams(
        partition=Partition(dims=(1, 2, 1)),
        mus=(np.array([0.3]), np.array([-1.0, 0.5]), np.array([2.0])),
        sigmas=(np.array([[2.0]]), np.array([[1.0, 0.2], [0.2, 0.7]]), np.array([[0.5]])),
    )
    singles = [
        MvEllipticalParams(partition=Partition(dims=(d,)), mus=(m,), sigmas=(s,))
        for d, m, s in zip(p.partition.dims, p.mus, p.sigmas)
    ]
    for _ in range(20):
        x = rng.normal(size=4)
        joint = logpdf_mv_elliptical(p, GAUSS, x)
        parts = (
            logpdf_mv_elliptical(singles[0], GAUSS, x[:1])
            + logpdf_mv_elliptical(singles[1], GAUSS, x[1:3])
            + logpdf_mv_elliptical(singles[2], GAUSS, x[3:])
        )
        assert abs(joint - parts) < 1e-12


def test_pearson7_matches_multivariate_t():
    rng = np.random.default_rng(13)
    for n, nu in ((1, 3.0), (2, 5.0), (3, 2.0)):
        S = np.eye(n) + 0.3 * np.ones((n, n))
        p = MvEllipticalParams(partition=Partition(dims=(n,)), mus=(np.zeros(n),), sigmas=(S,))
        spec = PearsonVII(r=nu, q=(n + nu) / 2.0)
        mvt = stats.multivariate_t(loc=np.zeros(n), shape=S, df=nu)
        for _ in range(20):
            x = rng.normal(size=n) * 1.5
            got = logpdf_mv_elliptical(p, spec, x)
            want = mvt.logpdf(x)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_log_elliptical_standard_lognormal():
    p = MvEllipticalParams.scalar_blocks([0.0], [1.0])
    assert abs(logpdf_mv_log_elliptical(p, GAUSS, np.array([1.0])) - (-0.5 * LOG_2PI)) < 1e-12
    for v in (0.2, 0.8, 1.7, 5.0):
        got = logpdf_mv_log_elliptical(p, GAUSS, np.array([v]))
        assert abs(got - stats.lognorm(s=1.0).logpdf(v)) < 1e-12


def test_log_elliptical_rejects_nonpositive():
    p = MvEllipticalParams.scalar_blocks([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(NonPositiveInput):
        logpdf_mv_log_elliptical(p, GAUSS, np.array([1.0, 0.0]))
    with pytest.raises(NonPositiveInput):
        logpdf_mv_log_elliptical(p, GAUSS, np.array([-0.5, 1.0]))


def test_mixed_reductions_and_gaussian_product():
    base = MvEllipticalParams.scalar_blocks([0.1, -0.2], [1.0, 2.0])
    x = np.array([0.4, 1.3])
    v = np.array([0.7, 2.1])
    assert logpdf_mixed_ell_logell(MixedParams(base, 2), GAUSS, x, np.array([])) == \
        logpdf_mv_elliptical(base, GAUSS, x)
    assert logpdf_mixed_ell_logell(MixedParams(base, 0), GAUSS, np.array([]), v) == \
        logpdf_mv_log_elliptical(base, GAUSS, v)
    # one linear and one positive scalar block: normal(x) * lognormal(v)
    p = MixedParams(base, 1)
    for xv, vv in ((0.0, 1.0), (1.2, 0.4), (-0.8, 3.0)):
        got = logpdf_mixed_ell_logell(p, GAUSS, np.array([xv]), np.array([vv]))
        want = stats.norm(loc=0.1, scale=1.0).logpdf(xv) + \
            stats.lognorm(s=math.sqrt(2.0), scale=math.exp(-0.2)).logpdf(vv)
        assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# multivector t / Pearson II


def test_mv_t_scalar_anchor():
    p = MvTParams(dims=(1,), alpha0=1.0, betas=(1.0,))
    assert abs(logpdf_mv_t(p, np.zeros(1)) - (-math.log(2.0))) < 1e-12


def test_mv_t_beta_scaling():
    rng = np.random.default_rng(14)
    for _ in range(20):
        beta = float(rng.uniform(0.3, 4.0))
        p1 = MvTParams(dims=(1, 2), alpha0=1.5, betas=(1.0, 1.0))
        pb = MvTParams(dims=(1, 2), alpha0=1.5, betas=(beta, beta))
        t = rng.normal(size=3)
        got = logpdf_mv_t(pb, t)
        want = logpdf_mv_t(p1, t / math.sqrt(beta)) - 1.5 * math.log(beta)
        assert abs(got - want) < 1e-10


def test_mv_t_marginal_consistency():
    # integrating out the second scalar block recovers the k=1 density
    p2 = MvTParams(dims=(1, 1), alpha0=1.5, betas=(1.0, 2.0))
    p1 = MvTParams(dims=(1,), alpha0=1.5, betas=(1.0,))
    for t1 in (-1.2, 0.0, 0.7, 2.5):
        val, _ = integrate.quad(
            lambda t2: math.exp(logpdf_mv_t(p2, np.array([t1, t2]))),
            -np.inf, np.inf, limit=200,
        )
        assert abs(val - math.exp(logpdf_mv_t(p1, np.array([t1])))) < 1e-4


def test_pearson2_support_boundary():
    p = MvTParams(dims=(1, 1), alpha0=1.5, betas=(1.0, 1.0))
    assert logpdf_mv_pearson2(p, np.array([1.0, 0.3])) == -math.inf
    assert logpdf_mv_pearson2(p, np.array([0.3, -1.2])) == -math.inf
    assert np.isfinite(logpdf_mv_pearson2(p, np.array([0.99, 0.99])))


def test_pearson2_from_t_change_of_variables():
    # r_i = t_i / sqrt(1 + ||t_i||^2) with per-block Jacobian (1+||t_i||^2)^{n_i/2+1}
    rng = np.random.default_rng(15)
    p = MvTParams(dims=(1, 2), alpha0=1.5, betas=(1.0, 2.0))
    for _ in range(20):
        t = rng.normal(size=3) * 1.3
        blocks = [t[:1], t[1:]]
        r = np.concatenate([b / math.sqrt(1.0 + b @ b) for b in blocks])
        jac = sum((d / 2.0 + 1.0) * math.log(1.0 + b @ b) for d, b in zip((1, 2), blocks))
        got = logpdf_mv_pearson2(p, r)
        want = logpdf_mv_t(p, t) + jac
        assert abs(got - want) < 1e-10


def test_pearson2_scalar_normalizes():
    p = MvTParams(dims=(1,), alpha0=1.0, betas=(1.0,))
    val, _ = integrate.quad(
        lambda r: math.exp(logpdf_mv_pearson2(p, np.array([r]))), -1.0, 1.0, limit=200
    )
    assert abs(val - 1.0) < 1e-6


@pytest.mark.parametrize("dims,betas", [
    ((2, 3), (1.3, 0.7)), ((3,), (1.3,)), ((1, 2, 2), (0.5, 1.3, 2.0)),
], ids=["2-3", "3", "1-2-2"])
def test_mv_t_at_vector_blocks_is_scipys_multivariate_t(dims, betas):
    # the constant's beta and pi exponents are n_i/2 per block: an image's
    # root-to-image identity cannot see them, since they cancel on both sides
    p = MvTParams(dims=dims, alpha0=1.6, betas=betas)
    m = sum(dims)
    t = np.random.default_rng(16).standard_normal((200, m)) * 2.0
    shape = np.diag(np.repeat(p.betas, p.dims)) / (2.0 * p.alpha0)
    want = stats.multivariate_t(loc=np.zeros(m), shape=shape, df=2.0 * p.alpha0).logpdf(t)
    assert np.max(np.abs(logpdf_mv_t(p, t) - want)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pearson2_at_a_vector_block_is_its_closed_form(n):
    # k = 1, beta = 1: Gamma(a0 + n/2) / (Gamma(a0) pi^{n/2}) (1 - ||r||^2)^{a0 - 1}
    a0 = 1.3
    p = MvTParams(dims=(n,), alpha0=a0, betas=(1.0,))
    r = np.random.default_rng(17).uniform(-0.57, 0.57, (200, n))  # inside the unit ball
    const = math.lgamma(a0 + n / 2) - math.lgamma(a0) - (n / 2) * math.log(math.pi)
    want = [const + (a0 - 1.0) * math.log1p(-float(x @ x)) for x in r]
    assert np.max(np.abs(logpdf_mv_pearson2(p, r) - want)) <= 1e-12


# ---------------------------------------------------------------------------
# generalized gamma and the beta families


def test_gengamma_exponential_anchor():
    p = ScaleShapeParams(shapes=(1.0,), scales=(1.0,))
    got = logpdf_mv_gengamma(p, GAUSS, np.array([2.0]))
    assert abs(got - (-math.log(2.0) - 1.0)) < 1e-12


def test_gengamma_gaussian_is_gamma():
    rng = np.random.default_rng(16)
    for alpha, sigma2 in ((1.0, 1.0), (2.3, 1.44), (0.7, 3.0)):
        p = ScaleShapeParams(shapes=(alpha,), scales=(sigma2,))
        law = stats.gamma(a=alpha, scale=2.0 * sigma2)
        for _ in range(20):
            u = float(rng.uniform(0.05, 8.0))
            assert abs(logpdf_mv_gengamma(p, GAUSS, np.array([u])) - law.logpdf(u)) < 1e-12


def test_gengamma_scaling_equivariance():
    # scaling all sigma^2 by c scales u by c; the log-Jacobian is k log c
    rng = np.random.default_rng(17)
    spec = Kotz(r=0.7, q=1.4, s=1.2)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        al = rng.uniform(0.5, 3.0, k)
        s2 = rng.uniform(0.5, 2.5, k)
        u = rng.uniform(0.2, 4.0, k)
        c = float(rng.uniform(0.3, 3.0))
        lhs = logpdf_mv_gengamma(ScaleShapeParams(tuple(al), tuple(c * s2)), spec, u)
        rhs = logpdf_mv_gengamma(ScaleShapeParams(tuple(al), tuple(s2)), spec, u / c) - k * math.log(c)
        assert abs(lhs - rhs) < 1e-10


def test_gengamma_gaussian_factorizes():
    rng = np.random.default_rng(18)
    al = (1.2, 0.8, 2.5)
    s2 = (1.0, 2.0, 0.5)
    p = ScaleShapeParams(shapes=al, scales=s2)
    for _ in range(20):
        u = rng.uniform(0.1, 5.0, 3)
        joint = logpdf_mv_gengamma(p, GAUSS, u)
        parts = sum(
            logpdf_mv_gengamma(ScaleShapeParams((a,), (s,)), GAUSS, u[i : i + 1])
            for i, (a, s) in enumerate(zip(al, s2))
        )
        assert abs(joint - parts) < 1e-12


def test_beta1_uniform_and_beta_closed_form():
    uni = BetaParams(shape=ExtendedShape(alphas=(1.0,), alpha0=1.0), betas=(1.0,))
    for b in (0.1, 0.5, 0.93):
        assert abs(logpdf_mv_beta1(uni, np.array([b]))) < 1e-12
    rng = np.random.default_rng(19)
    for a1, a0 in ((0.5, 1.0), (2.0, 3.5), (1.2, 0.8)):
        p = BetaParams(shape=ExtendedShape(alphas=(a1,), alpha0=a0), betas=(1.0,))
        law = stats.beta(a1, a0)
        for _ in range(20):
            b = float(rng.uniform(0.02, 0.98))
            assert abs(logpdf_mv_beta1(p, np.array([b])) - law.logpdf(b)) < 1e-12


def test_beta1_outside_unit_cube_is_minus_inf():
    p = BetaParams(shape=ExtendedShape(alphas=(1.0, 2.0), alpha0=1.5), betas=(1.0, 2.0))
    assert logpdf_mv_beta1(p, np.array([0.5, 1.0])) == -math.inf
    assert logpdf_mv_beta1(p, np.array([-0.1, 0.5])) == -math.inf


def test_beta2_closed_forms():
    p = BetaParams(shape=ExtendedShape(alphas=(1.0,), alpha0=1.0), betas=(1.0,))
    assert abs(logpdf_mv_beta2(p, np.array([1.0])) - (-2.0 * math.log(2.0))) < 1e-12
    for f in (0.1, 0.7, 2.5):
        assert abs(logpdf_mv_beta2(p, np.array([f])) - (-2.0 * math.log1p(f))) < 1e-12
    rng = np.random.default_rng(20)
    for a1, a0, beta in ((2.0, 1.5, 1.0), (0.8, 2.2, 3.0)):
        pb = BetaParams(shape=ExtendedShape(alphas=(a1,), alpha0=a0), betas=(beta,))
        law = stats.betaprime(a1, a0)
        for _ in range(20):
            f = float(rng.uniform(0.05, 6.0))
            # f/beta follows the beta-prime law, so the density carries 1/beta
            want = law.logpdf(f / beta) - math.log(beta)
            assert abs(logpdf_mv_beta2(pb, np.array([f])) - want) < 1e-12


def test_beta2_rejects_nonpositive():
    p = BetaParams(shape=ExtendedShape(alphas=(1.0,), alpha0=1.0), betas=(1.0,))
    with pytest.raises(NonPositiveInput):
        logpdf_mv_beta2(p, np.array([0.0]))


def test_reduction_chain_scalar_blocks():
    # t -> r = t/sqrt(1+t^2) -> b = r^2 and t -> f = t^2, with alpha_1 = 1/2
    pt = MvTParams(dims=(1,), alpha0=1.3, betas=(1.7,))
    pb = BetaParams(shape=ExtendedShape(alphas=(0.5,), alpha0=1.3), betas=(1.7,))
    rng = np.random.default_rng(21)
    for _ in range(20):
        t = float(rng.uniform(0.05, 3.0))
        f = t * t
        lf = logpdf_mv_beta2(pb, np.array([f]))
        # two-sided symmetric parent halves against the 2t Jacobian
        assert abs(lf - (logpdf_mv_t(pt, np.array([t])) - math.log(t))) < 1e-10
        r = t / math.sqrt(1.0 + t * t)
        b = r * r
        lb = logpdf_mv_beta1(pb, np.array([b]))
        assert abs(lb - (logpdf_mv_pearson2(pt, np.array([r])) - math.log(r))) < 1e-10


def _polar_terms(dims, f):
    """sum_i lgamma(n_i/2) - (n_i/2) log pi - (n_i/2 - 1) log f_i: the log
    density of a spherical block at t_i less that of f_i = ||t_i||^2, from
    the per-block polar decomposition (Fang, Kotz & Ng 1990, ch. 2)."""
    return sum(math.lgamma(n / 2.0) - n / 2.0 * math.log(math.pi)
               - (n / 2.0 - 1.0) * np.log(f[:, i]) for i, n in enumerate(dims))


def _block_sqnorm_columns(dims, t):
    """f_i = ||t_i||^2 per block, by a plain loop over the layout."""
    ends = np.cumsum(dims)
    return np.column_stack([np.sum(t[:, e - n:e] ** 2, axis=1) for n, e in zip(dims, ends)])


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (1, 2, 1)], ids=str)
def test_reduction_chain_vector_blocks(dims):
    # a root law at vector blocks t is its scalar counterpart at
    # f_i = ||t_i||^2 with alphas n_i/2, plus the polar terms; the same map
    # takes the Pearson II images at r to the beta I images at b_i = ||r_i||^2
    rng = np.random.default_rng(34)
    halves = tuple(n / 2.0 for n in dims)
    betas = tuple(rng.uniform(0.5, 2.0, len(dims)))
    t = rng.normal(0.0, 1.2, (60, sum(dims)))
    r = t / np.sqrt(1.0 + np.repeat(_block_sqnorm_columns(dims, t), dims, axis=1))
    f, b = _block_sqnorm_columns(dims, t), _block_sqnorm_columns(dims, r)
    s0 = rng.uniform(0.1, 5.0, len(t))
    pt = MvTParams(dims=dims, alpha0=1.3, betas=betas)
    pb = BetaParams(shape=ExtendedShape(alphas=halves, alpha0=1.3), betas=betas)
    gaps = [logpdf_mv_t(pt, t) - logpdf_mv_beta2(pb, f) - _polar_terms(dims, f),
            logpdf_mv_pearson2(pt, r) - logpdf_mv_beta1(pb, b) - _polar_terms(dims, b)]
    sigma2s = (1.4, *rng.uniform(0.5, 2.0, len(dims)))
    for spec in (Kotz(r=0.7, q=1.3, s=1.1), PearsonVII(r=2.0, q=6.0), Bessel(r=0.8, q=0.4)):
        pv = JointScaleParams(spec=spec, alpha0=1.8, sigma2s=sigma2s, dims=dims)
        ps = JointScaleParams(spec=spec, alpha0=1.8, sigma2s=sigma2s, alphas=halves)
        gaps += [logpdf_gengamma_pearson7(pv, s0, t) - logpdf_gengamma_beta2(ps, s0, f)
                 - _polar_terms(dims, f),
                 logpdf_gengamma_pearson2(pv, s0, r) - logpdf_gengamma_beta1(ps, s0, b)
                 - _polar_terms(dims, b)]
    assert max(float(np.max(np.abs(g))) for g in gaps) < 1e-10


# ---------------------------------------------------------------------------
# joint (s0, blocks) families


def test_pearson7_joint_marginalizes_to_mv_t():
    pj = JointScaleParams(spec=GAUSS, alpha0=1.0, sigma2s=(1.0, 2.0), dims=(1,))
    pt = MvTParams(dims=(1,), alpha0=1.0, betas=(2.0,))
    for tv in (-1.5, -0.3, 0.4, 1.1, 2.8):
        val, _ = integrate.quad(
            lambda s0: math.exp(logpdf_gengamma_pearson7(pj, s0, np.array([tv]))),
            0.0, np.inf, limit=200,
        )
        assert abs(val - math.exp(logpdf_mv_t(pt, np.array([tv])))) < 1e-5


def test_pearson7_joint_no_blocks_is_scaled_chi2():
    # with no blocks only s0 remains: Gamma(alpha0, 2 sigma0^2) under Gaussian h
    p = JointScaleParams(spec=GAUSS, alpha0=1.5, sigma2s=(2.0,), dims=())
    s0 = np.array([0.5, 1.0, 3.0, 7.0])
    got = logpdf_gengamma_pearson7(p, s0, np.zeros((4, 0)))
    want = stats.gamma.logpdf(s0, a=1.5, scale=4.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_pearson2_joint_change_of_variables():
    pj = JointScaleParams(spec=Kotz(r=0.8, q=1.2, s=1.0), alpha0=1.5, sigma2s=(1.0, 0.7, 1.3), dims=(1, 1))
    rng = np.random.default_rng(22)
    for _ in range(20):
        s0 = float(rng.uniform(0.2, 4.0))
        r = rng.uniform(-0.9, 0.9, 2)
        t = r / np.sqrt(1.0 - r**2)
        jac = float(np.sum((0.5 + 1.0) * np.log(1.0 - r**2)))
        got = logpdf_gengamma_pearson2(pj, s0, r)
        want = logpdf_gengamma_pearson7(pj, s0, t) - jac
        assert abs(got - want) < 1e-12


def test_beta_joints_marginalize_to_beta_families():
    pj = JointScaleParams(spec=GAUSS, alpha0=1.5, sigma2s=(1.0, 0.8), alphas=(1.2,))
    pb = BetaParams(shape=ExtendedShape(alphas=(1.2,), alpha0=1.5), betas=(0.8,))
    for bv in (0.1, 0.35, 0.6, 0.9):
        val, _ = integrate.quad(
            lambda s0: math.exp(logpdf_gengamma_beta1(pj, s0, np.array([bv]))),
            0.0, np.inf, limit=200,
        )
        assert abs(val - math.exp(logpdf_mv_beta1(pb, np.array([bv])))) < 1e-4
    for fv in (0.2, 0.8, 1.7, 4.0):
        val, _ = integrate.quad(
            lambda s0: math.exp(logpdf_gengamma_beta2(pj, s0, np.array([fv]))),
            0.0, np.inf, limit=200,
        )
        assert abs(val - math.exp(logpdf_mv_beta2(pb, np.array([fv])))) < 1e-4


# ---------------------------------------------------------------------------
# non-finite coordinates: zero density, never NaN


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_coordinates_give_minus_inf(bad):
    ell = MvEllipticalParams(partition=Partition(dims=(2, 1)), mus=(np.zeros(2), np.ones(1)),
                             sigmas=(np.array([[1.0, 0.3], [0.3, 0.8]]), np.eye(1)))
    x = np.array([[0.1, bad, 0.2], [0.1, 0.2, 0.3]])
    for spec in (GAUSS, PearsonVII(r=3.0, q=2.5), Bessel(r=1.0, q=0.3)):
        out = logpdf_mv_elliptical(ell, spec, x)
        assert out[0] == -math.inf and math.isfinite(out[1])
        assert logpdf_mv_elliptical(ell, spec, x[0]) == -math.inf
    mixed = MixedParams(base=ell, k1=1)
    assert logpdf_mixed_ell_logell(mixed, GAUSS, np.array([0.1, bad]), np.array([1.5])) == -math.inf
    pt = MvTParams(dims=(1, 2), alpha0=1.6, betas=(1.0, 2.5))
    assert logpdf_mv_t(pt, x[0]) == -math.inf
    pj = JointScaleParams(spec=GAUSS, alpha0=1.5, sigma2s=(1.0, 0.8, 1.2), dims=(1, 1))
    assert logpdf_gengamma_pearson7(pj, 1.0, np.array([0.4, bad])) == -math.inf


def test_gengamma_beta2_vanishes_at_an_infinite_block():
    pj = JointScaleParams(spec=PearsonVII(r=2.0, q=4.5), alpha0=1.3, sigma2s=(1.0, 0.9),
                          alphas=(1.1,))
    out = logpdf_gengamma_beta2(pj, np.array([1.0, 1.0]), np.array([[math.inf], [0.5]]))
    assert out[0] == -math.inf and math.isfinite(out[1])


# ---------------------------------------------------------------------------
# gamma / log-gamma


def test_gamma_loggamma_reduces_to_gengamma():
    p = GammaLogGammaParams(spec=Kotz(r=0.6, q=1.1, s=1.3), alphas=(1.5, 0.9), sigma2s=(1.0, 2.0))
    ps = ScaleShapeParams(shapes=(1.5, 0.9), scales=(1.0, 2.0))
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = rng.uniform(0.1, 5.0, 2)
        assert logpdf_gamma_loggamma(p, u=u) == logpdf_mv_gengamma(ps, p.spec, u)


def test_log_gamma_change_of_variables():
    # y = log u with u ~ Gamma(rho, 2 delta^2): f_y(y) = f_u(e^y) e^y
    p = GammaLogGammaParams(spec=GAUSS, rhos=(1.7,), delta2s=(0.9,))
    law = stats.gamma(a=1.7, scale=1.8)
    for y in (-2.0, -0.5, 0.0, 0.8, 2.0):
        got = logpdf_gamma_loggamma(p, y=np.array([y]))
        want = law.logpdf(math.exp(y)) + y
        assert abs(got - want) < 1e-12


def test_gamma_loggamma_mixed_blocks_normalizes():
    p = GammaLogGammaParams(spec=GAUSS, alphas=(1.2,), sigma2s=(1.5,), rhos=(0.8,), delta2s=(1.0,))
    rep = quad_normalization(
        lambda x: logpdf_gamma_loggamma(p, u=x[:, :1], y=x[:, 1:]),
        [(0.0, np.inf), (-np.inf, np.inf)], 1e-4, "gamma-loggamma-1p1",
    )
    assert rep.passed, rep.details


def test_gamma_loggamma_checks_its_generator_at_the_density_dimension():
    # the shapes (0.05, 0.1, 1.0) add to 1.15 in order, as the density and the
    # sampler add alphas + rhos, but to 1.1500000000000001 as alphas, then
    # rhos.  Over these six q, one ulp apart, 2q + n > 2 holds at n = 2.3
    # only for the last, and at n = 2.3000000000000003 for all six: the
    # params must refuse exactly the q the density and the sampler refuse
    shapes = dict(alphas=(0.05,), sigma2s=(1.0,), rhos=(0.1, 1.0), delta2s=(1.0, 1.0))
    q, built = -0.1499999999999999, []
    for _ in range(6):
        try:
            p = GammaLogGammaParams(spec=Kotz(q=q), **shapes)
        except ParameterOutOfDomain as exc:
            assert str(exc) == f"Kotz needs 2q + n > 2, got q={q} at n=2.3"
            built.append(False)
        else:
            assert p.total_shape == 1.15
            assert math.isfinite(logpdf_gamma_loggamma(p, u=[0.7], y=[-0.2, 0.4]))
            with np.errstate(divide="ignore"):  # W ~ Gamma(nu) at nu ~ 1e-16 may round to 0
                assert sample_gamma_loggamma(p, make_rng(0), size=4).shape == (4, 3)
            built.append(True)
        q = math.nextafter(q, math.inf)
    assert built == [False] * 5 + [True]


# ---------------------------------------------------------------------------
# image densities against their closed forms
#
# The five image densities are computed as a root's kernel at an inverse map
# plus its log-Jacobian.  The references below are their expanded closed
# forms, with the parent's constant and the Jacobian folded in by hand.

LOG_PI = math.log(math.pi)


def _ref_sqnorms(dims, x):
    blocks = np.split(x, np.cumsum(dims)[:-1], axis=-1)
    return np.stack([np.sum(b * b, axis=-1) for b in blocks], axis=-1)


def _ref_joint(p, s0, log_const, extra, rate, inside):
    ok = (s0 > 0) & np.isfinite(s0) & inside
    s0 = np.where(ok, s0, 1.0)
    a_star = p.alpha_star
    with np.errstate(over="ignore"):
        arg = rate * s0
    out = log_const + (a_star - 1.0) * np.log(s0) + extra + log_h(p.spec, arg, 2.0 * a_star)
    return np.where(ok, out, -np.inf)


def ref_mv_pearson2(p, r):
    sq = _ref_sqnorms(p.dims, r)
    inside = np.all(sq < 1.0, axis=-1)
    sq = np.where(sq < 1.0, sq, 0.5)
    one_m = 1.0 - sq
    log_one_m = np.log(one_m)
    half_dims = np.asarray(p.dims, dtype=float) / 2.0
    a_star = p.alpha_star
    log_const = (special.gammaln(a_star) - special.gammaln(p.alpha0)
                 - np.sum(half_dims * np.log(p.betas)) - np.sum(half_dims) * LOG_PI)
    ratio = np.sum(sq / (one_m * np.asarray(p.betas)), axis=-1)
    log_bracket = np.sum(log_one_m, axis=-1) + np.log1p(ratio)
    out = (log_const + np.sum((a_star - half_dims - 1.0) * log_one_m, axis=-1)
           - a_star * log_bracket)
    return np.where(inside, out, -np.inf)


def ref_gengamma_pearson2(p, s0, r):
    sq = _ref_sqnorms(p.dims, r)
    inside = np.all(sq < 1.0, axis=-1)
    sq = np.where(sq < 1.0, sq, 0.5)
    one_m = 1.0 - sq
    sigma2 = np.asarray(p.sigma2s)
    rate = 1.0 / sigma2[0] + np.sum(sq / (one_m * sigma2[1:]), axis=-1)
    half_dims = np.asarray(p.dims, dtype=float) / 2.0
    extra = -np.sum((half_dims + 1.0) * np.log(one_m), axis=-1)
    log_const = (p.alpha0 * LOG_PI - special.gammaln(p.alpha0) - p.alpha0 * math.log(sigma2[0])
                 - np.sum(half_dims * np.log(sigma2[1:])))
    return _ref_joint(p, s0, log_const, extra, rate, inside)


def ref_mv_beta1(p, b):
    inside = np.all((b > 0.0) & (b < 1.0), axis=-1)
    b = np.where((b > 0.0) & (b < 1.0), b, 0.5)
    alphas, betas = np.asarray(p.shape.alphas), np.asarray(p.betas)
    log_const = -np.sum(alphas * np.log(betas)) - (
        np.sum(special.gammaln(alphas)) + special.gammaln(p.shape.alpha0)
        - special.gammaln(p.shape.alpha_star))
    one_m = 1.0 - b
    out = (log_const + np.sum((alphas - 1.0) * np.log(b), axis=-1)
           - np.sum((alphas + 1.0) * np.log(one_m), axis=-1)
           - p.shape.alpha_star * np.log1p(np.sum(b / (one_m * betas), axis=-1)))
    return np.where(inside, out, -np.inf)


def ref_gengamma_beta1(p, s0, b):
    inside = np.all((b > 0.0) & (b < 1.0), axis=-1)
    b = np.where((b > 0.0) & (b < 1.0), b, 0.5)
    one_m = 1.0 - b
    alphas, sigma2 = np.asarray(p.alphas), np.asarray(p.sigma2s)
    rate = 1.0 / sigma2[0] + np.sum(b / (one_m * sigma2[1:]), axis=-1)
    extra = np.sum((alphas - 1.0) * np.log(b) - (alphas + 1.0) * np.log(one_m), axis=-1)
    shapes = np.concatenate([[p.alpha0], alphas])
    log_const = p.alpha_star * LOG_PI - np.sum(shapes * np.log(sigma2) + special.gammaln(shapes))
    return _ref_joint(p, s0, log_const, extra, rate, inside)


def ref_gamma_loggamma(p, u, y):
    alphas, sigma2 = np.asarray(p.alphas), np.asarray(p.sigma2s)
    rhos, delta2 = np.asarray(p.rhos), np.asarray(p.delta2s)
    log_const = (p.total_shape * LOG_PI
                 - np.sum(alphas * np.log(sigma2) + special.gammaln(alphas))
                 - np.sum(rhos * np.log(delta2) + special.gammaln(rhos)))
    with np.errstate(over="ignore"):
        arg = np.sum(u / sigma2, axis=-1) + np.sum(np.exp(y) / delta2, axis=-1)
    terms = log_const + np.sum((alphas - 1.0) * np.log(u), axis=-1) + np.sum(rhos * y, axis=-1)
    return terms + log_h(p.spec, arg, 2.0 * p.total_shape)


def _matches(got, want) -> bool:
    """Same -inf set, and equal to 1e-12 relative in the density (absolute in
    its log), or relative in the log where that exceeds 1 in magnitude."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    fin = np.isfinite(want)
    return bool(
        np.array_equal(np.isneginf(got), np.isneginf(want))
        and np.all(np.isfinite(got[fin]))
        and np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * np.maximum(1.0, np.abs(want[fin])))
    )


_MT = MvTParams(dims=(1, 2), alpha0=1.3, betas=(1.2, 0.7))
_BP = BetaParams(shape=ExtendedShape(alphas=(1.0, 2.0), alpha0=1.5), betas=(1.0, 3.0))
_JV = JointScaleParams(spec=Kotz(r=0.7, q=1.3, s=1.1), alpha0=1.8, sigma2s=(0.81, 1.1, 0.7),
                       dims=(1, 2))
_JS = JointScaleParams(spec=PearsonVII(r=2.0, q=4.5), alpha0=1.4, sigma2s=(1.0, 0.64, 1.2),
                       alphas=(1.2, 0.6))
_GL = GammaLogGammaParams(spec=Kotz(r=0.7, q=1.3, s=1.1), alphas=(1.2,), sigma2s=(1.5,),
                          rhos=(0.8, 2.0), delta2s=(1.0, 0.5))
_EDGE = 1e-12


def _ball_points(rng, n):
    """Random points in and around the balls of dims (1, 2), then points
    within 1e-12 of a sphere, on it and beyond it."""
    r = rng.uniform(-1.1, 1.1, (n, 3))
    u = np.array([[0.0, 0.6, 0.8]])
    edge = [[1.0 - _EDGE, 0.2, 0.1], [-(1.0 - _EDGE), 0.0, 0.0], [0.1, *(u[0, 1:] * (1.0 - _EDGE))],
            [1.0 - _EDGE, *(u[0, 1:] * (1.0 - _EDGE))], [1.0, 0.0, 0.0], [0.1, *u[0, 1:]],
            [0.2, 0.9, 0.9], [2.0, 0.0, 0.0]]
    return np.vstack([r, edge])


def _unit_points(rng, n):
    """Random points in and around (0,1)^2, then points within 1e-12 of
    each edge, on it and beyond it."""
    b = rng.uniform(-0.1, 1.1, (n, 2))
    edge = [[_EDGE, 0.5], [1.0 - _EDGE, 0.5], [0.3, _EDGE], [0.3, 1.0 - _EDGE],
            [_EDGE, 1.0 - _EDGE], [0.0, 0.5], [1.0, 0.5], [0.5, -0.2], [0.5, 1.7]]
    return np.vstack([b, edge])


def _image_cases(rng):
    """(name, library density of a batch, reference, batch)."""
    n = 400
    r, b = _ball_points(rng, n), _unit_points(rng, n)
    s0_r = np.concatenate([rng.uniform(-0.5, 6.0, n), np.full(len(r) - n, 1.3)])
    s0_b = np.concatenate([rng.uniform(-0.5, 6.0, n), np.full(len(b) - n, 0.9)])
    u = np.concatenate([rng.uniform(_EDGE, 5.0, n), [_EDGE, 1.0, 1.0, 30.0]])[:, None]
    y = np.vstack([rng.normal(0.0, 3.0, (n, 2)), [[0.0, 0.0], [-30.0, 30.0], [800.0, 0.0],
                                                  [-800.0, 1.0]]])
    return [
        ("mv-pearson2", lambda x: logpdf_mv_pearson2(_MT, x),
         lambda x: ref_mv_pearson2(_MT, x), r),
        ("gengamma-pearson2", lambda x: logpdf_gengamma_pearson2(_JV, x[..., 0], x[..., 1:]),
         lambda x: ref_gengamma_pearson2(_JV, x[..., 0], x[..., 1:]), np.column_stack([s0_r, r])),
        ("mv-beta1", lambda x: logpdf_mv_beta1(_BP, x), lambda x: ref_mv_beta1(_BP, x), b),
        ("gengamma-beta1", lambda x: logpdf_gengamma_beta1(_JS, x[..., 0], x[..., 1:]),
         lambda x: ref_gengamma_beta1(_JS, x[..., 0], x[..., 1:]), np.column_stack([s0_b, b])),
        ("gamma-loggamma", lambda x: logpdf_gamma_loggamma(_GL, u=x[..., :1], y=x[..., 1:]),
         lambda x: ref_gamma_loggamma(_GL, x[..., :1], x[..., 1:]), np.column_stack([u, y])),
    ]


@pytest.mark.parametrize("case", range(5))
def test_image_density_matches_its_closed_form(case):
    name, got, want, x = _image_cases(np.random.default_rng(41))[case]
    ref = want(x)
    assert _matches(got(x), ref), name
    if name != "gamma-loggamma":
        assert np.isneginf(ref).sum() >= 5 and np.isfinite(ref).sum() >= 100
    for i in range(len(x) - 12, len(x)):  # scalar calls, edge and off-support rows included
        one = got(x[i])
        assert isinstance(one, float) and _matches(one, ref[i]), (name, x[i])


def test_the_closed_form_comparison_catches_a_ball_jacobian_off_by_a_half(monkeypatch):
    from multivec import densities

    ball_map = densities._ball_map

    def off_by_half(dims, r):
        sq_t, log_jac, inside = ball_map(dims, r)
        # exponent n_i/2 + 1/2 in place of n_i/2 + 1 on 1 - ||r_i||^2 = 1/(1 + ||t_i||^2)
        return sq_t, log_jac - 0.5 * np.sum(np.log1p(sq_t), axis=-1), inside

    monkeypatch.setattr(densities, "_ball_map", off_by_half)
    for name, got, want, x in _image_cases(np.random.default_rng(41))[:2]:
        assert not _matches(got(x), want(x)), name


# ---------------------------------------------------------------------------
# short block axes are summed column by column, bit for bit


def _short_axis_arrays(k):
    """Batched arrays with a last axis of k, signs and magnitudes mixed, and
    rows holding +inf, -inf, both, and NaN; one C-ordered, one not."""
    rng = np.random.default_rng(k)
    a = rng.standard_normal((6, 5, k)) * 10.0 ** rng.integers(-12, 13, (6, 5, k))
    if k:
        a[0, 0, 0], a[0, 1, -1], a[0, 2, 0], a[0, 3, -1] = np.inf, -np.inf, np.nan, -0.0
        a[0, 4, :] = -0.0
        a[1, 0, 0], a[1, 0, -1] = np.inf, -np.inf
    return [a, a[0, 0], np.asfortranarray(a), a[:, ::2]]


@pytest.mark.parametrize("k", range(9))
def test_short_axis_reductions_equal_numpy_bit_for_bit(k):
    from multivec.core import _SHORT_AXIS, _all_last, _sum_last

    for a in _short_axis_arrays(k):
        # numpy's own sum below _SHORT_AXIS columns, in every layout; from
        # there up, its sum of the C-ordered rows, which does not depend on
        # the layout
        rows = a if k < _SHORT_AXIS else np.ascontiguousarray(a)
        with np.errstate(invalid="ignore"):  # inf - inf
            got, want = np.asarray(_sum_last(a)), np.asarray(np.sum(rows, axis=-1))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), a.shape
        for mask in (a > 0, np.isfinite(a), a == a):
            got, want = np.asarray(_all_last(mask)), np.asarray(np.all(mask, axis=-1))
            assert got.shape == want.shape and np.array_equal(got, want), a.shape


def _grid_641(support):
    """The 641 x 641 tensor grid of the 2-d pushforward check over a box
    inside the support."""
    axes = [np.geomspace(1e-3, 20.0, 641) if lo == 0.0 and hi == np.inf
            else np.linspace(max(lo, -6.0) + 1e-3, min(hi, 6.0) - 1e-3, 641)
            for lo, hi in support]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("suffix", ["gamma-loggamma-1p1", "gengamma-beta1-k1", "mixed-1p1"])
def test_column_sums_keep_the_densities_bits_on_the_pushforward_grid(suffix, monkeypatch):
    from multivec import core, densities
    from multivec.families import FAMILIES
    from multivec.validation import _fixtures

    fx = next(f for f in _fixtures() if f.suffix == suffix and f.push)
    logpdf = FAMILIES[fx.family].logpdf
    x = _grid_641(fx.support)
    got = logpdf(fx.params, x)

    def numpy_sum(a, c=None, op=np.multiply, out=None):
        return np.sum(a if c is None else op(a, c), axis=-1, out=out)

    for module in (core, densities):  # the reductions as numpy writes them
        monkeypatch.setattr(module, "_sum_last", numpy_sum)
        monkeypatch.setattr(module, "_all_last", lambda a: np.all(a, axis=-1))
    want = logpdf(fx.params, x)
    assert np.isfinite(want).mean() > 0.99
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(1, 10))
def test_scaled_column_sums_equal_the_broadcast_ones_bit_for_bit(k):
    from multivec.core import _sum_last

    rng = np.random.default_rng(100 + k)
    scales = [rng.uniform(0.1, 5.0, k), np.full(k, 5e-324), rng.uniform(-2.0, 2.0, k)]
    scales[2][::2] = [-0.0, np.inf, np.nan, -np.inf, 5e-324][: len(scales[2][::2])]
    for a in _short_axis_arrays(k):
        a = a.copy()
        a.flat[::7] = 4e-320  # subnormal entries
        for c in [*scales, a]:  # a itself: the squares
            for op in (np.multiply, np.divide):
                with np.errstate(all="ignore"):
                    got = np.asarray(_sum_last(a, c, op))
                    want = np.asarray(_sum_last(op(a, c)))
                assert got.shape == want.shape, a.shape
                assert [v.hex() for v in got.ravel().tolist()] == [
                    v.hex() for v in want.ravel().tolist()], (a.shape, c, op)


def _layout_points(support, rng):
    """40 points inside the box of the support, then points with one
    coordinate off it (past a finite end, or infinite on a line) and points
    with one NaN coordinate."""
    box = [(max(lo, -6.0), min(hi, 6.0)) for lo, hi in support]
    inside = np.column_stack([lo + (hi - lo) * rng.uniform(0.02, 0.98, 40) for lo, hi in box])
    edge = []
    for j, (lo, hi) in enumerate(support):
        for bad in ((lo - 0.5, hi + 0.5, lo, np.nan) if np.isfinite(lo) and np.isfinite(hi)
                    else (lo - 0.5, np.inf, np.nan) if np.isfinite(lo)
                    else (-np.inf, np.inf, np.nan)):
            row = inside[0].copy()
            row[j] = bad
            edge.append(row)
    return inside, np.array(edge)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_layout_of_a_batch_gives_the_same_bits(name):
    # the kernels work column by column: a row-major batch, the same batch
    # block-major, and its points one at a time (0-d columns) agree bit for bit
    from multivec.validation import _fixtures

    family = FAMILIES[name]
    fixtures = [f for f in _fixtures() if FAMILIES[f.family].density is family.density]
    assert fixtures
    off_support = 0  # points off the support or with a NaN coordinate, at -inf
    for fx in fixtures:
        inside, edge = _layout_points(fx.support, np.random.default_rng(len(fx.suffix)))
        keep = []
        for row in edge:  # a point the density rejects cannot ride in a batch
            try:
                family.logpdf(fx.params, row)
            except MultivecError:
                continue
            keep.append(row)
        x = np.concatenate([inside, np.array(keep).reshape(-1, inside.shape[1])])
        row_major = family.logpdf(fx.params, x)
        block_major = family.logpdf(fx.params, np.ascontiguousarray(x.T).T)
        single = [family.logpdf(fx.params, point) for point in x]
        hexes = [float(v).hex() for v in row_major]
        assert [float(v).hex() for v in block_major] == hexes, fx.suffix
        assert [float(v).hex() for v in single] == hexes, fx.suffix
        assert np.isfinite(row_major[: len(inside)]).all(), fx.suffix
        off_support += int(np.isneginf(row_major[len(inside):]).sum())
    # the other families raise NonPositiveInput or ParameterOutOfDomain there
    if name not in ("gamma-loggamma", "kotz-gamma", "log-elliptical", "mv-beta2", "mv-gengamma"):
        assert off_support > 0


def _many_block_params(name, k):
    """params of law `name` at k blocks, a 9-dim block first where the law
    takes vector blocks (the log blocks, for the mixed law)."""
    shapes = tuple(1.0 + 0.15 * i for i in range(k))
    scales = tuple(0.5 + 0.2 * i for i in range(k))
    dims = (9,) + (1,) * (k - 1)
    a = np.random.default_rng(9).standard_normal((9, 9))
    sigmas = [a @ a.T / 9.0 + np.eye(9)] + [np.array([[s]]) for s in scales[1:]]
    ell = MvEllipticalParams(Partition(dims), tuple(np.full(d, 0.1) for d in dims), tuple(sigmas))
    mixed = MvEllipticalParams(Partition((1,) + dims[:-1]), ell.mus[-1:] + ell.mus[:-1],
                               tuple(sigmas[-1:] + sigmas[:-1]))
    beta = BetaParams(shape=ExtendedShape(alphas=shapes, alpha0=1.5), betas=scales)
    h = k // 2
    return {
        "mv-gengamma": (ScaleShapeParams(shapes, scales), GAUSS),
        "kotz-gamma": (ScaleShapeParams(shapes, scales), Kotz(q=1.2, r=0.8, s=0.9)),
        "mv-elliptical": (ell, GAUSS),
        "log-elliptical": (ell, GAUSS),
        "mixed-ell-logell": (MixedParams(base=mixed, k1=1), GAUSS),
        "mv-t": (MvTParams(dims=dims, alpha0=1.6, betas=scales),),
        "mv-pearson2": (MvTParams(dims=dims, alpha0=1.6, betas=scales),),
        "mv-beta1": (beta,),
        "mv-beta2": (beta,),
        "gengamma-pearson7": (JointScaleParams(GAUSS, 1.5, (1.0,) + scales, dims=dims),),
        "gengamma-pearson2": (JointScaleParams(GAUSS, 1.5, (1.0,) + scales, dims=dims),),
        "gengamma-beta1": (JointScaleParams(GAUSS, 1.5, (1.0,) + scales, alphas=shapes),),
        "gengamma-beta2": (JointScaleParams(GAUSS, 1.5, (1.0,) + scales, alphas=shapes),),
        "gamma-loggamma": (GammaLogGammaParams(GAUSS, shapes[:h], scales[:h], shapes[h:],
                                               scales[h:]),),
    }[name]


@pytest.mark.parametrize("k", [8, 10])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_batch_gives_each_point_its_own_bits_at_eight_blocks_and_more(name, k):
    # the per-row sums of 8 or more terms follow each row, not the batch's
    # memory layout: row-major, block-major and one point at a time agree
    family, params = FAMILIES[name], _many_block_params(name, k)
    draws = FAMILIES["mv-gengamma" if name == "kotz-gamma" else name]  # it draws pairs
    rng = np.random.default_rng(k)
    x = draws.sample(params, rng, 200)
    if name in ("mv-gengamma", "kotz-gamma", "mv-beta2"):  # sums over the scales overflow
        x = np.concatenate([x, rng.uniform(0.5, 1.0, (20, x.shape[1])) * 1e308])
    row_major = family.logpdf(params, x)
    block_major = family.logpdf(params, np.ascontiguousarray(x.T).T)
    single = [family.logpdf(params, point) for point in x]
    hexes = [float(v).hex() for v in row_major]
    assert np.isfinite(row_major[:200]).all()
    assert [float(v).hex() for v in block_major] == hexes
    assert [float(v).hex() for v in single] == hexes


# the positive values of the edge grid of floating point; an axis of the real
# line takes them with both signs and 0
_EDGE_VALUES = [5e-324, 1e-300, 1e-160, 0.5, 1.0, 1.0 - 2.0**-53, 1e8, 1e154, 1e200, 1e300,
                1.7e308]


@pytest.mark.parametrize("name", ["mv-gengamma", "mv-beta2", "gengamma-beta2", "gamma-loggamma"])
def test_blocks_that_overflow_their_scale_are_silent_at_the_edges(name):
    # near 1.7e308 a block over its scale, or a sum of such terms, overflows
    # to +inf, which the density reads as -inf: no warning, no NaN
    from multivec.validation import _fixtures

    signed = sorted({0.0, *_EDGE_VALUES, *(-v for v in _EDGE_VALUES)})
    logpdf = FAMILIES[name].logpdf
    fixtures = [f for f in _fixtures() if f.family == name]
    assert fixtures
    for fx in fixtures:
        x = np.array(list(itertools.product(
            *[_EDGE_VALUES if lo == 0.0 else signed for lo, _ in fx.support])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = logpdf(fx.params, x)
            single = np.array([logpdf(fx.params, point) for point in x])
        assert batch.tobytes() == single.tobytes(), fx.suffix
        assert not np.isnan(batch).any() and not (batch == np.inf).any(), fx.suffix


def test_mv_beta2_stays_finite_where_its_scaled_sum_overflows():
    # f_2 / beta_2 = 2.1e308 overflows; the log density there is about -3262.7
    import mpmath

    from multivec.validation import _fixture

    (p,) = _fixture("mv-beta2-k2").params
    f = (1.0, 1.7e308)
    with mpmath.workdps(40):
        a, a0, b = [mpmath.mpf(v) for v in p.shape.alphas], mpmath.mpf(p.shape.alpha0), p.betas
        a_star = a0 + sum(a)
        want = (mpmath.loggamma(a_star) - mpmath.loggamma(a0)
                - sum(mpmath.loggamma(ai) + ai * mpmath.log(bi) for ai, bi in zip(a, b))
                + sum((ai - 1) * mpmath.log(fi) for ai, fi in zip(a, f))
                - a_star * mpmath.log(1 + sum(mpmath.mpf(fi) / bi for fi, bi in zip(f, b))))
    got = logpdf_mv_beta2(p, np.array(f))
    assert math.isfinite(got) and abs(got - float(want)) <= 1e-9
    # a batch gives the same bits as the point, next to an in-range row
    batch = logpdf_mv_beta2(p, np.array([[0.5, 2.0], f]))
    assert batch[1] == got and batch[0] == logpdf_mv_beta2(p, np.array([0.5, 2.0]))


def _mv_t_reference(p: MvTParams, t) -> float:
    """logpdf_mv_t(p, t) in 40-digit mpmath."""
    import mpmath

    with mpmath.workdps(40):
        a0, half_total = mpmath.mpf(p.alpha0), mpmath.mpf(p.total) / 2
        bracket = log_const = 0
        for blk, d, b in zip(np.split(np.asarray(t, dtype=float), np.cumsum(p.dims)[:-1]),
                             p.dims, p.betas):
            bracket += sum(mpmath.mpf(x) ** 2 for x in blk) / b
            log_const -= mpmath.mpf(d) / 2 * mpmath.log(b)
        log_const += (mpmath.loggamma(a0 + half_total) - mpmath.loggamma(a0)
                      - half_total * mpmath.log(mpmath.pi))
        return float(log_const - (a0 + half_total) * mpmath.log1p(bracket))


def test_mv_t_stays_finite_past_the_overflow_of_its_squares():
    # past about 1.3e154 a coordinate's square overflows, where the log
    # density is finite: -1428.7474875421576 at (1e155, 0), -1844.599098642206
    # at (1e200, 1e200) and -2764.246841478704 at (3, -1e300)
    from multivec import densities

    cases = [
        (MvTParams(dims=(1, 1), alpha0=1.0, betas=(1.0, 1.0)),
         [(1e155, 0.0), (1e200, 1e200), (3.0, -1e300), (1e154, 0.0)]),
        (MvTParams(dims=(2, 3), alpha0=1.5, betas=(2.0, 0.5)),
         [(1e160, -3e159, 2.0, 5e200, -1e199), (0.0, 0.0, 1e300, 0.0, -2e299), (1.0, 2.0, 3.0, 4.0, 5.0)]),
    ]
    for p, points in cases:
        x = np.array(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = logpdf_mv_t(p, x)
            single = np.array([logpdf_mv_t(p, point) for point in x])
        assert batch.tobytes() == single.tobytes()
        for got, point in zip(batch, points):
            want = _mv_t_reference(p, point)
            assert abs(got - want) <= 1e-12 * abs(want), (point, got, want)
        # a row whose bracket is finite keeps the bits of the plain log1p path
        sq = densities._sqnorms_by_dims(p.dims, x, "t")
        plain = densities._mv_t_at(p, sq)
        in_range = np.isfinite(plain)
        assert in_range.any() and not in_range.all()
        assert batch[in_range].tobytes() == plain[in_range].tobytes()
    # an infinite or NaN coordinate still reads -inf
    p = cases[0][0]
    assert np.all(logpdf_mv_t(p, np.array([[math.inf, 0.0], [math.nan, 1e200], [-math.inf, 1e300]]))
                  == -np.inf)


def test_every_family_at_the_edges_of_floating_point(monkeypatch):
    # each fixture on the grid +-{0, 5e-324, ..., 1.7e308}^d: batched, one
    # point at a time, and tiled past the split threshold, so that chunks on
    # pool threads meet the edges too.  No warning, no NaN, no +inf, and
    # every error a MultivecError; a tiled batch repeats the batch's bits
    from multivec.core import _CHUNK
    from multivec.validation import _fixtures

    monkeypatch.setenv("MULTIVEC_THREADS", "2")
    signed = sorted({0.0, *_EDGE_VALUES, *(-v for v in _EDGE_VALUES)})

    def value_or_error(logpdf, x):
        try:
            return np.asarray(logpdf(x))
        except MultivecError as exc:
            return exc

    seen = set()
    for fx in _fixtures():
        if fx.suffix in seen:
            continue
        seen.add(fx.suffix)
        logpdf = lambda x, fx=fx: FAMILIES[fx.family].logpdf(fx.params, x)  # noqa: E731
        x = np.array(list(itertools.product(signed, repeat=len(fx.support))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = value_or_error(logpdf, x)
            tiled = value_or_error(logpdf, np.tile(x, (_CHUNK // len(x) + 1, 1)))
            single = [value_or_error(logpdf, point) for point in x]
        values = [v for v in [batch, tiled, *single] if isinstance(v, np.ndarray)]
        assert values, fx.suffix
        for v in values:
            assert not np.isnan(v).any() and not (v == np.inf).any(), fx.suffix
        if isinstance(batch, MultivecError):
            assert (type(tiled), str(tiled)) == (type(batch), str(batch)), fx.suffix
        else:
            assert tiled.tobytes() == np.tile(batch, len(tiled) // len(batch)).tobytes(), fx.suffix
            assert np.array(single).tobytes() == batch.tobytes(), fx.suffix


# ---------------------------------------------------------------------------
# long batches split over the shared chunk pool


def _split_fixtures():
    """Each oracle fixture once, with its family and 1e5 of its own draws
    (1e4 draws tiled ten times)."""
    from multivec.validation import _fixtures

    seen, out = set(), []
    for fx in _fixtures():
        if fx.suffix not in seen:
            seen.add(fx.suffix)
            family = FAMILIES[fx.family]
            draws = family.sample(fx.params, np.random.default_rng(len(fx.suffix)), 10_000)
            out.append((fx, family, np.tile(draws, (10, 1))))
    return out


def test_a_split_batch_gives_the_bits_of_the_whole_call(monkeypatch):
    # joint (s0, t), mixed (x, v) and (u, y) layouts included: every range
    # of 1e5 rows, on the caller or a pool thread, writes the whole call's bits
    from dataclasses import replace

    from multivec import core

    cases = [(fx, family, x, replace(family, density=family.density.__wrapped__).logpdf(fx.params, x))
             for fx, family, x in _split_fixtures()]
    for width in ("1", "2", "3"):
        monkeypatch.setenv("MULTIVEC_THREADS", width)
        monkeypatch.setattr(core, "_pool", None)
        for fx, family, x, whole in cases:
            got = family.logpdf(fx.params, x)
            assert got.shape == whole.shape and got.tobytes() == whole.tobytes(), (width, fx.suffix)
        assert (core._pool is None) == (width == "1")


def test_a_split_batch_holds_one_ranges_temporaries_at_a_time(monkeypatch):
    # one thread takes the ranges in turn: a call over 4 * _CHUNK rows traces
    # its output and what one call of _RANGE rows traces, within 16 kB (it
    # read 1.8-4.3 kB over); ranges of _CHUNK rows traced about one such
    # call's peak more
    import tracemalloc

    from multivec.core import _CHUNK
    from multivec.densities import _RANGE

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setenv("MULTIVEC_THREADS", "1")
    for fx, family, x in _split_fixtures():
        x = np.resize(x, (4 * _CHUNK, x.shape[1]))
        whole = peak(lambda: family.logpdf(fx.params, x))
        one_range = peak(lambda: family.logpdf(fx.params, x[:_RANGE]))
        assert whole <= x.shape[0] * 8 + one_range + 16_000, (fx.suffix, whole, one_range)


@pytest.mark.parametrize("name, bad", [
    ("log-elliptical", (0, -1.0)),  # NonPositiveInput
    ("gamma-loggamma", (1, np.nan)),  # ParameterOutOfDomain, from the log-gamma block
    ("mv-beta2", (1, 0.0)),
])
def test_a_bad_row_in_the_last_range_raises_what_the_whole_call_raises(monkeypatch, name, bad):
    from multivec.core import _CHUNK
    from multivec.validation import _fixtures

    monkeypatch.setenv("MULTIVEC_THREADS", "2")
    fx = next(f for f in _fixtures() if f.family == name)
    family = FAMILIES[name]
    x = np.tile(family.sample(fx.params, np.random.default_rng(3), 100), (_CHUNK // 50, 1))
    column, value = bad
    x[-1, column] = value
    errors = []
    for density in (family.density, family.density.__wrapped__):
        with pytest.raises(MultivecError) as info:
            family.__class__(name, density, family.sampler, split=family.split).logpdf(fx.params, x)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    if name == "gamma-loggamma":
        # a bad y in the first range and a bad u in the last: the whole call
        # checks u first, and so does the split one
        x[-1, 1], x[0, 1], x[-1, 0] = 0.0, np.nan, -1.0
        with pytest.raises(NonPositiveInput):
            family.logpdf(fx.params, x)


def test_only_a_shared_leading_axis_of_points_is_split(monkeypatch):
    from multivec import core, densities
    from multivec.core import _CHUNK

    maps = []
    real = densities._map_chunks
    monkeypatch.setattr(densities, "_map_chunks", lambda chunk, n: maps.append(n) or real(chunk, n))
    monkeypatch.setenv("MULTIVEC_THREADS", "3")
    p = JointScaleParams(spec=GAUSS, alpha0=1.5, sigma2s=(1.0, 0.8), dims=(1,))
    s0 = np.linspace(0.1, 9.0, 4 * _CHUNK + 1)
    t = np.linspace(-3.0, 3.0, 4 * _CHUNK + 1)[:, None]
    # max(threads, ceil(rows / _RANGE)) ranges, _RANGE = _CHUNK // 2 rows
    split = logpdf_gengamma_pearson7(p, s0[:_CHUNK + 1], t[:_CHUNK + 1])
    logpdf_gengamma_pearson7(p, s0, t)
    assert maps == [3, 9]
    # one t row against many s0, and the same t for each: same bits, no split
    assert logpdf_gengamma_pearson7(p, s0, t[:1]).tobytes() == \
        logpdf_gengamma_pearson7(p, s0, np.full_like(t, t[0, 0])).tobytes()
    assert maps == [3, 9, 9]
    assert logpdf_gengamma_pearson7(p, s0[:_CHUNK], t[:_CHUNK]).tobytes() == split[:_CHUNK].tobytes()
    # one point of more than _CHUNK coordinates, and a batch of lists
    wide = MvTParams(dims=(_CHUNK + 1,), alpha0=1.5, betas=(1.0,))
    assert math.isfinite(logpdf_mv_t(wide, np.full(_CHUNK + 1, 1e-3)))
    logpdf_mv_t(MvTParams(dims=(1,), alpha0=1.5, betas=(1.0,)), t.tolist())
    assert maps == [3, 9, 9]
    # the width is read only where a call splits
    monkeypatch.setenv("MULTIVEC_THREADS", "two")
    assert logpdf_gengamma_pearson7(p, s0[:_CHUNK], t[:_CHUNK]).tobytes() == split[:_CHUNK].tobytes()
    with pytest.raises(core.ParameterOutOfDomain, match="MULTIVEC_THREADS"):
        logpdf_gengamma_pearson7(p, s0[:_CHUNK + 1], t[:_CHUNK + 1])
