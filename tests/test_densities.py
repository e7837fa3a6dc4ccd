"""Log-densities of every family: closed-form anchors, reductions, identities."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

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
    MvTParams,
    NonPositiveInput,
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
    quad_normalization,
)

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
