"""Likelihoods, the closed-form gamma initializer, and the profile fits."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize, special, stats

from multivec import (
    DegenerateSample,
    EmptySample,
    Kotz,
    KotzGammaDepParams,
    NonFiniteLikelihood,
    ParameterOutOfDomain,
    ScaleShapeParams,
    SuffStats,
    fit_dependent,
    fit_independent,
    gamma_init,
    loglik_dependent,
    loglik_independent,
    logpdf_mv_gengamma,
    make_rng,
    sample_mv_gengamma,
)


def _paired_gamma(seed, m, a1=2.0, th1=1.5, a2=3.0, th2=0.8):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.gamma(a1, th1, m), rng.gamma(a2, th2, m)])


# ---------------------------------------------------------------------------
# likelihood expressions against direct density evaluation


def _direct_dependent(p: KotzGammaDepParams, u: np.ndarray, v: np.ndarray) -> float:
    # the dependent model treats the whole paired sample as ONE draw of a
    # 2m-block generalized gamma vector
    m = u.size
    base = ScaleShapeParams(
        shapes=(p.alpha,) * m + (p.beta,) * m,
        scales=(p.sigma1**2,) * m + (p.sigma2**2,) * m,
    )
    return float(logpdf_mv_gengamma(base, Kotz(r=p.r, q=p.q, s=p.s), np.concatenate([u, v])))


def test_dependent_loglik_matches_density():
    data = _paired_gamma(0, 7)
    stats_ = SuffStats(data[:, 0], data[:, 1])
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = KotzGammaDepParams(
            sigma1=float(rng.uniform(0.5, 2.5)),
            sigma2=float(rng.uniform(0.5, 2.5)),
            alpha=float(rng.uniform(0.5, 4.0)),
            beta=float(rng.uniform(0.5, 4.0)),
            r=float(rng.uniform(0.2, 2.0)),
            q=float(rng.uniform(-0.5, 3.0)),
            s=float(rng.uniform(0.5, 2.0)),
        )
        got = loglik_dependent(p, stats_)
        want = _direct_dependent(p, data[:, 0], data[:, 1])
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_independent_loglik_matches_density_and_gamma():
    rng = np.random.default_rng(2)
    u = rng.gamma(2.5, 1.2, 9)
    for _ in range(10):
        sigma = float(rng.uniform(0.5, 2.5))
        shape = float(rng.uniform(0.8, 4.0))
        # keep the kernel moment index (q + shape - 1)/s positive
        q = float(rng.uniform(0.3, 3.0))
        r = float(rng.uniform(0.2, 2.0))
        s = float(rng.uniform(0.5, 2.0))
        got = loglik_independent(sigma, shape, r, q, s, u)
        want = sum(
            float(logpdf_mv_gengamma(
                ScaleShapeParams(shapes=(shape,), scales=(sigma**2,)),
                Kotz(r=r, q=q, s=s), np.array([ui]),
            ))
            for ui in u
        )
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
    # the (1/2, 1, 1) kernel is a plain gamma model
    got = loglik_independent(1.3, 2.0, 0.5, 1.0, 1.0, u)
    want = float(np.sum(stats.gamma(a=2.0, scale=2.0 * 1.3**2).logpdf(u)))
    assert abs(got - want) <= 1e-10 * abs(want)


def test_dependent_gaussian_point_splits_into_independents():
    data = _paired_gamma(3, 25)
    stats_ = SuffStats(data[:, 0], data[:, 1])
    rng = np.random.default_rng(4)
    for _ in range(10):
        s1, s2 = rng.uniform(0.5, 2.5, 2)
        al, be = rng.uniform(0.5, 4.0, 2)
        p = KotzGammaDepParams(sigma1=s1, sigma2=s2, alpha=al, beta=be, r=0.5, q=1.0, s=1.0)
        joint = loglik_dependent(p, stats_)
        split = loglik_independent(s1, al, 0.5, 1.0, 1.0, data[:, 0]) + \
            loglik_independent(s2, be, 0.5, 1.0, 1.0, data[:, 1])
        assert abs(joint - split) <= 1e-8 * max(1.0, abs(split))


def test_dependent_loglik_permutation_invariant():
    data = _paired_gamma(5, 40)
    p = KotzGammaDepParams(sigma1=1.0, sigma2=1.5, alpha=2.0, beta=1.2, r=0.7, q=1.3, s=0.9)
    a = loglik_dependent(p, SuffStats(data[:, 0], data[:, 1]))
    perm = np.random.default_rng(6).permutation(40)
    b = loglik_dependent(p, SuffStats(data[perm, 0], data[perm, 1]))
    assert abs(a - b) < 1e-9 * abs(a)


def test_gaussian_sigma_stationarity():
    rng = np.random.default_rng(7)
    u = rng.gamma(2.0, 1.7, 200)
    m, alpha = u.size, 2.0
    res = optimize.minimize_scalar(
        lambda sg: -loglik_independent(sg, alpha, 0.5, 1.0, 1.0, u),
        bounds=(0.05, 20.0), method="bounded",
        options={"xatol": 1e-12},
    )
    want = math.fsum(u) / (2.0 * m * alpha)
    assert abs(res.x**2 - want) <= 1e-6 * want


def test_likelihood_domain_errors():
    with pytest.raises(EmptySample):
        loglik_independent(1.0, 1.0, 0.5, 1.0, 1.0, np.array([]))
    with pytest.raises(ParameterOutOfDomain):
        # kernel moment index (q + shape - 1)/s must stay positive
        loglik_independent(1.0, 0.2, 0.5, 0.1, 1.0, np.array([1.0, 2.0]))
    with pytest.raises(ParameterOutOfDomain):
        KotzGammaDepParams(sigma1=0.0, sigma2=1.0, alpha=1.0, beta=1.0, r=0.5, q=1.0, s=1.0)


def test_likelihoods_at_extreme_scales_are_warning_free():
    # power terms are formed in log space: rescaling data by c = 1e-300 (and
    # sigma by sqrt(c)) shifts each log-likelihood by exactly -log c per
    # observation, where sigma^(-2s) and u^s alone leave the double range
    rng = np.random.default_rng(13)
    data = rng.gamma(3.0, 1.5, (40, 2))
    c = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1.0, 3.0):
            base = loglik_independent(np.float64(1.2), 2.0, 0.4, 1.5, s, data[:, 0])
            tiny = loglik_independent(np.float64(1.2 * math.sqrt(c)), 2.0, 0.4, 1.5, s,
                                      c * data[:, 0])
            assert abs(tiny - (base - 40 * math.log(c))) <= 1e-9 * abs(tiny)
            p = KotzGammaDepParams(sigma1=1.0, sigma2=2.0, alpha=2.0, beta=3.0,
                                   r=0.4, q=1.5, s=s)
            p_tiny = KotzGammaDepParams(sigma1=math.sqrt(c), sigma2=2.0 * math.sqrt(c),
                                        alpha=2.0, beta=3.0, r=0.4, q=1.5, s=s)
            base = loglik_dependent(p, SuffStats(data[:, 0], data[:, 1]))
            tiny = loglik_dependent(p_tiny, SuffStats(c * data[:, 0], c * data[:, 1]))
            assert abs(tiny - (base - 80 * math.log(c))) <= 1e-9 * abs(tiny)
        # a penalty r w^s beyond the double range is a genuine -inf
        with pytest.raises(NonFiniteLikelihood):
            loglik_independent(np.float64(1.0), 2.0, 0.5, 1.0, np.float64(400.0), data[:, 0] + 6.0)
        with pytest.raises(NonFiniteLikelihood):
            loglik_dependent(
                KotzGammaDepParams(sigma1=np.float64(1e-3), sigma2=1.0, alpha=2.0, beta=3.0,
                                   r=0.5, q=1.0, s=np.float64(100.0)),
                SuffStats(data[:, 0], data[:, 1]),
            )


# ---------------------------------------------------------------------------
# gamma initializer


def test_gamma_init_degenerate_sample():
    with pytest.raises(DegenerateSample):
        gamma_init(np.array([5.0, 5.0, 5.0]))


def test_gamma_init_frozen_values():
    # direct evaluation for (1,2,3,4); exact to the last double digit, with the
    # 7-digit reference values 4.260441 / 0.541656 holding at their own precision
    alpha, sigma = gamma_init(np.array([1.0, 2.0, 3.0, 4.0]))
    assert abs(alpha - 4.260429365453257) < 1e-12
    assert abs(sigma - 0.5416619411526722) < 1e-12
    assert abs(alpha - 4.260441) / 4.260441 < 2e-5
    assert abs(sigma - 0.541656) / 0.541656 < 2e-5


def test_gamma_init_scale_equivariance():
    rng = np.random.default_rng(8)
    u = rng.gamma(3.0, 2.0, 50)
    a0, s0 = gamma_init(u)
    for c in (0.25, 2.0, 10.0):
        a, s = gamma_init(c * u)
        assert abs(a - a0) < 1e-12 * a0
        assert abs(s - s0 * math.sqrt(c)) < 1e-12 * s0


# ---------------------------------------------------------------------------
# fits


def test_frozen_gaussian_fits_coincide():
    rng = np.random.default_rng(42)
    data = np.column_stack([rng.lognormal(0.2, 0.6, 300), rng.gamma(2.5, 1.7, 300)])
    dep = fit_dependent(data, freeze_generator=True)
    ind = fit_independent(data, freeze_generator=True)
    assert dep.converged and ind.converged
    for key in ("sigma1", "alpha", "sigma2", "beta"):
        a, b = dep.params[key], ind.params[key]
        assert abs(a - b) <= 1e-4 * abs(b)


def test_fit_dependent_ascends_and_is_deterministic():
    data = _paired_gamma(9, 150)
    a1, s1 = gamma_init(data[:, 0])
    a2, s2 = gamma_init(data[:, 1])
    start = KotzGammaDepParams(sigma1=s1, sigma2=s2, alpha=a1, beta=a2, r=0.5, q=1.0, s=1.0)
    start_ll = loglik_dependent(start, SuffStats(data[:, 0], data[:, 1]))
    fit1 = fit_dependent(data, freeze_generator=True)
    fit2 = fit_dependent(data, freeze_generator=True)
    assert fit1.loglik >= start_ll
    assert fit1.params == fit2.params and fit1.loglik == fit2.loglik


def test_fit_independent_output_shape():
    data = _paired_gamma(11, 120)
    res = fit_independent(data, freeze_generator=True)
    assert set(res.params) == {
        "sigma1", "alpha", "r1", "q1", "s1", "sigma2", "beta", "r2", "q2", "s2",
    }
    assert res.mode.startswith("independent")


def test_frozen_independent_fit_is_gamma_mle():
    # at the (1/2,1,1) kernel the column fit solves the plain gamma MLE, whose
    # stationarity ties sigma^2 to the mean and alpha to the log-moment gap
    rng = np.random.default_rng(12)
    data = np.column_stack([rng.gamma(2.2, 1.1, 400), rng.gamma(1.4, 2.3, 400)])
    res = fit_independent(data, freeze_generator=True)
    for col, (sg_key, sh_key) in ((0, ("sigma1", "alpha")), (1, ("sigma2", "beta"))):
        u = data[:, col]
        sg, sh = res.params[sg_key], res.params[sh_key]
        assert abs(sg**2 - np.mean(u) / (2.0 * sh)) <= 1e-6 * sg**2
        grad = float(np.mean(np.log(u)) - math.log(2.0 * sg**2) - special.digamma(sh))
        assert abs(grad) < 1e-5


def test_independent_fit_identified_combinations():
    # the five-parameter column likelihood is exactly flat along two
    # directions: (alpha, q) -> (alpha + c, q - c) and
    # (sigma, r) -> (sigma sqrt(c), r c^s); only s, alpha + q and the
    # quantities invariant under both orbits are estimable
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        u = rng.gamma(3.0, 2.0 * 1.44, 3000)
        v = rng.gamma(3.0, 2.0 * 1.44, 3000)
        res = fit_independent(np.column_stack([u, v]))
        assert res.converged
        truth_ll = (
            loglik_independent(1.2, 3.0, 0.5, 1.0, 1.0, u)
            + loglik_independent(1.2, 3.0, 0.5, 1.0, 1.0, v)
        )
        assert res.loglik >= truth_ll - 1.0
        p = res.params
        for (sh, qq, ss) in (("alpha", "q1", "s1"), ("beta", "q2", "s2")):
            assert abs(p[ss] - 1.0) < 0.2
            assert abs(p[qq] + p[sh] - 4.0) < 0.6


def test_dependent_fit_zeroes_the_dirichlet_profile_score():
    truth = KotzGammaDepParams(sigma1=1.0, sigma2=2.0, alpha=5.0, beta=8.0, r=0.4, q=1.5, s=1.1)
    m = 500
    base = ScaleShapeParams(shapes=(truth.alpha,) * m + (truth.beta,) * m,
                            scales=(truth.sigma1**2,) * m + (truth.sigma2**2,) * m)
    flat = np.asarray(sample_mv_gengamma(base, Kotz(q=truth.q, r=truth.r, s=truth.s),
                                         make_rng(3)))
    res = fit_dependent(np.column_stack([flat[:m], flat[m:]]))
    st = SuffStats(flat[:m], flat[m:])
    assert res.converged and len(res.restarts) == 1
    assert res.pinned == ("q", "r", "s", "sigma1", "sigma2")
    p = res.params
    assert (p["r"], p["q"], p["s"]) == (0.5, 1.0, 1.0)
    al, be = p["alpha"], p["beta"]
    n = m * (al + be)
    common = m * (special.digamma(n) - math.log(al + be))
    score_a = common - m * (special.digamma(al) - math.log(al)) + st.a - m * math.log(st.c)
    score_b = common - m * (special.digamma(be) - math.log(be)) + st.b - m * math.log(st.d)
    assert abs(score_a) <= 1e-8 and abs(score_b) <= 1e-8
    rho2 = (p["sigma2"] / p["sigma1"]) ** 2
    assert abs(rho2 - al * st.d / (be * st.c)) <= 1e-12 * rho2
    # sigma1 is the Gaussian-generator MLE given the direction estimates
    assert abs(p["sigma1"] ** 2 - (st.c + st.d / rho2) / (2.0 * n)) <= 1e-12 * p["sigma1"] ** 2
    assert res.loglik == loglik_dependent(KotzGammaDepParams(**p), st)


def test_independent_column_fit_is_a_local_maximum():
    data = _paired_gamma(14, 300)
    res = fit_independent(data)
    assert res.converged and res.pinned == ("q1", "q2", "r1", "r2")
    p = res.params
    for col, (sg, sh, ss) in ((0, ("sigma1", "alpha", "s1")), (1, ("sigma2", "beta", "s2"))):
        assert (p[sg.replace("sigma", "r")], p[sg.replace("sigma", "q")]) == (0.5, 1.0)
        point = [p[sg], p[sh], p[ss]]
        best = loglik_independent(point[0], point[1], 0.5, 1.0, point[2], data[:, col])
        assert best == res.restarts[col]["loglik"]
        for i in range(3):
            for sign in (-1.0, 1.0):
                moved = list(point)
                moved[i] *= 1.0 + sign * 1e-4
                ll = loglik_independent(moved[0], moved[1], 0.5, 1.0, moved[2], data[:, col])
                assert ll <= best + 1e-9 * abs(best)


def test_lognormal_column_has_no_generalized_gamma_mle():
    # criterion 06's data: the log-normal column's profile keeps rising as
    # s -> 0, so s stops at the bracket edge and the fit says so
    rng = np.random.default_rng(42)
    data = np.column_stack([rng.lognormal(0.2, 0.6, 300), rng.gamma(2.5, 1.7, 300)])
    res = fit_independent(data)
    assert not res.converged
    assert [e["converged"] for e in res.restarts] == [False, True]
    assert res.params["s1"] == 1.0 / 32.0
    assert math.isfinite(res.params["sigma1"]) and res.params["sigma1"] > 0.0
    assert math.isfinite(res.loglik)


def test_every_fit_logs_its_solves_and_honours_the_cap():
    data = _paired_gamma(15, 200)
    for fit in (fit_dependent, fit_independent):
        for frozen in (False, True):
            res = fit(data, freeze_generator=frozen)
            assert res.converged
            assert all(set(e) == {"start", "loglik", "converged", "iterations"}
                       for e in res.restarts)
            assert res.iterations == sum(e["iterations"] for e in res.restarts)
            capped = fit(data, freeze_generator=frozen, max_iter=1)
            assert not capped.converged and math.isfinite(capped.loglik)


def test_fit_rejects_tiny_samples():
    with pytest.raises(DegenerateSample):
        fit_dependent(np.ones((2, 2)) * np.array([1.0, 2.0]))
