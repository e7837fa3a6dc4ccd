"""Likelihoods, the closed-form gamma initializer, and the profile fits."""

import hashlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize, special, stats

from multivec import (
    DegenerateSample,
    EmptySample,
    Kotz,
    KotzGammaDepParams,
    NonFiniteLikelihood,
    NonPositiveInput,
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
from multivec.sampling import sample_gengamma_pairs


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
    with pytest.raises(EmptySample, match="need a non-empty sample"):
        SuffStats(np.array([]), np.array([1.0]))
    with pytest.raises(DegenerateSample, match="mismatched lengths 3 and 2"):
        SuffStats(np.ones(3), np.ones(2))
    with pytest.raises(ParameterOutOfDomain):
        # kernel moment index (q + shape - 1)/s must stay positive
        loglik_independent(1.0, 0.2, 0.5, 0.1, 1.0, np.array([1.0, 2.0]))
    with pytest.raises(ParameterOutOfDomain):
        KotzGammaDepParams(sigma1=0.0, sigma2=1.0, alpha=1.0, beta=1.0, r=0.5, q=1.0, s=1.0)


# (r, q, s) outside the Kotz domain at every dimension.  A NaN or +inf q
# and s = 2**1023 (where 2s overflows) are refused by Kotz before any term is
# formed, not reported as a non-finite likelihood; the guard rows keep the
# refusals the likelihoods already made by type, now with Kotz's message
_OFF_KOTZ = {"q-nan": (0.5, math.nan, 1.0), "q-inf": (0.5, math.inf, 1.0),
             "s-2**1023": (0.5, 1.0, 2.0**1023),
             "guard-q-minus-inf": (0.5, -math.inf, 1.0), "guard-r-zero": (0.0, 1.0, 1.0),
             "guard-r-nan": (math.nan, 1.0, 1.0), "guard-r-inf": (math.inf, 1.0, 1.0),
             "guard-s-zero": (0.5, 1.0, 0.0), "guard-s-negative": (0.5, 1.0, -1.0)}


@pytest.mark.parametrize("case", list(_OFF_KOTZ))
def test_an_off_domain_generator_is_refused_by_kotz_in_every_likelihood(case):
    r, q, s = _OFF_KOTZ[case]
    data = _paired_gamma(5, 20)
    scales = dict(sigma1=1.0, sigma2=2.0, alpha=2.0, beta=3.0)
    with pytest.raises(ParameterOutOfDomain, match="^Kotz needs "):
        loglik_independent(1.0, 2.0, r, q, s, data[:, 0])
    with pytest.raises(ParameterOutOfDomain, match="^Kotz needs "):
        KotzGammaDepParams(**scales, r=r, q=q, s=s)
    # the dependent likelihood checks the generator itself, not through the
    # params' constructor alone
    with pytest.raises(ParameterOutOfDomain, match="^Kotz needs "):
        loglik_dependent(SimpleNamespace(**scales, r=r, q=q, s=s),
                         SuffStats(data[:, 0], data[:, 1]))


@pytest.mark.parametrize("m, alpha, beta, s", [(3, 0.5, 0.25, 1.0), (50, 0.125, 0.375, 3.0),
                                               (200, 2.0, 3.0, 0.7)])
def test_each_likelihood_meets_the_kotz_edge_at_its_own_dimension(m, alpha, beta, s):
    # 2q + n > 2 at n = 2m(alpha + beta) for the pair and at n = 2 shape for
    # a column, here of shape m(alpha + beta): both refuse q = 1 - n/2 and
    # take the next double up
    data = _paired_gamma(7, m)
    stats = SuffStats(data[:, 0], data[:, 1])
    mab = m * (alpha + beta)

    def dependent(q):
        return loglik_dependent(KotzGammaDepParams(sigma1=1.0, sigma2=1.5, alpha=alpha,
                                                   beta=beta, r=0.5, q=q, s=s), stats)

    def independent(q):
        return loglik_independent(1.0, mab, 0.5, q, s, data[:, 0])

    edge = 1.0 - mab
    for loglik in (dependent, independent):
        with pytest.raises(ParameterOutOfDomain,
                           match=rf"^Kotz needs 2q \+ n > 2, got q={edge} at n={2.0 * mab}$"):
            loglik(edge)
        assert math.isfinite(loglik(math.nextafter(edge, math.inf)))


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


def test_a_column_whose_sum_overflows_is_a_typed_error_naming_it():
    # every value is positive and finite, but the sum of the first column is not
    huge, small = np.array([1e308, 1e308, 1e308, 2.0]), np.array([1.0, 2.0, 3.0, 5.0])
    with pytest.raises(NonFiniteLikelihood, match="sum of the gamma initializer's sample"):
        gamma_init(huge)
    for u, v, column in ((huge, small, "column u"), (small, huge, "column v")):
        with pytest.raises(NonFiniteLikelihood, match=f"sum of {column} overflows"):
            SuffStats(u, v)
        for frozen in (False, True):
            with pytest.raises(NonFiniteLikelihood, match=f"sum of {column} overflows"):
                fit_dependent(np.column_stack([u, v]), freeze_generator=frozen)


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
    pairs = ScaleShapeParams(shapes=(truth.alpha, truth.beta),
                             scales=(truth.sigma1**2, truth.sigma2**2))
    data = sample_gengamma_pairs(pairs, Kotz(q=truth.q, r=truth.r, s=truth.s), make_rng(3),
                                 size=m)
    res = fit_dependent(data)
    st = SuffStats(data[:, 0], data[:, 1])
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
            assert fit(data, freeze_generator=frozen, max_iter=0).iterations == 0
            with pytest.raises(ParameterOutOfDomain, match="max_iter must be >= 0"):
                fit(data, freeze_generator=frozen, max_iter=-1)


def test_an_integral_float_cap_is_the_whole_cap_and_a_fraction_is_refused():
    data = _paired_gamma(15, 200)
    for fit in (fit_dependent, fit_independent):
        for frozen in (False, True):
            for cap in (1, 10):
                want = fit(data, freeze_generator=frozen, max_iter=cap)
                for same in (float(cap), np.int64(cap), np.float64(cap)):
                    got = fit(data, freeze_generator=frozen, max_iter=same)
                    assert (got.params, got.loglik, got.restarts) == \
                        (want.params, want.loglik, want.restarts)
                    assert type(got.iterations) is int
            for bad in (2.5, math.nan, math.inf, "10"):
                with pytest.raises(ParameterOutOfDomain, match="max_iter must be a whole number"):
                    fit(data, freeze_generator=frozen, max_iter=bad)


def test_a_column_past_the_upper_bracket_edge_is_not_converged():
    # u = G^(1/64), G ~ Gamma(3), is a generalized gamma with s = 64: the
    # profile still rises at the bracket's top, s = 32, and the fit says so
    rng = np.random.default_rng(0)
    data = np.column_stack([rng.gamma(3.0, size=500) ** (1.0 / 64.0), rng.gamma(2.0, 1.5, 500)])
    res = fit_independent(data)
    assert res.params["s1"] == 32.0 and not res.converged
    assert [e["converged"] for e in res.restarts] == [False, True]
    assert math.isfinite(res.params["sigma1"]) and math.isfinite(res.loglik)


def test_dirichlet_newton_halves_a_far_step_and_reaches_the_data_optimum(monkeypatch):
    from multivec import mle

    data = _paired_gamma(0, 200)
    st = SuffStats(data[:, 0], data[:, 1])
    data_start = np.array([mle._gamma_start(st.m, st.c, st.a),
                           mle._gamma_start(st.m, st.d, st.b)])
    near, near_log = mle._fit_dirichlet(st, data_start, 10_000)
    profile, calls = mle._dirichlet_profile, []
    monkeypatch.setattr(mle, "_dirichlet_profile",
                        lambda ab, stats_: calls.append(1) or profile(ab, stats_))
    far, far_log = mle._fit_dirichlet(st, np.array([500.0, 0.02]), 10_000)
    # one profile call at the start, one per Newton step, one per halving
    assert len(calls) - 1 - far_log["iterations"] == 1
    assert near_log["converged"] and far_log["converged"]
    assert np.allclose(far, near, rtol=1e-12, atol=0.0)
    assert far_log["loglik"] == pytest.approx(near_log["loglik"], rel=1e-14)


@pytest.mark.parametrize("fit,frozen", [(fit_dependent, True), (fit_dependent, False),
                                        (fit_independent, True), (fit_independent, False)],
                         ids=["dependent-frozen", "dependent", "independent-frozen",
                              "independent"])
def test_a_fit_checks_once_and_logs_and_sums_each_column_once(fit, frozen, monkeypatch):
    from multivec import mle

    data = _readme_truth_pairs(600)
    want = fit(data, freeze_generator=frozen)
    columns = [np.ascontiguousarray(data[:, j]) for j in (0, 1)]
    log_columns = [np.log(u) for u in columns]
    gate, log, fsum = mle._paired_columns, np.log, mle._fsum
    gated, logged, summed = [], [], []
    monkeypatch.setattr(mle, "_paired_columns", lambda *a: gated.append(a) or gate(*a))
    monkeypatch.setattr(np, "log", lambda x, *a, **k: logged.append(np.copy(x)) or log(x, *a, **k))
    monkeypatch.setattr(mle, "_fsum", lambda x: summed.append(np.copy(x)) or fsum(x))
    got = fit(data, freeze_generator=frozen)
    monkeypatch.undo()
    assert len(gated) == 1
    for u, log_u in zip(columns, log_columns):
        assert sum(np.array_equal(x, u) for x in logged) == 1
        assert sum(np.array_equal(x, log_u) for x in summed) == 1
    assert got == want


def test_fit_rejects_tiny_samples():
    with pytest.raises(DegenerateSample):
        fit_dependent(np.ones((2, 2)) * np.array([1.0, 2.0]))


def test_fits_reject_nonpositive_or_nonfinite_data_before_any_log():
    base = _paired_gamma(3, 20)
    for bad in (0.0, -1.0, np.inf, np.nan):
        data = base.copy()
        data[7, 1] = bad
        for fit in (fit_dependent, fit_independent):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonPositiveInput, match="paired fit|NaN or Inf"):
                    fit(data)


def test_column_brent_is_scipy_brentq_bit_for_bit():
    # the column fit's Brent solve is a port of scipy.optimize.brentq, so that
    # the fit needs no scipy.optimize import: same root, step count and
    # converged flag on the profile score, capped solves included
    from multivec import mle

    rng = np.random.default_rng(16)
    lo, hi = mle._LOG_S_BRACKET
    solved = capped = 0
    for m in (10, 60, 500):
        for shape in (0.8, 2.0, 8.0):
            for power in (0.3, 1.0, 2.5) * 3:
                u = rng.gamma(shape, size=m) ** (1.0 / power)
                ell = np.log(u) - math.fsum(np.log(u)) / m
                top = float(np.max(ell))
                for max_iter in (0, 1, 2, 4, 8, 10_000):
                    f_lo, f_hi = (mle._column_score(x, ell, top, max_iter) for x in (lo, hi))
                    if not f_lo > 0.0 > f_hi:
                        continue
                    root, res = optimize.brentq(
                        mle._column_score, lo, hi, args=(ell, top, max_iter), xtol=1e-12,
                        maxiter=max_iter, full_output=True, disp=False)
                    port = mle._brentq(lambda x: mle._column_score(x, ell, top, max_iter),
                                       lo, hi, f_lo, f_hi, max_iter)
                    assert port == (root, res.iterations, res.converged)
                    solved += 1
                    capped += not res.converged
    assert solved >= 250 and 40 <= solved - capped and capped >= 200


# ---------------------------------------------------------------------------
# every bit of the fits, pinned

# fit_independent, frozen fit_dependent and fit_dependent on README-truth pairs
# (FIT_DATA_SEED = 2024), as float.hex: (loglik, iterations, params)
PINNED_DATA = {60: "5cf1b0c0470e23da", 200: "5350c22a1c9b3379", 2000: "06a8545bd273e142"}
PINNED_FITS = {
    ("independent", 60): ("-0x1.79c874c1ac967p+8", 32, {
        "sigma1": "0x1.ced2086506c56p-3", "alpha": "0x1.e63e8f19cc2d8p+2",
        "r1": "0x1.0000000000000p-1", "q1": "0x1.0000000000000p+0",
        "s1": "0x1.53b089cae3235p-1", "sigma2": "0x1.6890d68a91e8bp+1",
        "beta": "0x1.7ca66f7d3c2c5p+2", "r2": "0x1.0000000000000p-1",
        "q2": "0x1.0000000000000p+0", "s2": "0x1.5bc7d6fe64a5cp+0",
    }),
    ("frozen", 60): ("-0x1.79f651469e876p+8", 5, {
        "sigma1": "0x1.822a52b4b8cd5p-1", "sigma2": "0x1.915d8128eca39p+0",
        "alpha": "0x1.4cc05d7b15066p+2", "beta": "0x1.f332577e8d152p+2",
        "r": "0x1.0000000000000p-1", "q": "0x1.0000000000000p+0",
        "s": "0x1.0000000000000p+0",
    }),
    ("dependent", 60): ("-0x1.79f6d95bd0c9ep+8", 4, {
        "sigma1": "0x1.836233f1c4593p-1", "sigma2": "0x1.934d352cf665cp+0",
        "alpha": "0x1.4aa96a7c59977p+2", "beta": "0x1.ee6a264b4b7d9p+2",
        "r": "0x1.0000000000000p-1", "q": "0x1.0000000000000p+0",
        "s": "0x1.0000000000000p+0",
    }),
    ("independent", 200): ("-0x1.31122dc2a5c77p+10", 29, {
        "sigma1": "0x1.284200e6c3508p+0", "alpha": "0x1.e0032bd12957fp+1",
        "r1": "0x1.0000000000000p-1", "q1": "0x1.0000000000000p+0",
        "s1": "0x1.48763d12ab86bp+0", "sigma2": "0x1.12b1d06902f4ap-1",
        "beta": "0x1.5180169a2516dp+3", "r2": "0x1.0000000000000p-1",
        "q2": "0x1.0000000000000p+0", "s2": "0x1.6cc64e9f16798p-1",
    }),
    ("frozen", 200): ("-0x1.31333b70dd7b8p+10", 5, {
        "sigma1": "0x1.7f09856640da2p-1", "sigma2": "0x1.7df7816fbf250p+0",
        "alpha": "0x1.26b84cc6fe525p+2", "beta": "0x1.e9f6f96517fc9p+2",
        "r": "0x1.0000000000000p-1", "q": "0x1.0000000000000p+0",
        "s": "0x1.0000000000000p+0",
    }),
    ("dependent", 200): ("-0x1.313345ce33b34p+10", 3, {
        "sigma1": "0x1.7f5f9d0be08d9p-1", "sigma2": "0x1.7e8a0fb5d9fccp+0",
        "alpha": "0x1.2633fd811e41ep+2", "beta": "0x1.e87fd4d9d0351p+2",
        "r": "0x1.0000000000000p-1", "q": "0x1.0000000000000p+0",
        "s": "0x1.0000000000000p+0",
    }),
    ("independent", 2000): ("-0x1.5dcb348507a61p+13", 28, {
        "sigma1": "0x1.a126117d6fe84p-1", "alpha": "0x1.21057052bdb24p+2",
        "r1": "0x1.0000000000000p-1", "q1": "0x1.0000000000000p+0",
        "s1": "0x1.1fe5fde5ca399p+0", "sigma2": "0x1.4fed3496168d5p+0",
        "beta": "0x1.05077bf6e80bep+3", "r2": "0x1.0000000000000p-1",
        "q2": "0x1.0000000000000p+0", "s2": "0x1.02809b89b18f1p+0",
    }),
    ("frozen", 2000): ("-0x1.5dcf00c74b8d0p+13", 5, {
        "sigma1": "0x1.4b47a3c048d3ap-1", "sigma2": "0x1.48412e849b92ep+0",
        "alpha": "0x1.3faf9edde1709p+2", "beta": "0x1.07612a7a745b4p+3",
        "r": "0x1.0000000000000p-1", "q": "0x1.0000000000000p+0",
        "s": "0x1.0000000000000p+0",
    }),
    ("dependent", 2000): ("-0x1.5dcf00e876b6cp+13", 3, {
        "sigma1": "0x1.4b4f26c970efbp-1", "sigma2": "0x1.484dc0190176ap+0",
        "alpha": "0x1.3fa11fe3b5598p+2", "beta": "0x1.074d004c84d54p+3",
        "r": "0x1.0000000000000p-1", "q": "0x1.0000000000000p+0",
        "s": "0x1.0000000000000p+0",
    }),
}


def _readme_truth_pairs(m: int) -> np.ndarray:
    """m pairs of one dependent draw at the README truth: the fit benchmark's data."""
    truth = KotzGammaDepParams(sigma1=1.0, sigma2=2.0, alpha=5.0, beta=8.0, r=0.4, q=1.5, s=1.1)
    base = ScaleShapeParams(shapes=(truth.alpha,) * m + (truth.beta,) * m,
                            scales=(truth.sigma1**2,) * m + (truth.sigma2**2,) * m)
    flat = np.asarray(sample_mv_gengamma(base, Kotz(q=truth.q, r=truth.r, s=truth.s),
                                         make_rng(2024)))
    return np.column_stack([flat[:m], flat[m:]])


@pytest.mark.parametrize("m", [60, 200, 2000])
def test_fits_keep_their_bits(m):
    # every sum in the fits is exactly rounded, so how a sum is formed cannot
    # move a bit; a moved bit here means a changed sum or solve step
    data = _readme_truth_pairs(m)
    assert hashlib.sha256(data.tobytes()).hexdigest()[:16] == PINNED_DATA[m]
    fits = (("independent", fit_independent),
            ("frozen", lambda d: fit_dependent(d, freeze_generator=True)),
            ("dependent", fit_dependent))
    for kind, fit in fits:
        res = fit(data)
        loglik, iterations, params = PINNED_FITS[(kind, m)]
        assert (res.loglik.hex(), res.iterations) == (loglik, iterations)
        assert {k: float(v).hex() for k, v in res.params.items()} == params
