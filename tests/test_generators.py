"""Generator kernels, their normalizing constants, and the radial laws."""

import dataclasses
import hashlib
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from multivec import (
    Bessel,
    Kotz,
    ParameterOutOfDomain,
    PearsonII,
    PearsonVII,
    QuadratureFailure,
    RadialLaw,
    log_bessel_k,
    log_h,
    log_norm_const,
    radial_integral_identity_check,
)
from multivec import densities, generators
from multivec.core import ExtendedShape, MvEllipticalParams, ScaleShapeParams
from multivec.densities import BetaParams, GammaLogGammaParams, JointScaleParams, MvTParams
from multivec.generators import gammaln

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# log Gamma (the Cephes port)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_gammaln_matches_scipy_bit_for_bit_in_every_branch():
    rng = np.random.default_rng(13)
    n = 2000
    log_uniform = lambda lo, hi: np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    xs = np.concatenate([
        rng.uniform(0.0, 1e-300, n),  # log Gamma(x) ~ -log x
        log_uniform(1e-300, 2.0),  # upward recurrence into [2, 3), every scale
        rng.uniform(0.0, 2.0, n),
        rng.uniform(2.0, 3.0, n),  # the rational fit alone
        rng.uniform(3.0, 13.0, n),  # downward recurrence
        rng.uniform(13.0, 1000.0, n),  # Stirling with the full series
        log_uniform(1000.0, 1e8),  # Stirling with the short series
        log_uniform(1e8, 2.556348e305),  # the bare Stirling term
        log_uniform(2.556348e305, sys.float_info.max),  # overflow
        np.arange(1, 401) / 2.0,  # integers and half-integers 0.5 .. 200
        [5e-324, 2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305, sys.float_info.max],
    ])
    edges = np.array([2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305])
    xs = np.concatenate([xs, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    xs = xs[xs > 0]
    got = [gammaln(x) for x in xs.tolist()]
    np.testing.assert_array_equal(_bits(got), _bits(special.gammaln(xs)))
    assert gammaln(2.556348e305 * 1.001) == math.inf
    assert gammaln(1.0) == 0.0 and gammaln(2.0) == 0.0


def test_digamma_and_trigamma_match_scipy_bit_for_bit():
    rng = np.random.default_rng(15)
    n = 2000
    log_uniform = lambda lo, hi: np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    tiny, big = sys.float_info.min, sys.float_info.max
    xs = np.concatenate([
        np.arange(1.0, 11.0),  # psi: the sum of 1/i
        log_uniform(5e-324, 1.0),  # psi: one step up into [1, 2)
        rng.uniform(0.0, 1.0, n),
        rng.uniform(1.0, 2.0, n),  # psi: the rational fit alone
        rng.uniform(2.0, 10.0, n),  # psi: steps down into (1, 2]
        log_uniform(10.0, 1e17),  # psi: the asymptotic series
        log_uniform(1e17, big),  # psi: log x - 1/(2x) alone; zeta: past 1e8
        log_uniform(1e8, 1e17),
        log_uniform(1e-154, 1e-7),  # zeta: the direct sum stops at its first term
        log_uniform(5e-324, 1e-154),  # zeta: x^-2 overflows to inf
        log_uniform(1e-7, 1e8),  # zeta: the direct sum, then Euler-Maclaurin
        np.arange(1, 401) / 2.0,  # integers and half-integers 0.5 .. 200
        [5e-324, tiny, big],
    ])
    edges = np.array([1.0, 2.0, 9.0, 10.0, 1e8, 1e17])
    xs = np.concatenate([xs, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    xs = xs[xs > 0]
    got = [generators.digamma(x) for x in xs.tolist()]
    np.testing.assert_array_equal(_bits(got), _bits(special.digamma(xs)))
    got = [generators.trigamma(x) for x in xs.tolist()]
    np.testing.assert_array_equal(_bits(got), _bits(special.polygamma(1, xs)))
    assert generators.trigamma(1e-160) == math.inf
    assert generators.digamma(1.0) == -0.57721566490153286061


class _PositiveOnly:
    """Stands in for gammaln: records the function that called it and fails
    on an argument that is not a finite float > 0."""

    def __init__(self):
        self.callers = set()

    def __call__(self, x):
        assert isinstance(x, float) and math.isfinite(x) and x > 0, x
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        self.callers.add(frame.f_code.co_name)
        return gammaln(x)


def test_every_gammaln_call_site_passes_a_validated_positive_value(monkeypatch):
    spy = _PositiveOnly()
    monkeypatch.setattr(generators, "gammaln", spy)
    monkeypatch.setattr(densities, "gammaln", spy)
    # parameters at the edge of each domain, where a shape argument is
    # smallest: (n + 1 -+ q)/2 -> 0 as |q| -> n + 1, and 2q + n - 2 -> 0
    for spec, n in ((Bessel(r=1.0, q=2.999), 2.0), (Bessel(r=0.5, q=-0.999), 2.0),
                    (Kotz(r=1.0, q=0.5005, s=2.0), 1.0), (Kotz(r=0.3, q=1.0, s=1.0), 1e-3)):
        log_norm_const(spec, n)
        RadialLaw(spec, n).logpdf(0.7)
    for spec, n in ((Bessel(r=1.0, q=3.0), 2.0), (Bessel(r=1.0, q=-1.0), 2.0),
                    (Kotz(r=1.0, q=0.5, s=1.0), 1.0)):
        with pytest.raises(ParameterOutOfDomain):
            log_norm_const(spec, n)
    kotz = Kotz(r=0.4, q=1.5, s=1.1)
    mv_t = MvTParams(dims=(1, 2), alpha0=1e-3, betas=(1.0, 2.5))
    densities.logpdf_mv_t(mv_t, [0.3, -0.2, 0.5])
    densities.logpdf_mv_pearson2(mv_t, [0.3, -0.2, 0.5])
    pvii = JointScaleParams(spec=kotz, alpha0=1e-3, sigma2s=(1.0, 0.8), dims=(1,))
    densities.logpdf_gengamma_pearson7(pvii, 0.5, [0.3])
    densities.logpdf_gengamma_pearson2(pvii, 0.5, [0.3])
    joint_beta = JointScaleParams(spec=kotz, alpha0=0.02, sigma2s=(1.0, 0.7), alphas=(1e-3,))
    densities.logpdf_gengamma_beta1(joint_beta, 0.5, [0.3])
    densities.logpdf_gengamma_beta2(joint_beta, 0.5, [0.3])
    densities.logpdf_mv_gengamma(ScaleShapeParams(shapes=(1e-3, 14.0), scales=(1.0, 0.6)),
                                 kotz, [0.4, 2.0])
    densities.logpdf_gamma_loggamma(
        GammaLogGammaParams(spec=kotz, alphas=(0.5,), sigma2s=(1.0,), rhos=(2e3,), delta2s=(0.5,)),
        u=[0.4], y=[1.0])
    beta = BetaParams(shape=ExtendedShape(alphas=(1e-3, 2.5), alpha0=1e8), betas=(1.0, 3.0))
    densities.logpdf_mv_beta1(beta, [0.3, 0.4])
    densities.logpdf_mv_beta2(beta, [0.3, 0.4])
    assert spy.callers == {
        "log_norm_const", "log_radial_integral", "logpdf",  # generators
        "_mv_t_at", "_gengamma_pearson7_at", "_gengamma_log_const", "_mv_beta2_at",  # densities
    }


# ---------------------------------------------------------------------------
# normalizing constants


def test_kotz_gaussian_constant():
    # (2 pi)^{-n/2} for the (1/2, 1, 1) kernel
    assert abs(log_norm_const(Kotz.gaussian(), 2.0) - (-LOG_2PI)) < 1e-12
    for n in (1.0, 2.0, 3.0, 4.5):
        assert abs(log_norm_const(Kotz.gaussian(), n) - (-n / 2.0 * LOG_2PI)) < 1e-12


def test_pearson7_student_t_constant():
    for n in (1.0, 2.0, 3.0):
        for nu in (1.0, 2.5, 7.0):
            got = log_norm_const(PearsonVII(r=nu, q=(n + nu) / 2.0), n)
            want = (
                special.gammaln((n + nu) / 2.0)
                - special.gammaln(nu / 2.0)
                - n / 2.0 * math.log(nu * math.pi)
            )
            assert abs(got - want) < 1e-12


def test_pearson2_q0_is_uniform_on_interval():
    assert abs(log_norm_const(PearsonII(q=0.0), 1.0) - math.log(0.5)) < 1e-12


def test_constants_accept_real_dimension():
    for spec in (Kotz(r=0.7, q=1.3, s=1.4), PearsonVII(r=2.0, q=4.0), PearsonII(q=1.5), Bessel(r=1.0, q=0.5)):
        assert np.isfinite(log_norm_const(spec, 2.7))


def test_domain_errors():
    with pytest.raises(ParameterOutOfDomain):
        log_norm_const(PearsonVII(r=1.0, q=1.0), 2.0)  # needs q > n/2
    with pytest.raises(ParameterOutOfDomain):
        log_norm_const(Kotz(r=1.0, q=-0.5, s=1.0), 1.0)  # needs 2q + n > 2
    with pytest.raises(ParameterOutOfDomain):
        Kotz(r=-1.0, q=1.0, s=1.0)
    with pytest.raises(ParameterOutOfDomain):
        PearsonII(q=-1.5)
    with pytest.raises(ParameterOutOfDomain):
        log_norm_const(Bessel(r=1.0, q=-0.8), 1.0)  # needs q > -n/2


# ---------------------------------------------------------------------------
# kernels


def test_kernel_values():
    assert abs(Kotz.gaussian().log_kernel(4.0) - (-2.0)) < 1e-15
    assert abs(PearsonVII(r=1.0, q=2.0).log_kernel(1.0) - (-2.0 * math.log(2.0))) < 1e-15
    assert PearsonII(q=3.0).log_kernel(1.5) == -math.inf


# a spec of each kind, on each of its kernel's branches: Kotz at q = 1 and
# off it, Pearson II at q = 0, below it and above it, Bessel at |q| below, at
# and above 1
_KERNEL_SPECS = [Kotz(), Kotz(r=0.7, q=0.4, s=1.7), PearsonVII(r=1.5, q=3.0), PearsonII(q=0.0),
                 PearsonII(q=-0.5), PearsonII(q=2.3), Bessel(r=0.8, q=0.4), Bessel(r=1.2, q=1.0),
                 Bessel(r=0.5, q=2.5)]


def test_every_generator_returns_a_float_at_a_scalar_and_keeps_its_array_bits():
    # one scalar rule: a float at a scalar, the array's entry bit for bit;
    # an array at a (3,) array, whose bits the digest pins
    w_arr = np.array([0.0, 0.5, 4.0])
    digest = hashlib.sha256()
    for spec in _KERNEL_SPECS:
        law = RadialLaw(spec, 2.5)
        calls = (spec.log_kernel, lambda w: log_h(spec, w, 2.5), law.logpdf)
        for call in calls:
            for w in (0.0, 0.3, 4.0, math.inf):
                got = call(w)
                assert type(got) is float, (spec, w, type(got))
                assert _bits(got) == _bits(call(np.array([w])))[0], (spec, w)
            got = call(w_arr)
            assert type(got) is np.ndarray and got.shape == (3,)
            digest.update(got.tobytes())
    for z in (1e-305, 1e-5, 2.0, 1e10):
        assert type(log_bessel_k(30.0, z)) is float
        assert _bits(log_bessel_k(30.0, z)) == _bits(log_bessel_k(30.0, np.array([z])))[0]
    digest.update(log_bessel_k(30.0, np.array([1e-305, 1e-5, 1e10])).tobytes())
    assert digest.hexdigest() == "bb35cc1165558eaaf732afd5af8ec1a12759e3e762d3980bcae7bedcc1198026"


def test_kotz_refuses_an_s_whose_double_overflows():
    # from s = 2**1023 on, 2s is inf and the radial integral's index
    # (2q + n - 2)/(2s) is 0, where log Gamma has a pole
    edge = 2.0**1023
    for s in (edge, sys.float_info.max):
        with pytest.raises(ParameterOutOfDomain, match=r"^Kotz needs r > 0 and 0 < s < 2\*\*1023"):
            Kotz(r=0.5, q=1.0, s=s)
    assert math.isfinite(log_norm_const(Kotz(r=0.5, q=1.0, s=math.nextafter(edge, 0.0)), 2.5))


def test_gaussian_log_h_closed_form():
    spec = Kotz.gaussian()
    for n in (1.0, 2.0, 3.0, 2.7):
        for w in (0.0, 0.3, 1.0, 9.0, 40.0):
            assert abs(log_h(spec, w, n) - (-n / 2.0 * LOG_2PI - w / 2.0)) < 1e-12


# ---------------------------------------------------------------------------
# radial laws


def test_half_normal_radial_value():
    got = RadialLaw(Kotz.gaussian(), 1.0).logpdf(1.0)
    want = math.log(2.0) - 0.5 * LOG_2PI - 0.5
    assert abs(got - want) < 1e-12


def test_rayleigh_radial_closed_form():
    law = RadialLaw(Kotz.gaussian(), 2.0)
    for r in (0.1, 0.5, 1.0, 2.5):
        assert abs(law.logpdf(r) - (math.log(r) - r * r / 2.0)) < 1e-12


def test_radial_law_is_finite_where_r_squared_underflows():
    # r^2 is subnormal at 1e-160 and 0 at 1e-170; kernels singular at w = 0
    # are formed from log r there, so the law keeps its r^{n-1} h(r^2) slope
    n = 3.0
    shell = math.log(2.0) + (n / 2) * math.log(math.pi) - gammaln(n / 2)
    kotz, bessel = Kotz(r=0.5, q=0.5, s=1.0), Bessel(r=1.0, q=2.5)
    for r in (1e-170, 1e-160):
        log_r = math.log(r)
        want = shell + (n - 1) * log_r + log_norm_const(kotz, n) - log_r - 0.5 * r * r
        assert RadialLaw(kotz, n).logpdf(r) == pytest.approx(want, rel=1e-14)
        with mpmath.workdps(30):
            log_k = float(mpmath.log(mpmath.besselk(2.5, mpmath.mpf(r))))
        want = shell + (n - 1) * log_r + log_norm_const(bessel, n) + log_r + log_k
        assert RadialLaw(bessel, n).logpdf(r) == pytest.approx(want, rel=1e-14)
    assert RadialLaw(kotz, n).logpdf(1e-170) == pytest.approx(-391.44, abs=0.01)
    # log r slopes: n - |q| for Bessel, n - 1 + 2(q - 1) for Kotz
    for spec, slope in ((bessel, 0.5), (Bessel(r=1.0, q=0.3), 2.7), (kotz, 1.0)):
        law = RadialLaw(spec, n)
        rise = law.logpdf(1e-160) - law.logpdf(1e-170)
        assert rise / (10 * math.log(10.0)) == pytest.approx(slope, rel=1e-9)
        # where r^2 is a normal float the w form is kept, bit for bit
        r = 2e-154
        assert law.logpdf(r) == shell + (n - 1) * np.log(r) + log_h(spec, r * r, n)
        points = np.array([0.0, 1e-170, 1e-160, r, 0.5])
        assert law.logpdf(points).tolist() == [law.logpdf(x) for x in points.tolist()]
    # below log_bessel_k's floor (r < spec.r * 1e-300) K_q's small-z form
    # applies, also where r / spec.r is subnormal or rounds to 0
    for spec in (bessel, Bessel(r=3.0, q=0.3), Bessel(r=1.0, q=0.0)):
        law = RadialLaw(spec, n)
        for r in (1e-305, 1e-315, 5e-324):
            log_r = math.log(r)
            with mpmath.workdps(40):
                log_k = float(mpmath.log(mpmath.besselk(spec.q, mpmath.mpf(r) / spec.r)))
            want = shell + (n - 1) * log_r + log_norm_const(spec, n) + log_r + log_k
            assert law.logpdf(r) == pytest.approx(want, rel=1e-14)
        assert law.logpdf(np.array([5e-324, 1e-305, 0.5])).tolist() == [
            law.logpdf(x) for x in (5e-324, 1e-305, 0.5)]


RADIAL_GRID = [
    (Kotz.gaussian(), 1.0),
    (Kotz.gaussian(), 3.0),
    (Kotz(r=1.0, q=2.0, s=1.5), 2.0),
    (PearsonVII(r=1.0, q=3.0), 2.0),
    (PearsonVII(r=3.0, q=2.2), 1.0),
    (PearsonII(q=0.0), 1.0),
    (PearsonII(q=2.0), 3.0),
    (Bessel(r=1.0, q=0.3), 2.0),
    (Bessel(r=0.5, q=-0.2), 1.0),
]


@pytest.mark.parametrize("spec,n", RADIAL_GRID)
def test_radial_pdf_integrates_to_one(spec, n):
    law = RadialLaw(spec, n)
    upper = 1.0 if isinstance(spec, PearsonII) else np.inf
    val, err = integrate.quad(lambda r: math.exp(law.logpdf(r)), 0.0, upper, limit=200)
    assert abs(val - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# Bessel K


def test_bessel_k_half_integer_closed_form():
    for z in (1e-6, 1e-3, 0.1, 1.0, 2.0, 25.0, 300.0, 700.0):
        want = 0.5 * math.log(math.pi / (2.0 * z)) - z
        for q in (0.5, -0.5):
            got = log_bessel_k(q, z)
            assert abs(got - want) <= 1e-10 * abs(want)


def test_bessel_k0_reference_value():
    # series evaluation cross-checked in extended precision: K_0(1)
    assert abs(math.exp(log_bessel_k(0.0, 1.0)) - 0.42102443824070834) < 1e-12


def test_bessel_k_past_the_kve_range_matches_extended_precision():
    # scipy's kve returns nan past z ~ 1e9; the Hankel expansion takes over
    for q in (0.0, 0.3, -0.4, 5.0, 50.0):
        for z in (1.2e9, 1e12, 3e15, 1e300):
            with mpmath.workdps(40):
                want = float(mpmath.log(mpmath.besselk(q, z)))
            assert log_bessel_k(q, z) == pytest.approx(want, rel=1e-15)


def _overflow_edge(q: float) -> float:
    """The largest z on a fine grid at which scipy's kve(q, z) overflows."""
    z = np.geomspace(1e-300, 700.0, 4001)
    with np.errstate(over="ignore"):
        return float(z[np.isinf(special.kve(q, z))][-1])


def _mp_log_k(q: float, z: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.besselk(q, z)))


@pytest.mark.parametrize("q", [40.3, -40.3, 50.0, 100.0, 150.2, 300.0, 1000.0])
def test_bessel_k_climbs_the_recurrence_where_kve_overflows(q):
    z = np.geomspace(1e-300, _overflow_edge(q), 12)
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(special.kve(q, z)))  # every point takes the climb
    got = log_bessel_k(q, z)
    want = np.array([_mp_log_k(q, x) for x in z.tolist()])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_bessel_k_mixes_overflow_and_ordinary_points_in_one_array():
    z = np.array([[1e-300, 1e-3, 0.5], [40.0, 2e-9, 1e10]])
    with np.errstate(over="ignore"):
        over = np.isinf(special.kve(100.0, z))
    assert over.tolist() == [[True, True, False], [False, True, False]]
    got = log_bessel_k(100.0, z)
    assert got.shape == z.shape
    for x, g, o in zip(z.ravel().tolist(), got.ravel().tolist(), over.ravel().tolist()):
        if o:
            assert g == pytest.approx(_mp_log_k(100.0, x), rel=1e-13)
        else:
            assert g == log_bessel_k(100.0, x)  # the kve and Hankel paths, untouched


def test_bessel_kernel_at_zero_is_its_limit():
    # W^{1/2} K_q(W^{1/2}/r) -> Gamma(|q|)/2 (2r)^|q| W^{(1-|q|)/2} as W -> 0:
    # zero for |q| < 1, r at |q| = 1, unbounded for |q| > 1
    r = 0.7
    for q in (0.3, 1.0, -1.0, 2.5):
        spec = Bessel(r=r, q=q)
        at_zero, near = spec.log_kernel(0.0), spec.log_kernel(1e-200)
        assert spec.log_kernel(np.array([0.0, 1e-200])).tolist() == [at_zero, near]
        if abs(q) < 1.0:
            assert at_zero == -math.inf and near < -100.0
        elif abs(q) == 1.0:
            assert at_zero == math.log(r) and near == pytest.approx(at_zero, rel=1e-12)
        else:
            assert at_zero == math.inf and near > 100.0
    # so the q = 1 density is continuous at its centre
    p = MvEllipticalParams.scalar_blocks([0.0, 0.0], [1.0, 1.0])
    spec = Bessel(r=1.0, q=1.0)
    at_mu = densities.logpdf_mv_elliptical(p, spec, [0.0, 0.0])
    assert at_mu == pytest.approx(densities.logpdf_mv_elliptical(p, spec, [1e-12, 0.0]),
                                  abs=1e-9)


def test_bessel_k_symmetry_and_domain():
    rng = np.random.default_rng(1)
    for _ in range(30):
        q = float(rng.uniform(-50.0, 50.0))
        z = float(10.0 ** rng.uniform(-6, 2.8))
        assert log_bessel_k(-q, z) == log_bessel_k(q, z)
    for z in (0.0, -3.0, math.nan, np.array([1.0, 0.0]), np.array([1e-305, math.nan])):
        with pytest.raises(ParameterOutOfDomain, match="z > 0"):
            log_bessel_k(1.0, z)
    # below 1e-300, where kve is infinite at every order, the small-z form
    # takes over; arrays mixing both sides agree with scalar calls
    z = np.array([1.0, 1e-305, 1e-300, 5e-324])
    assert log_bessel_k(100.0, z).tolist() == [log_bessel_k(100.0, x) for x in z.tolist()]
    for q in (0.0, 0.3, 1.0, 2.5, 40.3):
        below = log_bessel_k(q, float(np.nextafter(1e-300, 0.0)))
        assert below == pytest.approx(log_bessel_k(q, 1e-300), rel=1e-15)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_bessel_k_refuses_an_order_that_is_not_finite(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before scipy or numpy sees it
        for z in (1.0, np.array([1e-305, 1.0, 1e9])):
            with pytest.raises(ParameterOutOfDomain, match="finite order q"):
                log_bessel_k(q, z)


def test_bessel_k_refuses_an_order_past_its_recurrence_cap_before_any_step():
    # where kve overflows, an order of 10002 or more would take over 10000
    # steps of the upward recurrence (1e20 overflowed np.arange, 2e5 took
    # 0.6 s); the orders up to the cap keep the bits they had without it
    z = np.array([1e-290, 1e-3, 1.0, 100.0, 5e3])
    h = hashlib.sha256()
    for q in (50.5, -1000.25, 10001.75, 10001.0):
        h.update(log_bessel_k(q, z).tobytes())
    assert h.hexdigest() == "7d4006562af02c4866d77fb1c1fce80b196c4d08a7c0b99c768106af4ccc9e1a"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (10002.0, -2e5, 1e20):
            for zq in (1.0, z):
                with pytest.raises(ParameterOutOfDomain, match=re.escape(f"at q={q!r} needs more")):
                    log_bessel_k(q, zq)
        # kve is finite there, and below z = 1e-300 the small-z form applies:
        # neither takes the recurrence
        assert np.isfinite(log_bessel_k(1e20, 1e30)) and np.isfinite(log_bessel_k(1e20, 1e-305))


@pytest.mark.parametrize("z", [1e-301, 1e-305, 1e-310, 5e-324])
def test_bessel_k_small_z_form_matches_mpmath(z):
    # DLMF 10.31.2 at q = 0, 10.30.2's two terms for 0 < |q| < 1 (they cancel
    # as q -> 0), the leading term from |q| = 1 on
    for q in (0.0, 1e-6, 1e-12, 0.3, 0.5, 0.999, 1.0, 2.5, 40.3, -0.3, -2.5):
        assert log_bessel_k(q, z) == pytest.approx(_mp_log_k(q, z), rel=1e-12)


# ---------------------------------------------------------------------------
# the weighted radial integral identity


def test_identity_gaussian_exponential_case():
    assert radial_integral_identity_check(Kotz.gaussian(), 2.0, 1.0) <= 1e-10


def test_identity_pearson7_case():
    assert radial_integral_identity_check(PearsonVII(r=1.0, q=3.0), 2.0, 1.0) <= 1e-6


def _quadpack_identity_ratio(spec, n, a):
    """Left over right side of the radial identity by QUADPACK: the integrand
    and the split at max(a, 1) that the check used before the DE rule."""
    lc = log_norm_const(spec, n)

    def integrand(z):
        if z <= 0:
            return 0.0
        val = (n / 2 - 1) * math.log(z) + lc + float(spec.log_kernel(z / a))
        return math.exp(val) if val > -700 else 0.0

    if isinstance(spec, PearsonII):
        lhs = integrate.quad(integrand, 0.0, a, limit=200)[0]
    else:
        mid = max(a, 1.0)
        lhs = (integrate.quad(integrand, 0.0, mid, limit=200)[0]
               + integrate.quad(integrand, mid, np.inf, limit=200)[0])
    rhs = math.exp((n / 2) * math.log(a / math.pi) + special.gammaln(n / 2))
    return lhs / rhs


IDENTITY_SPECS = [
    Kotz.gaussian(),
    Kotz(r=1.0, q=2.0, s=1.5),
    PearsonVII(r=2.0, q=3.5),
    PearsonII(q=1.0),
    Bessel(r=1.0, q=0.4),
]


@pytest.mark.parametrize("spec", IDENTITY_SPECS)
@pytest.mark.parametrize("a", [0.5, 1.0, 4.0])
def test_identity_holds_for_all_scales(spec, a):
    for n in (1.0, 2.0, 3.0):
        try:
            spec.validate_at(n)
        except ParameterOutOfDomain:
            continue
        residual = radial_integral_identity_check(spec, n, a)
        assert residual <= 1e-6
        # the QUADPACK reference agrees to 1e-9 relative
        assert abs(residual - abs(_quadpack_identity_ratio(spec, n, a) - 1.0)) <= 1e-9


@pytest.mark.parametrize("spec", IDENTITY_SPECS)
@pytest.mark.parametrize("rel", [1e-5, -1e-5])
def test_identity_detects_a_closed_form_off_by_1e5(spec, rel):
    cls = type(spec)
    skewed = type(f"Skewed{cls.__name__}", (cls,), {
        "log_radial_integral": lambda self, n: cls.log_radial_integral(self, n) + math.log1p(rel),
    })(**dataclasses.asdict(spec))
    residual = radial_integral_identity_check(skewed, 2.0, 1.0)
    assert residual > 1e-6
    assert residual == pytest.approx(1e-5, rel=1e-3)


@pytest.mark.parametrize("spec", [
    Kotz(r=1.0, q=0.02, s=1.0),  # integrand z^-0.98 near 0 at n = 2
    PearsonII(q=-0.9),  # 2.5% of the mass within 1e-16 of the support end
])
def test_identity_raises_where_the_rule_cannot_reach_the_mass(spec):
    with pytest.raises(QuadratureFailure):
        radial_integral_identity_check(spec, 2.0, 1.0)


def test_identity_widens_the_window_to_reach_a_singular_end():
    # integrand z^-0.925 near 0 at n = 2: 1.2% of the mass lies below the
    # first window's nodes (z ~ 1e-31); the one retry on a wider window reaches it
    assert radial_integral_identity_check(Kotz(r=1.0, q=0.075, s=1.0), 2.0, 1.0) <= 1e-6
