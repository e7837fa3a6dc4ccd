"""Generator kernels, their normalizing constants, and the radial laws."""

import dataclasses
import math

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

LOG_2PI = math.log(2.0 * math.pi)


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


def test_bessel_k_symmetry_and_domain():
    rng = np.random.default_rng(1)
    for _ in range(30):
        q = float(rng.uniform(-50.0, 50.0))
        z = float(10.0 ** rng.uniform(-6, 2.8))
        assert log_bessel_k(-q, z) == log_bessel_k(q, z)
    with pytest.raises(ParameterOutOfDomain):
        log_bessel_k(1.0, 0.0)
    with pytest.raises(ParameterOutOfDomain):
        log_bessel_k(1.0, -3.0)


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
    Kotz(r=1.0, q=0.075, s=1.0),  # integrand z^-0.925 near 0 at n = 2
    PearsonII(q=-0.9),  # 2.5% of the mass within 1e-16 of the support end
])
def test_identity_raises_where_the_rule_cannot_reach_the_mass(spec):
    with pytest.raises(QuadratureFailure):
        radial_integral_identity_check(spec, 2.0, 1.0)
