"""Elliptical generator kernels and their dimension-dependent constants.

A spherical law in dimension n has density c(n) * kernel(||x||^2).  Each
kernel family below supplies log kernel(w) and the closed form of its radial
integral I(n) = int_0^inf s^{n/2-1} kernel(s) ds, from which

    log c(n) = log Gamma(n/2) - (n/2) log pi - log I(n)

follows; this is the unique constant making the density integrate to one.
The effective dimension n is a positive real throughout: the derived scalar
families evaluate these constants at n = 2 * (sum of shape parameters).

For the Kotz, Pearson VII and Pearson II families the constant produced this
way coincides exactly with the familiar tabulated closed forms.  For the
Bessel family (kernel W^{1/2} K_q(W^{1/2}/r)) the commonly tabulated constant
does NOT integrate to one against this kernel; the constant here is instead
derived from the Mellin transform int_0^inf t^{mu-1} K_q(t) dt =
2^{mu-2} Gamma((mu-q)/2) Gamma((mu+q)/2), which does.  The test suite checks
both facts numerically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import _EXPORTS
from .core import _result
from .errors import ParameterOutOfDomain

__all__ = list(_EXPORTS["generators"])

_LOG_PI = math.log(math.pi)
_LOG_SQRT_2PI = 0.91893853320467274178
_GAMMALN_MAX = 2.556348e305  # log Gamma overflows past this
_BESSEL_Z_FLOOR = 1e-300  # kve is infinite at every order below about 1e-304
# the most steps log_bessel_k's upward recurrence takes (|q| < 10002), far
# past the orders it is accurate for; about 30 ms of Python steps
_BESSEL_MAX_STEPS = 10_000
_TINY = sys.float_info.min  # the smallest normal float
_KOTZ_S_END = 2.0**1023  # 2s overflows from here on
_ZETA3, _ZETA5 = 1.2020569031595942854, 1.0369277551433699263  # Riemann zeta(3), zeta(5)


def gammaln(x: float) -> float:
    """log Gamma(x) for one finite float x > 0, bit for bit scipy.special.gammaln.

    A port of Cephes lgam (Moshier 1989), which scipy's gammaln calls: below
    13 the recurrence Gamma(x+1) = x Gamma(x) moves x into [2, 3), where a
    rational fit applies; from 13 up Stirling's series, shortened at 1000 and
    dropped past 1e8.  Each Horner step is written out in Cephes' operation
    order, so every rounding matches.  Every caller passes a shape parameter
    its domain check has already made positive.
    """
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        num = (((((-1.37825152569120859100e3 * x
                   - 3.88016315134637840924e4) * x
                  - 3.31612992738871184744e5) * x
                 - 1.16237097492762307383e6) * x
                - 1.72173700820839662146e6) * x
               - 8.53555664245765465627e5)
        den = ((((((x - 3.51815701436523470549e2) * x
                   - 1.70642106651881159223e4) * x
                  - 2.20528590553854454839e5) * x
                 - 1.13933444367982507207e6) * x
                - 2.53252307177582951285e6) * x
               - 2.01889141433532773231e6)
        return math.log(z) + x * num / den
    if x > _GAMMALN_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + ((((8.11614167470508450300e-4 * p
                   - 5.95061904284301438324e-4) * p
                  + 7.93650340457716943945e-4) * p
                 - 2.77777777730099687205e-3) * p
                + 8.33333333333331927722e-2) / x


_EULER = 0.57721566490153286061
_PSI_ROOT = (1569415565.0 / 1073741824.0, (381566830.0 / 1073741824.0) / 1073741824.0,
             0.9016312093258695918615325266959189453125e-19)  # digamma's root near 1.46
_PSI_Y = 0.99558162689208984  # a float32 constant, exact as a double
_MACHEP = 1.11022302462515654042e-16  # 2**-53


def digamma(x: float) -> float:
    """psi(x) = d log Gamma(x)/dx for one finite float x > 0, bit for bit
    scipy.special.digamma.

    A port of Cephes psi (Moshier 1989) as scipy runs it: a sum of 1/i at the
    integers up to 10; below 10 the recurrence psi(x+1) = psi(x) + 1/x moves x
    into [1, 2], where Boost's rational fit digamma_imp_1_2 applies; from 10
    up the asymptotic series, dropped past 1e17.  Horner steps follow Cephes'
    polevl order.
    """
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if x <= 2.0:
        g = x - _PSI_ROOT[0]
        g -= _PSI_ROOT[1]
        g -= _PSI_ROOT[2]
        t = x - 1.0
        num = (((((-0.0020713321167745952 * t
                   - 0.045251321448739056) * t
                  - 0.28919126444774784) * t
                 - 0.65031853770896507) * t
                - 0.32555031186804491) * t
               + 0.25479851061131551)
        den = ((((((-0.55789841321675513e-6 * t
                    + 0.0021284987017821144) * t
                   + 0.054151797245674225) * t
                  + 0.43593529692665969) * t
                 + 1.4606242909763515) * t
                + 2.0767117023730469) * t
               + 1.0)
        return y + (g * _PSI_Y + g * (num / den))
    s = 0.0
    if x < 1.0e17:
        z = 1.0 / (x * x)
        s = z * ((((((8.33333333333333333333e-2 * z
                      - 2.10927960927960927961e-2) * z
                     + 7.57575757575757575758e-3) * z
                    - 4.16666666666666666667e-3) * z
                   + 3.96825396825396825397e-3) * z
                  - 8.33333333333333333333e-3) * z
                 + 8.33333333333333333333e-2)
    return y + (math.log(x) - 0.5 / x - s)


# (2k)! / B_2k, the Euler-Maclaurin coefficients of Cephes zeta
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)


def trigamma(x: float) -> float:
    """psi'(x) for one finite float x > 0, bit for bit scipy.special.polygamma(1, x).

    scipy forms polygamma(1, x) as Gamma(2) zeta(2, x) = zeta(2, x); this
    ports the Hurwitz zeta of Cephes (Moshier 1989): past x = 1e8 the
    asymptotic (1 + 1/(2x))/x; else the direct sum of (x + i)^-2 over at least
    9 terms and until x + i passes 9, stopping early once a term is below
    2^-53 of the sum, then Euler-Maclaurin with up to 12 Bernoulli terms.
    Powers go through libm's pow, as in Cephes.
    """
    if x > 1e8:
        return (1.0 + 1.0 / (2.0 * x)) * math.pow(x, -1.0)
    try:
        s = math.pow(x, -2.0)
    except OverflowError:  # x below ~1e-154: C's pow returns inf, as does scipy
        return math.inf
    a, i, b = x, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -2.0)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w  # b w / (x - 1) at x = 2
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= 2.0 + k
        b /= w
        t = a * b / coef
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= 2.0 + k
        b /= w
        k += 1.0
    return s


def log_bessel_k(q: float, z) -> np.ndarray | float:
    """log K_q(z), the modified Bessel function of the second kind, in log space.

    Accurate to relative 1e-10 on z in [1e-6, 700], |q| <= 50; K_{-q} = K_q.
    The scaled kve path covers almost the whole range.  Past z ~ 1e9, where
    kve returns nan, two terms of the Hankel expansion are exact to double
    precision.  Where kve overflows (large |q| with tiny z), the upward
    recurrence K_{v+1} = K_{v-1} + (2v/z) K_v, which is stable for K (DLMF
    10.29.1), climbs in logs from orders f and 1 - f, |q| = n + f, where kve
    is finite for every z >= 1e-300.  Below that floor kve is infinite at
    every order, and the small-z form of :func:`_log_bessel_k_small` applies.
    z = +inf maps to -inf (the kernel decays to zero).

    Raises ParameterOutOfDomain for a NaN or infinite q, for z <= 0 or nan,
    and, before any step, where the recurrence would take more than
    _BESSEL_MAX_STEPS (10000) steps: from |q| = 10002 up, at a z >= 1e-300
    where kve overflows.
    """
    from scipy import special  # deferred: costs CLI start-up

    if not math.isfinite(q):
        raise ParameterOutOfDomain(f"log_bessel_k requires a finite order q, got {q!r}")
    z_in = np.asarray(z, dtype=float)
    if not np.all(z_in > 0):
        raise ParameterOutOfDomain(f"log_bessel_k requires z > 0, got {z!r}")
    small = z_in < _BESSEL_Z_FLOOR
    z_arr = np.where(small, 1.0, z_in) if small.any() else z_in
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.where(np.isinf(z_arr), -np.inf, np.log(special.kve(q, z_arr)) - z_arr)
    far = np.isnan(out) & (z_arr > 1e8)  # the dropped term is below 1e-10 for |q| <= 50
    if np.any(far):
        zf = z_arr[far]
        out[far] = 0.5 * np.log(np.pi / (2.0 * zf)) - zf + np.log1p((4 * q * q - 1) / (8 * zf))
    bad = ~np.isfinite(out) & np.isfinite(z_arr) & ~small
    if np.any(bad):
        # kve overflows only past |q| = 1, so n >= 1; all logs carry kve's e^z
        zb = z_arr[bad]
        n, f = divmod(abs(q), 1.0)
        if n - 1.0 > _BESSEL_MAX_STEPS:
            raise ParameterOutOfDomain(
                f"log_bessel_k at q={q!r} needs more than {_BESSEL_MAX_STEPS} recurrence steps"
                " where kve overflows")
        with np.errstate(divide="ignore"):  # log(2f/z) = -inf at f = 0 adds nothing
            lo = np.log(special.kve(f, zb))  # K_{f+1} = K_{1-f} + (2f/z) K_f
            hi = np.logaddexp(np.log(special.kve(1.0 - f, zb)), np.log(2.0 * f / zb) + lo)
        for v in np.arange(1, n) + f:  # (lo, hi) = log (K_{v-1}, K_v) -> log (K_v, K_{v+1})
            lo, hi = hi, np.logaddexp(lo, np.log(2.0 * v / zb) + hi)
        out[bad] = hi - zb
    if small.any():
        out[small] = _log_bessel_k_small(q, np.log(z_in[small]))
    return _result(out)


def _log_bessel_k_small(q: float, log_z: np.ndarray) -> np.ndarray:
    """log K_q(z) from log z, for 0 < z < 1e-300, where the dropped terms of
    DLMF 10.31.2 (q = 0) and 10.30.2 are below z^2 relative.

    With t = -log(z/2) = log 2 - log z, which a subnormal z keeps exact:
    K_0 = t - gamma; for nu = |q| >= 1 the leading term Gamma(nu)/2 e^{nu t};
    for 0 < nu < 1 both terms, Gamma(nu)/2 e^{nu t} + Gamma(-nu)/2 e^{-nu t}.
    Written with Gamma(1 +- nu) = e^{A +- D} that sum is e^A sinh(nu t + D)/nu,
    so the two terms' cancellation as nu -> 0 costs no bits, and the limit is
    K_0.  Below nu = 1e-3, where 1 +- nu drops bits of nu that nu t would
    feel, D comes from the odd Taylor terms of log Gamma(1 + nu) instead.
    """
    nu, t = abs(q), math.log(2.0) - log_z
    if nu == 0.0:
        return np.log(t - _EULER)
    if nu >= 1.0:
        return math.lgamma(nu) - math.log(2.0) + nu * t
    g_up, g_down = math.lgamma(1.0 + nu), math.lgamma(1.0 - nu)
    odd = (-nu * (_EULER + nu * nu * (_ZETA3 / 3.0 + nu * nu * _ZETA5 / 5.0)) if nu < 1e-3
           else 0.5 * (g_up - g_down))
    y = nu * t + odd
    log_sinh = y - math.log(2.0) + np.log(-np.expm1(-2.0 * y))
    return 0.5 * (g_up + g_down) + log_sinh - math.log(nu)


def _require_finite(spec) -> None:
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    if not all(math.isfinite(v) for v in values.values()):
        raise ParameterOutOfDomain(f"{type(spec).__name__} needs finite parameters, got {values}")


@dataclass(frozen=True)
class Kotz:
    """Kotz kernel W^{q-1} exp(-r W^s); Gaussian at (r, q, s) = (1/2, 1, 1).

    Requires r > 0, 0 < s < 2**1023, and 2q + n > 2 at every evaluation
    dimension n.  Below that bound on s, 2s is finite, so wherever 2q + n > 2
    the radial integral's index (2q + n - 2)/(2s) is a positive double.
    """

    r: float = 0.5
    q: float = 1.0
    s: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.r > 0 and 0 < self.s < _KOTZ_S_END):
            raise ParameterOutOfDomain(
                f"Kotz needs r > 0 and 0 < s < 2**1023, got r={self.r}, s={self.s}")

    @classmethod
    def gaussian(cls) -> "Kotz":
        return cls(0.5, 1.0, 1.0)

    def validate_at(self, n: float) -> None:
        if 2 * self.q + n <= 2:
            raise ParameterOutOfDomain(
                f"Kotz needs 2q + n > 2, got q={self.q} at n={n}"
            )

    def log_kernel(self, w):
        w = np.asarray(w, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            power = 0.0 if self.q == 1.0 else (self.q - 1.0) * np.log(w)
            out = power - self.r * w**self.s
        # the exponential always wins at w = inf (power - inf would give nan)
        return _result(np.where(np.isinf(w) & (w > 0), -np.inf, out))

    def log_kernel_at_log(self, log_w):
        """log_kernel(exp(log_w)), for w too small to hold as a normal float."""
        power = 0.0 if self.q == 1.0 else (self.q - 1.0) * log_w
        return power - self.r * np.exp(self.s * log_w)

    def log_radial_integral(self, n: float) -> float:
        nu = (2 * self.q + n - 2) / (2 * self.s)
        return gammaln(nu) - nu * math.log(self.r) - math.log(self.s)


@dataclass(frozen=True)
class PearsonVII:
    """Pearson VII kernel (1 + W/r)^{-q}; multivariate t at q = (n + nu)/2, r = nu."""

    r: float
    q: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.r > 0:
            raise ParameterOutOfDomain(f"PearsonVII needs r > 0, got {self.r}")

    def validate_at(self, n: float) -> None:
        if self.q <= n / 2:
            raise ParameterOutOfDomain(
                f"PearsonVII needs q > n/2, got q={self.q} at n={n}"
            )

    def log_kernel(self, w):
        w = np.asarray(w, dtype=float)
        return _result(-self.q * np.log1p(w / self.r))

    def log_radial_integral(self, n: float) -> float:
        from scipy import special  # deferred: costs CLI start-up

        return (n / 2) * math.log(self.r) + float(
            special.betaln(n / 2, self.q - n / 2)
        )


@dataclass(frozen=True)
class PearsonII:
    """Pearson II kernel (1 - W)^q on W <= 1; q > -1 so Gamma(q+1) is finite."""

    q: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.q > -1:
            raise ParameterOutOfDomain(f"PearsonII needs q > -1, got {self.q}")

    def validate_at(self, n: float) -> None:
        pass  # q > -1 suffices for every n > 0

    def log_kernel(self, w):
        w = np.asarray(w, dtype=float)
        out = np.full(w.shape, -np.inf)
        inside = w < 1.0
        out[inside] = self.q * np.log1p(-w[inside])
        if self.q == 0.0:
            out[w == 1.0] = 0.0  # (1-W)^0 = 1 on the support edge
        elif self.q < 0.0:
            out[w == 1.0] = np.inf
        return _result(out)

    def log_radial_integral(self, n: float) -> float:
        from scipy import special  # deferred: costs CLI start-up

        return float(special.betaln(n / 2, self.q + 1))


@dataclass(frozen=True)
class Bessel:
    """Bessel kernel W^{1/2} K_q(W^{1/2}/r).

    Integrability of s^{n/2-1} * s^{1/2} K_q(s^{1/2}/r) near zero and infinity
    requires |q| < n + 1; we additionally keep the conventional q > -n/2
    constraint.  The normalizing constant comes from the K_q Mellin transform
    (see module docstring): the commonly tabulated closed form fails the
    normalization check against this kernel.

    The two Gamma factors of that constant, with shapes a = (n+1+q)/2 and
    b = (n+1-q)/2, are the laws behind the radius: its density is
    proportional to R^n K_q(R/r), the K-distribution of R = 2 r sqrt(G_a G_b)
    for independent unit-scale G_a ~ Gamma(a), G_b ~ Gamma(b) (Jakeman and
    Pusey 1976).  Both shapes are positive exactly when |q| < n + 1, and
    the sampler draws the radius this way.
    """

    r: float
    q: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.r > 0:
            raise ParameterOutOfDomain(f"Bessel needs r > 0, got {self.r}")

    def validate_at(self, n: float) -> None:
        if self.q <= -n / 2 or abs(self.q) >= n + 1:
            raise ParameterOutOfDomain(
                f"Bessel needs -n/2 < q and |q| < n+1, got q={self.q} at n={n}"
            )

    def log_kernel(self, w):
        w = np.asarray(w, dtype=float)
        out = np.full(w.shape, -np.inf)
        pos = (w > 0) & np.isfinite(w)  # K_q decay beats the power at w = inf
        if np.any(pos):
            zs = np.sqrt(w[pos]) / self.r
            out[pos] = 0.5 * np.log(w[pos]) + log_bessel_k(self.q, zs)
        # the limit at W = 0 is Gamma(|q|)/2 (2r)^|q| W^{(1-|q|)/2}: 0, r or inf
        if abs(self.q) == 1.0:
            out[w == 0.0] = math.log(self.r)
        elif abs(self.q) > 1.0:
            out[w == 0.0] = np.inf
        return _result(out)

    def log_kernel_at_log(self, log_w):
        """log_kernel(exp(log_w)), for w too small to hold as a normal float.
        Where z = w^{1/2}/r is below log_bessel_k's floor, it may be subnormal
        or 0, so there K_q's small-z form takes log z from log w."""
        half = 0.5 * np.atleast_1d(np.asarray(log_w, dtype=float))
        z = np.exp(half) / self.r
        small = z < _BESSEL_Z_FLOOR
        log_k = log_bessel_k(self.q, np.where(small, 1.0, z))
        log_k[small] = _log_bessel_k_small(self.q, half[small] - math.log(self.r))
        return half + log_k

    def log_radial_integral(self, n: float) -> float:
        # int s^{(n-1)/2} K_q(sqrt(s)/r) ds = 2^n r^{n+1} G((n+1-q)/2) G((n+1+q)/2)
        return (
            n * math.log(2.0)
            + (n + 1) * math.log(self.r)
            + gammaln((n + 1 - self.q) / 2)
            + gammaln((n + 1 + self.q) / 2)
        )


GeneratorSpec = Kotz | PearsonVII | PearsonII | Bessel


def log_norm_const(spec: GeneratorSpec, n: float) -> float:
    """log of the constant c(n) normalizing c * kernel(||x||^2) over R^n."""
    if not (np.isfinite(n) and n > 0):
        raise ParameterOutOfDomain(f"dimension must be positive, got {n}")
    spec.validate_at(n)
    return (
        gammaln(n / 2)
        - (n / 2) * _LOG_PI
        - spec.log_radial_integral(n)
    )


def log_h(spec: GeneratorSpec, w, n: float):
    """log of the normalized generator density h(w) at dimension n."""
    return log_norm_const(spec, n) + spec.log_kernel(w)


@dataclass(frozen=True)
class RadialLaw:
    """Distribution of ||x|| for spherical x with generator spec at dimension n."""

    spec: GeneratorSpec
    n: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.n) and self.n > 0):
            raise ParameterOutOfDomain(f"dimension must be positive, got {self.n}")
        self.spec.validate_at(self.n)

    def logpdf(self, r):
        """log of dF(r) = (2 pi^{n/2} / Gamma(n/2)) r^{n-1} h(r^2).

        Where r^2 falls below the normal floats (r < ~1.5e-154) it loses bits
        or underflows to 0, so there the singular Kotz and Bessel kernels are
        formed from log r instead.
        """
        r = np.asarray(r, dtype=float)
        n = self.n
        const = math.log(2.0) + (n / 2) * _LOG_PI - gammaln(n / 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                r > 0,
                const
                + (n - 1) * np.log(r)
                + log_h(self.spec, r**2, n),
                -np.inf,
            )
        tiny = (r > 0) & (r * r < _TINY)
        if isinstance(self.spec, (Kotz, Bessel)) and np.any(tiny):
            log_r = np.log(r[tiny])
            out[tiny] = (const + (n - 1) * log_r + log_norm_const(self.spec, n)
                         + self.spec.log_kernel_at_log(2.0 * log_r))
        return _result(out)
