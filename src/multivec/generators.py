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
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .errors import ParameterOutOfDomain

__all__ = [
    "Kotz",
    "PearsonVII",
    "PearsonII",
    "Bessel",
    "GeneratorSpec",
    "RadialLaw",
    "log_norm_const",
    "log_h",
    "log_bessel_k",
]

_LOG_PI = math.log(math.pi)


def log_bessel_k(q: float, z) -> np.ndarray | float:
    """log K_q(z), the modified Bessel function of the second kind, in log space.

    Accurate to relative 1e-10 on z in [1e-6, 700], |q| <= 50; K_{-q} = K_q.
    The scaled kve path covers almost the whole range.  Past z ~ 1e9, where
    kve returns nan, two terms of the Hankel expansion are exact to double
    precision; where kve overflows (large |q| with tiny z) the value is
    recomputed in extended precision.  z = +inf maps to -inf (the kernel
    decays to zero).

    Raises ParameterOutOfDomain for z <= 0 or nan.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr <= 0) or np.any(np.isnan(z_arr)):
        raise ParameterOutOfDomain(f"log_bessel_k requires z > 0, got {z!r}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.where(np.isinf(z_arr), -np.inf, np.log(special.kve(q, z_arr)) - z_arr)
    far = np.isnan(out) & (z_arr > 1e8)  # the dropped term is below 1e-10 for |q| <= 50
    if np.any(far):
        zf = z_arr[far]
        out[far] = 0.5 * np.log(np.pi / (2.0 * zf)) - zf + np.log1p((4 * q * q - 1) / (8 * zf))
    bad = ~np.isfinite(out) & np.isfinite(z_arr)
    if np.any(bad):
        import mpmath as mp

        with mp.workdps(30):
            for i in np.flatnonzero(bad.ravel()):
                idx = np.unravel_index(i, out.shape)
                val = mp.log(mp.besselk(mp.mpf(q), mp.mpf(float(z_arr[idx]))))
                out[idx] = float(val)
    if np.ndim(z) == 0:
        return float(out[0])
    return out


def _require_finite(spec) -> None:
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    if not all(math.isfinite(v) for v in values.values()):
        raise ParameterOutOfDomain(f"{type(spec).__name__} needs finite parameters, got {values}")


@dataclass(frozen=True)
class Kotz:
    """Kotz kernel W^{q-1} exp(-r W^s); Gaussian at (r, q, s) = (1/2, 1, 1).

    Requires r > 0, s > 0, and 2q + n > 2 at every evaluation dimension n.
    """

    r: float = 0.5
    q: float = 1.0
    s: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.r > 0 and self.s > 0):
            raise ParameterOutOfDomain(f"Kotz needs r > 0 and s > 0, got r={self.r}, s={self.s}")

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
        return np.where(np.isinf(w) & (w > 0), -np.inf, out)

    def log_radial_integral(self, n: float) -> float:
        nu = (2 * self.q + n - 2) / (2 * self.s)
        return float(special.gammaln(nu)) - nu * math.log(self.r) - math.log(self.s)


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
        return -self.q * np.log1p(w / self.r)

    def log_radial_integral(self, n: float) -> float:
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
        w_in = np.asarray(w, dtype=float)
        w1 = np.atleast_1d(w_in)
        out = np.full(w1.shape, -np.inf)
        inside = w1 < 1.0
        out[inside] = self.q * np.log1p(-w1[inside])
        if self.q == 0.0:
            out[w1 == 1.0] = 0.0  # (1-W)^0 = 1 on the support edge
        elif self.q < 0.0:
            out[w1 == 1.0] = np.inf
        if w_in.ndim == 0:
            return float(out[0])
        return out

    def log_radial_integral(self, n: float) -> float:
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
        w_in = np.asarray(w, dtype=float)
        w1 = np.atleast_1d(w_in)
        out = np.full(w1.shape, -np.inf)
        pos = (w1 > 0) & np.isfinite(w1)  # K_q decay beats the power at w = inf
        if np.any(pos):
            zs = np.sqrt(w1[pos]) / self.r
            out[pos] = 0.5 * np.log(w1[pos]) + log_bessel_k(self.q, zs)
        if w_in.ndim == 0:
            return float(out[0])
        return out

    def log_radial_integral(self, n: float) -> float:
        # int s^{(n-1)/2} K_q(sqrt(s)/r) ds = 2^n r^{n+1} G((n+1-q)/2) G((n+1+q)/2)
        return (
            n * math.log(2.0)
            + (n + 1) * math.log(self.r)
            + float(special.gammaln((n + 1 - self.q) / 2))
            + float(special.gammaln((n + 1 + self.q) / 2))
        )


GeneratorSpec = Kotz | PearsonVII | PearsonII | Bessel


def log_norm_const(spec: GeneratorSpec, n: float) -> float:
    """log of the constant c(n) normalizing c * kernel(||x||^2) over R^n."""
    if not (np.isfinite(n) and n > 0):
        raise ParameterOutOfDomain(f"dimension must be positive, got {n}")
    spec.validate_at(n)
    return (
        float(special.gammaln(n / 2))
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
        """log of dF(r) = (2 pi^{n/2} / Gamma(n/2)) r^{n-1} h(r^2)."""
        r = np.asarray(r, dtype=float)
        n = self.n
        const = math.log(2.0) + (n / 2) * _LOG_PI - float(special.gammaln(n / 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                r > 0,
                const
                + (n - 1) * np.log(np.maximum(r, 1e-300))
                + log_h(self.spec, r**2, n),
                -np.inf,
            )
        if r.ndim == 0:
            return float(out)
        return out
