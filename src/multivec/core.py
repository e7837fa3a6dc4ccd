"""Shared domain types, block partitions, and dense SPD linear algebra.

Every multivector family works on a vector split into contiguous blocks.
This module owns that bookkeeping plus the Cholesky-based pieces
(log-determinant, quadratic form) the elliptical densities need.
All heavy numeric work elsewhere is done in log space; see the density
modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, ParameterOutOfDomain

__all__ = [
    "Partition",
    "ExtendedShape",
    "MvEllipticalParams",
    "ScaleShapeParams",
    "SampleMatrix",
    "FitResult",
    "spd_factorize",
    "block_quadform",
    "validate_partition",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    """Block structure shared by the multivector families.

    Parameters
    ----------
    dims : tuple of int
        Block dimensions n_1, ..., n_k (each >= 1).
    n0 : int, optional
        Auxiliary block dimension for the t / Pearson II families
        (the denominator block), >= 1 when present.
    """

    dims: tuple[int, ...]
    n0: int | None = None

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise DimensionMismatch("partition needs at least one block")
        if any(d < 1 for d in dims):
            raise DimensionMismatch(f"block dimensions must be >= 1, got {dims}")
        if self.n0 is not None and self.n0 < 1:
            raise DimensionMismatch(f"n0 must be >= 1, got {self.n0}")

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        """Total dimension of the partitioned vector (excludes n0)."""
        return int(sum(self.dims))

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(np.concatenate([[0], np.cumsum(self.dims)]).astype(int))


@dataclass(frozen=True)
class ExtendedShape:
    """Real shape parameters alpha_1..alpha_k plus optional alpha_0.

    alpha_star is the derived total alpha_0 + sum(alphas); families without
    an auxiliary block leave alpha0 as None and alpha_star is just the sum.
    """

    alphas: tuple[float, ...]
    alpha0: float | None = None

    def __post_init__(self) -> None:
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 1:
            raise DimensionMismatch("need at least one shape parameter")
        if any(not np.isfinite(a) or a <= 0 for a in alphas):
            raise DimensionMismatch(f"shapes must be positive reals, got {alphas}")
        if self.alpha0 is not None:
            if not np.isfinite(self.alpha0) or self.alpha0 <= 0:
                raise DimensionMismatch(f"alpha0 must be positive, got {self.alpha0}")
            object.__setattr__(self, "alpha0", float(self.alpha0))

    @property
    def k(self) -> int:
        return len(self.alphas)

    @property
    def alpha_star(self) -> float:
        base = self.alpha0 if self.alpha0 is not None else 0.0
        return base + float(sum(self.alphas))


def _as_spd(mat: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotPositiveDefinite(f"{name} has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > _SYM_TOL * scale:
        raise NotPositiveDefinite(f"{name} is not symmetric within 1e-12")
    return m


@dataclass(frozen=True)
class MvEllipticalParams:
    """Per-block locations mu_i and SPD scales Sigma_ii for the elliptical family.

    mus and sigmas are stored as read-only copies, so the Cholesky factors
    cached on first use cannot go stale.
    """

    partition: Partition
    mus: tuple[np.ndarray, ...]
    sigmas: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        p = self.partition
        if len(self.mus) != p.k or len(self.sigmas) != p.k:
            raise DimensionMismatch(
                f"expected {p.k} blocks, got {len(self.mus)} mus / {len(self.sigmas)} sigmas"
            )
        mus = []
        sigmas = []
        for i, (mu, sig, n_i) in enumerate(zip(self.mus, self.sigmas, p.dims)):
            mu = np.atleast_1d(np.array(mu, dtype=float))
            if mu.shape != (n_i,):
                raise DimensionMismatch(
                    f"block {i}: mu has shape {mu.shape}, expected ({n_i},)"
                )
            if not np.all(np.isfinite(mu)):
                raise ParameterOutOfDomain(f"block {i}: mu must be finite, got {mu}")
            sig = np.array(_as_spd(sig, f"Sigma_{i}{i}"))
            if sig.shape != (n_i, n_i):
                raise DimensionMismatch(
                    f"block {i}: Sigma has shape {sig.shape}, expected ({n_i}, {n_i})"
                )
            mu.flags.writeable = sig.flags.writeable = False
            mus.append(mu)
            sigmas.append(sig)
        object.__setattr__(self, "mus", tuple(mus))
        object.__setattr__(self, "sigmas", tuple(sigmas))

    @cached_property
    def factors(self) -> tuple[tuple[np.ndarray, float], ...]:
        """Per block: the lower Cholesky factor in ``cho_factor`` layout (the
        upper triangle is not zeroed) and log det Sigma_ii, factored once."""
        return tuple(_cholesky(sig) for sig in self.sigmas)

    @classmethod
    def scalar_blocks(
        cls, mus: Sequence[float], sigma2s: Sequence[float]
    ) -> "MvEllipticalParams":
        """Convenience constructor: k scalar blocks with variances sigma2s."""
        part = Partition(dims=tuple(1 for _ in mus))
        return cls(
            partition=part,
            mus=tuple(np.array([float(m)]) for m in mus),
            sigmas=tuple(np.array([[float(s)]]) for s in sigma2s),
        )


@dataclass(frozen=True)
class ScaleShapeParams:
    """Paired (shape, scale) lists for the scalar families of the derived laws.

    scales hold sigma_i^2 or beta_i depending on the family; both must be
    strictly positive and the two lists equal length.
    """

    shapes: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        shapes = tuple(float(a) for a in self.shapes)
        scales = tuple(float(s) for s in self.scales)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "scales", scales)
        if len(shapes) != len(scales):
            raise DimensionMismatch(
                f"{len(shapes)} shapes vs {len(scales)} scales"
            )
        if len(shapes) < 1:
            raise DimensionMismatch("need at least one (shape, scale) pair")
        bad = [
            v
            for v in shapes + scales
            if not np.isfinite(v) or v <= 0
        ]
        if bad:
            raise DimensionMismatch(f"shapes and scales must be positive, got {bad}")

    @property
    def k(self) -> int:
        return len(self.shapes)


@dataclass(frozen=True)
class SampleMatrix:
    """An m x c data matrix; rectangular, finite entries."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatch(f"sample matrix must be 2-d, got ndim {v.ndim}")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("sample matrix contains NaN or Inf")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]


@dataclass
class FitResult:
    """Outcome of a likelihood fit: named estimates plus optimizer diagnostics.

    ``restarts`` holds one log entry per solve (start, loglik, converged,
    iterations); ``pinned`` names the params set by convention, not the data.
    """

    params: dict[str, float]
    loglik: float
    iterations: int
    converged: bool
    mode: str
    restarts: list[dict] = field(default_factory=list)
    pinned: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.converged and not np.isfinite(self.loglik):
            raise ValueError("converged fit must have finite loglik")


def _cholesky(S: np.ndarray) -> tuple[np.ndarray, float]:
    """cho_factor(S, lower=True) and log det S of a validated square matrix."""
    from scipy.linalg import cho_factor  # deferred: costs CLI start-up

    try:
        c, _ = cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    diag = np.diagonal(c)
    if np.any(diag <= 0):
        raise NotPositiveDefinite("nonpositive Cholesky pivot")
    return c, 2.0 * float(np.sum(np.log(diag)))


def spd_factorize(S: np.ndarray) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """Cholesky-factorize a symmetric positive definite matrix.

    Returns
    -------
    logdet : float
        log det(S).
    solve : callable
        Maps b to S^{-1} b (relative residual <= 1e-10 on SPD input).

    Raises
    ------
    NotPositiveDefinite
        If S is not finite, not symmetric within 1e-12 or has a nonpositive
        pivot.
    """
    from scipy.linalg import cho_solve

    c, logdet = _cholesky(_as_spd(S, "S"))

    def solve(b: np.ndarray) -> np.ndarray:
        return cho_solve((c, True), np.asarray(b, dtype=float))

    return logdet, solve


def validate_partition(p: Partition, x: np.ndarray) -> list[np.ndarray]:
    """Split x (last axis) into the k contiguous blocks declared by p.

    Accepts batched input: x may have shape (..., total).  Returns views,
    one per block, each of shape (..., n_i).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.total:
        raise DimensionMismatch(
            f"vector length {x.shape[-1]} does not match partition total {p.total}"
        )
    off = p.offsets
    return [x[..., off[i] : off[i + 1]] for i in range(p.k)]


def block_quadform(params: MvEllipticalParams, x: np.ndarray) -> np.ndarray:
    """Sum of per-block quadratic forms (x_i - mu_i)' Sigma_ii^{-1} (x_i - mu_i).

    x may be batched with shape (..., total); returns shape (...).  A
    non-finite coordinate gives +inf or NaN, never an exception.
    """
    from scipy.linalg import cho_solve  # deferred: costs CLI start-up

    blocks = validate_partition(params.partition, x)
    total = 0.0
    for blk, mu, (c, _) in zip(blocks, params.mus, params.factors):
        d = blk - mu
        # cho_solve works on the leading axis, the blocks carry theirs last
        sol = cho_solve((c, True), np.moveaxis(d, -1, 0), check_finite=False)
        with np.errstate(over="ignore"):  # an overflowing form is +inf
            total = total + np.sum(np.moveaxis(sol, 0, -1) * d, axis=-1)
    return total
