"""Shared domain types, block partitions, and dense SPD linear algebra.

Every multivector family works on a vector split into contiguous blocks.
This module owns that bookkeeping (block dims, cuts and norms) for every
family, and the Cholesky pieces (log-determinant, quadratic form) of the
elliptical densities.
All heavy numeric work elsewhere is done in log space; see the density
modules.

It also owns the one thread pool of the package (_map_chunks): the row-wise
stages of the oracles in ``validation`` and the long logpdf batches of
``densities`` share their chunks between the calling thread and that pool.
numpy and scipy ufuncs release the GIL, so the chunks run on every CPU.  The
pool changes no thread's CPU affinity; where each thread runs is left to the
scheduler.  A block of 2 or more dims solves the quadratic forms of all its
rows in one LAPACK call, which OpenBLAS may hand to threads of its own that
compete with the pool's.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from . import _EXPORTS
from .errors import DimensionMismatch, NotPositiveDefinite, ParameterOutOfDomain

__all__ = list(_EXPORTS["core"])

_SYM_TOL = 1e-12


def _positive(name: str, values) -> tuple[float, ...]:
    """values as floats; ParameterOutOfDomain unless each is finite and > 0."""
    vals = tuple(float(v) for v in values)
    if not all(math.isfinite(v) and v > 0 for v in vals):
        raise ParameterOutOfDomain(f"{name} must be positive, got {vals}")
    return vals


def _result(out):
    """out as a float when it is 0-d, else as an array: what every density,
    kernel and radial law returns."""
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def _whole(value, name: str, least: int = 0, error: type[Exception] = ParameterOutOfDomain) -> int:
    """The package's one rule for a whole number a caller passes in (a block
    dim, sample size, draw count, seed or iteration cap): value as an int
    >= least.  Integers, numpy integers and integral floats pass; a
    fraction, NaN, infinity, boolean, string, bytes or other non-number
    raises `error`.  A size or count that becomes an array's length also
    passes _count's bound."""
    # operator.index reads True as 1 and float() reads "3" as 3.0: neither is a count
    x = math.nan if isinstance(value, (bool, np.bool_, str, bytes, bytearray)) else value
    try:
        whole = operator.index(x)
    except TypeError:
        try:
            x = float(x)
        except (TypeError, ValueError):
            x = math.nan
        if not x.is_integer():
            raise error(f"{name} must be a whole number, got {value!r}") from None
        whole = int(x)
    if whole < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return whole


_COUNT_MAX = int(np.iinfo(np.intp).max)  # the longest axis numpy can index


def _count(value, name: str, least: int = 0, error: type[Exception] = ParameterOutOfDomain) -> int:
    """_whole's value as the length of an array axis (a sample size, a
    draw or point count, a dimension or grid steps): also at most np.intp's
    largest value, past which numpy cannot form the array and raises a
    bare ValueError; this raises `error` first."""
    if (whole := _whole(value, name, least, error)) > _COUNT_MAX:
        raise error(f"{name} must be <= {_COUNT_MAX}, got {value}")
    return whole


def _block_dims(dims, least_blocks: int = 1) -> tuple[int, ...]:
    """dims as at least least_blocks whole numbers >= 1; DimensionMismatch otherwise."""
    dims = tuple(_whole(d, "block dim", 1, DimensionMismatch) for d in dims)
    if len(dims) < least_blocks:
        raise DimensionMismatch(f"need at least {least_blocks} block, got {len(dims)}")
    return dims


def _sum_in_order(values) -> float:
    """0.0 + v[0] + v[1] + ... left to right, as Python 3.11's builtin sum
    adds floats; from 3.12 that sum is compensated, so its last bit can
    differ."""
    total = 0.0
    for v in values:
        total += v
    return total


# numpy adds fewer than this many terms in order, so a column loop over a
# shorter last axis gives its reduction bit for bit, several times faster
_SHORT_AXIS = 8


def _sum_last(a: np.ndarray, c=None, op=np.multiply, out: np.ndarray | None = None) -> np.ndarray:
    """Each row's sum over the last axis of the terms a[..., j], or of
    op(a[..., j], c[..., j]) when c is given (one value per column, or an
    array of a's shape: a itself for the squares), written into out when
    given.  Every per-row sum of the package runs here, under one rule: a
    row's total is np.sum of that row's own terms, whatever the batch's
    memory layout, so a batch, its block-major copy and its points one by
    one give the same bits at any number of columns.

    - Below _SHORT_AXIS columns, the loop adds 0.0 + t_0 + t_1 + ... a column
      at a time in one row-length buffer, the order numpy adds a row that
      short in.  The leading 0.0 turns a -0.0 sum to +0.0; a square, never
      -0.0, skips it.
    - From _SHORT_AXIS columns up, np.sum runs on the C-ordered terms: each
      row is then one contiguous run, which numpy adds pairwise, as it adds
      one point's row (across rows of another layout it adds in sequence).

    A term or sum that overflows is +-inf, without a warning.
    """
    k = a.shape[-1]
    c = c if c is None else np.asarray(c)
    with np.errstate(over="ignore"):
        if not 0 < k < _SHORT_AXIS:
            terms = np.ascontiguousarray(a) if c is None else op(a, c, order="C")
            return np.sum(terms, axis=-1, out=out)
        if c is None:
            out = np.add(a[..., 0], 0.0, out=out)
        else:
            out = op(a[..., 0], c[..., 0], out=out)
            if c is not a:
                out += 0.0
        buf = None if c is None or k == 1 else np.empty_like(out)
        for j in range(1, k):
            out += a[..., j] if c is None else op(a[..., j], c[..., j], out=buf)
    return out


def _cut_blocks(dims: Sequence[int], x: np.ndarray) -> list[np.ndarray]:
    """Views of the contiguous blocks of the given dims along x's last axis."""
    blocks, stop = [], 0
    for d in dims:
        start, stop = stop, stop + d
        blocks.append(x[..., start:stop])
    return blocks


def _block_sqnorms(blocks: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """||x_i||^2 of each block into out[..., i], returned as out.  A norm that
    overflows or has a NaN coordinate is +inf, where every density is zero.

    The package's one block norm: the densities' block norms
    (densities._sqnorms_by_dims) and mv-t's scaled ones past overflow
    (densities._log_sqnorms), the norms that put normal draws on the unit
    sphere (sampling._onto_unit_sphere), and the forward ball map's block
    norms and directions (densities._ball_forward)."""
    for i, blk in enumerate(blocks):
        _sum_last(blk, blk, out=out[..., i])
    return np.fmin(out, np.inf, out=out)  # fmin maps NaN to +inf


# math.fsum over a list beats the window pass below 256 terms (7.1 against
# 7.4 us at 240, 7.6 against 7.4 us at 256, 9.5 against 7.4 us at 320) and
# the binned sum below about 590 (15.1 against 17.0 us at 512, 19.3 against
# 17.9 us at 640; they stay within 2 us of each other from 512 to 640, so
# that cutoff stays at 512); medians over a fit's 2000-term arrays cut to n
# terms, on a 2-vCPU Xeon
_FSUM_WINDOW = 256
_FSUM_SHORT = 512
# np.bincount adds fewer than this many bucket terms exactly (below 2^27 each)
_FSUM_MAX_TERMS = 1 << 26
# np.frexp exponents (x = mantissa 2^e, mantissa in [0.5, 1)) of the normal
# floats whose bucket totals are exact doubles with a finite exact sum
_FSUM_EXP = (-1021, 996)
# frexp exponents of the terms the window pass takes: well inside the range
# where every scaled term, scale factor and rounded total is a normal double
_FSUM_WINDOW_EXP = (-960, 960)


def _fsum(x: np.ndarray) -> float:
    """math.fsum(x), bit for bit, for a 1-d float64 array.

    One of three exact paths, picked by the size n and the frexp exponents
    of the terms; each gives the exact sum correctly rounded, ties to even.

    - Window pass: n >= _FSUM_WINDOW, every term finite and nonzero, its
      exponents in _FSUM_WINDOW_EXP, and their span hi - lo at most
      26 - n.bit_length().  Every term is then a multiple of 2^(lo - 53),
      one common grid (Rump, Ogita & Oishi 2008).  Scaled by 2^(27 - lo), it
      splits exactly into its floor, at most 2^(27 + span) in size, and a
      fraction, a multiple of 2^-26 in [0, 1).  n of either add to less than
      2^53, so np.sum gives both totals exactly in any order, and the one
      float addition of the two rounds the exact sum once.
    - Binned sum: any other n in [_FSUM_SHORT, _FSUM_MAX_TERMS) whose terms
      are finite and whose exponents lie in _FSUM_EXP.  A term
      x = (t + f) 2^(e - 27) splits by np.frexp's exponent e into an integer
      t = trunc(mantissa 2^27), |t| < 2^27, and a multiple f of 2^-26,
      |f| < 1.  Every running total of np.bincount over the e buckets is an
      exact double, so math.fsum of the nonzero bucket totals rounds the same
      exact sum once (Neal 2015, arXiv:1505.05571), with one Python float per
      bucket, not per term.
    - math.fsum itself: everything else, that is short arrays and ones with
      non-finite, subnormal or near-overflow terms.
    """
    n = x.size
    if n >= _FSUM_WINDOW:
        mags = np.abs(x)
        small, big = mags.min(), mags.max()
        if 0.0 < small and big < math.inf:  # a NaN fails both
            lo, hi = math.frexp(small)[1], math.frexp(big)[1]
            if (_FSUM_WINDOW_EXP[0] <= lo and hi <= _FSUM_WINDOW_EXP[1]
                    and hi - lo <= 26 - n.bit_length()):
                v = np.multiply(x, 2.0 ** (27 - lo), out=mags)
                whole = np.floor(v)
                v -= whole
                return math.ldexp(float(whole.sum() + v.sum()), lo - 27)
    if not _FSUM_SHORT <= n < _FSUM_MAX_TERMS:
        return math.fsum(x.tolist())
    mant, exp = np.frexp(x)
    lo, hi = int(exp.min()), int(exp.max())
    if lo < _FSUM_EXP[0] or hi > _FSUM_EXP[1] or not np.isfinite(mant).all():
        return math.fsum(x.tolist())
    mant *= 2.0**27
    whole = np.trunc(mant)
    mant -= whole
    bins, scale = exp - lo, np.arange(lo - 27, hi - 26)
    totals = np.concatenate([np.ldexp(np.bincount(bins, whole), scale),
                             np.ldexp(np.bincount(bins, mant), scale)])
    return math.fsum(totals[totals != 0.0].tolist())


# ---------------------------------------------------------------------------
# The shared chunk pool

_CHUNK = 1 << 16  # points per chunk of a grid, and the rows a logpdf batch must pass to split
_pool = None  # (workers, ThreadPoolExecutor), made by the first map of two or more chunks
_pool_lock = threading.Lock()
_in_chunk = contextvars.ContextVar("multivec_in_chunk", default=False)


def _threads() -> int:
    """Width of the thread pool: MULTIVEC_THREADS when set, else the CPUs
    this process may run on.  It changes wall time only, never a result."""
    raw = os.environ.get("MULTIVEC_THREADS", "").strip()
    if not raw:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ParameterOutOfDomain(f"MULTIVEC_THREADS must be an integer, got {raw!r}") from None


def _chunk_pool(workers: int):
    """The shared pool, with at least `workers` threads.

    A narrower pool is replaced, never shut down: another caller may still
    be submitting to it.  Its threads end once the last caller drops it."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < workers:
            from concurrent.futures import ThreadPoolExecutor  # loads logging: threaded maps only

            _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="multivec-chunk"))
        return _pool[1]


def _map_chunks(chunk: Callable[[int], object], n: int) -> list:
    """[chunk(i) for i in range(n)], the calling thread and _threads() - 1
    pool threads taking the indices in order.  One chunk runs inline, and so
    does a map called from inside a chunk, on the caller or on a pool thread:
    maps never nest.  A pool thread runs its chunks in a copy of the
    caller's context, taken here, so they see the caller's np.errstate.

    A chunk that raises stops the taking; when the chunks already taken are
    done, the lowest-indexed failure is raised, as the loop would raise it.
    Anything else the caller raises (KeyboardInterrupt, a timer's exception)
    stops the taking and propagates at once.  No thread's CPU affinity is
    changed: where each thread runs is the scheduler's choice.
    """
    workers = 0 if n < 2 or _in_chunk.get() else min(_threads(), n) - 1
    token = _in_chunk.set(True)
    try:
        if workers < 1:
            return [chunk(i) for i in range(n)]
        return _share_chunks(chunk, n, workers, contextvars.copy_context())
    finally:
        _in_chunk.reset(token)


def _share_chunks(chunk: Callable[[int], object], n: int, workers: int,
                  context: contextvars.Context) -> list:
    """_map_chunks on the caller and `workers` pool threads, each pool thread
    in its own copy of `context`."""
    out: list = [None] * n
    failed: dict[int, BaseException] = {}
    taken = running = 0
    cond = threading.Condition()

    def take(catch: type[BaseException]) -> None:
        nonlocal taken, running
        while True:
            with cond:
                if taken >= n:
                    return
                i, taken, running = taken, taken + 1, running + 1
            try:
                out[i] = chunk(i)
            except catch as exc:
                with cond:
                    failed[i], taken = exc, n
            finally:
                with cond:
                    running -= 1
                    cond.notify_all()

    try:
        pool = _chunk_pool(workers)
        for _ in range(workers):  # a context is entered by one thread at a time: one copy each
            pool.submit(context.copy().run, take, BaseException)
        take(Exception)
        with cond:
            cond.wait_for(lambda: running == 0)
    except BaseException:
        with cond:
            taken = n
        raise
    if failed:
        raise failed[min(failed)]
    return out


def _all_last(a: np.ndarray) -> np.ndarray:
    """np.all(a, axis=-1) for a boolean a, as True & a[..., 0] & a[..., 1] & ...
    (a boolean & is exact at any length)."""
    out = np.ones(a.shape[:-1], dtype=bool)
    for j in range(a.shape[-1]):
        out &= a[..., j]
    return out


@dataclass(frozen=True)
class Partition:
    """Block structure shared by the multivector families.

    Parameters
    ----------
    dims : tuple of int
        Block dimensions n_1, ..., n_k, each a whole number >= 1.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _block_dims(self.dims))

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        """Total dimension of the partitioned vector."""
        return int(sum(self.dims))

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.dims, initial=0))


@dataclass(frozen=True)
class ExtendedShape:
    """Real shape parameters alpha_1..alpha_k plus the required alpha_0.

    alpha_star is the derived total alpha_0 + sum(alphas).
    """

    alphas: tuple[float, ...]
    alpha0: float

    def __post_init__(self) -> None:
        alphas = _positive("shapes", self.alphas)
        if len(alphas) < 1:
            raise DimensionMismatch("need at least one shape parameter")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha0", _positive("alpha0", (self.alpha0,))[0])

    @property
    def k(self) -> int:
        return len(self.alphas)

    @property
    def alpha_star(self) -> float:
        return self.alpha0 + _sum_in_order(self.alphas)


def _as_spd(mat: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DimensionMismatch(f"{name} must be square and non-empty, got shape {m.shape}")
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
        """Per block: the lower Cholesky factor, its upper triangle zeroed,
        and log det Sigma_ii, factored once."""
        return tuple((np.tril(c), logdet) for c, logdet in map(_cholesky, self.sigmas))

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
        shapes = _positive("shapes", self.shapes)
        scales = _positive("scales", self.scales)
        if len(shapes) != len(scales):
            raise DimensionMismatch(
                f"{len(shapes)} shapes vs {len(scales)} scales"
            )
        if len(shapes) < 1:
            raise DimensionMismatch("need at least one (shape, scale) pair")
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "scales", scales)

    @property
    def k(self) -> int:
        return len(self.shapes)

    @cached_property
    def total_shape(self) -> float:
        """sum(shapes), as numpy adds them: the density and the sampler read it."""
        return float(np.sum(self.shapes))


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
    DimensionMismatch
        If S is not square, or is empty.
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
    return _cut_blocks(p.dims, x)


def block_quadform(params: MvEllipticalParams, x: np.ndarray) -> np.ndarray:
    """Sum of per-block quadratic forms (x_i - mu_i)' Sigma_ii^{-1} (x_i - mu_i).

    x may be batched with shape (..., total); returns shape (...).  A
    non-finite coordinate gives +inf or NaN, never an exception; a form that
    overflows at finite coordinates is +inf.
    """
    from scipy.linalg.lapack import dpotrs  # deferred: costs CLI start-up

    blocks = validate_partition(params.partition, x)
    total = 0.0
    for blk, mu, (c, _) in zip(blocks, params.mus, params.factors):
        if c.shape == (1, 1):
            # cho_solve's two triangular solves each multiply by the
            # reciprocal pivot: the same bits without the LAPACK call
            d, r = blk[..., 0] - mu[0], 1.0 / c[0, 0]
            with np.errstate(over="ignore"):  # an overflowing form is +inf
                total = total + d * r * r * d
        else:
            d = blk - mu
            rows = d.reshape(-1, d.shape[-1])
            # cho_solve's LAPACK call on every row at once; its info flags
            # only an illegal argument, which these shapes rule out
            sol = dpotrs(c, rows.T, lower=1)[0].T
            with np.errstate(invalid="ignore"):  # +inf and -inf terms, mended below
                form = _sum_last(sol, rows).reshape(d.shape[:-1])
            if np.isnan(form).any():
                # products that overflow to +inf and -inf sum to NaN; the
                # form itself is positive, so at finite d it is +inf
                form = np.where(np.isnan(form) & _all_last(np.isfinite(d)), np.inf, form)
            with np.errstate(over="ignore"):
                total = total + form
    return total
