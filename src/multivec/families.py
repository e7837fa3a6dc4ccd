"""One table of the multivector families over flat point matrices.

Every law in the package comes from one elliptical generator, but the
library functions take their arguments in family-specific shapes: the joint
laws take ``(s0, blocks)``, the mixed law ``(x, v)`` and the gamma/log-gamma
law ``(u, y)``.  ``FAMILIES`` adapts each ``logpdf_*``/``sample_*`` pair to
one flat layout, so the CLI and the oracle suites share a single wiring.

Column-layout contract
----------------------
A point of a family is one row of d floats, and ``Family.logpdf`` takes an
``(n, d)`` batch or one ``(d,)`` row.  ``Family.sample`` returns ``(n, d)``
rows in the same layout, so a draw can be fed back to the density as is.

* flat families: the library vector itself, block after block;
* joint laws (``gengamma-*``): the scale variable ``s0`` in column 0, then
  the blocks;
* ``mixed-ell-logell``: the ``n_linear`` linear columns, then the positive
  columns;
* ``gamma-loggamma``: the ``k1`` gamma columns, then the ``k2`` log-gamma
  columns.

``params`` is always the tuple of leading positional arguments of the
library pair, e.g. ``(MvTParams,)`` or ``(MvEllipticalParams, spec)``.

A family is one ``Family`` record plus its two library functions, read off
their modules (``_d.logpdf_mv_t``, ``_s.sample_mv_t``); their names are
declared once, in ``multivec._EXPORTS``.

Flat keys
---------
The command line reads a family's params from a flat name -> number map of
scalar blocks (``alpha1``, ``sigma1``, ``mu1``, ...; ``sigma0`` first for
the joint laws; ``q``, ``r``, ``s`` for the Kotz generator).  Those keys are
defined here, by each record's ``count`` (the block count k a map
declares) and ``build`` (the map and k to ``params``); a record with a
``build`` is a CLI model.  ``kotz-gamma`` is the paired model: its density is
the gengamma law, and its sampler draws n pairs as one draw of the 2n-block
law.  Missing or non-numeric keys raise ``FlatParamsError``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import densities as _d, sampling as _s
from .core import ExtendedShape, MvEllipticalParams, ScaleShapeParams
from .densities import BetaParams, JointScaleParams, MvTParams
from .errors import FlatParamsError
from .generators import Kotz


Flat = dict[str, float]


def _need(params: Flat, key: str) -> float:
    """params[key] as a float; FlatParamsError naming the key unless it is a
    number, not a boolean, within the double range (ints and floats compare
    exactly, so an integer of any size is tested without converting it)."""
    if key not in params:
        raise FlatParamsError(f"params missing key '{key}'")
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise FlatParamsError(f"params key '{key}' must be a finite number, got {v!r}")
    return float(v)


def _square(params: Flat, key: str) -> float:
    """params[key]**2; FlatParamsError naming the key when it overflows or is 0."""
    v = _need(params, key)
    try:
        sq = v**2
    except OverflowError:
        sq = math.inf
    if not 0.0 < sq < math.inf:
        raise FlatParamsError(f"params key '{key}' must have a positive finite square, got {v!r}")
    return sq


def _indexed(params: Flat, prefix: str, k: int, start: int = 1) -> tuple[float, ...]:
    return tuple(_need(params, f"{prefix}{i}") for i in range(start, start + k))


def _squares(params: Flat, prefix: str, k: int, start: int = 1) -> tuple[float, ...]:
    return tuple(_square(params, f"{prefix}{i}") for i in range(start, start + k))


def _count(params: Flat, prefix: str, start: int = 1) -> int:
    """Number of consecutive prefixN keys from N=start; gaps name the missing key."""
    indices = sorted(
        int(key[len(prefix):])
        for key in params
        if key.startswith(prefix) and key[len(prefix):].isdigit()
    )
    indices = [i for i in indices if i >= start]
    if not indices:
        raise FlatParamsError(f"params missing key '{prefix}{start}'")
    for want, got in zip(range(start, start + len(indices)), indices):
        if want != got:
            raise FlatParamsError(f"params missing key '{prefix}{want}'")
    return len(indices)


def _kotz(params: Flat) -> Kotz:
    return Kotz(q=_need(params, "q"), r=_need(params, "r"), s=_need(params, "s"))


def _counter(prefix: str) -> Callable[[Flat], int]:
    return lambda p: _count(p, prefix)


def _kotz_gamma_count(p: Flat) -> int:
    return 2 if "sigma2" in p or "beta" in p else 1


def _kotz_gamma_build(p: Flat, k: int) -> tuple:
    if k == 1:
        pairs = ScaleShapeParams(shapes=(_need(p, "alpha"),), scales=(_square(p, "sigma"),))
    elif k == 2:
        pairs = ScaleShapeParams(shapes=(_need(p, "alpha"), _need(p, "beta")),
                                 scales=(_square(p, "sigma1"), _square(p, "sigma2")))
    else:
        raise FlatParamsError("kotz-gamma supports 1 or 2 columns; use mv-gengamma beyond")
    return pairs, _kotz(p)


def _gengamma_build(p: Flat, k: int) -> tuple:
    shapes, scales = _indexed(p, "alpha", k), _squares(p, "sigma", k)
    return ScaleShapeParams(shapes=shapes, scales=scales), _kotz(p)


def _elliptical_build(p: Flat, k: int) -> tuple:
    mus, sigma2s = _indexed(p, "mu", k), _squares(p, "sigma", k)
    return MvEllipticalParams.scalar_blocks(mus=mus, sigma2s=sigma2s), _kotz(p)


def _t_build(p: Flat, k: int) -> tuple:
    return (MvTParams(dims=(1,) * k, alpha0=_need(p, "alpha0"), betas=_indexed(p, "beta", k)),)


def _beta_build(p: Flat, k: int) -> tuple:
    shape = ExtendedShape(alphas=_indexed(p, "alpha", k), alpha0=_need(p, "alpha0"))
    return (BetaParams(shape=shape, betas=_indexed(p, "beta", k)),)


def _joint_count(p: Flat) -> int:
    # sigma0 alone still counts one block, so the missing sigma1 is named
    return max(_count(p, "sigma", start=0) - 1, 1)


def _joint_build(vector: bool) -> Callable[[Flat, int], tuple]:
    """Flat keys of the joint laws: integer blocks (vector) or alpha1..k."""

    def build(p: Flat, k: int) -> tuple:
        sigma2s, spec, alpha0 = _squares(p, "sigma", k + 1, start=0), _kotz(p), _need(p, "alpha0")
        blocks = {"dims": (1,) * k} if vector else {"alphas": _indexed(p, "alpha", k)}
        return (JointScaleParams(spec=spec, alpha0=alpha0, sigma2s=sigma2s, **blocks),)

    return build


def _block_columns(d: int) -> list[str]:
    if d == 1:
        return ["u"]
    if d == 2:
        return ["u", "v"]
    return [f"x{i}" for i in range(1, d + 1)]


@dataclass(frozen=True)
class Family:
    """A library density/sampler pair, the column layout that flattens it and,
    for a CLI model, the flat keys that give its params."""

    name: str
    density: Callable  # the library logpdf_*
    sampler: Callable  # the library sample_*
    joint: bool = False  # s0 leads: density(*params, s0, blocks)
    split: Callable | None = None  # params[0] -> width of the first column group
    count: Callable[[Flat], int] | None = None  # flat params -> block count k
    build: Callable[[Flat, int], tuple] | None = None  # (flat params, k) -> params

    def dim(self, k: int) -> int:
        """Columns of a point with k scalar blocks."""
        return k + 1 if self.joint else k

    def columns(self, d: int) -> list[str]:
        return ["s0"] + _block_columns(d - 1) if self.joint else _block_columns(d)

    def logpdf(self, params: tuple, x) -> np.ndarray | float:
        if self.joint:
            x = np.asarray(x)
            return self.density(*params, x[..., 0], x[..., 1:])
        if self.split is not None:
            x = np.asarray(x)
            j = self.split(params[0])
            return self.density(*params, x[..., :j], x[..., j:])
        return self.density(*params, x)

    def sample(self, params: tuple, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.joint:
            s0, blocks = self.sampler(*params, rng, size=n)
            return np.column_stack([np.asarray(s0), np.atleast_2d(blocks)])
        return np.atleast_2d(self.sampler(*params, rng, size=n))


_ELL = {"count": _counter("mu"), "build": _elliptical_build}
_T = {"count": _counter("beta"), "build": _t_build}
_BETA = {"count": _counter("alpha"), "build": _beta_build}
_JOINT_VECTOR = {"joint": True, "count": _joint_count, "build": _joint_build(vector=True)}
_JOINT_SCALAR = {"joint": True, "count": _counter("alpha"), "build": _joint_build(vector=False)}

FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family("mv-gengamma", _d.logpdf_mv_gengamma, _s.sample_mv_gengamma,
               count=_counter("alpha"), build=_gengamma_build),
        Family("kotz-gamma", _d.logpdf_mv_gengamma, _s.sample_gengamma_pairs,
               count=_kotz_gamma_count, build=_kotz_gamma_build),
        Family("mv-elliptical", _d.logpdf_mv_elliptical, _s.sample_mv_elliptical, **_ELL),
        Family("log-elliptical", _d.logpdf_mv_log_elliptical, _s.sample_mv_log_elliptical,
               **_ELL),
        Family("mixed-ell-logell", _d.logpdf_mixed_ell_logell, _s.sample_mixed_ell_logell,
               split=lambda p: p.n_linear),
        Family("mv-t", _d.logpdf_mv_t, _s.sample_mv_t, **_T),
        Family("mv-pearson2", _d.logpdf_mv_pearson2, _s.sample_mv_pearson2, **_T),
        Family("mv-beta1", _d.logpdf_mv_beta1, _s.sample_mv_beta1, **_BETA),
        Family("mv-beta2", _d.logpdf_mv_beta2, _s.sample_mv_beta2, **_BETA),
        Family("gengamma-pearson7", _d.logpdf_gengamma_pearson7, _s.sample_gengamma_pearson7,
               **_JOINT_VECTOR),
        Family("gengamma-pearson2", _d.logpdf_gengamma_pearson2, _s.sample_gengamma_pearson2,
               **_JOINT_VECTOR),
        Family("gengamma-beta1", _d.logpdf_gengamma_beta1, _s.sample_gengamma_beta1,
               **_JOINT_SCALAR),
        Family("gengamma-beta2", _d.logpdf_gengamma_beta2, _s.sample_gengamma_beta2,
               **_JOINT_SCALAR),
        Family("gamma-loggamma", _d.logpdf_gamma_loggamma, _s.sample_gamma_loggamma,
               split=lambda p: p.k1),
    )
}
