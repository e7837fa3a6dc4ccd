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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .densities import (
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
)
from .sampling import (
    sample_gamma_loggamma,
    sample_gengamma_beta1,
    sample_gengamma_beta2,
    sample_gengamma_pearson2,
    sample_gengamma_pearson7,
    sample_mixed_ell_logell,
    sample_mv_beta1,
    sample_mv_beta2,
    sample_mv_elliptical,
    sample_mv_gengamma,
    sample_mv_log_elliptical,
    sample_mv_pearson2,
    sample_mv_t,
)


def _block_columns(d: int) -> list[str]:
    if d == 1:
        return ["u"]
    if d == 2:
        return ["u", "v"]
    return [f"x{i}" for i in range(1, d + 1)]


@dataclass(frozen=True)
class Family:
    """A library density/sampler pair and the column layout that flattens it."""

    name: str
    density: Callable  # the library logpdf_*
    sampler: Callable  # the library sample_*
    joint: bool = False  # s0 leads: density(*params, s0, blocks)
    split: Callable | None = None  # params[0] -> width of the first column group

    def dim(self, k: int) -> int:
        """Columns of a point with k scalar blocks."""
        return k + 1 if self.joint else k

    def columns(self, d: int) -> list[str]:
        return ["s0"] + _block_columns(d - 1) if self.joint else _block_columns(d)

    def logpdf(self, params: tuple, x) -> np.ndarray | float:
        if self.joint:
            x = np.atleast_2d(x)
            return self.density(*params, x[:, 0], x[:, 1:])
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


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family("mv-elliptical", logpdf_mv_elliptical, sample_mv_elliptical),
        Family("log-elliptical", logpdf_mv_log_elliptical, sample_mv_log_elliptical),
        Family("mixed-ell-logell", logpdf_mixed_ell_logell, sample_mixed_ell_logell,
               split=lambda p: p.n_linear),
        Family("mv-t", logpdf_mv_t, sample_mv_t),
        Family("mv-pearson2", logpdf_mv_pearson2, sample_mv_pearson2),
        Family("mv-gengamma", logpdf_mv_gengamma, sample_mv_gengamma),
        Family("mv-beta1", logpdf_mv_beta1, sample_mv_beta1),
        Family("mv-beta2", logpdf_mv_beta2, sample_mv_beta2),
        Family("gengamma-pearson7", logpdf_gengamma_pearson7, sample_gengamma_pearson7, joint=True),
        Family("gengamma-pearson2", logpdf_gengamma_pearson2, sample_gengamma_pearson2, joint=True),
        Family("gengamma-beta1", logpdf_gengamma_beta1, sample_gengamma_beta1, joint=True),
        Family("gengamma-beta2", logpdf_gengamma_beta2, sample_gengamma_beta2, joint=True),
        Family("gamma-loggamma", logpdf_gamma_loggamma, sample_gamma_loggamma,
               split=lambda p: p.k1),
    )
}
