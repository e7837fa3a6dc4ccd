"""The oracle layer itself: reports, quadrature/MC normalization, GOF checks."""

import hashlib
import json
import re
import sys
import threading
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from multivec import (
    BetaParams,
    CheckReport,
    DegenerateWeights,
    DimensionMismatch,
    ExtendedShape,
    Kotz,
    MvTParams,
    ParameterOutOfDomain,
    QuadratureFailure,
    ScaleShapeParams,
    core,
    jacobian_check,
    jacobian_grid_check,
    logpdf_mv_beta1,
    logpdf_mv_gengamma,
    logpdf_mv_t,
    mc_normalization,
    pushforward_check,
    quad_normalization,
    run_identity_suite,
    sample_mv_beta1,
    sample_mv_gengamma,
    validation,
)
from multivec.families import FAMILIES
from multivec.validation import (
    _CHUNK,
    _POINT_BUDGET,
    _cumulative_simpson,
    _ks_pvalue,
    _normalization_cases,
    _pushforward_cases,
    _uncorrected_beta1_logpdf,
)


# ---------------------------------------------------------------------------
# CheckReport


def test_report_invariant_enforced():
    for residual, tolerance in [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (np.nan, 1.0),
                                (0.5, np.nan), (np.float64(0.25), 0.0)]:
        r = CheckReport("x", residual, tolerance)
        assert r.passed is bool(residual <= tolerance)
        assert type(r.residual) is float and type(r.tolerance) is float


def test_draw_counts_below_one_are_out_of_domain():
    for n_draws in (0, -1):
        with pytest.raises(ParameterOutOfDomain, match="n_draws must be >= 1"):
            jacobian_check(1, n_draws=n_draws)
        with pytest.raises(ParameterOutOfDomain, match="n_draws must be >= 1"):
            pushforward_check(lambda rng, n: rng.standard_normal((n, 1)),
                              lambda x: -0.5 * x[:, 0] ** 2, [(-np.inf, np.inf)],
                              n_draws=n_draws)
    for n in (0, 1):
        with pytest.raises(ParameterOutOfDomain, match="n must be >= 2"):
            mc_normalization(_prop_logpdf, _prop_sample, _prop_logpdf, n, 0)


@pytest.mark.parametrize("n", [0, -1])
def test_jacobian_check_refuses_a_dimension_below_one(n):
    with pytest.raises(ParameterOutOfDomain, match=rf"dimension must be >= 1, got {n}$"):
        jacobian_check(n)


def test_jacobian_check_reads_its_dimension_by_the_count_rule():
    # an integral float is its whole number, in the row name too
    two, whole = jacobian_check(2.0, n_draws=20), jacobian_check(2, n_draws=20)
    assert two.name == "jacobian-ball-map-n2" and two == whole
    for n in (1.5, "3", b"2"):
        with pytest.raises(ParameterOutOfDomain, match="^dimension must be a whole number"):
            jacobian_check(n)


@pytest.mark.parametrize("seed", [-1, -11])
def test_identity_suite_rejects_a_negative_seed_by_its_own_value(seed):
    with pytest.raises(ParameterOutOfDomain, match=rf"seed must be >= 0, got {seed}$"):
        run_identity_suite(seed)


def test_report_json_lines():
    r = CheckReport("norm-foo", residual=1.25e-7, tolerance=1e-5, details="ok")
    line = r.to_json()
    payload = json.loads(line)
    assert payload["name"] == "norm-foo" and payload["passed"] is True
    assert list(payload) == sorted(payload)
    assert r.to_json() == line


# ---------------------------------------------------------------------------
# quadrature normalization


def _gengamma_logpdf(u):
    p = ScaleShapeParams(shapes=(2.0,), scales=(1.0,))
    return logpdf_mv_gengamma(p, Kotz(r=1.0, q=2.0, s=1.5), u)


def test_quad_gengamma_kotz():
    rep = quad_normalization(_gengamma_logpdf, [(0.0, np.inf)], 1e-6, "gg")
    assert rep.passed and rep.residual <= 1e-6


def test_quad_beta1_k2():
    p = BetaParams(shape=ExtendedShape(alphas=(1.0, 2.0), alpha0=1.5), betas=(1.0, 3.0))
    rep = quad_normalization(
        lambda b: logpdf_mv_beta1(p, b), [(0.0, 1.0), (0.0, 1.0)], 1e-5, "b1"
    )
    assert rep.passed and rep.residual <= 1e-5


def test_quad_detects_mis_scaled_density():
    rep = quad_normalization(
        lambda u: _gengamma_logpdf(u) + np.log(2.0), [(0.0, np.inf)], 1e-6, "gg2x"
    )
    assert not rep.passed
    assert abs(rep.residual - 1.0) < 1e-3


def test_quad_failure_is_an_error():
    def broken(u):
        raise FloatingPointError("boom")

    with pytest.raises(QuadratureFailure):
        quad_normalization(broken, [(0.0, 1.0)], 1e-6, "broken")


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
def test_quad_non_integrable_density_fails_within_the_point_budget(tol):
    # exp(-log x) = 1/x has infinite mass on (0, 1): the level sums keep
    # moving until the point budget ends the refinement
    points = [0]

    def inverse(x):
        points[0] += len(x)
        return -np.log(x[:, 0])

    with pytest.raises(QuadratureFailure):
        quad_normalization(inverse, [(0.0, 1.0)], tol, "inverse")
    assert 0 < points[0] <= _POINT_BUDGET


def test_quad_density_overflowing_on_a_widened_window_is_a_failure():
    # 1/x^2 on (0, 1): the widest window's nodes reach x ~ 1e-275, where
    # exp(logpdf) overflows
    with pytest.raises(QuadratureFailure, match="integral is inf"):
        quad_normalization(lambda x: -2.0 * np.log(x[:, 0]), [(0.0, 1.0)], 1e-6, "inverse-square")


@pytest.mark.parametrize("support", [
    [(-1.0, 2.0), (0.5, np.inf), (-np.inf, np.inf)],
    [(-np.inf, 1.0), (0.0, 1e-3)],
])
def test_quad_batches_are_chunked_and_strictly_inside(support):
    # uniform on the finite axes, exponential on the half-lines, standard
    # normal on the line: a product density of mass 1
    d = len(support)
    shapes = []

    def logpdf(x):
        shapes.append(x.shape)
        assert x.ndim == 2 and x.shape[1] == d and 0 < x.shape[0] <= _CHUNK
        # block-major batches: every coordinate column is contiguous
        assert all(x[:, j].flags.c_contiguous for j in range(d))
        out = np.zeros(len(x))
        for j, (lo, hi) in enumerate(support):
            xj = x[:, j]
            assert np.all((xj > lo) & (xj < hi))
            if np.isfinite(lo) and np.isfinite(hi):
                out -= np.log(hi - lo)
            elif np.isfinite(lo):
                out -= xj - lo
            elif np.isfinite(hi):
                out -= hi - xj
            else:
                out -= 0.5 * xj * xj + 0.5 * np.log(2.0 * np.pi)
        return out

    rep = quad_normalization(logpdf, support, 1e-4, "product")
    assert rep.passed, rep.details
    assert len(shapes) >= 3


def test_quad_rejects_a_logpdf_that_is_not_batched():
    with pytest.raises(DimensionMismatch):
        quad_normalization(lambda x: float(np.sum(x)), [(0.0, 1.0)], 1e-6, "scalar")
    with pytest.raises(DimensionMismatch):
        quad_normalization(lambda x: np.zeros((len(x), 1)), [(0.0, 1.0)], 1e-6, "column")


def _never(*args):
    raise AssertionError("the oracle called back before it checked its box")


_EMPTY_INTERVALS = {"reversed": (1.0, 0.0), "point": (0.0, 0.0), "nan-end": (np.nan, 1.0),
                    "both-inf": (np.inf, np.inf)}


@pytest.mark.parametrize("interval", list(_EMPTY_INTERVALS))
def test_quad_refuses_an_axis_without_lo_below_hi(interval):
    box = [(0.0, 1.0), _EMPTY_INTERVALS[interval]]
    with pytest.raises(ParameterOutOfDomain, match=r"^support axis 1 needs lo < hi, got \("):
        quad_normalization(_never, box, 1e-6)


@pytest.mark.parametrize("interval", list(_EMPTY_INTERVALS))
def test_pushforward_refuses_an_axis_without_lo_below_hi(interval):
    with pytest.raises(ParameterOutOfDomain, match=r"^support axis 0 needs lo < hi, got \("):
        pushforward_check(_never, _never, [_EMPTY_INTERVALS[interval]], n_draws=10)


_NOT_PAIRS = {"one-end": (0.0,), "three-ends": (0.0, 1.0, 2.0), "empty": (), "number": 1.0}


@pytest.mark.parametrize("axis", list(_NOT_PAIRS))
def test_both_oracles_refuse_an_axis_that_is_not_a_pair(axis):
    bad = _NOT_PAIRS[axis]
    match = rf"^support axis 1 needs a \(lo, hi\) pair, got {re.escape(repr(bad))}$"
    with pytest.raises(ParameterOutOfDomain, match=match):
        quad_normalization(_never, [(0.0, 1.0), bad], 1e-6)
    with pytest.raises(ParameterOutOfDomain, match=match):
        pushforward_check(_never, _never, [(0.0, 1.0), bad], n_draws=10)


def _whole_grid(nodes, weights, edges):
    """A level's points, weights, as (w0 w1) w2, and edge mask, formed whole."""
    pts = np.stack(np.meshgrid(*nodes, indexing="ij")).reshape(len(nodes), -1).T
    w, e = weights[0], edges[0]
    for wj, ej in zip(weights[1:], edges[1:]):
        w, e = np.multiply.outer(w, wj), np.logical_or.outer(e, ej)
    return pts, w.ravel(), e.ravel()


@pytest.mark.parametrize("chunk", [7, 100])
@pytest.mark.parametrize("counts", [(23,), (5, 9), (3, 11, 13)], ids=["1d", "2d", "3d"])
def test_grid_chunks_are_the_whole_grids_rows_bit_for_bit(monkeypatch, chunk, counts):
    # node counts that divide neither chunk size, so chunks start and stop
    # mid-row; weights of many digits, so a reassociated product shows
    monkeypatch.setenv("MULTIVEC_THREADS", "1")  # the chunks arrive in order
    monkeypatch.setattr(validation, "_CHUNK", chunk)
    rng = np.random.default_rng(3)
    nodes = [np.sort(rng.normal(size=n)) for n in counts]
    weights = [rng.uniform(0.1, 3.0, n) for n in counts]
    edges = [rng.uniform(size=n) < 0.3 for n in counts]
    pts, w, e = _whole_grid(nodes, weights, edges)
    chunks = []

    def logpdf(x):
        assert not x.flags.writeable
        assert all(x[:, j].flags.c_contiguous for j in range(len(counts)))
        chunks.append(x.copy())
        return np.zeros(len(x))

    axes = list(zip(nodes, weights, edges))
    total, edge = validation._de_grid_sum(logpdf, axes, "grid")
    starts = range(0, len(pts), chunk)
    assert [len(x) for x in chunks] == [min(chunk, len(pts) - s) for s in starts]
    assert np.array_equal(np.concatenate(chunks), pts)
    want_total = want_edge = 0.0
    for s in starts:
        ws, es = w[s:s + chunk], e[s:s + chunk]
        want_total += float(np.sum(ws))
        want_edge += float(np.sum(ws[es]))
    assert (total.hex(), edge.hex()) == (want_total.hex(), want_edge.hex())
    # the weights and edge flags the chunk sums use: with exp(logpdf) 1 at one
    # row of each chunk and 0 elsewhere, a chunk's sums are that point's
    # weight, and that weight again or 0.0 as the point is on an edge or not
    sums = []
    map_chunks = validation._map_chunks
    monkeypatch.setattr(validation, "_map_chunks", lambda fn, n: sums.extend(map_chunks(fn, n)) or [])
    for row in range(chunk):
        validation._de_grid_sum(lambda x: np.where(np.arange(len(x)) == row, 0.0, -np.inf), axes, "grid")
    used = np.array(sums).reshape(chunk, len(starts), 2).transpose(1, 0, 2).reshape(-1, 2)[:len(pts)]
    assert used[:, 0].tobytes() == w.tobytes()
    assert used[:, 1].tobytes() == np.where(e, w, 0.0).tobytes()


def test_the_3d_quadrature_holds_no_whole_level(monkeypatch):
    # its 123^3-point level's weights alone take 15 MB; a chunk's arrays take
    # about 0.5 MB each
    monkeypatch.setenv("MULTIVEC_THREADS", "1")
    name, logpdf, support, tol = next(
        c for c in _normalization_cases() if c[0] == "norm-mv-beta1-k3-3d"
    )
    tracemalloc.start()
    try:
        rep = quad_normalization(logpdf, support, tol, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.details
    assert peak < 12e6, peak


@pytest.mark.parametrize("support", [[(0.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)]], ids=["1d", "2d"])
def test_a_logpdf_that_writes_into_its_batch_is_refused(support):
    # a 1-d chunk is a view of the level's nodes: a write would move every
    # later chunk and level without a word
    def logpdf(x):
        x *= 0.5
        return np.zeros(len(x))

    with pytest.raises(QuadratureFailure, match="writer: integrand raised"):
        quad_normalization(logpdf, support, 1e-6, "writer")
    sampler = lambda rng, n: rng.uniform(0.25, 0.75, size=(n, len(support)))  # noqa: E731
    with pytest.raises(QuadratureFailure, match="pushforward: integrand raised") as info:
        pushforward_check(sampler, logpdf, support, n_draws=1_000)
    assert isinstance(info.value.__cause__, ValueError) and "read-only" in str(info.value.__cause__)


def test_quad_beta1_3d_call_count_guard():
    # counts integrand calls instead of timing them: the nested scalar rule
    # needed about 365k calls here, the batched rule a few dozen
    name, logpdf, support, tol = next(
        c for c in _normalization_cases() if c[0] == "norm-mv-beta1-k3-3d"
    )
    calls = [0]

    def counted(x):
        calls[0] += 1
        return logpdf(x)

    rep = quad_normalization(counted, support, tol, name)
    assert rep.passed, rep.details
    assert calls[0] <= 100


def _interior_points(support, rng, n):
    cols = []
    for lo, hi in support:
        if np.isfinite(lo) and np.isfinite(hi):
            cols.append(lo + (hi - lo) * rng.uniform(0.05, 0.95, n))
        elif np.isfinite(lo):
            cols.append(lo + rng.exponential(1.0, n))
        else:
            cols.append(rng.normal(0.0, 2.0, n))
    return np.column_stack(cols)


@pytest.mark.parametrize("case", _normalization_cases(), ids=lambda c: c[0])
def test_normalization_case_batch_equals_single_points(case):
    # the oracle integrates batched calls; each must equal the one-point call
    name, logpdf, support, _ = case
    x = _interior_points(support, np.random.default_rng(11), 8)
    batch = np.asarray(logpdf(x), dtype=float)
    single = np.array([np.asarray(logpdf(row), dtype=float).reshape(-1)[0] for row in x])
    assert batch.shape == (8,)
    assert np.all(np.isfinite(single)), name
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0.0)


# float.hex of each normalization case's integral and err_est, of each
# identity suite row's residual at seed 0 with 100k draws, and a digest of
# every level's total and edge sum over the normalization suite (84 levels)
PINNED_LEVEL_SUMS = "e17a4a446cc3ad2eb8c1f48c22cfc32407c99d40e06c9b77df9886233dfbb05d"
PINNED_QUAD = {
    "norm-mv-elliptical-gaussian-2d": ("0x1.0000000000001p+0", "0x0.0p+0"),
    "norm-mv-elliptical-pearson7-1d": ("0x1.fffffffffffffp-1", "0x1.0000000000000p-53"),
    "norm-log-elliptical-1d": ("0x1.ffffffffffffep-1", "0x0.0p+0"),
    "norm-mixed-1p1": ("0x1.0000000000002p+0", "0x1.80345c0000000p-30"),
    "norm-mv-t-k2": ("0x1.0000000000001p+0", "0x1.4cd1000000000p-36"),
    "norm-mv-pearson2-k2": ("0x1.fffffffffffcep-1", "0x1.14e3b80000000p-31"),
    "norm-mv-gengamma-kotz-k1": ("0x1.0000000000000p+0", "0x1.b7d0a80000000p-31"),
    "norm-mv-gengamma-k2": ("0x1.0000000000001p+0", "0x1.8270680000000p-29"),
    "norm-mv-beta1-k2": ("0x1.fffffffffff5bp-1", "0x1.d1fb320000000p-30"),
    "norm-mv-beta2-k2": ("0x1.fffffffffe42ap-1", "0x1.53431c0000000p-27"),
    "norm-gengamma-pearson7-k1": ("0x1.fffffffffffc3p-1", "0x1.b875329000000p-25"),
    "norm-mv-beta1-k3-3d": ("0x1.ffffffffffff8p-1", "0x1.3f3ba00000000p-32"),
    "norm-gengamma-pearson2-k1": ("0x1.000000000003dp+0", "0x1.a8c3044000000p-26"),
    "norm-gengamma-beta1-k1": ("0x1.00000000001a3p+0", "0x1.2aaf424000000p-25"),
    "norm-gengamma-beta2-k1": ("0x1.ffffffffffcd4p-1", "0x1.4bc1600000000p-31"),
    "norm-gamma-loggamma-1p1": ("0x1.ffffffffffffdp-1", "0x1.933a000000000p-38"),
}
PINNED_IDENTITY = {
    "identity-radial-integral-kotz-gauss-n1-a1": "0x1.0000000000000p-52",
    "identity-radial-integral-kotz-gauss-n1-a2.5": "0x0.0p+0",
    "identity-radial-integral-kotz-gauss-n2-a1": "0x0.0p+0",
    "identity-radial-integral-kotz-gauss-n2-a2.5": "0x1.0000000000000p-52",
    "identity-radial-integral-kotz-gauss-n3-a1": "0x1.0000000000000p-52",
    "identity-radial-integral-kotz-gauss-n3-a2.5": "0x1.0000000000000p-51",
    "identity-radial-integral-kotz-gauss-n4.5-a1": "0x0.0p+0",
    "identity-radial-integral-kotz-gauss-n4.5-a2.5": "0x1.0000000000000p-51",
    "identity-radial-integral-kotz-n1-a1": "0x0.0p+0",
    "identity-radial-integral-kotz-n1-a2.5": "0x0.0p+0",
    "identity-radial-integral-kotz-n2-a1": "0x0.0p+0",
    "identity-radial-integral-kotz-n2-a2.5": "0x0.0p+0",
    "identity-radial-integral-kotz-n3-a1": "0x0.0p+0",
    "identity-radial-integral-kotz-n3-a2.5": "0x1.0000000000000p-52",
    "identity-radial-integral-kotz-n4.5-a1": "0x1.0000000000000p-51",
    "identity-radial-integral-kotz-n4.5-a2.5": "0x1.4000000000000p-51",
    "identity-radial-integral-pearson7-n1-a1": "0x0.0p+0",
    "identity-radial-integral-pearson7-n1-a2.5": "0x1.0000000000000p-53",
    "identity-radial-integral-pearson7-n2-a1": "0x0.0p+0",
    "identity-radial-integral-pearson7-n2-a2.5": "0x0.0p+0",
    "identity-radial-integral-pearson7-n3-a1": "0x1.0000000000000p-52",
    "identity-radial-integral-pearson7-n3-a2.5": "0x0.0p+0",
    "identity-radial-integral-pearson7-n4.5-a1": "0x1.0000000000000p-52",
    "identity-radial-integral-pearson7-n4.5-a2.5": "0x1.0000000000000p-52",
    "identity-radial-integral-pearson2-n1-a1": "0x0.0p+0",
    "identity-radial-integral-pearson2-n1-a2.5": "0x1.0000000000000p-52",
    "identity-radial-integral-pearson2-n2-a1": "0x1.0000000000000p-52",
    "identity-radial-integral-pearson2-n2-a2.5": "0x1.0000000000000p-52",
    "identity-radial-integral-pearson2-n3-a1": "0x0.0p+0",
    "identity-radial-integral-pearson2-n3-a2.5": "0x1.0000000000000p-53",
    "identity-radial-integral-pearson2-n4.5-a1": "0x1.0000000000000p-52",
    "identity-radial-integral-pearson2-n4.5-a2.5": "0x1.0000000000000p-51",
    "identity-radial-integral-bessel-n1-a1": "0x1.0800000000000p-47",
    "identity-radial-integral-bessel-n1-a2.5": "0x1.1000000000000p-47",
    "identity-radial-integral-bessel-n2-a1": "0x1.1800000000000p-47",
    "identity-radial-integral-bessel-n2-a2.5": "0x1.1000000000000p-47",
    "identity-radial-integral-bessel-n3-a1": "0x1.6000000000000p-48",
    "identity-radial-integral-bessel-n3-a2.5": "0x1.7000000000000p-48",
    "identity-radial-integral-bessel-n4.5-a1": "0x1.0000000000000p-49",
    "identity-radial-integral-bessel-n4.5-a2.5": "0x1.8000000000000p-50",
    "jacobian-ball-map-n1-0": "0x1.1503740000000p-28",
    "jacobian-ball-map-n1-1": "0x1.7ed2a20000000p-27",
    "jacobian-ball-map-n1-2": "0x1.e05bf80000000p-29",
    "jacobian-ball-map-n2-0": "0x1.1851560000000p-25",
    "jacobian-ball-map-n2-1": "0x1.d9cf680000000p-29",
    "jacobian-ball-map-n2-2": "0x1.9019980000000p-28",
    "jacobian-ball-map-n3-0": "0x1.9ddab00000000p-28",
    "jacobian-ball-map-n3-1": "0x1.a60b140000000p-27",
    "jacobian-ball-map-n3-2": "0x1.56c62c0000000p-26",
    "jacobian-1d-grid": "0x1.6b29f60000000p-27",
}


def test_oracles_keep_their_bits(monkeypatch):
    # how the rule gathers, lays out or feeds its grid must not move a bit of
    # a level sum, so the oracle outputs are pinned as float.hex
    from multivec import validation

    levels, sums = [], []
    de_levels, grid_sum = validation._de_levels, validation._de_grid_sum

    def spy_levels(*args):
        levels.append(de_levels(*args))
        return levels[-1]

    def spy_sum(*args):  # a level's sums; a moved bit need not reach the last level
        total, edge = grid_sum(*args)
        sums.append(f"{args[2]} {total.hex()} {edge.hex()}")
        return total, edge

    monkeypatch.setattr(validation, "_de_levels", spy_levels)
    monkeypatch.setattr(validation, "_de_grid_sum", spy_sum)
    got = {}
    for name, logpdf, support, tol in _normalization_cases():
        quad_normalization(logpdf, support, tol, name=name)
        value, err, _, _ = [lv for lv in levels if lv is not None][-1]
        got[name] = (value.hex(), err.hex())
    assert got == PINNED_QUAD
    assert hashlib.sha256("\n".join(sums).encode()).hexdigest() == PINNED_LEVEL_SUMS
    assert {r.name: r.residual.hex() for r in run_identity_suite()} == PINNED_IDENTITY


# ---------------------------------------------------------------------------
# Monte-Carlo normalization


PT = MvTParams(dims=(1, 1), alpha0=1.5, betas=(1.0, 2.5))
_PROP_VAR = 3.0 * np.array([1.0, 2.5])


def _prop_sample(rng, n):
    return rng.normal(0.0, np.sqrt(_PROP_VAR), size=(n, 2))


def _prop_logpdf(x):
    return -0.5 * np.sum(x * x / _PROP_VAR, axis=-1) - 0.5 * np.sum(np.log(2.0 * np.pi * _PROP_VAR))


def test_mc_pass_and_seed_determinism():
    r1 = mc_normalization(lambda x: logpdf_mv_t(PT, x), _prop_sample, _prop_logpdf, 20_000, 3, "mc")
    r2 = mc_normalization(lambda x: logpdf_mv_t(PT, x), _prop_sample, _prop_logpdf, 20_000, 3, "mc")
    assert r1 == r2
    assert r1.passed and r1.residual <= r1.tolerance


def test_mc_detects_mis_scaled_density():
    r = mc_normalization(
        lambda x: logpdf_mv_t(PT, x) + np.log(2.0), _prop_sample, _prop_logpdf, 20_000, 3, "mc2x"
    )
    assert not r.passed


def test_mc_degenerate_proposal():
    def bad_sample(rng, n):
        return rng.normal(50.0, 0.01, size=(n, 2))

    def bad_logpdf(x):
        return -0.5 * np.sum((x - 50.0) ** 2 / 1e-4, axis=-1) - np.log(2.0 * np.pi * 1e-4)

    with pytest.raises(DegenerateWeights):
        mc_normalization(lambda x: logpdf_mv_t(PT, x), bad_sample, bad_logpdf, 5_000, 0, "bad")
    with pytest.raises(DegenerateWeights, match="^non-finite importance weights$"):
        mc_normalization(lambda x: np.full(len(x), np.inf), _prop_sample, _prop_logpdf, 5_000, 0,
                         "inf")


def test_mc_densities_of_the_wrong_shape_are_refused():
    # a scalar broadcast over the weights gives a wrong estimate, not an error;
    # each density must return one value per row of its slice
    def scalar_proposal(x):
        return -3.0

    target = partial(logpdf_mv_t, PT)
    for logpdf, proposal, which in [(target, scalar_proposal, "proposal_logpdf"),
                                    (lambda x: target(x)[:-1], _prop_logpdf, "logpdf")]:
        with pytest.raises(DimensionMismatch, match=rf"^mc-shape: {which} returned"):
            mc_normalization(logpdf, _prop_sample, proposal, 3 * _CHUNK // 2, 0, "mc-shape")


# mc_normalization of PT against a Gaussian proposal of 3x its variance, at
# 1e6 draws and seeds 0 and 7, as the whole-array weights gave it
PINNED_MC = {
    0: ("0x1.094a86425c000p-10", "0x1.42c20c872e516p-8",
        "estimate=1.00101201 se=0.00164 ess=271039 n=1000000 seed=0"),
    7: ("0x1.8d8b2ff645000p-10", "0x1.72ebb3b05f987p-8",
        "estimate=1.00151651 se=0.00189 ess=219853 n=1000000 seed=7"),
}


def test_the_mc_row_keeps_its_bytes_at_any_width(monkeypatch):
    from scipy import stats

    cov = np.diag(_PROP_VAR)
    proposal = stats.multivariate_normal(mean=np.zeros(2), cov=cov)

    def draw(rng, n):
        return rng.multivariate_normal(np.zeros(2), cov, size=n)

    for seed, want in PINNED_MC.items():
        lines = set()
        for width in ("1", "2", "3"):
            monkeypatch.setenv("MULTIVEC_THREADS", width)
            rep = mc_normalization(partial(logpdf_mv_t, PT), draw, proposal.logpdf, 1_000_000, seed,
                                   "norm-mc-mv-t-k2")
            assert (rep.residual.hex(), rep.tolerance.hex(), rep.details) == want, width
            lines.add(rep.to_json())
        assert len(lines) == 1


def test_mc_takes_a_whole_number_of_draws():
    target = partial(logpdf_mv_t, PT)
    want = mc_normalization(target, _prop_sample, _prop_logpdf, 20_000, 3, "mc")
    assert mc_normalization(target, _prop_sample, _prop_logpdf, 2e4, 3, "mc") == want
    for n in (2.5, float("nan"), "many"):
        with pytest.raises(ParameterOutOfDomain, match="n must be a whole number"):
            mc_normalization(target, _prop_sample, _prop_logpdf, n, 3, "mc")


@pytest.mark.parametrize("draw", [
    lambda rng, m: _prop_sample(rng, 10),  # too short
    lambda rng, m: _prop_sample(rng, m + 1),  # too long
    lambda rng, m: _prop_sample(rng, m)[:, 0],  # one value per row
    lambda rng, m: _prop_sample(rng, m)[:, :1] if m < _CHUNK else _prop_sample(rng, m),
], ids=["short", "long", "flat", "narrower-last-chunk"])
def test_mc_draws_of_the_wrong_shape_are_refused(draw):
    with pytest.raises(DimensionMismatch, match=r"^mc-draw: proposal_sampler returned \("):
        mc_normalization(partial(logpdf_mv_t, PT), draw, _prop_logpdf, 3 * _CHUNK // 2, 0, "mc-draw")


@pytest.mark.parametrize("width", ["1", "2", "3"])
def test_mc_draws_each_chunk_once_in_order_one_call_at_a_time(monkeypatch, width):
    monkeypatch.setenv("MULTIVEC_THREADS", width)
    lock = threading.Lock()
    draws, active, overlaps = [], [0], [0]

    def sampler(rng, m):
        with lock:
            active[0] += 1
            overlaps[0] += active[0] > 1
        try:
            time.sleep(0.002)  # long enough for a second draw to show beside this one
            draws.append(_prop_sample(rng, m))
            return draws[-1]
        finally:
            with lock:
                active[0] -= 1

    n = 3 * _CHUNK + 123
    mc_normalization(partial(logpdf_mv_t, PT), sampler, _prop_logpdf, n, 5, "mc")
    assert [len(x) for x in draws] == [_CHUNK] * 3 + [123] and overlaps[0] == 0
    # in chunk order, the chunks are the rows of one n-row call
    assert np.concatenate(draws).tobytes() == _prop_sample(validation.make_rng(5), n).tobytes()


def test_mc_holds_two_chunks_of_draws_not_all_of_them(monkeypatch):
    # at width 1 and n = 8 _CHUNK the peak is at most what the sums trace
    # (w and one temporary, 2 w.nbytes), plus two chunks' draws and one
    # chunk's weights; one sampler call of all n rows traces 2 MB over this
    import tracemalloc

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setenv("MULTIVEC_THREADS", "1")
    target, n = partial(logpdf_mv_t, PT), 8 * _CHUNK
    x = _prop_sample(np.random.default_rng(0), _CHUNK)
    one_draw = peak(lambda: _prop_sample(np.random.default_rng(0), _CHUNK))
    one_weights = peak(lambda: (target(x), _prop_logpdf(x)))
    whole = peak(lambda: mc_normalization(target, _prop_sample, _prop_logpdf, n, 0))
    assert whole <= 2 * n * 8 + 2 * one_draw + one_weights + 64_000, (whole, one_draw, one_weights)


@pytest.mark.parametrize("width", ["1", "2", "3"])
def test_a_failing_mc_draw_stops_the_stream_and_propagates(monkeypatch, width):
    monkeypatch.setenv("MULTIVEC_THREADS", width)
    lock = threading.Lock()
    calls, weighing = [], [0]

    class Drawn(RuntimeError):
        pass

    def sampler(rng, m):
        calls.append(m)
        if len(calls) == 4:
            raise Drawn("chunk 3")
        return _prop_sample(rng, m)

    def target(x):
        with lock:
            weighing[0] += 1
        try:
            time.sleep(0.005)  # still weighing chunk 2 when chunk 3's draw raises
            return logpdf_mv_t(PT, x)
        finally:
            with lock:
                weighing[0] -= 1

    with pytest.raises(Drawn, match="chunk 3"):
        mc_normalization(target, sampler, _prop_logpdf, 6 * _CHUNK, 0, "mc")
    assert weighing[0] == 0  # no weights task outlives the raise
    time.sleep(0.02)
    assert len(calls) == 4 and weighing[0] == 0  # and nothing runs on after it
    rep = mc_normalization(partial(logpdf_mv_t, PT), _prop_sample, _prop_logpdf, 3 * _CHUNK, 0, "mc")
    assert rep.passed  # the pool takes the next map


# ---------------------------------------------------------------------------
# Jacobian checks: the ball map r = t / (1 + ||t||^2)^{1/2} of the sampler
# against the mv-t and mv-pearson2 densities


def test_jacobian_mc_check():
    for n in (1, 2):
        rep = jacobian_check(n, n_draws=50_000, seed=0)
        assert rep.passed, rep.details


def test_jacobian_grid_check():
    rep = jacobian_grid_check()
    assert rep.passed and rep.residual < 1e-3


@pytest.fixture
def frozen_ball_exponent(monkeypatch):
    """densities._ball_inverse with -(n/2 + 1) log(1 - ||r||^2) frozen at n/2 + 1
    = 3/2, which is right at n = 1 only."""
    from multivec import densities

    ball_map = densities._ball_inverse

    def frozen(dims, r):
        sq_t, log_jac, inside, log_sq = ball_map(dims, r)
        # log(1 - ||r_i||^2) = -log1p(||t_i||^2)
        shift = np.sum((np.asarray(dims) / 2.0 - 0.5) * np.log1p(sq_t), axis=-1)
        return sq_t, log_jac - shift, inside, log_sq

    monkeypatch.setattr(densities, "_ball_inverse", frozen)


def test_a_ball_jacobian_exponent_frozen_at_three_halves_fails_the_vector_rows(frozen_ball_exponent):
    rows = [r for r in run_identity_suite() if r.name.startswith("jacobian-ball-map")]
    assert len(rows) == 9
    assert [r.name for r in rows if r.passed] == [f"jacobian-ball-map-n1-{s}" for s in range(3)]


@pytest.mark.parametrize("s", range(3))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_each_ball_row_sees_a_frozen_exponent_exactly_where_it_is_wrong(frozen_ball_exponent,
                                                                         seed, n, s):
    # row jacobian-ball-map-n{n}-{s} of run_identity_suite(seed)
    rep = jacobian_check(n, seed=seed + 10 * n + s)
    assert rep.passed is (n == 1), rep.residual
    if n > 1:
        assert rep.residual > 0.1  # far above the 1e-5 tolerance, not a near miss


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_image_identity_reads_zero_on_an_affine_map_of_a_normal(n):
    from scipy import stats

    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    b = rng.standard_normal(n)
    x = rng.standard_normal((200, n))
    root = stats.multivariate_normal(np.zeros(n), np.eye(n)).logpdf
    image = stats.multivariate_normal(b, a @ a.T).logpdf
    assert validation._image_identity_residual(x, root, image, lambda z: z @ a.T + b) <= 1e-8
    # the image of a map twice as wide reads 3/8 ||x||^2 - n log 2 above the true one
    wrong = stats.multivariate_normal(b, 4.0 * a @ a.T).logpdf
    residual = validation._image_identity_residual(x, root, wrong, lambda z: z @ a.T + b)
    gap = 0.375 * np.sum(x * x, axis=1) - n * np.log(2.0)
    assert abs(residual - np.max(np.abs(gap))) <= 1e-8


def test_the_image_identity_runs_the_forward_map_on_copies():
    # a forward map that writes into its argument, as the sampler's does
    def doubled(z):
        z *= 2.0
        return z

    x = np.random.default_rng(0).standard_normal((100, 2))
    before = x.copy()
    def root(z):  # N(0, I)
        return -0.5 * np.sum(z * z, axis=1) - np.log(2.0 * np.pi)

    def image(y):  # N(0, 4 I)
        return -0.125 * np.sum(y * y, axis=1) - np.log(8.0 * np.pi)

    assert validation._image_identity_residual(x, root, image, doubled) <= 1e-8
    assert np.array_equal(x, before)


def _map_cases():
    """(name, root draws, root logpdf, image logpdf, forward map) for each
    change of variables of the package: the ball map at vector blocks, the
    unit map at scalar ones, and the exp map at both."""
    from multivec import densities, sampling

    rng = sampling.make_rng(0)
    spec = Kotz(q=1.2, r=0.8, s=1.1)
    tp = MvTParams(dims=(2, 3), alpha0=1.6, betas=(1.3, 0.7))
    bp = BetaParams(shape=ExtendedShape(alphas=(1.0, 2.0, 1.5), alpha0=2.0), betas=(1.0, 0.5, 2.0))
    ep = core.MvEllipticalParams(partition=core.Partition(dims=(2,)), mus=(np.array([0.2, -0.1]),),
                                 sigmas=(np.array([[0.5, 0.1], [0.1, 0.3]]),))
    sp = ScaleShapeParams(shapes=(2.0, 3.0), scales=(1.0, 0.6))
    gp = densities.GammaLogGammaParams(spec=spec, alphas=(2.0,), sigma2s=(1.0,), rhos=(3.0,),
                                       delta2s=(0.6,))

    def log_last(u):
        np.log(u[:, 1:], out=u[:, 1:])
        return u

    return [
        ("ball", sampling.sample_mv_t(tp, rng, size=200), partial(logpdf_mv_t, tp),
         partial(densities.logpdf_mv_pearson2, tp), partial(densities._ball_forward, tp.dims)),
        ("unit", sampling.sample_mv_beta2(bp, rng, size=200), partial(densities.logpdf_mv_beta2, bp),
         partial(logpdf_mv_beta1, bp), densities._unit_forward),
        ("exp", sampling.sample_mv_elliptical(ep, spec, rng, size=200),
         partial(densities.logpdf_mv_elliptical, ep, spec),
         partial(densities.logpdf_mv_log_elliptical, ep, spec), np.exp),
        ("log", sample_mv_gengamma(sp, spec, rng, size=200), partial(logpdf_mv_gengamma, sp, spec),
         lambda z: densities.logpdf_gamma_loggamma(gp, z[:, :1], z[:, 1:]), log_last),
    ]


@pytest.mark.parametrize("case", range(4))
def test_each_change_of_variables_meets_the_image_identity(case):
    # g(F(x)) = f(x) - log|det DF(x)| for the forward map F that the image's
    # sampler applies, checked through the image's own density
    name, x, root, image, forward = _map_cases()[case]
    assert validation._image_identity_residual(x, root, image, forward) <= validation._JACOBIAN_TOL, name


def test_the_image_identity_steps_inside_a_maps_domain_edge():
    # a log-mapped coordinate of 5e-7 lies within the default step 1e-6 of
    # log's 0: the down point leaves the domain unless its step shrinks
    name, x, root, image, forward = _map_cases()[3]
    assert name == "log"
    x[0, 1] = 5e-7
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        residual = validation._image_identity_residual(x, root, image, forward)
    assert residual <= validation._JACOBIAN_TOL


def test_identity_suite_fast_mode():
    reports = run_identity_suite(seed=0)
    assert reports and all(r.passed for r in reports)
    # rerun must reproduce byte-identical lines
    again = run_identity_suite(seed=0)
    assert [r.to_json() for r in reports] == [r.to_json() for r in again]


def test_identity_rows_have_one_name_each_whatever_the_seed():
    # the three Jacobian draws per n are told apart by their index, not by
    # their seed, so a row keeps its name from one seed to the next
    names = [[r.name for r in run_identity_suite(seed=seed)] for seed in (0, 7)]
    assert names[0] == names[1] and len(set(names[0])) == len(names[0])
    assert [n for n in names[0] if n.startswith("jacobian-ball-map")] == [
        f"jacobian-ball-map-n{n}-{s}" for n in (1, 2, 3) for s in range(3)]


# ---------------------------------------------------------------------------
# pushforward goodness of fit


def test_pushforward_gengamma_passes():
    p = ScaleShapeParams(shapes=(1.5, 2.5), scales=(1.0, 0.5))
    spec = Kotz(r=0.8, q=1.3, s=1.0)
    rep = pushforward_check(
        lambda rng, n: sample_mv_gengamma(p, spec, rng, size=n),
        lambda u: logpdf_mv_gengamma(p, spec, u),
        [(0.0, np.inf), (0.0, np.inf)],
        n_draws=20_000, seed=0, name="gg",
    )
    assert rep.passed, rep.details


def test_pushforward_discriminates_wrong_exponent():
    # the same sampler must reject the density variant whose (1-b_i) exponent
    # drops the alpha0 term; this is the arbiter for the corrected formula
    p = BetaParams(shape=ExtendedShape(alphas=(1.0, 1.5), alpha0=2.0), betas=(1.0, 2.0))
    box = [(0.0, 1.0), (0.0, 1.0)]
    good = pushforward_check(
        lambda rng, n: sample_mv_beta1(p, rng, size=n),
        lambda b: logpdf_mv_beta1(p, b), box, n_draws=20_000, seed=0, name="ok",
    )
    bad = pushforward_check(
        lambda rng, n: sample_mv_beta1(p, rng, size=n),
        lambda b: _uncorrected_beta1_logpdf(p, b), box, n_draws=20_000, seed=0, name="bad",
    )
    assert good.passed
    assert not bad.passed


# details of each pushforward case at n_draws=1000, seed=0, pinned to the digit:
# a change to the CDF table, its interpolant or the cells shows here
_SMOKE_DETAILS = {
    "push-mv-elliptical-bessel-2d": "ks_p=['0.8106', '0.6759'] chi2_p=0.15338",
    "push-log-elliptical-1d": "ks_p=['0.1860']",
    "push-mixed-1p1": "ks_p=['0.3157', '0.0117'] chi2_p=0.23303",
    "push-mv-t-k2": "ks_p=['0.5251', '0.5114'] chi2_p=0.81142",
    "push-mv-pearson2-k2": "ks_p=['0.7199', '0.4975'] chi2_p=0.77240",
    "push-mv-gengamma-k2": "ks_p=['0.2758', '0.4983'] chi2_p=0.10382",
    "push-mv-beta1-k2": "ks_p=['0.9336', '0.3535'] chi2_p=0.57232",
    "push-mv-beta2-k2": "ks_p=['0.9723', '0.9658'] chi2_p=0.86582",
    "push-gengamma-pearson7-k1": "ks_p=['0.1323', '0.3114'] chi2_p=0.21954",
    "push-gengamma-pearson2-k1": "ks_p=['0.6508', '0.5074'] chi2_p=0.92401",
    "push-gengamma-beta1-k1": "ks_p=['0.6115', '0.2103'] chi2_p=0.45913",
    "push-gengamma-beta2-k1": "ks_p=['0.8557', '0.9991'] chi2_p=0.99177",
    "push-gamma-loggamma-1p1": "ks_p=['0.5518', '0.5099'] chi2_p=0.78934",
}


def test_pushforward_smoke_mode_speed():
    cases = _pushforward_cases()
    assert [c[0] for c in cases] == list(_SMOKE_DETAILS)
    # warm one call so library startup cost is not billed to a family
    _, sampler0, logpdf0, support0 = cases[0]
    pushforward_check(sampler0, logpdf0, support0, n_draws=1_000, seed=0, name="warm")
    for name, sampler, logpdf, support in cases:
        t0 = time.perf_counter()
        r = pushforward_check(sampler, logpdf, support, n_draws=1_000, seed=0, name=name)
        assert time.perf_counter() - t0 < 1.0, name
        assert r.details == f"{_SMOKE_DETAILS[name]} n=1000 seed=0"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_density_with_no_finite_total_on_the_grid_is_a_quadrature_failure(value):
    # a total that is NaN, inf or 0 leaves no CDF table to read the margins off
    with pytest.raises(QuadratureFailure, match=r"^push-bad: density total on the grid is "):
        pushforward_check(lambda rng, n: rng.standard_normal((n, 2)),
                          lambda x: np.full(len(x), value), [(-np.inf, np.inf)] * 2,
                          n_draws=1_000, name="push-bad")


@pytest.mark.parametrize("rows", [999, 1_001])
def test_pushforward_refuses_a_draw_of_the_wrong_length(rows):
    # the chi-square's expected counts are n_draws times each cell's mass
    with pytest.raises(DimensionMismatch, match=rf"^push-rows: sampler returned \({rows}, 2\) for 1000"):
        pushforward_check(lambda rng, n: rng.standard_normal((rows, 2)),
                          lambda x: -0.5 * np.sum(x * x, axis=-1), [(-np.inf, np.inf)] * 2,
                          n_draws=1_000, name="push-rows")


def test_pushforward_refuses_a_density_of_the_wrong_shape():
    # one value per grid row: a scalar would broadcast over the CDF table
    with pytest.raises(DimensionMismatch, match=r"^push-shape: logpdf returned \(\) for "):
        pushforward_check(lambda rng, n: rng.standard_normal((n, 1)), lambda x: -1.0,
                          [(-np.inf, np.inf)], n_draws=1_000, name="push-shape")


def test_pushforward_rejects_three_dims():
    # the grids cover 1 or 2 dims: a 3-axis support is refused before any draw
    calls = []

    def sampler(rng, n):
        calls.append(n)
        return rng.standard_normal((n, 3))

    with pytest.raises(ParameterOutOfDomain, match="1 or 2 dims, got 3"):
        pushforward_check(sampler, lambda x: -0.5 * np.sum(x * x, axis=-1), [(-np.inf, np.inf)] * 3,
                          n_draws=100)
    assert calls == []


@pytest.mark.parametrize("n_draws", [1, 2, 3])
def test_pushforward_reports_at_the_fewest_draws(n_draws):
    # one to three draws: a margin of one value, a grid padded by the 1e-6
    # floor of its span, and chi-square quantiles that share their edges
    f = validation._fixture("mv-beta1-k2")
    sampler, logpdf = (partial(getattr(FAMILIES[f.family], m), f.params) for m in ("sample", "logpdf"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = pushforward_check(sampler, logpdf, f.support, n_draws=n_draws, seed=0, name="few")
    assert isinstance(rep, CheckReport) and rep.details.endswith(f" n={n_draws} seed=0")
    assert "chi2_p=" in rep.details


def test_a_density_that_raises_on_either_grid_is_a_failing_row():
    # one chunk rule on both grids: the raise becomes QuadratureFailure, which
    # a suite reads as a failing row that names it
    def raising(x):
        raise ValueError("no density here")

    box = [(0.0, 1.0), (0.0, 1.0)]
    sampler = lambda rng, n: rng.uniform(0.25, 0.75, size=(n, 2))  # noqa: E731
    rows = [
        validation._oracle_row("push-raise", 0.0, partial(
            pushforward_check, sampler, raising, box, n_draws=1_000, name="push-raise")),
        validation._oracle_row("norm-raise", 1e-6, partial(
            quad_normalization, raising, box, 1e-6, "norm-raise")),
    ]
    assert [(r.passed, r.residual, r.details) for r in rows] == [
        (False, np.inf, f"QuadratureFailure: {r.name}: integrand raised: no density here")
        for r in rows]


def test_the_chi_square_counts_are_histogram2ds():
    # draws on every edge, both end nodes included, between them, and just
    # outside them; the second axis repeats an edge, as a grid too narrow
    # for its doubles does
    edges = [np.array([-1.0, -0.3, 0.0, 0.2, 0.7, 1.1, 2.0]), np.array([0.5, 0.6, 0.6, 1.4, 3.0])]
    rng = np.random.default_rng(11)
    axes = [np.concatenate([e, rng.uniform(e[0], e[-1], 40), np.nextafter(e[[0, -1]], [-9, 9]),
                            [e[0] - 5.0, e[-1] + 5.0]]) for e in edges]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    want, _, _ = np.histogram2d(x[:, 0], x[:, 1], bins=edges)
    got = validation._cell_counts(x, edges)
    assert got.shape == want.shape == (6, 4) and np.array_equal(got, want)
    assert 0 < got.sum() < len(x)


def test_a_draw_at_or_beyond_a_finite_support_end_fails_the_row():
    # mv-beta1-k2's draws with 40 moved past b1's upper end and 40 below b2's
    # lower one: the KS margins and the chi-square cells do not see them
    beta = validation._fixture("mv-beta1-k2")
    family = FAMILIES[beta.family]

    def moved(b1, b2):
        def sampler(rng, m):
            x = family.sample(beta.params, rng, m)
            x[:40, 0], x[40:80, 1] = b1, b2
            return x
        return sampler

    def check(sampler):
        return pushforward_check(sampler, partial(family.logpdf, beta.params), beta.support,
                                 n_draws=20_000, seed=0, name="moved")

    past = check(moved(1.2, -0.1))
    assert (past.passed, past.residual) == (False, 80 / 20_000)
    assert past.details == "ks_p=['0.1745', '0.1025'] chi2_p=0.15745 outside=80 n=20000 seed=0"
    at_ends = check(moved(1.0, 0.0))  # the open support holds neither end
    assert (at_ends.passed, at_ends.residual) == (False, 80 / 20_000)
    assert "outside=80 " in at_ends.details
    inside = check(partial(family.sample, beta.params))
    assert inside.passed and "outside" not in inside.details


@pytest.mark.parametrize("n", [4, 5, 640, 641])
@pytest.mark.parametrize("nodes", ["linspace", "geomspace"])
@pytest.mark.parametrize("axis", [0, 1])
def test_cumulative_simpson_is_scipys_bit_for_bit(n, nodes, axis):
    from scipy import integrate

    x = np.linspace(-2.0, 3.0, n) if nodes == "linspace" else np.geomspace(1e-3, 50.0, n)
    rng = np.random.default_rng(n)
    shape = (n, 7) if axis == 0 else (7, n)
    y = rng.standard_normal(shape) * np.exp(5.0 * rng.standard_normal(shape))
    want = integrate.cumulative_simpson(y, x=x, initial=0.0, axis=axis)
    got = _cumulative_simpson(y, x, axis)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _gathered_simpson(y, x, axis):
    """_cumulative_simpson as one np.take gather per node of each interval."""
    dx = np.diff(x)
    i = np.arange(dx.size)
    nxt = (i % 2 == 0) & (i < dx.size - 1)
    far, near = np.where(nxt, i, i + 1), np.where(nxt, i + 1, i)
    step = np.where(nxt, 1, -1)
    x21, x32 = dx, dx[i + step]
    x21_x31 = x21 / (x21 + x32)
    q = x21_x31 * (x21 / x32)
    shape = [1] * y.ndim
    shape[axis] = dx.size
    c1, c2, c3, w = (c.reshape(shape) for c in (3 - x21_x31, 3 + q + x21_x31, -q, x21 / 6))
    out = np.zeros(y.shape)
    rest = [slice(None)] * y.ndim
    rest[axis] = slice(1, None)
    out[tuple(rest)] = w * (
        c1 * np.take(y, far, axis=axis)
        + c2 * np.take(y, near, axis=axis)
        + c3 * np.take(y, near + step, axis=axis)
    )
    return np.cumsum(out, axis=axis, out=out)


@pytest.mark.parametrize("n", [3, 4, 5, 641, 2001])
@pytest.mark.parametrize("layout", ["1-d", "axis 0", "axis 1"])
def test_strided_simpson_equals_the_gathered_one(monkeypatch, n, layout):
    # irregular nodes; 23 lanes in bands of 64 (one band), 5 (five, the last
    # of 3 lanes) and 2 (twelve), at widths 1 and 2
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.01, 2.0, n))
    shape = {"1-d": (n,), "axis 0": (n, 23), "axis 1": (23, n)}[layout]
    axis = 1 if layout == "axis 1" else 0
    y = rng.standard_normal(shape) * np.exp(5.0 * rng.standard_normal(shape))
    want = [v.hex() for v in _gathered_simpson(y, x, axis).ravel().tolist()]
    for band in (64, 5, 2):
        monkeypatch.setattr(validation, "_SIMPSON_BAND", band)
        for width in ("1", "2"):
            monkeypatch.setenv("MULTIVEC_THREADS", width)
            got = _cumulative_simpson(y, x, axis)
            assert got.shape == y.shape
            assert [v.hex() for v in got.ravel().tolist()] == want, (band, width)


def test_a_pushforward_report_is_unchanged_by_its_simpson_bands(monkeypatch):
    # 641 lanes in 11 bands of 64 (the last of 1), in 3 and in 1; each at
    # widths 1 and 3
    f = validation._fixture("mv-beta1-k2")
    sampler, logpdf = (partial(getattr(FAMILIES[f.family], m), f.params) for m in ("sample", "logpdf"))
    lines = set()
    for band in (64, 214, 641):
        monkeypatch.setattr(validation, "_SIMPSON_BAND", band)
        for width in ("1", "3"):
            monkeypatch.setenv("MULTIVEC_THREADS", width)
            lines.add(pushforward_check(sampler, logpdf, f.support, n_draws=2_000, seed=5).to_json())
    assert len(lines) == 1


@pytest.mark.parametrize("n", [1_000, 100_000])
@pytest.mark.parametrize("shape", [2.0, 1.95, 2.05])  # fits; D- decides; D+ decides
def test_ks_pvalue_is_kstests(n, shape):
    from scipy import special, stats

    values = np.random.default_rng(n).gamma(2.0, size=n)
    cdf = partial(special.gammainc, shape)
    # _ks_pvalue takes the sorted sample, as pushforward_check's margins come
    assert _ks_pvalue(np.sort(values), cdf) == stats.kstest(values, cdf).pvalue


# ---------------------------------------------------------------------------
# grid chunks on the shared thread pool


def _level_sum_digest(monkeypatch) -> str:
    """The digest test_oracles_keep_their_bits pins, over the normalization cases."""
    sums = []
    grid_sum = validation._de_grid_sum

    def spy_sum(*args):
        total, edge = grid_sum(*args)
        sums.append(f"{args[2]} {total.hex()} {edge.hex()}")
        return total, edge

    monkeypatch.setattr(validation, "_de_grid_sum", spy_sum)
    for name, logpdf, support, tol in _normalization_cases():
        quad_normalization(logpdf, support, tol, name=name)
    monkeypatch.setattr(validation, "_de_grid_sum", grid_sum)
    return hashlib.sha256("\n".join(sums).encode()).hexdigest()


def test_the_width_moves_no_level_sum_and_no_pushforward_report(monkeypatch):
    reports = {}
    for width in ("1", "2"):
        monkeypatch.setenv("MULTIVEC_THREADS", width)
        assert _level_sum_digest(monkeypatch) == PINNED_LEVEL_SUMS, width
        reports[width] = [r.to_json() for r in validation.run_pushforward_suite(0, n_draws=1_000)]
    assert reports["1"] == reports["2"]
    details = {json.loads(line)["name"]: json.loads(line)["details"] for line in reports["2"]}
    for name, want in _SMOKE_DETAILS.items():
        assert details[name] == f"{want} n=1000 seed=0"


def _seven_chunk_axes():
    """One axis of 6 1/2 chunks: nodes 0, 1, ..., weights 1, no edge."""
    n = 6 * _CHUNK + _CHUNK // 2
    return [(np.arange(float(n)), np.ones(n), np.zeros(n, dtype=bool))]


def test_a_chunk_that_raises_gives_the_serial_failure(monkeypatch):
    # chunk 3 fails late and chunk 4 at once: the lower chunk's failure is
    # the one the serial loop meets first
    def logpdf(x):
        c = int(x[0, 0]) // _CHUNK
        if c == 3:
            time.sleep(0.05)
            raise ValueError("chunk 3 is bad")
        if c == 4:
            raise ArithmeticError("chunk 4 is bad")
        return np.zeros(len(x))

    messages = set()
    for width in ("1", "2", "3"):
        monkeypatch.setenv("MULTIVEC_THREADS", width)
        with pytest.raises(QuadratureFailure) as info:
            validation._de_grid_sum(logpdf, _seven_chunk_axes(), "seven")
        assert isinstance(info.value.__cause__, ValueError)
        messages.add(str(info.value))
    assert messages == {"seven: integrand raised: chunk 3 is bad"}


def test_chunk_sums_add_in_chunk_order_at_any_width(monkeypatch):
    # terms of very different size: a different order of the chunk sums
    # would move the last bits of the total
    x = _seven_chunk_axes()
    scale = np.exp(np.random.default_rng(5).uniform(-30.0, 30.0, 7))

    def logpdf(pts):
        return np.log(scale[int(pts[0, 0]) // _CHUNK] * (1.0 + pts[:, 0] % 7))

    got = set()
    for width in ("1", "2", "3"):
        monkeypatch.setenv("MULTIVEC_THREADS", width)
        total, edge = validation._de_grid_sum(logpdf, x, "order")
        got.add((total.hex(), edge))
    assert len(got) == 1


def test_a_single_chunk_grid_starts_no_pool(monkeypatch):
    monkeypatch.setenv("MULTIVEC_THREADS", "2")
    monkeypatch.setattr(core, "_pool", None)
    name, logpdf, support, tol = next(
        c for c in _normalization_cases() if c[0] == "norm-mv-gengamma-kotz-k1")
    assert quad_normalization(logpdf, support, tol, name).passed
    name, sampler, logpdf, support = next(
        c for c in _pushforward_cases() if c[0] == "push-log-elliptical-1d")
    assert pushforward_check(sampler, logpdf, support, n_draws=1_000).passed
    assert core._pool is None


class _Abort(BaseException):
    """Stands for a timer's exception or KeyboardInterrupt in the caller."""


@pytest.mark.parametrize("error", [ValueError, _Abort])
def test_no_worker_takes_a_chunk_after_the_callers_chunk_raises(monkeypatch, error):
    monkeypatch.setenv("MULTIVEC_THREADS", "2")
    futures = []
    pool_of = core._chunk_pool

    class Recorded:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, *args):
            futures.append(self.pool.submit(*args))
            return futures[-1]

    monkeypatch.setattr(core, "_chunk_pool", lambda workers: Recorded(pool_of(workers)))
    caller, release = threading.current_thread(), threading.Event()
    caller_chunks, worker_chunks = [], []

    def chunk(i):
        if threading.current_thread() is caller:
            caller_chunks.append(i)
            raise error(f"chunk {i}")
        worker_chunks.append(i)
        release.wait(10.0)

    # a failing chunk makes the caller wait for the chunks already taken
    # before it raises; anything else it raises at once
    timer = threading.Timer(0.2 if error is ValueError else 10.0, release.set)
    timer.start()
    with pytest.raises(error):
        core._map_chunks(chunk, 50)
    release.set()
    timer.cancel()
    for fut in futures:
        fut.result(timeout=10.0)
    assert len(futures) == 1 and len(caller_chunks) == 1 and len(worker_chunks) <= 1


def test_every_grid_chunk_takes_its_exp_under_the_overflow_errstate_and_not_its_logpdf(monkeypatch):
    # numpy's errstate is per thread: a pool thread's chunk sets its own.  It
    # covers exp alone: values that overflow exp leave a table whose total
    # is refused, silently, while a density that overflows in its own code
    # is seen, on both grids
    name, sampler, logpdf, support = next(
        c for c in _pushforward_cases() if c[0] == "push-mv-beta1-k2")

    def overflowing(x):
        np.exp(np.full(len(x), 1000.0))
        return logpdf(x)

    for width in ("1", "2"):
        monkeypatch.setenv("MULTIVEC_THREADS", width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure, match=r"^pushforward: density total on the grid is "):
                pushforward_check(sampler, lambda x: np.full(len(x), 1000.0), support, n_draws=1_000)
            for oracle in (partial(pushforward_check, sampler, overflowing, support, n_draws=1_000,
                                   name="overflowing"),
                           partial(quad_normalization, overflowing, support, 1e-5, "overflowing")):
                with pytest.raises(QuadratureFailure, match="^overflowing: integrand raised: overflow"):
                    oracle()


@pytest.mark.parametrize("width", ["1", "2"])
def test_every_chunk_runs_under_the_callers_errstate(monkeypatch, width):
    # numpy keeps np.errstate in a context variable, which a pool thread does
    # not inherit: each chunk must run in a copy of the caller's context
    monkeypatch.setenv("MULTIVEC_THREADS", width)
    caller, both = threading.get_ident(), threading.Barrier(int(width))

    def chunk(i):
        if i < 2:  # at width 2 the caller and the pool thread each hold one of chunks 0, 1
            both.wait(10.0)
        try:
            np.float64(1.0) / 0.0
        except FloatingPointError:
            return threading.get_ident() == caller, "raised"
        return threading.get_ident() == caller, "silent"

    with np.errstate(divide="raise"):
        runs = core._map_chunks(chunk, 8)
        with pytest.raises(FloatingPointError):
            core._map_chunks(lambda i: np.float64(i + 1) / 0.0, 8)
    assert {outcome for _, outcome in runs} == {"raised"}
    if width == "2":
        assert not all(on_caller for on_caller, _ in runs)
    with np.errstate(divide="ignore"):  # and the caller's own errstate is left as it was
        assert core._map_chunks(lambda i: np.float64(1.0) / 0.0, 2) == [np.inf, np.inf]


def test_a_map_inside_a_chunk_runs_inline(monkeypatch):
    monkeypatch.setenv("MULTIVEC_THREADS", "2")
    pools, pool_of = [], core._chunk_pool
    monkeypatch.setattr(core, "_chunk_pool", lambda workers: pools.append(workers) or pool_of(workers))
    both = threading.Barrier(2)

    def inner_threads(i):
        if i < 2:  # the caller and the pool thread each hold one of chunks 0, 1
            both.wait(10.0)
        return set(core._map_chunks(lambda j: threading.get_ident(), 4)), threading.get_ident()

    runs = core._map_chunks(inner_threads, 4)
    assert pools == [1]  # the outer map's one pool thread; no inner map asks for the pool
    assert all(inner == {chunk_thread} for inner, chunk_thread in runs)
    assert len({chunk_thread for _, chunk_thread in runs}) == 2 and not core._in_chunk.get()


def test_every_chunk_runs_once_under_frequent_thread_switches(monkeypatch):
    # more threads than cores, switching every microsecond: a lost update to
    # the shared index would run a chunk twice or not at all
    monkeypatch.setenv("MULTIVEC_THREADS", "6")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            runs = [0] * 300

            def chunk(i):
                runs[i] += 1  # each index has one writer if the taking is right
                return i * i

            assert core._map_chunks(chunk, len(runs)) == [i * i for i in range(len(runs))]
            assert runs == [1] * len(runs)
    finally:
        sys.setswitchinterval(interval)


def test_fresh_pool_threads_share_a_map_and_set_no_cpu_affinity(monkeypatch):
    monkeypatch.setenv("MULTIVEC_THREADS", "3")
    monkeypatch.setattr(core, "_pool", None)  # fresh threads: nothing has run on them yet
    calls = []
    monkeypatch.setattr(core.os, "sched_setaffinity", lambda *args: calls.append(args),
                        raising=False)
    gate = threading.Barrier(3)

    def gated(i):
        if i < 3:  # chunks 0-2 wait for each other: three threads hold one each at once
            gate.wait(10.0)
        return i, threading.get_ident()

    runs = core._map_chunks(gated, 4)
    core._pool[1].shutdown(wait=True)  # the test's own pool: every submitted take has ended
    assert [i for i, _ in runs] == [0, 1, 2, 3]
    assert len({thread for _, thread in runs[:3]}) == 3
    assert threading.get_ident() in {thread for _, thread in runs[:3]}
    assert calls == []


def test_a_pool_handed_out_stays_usable_after_a_wider_one_is_made(monkeypatch):
    monkeypatch.setattr(core, "_pool", None)
    narrow = core._chunk_pool(1)
    assert core._chunk_pool(2) is not narrow
    assert narrow.submit(int, "7").result(timeout=10.0) == 7


def test_callers_at_rising_widths_share_the_pool_safely(monkeypatch):
    # each caller asks for more threads than the pool has, again and again,
    # while the other may be submitting to the pool it got
    width = threading.local()
    monkeypatch.setattr(core, "_threads", lambda: width.now)
    monkeypatch.setattr(core, "_pool", None)
    errors = []

    def call(offset):
        try:
            for _ in range(20):
                core._pool = None
                for now in range(2 + offset, 6 + offset):
                    width.now = now
                    assert core._map_chunks(lambda i: i * i, 8) == [i * i for i in range(8)]
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(30.0)
    assert not any(t.is_alive() for t in callers) and errors == []


def test_a_malformed_thread_count_names_the_variable(monkeypatch):
    monkeypatch.setenv("MULTIVEC_THREADS", "two")
    with pytest.raises(ParameterOutOfDomain, match="MULTIVEC_THREADS"):
        validation._de_grid_sum(lambda x: np.zeros(len(x)), _seven_chunk_axes(), "env")
    monkeypatch.delenv("MULTIVEC_THREADS")
    assert core._threads() >= 1
