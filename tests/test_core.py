"""Domain types and the dense linear algebra under every density."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from multivec import (
    DimensionMismatch,
    FitResult,
    JointScaleParams,
    Kotz,
    MixedParams,
    MvEllipticalParams,
    MvTParams,
    NotPositiveDefinite,
    ParameterOutOfDomain,
    Partition,
    ExtendedShape,
    SampleMatrix,
    ScaleShapeParams,
    block_quadform,
    logpdf_gengamma_pearson2,
    logpdf_gengamma_pearson7,
    logpdf_mv_elliptical,
    make_rng,
    sample_gengamma_pearson2,
    sample_gengamma_pearson7,
    sample_mv_elliptical,
    spd_factorize,
    validate_partition,
)
from multivec import core, densities, sampling


# ---------------------------------------------------------------------------
# spd_factorize


def test_spd_identity_logdet_zero():
    logdet, solve = spd_factorize(np.eye(3))
    assert logdet == 0.0
    b = np.array([1.0, -2.0, 0.5])
    assert np.allclose(solve(b), b)


def test_spd_diagonal_logdet():
    logdet, _ = spd_factorize(np.diag([2.0, 8.0]))
    assert abs(logdet - np.log(16.0)) < 1e-14


def test_spd_random_matches_eigenvalue_logdet():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        B = rng.normal(size=(n, n))
        A = B.T @ B + np.eye(n)
        logdet, solve = spd_factorize(A)
        want = float(np.sum(np.log(np.linalg.eigvalsh(A))))
        assert abs(logdet - want) < 1e-9
        b = rng.normal(size=n)
        x = solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_spd_scaled_identity_logdet():
    for c in (0.1, 1.0, 7.5, 1234.0):
        for n in (1, 2, 5):
            logdet, _ = spd_factorize(c * np.eye(n))
            assert abs(logdet - n * np.log(c)) < 1e-12


def test_spd_rejects_indefinite_and_asymmetric():
    with pytest.raises(NotPositiveDefinite):
        spd_factorize(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        spd_factorize(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_spd_refuses_an_empty_matrix():
    with pytest.raises(DimensionMismatch, match=r"^S must be square and non-empty, got shape"):
        spd_factorize(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch, match=r"^Sigma_00 must be square and non-empty"):
        MvEllipticalParams(partition=Partition(dims=(1,)), mus=(np.zeros(1),),
                           sigmas=(np.zeros((0, 0)),))


# ---------------------------------------------------------------------------
# block_quadform


def _scalar_params(mus, sigma2s):
    return MvEllipticalParams.scalar_blocks(mus, sigma2s)


def test_quadform_zero_at_mu():
    p = _scalar_params([1.5, -2.0], [2.0, 3.0])
    assert block_quadform(p, np.array([1.5, -2.0])) == 0.0


def test_quadform_euclidean_norm():
    p = MvEllipticalParams(
        partition=Partition(dims=(2,)),
        mus=(np.zeros(2),),
        sigmas=(np.eye(2),),
    )
    assert abs(block_quadform(p, np.array([3.0, 4.0])) - 25.0) < 1e-12


def test_quadform_block_sum():
    p = _scalar_params([0.0, 0.0], [4.0, 1.0])
    assert abs(block_quadform(p, np.array([2.0, 3.0])) - 10.0) < 1e-12


def test_quadform_nonnegative_and_zero_only_at_mu():
    rng = np.random.default_rng(3)
    p = MvEllipticalParams(
        partition=Partition(dims=(2, 1)),
        mus=(np.array([0.5, -1.0]), np.array([2.0])),
        sigmas=(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([[0.7]])),
    )
    for _ in range(50):
        x = rng.normal(size=3)
        q = block_quadform(p, x)
        assert q >= 0.0
        if not np.allclose(x, [0.5, -1.0, 2.0]):
            assert q > 0.0


def _cho_solve_quadform(p, x):
    """block_quadform as cho_solve gives it on every block, 1x1 ones included."""
    total = 0.0
    for blk, mu, (c, _) in zip(validate_partition(p.partition, x), p.mus, p.factors):
        d = blk - mu
        sol = scipy.linalg.cho_solve((c, True), np.moveaxis(d, -1, 0), check_finite=False)
        with np.errstate(over="ignore"):
            total = total + core._sum_last(np.moveaxis(sol, 0, -1) * d)
    return total


def test_one_by_one_blocks_keep_cho_solves_bits():
    # a 1x1 block skips the LAPACK call: d (1/c) (1/c) is what its two
    # triangular solves compute, so the form must not move by a bit
    rng = np.random.default_rng(20)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1e-300]
    for trial in range(40):
        scale = 10.0 ** rng.uniform(-300, 300, 3) if trial % 2 else rng.uniform(0.01, 100, 3)
        a = rng.standard_normal((2, 2))
        p = MvEllipticalParams(
            partition=Partition(dims=(1, 2, 1)),
            mus=(rng.standard_normal(1), rng.standard_normal(2), rng.standard_normal(1) * 1e5),
            sigmas=(np.array([[scale[0]]]), a @ a.T + np.eye(2), np.array([[scale[2]]])),
        )
        x = rng.standard_normal((1000, 4)) * 10.0 ** rng.integers(-300, 300, (1000, 4))
        x[:, 1:3] = rng.standard_normal((1000, 2))  # extremes only in the 1x1 blocks
        x[: len(special), 0] = x[-len(special):, 3] = special
        want = _cho_solve_quadform(p, x)
        for got in (block_quadform(p, x), block_quadform(p, np.asfortranarray(x)),
                    block_quadform(p, np.ascontiguousarray(x.T).T)):
            assert got.tobytes() == want.tobytes()
        for i in (0, 4, 999):  # single points
            one = block_quadform(p, x[i])
            assert np.asarray(one).tobytes() == np.asarray(_cho_solve_quadform(p, x[i])).tobytes()


def test_a_form_that_overflows_at_a_finite_point_is_inf():
    # the two products of the correlated 2x2 form overflow to +inf and -inf;
    # the form is +inf, not NaN, with no warning, and the density is -inf
    p = MvEllipticalParams(partition=Partition(dims=(2,)), mus=(np.zeros(2),),
                           sigmas=(np.array([[1.0, 0.9], [0.9, 1.0]]),))
    x = np.array([[1e200, 5e199], [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert block_quadform(p, x[0]) == np.inf
        batch = block_quadform(p, x)
        assert batch[0] == np.inf and batch[1] == block_quadform(p, x[1]) > 0.0
        assert logpdf_mv_elliptical(p, Kotz(q=1.0, r=0.5, s=1.0), x[0]) == -np.inf


def test_blocks_of_2_to_5_dims_keep_cho_solves_bits():
    # one LAPACK call solves every row of a batch, an empty one included;
    # a (3, 4) batch gives the bits of its 12 rows
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 5):
        a = rng.standard_normal((n, n))
        p = MvEllipticalParams(partition=Partition(dims=(n,)), mus=(rng.standard_normal(n),),
                               sigmas=(a @ a.T + 0.1 * np.eye(n),))
        for shape in ((0,), (1,), (4097,), (100_000,), (3, 4)):
            x = rng.standard_normal((*shape, n)) * 10.0 ** rng.integers(-3, 4, (*shape, n))
            got = block_quadform(p, x)
            assert got.shape == shape, (n, shape)
            want = _cho_solve_quadform(p, x.reshape(-1, n))
            assert got.tobytes() == want.tobytes(), (n, shape)


# a digest of block_quadform on a (1e5, 3) batch with one 3x3 block and of
# 1e5 draws of sample_mv_elliptical at the Bessel 2-d oracle fixture
_ELLIPTICAL_DIGEST = """
import hashlib
import numpy as np
from multivec import MvEllipticalParams, Partition, block_quadform, make_rng, sample_mv_elliptical
from multivec.validation import _fixture
rng = np.random.default_rng(31)
a = rng.standard_normal((3, 3))
p = MvEllipticalParams(partition=Partition(dims=(3,)), mus=(rng.standard_normal(3),),
                       sigmas=(a @ a.T + 0.1 * np.eye(3),))
h = hashlib.sha256(block_quadform(p, rng.standard_normal((100_000, 3))).tobytes())
h.update(sample_mv_elliptical(*_fixture("mv-elliptical-bessel-2d").params, make_rng(0),
                              size=100_000).tobytes())
print(h.hexdigest())
"""


def test_blas_threads_do_not_move_the_elliptical_bits():
    # one dpotrs call solves a whole batch, and one matmul scales a whole
    # block of draws; OpenBLAS may split either over its threads, which is
    # exact only because each right-hand side is solved on its own
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _ELLIPTICAL_DIGEST], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.add(proc.stdout)
    assert len(digests) == 1, digests


def test_a_batch_of_any_leading_shape_gives_each_points_form():
    p = MvEllipticalParams(
        partition=Partition(dims=(2, 1)), mus=(np.array([0.5, -1.0]), np.array([2.0])),
        sigmas=(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([[0.7]])),
    )
    x = np.random.default_rng(4).standard_normal((3, 4, 3))
    got = block_quadform(p, x)
    assert got.shape == (3, 4)
    assert [v.hex() for v in got.ravel().tolist()] == [
        float(block_quadform(p, point)).hex() for point in x.reshape(-1, 3)]


_EDGE_VALUES = (5e-324, 1e-300, 1e-160, 0.5, 1.0, 1.0 - 2.0**-53, 1e8, 1e154, 1e200, 1e300,
                1.7e308)


@pytest.mark.parametrize("sigma", [
    [[0.7]],
    [[1.0, 0.9], [0.9, 1.0]],
    [[1.0, 0.9, 0.81], [0.9, 1.0, 0.9], [0.81, 0.9, 1.0]],
], ids=["1x1", "2x2", "3x3"])
def test_block_quadform_at_the_edges_of_floating_point(sigma):
    # one block on the grid +-{0, 5e-324, ..., 1.7e308}^n, batched and one
    # point at a time, warnings as errors: never NaN; +inf wherever the form
    # overflows; finite, and right to 1e-12, where it is 1e3 times below the
    # largest float (closer, a product that overflows may make it +inf)
    sigma = np.array(sigma)
    n = len(sigma)
    p = MvEllipticalParams(partition=Partition(dims=(n,)), mus=(np.zeros(n),), sigmas=(sigma,))
    signed = sorted({0.0, *_EDGE_VALUES, *(-v for v in _EDGE_VALUES)})
    x = np.array(list(itertools.product(signed, repeat=n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = block_quadform(p, x)
        single = np.array([block_quadform(p, point) for point in x])
    assert batch.tobytes() == single.tobytes()
    # the exact form is s^2 u' Sigma^-1 u, with s = max |x_i| and u = x / s
    scale = np.max(np.abs(x), axis=1)
    u = x / np.where(scale > 0, scale, 1.0)[:, None]
    with np.errstate(divide="ignore"):
        log_form = 2.0 * np.log(scale) + np.log(np.einsum("ij,jk,ik->i", u, np.linalg.inv(sigma), u))
    log_max = math.log(sys.float_info.max)
    assert not np.isnan(batch).any()
    assert (batch[log_form > log_max + 1e-9] == np.inf).all()
    below = log_form < log_max - math.log(1e3)
    assert np.isfinite(batch[below]).all() and (batch[below] >= 0.0).all()
    normal = below & (log_form > math.log(1e-280))
    assert np.allclose(batch[normal], np.exp(log_form[normal]), rtol=1e-12, atol=0.0)
    assert (log_form > log_max + 1e-9).any() and normal.any()


def test_quadform_dimension_mismatch():
    p = _scalar_params([0.0], [1.0])
    with pytest.raises(DimensionMismatch):
        block_quadform(p, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# MvEllipticalParams: copies and the cached factors


def test_elliptical_params_keep_read_only_copies():
    mu, sig = np.array([0.5]), np.array([[2.0]])
    p = MvEllipticalParams(partition=Partition(dims=(1,)), mus=(mu,), sigmas=(sig,))
    mu[0] = sig[0, 0] = 9.0
    assert p.mus[0][0] == 0.5 and p.sigmas[0][0, 0] == 2.0
    with pytest.raises(ValueError):
        p.sigmas[0][0, 0] = 1.0


def test_each_block_is_factored_once(monkeypatch):
    calls = []
    for name in ("cho_factor", "cholesky"):
        def counted(*args, _real=getattr(scipy.linalg, name), **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, counted)
    p = MvEllipticalParams(
        partition=Partition(dims=(2, 1, 1)), mus=(np.zeros(2), np.ones(1), -np.ones(1)),
        sigmas=(np.array([[1.0, 0.3], [0.3, 0.8]]), np.eye(1), 2.0 * np.eye(1)),
    )
    spec = Kotz(q=1.3, r=0.7, s=1.1)
    x = np.random.default_rng(5).normal(size=(20, 4))
    first = logpdf_mv_elliptical(p, spec, x)
    assert len(calls) == 3  # k blocks, each once
    assert np.array_equal(logpdf_mv_elliptical(p, spec, x), first)
    assert logpdf_mv_elliptical(p, spec, x[0]) == first[0]
    sample_mv_elliptical(p, spec, make_rng(1), size=10)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# partitions and parameter containers


def test_validate_partition_scalar_blocks():
    blocks = validate_partition(Partition(dims=(1, 1)), np.array([3.0, 4.0]))
    assert [b.tolist() for b in blocks] == [[3.0], [4.0]]


def test_validate_partition_mixed_blocks():
    blocks = validate_partition(Partition(dims=(2, 3)), np.arange(5.0))
    assert [len(b) for b in blocks] == [2, 3]
    assert blocks[1].tolist() == [2.0, 3.0, 4.0]


def test_validate_partition_length_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_partition(Partition(dims=(2, 3)), np.arange(4.0))


def test_partition_invariants():
    with pytest.raises(DimensionMismatch):
        Partition(dims=())
    with pytest.raises(DimensionMismatch):
        Partition(dims=(1, 0))
    p = Partition(dims=(2, 3))
    assert p.k == 2 and p.total == 5 and p.offsets == (0, 2, 5)
    assert all(type(o) is int for o in p.offsets)


def _mixed(k1):
    return MixedParams(base=MvEllipticalParams.scalar_blocks([0.0, 0.0], [1.0, 1.0]), k1=k1)


def _mv_t(*dims):
    return MvTParams(dims=dims, alpha0=1.5, betas=(1.0,) * len(dims))


def _joint(*dims):
    return JointScaleParams(spec=Kotz.gaussian(), alpha0=1.5, sigma2s=(1.0,) * (len(dims) + 1),
                            dims=dims)


# block dims and block counts that are not whole numbers, where the params take them
_NOT_WHOLE = {
    "partition": lambda: Partition(dims=(2.7, 1)),
    "mv-t": lambda: _mv_t(1.9),
    "joint": lambda: _joint(2.5),
    "mixed-k1": lambda: _mixed(1.7),
    "partition-nan": lambda: Partition(dims=(1, math.nan)),
    "mv-t-nan": lambda: _mv_t(math.nan),
    "joint-inf": lambda: _joint(1, math.inf),
    "mv-t-minus-inf": lambda: _mv_t(-math.inf),
    "mixed-k1-inf": lambda: _mixed(math.inf),
    "partition-str": lambda: Partition(dims=("two",)),
    # a numeric string or bytes is text, not a number
    "partition-numeric-str": lambda: Partition(dims=("2", "1")),
    "mv-t-bytes": lambda: _mv_t(b"2"),
    "joint-bytearray": lambda: _joint(bytearray(b"2")),
    # a boolean is no count, though operator.index reads True as 1
    "partition-bool": lambda: Partition(dims=(True,)),
    "mv-t-numpy-bool": lambda: _mv_t(np.True_),
}


@pytest.mark.parametrize("case", list(_NOT_WHOLE))
def test_a_block_dim_that_is_not_a_whole_number_raises(case):
    with pytest.raises(DimensionMismatch, match="must be a whole number"):
        _NOT_WHOLE[case]()


def test_a_numeric_string_is_named_as_written():
    with pytest.raises(DimensionMismatch, match=r"^block dim must be a whole number, got '2'$"):
        Partition(dims=("2", "1"))


def test_block_dims_take_integral_floats_and_numpy_integers():
    for dims in [(2.0, 1), (np.int64(2), np.float64(1.0)), (np.int32(2), np.float32(1.0))]:
        got = (Partition(dims=dims).dims, _mv_t(*dims).dims, _joint(*dims).dims)
        assert got == ((2, 1),) * 3
        assert all(type(d) is int for ds in got for d in ds)
    assert _mixed(np.float64(1.0)).k1 == 1 and type(_mixed(np.int64(2)).k1) is int
    assert _joint().dims == ()  # a joint law may have no blocks; the others may not
    for make in (_mv_t, lambda: _mv_t(0), lambda: _joint(1, 0), lambda: _mixed(3),
                 lambda: _mixed(-1)):
        with pytest.raises(DimensionMismatch):
            make()


# an edge coordinate x of a block (x, 0.5), and that block's ||.||^2 as the
# block-norm rule reads it: overflow and NaN are +inf, underflow is exact
_NORM_EDGES = [(math.nan, math.inf), (math.inf, math.inf), (-math.inf, math.inf),
               (1e200, math.inf), (1e-200, 0.25), (-0.0, 0.25), (0.6, 0.6 * 0.6 + 0.25)]


def test_density_norms_and_the_ball_map_read_one_block_norm_rule(monkeypatch):
    # the norms go through the spy below: the density's blocks, the ball
    # map's blocks and the directions of its overflowing rows, and the
    # sphere's normal draws
    seen = []

    def spy(blocks, out):
        seen.append([blk.copy() for blk in blocks])
        return core._block_sqnorms(blocks, out)

    monkeypatch.setattr(densities, "_block_sqnorms", spy)
    monkeypatch.setattr(sampling, "_block_sqnorms", spy)
    x, want = map(np.array, zip(*_NORM_EDGES))
    t = np.column_stack([np.full(len(x), 0.3), x, np.full(len(x), 0.5)])  # blocks (1, 2)
    sq = densities._sqnorms_by_dims((1, 2), t, "t")
    assert len(seen) == 1 and np.array_equal(seen.pop()[1], t[:, 1:], equal_nan=True)
    r = densities._ball_forward((1, 2), t.copy())
    assert np.array_equal(sq[:, 0], np.full(len(x), 0.3 * 0.3)) and np.array_equal(sq[:, 1], want)
    # the ball map divides each block by sqrt(1 + ||t_i||^2) with the same
    # norms; where a norm is +inf, the block is its direction (NaN with a NaN)
    assert np.array_equal(r[:, 0], 0.3 / np.sqrt(1.0 + sq[:, 0]))
    finite = want < np.inf
    assert np.array_equal(r[finite, 2], 0.5 / np.sqrt(1.0 + want[finite]))
    direction = [[np.nan] * 2, [1.0, 0.0], [-1.0, 0.0], [1.0, 0.5 / 1e200]]
    assert np.array_equal(r[~finite, 1:], direction, equal_nan=True)
    assert [len(blocks) for blocks in seen] == [1, 1, 1]
    assert np.array_equal(seen[0][0], t[:, :1]) and np.array_equal(seen[1][0], t[:, 1:], equal_nan=True)
    assert np.array_equal(seen[2][0], direction, equal_nan=True)  # each scaled by its largest |t_ij|
    seen.clear()
    u = sampling.sample_unit_sphere(3, make_rng(5), size=4)
    assert len(seen) == 1 and np.array_equal(seen[0][0], make_rng(5).standard_normal((4, 3)))
    assert np.array_equal(u, seen[0][0] / np.sqrt(core._block_sqnorms(seen[0], np.empty((4, 1)))))
    # the joint law with no blocks: its norms have no column, and its draws
    # and densities keep the bits they had before core cut the blocks
    h = hashlib.sha256()
    p = JointScaleParams(spec=Kotz(r=0.7, q=1.3, s=1.1), alpha0=1.5, sigma2s=(2.0,), dims=())
    for sampler in (sample_gengamma_pearson7, sample_gengamma_pearson2):
        s0, blocks = sampler(p, make_rng(3400), size=1000)
        h.update(s0.tobytes())
        assert blocks.shape == (1000, 0)
        s0, blocks = sampler(p, make_rng(3401))
        h.update(np.float64(s0).tobytes())
        assert blocks.shape == (0,)
    for logpdf in (logpdf_gengamma_pearson7, logpdf_gengamma_pearson2):
        h.update(logpdf(p, np.linspace(-1.0, 8.0, 50), np.zeros((50, 0))).tobytes())
    assert h.hexdigest() == "c95e0d6e2915c65cf2b528041cf679b8e5db122e4ec886b2babca89ca3451bce"


def test_extended_shape_alpha_star():
    s = ExtendedShape(alphas=(1.5, 2.0), alpha0=0.5)
    assert s.alpha_star == 4.0 and s.k == 2
    for alphas, alpha0 in [((1.0, -1.0), 0.5), ((1.0, np.inf), 0.5), ((1.0, np.nan), 0.5),
                           ((1.0,), 0.0), ((1.0,), -np.inf), ((1.0,), np.nan)]:
        with pytest.raises(ParameterOutOfDomain):
            ExtendedShape(alphas=alphas, alpha0=alpha0)
    with pytest.raises(DimensionMismatch):
        ExtendedShape(alphas=(), alpha0=0.5)
    with pytest.raises(TypeError):
        ExtendedShape(alphas=(1.0,))  # alpha0 is required


def test_parameter_sums_add_left_to_right():
    # Python 3.12's builtin sum is compensated: it gives 0.6 for these
    # alphas where adding in order gives 0.6000000000000001, and these
    # sums are added in order on every interpreter
    from multivec import GammaLogGammaParams, log_norm_const

    in_order = (0.1 + 0.2) + 0.3
    assert in_order != math.fsum((0.1, 0.2, 0.3))
    assert ExtendedShape(alphas=(0.1, 0.2, 0.3), alpha0=1e-3).alpha_star == 1e-3 + in_order
    assert GammaLogGammaParams(Kotz(), alphas=(0.1, 0.2), sigma2s=(1.0, 1.0), rhos=(0.3,),
                               delta2s=(1.0,)).total_shape == in_order
    # the block log-determinant: the compensated sum of these three blocks'
    # log-determinants would move the density's last bit
    p = MvEllipticalParams.scalar_blocks([0.0] * 3, [1.7, 0.9, 0.8])
    lds = [ld for _, ld in p.factors]
    want = -0.5 * ((lds[0] + lds[1]) + lds[2]) + log_norm_const(Kotz(), 3.0)
    assert want != -0.5 * math.fsum(lds) + log_norm_const(Kotz(), 3.0)
    assert logpdf_mv_elliptical(p, Kotz(), [0.0, 0.0, 0.0]) == want


def test_scale_shape_params_positivity():
    p = ScaleShapeParams(shapes=(1.0, 2.0), scales=(0.5, 3.0))
    assert p.k == 2
    for shapes, scales in [((1.0,), (0.0,)), ((-1.0,), (1.0,)), ((np.nan,), (1.0,)),
                           ((1.0,), (np.inf,))]:
        with pytest.raises(ParameterOutOfDomain):
            ScaleShapeParams(shapes=shapes, scales=scales)
    with pytest.raises(DimensionMismatch):
        ScaleShapeParams(shapes=(1.0, 2.0), scales=(1.0,))
    with pytest.raises(DimensionMismatch):
        ScaleShapeParams(shapes=(), scales=())


def test_sample_matrix_rejects_nonfinite():
    m = SampleMatrix(values=np.ones((4, 2)))
    assert m.m == 4 and m.cols == 2
    bad = np.ones((4, 2))
    bad[2, 1] = np.nan
    with pytest.raises(Exception):
        SampleMatrix(values=bad)


def test_fit_result_requires_finite_loglik_when_converged():
    FitResult(params={"a": 1.0}, loglik=-2.0, iterations=3, converged=True, mode="dependent")
    with pytest.raises(ValueError):
        FitResult(params={}, loglik=np.nan, iterations=1, converged=True, mode="dependent")


# ---------------------------------------------------------------------------
# _fsum: math.fsum's bits, by a window pass, binned by exponent, or math.fsum


@pytest.fixture
def bincounts(monkeypatch):
    """Counts np.bincount calls: the binned path makes two, the window pass
    and math.fsum none."""
    calls = []
    real = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.fixture
def windows(monkeypatch):
    """Counts np.floor calls: the window pass makes one, the binned path and
    math.fsum none."""
    calls = []
    real = np.floor
    monkeypatch.setattr(np, "floor", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def _in_window(x):
    """The window pass's rule: enough terms, all finite and nonzero, frexp
    exponents in _FSUM_WINDOW_EXP and spanning at most 26 - n.bit_length()."""
    mags = np.abs(x)
    if x.size < core._FSUM_WINDOW or not (0.0 < mags.min() and mags.max() < math.inf):
        return False
    lo, hi = math.frexp(mags.min())[1], math.frexp(mags.max())[1]
    return (core._FSUM_WINDOW_EXP[0] <= lo and hi <= core._FSUM_WINDOW_EXP[1]
            and hi - lo <= 26 - x.size.bit_length())


def _outcome(sum_, x):
    """float.hex of the sum ('nan', 'inf' and the sign of 0 included), or the
    type of what it raised."""
    try:
        return sum_(x).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _scattered(rng, size, lo, hi):
    """Normal draws scaled by 2^k, k uniform on [lo, hi]: mixed signs."""
    return rng.standard_normal(size) * np.exp2(rng.integers(lo, hi + 1, size))


@pytest.mark.parametrize("size", [core._FSUM_SHORT - 1, core._FSUM_SHORT,
                                  core._FSUM_SHORT + 1, 2000, 20000])
def test_fsum_is_math_fsum_bit_for_bit(size, bincounts, windows):
    rng = np.random.default_rng(size)
    cases = [_scattered(rng, size, -k, min(k, 990)) for k in (0, 1, 60, 130, 500, 1000)]
    half = _scattered(rng, size // 2, -300, 300)
    cancel = np.concatenate([half, -half, [0.0] * (size % 2)])
    rng.shuffle(cancel)
    cases += [cancel, np.zeros(size), np.full(size, -0.0),
              np.where(rng.random(size) < 0.5, 0.0, -0.0)]
    for x in cases:
        assert core._fsum(x).hex() == math.fsum(x).hex()
    # the k = 0 case sits in the window below 20000 terms; what the window
    # leaves is binned from _FSUM_SHORT terms on
    windowed = sum(map(_in_window, cases))
    assert _in_window(cases[0]) == (size < 20000)
    binned = size >= core._FSUM_SHORT
    assert len(windows) == windowed
    assert len(bincounts) == 2 * (len(cases) - windowed) * binned
    assert core._fsum(cancel).hex() == "0x0.0p+0"


def test_fsum_rounds_ties_to_even_like_math_fsum(bincounts):
    pad = [0.0] * 2000
    for head in ([1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [1.0, 2.0**-53, 2.0**-1000],
                 [1.0, 2.0**-53, -(2.0**-1000)], [2.0**900, 1.0, -(2.0**900)]):
        x = np.array(head + pad)
        assert core._fsum(x).hex() == math.fsum(x).hex()
    assert len(bincounts) == 10


def test_fsum_guards_send_subnormal_and_huge_terms_to_math_fsum(bincounts):
    rng = np.random.default_rng(7)
    base = _scattered(rng, 2000, -20, 20)
    lo_exp, hi_exp = core._FSUM_EXP
    at_floor, below_floor = math.ldexp(0.5, lo_exp), math.ldexp(0.5, lo_exp) / 2.0
    at_top, above_top = math.ldexp(1.0 - 2.0**-53, hi_exp), math.ldexp(0.5, hi_exp + 1)
    top_subnormal = math.nextafter(at_floor, 0.0)  # 52 mantissa bits below 2^-1074's reach
    for edge, binned in ((at_floor, True), (below_floor, False), (top_subnormal, False),
                         (5e-324, False), (at_top, True), (above_top, False)):
        for x in (np.append(base, edge), np.append(base, -edge),
                  np.full(2000, edge), np.tile([edge, -edge, 3.0], 700)):
            before = len(bincounts)
            assert core._fsum(x).hex() == math.fsum(x).hex()
            assert len(bincounts) - before == 2 * binned
    # past the guard an exact sum can overflow; both raise OverflowError
    huge = np.full(2000, sys.float_info.max)
    assert _outcome(core._fsum, huge) is _outcome(math.fsum, huge) is OverflowError


def test_fsum_passes_inf_and_nan_through_as_math_fsum_does():
    rng = np.random.default_rng(8)
    for size in (10, 2000):
        base = _scattered(rng, size, -10, 10)
        for extra in ([math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
                      [math.inf, math.nan], [math.inf, math.inf]):
            x = np.concatenate([base, extra])
            rng.shuffle(x)
            assert _outcome(core._fsum, x) == _outcome(math.fsum, x)


def test_fsum_gives_the_largest_arrays_to_math_fsum(monkeypatch, bincounts):
    # bincount's totals stay exact below 2^26 terms; a smaller cap stands in
    # for that many floats
    monkeypatch.setattr(core, "_FSUM_MAX_TERMS", 1500)
    rng = np.random.default_rng(9)
    for size, binned in ((1499, True), (1500, False), (4000, False)):
        x = _scattered(rng, size, -40, 40)
        before = len(bincounts)
        assert core._fsum(x).hex() == math.fsum(x).hex()
        assert len(bincounts) - before == 2 * binned


def _on_exponents(rng, size, lo, hi):
    """Signed terms with full 53-bit mantissas and frexp exponents drawn on
    [lo, hi], both ends taken."""
    mant = rng.integers(1 << 52, 1 << 53, size) * 2.0**-53
    exp = rng.integers(lo, hi + 1, size)
    exp[:2] = lo, hi
    return np.ldexp(mant * rng.choice([-1.0, 1.0], size), exp)


def _path(x, bincounts, windows):
    """_fsum(x), and 'window', 'binned' or 'fsum' for the path it took."""
    before = len(windows), len(bincounts)
    out = core._fsum(x)
    taken = len(windows) - before[0], len(bincounts) - before[1]
    return out, {(1, 0): "window", (0, 2): "binned", (0, 0): "fsum"}[taken]


@pytest.mark.parametrize("size", [512, 2000, 100_000])
def test_fsum_window_takes_spans_up_to_its_limit(size, bincounts, windows):
    limit = 26 - size.bit_length()
    rng = np.random.default_rng(size)
    for span, path in ((limit, "window"), (limit + 1, "binned")):
        for lo in (-30, 0, 400):
            x = _on_exponents(rng, size, lo, lo + span)
            out, taken = _path(x, bincounts, windows)
            assert (out.hex(), taken) == (math.fsum(x).hex(), path)


def test_fsum_window_exponent_edges(bincounts, windows):
    rng = np.random.default_rng(33)
    for lo, hi, path in ((-960, -950, "window"), (-961, -951, "binned"),
                         (950, 960, "window"), (951, 961, "binned")):
        x = _on_exponents(rng, 2000, lo, hi)
        out, taken = _path(x, bincounts, windows)
        assert (out.hex(), taken) == (math.fsum(x).hex(), path)


def test_fsum_window_zero_and_equal_terms(bincounts, windows):
    x = np.append(_on_exponents(np.random.default_rng(34), 2000, -5, 5), 0.0)
    out, taken = _path(x, bincounts, windows)
    assert (out.hex(), taken) == (math.fsum(x).hex(), "binned")
    for term in (0.1, -3.0, 2.0**-960, -(2.0**959), math.nextafter(1.0, 2.0)):
        for size, path in ((core._FSUM_WINDOW - 1, "fsum"), (core._FSUM_WINDOW, "window"),
                           (2000, "window"), (100_000, "window")):
            x = np.full(size, term)
            out, taken = _path(x, bincounts, windows)
            assert (out.hex(), taken) == (math.fsum(x).hex(), path)


def test_fsum_window_cancels_to_plus_zero(bincounts, windows):
    rng = np.random.default_rng(35)
    for size, lo in ((core._FSUM_WINDOW, -960), (2000, 0), (20000, 950)):
        half = _on_exponents(rng, size // 2, lo, lo + 8)
        x = np.concatenate([half, -half])
        rng.shuffle(x)
        out, taken = _path(x, bincounts, windows)
        assert (out.hex(), taken) == (math.fsum(x).hex(), "window")
        assert out.hex() == "0x0.0p+0"


def test_fsum_window_rounds_ties_to_even(bincounts, windows):
    # each head's exact sum is odd and above 2^53, halfway between two
    # doubles; pairs of +-2^45 pad it to 256 terms
    pad = [2.0**45, -(2.0**45)] * 127
    for head, even in (([2.0**52 + 1, 2.0**52], 2.0**53), ([2.0**52 + 3, 2.0**52], 2.0**53 + 4),
                       ([2.0**52 + 3, 2.0**52 + 2], 2.0**53 + 4)):
        for scale in (2.0**-900, -1.0, 2.0**850):
            x = np.array(head + pad) * scale
            out, taken = _path(x, bincounts, windows)
            assert (out.hex(), taken) == (math.fsum(x).hex(), "window")
            assert out == even * scale


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 5000),
       lo=st.integers(-1000, 970), span=st.integers(0, 20), cancel=st.booleans())
def test_fsum_window_is_math_fsum_property(seed, size, lo, span, cancel):
    x = _on_exponents(np.random.default_rng(seed), size, lo, min(lo + span, 990))
    if cancel:
        x[size // 2:2 * (size // 2)] = -x[:size // 2]
    assert core._fsum(x).hex() == math.fsum(x).hex()
