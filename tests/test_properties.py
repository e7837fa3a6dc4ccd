"""Properties every family of the table holds, over the oracle fixture rows.

Hypothesis draws seeds, points and invalid parameter values; it runs with
``derandomize=True`` and a bounded ``max_examples``, so each run makes the
same examples and stays short.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multivec.errors import MultivecError
from multivec.families import FAMILIES
from multivec.sampling import make_rng
from multivec.validation import _fixture, _fixtures

LINE = (-math.inf, math.inf)
QUAD_BOX = (-9.0, 9.0)  # the normalization rows cut the whole line to this box

# one row per (family, params); the kotz-gamma record shares the gengamma
# density, so its row reuses a gengamma fixture to reach the pair sampler
ROWS = list({(f.family, f.suffix): f for f in _fixtures()}.values())
ROWS.append(_fixture("mv-gengamma-k2")._replace(family="kotz-gamma"))
IDS = [f"{row.family}:{row.suffix}" for row in ROWS]

SETTINGS = settings(derandomize=True, max_examples=15, deadline=None, database=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _support(row) -> list[tuple[float, float]]:
    return [LINE if axis == QUAD_BOX else axis for axis in row.support]


def _inside(lo: float, hi: float):
    return st.floats(
        min_value=lo if math.isfinite(lo) else None, max_value=hi if math.isfinite(hi) else None,
        exclude_min=math.isfinite(lo), exclude_max=math.isfinite(hi),
        allow_nan=False, allow_infinity=False,
    )


def _off(lo: float, hi: float):
    """A coordinate on or beyond an end of (lo, hi), or not finite."""
    bad = [st.sampled_from([math.nan, math.inf, -math.inf])]
    if math.isfinite(lo):
        bad.append(st.floats(max_value=lo, allow_nan=False))
    if math.isfinite(hi):
        bad.append(st.floats(min_value=hi, allow_nan=False))
    return st.one_of(bad)


def test_every_family_has_a_fixture_row():
    assert {FAMILIES[f.family].density for f in _fixtures()} == {
        fam.density for fam in FAMILIES.values()
    }
    assert {row.family for row in ROWS} == set(FAMILIES)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
@SETTINGS
@given(seed=SEEDS)
def test_batch_equals_the_stack_of_single_row_calls(row, seed):
    family = FAMILIES[row.family]
    x = family.sample(row.params, make_rng(seed), 50)
    singles = [family.logpdf(row.params, point) for point in x]
    assert all(type(v) is float for v in singles)
    np.testing.assert_array_equal(family.logpdf(row.params, x), singles)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_a_batch_of_one_row_is_an_array_equal_to_the_single_row_call(row):
    family = FAMILIES[row.family]
    x = family.sample(row.params, make_rng(3), 1)
    batch, single = family.logpdf(row.params, x), family.logpdf(row.params, x[0])
    assert isinstance(batch, np.ndarray) and batch.shape == (1,)
    assert type(single) is float and batch[0] == single


@pytest.mark.parametrize("row", ROWS, ids=IDS)
@SETTINGS
@given(seed=SEEDS)
def test_draws_lie_inside_the_support_with_finite_logpdf(row, seed):
    family = FAMILIES[row.family]
    x = family.sample(row.params, make_rng(seed), 200)
    lo, hi = np.array(_support(row)).T
    assert np.all((x > lo) & (x < hi))
    assert np.all(np.isfinite(family.logpdf(row.params, x)))


@pytest.mark.parametrize("row", ROWS, ids=IDS)
@SETTINGS
@given(data=st.data())
def test_points_off_the_support_give_minus_inf_or_a_typed_error(row, data):
    support = _support(row)
    j = data.draw(st.integers(0, len(support) - 1), label="axis")
    x = np.array([data.draw(_off(*axis) if i == j else _inside(*axis), label=f"x{i}")
                  for i, axis in enumerate(support)])
    family = FAMILIES[row.family]
    for batch in (x, np.stack([x, family.sample(row.params, make_rng(0), 1)[0]])):
        try:
            value = np.atleast_1d(family.logpdf(row.params, batch))[0]
        except MultivecError:
            continue
        assert value == -math.inf


# ---------------------------------------------------------------------------
# invalid parameters

_POSITIVE = {"r", "s", "alpha0", "alphas", "betas", "shapes", "scales", "sigma2s", "rhos",
             "delta2s"}
_STRUCTURE = {"partition", "dims", "k1"}  # integers checked by their own tests
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _leaves(obj, path=()):
    """Paths to every real parameter inside a params tuple."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name not in _STRUCTURE:
                yield from _leaves(getattr(obj, f.name), path + (f.name,))
    elif isinstance(obj, tuple):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    elif isinstance(obj, np.ndarray):
        for idx in np.ndindex(obj.shape):
            yield path + (idx,)
    elif isinstance(obj, float):
        yield path


def _replace(obj, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{head: _replace(getattr(obj, head), rest, value)})
    if isinstance(obj, tuple):
        return obj[:head] + (_replace(obj[head], rest, value),) + obj[head + 1:]
    out = np.array(obj)
    out[head] = value
    return out


def _invalid(path):
    """Values outside the domain of the parameter at path, whatever its family."""
    name = [p for p in path if isinstance(p, str)][-1]
    if name in _POSITIVE:
        return st.one_of(_NON_FINITE, st.floats(max_value=0.0, allow_nan=False))
    if name == "q":  # every kernel needs q > -1 at dimensions up to the fixtures'
        return st.one_of(_NON_FINITE, st.floats(max_value=-1e6, allow_nan=False))
    if name == "sigmas" and len(set(path[-1])) == 1:  # a diagonal entry
        return st.one_of(_NON_FINITE, st.floats(max_value=0.0, allow_nan=False))
    return _NON_FINITE  # locations and off-diagonal scale entries


@pytest.mark.parametrize("row", ROWS, ids=IDS)
@SETTINGS
@given(data=st.data())
def test_invalid_params_raise_a_typed_error(row, data):
    family = FAMILIES[row.family]
    x = family.sample(row.params, make_rng(0), 1)[0]
    path = data.draw(st.sampled_from(list(_leaves(row.params))), label="path")
    value = data.draw(_invalid(path), label="value")
    with pytest.raises(MultivecError):
        family.logpdf(_replace(row.params, path, value), x)
