"""A float t and an array t reach the same values.

Both paths sum one term table per model: a float 0 < t < inf on Python
floats, an array t in numpy over the whole array.  The two sum the same
terms in different orders, so the hazards agree to 1e-14 relative, and
every later value to 1e-14 relative times the condition number of the
formula that forms it from the hazards: exp(-H) scales a hazard's relative
error by H, and a relative error near 0 is a difference of nearly equal
numbers.  At t = inf and at a t whose powers overflow, the float takes
the array path, so the outcome is the same, exception class included.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from deperr import (
    MetricKind,
    ModelSpec,
    closed_form_error,
    relative_error,
    series_hazard,
    series_metric,
    validate_model,
)
from deperr.models import independent_counterpart

from conftest import ALL_FAMILIES, random_model

METRICS = list(MetricKind)
GRID = np.concatenate([np.logspace(-6, 6, 61), [1.0 - 2.0**-53, 1.0]])
EDGES = (1e200, 1e300, math.inf)
RTOL = 1e-14


def outcome(fn, *args):
    """fn(*args), or the class of what it raised: a typed error, or a
    RuntimeWarning, which the test configuration turns into an error."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by class below
        return type(exc)


def at_each_t(fn, model, ts):
    """fn over the array ts in one call, as one outcome per point; one call
    per point where that raises, as it does for all points when one fails."""
    values = outcome(fn, model, ts)
    if isinstance(values, type):
        return [outcome(fn, model, np.array([t])) for t in ts]
    if values is None:
        return [None] * len(ts)
    return [np.asarray(v) for v in np.asarray(values).T]


def scalar(x):
    """A one-point outcome as floats: exception classes and None stay."""
    if isinstance(x, type) or x is None:
        return x
    return tuple(np.ravel(x).tolist())


def finite(x) -> bool:
    return isinstance(x, tuple) and all(map(math.isfinite, x))


def agree(a, b, scale=abs) -> bool:
    """Equal outcomes, or values x, y with |x - y| <= RTOL * scale(y)."""
    if isinstance(a, type) or isinstance(b, type) or a is None or b is None:
        return a == b
    return all(
        x == y or (math.isnan(x) and math.isnan(y))
        or abs(x - y) <= RTOL * scale(y)
        for x, y in zip(a, b))


def checks():
    """(name, function of (model, t), scale of its value y given the
    dependent and independent hazards at that t)."""
    yield "series_hazard", series_hazard, lambda hd, hi: abs
    for metric in METRICS:
        # exp(-H) scales the relative error of H by H
        sf_like = metric in (MetricKind.SF, MetricKind.RHR)
        yield (f"series_metric {metric.value}",
               lambda m, t, metric=metric: series_metric(m, metric, t),
               lambda hd, hi, sf_like=sf_like:
               lambda y: abs(y) * (1.0 + hd * sf_like))
        # a relative error y is F - 1 for an F formed from the hazards
        cond = (lambda hd, hi: lambda y:
                max(abs(y), abs(1.0 + y) * (1.0 + hd + hi)))
        yield (f"relative_error {metric.value}",
               lambda m, t, metric=metric: relative_error(m, metric, t), cond)
        yield (f"closed_form_error {metric.value}",
               lambda m, t, metric=metric: closed_form_error(m, metric, t),
               cond)


def assert_paths_agree(model, ts):
    indep = independent_counterpart(model)
    dep_h = [scalar(h) for h in at_each_t(series_hazard, model, ts)]
    ind_h = [scalar(h) for h in at_each_t(series_hazard, indep, ts)]
    for name, fn, cond in checks():
        arrays = at_each_t(fn, model, ts)
        for k, t in enumerate(ts):
            a = scalar(outcome(fn, model, t))
            b = scalar(arrays[k])
            if finite(dep_h[k]) and finite(ind_h[k]):
                ok = agree(a, b, cond(dep_h[k][0], ind_h[k][0]))
            else:  # at the edges: the same outcome
                ok = agree(a, b)
            assert ok, (model.family, model.n, name, t, a, b)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_float_t_matches_array_t(family, rng):
    # equal shapes share one table entry: LuBI's coupling sum is
    # sum_i lambda_i**(1/m) * t**(alpha_i/m), so each rate takes its root
    # before the merge, not their sum after it
    for n in range(1, 9):
        for shape_range in ((0.6, 2.5), (1.5, 1.5)):
            model = random_model(family, n, rng, shape_range=shape_range)
            assert_paths_agree(model, np.concatenate([GRID, EDGES]))


def test_mg1_without_singleton_rate_at_tiny_t():
    # t**2 is subnormal or 0 there, t is not: H' = sum p * a_p * t**(p - 1)
    # stays positive and exact on both paths
    model = validate_model(ModelSpec("MG1", 2, {(1, 2): 0.5}))
    ts = np.array([1e-150, 1e-154, 1e-160, 1e-170, 1e-200])
    assert_paths_agree(model, ts)
    for t in ts:
        assert series_hazard(model, float(t))[1] == t


def test_hazard_overflow_in_a_product_takes_the_array_path():
    # lam * t overflows in a product, not in **: Python gives inf, so the
    # float t takes the array path, and both give (inf, lam) with no
    # warning, as the term table (lam, 1) sums it like any other family's
    rng = np.random.default_rng(1)
    for family in ("MOME", "IndepExp"):
        model = random_model(family, 2, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (sys.float_info.max, np.array([sys.float_info.max])):
                h, dh = (float(np.atleast_1d(v)[0])
                         for v in series_hazard(model, t))
                assert (h, dh) == (math.inf, model.rates.total)


def test_sum_past_the_float_range_only_in_a_power():
    # t**2 overflows at 1.5e154 where 0.5 * t**2 does not: the array path
    # retakes that sum as (sum w * t**(e - 1)) * t, the float path's order,
    # so H is the same float and AI is finite on both paths
    model = validate_model(ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0,
                                                (1, 2): 0.5}))
    ts = np.array([1e100, 1.5e154])
    assert_paths_agree(model, ts)
    h = series_hazard(model, ts)[0]
    assert h.tolist() == [series_hazard(model, t)[0] for t in ts.tolist()]
    assert h[1] == pytest.approx(1.125e308, rel=1e-15)
    assert series_metric(model, MetricKind.AI, ts) == pytest.approx(2.0, rel=1e-15)
    # under a root: the array path refused a finite g + s as "0 or inf"
    crowder = validate_model(ModelSpec("Crowder", 1, {(1,): 0.5}, shapes=(2.0,),
                                       gamma=0.5, stable_exponent=0.5))
    assert_paths_agree(crowder, ts)


@pytest.mark.parametrize("family", ["IndepExp", "MOME"])
def test_exponential_hazard_is_rate_times_t(family, rng):
    # the one-term table (lam, 1) gives (lam * t, lam) to the bit
    ts = np.logspace(-6, 6)
    for n in range(1, 7):
        model = random_model(family, n, rng)
        lam = model.rates.total
        h, dh = series_hazard(model, ts)
        assert h.tolist() == (lam * ts).tolist()
        assert dh.tolist() == [lam] * ts.size
        for t in ts.tolist():
            assert series_hazard(model, t) == (lam * t, lam)
