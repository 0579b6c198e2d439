"""A float t's hazard pair is kept on the model until its next float t.

`series_hazard` stores the last float t of each model and the (H, H')
pair it returned, beside the model's `cached_property` values, so the
metrics and errors at one t evaluate each side's kernel once.  The stored
pair is the one the kernel gave, so every value is bit for bit what a
fresh model gives, and the model still compares, hashes, copies and
pickles by its fields alone.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from deperr import (
    DomainError,
    MetricKind,
    ModelSpec,
    closed_form_error,
    relative_error,
    series_hazard,
    series_metric,
    validate_model,
)
from deperr import models
from deperr.models import independent_counterpart

from conftest import ALL_FAMILIES, random_model

MG1_TOP = ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
# repeats, interleaving, the array path's retries and t = inf
TS = (0.5, 0.5, 2.0, 0.5, 1.0, 2.0, 2.0, 1e-3, 1e200, 1.5e154, 1e200,
      math.inf, math.inf, 0.5, np.float64(2.0), np.array(0.5), 1.5e154)


def outcome(model, t):
    """series_hazard(model, t), or DomainError where it raises that."""
    try:
        return series_hazard(model, t)
    except DomainError:
        return DomainError


def assert_same(model, ts):
    """Each t's outcome on `model` is the first one a fresh copy gives."""
    first = {}
    for t in ts:
        key = float(t)
        if key not in first:
            first[key] = outcome(dataclasses.replace(model), t)
        got = outcome(model, t)
        if first[key] is DomainError:
            assert got is DomainError, (model.family, model.n, key, got)
            continue
        assert got == first[key], (model.family, model.n, key, got, first[key])
        assert all(type(v) is float for v in got), (model.family, key, got)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_kept_pair_is_the_fresh_pair(family, rng):
    for n in range(1, 7):
        model = random_model(family, n, rng)
        assert_same(model, TS)
        assert_same(independent_counterpart(model), TS)


def test_kept_pair_at_the_top_of_the_float_range():
    # the float sum at 1e200 is inf, so it is retaken as a one-point array
    m = validate_model(MG1_TOP)
    assert_same(m, TS)
    for _ in range(2):
        assert series_hazard(m, 1e200) == (math.inf, 1e200)
        assert series_hazard(m, 1.5e154) == (1.1250000000000002e308, 1.5e154)
        assert series_metric(m, MetricKind.AI, 1.5e154) == 1.9999999999999998


def test_crowder_inf_base_raises_on_every_path():
    # gamma + s overflows at a finite t, where the root's true H' is about
    # 0.514: the float path took inf ** (l - 1) = 0.0 and gave H' = 0.0
    m = validate_model(ModelSpec("Crowder", 1, {(1,): 0.5}, shapes=[2.0],
                                 gamma=1e308, stable_exponent=0.5))
    t = 1.5e154
    for _ in range(2):  # nothing is kept where it raised
        with pytest.raises(DomainError, match="under a root"):
            series_hazard(m, t)
        with pytest.raises(DomainError, match="under a root"):
            series_hazard(m, np.array([t]))
        with pytest.raises(DomainError, match="under a root"):
            series_metric(m, MetricKind.FR, t)


def test_one_kernel_evaluation_per_model_and_t(monkeypatch):
    calls = []
    kernel = models._kernel
    monkeypatch.setattr(models, "_kernel",
                        lambda model, t: calls.append(model) or kernel(model, t))
    independent_counterpart.cache_clear()  # no counterpart holds a pair yet
    m = validate_model(ModelSpec("MOME", 3, {(1,): 0.4, (2,): 0.7, (3,): 1.1,
                                             (1, 2): 0.3, (1, 2, 3): 0.2}))
    for k, t in enumerate((0.75, 1.25), 1):
        series_metric(m, MetricKind.SF, t)
        series_metric(m, MetricKind.FR, t)
        for metric in MetricKind:
            relative_error(m, metric, t)
            closed_form_error(m, metric, t)
        assert len(calls) == 2 * k, f"{len(calls)} kernel evaluations at t={t}"
    assert calls[:2] == [m, m._indep] or calls[:2] == [m._indep, m]


def test_a_model_holding_a_pair_is_like_any_other():
    m, fresh = validate_model(MG1_TOP), validate_model(MG1_TOP)
    pair = series_hazard(m, 2.0)
    assert m == fresh and hash(m) == hash(fresh)
    for other in (pickle.loads(pickle.dumps(m)), copy.copy(m)):
        assert other == fresh and hash(other) == hash(fresh)
        assert series_hazard(other, 2.0) == pair
        assert series_hazard(other, 3.0) == series_hazard(fresh, 3.0)
    # a replaced field gives the new model's own hazards, not the kept pair
    expected = series_hazard(validate_model(ModelSpec(
        "MG1", 2, {(1,): 2.0, (2,): 1.0})), 2.0)
    assert series_hazard(m, 2.0) == pair != expected
    rates = models.SubsetRates.from_mapping(2, {(1,): 2.0, (2,): 1.0})
    assert series_hazard(dataclasses.replace(m, rates=rates), 2.0) == expected


def errors_at(model, t):
    """relative_error of each metric at t, or the class of what it raised."""
    out = []
    for metric in MetricKind:
        try:
            out.append(relative_error(model, metric, t))
        except Exception as exc:  # compared by class
            out.append(type(exc))
    return out


def test_equal_models_share_one_counterpart():
    ts = (0.5, 2.0, 0.5, 2.0, 1.5e154)
    want = {}
    for t in ts:  # each from a fresh model and a fresh counterpart
        independent_counterpart.cache_clear()
        want[t] = errors_at(validate_model(MG1_TOP), t)
    a, b = validate_model(MG1_TOP), validate_model(MG1_TOP)
    assert a._indep is b._indep
    for t in ts:  # a and b move the shared counterpart's pair by turns
        for model in (a, b):
            assert errors_at(model, t) == want[t], (t, want[t])
