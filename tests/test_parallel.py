"""Inclusion-exclusion parallel survival and compact closed forms."""

import math
import warnings

import numpy as np
import pytest

from deperr import (
    DomainError,
    MetricKind,
    ModelSpec,
    joint_sf,
    parallel_relative_error,
    parallel_sf_closed,
    parallel_sf_ie,
    series_metric,
    validate_model,
)

from conftest import ALL_FAMILIES, random_model


def test_indep_exp_two_components():
    m = validate_model(ModelSpec("IndepExp", 2, {(1,): 1.0, (2,): 1.0}))
    result = parallel_sf_ie(m, 1.0)
    expected = 1.0 - (1.0 - math.exp(-1.0)) ** 2
    assert result.sf_ie == pytest.approx(expected, rel=1e-12)
    assert result.sf_closed == pytest.approx(expected, rel=1e-12)
    assert result.terms_evaluated == 3


def test_indep_exp_three_components():
    m = validate_model(
        ModelSpec("IndepExp", 3, {(1,): 1.0, (2,): 1.0, (3,): 1.0})
    )
    expected = 3 * math.exp(-1) - 3 * math.exp(-2) + math.exp(-3)
    assert parallel_sf_ie(m, 1.0).sf_ie == pytest.approx(expected, rel=1e-12)
    assert parallel_sf_closed(m, 1.0) == pytest.approx(expected, rel=1e-12)


def test_single_component_equals_series(rng):
    for family in ALL_FAMILIES:
        m = random_model(family, 1, rng, require_interaction=False)
        t = 0.8
        assert parallel_sf_ie(m, t).sf_ie == pytest.approx(
            series_metric(m, MetricKind.SF, t), rel=1e-12
        )


def test_mome_comonotone_limit():
    m = validate_model(
        ModelSpec("MOME", 2, {(1,): 1e-9, (2,): 1e-9, (1, 2): 1.0})
    )
    assert parallel_sf_ie(m, 1.0).sf_ie == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_mg1_closed_example():
    m = validate_model(ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0}))
    expected = 2 * math.exp(-1) - math.exp(-3)
    assert parallel_sf_closed(m, 1.0) == pytest.approx(expected, rel=1e-12)
    assert parallel_sf_ie(m, 1.0).sf_ie == pytest.approx(expected, rel=1e-12)


def test_crowder_closed_absent(rng):
    m = random_model("Crowder", 2, rng)
    assert parallel_sf_closed(m, 1.0) is None
    assert parallel_sf_ie(m, 1.0).sf_closed is None


@pytest.mark.parametrize("family", ["IndepExp", "MOME", "MG1"])
def test_closed_matches_ie(family, rng):
    for n in range(2, 7):
        for _ in range(5):
            m = random_model(family, n, rng)
            for t in (0.2, 0.7, 1.5, 3.0):
                result = parallel_sf_ie(m, t)
                assert abs(result.sf_ie - result.sf_closed) <= 1e-10


def test_parallel_at_least_series(rng):
    for family in ALL_FAMILIES:
        m = random_model(family, 3, rng)
        for t in (0.2, 1.0, 3.0):
            assert parallel_sf_ie(m, t).sf_ie >= series_metric(
                m, MetricKind.SF, t
            ) - 1e-12


def test_nonincreasing_in_t(rng):
    for family in ALL_FAMILIES:
        m = random_model(family, 3, rng)
        values = [parallel_sf_ie(m, float(t)).sf_ie
                  for t in np.geomspace(0.1, 10, 15)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_no_interactions_match_indep_compact(rng):
    for family in ("MOME", "MG1"):
        m = random_model(family, 3, rng, require_interaction=False)
        # zero out interactions explicitly by rebuilding with singletons
        singles = {
            tuple(i + 1 for i in range(3) if mask >> i & 1): rate
            for mask, rate in m.rates.items
            if mask.bit_count() == 1
        }
        dep = validate_model(ModelSpec(family, 3, singles))
        indep = validate_model(ModelSpec("IndepExp", 3, singles))
        for t in (0.3, 1.0, 2.0):
            assert abs(
                parallel_sf_closed(dep, t) - parallel_sf_closed(indep, t)
            ) <= 1e-12


def test_relative_error_zero_without_interactions(rng):
    m = random_model("IndepExp", 3, rng)
    assert parallel_relative_error(m, 1.0) == 0.0


def test_relative_error_mome_against_monte_carlo():
    # Common-shock dependence removes redundancy, so the parallel error is
    # negative; the Monte Carlo oracle confirms the magnitude.
    from deperr import estimate_system_sf, independent_counterpart

    m = validate_model(ModelSpec("MOME", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0}))
    rel = parallel_relative_error(m, 1.0)
    n = 200_000
    dep = estimate_system_sf(m, "parallel", 1.0, n, 21)
    ind = estimate_system_sf(
        independent_counterpart(m), "parallel", 1.0, n, 22
    )
    mc_rel = dep.value / ind.value - 1.0
    assert rel == pytest.approx(mc_rel, abs=0.01)
    assert rel < 0.0
    assert abs(parallel_relative_error(m, 1e-6)) < 1e-4


def test_t_nonpositive_rejected(rng):
    m = random_model("MOME", 2, rng)
    with pytest.raises(DomainError):
        parallel_sf_ie(m, 0.0)


def reference_sf_ie(model, t):
    """The loop form: one joint_sf call per nonempty subset, summed by fsum."""
    terms = []
    for mask in range(1, 1 << model.n):
        x = [t if mask >> i & 1 else 0.0 for i in range(model.n)]
        sign = 1.0 if mask.bit_count() % 2 else -1.0
        terms.append(sign * joint_sf(model, x))
    return min(max(math.fsum(terms), 0.0), 1.0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_matches_per_subset_loop(family, rng):
    # Same terms up to the hazard's summation order, so a few ulps each.
    for n in range(1, 9):
        for _ in range(3):
            m = random_model(family, n, rng, require_interaction=n > 1)
            for t in (0.2, 0.7, 1.5, 3.0):
                assert abs(parallel_sf_ie(m, t).sf_ie
                           - reference_sf_ie(m, t)) <= 1e-13


@pytest.mark.parametrize("family", ["IndepExp", "MOME", "MG1"])
def test_error_bound_covers_closed_form_gap(family, rng):
    for n in range(1, 11):
        m = random_model(family, n, rng, require_interaction=n > 1)
        for t in (0.05, 0.2, 0.7, 1.5, 3.0):
            result = parallel_sf_ie(m, t)
            assert result.error_bound > 0.0
            assert abs(result.sf_ie - result.sf_closed) <= 2 * result.error_bound


def test_mome_twenty_components():
    n = 20
    rates = {(i,): 0.2 for i in range(1, n + 1)}
    rates.update({(1, 2): 0.05, (3, 4, 5): 0.05, tuple(range(1, n + 1)): 0.02})
    m = validate_model(ModelSpec("MOME", n, rates))
    result = parallel_sf_ie(m, 1.0)
    assert result.terms_evaluated == 2**n - 1
    assert abs(result.sf_ie - result.sf_closed) <= 1e-10


def test_mg1_huge_t_underflows_to_zero():
    m = validate_model(ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.3}))
    with np.errstate(over="ignore"):
        result = parallel_sf_ie(m, 1e200)
    assert result.sf_ie == 0.0
    assert result.sf_closed == 0.0


def test_mg1_infinite_t_is_zero():
    m = validate_model(ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = parallel_sf_ie(m, math.inf)
    assert result.sf_ie == 0.0
    assert result.error_bound == 0.0
    assert result.sf_closed == 0.0
