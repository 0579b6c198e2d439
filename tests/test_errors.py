"""Relative errors, closed forms, monotone lemmas, and aging classes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deperr import (
    DomainError,
    MetricKind,
    ModelSpec,
    classify_aging,
    closed_form_error,
    error_curve,
    lemma_g,
    lemma_h,
    relative_error,
    series_metric,
    validate_model,
)
from deperr.exceptions import ZeroDenominatorError
from deperr.simulate import finite_diff_metric

from conftest import random_model

METRICS = list(MetricKind)


def mome(rates, n=2):
    return validate_model(ModelSpec("MOME", n, rates))


class TestRelativeError:
    def test_mome_fr_example(self):
        m = mome({(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        for t in (0.2, 1.0, 5.0):
            assert relative_error(m, MetricKind.FR, t) == pytest.approx(0.5)

    def test_mome_sf_example(self):
        m = mome({(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        assert relative_error(m, MetricKind.SF, 1.0) == pytest.approx(
            math.exp(-1.0) - 1.0, rel=1e-12
        )

    def test_ai_error_zero_for_mome_and_lee(self, rng):
        for family in ("MOME", "LeeML"):
            m = random_model(family, 3, rng)
            for t in (0.3, 1.0, 3.0):
                assert relative_error(m, MetricKind.AI, t) == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_independence_fixed_point(self, rng):
        for family in ("IndepExp", "IndepWeibull"):
            m = random_model(family, 3, rng)
            for metric in METRICS:
                assert relative_error(m, metric, 1.3) == pytest.approx(0.0, abs=1e-12)

    def test_t_nonpositive_rejected(self):
        m = mome({(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        with pytest.raises(DomainError):
            relative_error(m, MetricKind.SF, -1.0)

    def test_generic_matches_finite_difference_oracle(self, rng):
        # Independent route: both hazards from finite differences.
        m = random_model("MG1", 3, rng)
        from deperr import independent_counterpart

        c = independent_counterpart(m)
        for t in (0.5, 1.0, 2.0):
            fd = finite_diff_metric(m, MetricKind.FR, t)
            fd_i = finite_diff_metric(c, MetricKind.FR, t)
            assert relative_error(m, MetricKind.FR, t) == pytest.approx(
                fd / fd_i - 1.0, rel=1e-6, abs=1e-8
            )


class TestClosedForms:
    def test_mome_rhr_example(self):
        m = mome({(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        expected = 1.5 * (math.e**2 - 1.0) / (math.e**3 - 1.0) - 1.0
        assert closed_form_error(m, MetricKind.RHR, 1.0) == pytest.approx(
            expected, rel=1e-12
        )
        assert relative_error(m, MetricKind.RHR, 1.0) == pytest.approx(
            expected, rel=1e-10
        )

    def test_momw_rhr_ai_absent(self, rng):
        m = random_model("MOMW", 3, rng)
        assert closed_form_error(m, MetricKind.RHR, 1.0) is None
        assert closed_form_error(m, MetricKind.AI, 1.0) is None
        assert closed_form_error(m, MetricKind.SF, 1.0) is not None
        assert closed_form_error(m, MetricKind.FR, 1.0) is not None

    def test_lu_bi_absent(self, rng):
        m = random_model("LuBI", 3, rng)
        for metric in METRICS:
            assert closed_form_error(m, metric, 1.0) is None

    def test_lee_ml_no_interaction_sf_zero(self):
        m = validate_model(
            ModelSpec("LeeML", 2, {(1,): 1.0, (2,): 0.5}, alpha=1.5,
                      scales=(1.0, 2.0))
        )
        assert closed_form_error(m, MetricKind.SF, 2.0) == 0.0

    @pytest.mark.parametrize("spec,t", [
        (ModelSpec("LeeML", 2, {(1,): 0.5, (2,): 0.5}, alpha=1e300,
                   scales=(1.0, 1.0)), 1.5),  # t**alpha is inf
        (ModelSpec("MOME", 2, {(1,): 0.5, (2,): 0.5}), math.inf),
    ])
    def test_product_model_error_is_zero(self, spec, t):
        # no interaction subset: the model is its own independent product,
        # where the closed forms would meet 0 * inf
        m = validate_model(spec)
        for metric in METRICS:
            assert closed_form_error(m, metric, t) == 0.0
            assert closed_form_error(m, metric, np.array([t])).tolist() == [0.0]

    @pytest.mark.parametrize(
        "family", ["MOME", "MG1", "MOMW", "Crowder", "LeeII", "LeeML"]
    )
    def test_closed_matches_generic(self, family, rng):
        grid = np.geomspace(0.05, 5.0, 15)
        for _ in range(20):
            m = random_model(family, 3, rng)
            for metric in METRICS:
                for t in grid:
                    t = float(t)
                    closed = closed_form_error(m, metric, t)
                    if closed is None:
                        continue
                    generic = relative_error(m, metric, t)
                    assert abs(closed - generic) <= 1e-8 * (1.0 + abs(closed))


class TestLemmas:
    def test_equal_parameters_zero(self):
        assert lemma_g(2.0, 2.0, 1.0) == 0.0

    def test_limit_at_origin(self):
        assert abs(lemma_g(1.0, 2.0, 1e-8)) < 1e-6

    def test_decreasing_when_beta_smaller(self):
        assert lemma_g(1.0, 2.0, 1.0) > lemma_g(1.0, 2.0, 2.0)

    def test_increasing_when_beta_larger(self):
        xs = [0.5, 1.0, 1.5]
        vals = [lemma_h(2.0, 1.0, 2.0, x) for x in xs]
        assert vals[0] < vals[1] < vals[2]

    def test_negative_for_gamma_larger(self):
        for alpha in (0.5, 1.0, 2.0):
            for x in (0.1, 1.0, 10.0):
                assert lemma_h(1.0, 3.0, alpha, x) < 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lemma_g(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            lemma_h(1.0, 1.0, 0.0, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        beta=st.floats(0.05, 10.0),
        gamma=st.floats(0.05, 10.0),
        alpha=st.floats(0.1, 4.0),
        x=st.floats(0.01, 20.0),
    )
    def test_h_is_g_at_power_time(self, beta, gamma, alpha, x):
        assert lemma_h(beta, gamma, alpha, x) == pytest.approx(
            lemma_g(beta, gamma, x**alpha), rel=1e-12, abs=1e-300
        )


class TestSigns:
    def test_mome_signs(self, rng):
        grid = np.geomspace(1e-3, 1e3, 100)
        tol = 1e-9
        for _ in range(10):
            m = random_model("MOME", 3, rng, require_interaction=True,
                             rate_range=(0.02, 0.2))
            sf_err = [relative_error(m, MetricKind.SF, float(t)) for t in grid]
            assert all(-1.0 - tol <= v <= tol for v in sf_err)
            assert all(b - a <= tol for a, b in zip(sf_err, sf_err[1:]))
            fr_err = relative_error(m, MetricKind.FR, 1.0)
            assert fr_err >= 0.0
            rhr_err = [relative_error(m, MetricKind.RHR, float(t)) for t in grid]
            assert all(v <= tol for v in rhr_err)
            assert all(b - a <= tol for a, b in zip(rhr_err, rhr_err[1:]))

    def test_mg1_signs(self, rng):
        grid = np.geomspace(1e-3, 10.0, 100)
        tol = 1e-9
        for _ in range(10):
            m = random_model("MG1", 3, rng, require_interaction=True,
                             rate_range=(0.05, 0.5))
            fr_err = [relative_error(m, MetricKind.FR, float(t)) for t in grid]
            assert all(v >= -tol for v in fr_err)
            assert all(b - a >= -tol for a, b in zip(fr_err, fr_err[1:]))
            ai_err = [relative_error(m, MetricKind.AI, float(t)) for t in grid]
            assert all(-tol <= v <= m.n - 1 + tol for v in ai_err)

    def test_lee_ml_signs(self, rng):
        tol = 1e-9
        for _ in range(10):
            m = random_model("LeeML", 3, rng, require_interaction=True)
            fr_err = relative_error(m, MetricKind.FR, 1.0)
            assert fr_err >= 0.0
            for t in (0.2, 1.0, 5.0):
                assert relative_error(m, MetricKind.SF, t) <= tol
                assert relative_error(m, MetricKind.RHR, t) <= tol
                assert abs(relative_error(m, MetricKind.AI, t)) <= tol
                # FR error is constant in t
                assert relative_error(m, MetricKind.FR, t) == pytest.approx(fr_err)


class TestCurvesAndClassification:
    def test_error_curve_mome_ai_zero(self, rng):
        m = random_model("MOME", 3, rng)
        curve = error_curve(m, MetricKind.AI, np.geomspace(0.1, 10, 20))
        assert all(abs(p.rel_err) < 1e-12 for p in curve.points)

    def test_error_curve_mome_sf_values(self):
        m = mome({(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        curve = error_curve(m, MetricKind.SF, [1.0, 2.0])
        assert curve.points[0].rel_err == pytest.approx(math.exp(-1) - 1, rel=1e-12)
        assert curve.points[1].rel_err == pytest.approx(math.exp(-2) - 1, rel=1e-12)
        assert curve.points[0].dep == pytest.approx(math.exp(-3), rel=1e-12)
        assert curve.points[0].indep == pytest.approx(math.exp(-2), rel=1e-12)

    def test_empty_grid_rejected(self):
        m = mome({(1,): 1.0, (2,): 1.0})
        with pytest.raises(DomainError):
            error_curve(m, MetricKind.SF, [])

    def test_classify_indep_exp(self):
        m = validate_model(ModelSpec("IndepExp", 2, {(1,): 1.0, (2,): 2.0}))
        verdict = classify_aging(m, np.geomspace(0.1, 10, 20))
        assert verdict.frclass == "neither"
        assert verdict.fr_constant
        assert verdict.fraclass == "IFRA"

    def test_classify_mg1_ifra(self, rng):
        m = random_model("MG1", 3, rng)
        verdict = classify_aging(m, np.geomspace(0.1, 10, 30))
        assert verdict.fraclass == "IFRA"

    def test_classify_slow_weibull_dfra(self):
        m = validate_model(
            ModelSpec("IndepWeibull", 2, {(1,): 1.0, (2,): 1.0},
                      shapes=(0.5, 0.5))
        )
        verdict = classify_aging(m, np.geomspace(0.1, 10, 20))
        assert verdict.fraclass == "DFRA"
        assert verdict.frclass == "DFR"

    def test_classify_needs_three_points(self):
        m = mome({(1,): 1.0, (2,): 1.0})
        with pytest.raises(DomainError):
            classify_aging(m, [1.0, 2.0])


class TestArrays:
    GRID = np.geomspace(0.05, 5.0, 15)

    @pytest.mark.parametrize(
        "family", ["MOME", "MG1", "MOMW", "Crowder", "LeeII", "LeeML", "LuBI"]
    )
    def test_array_errors_match_scalar(self, family, rng):
        m = random_model(family, 3, rng)
        for metric in METRICS:
            closed = closed_form_error(m, metric, self.GRID)
            generic = relative_error(m, metric, self.GRID)
            for k, t in enumerate(self.GRID.tolist()):
                one = closed_form_error(m, metric, t)
                assert (closed is None) == (one is None)
                if one is not None:
                    assert closed[k] == pytest.approx(one, rel=1e-12, abs=1e-15)
                assert generic[k] == pytest.approx(
                    relative_error(m, metric, t), rel=1e-12, abs=1e-15)

    def test_error_curve_uses_array_values(self, rng):
        m = random_model("MG1", 3, rng)
        curve = error_curve(m, MetricKind.RHR, self.GRID)
        rel = relative_error(m, MetricKind.RHR, self.GRID)
        assert [p.rel_err for p in curve.points] == rel.tolist()
        assert [p.dep for p in curve.points] == series_metric(
            m, MetricKind.RHR, self.GRID).tolist()

    def test_sf_error_beyond_float_range(self):
        m = validate_model(ModelSpec(
            "Crowder", 2, {(1,): 1.0, (2,): 1.0}, shapes=(1.0, 1.0),
            gamma=0.5, stable_exponent=0.5))
        for fn in (relative_error, closed_form_error):
            with pytest.raises(ZeroDenominatorError, match="t=370.0"):
                fn(m, MetricKind.SF, 370.0)
            with pytest.raises(ZeroDenominatorError, match="t=370.0"):
                fn(m, MetricKind.SF, np.array([1.0, 370.0, 372.0]))
        points = error_curve(m, MetricKind.SF, [360.0, 370.0]).points
        assert points[0].rel_err is not None
        assert points[1].rel_err is None and points[1].indep > 0.0

    def test_rhr_error_beyond_float_range(self):
        # expm1(H_i)/expm1(H_d) exceeds the float range at t = 370 while
        # the independent RHR is still subnormal, not 0.
        m = validate_model(ModelSpec(
            "Crowder", 2, {(1,): 1.0, (2,): 1.0}, shapes=(1.0, 1.0),
            gamma=0.5, stable_exponent=0.5))
        for fn in (relative_error, closed_form_error):
            assert math.isfinite(fn(m, MetricKind.RHR, 360.0))
            with pytest.raises(ZeroDenominatorError, match="t=370.0"):
                fn(m, MetricKind.RHR, 370.0)
            with pytest.raises(ZeroDenominatorError, match="t=370.0"):
                fn(m, MetricKind.RHR, np.array([1.0, 370.0]))
        points = error_curve(m, MetricKind.RHR, [360.0, 370.0]).points
        assert points[0].rel_err is not None
        assert points[1].rel_err is None and points[1].indep > 0.0
