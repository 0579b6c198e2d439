"""Relative errors, closed forms, monotone lemmas, and aging classes."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deperr import (
    DomainError,
    ErrorPoint,
    Family,
    GridSpec,
    MetricKind,
    ModelSpec,
    classify_aging,
    closed_form_error,
    error_curve,
    independent_counterpart,
    lemma_g,
    lemma_h,
    relative_error,
    series_hazard,
    series_metric,
    validate_model,
)
from deperr.exceptions import (
    DepErrError,
    SingularityError,
    ZeroDenominatorError,
)
from deperr.errors import _ERROR_FROM_HAZARDS
from deperr.grids import MAX_POINTS
from deperr.models import _metric_values
from deperr.simulate import finite_diff_metric

from conftest import ALL_FAMILIES, random_model

METRICS = list(MetricKind)
FLOAT_MAX = float(np.finfo(float).max)
# models whose H_d overflows where H_i stays finite at the top of the range
HD_INF = [
    ModelSpec("MOME", 2, {(1,): 0.1, (1, 2): 1.9}),
    ModelSpec("MOMW", 2, {(1,): 0.1, (1, 2): 1.9}, shapes=(1.0, 1.0)),
    ModelSpec("LeeML", 2, {(1,): 0.1, (1, 2): 1.9}, alpha=1.0,
              scales=(1.0, 1.0)),
    ModelSpec("MG1", 2, {(1,): 0.1, (2,): 0.1, (1, 2): 0.005}),
]


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

    def test_no_nan_at_huge_t(self, rng):
        # at t = inf and where powers overflow: a value, its limit or a
        # typed error, never nan nor a RuntimeWarning, and the same outcome
        # for a float t and a one-point array (the values themselves are
        # checked where known, in test_fr_limit_at_infinity and
        # test_root_of_overflowed_sum_is_an_error)
        models = [random_model(family, n, rng)
                  for family in ALL_FAMILIES for n in range(1, 7)]
        fns = (series_metric, relative_error, closed_form_error)
        for m, x, metric, fn in itertools.product(
                models, (1e100, 1e200, 1e300, math.inf), METRICS, fns):
            outcomes = []
            for t in (x, np.array([x])):
                try:
                    value = fn(m, metric, t)
                except DepErrError as exc:
                    outcomes.append(type(exc))
                    continue
                assert value is None or not np.isnan(value).any(), (
                    m.family, m.n, t, fn, metric)
                outcomes.append(value is None)
            assert outcomes[0] == outcomes[1], (m.family, m.n, x, fn, metric)

    def test_inf_over_inf_is_singular(self):
        # both H' are inf at 1e300 (t**1.5 overflows) and at inf: the FR
        # error is inf/inf there, which was a quiet nan
        m = validate_model(ModelSpec("MOMW", 2, {(1,): 1.0, (2,): 0.5,
                                                 (1, 2): 0.5},
                                     shapes=(2.5, 0.5)))
        for t in (1e300, math.inf, np.array([2.0, 1e300])):
            with pytest.raises(SingularityError, match="t=(1e\\+300|inf)"):
                relative_error(m, MetricKind.FR, t)
        points = error_curve(m, MetricKind.FR, [2.0, 1e300]).points
        assert points[0].rel_err == pytest.approx(
            relative_error(m, MetricKind.FR, 2.0), rel=1e-14)
        assert points[1].rel_err is None

    def test_ai_zero_over_zero_is_singular(self):
        # H_i' * H_d = 1e-292 * 2.5e-300 underflows to 0 at t = 1e-6 where
        # both factors are > 0: a bare ZeroDivisionError failed the curve
        m = validate_model(ModelSpec("MOMW", 2, {(1,): 1.0, (2,): 1.0,
                                                 (1, 2): 0.5},
                                     shapes=(50.0, 50.0)))
        for t in (1e-6, np.array([1e-3, 1e-6])):
            with pytest.raises(SingularityError, match="0/0 at t=1e-06"):
                relative_error(m, MetricKind.AI, t)
        points = error_curve(m, MetricKind.AI, [1e-6, 1e-3]).points
        assert [p.rel_err for p in points] == [None, 0.0]

    def test_ai_where_the_hazard_products_overflow(self):
        # at 1.5e154 H_d = 1.1e308, t * H_d' = 2.3e308, and H_d' * H_i and
        # H_i' * H_d both overflow where AI_d / AI_i = 2 / 1: the error is
        # the ratio of the ratios H'/H, float and array, closed and generic
        m = validate_model(ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0,
                                                (1, 2): 0.5}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (relative_error, closed_form_error):
                for t in (1e100, np.array([1e100])):
                    assert np.all(fn(m, MetricKind.AI, t) == 1.0)
                for t in (1.5e154, np.array([1.5e154])):
                    assert fn(m, MetricKind.AI, t) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("spec,t", [
        (HD_INF[0], 1e308), (HD_INF[0], FLOAT_MAX), (HD_INF[1], 1e308),
        (HD_INF[2], FLOAT_MAX), (HD_INF[3], 2.5e155)],
        ids=["MOME", "MOME-max", "MOMW", "LeeML-max", "MG1"])
    def test_ai_where_the_dependent_hazard_overflows(self, spec, t):
        # H_d = inf, where the dependent AI is inf/inf, while H_i is finite:
        # the error read H_d' * H_i / inf - 1 = -1.0; it is undefined
        m = validate_model(spec)
        assert series_hazard(m, t)[0] == math.inf
        assert series_hazard(independent_counterpart(m), t)[0] < math.inf
        for u in (t, np.array([1.0, t])):
            with pytest.raises(SingularityError, match=re.escape(f"0/0 at t={t}")):
                relative_error(m, MetricKind.AI, u)
        if m.family is Family.MG1:  # its closed AI defers to the generic there
            with pytest.raises(SingularityError, match=re.escape(f"t={t}")):
                closed_form_error(m, MetricKind.AI, t)
        assert error_curve(m, MetricKind.AI, [1.0, t]).rel_err[1] is None

    def test_undefined_metric_means_undefined_error(self, rng):
        # wherever either side's metric is refused, so is the error
        models = [random_model(family, n, rng) for family in ALL_FAMILIES
                  for n in (2, 4)] + [validate_model(s) for s in HD_INF]
        grid = np.geomspace(1e-300, 1e308, 40).tolist() + [FLOAT_MAX]

        def refused(model, metric, t):
            try:
                series_metric(model, metric, t)
            except DomainError:
                return True
            return False

        for m, metric, t in itertools.product(models, METRICS, grid):
            if refused(m, metric, t) or refused(
                    independent_counterpart(m), metric, t):
                with pytest.raises(DomainError):
                    relative_error(m, metric, t)

    def test_crowder_closed_ai_where_slope_times_sum_overflows(self):
        # at 1e154 slope * s = 2e308 overflows where slope * (s / h) = 2
        m = validate_model(ModelSpec("Crowder", 1, {(1,): 1.0}, shapes=(1.0,),
                                     gamma=0.0, stable_exponent=2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (relative_error, closed_form_error):
                assert fn(m, MetricKind.AI, 1e154) == 1.0
                ai = fn(m, MetricKind.AI, np.array([1e100, 1e154]))
                assert ai.tolist() == [1.0, 1.0]

    def test_mg1_closed_ai_where_the_hazard_underflows(self):
        # H_d = 2e-600 + 0.5e-600 is 0 at t = 1e-300: the closed form read
        # t * H' / 0, a bare ZeroDivisionError for a float and an invalid
        # value for an array; it is refused as the generic error is
        m = validate_model(ModelSpec("MG1", 2, {(1,): 1e-300, (2,): 1e-300,
                                                (1, 2): 0.5}))
        for t in (1e-300, np.array([1e-300, 1.0])):
            for fn in (relative_error, closed_form_error):
                with pytest.raises(SingularityError, match="t=1e-300"):
                    fn(m, MetricKind.AI, t)


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

    def test_lee_ml_fr_is_the_excess_over_the_singletons(self):
        # (lam - s) / s, as for MOME: lam / s - 1 is an ulp away here
        m = validate_model(ModelSpec("LeeML", 2, {(1,): 0.3, (2,): 0.4,
                                                  (1, 2): 0.1},
                                     alpha=1.5, scales=(1.0, 1.01)))
        lam, s = m._lee_total, m._indep._lee_total
        assert closed_form_error(m, MetricKind.FR, 2.0) == (lam - s) / s
        assert closed_form_error(m, MetricKind.FR, np.array([0.5, 2.0])
                                 ).tolist() == [(lam - s) / s] * 2

    def test_lee_ml_fr_where_t_to_the_alpha_underflows(self):
        # t**60 underflows to 0 at t = 3.98e-6, but the FR form does not
        # read it: the generic FR there is 1.1e-8 off, as H_i' is subnormal
        m = validate_model(ModelSpec("LeeML", 2, {(1,): 1.0, (2,): 1.0,
                                                  (1, 2): 0.5},
                                     alpha=60.0, scales=(1.0, 1.01)))
        lam, s = m._lee_total, m._indep._lee_total
        assert closed_form_error(m, MetricKind.FR, 3.98e-6) == (lam - s) / s
        assert closed_form_error(m, MetricKind.FR, np.array([3.98e-6, 1.0])
                                 ).tolist() == [(lam - s) / s] * 2

    @pytest.mark.parametrize("spec,t", [
        (ModelSpec("LeeML", 2, {(1,): 0.5, (2,): 0.5}, alpha=1e300,
                   scales=(1.0, 1.0)), 1.5),  # t**alpha is inf
        (ModelSpec("MOME", 2, {(1,): 0.5, (2,): 0.5}), math.inf),
        (ModelSpec("LuBI", 2, {(1,): 1.0, (2,): 0.5}, shapes=(1.5, 2.0),
                   delta=0.0, m=1.5), 2.0),
    ])
    def test_product_model_error_is_zero(self, spec, t):
        # no interaction subset: the model is its own independent product,
        # where the closed forms would meet 0 * inf
        m = validate_model(spec)
        for metric in METRICS:
            assert closed_form_error(m, metric, t) == 0.0
            assert closed_form_error(m, metric, np.array([t])).tolist() == [0.0]

    @pytest.mark.parametrize("spec", [
        ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0}),
        ModelSpec("MOMW", 2, {(1,): 1.0, (2,): 1.0}, shapes=(1.5, 2.0)),
    ])
    def test_product_model_at_infinity(self, spec):
        # were nan: a_2 = 0 times inf**2 (MG1), inf - inf (MOMW closed SF)
        m = validate_model(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert series_metric(m, "sf", math.inf) == 0.0
            for t in (math.inf, np.array([math.inf])):
                for metric in METRICS:
                    assert closed_form_error(m, metric, t) == 0.0

    @pytest.mark.parametrize("spec", [
        ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}),
        ModelSpec("MOMW", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5},
                  shapes=(1.5, 2.0)),
    ])
    def test_sf_at_infinity_refused_like_generic(self, spec):
        # the closed SF was nan: a_1 * t - theta (MG1), s - a (MOMW) are
        # inf - inf; the independent SF is 0 there
        m = validate_model(spec)
        for t in (math.inf, np.array([2.0, math.inf])):
            with pytest.raises(ZeroDenominatorError, match="t=inf"):
                relative_error(m, MetricKind.SF, t)
            with pytest.raises(ZeroDenominatorError, match="t=inf"):
                closed_form_error(m, MetricKind.SF, t)

    @pytest.mark.parametrize(
        "family", ["MOME", "MG1", "MOMW", "Crowder", "LeeII", "LeeML"]
    )
    def test_closed_at_infinity_like_generic(self, family, rng):
        # the forms meet inf - inf and inf/inf where t, or the hazard they
        # read, is inf: MG1's AI was nan where relative_error raises
        # SingularityError
        def outcome(fn, m, metric, t):
            try:
                return fn(m, metric, t)
            except DepErrError as exc:  # compared by class
                return type(exc)

        cases = []
        for n in range(2, 7):
            m = random_model(family, n, rng)
            read = m._indep if family in ("Crowder", "LeeII") else m
            cases.append((m, [math.inf] + [
                t for t in (1e200, 1e300)
                if family in ("MG1", "MOMW", "Crowder", "LeeII")
                and series_hazard(read, t)[0] == math.inf]))
        if family == "Crowder":
            # H_i = 1e220 is finite, (g + s)**3 is not: a float t raised
            # OverflowError for every metric, and an array warned
            m = validate_model(ModelSpec(
                "Crowder", 2, {(1,): 1.0, (2,): 0.5}, shapes=(2.0, 1.0),
                gamma=0.5, stable_exponent=3.0))
            assert series_hazard(m, 1e110) == (math.inf, math.inf)
            assert series_hazard(m, np.array([1e110]))[0].tolist() == [math.inf]
            cases.append((m, [1e110, np.array([2.0, 1e110])]))
        for m, ts in cases:
            for t in ts:
                for metric in METRICS:
                    closed = outcome(closed_form_error, m, metric, t)
                    if closed is None:
                        continue
                    generic = outcome(relative_error, m, metric, t)
                    if isinstance(t, float) or isinstance(closed, type):
                        assert closed == generic, (m.n, metric, t)
                    else:  # closed at t = 2, generic where H_d is inf
                        np.testing.assert_allclose(closed, generic, rtol=1e-12,
                                                   equal_nan=False)

    @pytest.mark.parametrize("spec", [
        ModelSpec("MOME", 2, {(1, 2): 1.0}),
        ModelSpec("MG1", 2, {(1, 2): 0.5}),
        ModelSpec("LeeML", 2, {(1, 2): 1.0}, alpha=1.5, scales=(1.0, 2.0)),
        ModelSpec("MOMW", 2, {(1, 2): 1.0}, shapes=(1.5, 2.0)),
    ])
    def test_sf_without_singleton_rates(self, spec):
        # the SF forms never divide by the singleton total; the others do.
        # The counterpart's empty term table raised ValueError on an array
        m = validate_model(spec)
        for t in (0.5, np.array([0.5, 1.0, 2.0])):
            np.testing.assert_allclose(closed_form_error(m, MetricKind.SF, t),
                                       relative_error(m, MetricKind.SF, t),
                                       rtol=1e-14)
        with pytest.raises(ZeroDenominatorError,
                           match=r"independent-counterpart fr is 0 at t=1\.0"):
            closed_form_error(m, MetricKind.FR, 1.0)
        with warnings.catch_warnings():  # MG1's a1 * t is 0 * inf at t = inf
            warnings.simplefilter("error")
            closed = closed_form_error(m, MetricKind.SF, np.array([0.5, math.inf]))
        assert closed.tolist() == [closed_form_error(m, MetricKind.SF, t)
                                   for t in (0.5, math.inf)]

    @pytest.mark.parametrize("t", [1e-300, np.array([1e-300, 1.0])],
                             ids=["float", "array"])
    def test_underflowed_counterpart_slope_is_generic(self, t):
        # the model has singleton rates; only the counterpart's H_i' = 0
        m = validate_model(ModelSpec("MOMW", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5},
                                     shapes=(3.0, 2.5)))
        for error in (closed_form_error, relative_error):
            with pytest.raises(ZeroDenominatorError) as exc:
                error(m, MetricKind.FR, t)
            assert str(exc.value) == "independent-counterpart fr is 0 at t=1e-300"

    @pytest.mark.parametrize("family", ["MOMW", "Crowder", "LeeII"])
    def test_closed_sf_is_the_generic_sf(self, family, rng):
        # One SF line, expm1(H_i - H_d), on the pairs that relative_error
        # reads too, so bit for bit.  Not MG1: its H_i = a1 * t takes a1 as
        # the left sum of its own term table, the counterpart's H_i its
        # rates' fsum.
        cases = 0
        for n in range(1, 7):
            for _ in range(3):
                m = random_model(family, n, rng)
                defined = []  # the t where the generic error is finite
                for t in np.logspace(-3, 3, 25).tolist():
                    try:
                        generic = relative_error(m, MetricKind.SF, t)
                    except ZeroDenominatorError:  # SF_i is 0, or -1 + inf
                        continue
                    assert closed_form_error(m, MetricKind.SF, t) == generic
                    defined.append(t)
                grid = np.array(defined)
                assert closed_form_error(m, MetricKind.SF, grid).tolist() == (
                    relative_error(m, MetricKind.SF, grid).tolist()), (n, m)
                cases += 2 * len(defined)
        assert cases > 600  # of 900

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

    @pytest.mark.parametrize("grid,message", [
        ([0.0, 1.0], "grid points must be strictly positive"),
        ([2.0, 1.0], "grid points must be strictly increasing"),
    ])
    def test_bad_grid_named(self, grid, message):
        m = mome({(1,): 1.0, (2,): 1.0})
        with pytest.raises(DomainError) as exc:
            error_curve(m, MetricKind.SF, grid)
        assert str(exc.value) == message

    @pytest.mark.parametrize("spacing,spaced", [("log", np.geomspace),
                                                ("linear", np.linspace)])
    def test_one_point_grid_is_numpys_bit_for_bit(self, spacing, spaced, rng):
        exps = rng.uniform(-300.0, 300.0, size=(2000, 2))
        pairs = [(1e-300, 1e300), (1e-300, 2e-300), (1e299, 1e300), (1, 2),
                 (0.5, 2.0)] + [tuple(10.0 ** np.sort(e)) for e in exps]
        for a, b in pairs:
            if not a < b:
                continue
            got = GridSpec(a, b, 1, spacing).points()
            want = spaced(a, b, 1)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0, 1e300, exclude_min=True).flatmap(lambda ratio: st.tuples(
        st.floats(1e-300, min(1e300, 1e308 / ratio)), st.just(ratio),
        st.integers(2, 2000))))
    @example((1e-3, 1e6, MAX_POINTS))
    @example((1e-150, 1e300, 1000))
    def test_log_grid_is_geomspace_bit_for_bit(self, grid):
        start, ratio, count = grid
        stop = start * ratio
        assume(start < stop)  # a ratio within an ulp of 1 rounds away
        got = GridSpec(start, stop, count, "log").points()
        want = np.geomspace(start, stop, count)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    @pytest.mark.parametrize("ulps", [0, 1, 2, 20])
    def test_log_grid_to_the_float_max_is_quiet(self, ulps):
        # 10**log10(stop) rounds past the float max before the end is
        # pinned: numpy's overflow warning was a traceback under -W error
        stop = float(np.finfo(float).max)
        for _ in range(ulps):
            stop = math.nextafter(stop, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = GridSpec(1.0, stop, 3, "log").points()
        with np.errstate(over="ignore"):
            want = np.geomspace(1.0, stop, 3)
        assert got.tobytes() == want.tobytes()
        assert got[-1] == stop and np.isfinite(got).all()

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

    def test_classify_mixed_weibull_is_neither(self):
        # a falling and a rising hazard: FR dips and climbs again, and AI
        # crosses 1, while AI itself only climbs
        m = validate_model(
            ModelSpec("IndepWeibull", 2, {(1,): 1.0, (2,): 1.0},
                      shapes=(0.5, 3.0))
        )
        verdict = classify_aging(m, GridSpec(0.01, 10.0, 50))
        assert (verdict.frclass, verdict.fraclass, verdict.aiclass) == (
            "neither", "neither", "IAI")
        assert not verdict.fr_constant and not verdict.ai_constant

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

    def test_fr_error_beyond_float_range(self):
        # H_i' = 2.1e-314 at t = 4.5e-6: H_d'/H_i' - 1 is inf, which both
        # functions returned and the array closed form's division warned of;
        # FR and AI are refused there as SF and RHR are
        m = validate_model(ModelSpec("MOMW", 2, {(1,): 1.0, (1, 2): 0.5},
                                     shapes=(60.0, 0.5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (relative_error, closed_form_error):
                for t in (4.5e-6, np.array([1e-5, 4.5e-6])):
                    with pytest.raises(ZeroDenominatorError,
                                       match="fr relative error exceeds the "
                                             "float range at t=4.5e-06"):
                        fn(m, MetricKind.FR, t)
            points = error_curve(m, MetricKind.FR, [4.5e-6, 1e-5]).points
        assert [p.rel_err for p in points] == [None, 1.3176156917368182e+295]

    def test_float_forms_overflow_quietly(self):
        # MG1's a_1 and LeeML's t**alpha were numpy scalars, so a float t
        # warned where a form overflows, as an array did
        mg1 = validate_model(ModelSpec("MG1", 2, {(1,): 1e-300, (2,): 1e-300,
                                                  (1, 2): 1.0}))
        lee = validate_model(ModelSpec("LeeML", 2, {(1,): 1.0, (2,): 1.0,
                                                    (1, 2): 5.0},
                                       alpha=1.0, scales=(1.0, 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e9, np.array([1.0, 1e9])):
                with pytest.raises(ZeroDenominatorError, match="t=1000000000.0"):
                    closed_form_error(mg1, MetricKind.FR, t)
            assert closed_form_error(lee, MetricKind.SF, 1e308) == -1.0

    def test_underflowed_crowder_hazard_is_singular(self):
        # H_d = (gamma + s)**0.5 - gamma**0.5 underflows to 0 at t = 1e-200
        # (s = 2e-200): RHR divided by expm1(0) and the AI form by H_d, a
        # bare ZeroDivisionError, or a warning on an array
        m = validate_model(ModelSpec(
            "Crowder", 2, {(1,): 1.0, (2,): 1.0}, shapes=(1.0, 1.0),
            gamma=1e300, stable_exponent=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, metric in itertools.product(
                    (relative_error, closed_form_error),
                    (MetricKind.RHR, MetricKind.AI)):
                for t in (1e-200, np.array([1.0, 1e-200])):
                    with pytest.raises(SingularityError, match="t=1e-200"):
                        fn(m, metric, t)

    # MOMW models with shape 60 whose curves have blank cells on every
    # metric: an FR error beyond the float range, hazards that underflow
    SHAPES_60 = [({(1,): 1.0, (1, 2): 0.5}, (60.0, 0.5)),
                 ({(1,): 1.0, (2,): 1.0, (1, 2): 0.5}, (60.0, 60.0))]

    @staticmethod
    def rows_by_point(model, metric, grid):
        """The reference: error_curve's blank-cell rule, one ErrorPoint per
        grid point."""
        pts = np.asarray(grid, dtype=float)
        sides = series_hazard(model, pts), series_hazard(model._indep, pts)
        if metric in (MetricKind.RHR, MetricKind.AI):
            top = math.inf if metric is MetricKind.RHR else np.finfo(float).max
            sides = [[np.where((h > 0.0) & (h <= top), x, math.nan)
                      for x in (h, dh)] for h, dh in sides]
        (h_dep, dh_dep), (h_ind, dh_ind) = sides
        dep = _metric_values(metric, pts, h_dep, dh_dep).tolist()
        ind = _metric_values(metric, pts, h_ind, dh_ind).tolist()
        err = [_ERROR_FROM_HAZARDS[metric](*x) for x in zip(
            h_dep.tolist(), dh_dep.tolist(), h_ind.tolist(), dh_ind.tolist())]
        return tuple(
            ErrorPoint(t, d if d == d else None, i if i == i else None,
                       e if i != 0.0 and math.isfinite(e) else None)
            for t, d, i, e in zip(pts.tolist(), dep, ind, err))

    @pytest.mark.parametrize("rates,shapes", SHAPES_60, ids=["fr", "ai"])
    def test_curve_points_are_its_columns(self, rates, shapes):
        m = validate_model(ModelSpec("MOMW", 2, rates, shapes=shapes))
        grid = np.concatenate([[1e-6, 4.5e-6], np.geomspace(1e-5, 1e3, 40)])
        for metric in METRICS:
            curve = error_curve(m, metric, grid)
            assert None in curve.rel_err
            assert curve.points == tuple(map(ErrorPoint, curve.t, curve.dep,
                                             curve.indep, curve.rel_err))
            assert curve.points == self.rows_by_point(m, metric, grid)
            again = error_curve(m, metric, grid)
            assert again == curve and hash(again) == hash(curve)
            assert again != error_curve(m, metric, grid[1:])

    @pytest.mark.parametrize("metric", [MetricKind.RHR, MetricKind.AI])
    def test_error_curve_blanks_an_underflowed_hazard(self, metric):
        # both series hazards underflow to 0 at t = 1e-6, where RHR and AI
        # are undefined: the whole curve raised there, and wrote no point
        m = validate_model(ModelSpec("MOMW", 2, {(1,): 1.0, (2,): 1.0,
                                                 (1, 2): 0.5},
                                     shapes=(60.0, 60.0)))
        undefined = ("survival is 1 to machine precision at t=1e-06; "
                     f"{metric.value} undefined")
        for fn in (series_metric, relative_error):
            with pytest.raises(SingularityError, match=undefined):
                fn(m, metric, 1e-6)
        points = error_curve(m, metric, np.geomspace(1e-6, 1e-3, 4)).points
        assert points[0] == (1e-6, None, None, None)
        indep = independent_counterpart(m)
        for p in points[1:]:
            t = np.array([p.t])
            assert p.dep == series_metric(m, metric, t)[0]
            assert p.indep == series_metric(indep, metric, t)[0]
            try:
                assert p.rel_err == relative_error(m, metric, t)[0]
            except SingularityError:  # AI: H_i' * H_d underflows, 0/0
                assert p.rel_err is None


@pytest.mark.parametrize("spec", [
    ModelSpec("MOME", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 5.0}),
    ModelSpec("LeeML", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 5.0}, alpha=1.0,
              scales=(1.0, 1.0)),
])
def test_closed_rhr_where_the_hazard_overflows_is_generic(spec):
    # lam * x overflows at 1e308: expm1_ratio(inf, inf) is 1, so the form
    # gave lam / s - 1 = 2.5; the error tends to -1 and the generic one is
    # refused there, as the independent RHR is 0
    m = validate_model(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert closed_form_error(m, "rhr", 1e300) == pytest.approx(-1.0)
        for t in (1e308, np.array([1.0, 1e308])):
            with pytest.raises(ZeroDenominatorError, match="t=1e"):
                relative_error(m, "rhr", t)
            with pytest.raises(ZeroDenominatorError, match="t=1e"):
                closed_form_error(m, "rhr", t)
