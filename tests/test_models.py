"""Model validation, joint survival, and series metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deperr import (
    DomainError,
    Family,
    MetricKind,
    ModelSpec,
    SingularityError,
    ValidationError,
    closed_form_error,
    independent_counterpart,
    joint_sf,
    series_hazard,
    series_metric,
    validate_model,
)
from deperr.models import _joint_hazard
from deperr.simulate import finite_diff_metric

from conftest import ALL_FAMILIES, random_model


def mome(rates, n=2):
    return validate_model(ModelSpec("MOME", n, rates))


class TestValidation:
    def test_indep_exp_valid(self):
        m = validate_model(ModelSpec("IndepExp", 2, {(1,): 1.0, (2,): 2.0}))
        assert m.family is Family.INDEP_EXP
        assert m.rates.total == 3.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError, match="negative rate"):
            mome({(1,): 1.0, (2,): -0.5, (1, 2): 1.0})

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValidationError, match="component 1 has zero total rate"):
            mome({(1,): 0.0, (2,): 1.0, (1, 2): 0.0})

    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="unknown family"):
            validate_model(ModelSpec("Gumbel3", 2, {(1,): 1.0, (2,): 1.0}))

    def test_component_cap(self):
        with pytest.raises(ValidationError, match="at most 24"):
            validate_model(ModelSpec("IndepExp", 25, {(i,): 1.0 for i in range(1, 26)}))

    def test_indep_rejects_interactions(self):
        with pytest.raises(ValidationError, match="singleton"):
            validate_model(
                ModelSpec("IndepExp", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
            )

    def test_shapes_required(self):
        with pytest.raises(ValidationError, match="shapes"):
            validate_model(ModelSpec("IndepWeibull", 2, {(1,): 1.0, (2,): 1.0}))

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ValidationError, match=r"shapes\[2\]"):
            validate_model(
                ModelSpec("IndepWeibull", 2, {(1,): 1.0, (2,): 1.0},
                          shapes=(1.0, 0.0))
            )

    def test_lee_ii_exponent_range(self):
        with pytest.raises(ValidationError, match="stable_exponent"):
            validate_model(
                ModelSpec("LeeII", 2, {(1,): 1.0, (2,): 1.0},
                          shapes=(1.0, 1.0), stable_exponent=1.5)
            )

    @pytest.mark.parametrize("scales", [(1.0, 1.3), (0.5, 1.0)])
    def test_lee_ml_scale_powers_in_float_range(self, scales):
        # c_i**alpha overflows to inf or underflows to 0
        with pytest.raises(ValidationError, match=r"alpha: .*scales \(c\)"):
            validate_model(
                ModelSpec("LeeML", 2, {(1,): 0.5, (2,): 0.5}, alpha=1e300,
                          scales=scales)
            )

    def test_foreign_parameter_rejected(self):
        with pytest.raises(ValidationError, match="gamma"):
            validate_model(
                ModelSpec("MOME", 2, {(1,): 1.0, (2,): 1.0}, gamma=0.5)
            )

    def test_subset_index_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            mome({(1,): 1.0, (2,): 1.0, (1, 3): 0.5})


class TestJointSF:
    def test_indep_exp_product(self):
        m = validate_model(ModelSpec("IndepExp", 2, {(1,): 1.0, (2,): 1.0}))
        assert joint_sf(m, [1.0, 1.0]) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_origin_is_one(self, rng):
        for family in ALL_FAMILIES:
            m = random_model(family, 3, rng)
            assert joint_sf(m, [0.0, 0.0, 0.0]) == 1.0

    def test_mome_common_shock_dominates(self):
        m = mome({(1,): 1e-9, (2,): 1e-9, (1, 2): 1.0})
        assert joint_sf(m, [1.0, 2.0]) == pytest.approx(math.exp(-2), rel=1e-6)

    def test_negative_coordinate_rejected(self):
        m = mome({(1,): 1.0, (2,): 1.0})
        with pytest.raises(DomainError):
            joint_sf(m, [1.0, -0.1])

    def test_wrong_length_rejected(self):
        m = mome({(1,): 1.0, (2,): 1.0})
        with pytest.raises(DomainError):
            joint_sf(m, [1.0])

    @pytest.mark.parametrize("family,n,rates,params,x", [
        ("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}, {}, [math.inf, 0.0]),
        ("LuBI", 2, {(1,): 1.0, (2,): 0.5},
         {"shapes": (1.5, 2.0), "delta": 0.0, "m": 1.5}, [math.inf, math.inf]),
    ], ids=["MG1", "LuBI"])
    def test_infinite_coordinate_is_zero(self, family, n, rates, params, x):
        # every component fails in finite time; the kernel would meet 0 * inf
        m = validate_model(ModelSpec(family, n, rates, **params))
        assert joint_sf(m, x) == 0.0

    def test_componentwise_nonincreasing(self, rng):
        for family in ALL_FAMILIES:
            m = random_model(family, 3, rng)
            for _ in range(10):
                x = rng.uniform(0.0, 2.0, size=3)
                i = int(rng.integers(3))
                bumped = x.copy()
                bumped[i] += rng.uniform(0.01, 1.0)
                assert joint_sf(m, bumped) <= joint_sf(m, x) + 1e-12

    def test_batch_matches_rows(self, rng):
        # The batch path sums singletons before larger subsets, the
        # one-point path in subset order: equal up to a few roundings.
        for family in ALL_FAMILIES:
            m = random_model(family, 5, rng)
            x = rng.uniform(0.0, 3.0, size=(40, 5))
            x[rng.random(x.shape) < 0.3] = 0.0
            batch = _joint_hazard(m, x)
            assert batch.shape == (40,)
            rows = np.array([_joint_hazard(m, row) for row in x])
            np.testing.assert_allclose(batch, rows, rtol=1e-13, atol=0.0)


class TestSeriesMetrics:
    def test_indep_exp_constant_fr(self):
        m = validate_model(
            ModelSpec("IndepExp", 3, {(1,): 1.0, (2,): 2.0, (3,): 3.0})
        )
        for t in (0.1, 1.0, 7.3):
            assert series_metric(m, MetricKind.FR, t) == pytest.approx(6.0)
            assert series_metric(m, MetricKind.AI, t) == pytest.approx(1.0)

    def test_mg1_ai_example(self):
        m = validate_model(
            ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        )
        assert series_metric(m, MetricKind.AI, 1.0) == pytest.approx(4.0 / 3.0)

    def test_mome_exponential_series(self, rng):
        m = random_model("MOME", 3, rng)
        lam = m.rates.total
        for t in (0.3, 1.0, 2.5):
            assert series_metric(m, MetricKind.SF, t) == pytest.approx(
                math.exp(-lam * t), rel=1e-12
            )
            assert series_metric(m, MetricKind.FR, t) == pytest.approx(lam)

    def test_t_nonpositive_rejected(self):
        m = mome({(1,): 1.0, (2,): 1.0})
        with pytest.raises(DomainError):
            series_metric(m, MetricKind.SF, 0.0)

    def test_ai_identity_all_families(self, rng):
        # AI * (-ln SF) == t * FR to 1e-10 relative, by construction.
        grid = np.geomspace(0.05, 5.0, 12)
        for family in ALL_FAMILIES:
            m = random_model(family, 3, rng)
            for t in grid:
                t = float(t)
                h, dh = series_hazard(m, t)
                ai = series_metric(m, MetricKind.AI, t)
                assert ai * h == pytest.approx(t * dh, rel=1e-10)

    def test_fr_matches_finite_difference(self, rng):
        grid = np.geomspace(0.05, 5.0, 10)
        for family in ALL_FAMILIES:
            m = random_model(family, 3, rng, rate_range=(0.05, 0.8))
            for t in grid:
                t = float(t)
                fr = series_metric(m, MetricKind.FR, t)
                fd = finite_diff_metric(m, MetricKind.FR, t)
                assert abs(fr - fd) <= 1e-6 * (1.0 + fr)

    def test_rhr_consistency(self, rng):
        for family in ALL_FAMILIES:
            m = random_model(family, 2, rng)
            for t in (0.2, 1.0, 3.0):
                sf = series_metric(m, MetricKind.SF, t)
                fr = series_metric(m, MetricKind.FR, t)
                rhr = series_metric(m, MetricKind.RHR, t)
                assert rhr == pytest.approx(fr * sf / (1.0 - sf), rel=1e-10)

    def test_mg1_ai_bounds(self, rng):
        grid = np.geomspace(1e-3, 1e3, 50)
        for _ in range(10):
            m = random_model("MG1", 4, rng)
            ai = [series_metric(m, MetricKind.AI, float(t)) for t in grid]
            assert all(1.0 - 1e-9 <= v <= 4.0 + 1e-9 for v in ai)

    def test_indep_weibull_ai_bounds(self, rng):
        grid = np.geomspace(1e-2, 1e2, 50)
        for _ in range(10):
            m = random_model("IndepWeibull", 3, rng)
            lo, hi = min(m.shapes), max(m.shapes)
            ai = [series_metric(m, MetricKind.AI, float(t)) for t in grid]
            assert all(lo - 1e-9 <= v <= hi + 1e-9 for v in ai)

    def test_lee_ml_ai_is_common_shape(self, rng):
        for _ in range(5):
            m = random_model("LeeML", 3, rng)
            for t in (0.1, 1.0, 4.0):
                assert series_metric(m, MetricKind.AI, t) == pytest.approx(
                    m.alpha, rel=1e-12
                )


class TestCounterpartAndAggregates:
    def test_mome_strips_interactions(self):
        m = mome({(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        c = independent_counterpart(m)
        assert c.family is Family.INDEP_EXP
        assert c.rates.total == 2.0

    def test_idempotent(self, rng):
        for family in ALL_FAMILIES:
            m = random_model(family, 3, rng)
            c = independent_counterpart(m)
            assert independent_counterpart(c) == c

    def test_indep_exp_fixed_point(self):
        m = validate_model(ModelSpec("IndepExp", 2, {(1,): 1.0, (2,): 2.0}))
        assert independent_counterpart(m) == m

    def test_lee_ml_counterpart_rate(self):
        m = validate_model(
            ModelSpec("LeeML", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 3.0},
                      alpha=2.0, scales=(1.0, 2.0))
        )
        c = independent_counterpart(m)
        assert c.family is Family.LEE_ML
        # singleton hazard rate sum(lambda_i c_i^alpha) = 1 + 4 = 5
        t = 0.7
        assert series_metric(c, MetricKind.FR, t) == pytest.approx(
            2.0 * 5.0 * t, rel=1e-12
        )
        fd = finite_diff_metric(c, MetricKind.FR, t)
        assert fd == pytest.approx(2.0 * 5.0 * t, rel=1e-6)

    def test_aggregates_mome(self):
        m = mome({(1,): 1.0, (2,): 1.0, (1, 2): 1.0})
        assert m.rates.total == pytest.approx(3.0)

    def test_aggregates_mg1(self):
        m = validate_model(
            ModelSpec("MG1", 2, {(1,): 1.0, (2,): 2.0, (1, 2): 0.5})
        )
        assert tuple(m.rates.size_totals) == pytest.approx((3.0, 0.5))

    def test_aggregates_lee_ml(self):
        m = validate_model(
            ModelSpec("LeeML", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0},
                      alpha=1.0, scales=(1.0, 1.0))
        )
        assert m._lee_total == pytest.approx(3.0)

    def test_aggregate_inequalities(self, rng):
        for _ in range(10):
            m = random_model("MOME", 4, rng)
            assert m.rates.total >= float(m.rates.singleton_vector.sum()) - 1e-12
            g = random_model("MG1", 4, rng)
            assert all(a >= 0 for a in g.rates.size_totals)
            lee = random_model("LeeML", 3, rng)
            indep = independent_counterpart(lee)
            assert lee._lee_total >= indep._lee_total - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    lam1=st.floats(0.05, 5.0),
    lam2=st.floats(0.05, 5.0),
    lam12=st.floats(0.0, 5.0),
    t=st.floats(0.01, 50.0),
)
def test_mome_series_sf_property(lam1, lam2, lam12, t):
    m = mome({(1,): lam1, (2,): lam2, (1, 2): lam12})
    expected = math.exp(-(lam1 + lam2 + lam12) * t)
    assert series_metric(m, MetricKind.SF, t) == pytest.approx(expected, rel=1e-12)


class TestArrayKernel:
    GRID = np.geomspace(1e-3, 1e3, 100)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_array_matches_scalar(self, family, rng):
        # One kernel call over a t-array equals the scalar kernel per point.
        for n in range(2, 9):
            m = random_model(family, n, rng)
            h, dh = series_hazard(m, self.GRID)
            assert h.shape == dh.shape == self.GRID.shape
            for k, t in enumerate(self.GRID.tolist()):
                h1, dh1 = series_hazard(m, t)
                assert isinstance(h1, float) and isinstance(dh1, float)
                assert abs(h[k] - h1) <= 1e-14 * abs(h1)
                assert abs(dh[k] - dh1) <= 1e-14 * abs(dh1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_array_metrics_match_scalar(self, family, rng):
        grid = np.geomspace(1e-2, 1e2, 40)
        m = random_model(family, 3, rng)
        for metric in MetricKind:
            values = series_metric(m, metric, grid)
            for k, t in enumerate(grid.tolist()):
                assert values[k] == pytest.approx(
                    series_metric(m, metric, t), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_series_sf_is_joint_sf_on_diagonal(self, family, rng):
        # The series survival is joint_sf(t, ..., t), on both sides of t = 1.
        for n in (2, 3, 5):
            m = random_model(family, n, rng)
            for t in self.GRID.tolist():
                sf = series_metric(m, MetricKind.SF, t)
                joint = joint_sf(m, [t] * n)
                assert math.isclose(sf, joint, rel_tol=1e-9, abs_tol=1e-300)

    def test_momw_uses_smallest_shape_below_one(self):
        rates = {(1,): 0.3, (2,): 0.4, (3,): 0.3, (1, 2): 0.2, (1, 2, 3): 0.15}
        m = validate_model(ModelSpec("MOMW", 3, rates, shapes=(0.8, 1.4, 2.0)))
        assert series_metric(m, MetricKind.SF, 0.2) == pytest.approx(
            0.7918452474762495, rel=1e-12)
        # FR jumps at t = 1; the kernel gives the right derivative there.
        left = series_metric(m, MetricKind.FR, 1.0 - 1e-12)
        right = series_metric(m, MetricKind.FR, 1.0)
        assert left == pytest.approx(0.3 * 0.8 + 0.4 * 1.4 + 0.3 * 2.0
                                     + 0.2 * 0.8 + 0.15 * 0.8, rel=1e-9)
        assert right == pytest.approx(0.3 * 0.8 + 0.4 * 1.4 + 0.3 * 2.0
                                      + 0.2 * 1.4 + 0.15 * 2.0, rel=1e-12)
        terms = list(zip(*(a.tolist() for a in m._power_terms)))
        assert (0.2, 1.4, 0.8) in terms and (0.15, 2.0, 0.8) in terms

    def test_momw_fd_stays_on_one_side_of_the_kink(self):
        rates = {(1,): 0.3, (2,): 0.4, (3,): 0.3, (1, 2): 0.2, (1, 2, 3): 0.15}
        m = validate_model(ModelSpec("MOMW", 3, rates, shapes=(0.8, 1.4, 2.0)))
        for t in (1.0 - 3e-5, 1.0, 1.0 + 3e-5):
            for metric in (MetricKind.FR, MetricKind.RHR, MetricKind.AI):
                exact = series_metric(m, metric, t)
                fd = finite_diff_metric(m, metric, t)
                assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))

    def test_crowder_small_increment_does_not_cancel(self):
        # (g + s)^l - g^l with s << g: 1e-12 to full precision.
        m = validate_model(ModelSpec("Crowder", 1, {(1,): 2e-9}, shapes=(1.0,),
                                     gamma=1e6, stable_exponent=0.5))
        exact = 1e-12 * (1.0 - 0.25 * 2e-15)
        h, _ = series_hazard(m, 1.0)
        assert h == pytest.approx(exact, rel=1e-14)
        assert _joint_hazard(m, np.array([1.0])) == pytest.approx(exact,
                                                                  rel=1e-14)
        assert series_hazard(m, np.array([1.0]))[0][0] == pytest.approx(
            exact, rel=1e-14)

    def test_lee_ml_float_t_beyond_float_range(self):
        # t**alpha overflows: the float path gives the array path's 0.0
        m = validate_model(
            ModelSpec("LeeML", 2, {(1,): 0.5, (2,): 0.5, (1, 2): 0.4},
                      alpha=1e300, scales=(1.0, 1.0))
        )
        with np.errstate(over="ignore"):
            sf = series_metric(m, "sf", 1.5)
            err = closed_form_error(m, "sf", 1.5)
            assert sf == series_metric(m, "sf", np.array([1.5]))[0] == 0.0
            assert err == closed_form_error(m, "sf", np.array([1.5]))[0]

    @pytest.mark.parametrize("t", [1.5, np.array([1.2, 2.0])])
    def test_rhr_and_ai_where_hazard_is_inf(self, t):
        # t**alpha is inf, so H and H' are inf: RHR has its limit 0, and AI
        # is inf/inf
        m = validate_model(
            ModelSpec("LeeML", 2, {(1,): 0.5, (2,): 0.5, (1, 2): 0.4},
                      alpha=1e300, scales=(1.0, 1.0))
        )
        assert np.all(series_metric(m, "rhr", t) == 0.0)
        first = t if isinstance(t, float) else t[0]
        with pytest.raises(SingularityError, match=f"t={first}"):
            series_metric(m, "ai", t)

    def test_lu_bi_without_interaction_sf_at_infinity(self):
        m = validate_model(ModelSpec("LuBI", 2, {(1,): 1.0, (2,): 0.5},
                                     shapes=(1.5, 2.0), delta=0.0, m=1.5))
        assert series_metric(m, "sf", math.inf) == 0.0

    def test_array_t_rejects_nonpositive_and_2d(self):
        m = mome({(1,): 1.0, (2,): 1.0})
        with pytest.raises(DomainError, match="got 0.0"):
            series_hazard(m, np.array([1.0, 0.0, -1.0]))
        with pytest.raises(DomainError):
            series_hazard(m, np.ones((2, 2)))
