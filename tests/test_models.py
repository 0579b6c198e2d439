"""Model validation, joint survival, and series metrics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deperr import (
    DepErrError,
    DomainError,
    Family,
    MetricKind,
    ModelSpec,
    SingularityError,
    ValidationError,
    closed_form_error,
    independent_counterpart,
    joint_sf,
    relative_error,
    series_hazard,
    series_metric,
    validate_model,
)
from deperr.models import _joint_hazard, mask_members, mask_to_subset
from deperr.simulate import finite_diff_metric

from conftest import ALL_FAMILIES, random_model


def mome(rates, n=2):
    return validate_model(ModelSpec("MOME", n, rates))


SINGLES = {(1,): 1.0, (2,): 1.0}
SHOCK = {**SINGLES, (1, 2): 0.2}
# a valid two-component spec of each family, with every parameter it takes
VALID_PARAMS = {
    "IndepExp": {"rates": SINGLES},
    "MOME": {"rates": SHOCK},
    "MG1": {"rates": SHOCK},
    "IndepWeibull": {"rates": SINGLES, "shapes": (1.5, 2.0)},
    "MOMW": {"rates": SHOCK, "shapes": (1.5, 2.0)},
    "Crowder": {"rates": SINGLES, "shapes": (1.5, 2.0), "gamma": 0.5,
                "stable_exponent": 0.5},
    "LeeII": {"rates": SINGLES, "shapes": (1.5, 2.0), "gamma": 0.0,
              "stable_exponent": 0.5},
    "LeeML": {"rates": SHOCK, "alpha": 1.5, "scales": (1.0, 2.0)},
    "LuBI": {"rates": SINGLES, "shapes": (1.5, 2.0), "delta": 0.5, "m": 1.5},
}
# a value of each parameter that a family taking it would accept
PARAM_VALUES = {"shapes": (1.5, 2.0), "gamma": 0.5, "stable_exponent": 0.5,
                "alpha": 1.5, "scales": (1.0, 2.0), "delta": 0.5, "m": 1.5}
FOREIGN = [(family, field) for family, params in VALID_PARAMS.items()
           for field in PARAM_VALUES if field not in params]
assert len(FOREIGN) == 50


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

    @pytest.mark.parametrize("rates,message", [
        ({(1,): 1.0, (2,): 1.0, (1, 1.5): 0.5},
         "rates: subset index 1.5 is not an integer"),
        ({1: 1.0, 2: 1.0, 4: 0.5},
         "rates[4]: bitmask outside nonempty subsets of 1..2"),
        ({(1,): 1.0, (2,): 1.0, (): 0.5}, "rates[()]: empty subset"),
        ([((1, 2), 1.0), ((2, 1), 0.5), ((1,), 1.0), ((2,), 1.0)],
         "rates[(1, 2)]: duplicate subset"),
    ], ids=["index", "bitmask", "empty", "duplicate"])
    def test_malformed_subset_named(self, rates, message):
        with pytest.raises(ValidationError) as exc:
            mome(rates)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rates", [
        5, [(1.5, 1.0)], [(None, 1.0)], {1.5: 1.0},  # no pairs, no subset
        "ab", [(1, 2, 3)], [((1,),)],  # a pair that is not two
        [(True, 1.0)],  # a bool is not a bitmask, as it is not an index
    ], ids=["int", "float-key", "none-key", "float-mapping-key", "str",
            "triple", "single", "bool-key"])
    def test_malformed_rates_named(self, rates):
        with pytest.raises(ValidationError, match=r"^rates: not \(subset, "
                                                  r"rate\) pairs: "):
            validate_model(ModelSpec("MOME", 2, rates))

    def test_bitmask_key_is_its_subset(self):
        assert mome({1: 1.0, 2: 1.0, 3: 0.5}) == mome(
            {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})

    @pytest.mark.parametrize("family", ["Crowder", "LeeII"])
    def test_stable_exponent_required(self, family):
        with pytest.raises(ValidationError) as exc:
            validate_model(ModelSpec(family, 2, {(1,): 1.0, (2,): 1.0},
                                     shapes=(1.0, 1.0)))
        assert str(exc.value) == "stable_exponent (l): required for this family"

    @pytest.mark.parametrize("family,field", FOREIGN)
    def test_each_foreign_parameter_named(self, family, field):
        spec = ModelSpec(family, 2, **VALID_PARAMS[family])
        validate_model(spec)  # valid without the foreign field
        setattr(spec, field, PARAM_VALUES[field])
        with pytest.raises(ValidationError) as exc:
            validate_model(spec)
        label = {"stable_exponent": "stable_exponent (l)",
                 "scales": "scales (c)"}.get(field, field)
        assert str(exc.value) == f"{label}: not a parameter of this family"


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

    @pytest.mark.parametrize("spec,x", [
        (ModelSpec("LuBI", 1, {(1,): 1.0}, shapes=(2.0,), delta=0.5, m=2.0),
         [1e160]),  # u**m
        (ModelSpec("Crowder", 2, {(1,): 1.0, (2,): 0.5}, shapes=(2.0, 1.0),
                   gamma=0.5, stable_exponent=3.0), [1e60, 1.0]),  # (g + s)**3
        (ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}),
         [1e200, 1e200]),  # product
        (ModelSpec("MOME", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}),
         [1e308, 1e308]),  # sum
        (ModelSpec("MG1", 3, {(1,): 1.0, (2,): 1.0, (3,): 1.0,
                              (1, 2, 3): 0.5}),
         [1e200, 1e200, 0.0]),  # a shock's product inf * 0 was nan
    ], ids=["LuBI", "Crowder", "MG1", "MOME", "MG1-zero"])
    def test_hazard_beyond_float_range_is_quiet_zero(self, spec, x):
        # was a bare OverflowError (LuBI, Crowder) or a RuntimeWarning
        m = validate_model(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert joint_sf(m, x) == 0.0

    def test_counterpart_with_no_rates_never_fails(self):
        # LeeML's counterpart keeps the singleton rates, here none
        m = validate_model(ModelSpec("LeeML", 2, {(1, 2): 1.0}, alpha=1.5,
                                     scales=(1.0, 2.0)))
        assert joint_sf(independent_counterpart(m), [1.0, 2.0]) == 1.0

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
        # the closed forms read a_1, the singleton sum, and the rest as H
        m = validate_model(
            ModelSpec("MG1", 2, {(1,): 1.0, (2,): 2.0, (1, 2): 0.5})
        )
        assert sum(m.rates.singleton_vector.tolist()) == 3.0
        assert series_metric(m, MetricKind.FR, 2.0) == 3.0 + 2 * 0.5 * 2.0

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
            assert (g.rates.singleton_vector >= 0).all()
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
        # a shock's term takes its smallest member shape for t < 1 and its
        # largest for t >= 1; the weights of equal exponents are summed
        below, above = ({e: w for w, e, *_ in table}
                        for table in m._term_tables)
        assert below == pytest.approx({0.8: 0.65, 1.4: 0.4, 2.0: 0.3})
        assert above == pytest.approx({0.8: 0.3, 1.4: 0.6, 2.0: 0.45})

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


def test_mg1_product_at_infinity():
    # a_2 = 0 times inf**2 was nan; H' is sum_p p * a_p * t**(p - 1)
    m = validate_model(ModelSpec("MG1", 2, {(1,): 1.0, (2,): 2.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (math.inf, np.array([math.inf])):
            assert series_metric(m, "sf", t) == 0.0
            assert series_metric(m, "fr", t) == 3.0


@pytest.mark.parametrize("spec,limit", [
    (ModelSpec("IndepWeibull", 2, {(1,): 1.0, (2,): 0.5}, shapes=(1.5, 0.5)),
     math.inf),
    (ModelSpec("IndepWeibull", 2, {(1,): 1.0, (2,): 0.5}, shapes=(1.0, 0.5)),
     1.0),
    (ModelSpec("IndepWeibull", 2, {(1,): 1.0, (2,): 0.5}, shapes=(0.8, 0.5)),
     0.0),
    (ModelSpec("MOMW", 2, {(1,): 1.0, (2,): 0.5, (1, 2): 0.5},
               shapes=(1.0, 0.5)), 1.5),
    (ModelSpec("MOMW", 2, {(1,): 1.0, (2,): 0.5, (1, 2): 0.5},
               shapes=(2.0, 0.5)), math.inf),
    (ModelSpec("LeeML", 2, {(1,): 1.0, (2,): 0.5, (1, 2): 0.5}, alpha=1.0,
               scales=(1.0, 2.0)), 3.0),
    (ModelSpec("LeeML", 2, {(1,): 1.0, (2,): 0.5, (1, 2): 0.5}, alpha=0.5,
               scales=(1.0, 2.0)), 0.0),
    (ModelSpec("Crowder", 2, {(1,): 1.0, (2,): 0.5}, shapes=(1.5, 0.5),
               gamma=0.5, stable_exponent=0.5), 0.0),
    (ModelSpec("LeeII", 2, {(1,): 1.0, (2,): 0.5}, shapes=(2.0, 0.5),
               stable_exponent=0.5), 1.0),
    (ModelSpec("LuBI", 2, {(1,): 1.0, (2,): 0.5}, shapes=(1.5, 0.5),
               delta=0.5, m=0.8), math.inf),
    (ModelSpec("LuBI", 2, {(1,): 1.0, (2,): 0.5}, shapes=(1.0, 0.5),
               delta=0.5, m=2.0), 1.5),
])
def test_fr_limit_at_infinity(spec, limit):
    # H' = sum w * e * t**e / t was inf/inf at t = inf, and Crowder, LeeII
    # and LuBI met 0 * inf in the chain rule on top of it; the limit is
    # inf, or the weights of exponent 1, or 0, and on top of a power sum
    # with leading term w * t**e, l * e * w**l * t**(l * e - 1) decides
    m = validate_model(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert series_metric(m, "fr", math.inf) == limit
        fr = series_metric(m, "fr", np.array([2.0, math.inf]))
        assert fr[1] == limit
        assert fr[0] == pytest.approx(series_metric(m, "fr", 2.0), rel=1e-14)


@pytest.mark.parametrize("spec,h,dh", [
    (ModelSpec("LeeII", 1, {(1,): 1.0}, shapes=(2.0,), stable_exponent=0.5),
     1e100, 1.0),
    (ModelSpec("Crowder", 1, {(1,): 1.0}, shapes=(2.0,), gamma=0.5,
               stable_exponent=0.5), 1e100, 1.0),
    (ModelSpec("LuBI", 1, {(1,): 1.0}, shapes=(1.0,), delta=0.5, m=0.5),
     1.5e100, 1.5),
])
def test_root_of_overflowed_sum_is_an_error(spec, h, dh):
    # at 1e200 the sum under the root (t**2, or LuBI's u = t**(1 / m))
    # exceeds the float range where H does not: a quiet inf gave LeeII
    # (inf, 0.0), and so FR 0, where the truth is (1e200, 1.0)
    m = validate_model(spec)
    # power_gap exponentiates ell * log1p(s / g) = 230: 5e-14 relative
    assert series_hazard(m, 1e100) == pytest.approx((h, dh), rel=1e-12)
    for t in (1e200, np.array([2.0, 1e200])):
        for fn in (series_hazard, lambda m, t: series_metric(m, "fr", t)):
            with pytest.raises(DomainError, match=r"t=1e\+200"):
                fn(m, t)


@pytest.mark.parametrize("spec,t,zero_base", [
    (ModelSpec("LeeII", 1, {(1,): 1.0}, shapes=(50.0,), stable_exponent=0.5),
     1e-10, True),
    (ModelSpec("Crowder", 1, {(1,): 1.0}, shapes=(50.0,), gamma=0.0,
               stable_exponent=0.5), 1e-10, True),
    (ModelSpec("Crowder", 1, {(1,): 1.0}, shapes=(50.0,), gamma=0.5,
               stable_exponent=0.5), 1e-10, False),
    (ModelSpec("LuBI", 1, {(1,): 1.0}, shapes=(50.0,), delta=0.5, m=0.5),
     1e-4, True),
    (ModelSpec("LeeML", 2, {(1,): 0.5, (2,): 0.5, (1, 2): 0.4}, alpha=60.0,
               scales=(1.0, 1.01)), 1e-6, False),
], ids=["LeeII", "Crowder-g0", "Crowder-g0.5", "LuBI", "LeeML"])
def test_root_of_underflowed_sum(spec, t, zero_base):
    # t**50 (LuBI's u = t**100) underflows to 0: a root's derivative took
    # 0.0 ** -0.5, a bare ZeroDivisionError for a float t and nan with a
    # RuntimeWarning for an array; the Crowder/LeeII closed forms read the
    # sum s = 0 (FR and RHR gave -0.29 where the generic error raises), and
    # the LeeML forms t**60 = 0 (RHR 0.516 where its limit is 0, FR 0.516
    # and AI 0.0 where the generic error raises)
    m = validate_model(spec)

    def outcome(fn, *args):
        try:
            return fn(*args)
        except DepErrError as exc:  # compared by class
            return type(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (t, np.array([0.5, t])):
            if zero_base:
                fns = [series_hazard] + [
                    lambda m, x, k=k: series_metric(m, k, x)
                    for k in ("sf", "fr", "rhr", "ai")]
                for fn in fns:
                    with pytest.raises(DomainError, match=f"t={t}"):
                        fn(m, x)
            if spec.family == "LuBI":
                continue  # no closed form
            for metric in MetricKind:
                closed = outcome(closed_form_error, m, metric, x)
                generic = outcome(relative_error, m, metric, x)
                if isinstance(x, float) or isinstance(closed, type):
                    assert closed == generic, (metric, x)
                else:  # the closed form at 0.5, the generic error at t
                    assert closed[1] == generic[1]
                    assert closed[0] == pytest.approx(generic[0], rel=1e-12)


def test_tiny_gamma_gap_is_finite():
    # s / gamma = 1e310 leaves the float range where H = (gamma + t)**0.1
    # - gamma**0.1 = 10 does not: a quiet inf gave SF 0.0, and AI raised
    # SingularityError
    m = validate_model(ModelSpec("Crowder", 1, {(1,): 1.0}, shapes=(1.0,),
                                 gamma=1e-300, stable_exponent=0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e10, np.array([2.0, 1e10])):
            h, dh = (np.atleast_1d(v)[-1] for v in series_hazard(m, t))
            assert (h, dh) == pytest.approx((10.0, 1e-10), rel=1e-14)
            sf, ai = (np.atleast_1d(series_metric(m, k, t))[-1]
                      for k in ("sf", "ai"))
            assert (sf, ai) == pytest.approx((math.exp(-10.0), 0.1), rel=1e-13)
        assert joint_sf(m, [1e10]) == pytest.approx(math.exp(-10.0), rel=1e-13)
        assert closed_form_error(m, "ai", 1e10) == pytest.approx(-0.9, rel=1e-13)


def test_ai_where_t_times_hazard_slope_overflows():
    # t * H' = 2 * t**2 overflows at t = 1.26e154 while H = t**2 does not:
    # AI is t * (H' / H) there, the shape 2, not inf
    m = validate_model(ModelSpec("IndepWeibull", 1, {(1,): 1.0}, shapes=(2.0,)))
    t = np.array([0.5, 1.26e154, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert series_metric(m, "ai", 1.26e154) == pytest.approx(2.0, rel=1e-15)
        ai = series_metric(m, "ai", t)
    assert ai == pytest.approx([2.0, 2.0, 2.0], rel=1e-15)
    assert ai[0] == 0.5 * series_hazard(m, 0.5)[1] / series_hazard(m, 0.5)[0]


def test_mask_members_are_the_set_bits_in_order():
    for mask in [*range(1, 1 << 12), (1 << 24) - 1, 1 << 23, 0b1010 << 20]:
        expected = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        assert mask_members(mask) == expected
        assert mask_to_subset(mask) == tuple(i + 1 for i in expected)
    assert mask_members(0) == ()
