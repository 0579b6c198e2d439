"""Shock-model samplers, Monte Carlo estimates, and finite differences."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from deperr import (
    CapabilityError,
    DomainError,
    MetricKind,
    ModelSpec,
    SingularityError,
    estimate_system_sf,
    finite_diff_metric,
    parallel_sf_ie,
    sample_model,
    series_metric,
    validate_model,
)
from deperr.simulate import _BLOCK

from conftest import random_model

N_DRAWS = 200_000


def model_of(family, mapping, n, **params):
    return validate_model(ModelSpec(family, n, mapping, **params))


class TestSamplers:
    def test_exponential_mean(self):
        m = model_of("IndepExp", {(1,): 2.0}, 1)
        x = sample_model(m, N_DRAWS, 1)
        se = 0.5 / math.sqrt(N_DRAWS)
        assert abs(x.mean() - 0.5) < 3 * se

    def test_common_shock_identical(self):
        m = model_of("MOME", {(1, 2): 1.0}, 2)
        x = sample_model(m, 1000, 2)
        assert np.array_equal(x[:, 0], x[:, 1])

    def test_series_min_survival(self):
        m = model_of("MOME", {(1,): 1.0, (2,): 1.0, (1, 2): 1.0}, 2)
        x = sample_model(m, N_DRAWS, 3)
        p = float((x.min(axis=1) > 1.0).mean())
        target = math.exp(-3.0)
        se = math.sqrt(target * (1 - target) / N_DRAWS)
        assert abs(p - target) < 3 * se

    def test_momw_unit_shapes_match_mome(self):
        r = {(1,): 1.0, (2,): 0.5, (1, 2): 0.3}
        a = sample_model(model_of("MOME", r, 2), 1000, 4)
        b = sample_model(model_of("MOMW", r, 2, shapes=(1.0, 1.0)), 1000, 4)
        assert np.array_equal(a, b)

    def test_momw_weibull_survival(self):
        m = model_of("MOMW", {(1,): 1.0}, 1, shapes=(2.0,))
        x = sample_model(m, N_DRAWS, 5)
        p = float((x[:, 0] > 1.0).mean())
        target = math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / N_DRAWS)
        assert abs(p - target) < 3 * se

    def test_momw_power_coupling(self):
        m = model_of("MOMW", {(1,): 1e-9, (2,): 1e-9, (1, 2): 1.0}, 2,
                     shapes=(1.0, 2.0))
        x = sample_model(m, 2000, 6)
        # common shock: X2**2 equals X1 whenever the shock dominates
        assert np.allclose(x[:, 1] ** 2, x[:, 0], rtol=1e-9)

    def test_lee_reduces_to_mome(self):
        r = {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}
        a = sample_model(model_of("MOME", r, 2), 1000, 7)
        b = sample_model(model_of("LeeML", r, 2, alpha=1.0, scales=(1.0, 1.0)),
                         1000, 7)
        assert np.array_equal(a, b)

    def test_lee_scaled_mean(self):
        m = model_of("LeeML", {(1,): 1.0}, 1, alpha=1.0, scales=(2.0,))
        x = sample_model(m, N_DRAWS, 8)
        se = 0.5 / math.sqrt(N_DRAWS)
        assert abs(x.mean() - 0.5) < 3 * se

    def test_lee_series_survival(self):
        m = validate_model(
            ModelSpec("LeeML", 2, {(1,): 0.5, (2,): 0.5, (1, 2): 0.4},
                      alpha=1.5, scales=(1.0, 1.3))
        )
        x = sample_model(m, N_DRAWS, 9)
        t = 0.8
        p = float((x.min(axis=1) > t).mean())
        target = series_metric(m, MetricKind.SF, t)
        se = math.sqrt(target * (1 - target) / N_DRAWS)
        assert abs(p - target) < 3.5 * se

    def test_zero_draws_rejected(self):
        with pytest.raises(DomainError):
            sample_model(model_of("IndepExp", {(1,): 1.0}, 1), 0)

    def test_power_map_recovers_exponential_marginals(self):
        # KS two-sample: alpha-powered Weibull draws vs direct exponential
        r = {(1,): 0.7, (2,): 1.2, (1, 2): 0.5}
        shapes = (0.8, 2.2)
        n = 100_000
        weib = sample_model(model_of("MOMW", r, 2, shapes=shapes), n, 10)
        expo = sample_model(model_of("MOME", r, 2), n, 11)
        crit = 1.628 * math.sqrt(2.0 * n / (n * n))  # 1% two-sample critical
        for i in range(2):
            stat = stats.ks_2samp(weib[:, i] ** shapes[i], expo[:, i]).statistic
            assert stat < crit


class TestEstimates:
    def test_series_estimate_matches_closed_form(self):
        m = validate_model(ModelSpec("MOME", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0}))
        est = estimate_system_sf(m, "series", 1.0, N_DRAWS, 12)
        target = math.exp(-3.0)
        assert abs(est.value - target) < 3.5 * max(est.stderr, 1e-6)
        assert est.n_samples == N_DRAWS

    def test_parallel_estimate_matches_ie(self):
        m = validate_model(ModelSpec("MOME", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0}))
        est = estimate_system_sf(m, "parallel", 1.0, N_DRAWS, 13)
        target = parallel_sf_ie(m, 1.0).sf_ie
        assert abs(est.value - target) < 3.5 * max(est.stderr, 1e-6)

    def test_stderr_formula(self):
        m = validate_model(ModelSpec("IndepExp", 1, {(1,): 1.0}))
        est = estimate_system_sf(m, "series", 1.0, 10_000, 14)
        assert est.stderr == pytest.approx(
            math.sqrt(est.value * (1 - est.value) / 10_000)
        )

    def test_zero_draws_rejected(self):
        m = validate_model(ModelSpec("IndepExp", 1, {(1,): 1.0}))
        with pytest.raises(DomainError):
            estimate_system_sf(m, "series", 1.0, 0)

    @pytest.mark.parametrize("family", ["MG1", "Crowder", "LuBI"])
    def test_unsamplable_families(self, family, rng):
        m = random_model(family, 2, rng)
        with pytest.raises(CapabilityError, match="finite_diff"):
            estimate_system_sf(m, "series", 1.0, 100)

    @pytest.mark.parametrize("structure", ["series", "parallel"])
    def test_blocks_match_stacked_draws(self, structure):
        # two full blocks and a partial one, counted per block
        m = model_of("LeeML", {(1,): 0.3, (2,): 0.4, (3,): 0.3, (2, 3): 0.2},
                     3, alpha=1.5, scales=(0.9, 1.1, 1.3))
        draws = 2 * _BLOCK + 17
        x = sample_model(m, draws, 16)
        life = x.min(axis=1) if structure == "series" else x.max(axis=1)
        ts = [0.3, float(life[-1]), 0.8, 1.5]  # one t ties a drawn lifetime
        est = estimate_system_sf(m, structure, np.array(ts), draws, 16)
        assert est.value.tolist() == [
            float(np.mean(life > t)) for t in ts
        ]

    def test_array_t_equals_float_t(self):
        m = model_of("MOMW", {(1,): 0.7, (2,): 1.2, (1, 2): 0.5}, 2,
                     shapes=(0.8, 2.2))
        ts = np.geomspace(0.1, 3.0, 9)
        est = estimate_system_sf(m, "parallel", ts, 10_000, 17)
        for k, t in enumerate(ts.tolist()):
            one = estimate_system_sf(m, "parallel", t, 10_000, 17)
            assert type(one.value) is float and type(one.stderr) is float
            assert (one.value, one.stderr) == (est.value[k], est.stderr[k])

    def test_memory_bounded_by_block(self):
        # the (1e6, 24) lifetime matrix alone would take 192 MB
        n = 24
        rates = {(i,): 0.1 for i in range(1, n + 1)}
        rates[tuple(range(1, n + 1))] = 0.05
        m = model_of("MOME", rates, n)
        tracemalloc.start()
        try:
            estimate_system_sf(m, "series", 1.0, 1_000_000, 18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_bit_identical_reruns(self):
        m = validate_model(ModelSpec("MOME", 3, {(1,): 0.5, (2,): 0.5, (3,): 0.5,
                                                  (1, 2, 3): 0.7}))
        a = estimate_system_sf(m, "series", 0.9, 50_000, 15)
        b = estimate_system_sf(m, "series", 0.9, 50_000, 15)
        assert a == b


class TestFiniteDifference:
    def test_indep_exp_fr(self):
        m = validate_model(
            ModelSpec("IndepExp", 3, {(1,): 1.0, (2,): 2.0, (3,): 3.0})
        )
        assert finite_diff_metric(m, MetricKind.FR, 1.0) == pytest.approx(
            6.0, rel=1e-6
        )

    def test_lee_ml_ai(self, rng):
        m = random_model("LeeML", 3, rng)
        for t in (0.3, 1.0, 2.0):
            assert finite_diff_metric(m, MetricKind.AI, t) == pytest.approx(
                m.alpha, rel=1e-6
            )

    def test_crowder_weibull_reduction(self):
        m = validate_model(
            ModelSpec("Crowder", 1, {(1,): 1.0}, shapes=(2.0,), gamma=0.0,
                      stable_exponent=1.0)
        )
        assert finite_diff_metric(m, MetricKind.FR, 1.0) == pytest.approx(
            2.0, rel=1e-6
        )

    def test_rhr_matches_closed(self, rng):
        for family in ("MOME", "MG1", "LuBI"):
            m = random_model(family, 2, rng)
            for t in (0.5, 1.5):
                fd = finite_diff_metric(m, MetricKind.RHR, t)
                closed = series_metric(m, MetricKind.RHR, t)
                assert fd == pytest.approx(closed, rel=1e-5)

    def test_subnormal_sf_rejected(self):
        # H = 740 > 708: SF is subnormal and its log too coarse to difference
        m = validate_model(ModelSpec("IndepExp", 1, {(1,): 1.0}))
        assert finite_diff_metric(m, MetricKind.FR, 700.0) == pytest.approx(
            1.0, rel=1e-5
        )
        with pytest.raises(SingularityError):
            finite_diff_metric(m, MetricKind.FR, 740.0)

    def test_sf_not_supported(self, rng):
        m = random_model("MOME", 2, rng)
        with pytest.raises(DomainError):
            finite_diff_metric(m, MetricKind.SF, 1.0)
