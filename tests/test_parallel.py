"""Inclusion-exclusion parallel survival and compact closed forms."""

import math
import sys
import warnings
from decimal import Decimal, localcontext
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import pytest

from deperr import (
    DomainError,
    Family,
    MetricKind,
    ModelSpec,
    independent_counterpart,
    joint_sf,
    parallel_relative_error,
    parallel_sf_closed,
    parallel_sf_ie,
    series_metric,
    validate_model,
)
from deperr.exceptions import ZeroDenominatorError
from deperr.models import (_REDUCE, _combine, _coordinates, _joint_hazard,
                           _parts, _quiet)
from deperr.parallel import (
    _HALF,
    _ROWS,
    _conditioned_sf,
    _hazard_chunks,
    _ie_sum,
    _incidence_sf,
    _subsets,
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


SINGLES = {(1,): 0.4, (2,): 0.7, (3,): 1.1}
WEIBULL = {"shapes": (0.8, 1.5, 2.0)}


def test_relative_error_zero_without_interactions(rng):
    # no dependence: the IE value is its own reference, also where the
    # counterpart is another family (MOME -> IndepExp, MOMW -> IndepWeibull)
    models = [random_model("IndepExp", 3, rng)] + [
        validate_model(ModelSpec(family, 3, SINGLES, **extra))
        for family, extra in [
            ("MOME", {}), ("MG1", {}), ("IndepWeibull", WEIBULL),
            ("MOMW", WEIBULL), ("LeeML", {"alpha": 1.5, "scales": (1, 2, 1)}),
            ("LuBI", {**WEIBULL, "delta": 0.0, "m": 1.5}),
        ]
    ]
    for m in models:
        for t in (0.3, 1.0, 4.0):
            assert parallel_relative_error(m, t) == 0.0, m.family


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
    with pytest.raises(DomainError) as exc:
        parallel_sf_closed(m, -1.0)
    assert str(exc.value) == "t must be > 0, got -1.0"


def test_relative_error_refused_where_independent_sf_is_0():
    m = validate_model(ModelSpec("MOME", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}))
    with pytest.raises(ZeroDenominatorError) as exc:
        parallel_relative_error(m, 1e3)
    assert str(exc.value) == "independent-counterpart parallel sf is 0 at t=1000.0"


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


def test_mg1_huge_t_underflows_to_zero(rng):
    # a shock's product over t * 1_S was inf * 0 in some orders (nan), and
    # the compact form's t**|T| warned of overflow
    models = [validate_model(
        ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.3}))]
    models += [random_model("MG1", n, rng) for n in range(2, 10)]
    for m in models:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = parallel_sf_ie(m, 1e200)
        assert (result.sf_ie, result.error_bound, result.sf_closed) == (
            0.0, 0.0, 0.0), m.n


def test_mg1_infinite_t_is_zero():
    m = validate_model(ModelSpec("MG1", 2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = parallel_sf_ie(m, math.inf)
    assert result.sf_ie == 0.0
    assert result.error_bound == 0.0
    assert result.sf_closed == 0.0


def test_zero_rate_component_infinite_t_is_one():
    # the counterpart is IndepExp with lambda_2 = 0: X_2 never fails, and
    # the compact form took 0 * inf for the subset {2}
    m = validate_model(ModelSpec("MOME", 2, {(1,): 1.0, (1, 2): 1.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = parallel_sf_ie(independent_counterpart(m), math.inf)
    assert (result.sf_ie, result.sf_closed) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# The independent side in O(n), and the masked kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_product_form_matches_ie_on_counterpart(family, rng):
    # IE on the counterpart is the oracle, to within its own bound
    for n in range(1, 13):
        indep = independent_counterpart(
            random_model(family, n, rng, require_interaction=n > 1))
        for t in (0.05, 0.5, 2.0, 20.0):
            ie, bound = _ie_sum(indep, t)
            assert abs(_conditioned_sf(indep, t) - ie) <= bound


def test_product_form_zero_rate_component():
    # the counterpart is IndepExp with lambda_2 = 0: X_2 never fails
    m = validate_model(ModelSpec("MOME", 2, {(1,): 1.0, (1, 2): 1.0}))
    indep = independent_counterpart(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _conditioned_sf(indep, 0.7) == 1.0
        dep = parallel_sf_ie(m, 0.7).sf_ie
        assert parallel_relative_error(m, 0.7) == dep - 1.0


def test_product_form_every_hazard_overflowing():
    m = validate_model(ModelSpec("IndepWeibull", 2, {(1,): 1.0, (2,): 1.0},
                                 shapes=(1.5, 2.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _conditioned_sf(m, 1e200)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0  # not -0.0


@pytest.mark.parametrize("spec", [
    ModelSpec("IndepExp", 3, {(1,): 0.4, (2,): 0.7, (3,): 1.1}),
    ModelSpec("LuBI", 2, {(1,): 1.0, (2,): 0.5}, shapes=(1.5, 2.0),
              delta=0.0, m=1.5),
])
def test_own_counterpart_error_is_exactly_zero(spec):
    # the counterpart cache hands the second, equal model the object it
    # gave the first, so an identity test would tell the two apart
    first, second = validate_model(spec), validate_model(spec)
    assert first == second and first is not second
    assert independent_counterpart(second) is independent_counterpart(first)
    for m in (first, second):
        assert parallel_relative_error(m, 0.9) == 0.0


FAMILY_PARAMS = [(f, t) for f in ALL_FAMILIES for t in (0.3, 1.0, 4.0)] + [
    (f, 1e200) for f in ("MG1", "IndepWeibull", "MOMW", "Crowder", "LeeII",
                         "LeeML", "LuBI")
]


def _pass_hazards(model, t):
    """The IE pass's hazards and signs over the masks 1..2^n - 1, in order."""
    hazards, signs = zip(*_hazard_chunks(model, np.full(model.n, t)))
    return np.concatenate(hazards), np.concatenate(signs)


def _split_model(family, n, rng):
    """A model over both halves of a mask (n > 12): random singletons and,
    for the shock families, shocks {3, 4} (in the low half only), {1, n},
    {2, n - 1, n} and the global one (MG1's at a fifth of its members'
    singleton product), and then no singleton rate for component n, so
    that at n = 13 the high half holds none."""
    singles = {(i,): float(rng.uniform(0.05, 1.5)) for i in range(1, n + 1)}
    rates, kw = dict(singles), {}
    if family in ("MOME", "MG1", "MOMW", "LeeML"):
        for shock in ((3, 4), (1, n), (2, n - 1, n), tuple(range(1, n + 1))):
            rates[shock] = (0.2 * math.prod(singles[(i,)] for i in shock)
                            if family == "MG1" else float(rng.uniform(0.05, 1.5)))
        del rates[(n,)]
    if family in ("IndepWeibull", "MOMW", "Crowder", "LeeII", "LuBI"):
        kw["shapes"] = tuple(float(rng.uniform(0.6, 2.5)) for _ in range(n))
    kw.update({"Crowder": {"gamma": 0.4, "stable_exponent": 0.7},
               "LeeII": {"stable_exponent": 0.6},
               "LeeML": {"alpha": 1.3, "scales": tuple(1.0 + 0.05 * i
                                                       for i in range(n))},
               "LuBI": {"delta": 0.5, "m": 1.4}}.get(family, {}))
    return validate_model(ModelSpec(family, n, rates, **kw))


@pytest.mark.parametrize("family,t", FAMILY_PARAMS)
def test_masked_kernel_matches_explicit_batch(family, t, rng):
    # up to 12 components the pass gathers the explicit batch of all 2^n
    # masks itself; at 13 its two halves regroup the sums and MG1's products
    exact = family in ("IndepExp", "MOME", "MG1")
    models = [random_model(family, n, rng, require_interaction=n > 1)
              for n in range(1, 9)] + [_split_model(family, 13, rng)]
    if family in ("MOME", "MG1"):  # shocks only, {13, 14} in the high half only
        models.append(validate_model(ModelSpec(family, 14, {
            tuple(range(1, 8)): 0.4, tuple(range(7, 15)): 0.3, (13, 14): 0.2})))
    for m in models:
        masks = np.arange(1 << m.n)
        inside = (masks[:, None] >> np.arange(m.n) & 1) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no nan: no invalid value
            hazards, _ = _pass_hazards(m, t)
            explicit = _joint_hazard(m, np.where(inside, t, 0.0))[1:]
        assert not np.isnan(hazards).any()
        if exact and m.n <= 8:
            assert hazards.tobytes() == explicit.tobytes()
        else:
            np.testing.assert_allclose(hazards, explicit, rtol=1e-14)
    # and one point at a time, each subset's reduce in one reduceat
    for row in (1, 12, 4095, 4096, 4108, 6147, 8190):
        point = np.where(inside[row + 1], t, 0.0)
        np.testing.assert_allclose(hazards[row], _joint_hazard(m, point), rtol=1e-14)


@pytest.mark.parametrize("family", ["IndepWeibull", "MOMW", "LuBI"])
def test_ie_at_huge_t_is_quiet_zero(family, rng):
    m = random_model(family, 4, rng, require_interaction=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parallel_sf_ie(m, 1e200).sf_ie == 0.0


@pytest.mark.parametrize("family,params", [
    ("MOMW", {"shapes": (1.5, 2.0)}),
    ("LeeML", {"alpha": 2.0, "scales": (1.0, 1.3)}),
])
def test_component_without_singleton_rate_at_huge_t(family, params):
    # component 2 fails only by the shared shock, so its counterpart never
    # fails; at 1e200 its power is inf, and the singleton term took 0 * inf
    m = validate_model(ModelSpec(family, 2, {(1,): 1.0, (1, 2): 1.0},
                                 **params))
    indep = independent_counterpart(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = parallel_sf_ie(m, 1e200)
        assert (result.sf_ie, result.error_bound) == (0.0, 0.0)
        assert _conditioned_sf(indep, 1e200) == 1.0
        assert parallel_relative_error(m, 1e200) == -1.0
        assert joint_sf(indep, [1e200, 1e200]) == 0.0


def test_subset_table_is_read_only_and_bounded():
    # one table per bit count k <= 12 of a half serves every n <= 24
    assert _subsets.cache_info().maxsize == 13
    for k in (0, 3, 12):
        members, signs = _subsets(k)
        assert members.shape == (1 << k, k) and signs.shape == (1 << k,)
        assert members.flags.c_contiguous
        for table in (members, signs):
            with pytest.raises(ValueError):
                table[0] = table[0]


@pytest.mark.parametrize("n", [1, 12, 13, 14])
def test_mask_chunks_cover_every_subset_once(n):
    # lambda_i = 2^(i-1) at t = 1: H_S is the mask of S, exactly, in any order
    m = validate_model(ModelSpec("IndepExp", n, {(i,): 2.0 ** (i - 1)
                                                 for i in range(1, n + 1)}))
    hazards, signs = _pass_hazards(m, 1.0)
    masks = np.arange(1, 1 << n)
    assert (hazards == masks).all() and hazards.size == masks.size
    sizes = np.array([mask.bit_count() for mask in masks.tolist()])
    assert (signs == np.where(sizes % 2 == 1, 1.0, -1.0)).all()


def _sparse_models(n):
    """A MOME model (IE and compact form) and a LuBI model (IE only)."""
    singles = {(i,): 0.05 + 0.1 * i for i in range(1, n + 1)}
    shocks = {(1, n): 0.3, tuple(range(2, n + 1, 3)): 0.2}
    shapes = tuple(0.8 + 0.1 * i for i in range(n))
    return [validate_model(ModelSpec("MOME", n, {**singles, **shocks})),
            validate_model(ModelSpec("LuBI", n, singles, shapes=shapes,
                                     delta=0.4, m=1.3))]


def _ie_bytes(models, t=0.7):
    out = []
    for m in models:
        r = parallel_sf_ie(m, t)
        out.append((r.sf_ie.hex(), r.sf_closed, r.error_bound.hex()))
    return out


@pytest.mark.parametrize("n", [13, 14, 16])  # 2, 4 and 16 high masks: 16 has two chunks
def test_ie_same_bytes_on_repeat(n):
    models = _sparse_models(n)
    first = _ie_bytes(models)
    assert _ie_bytes(models) == first
    assert first[0][1] == pytest.approx(float.fromhex(first[0][0]), rel=1e-12)


def test_ie_same_bytes_when_n_interleaves():
    big, small = _sparse_models(14), _sparse_models(9)
    first = _ie_bytes(big)
    small_first = _ie_bytes(small)
    assert _ie_bytes(big) == first
    assert _ie_bytes(small) == small_first


def _per_chunk_hazard_chunks(model, x):
    """The IE pass as it took the low half's parts once per chunk, with an
    empty high half (one mask, no components) up to 12 components: the
    reference for the pass that takes them once."""
    n, join = model.n, _REDUCE.get(model.family, np.add)
    bits = min(n, _HALF)
    (index, signs), (top_index, tops) = _subsets(bits), _subsets(n - bits)
    for start in range(0, tops.size, _ROWS):
        top = slice(start, start + _ROWS)
        with _quiet(model):
            ends = [np.append(c, 0.0) for c in _coordinates(model, x)]
            high = _parts(model, [e[bits:][top_index[top]] for e in ends], bits)
            low = _parts(model, [e[index] for e in ends])
            joined = (lo if hi is None else hi[:, None] if lo is None
                      else ufunc(hi[:, None], lo)
                      for ufunc, hi, lo in zip(chain([np.add], repeat(join)), high, low))
            hazard = _combine(model, joined).ravel()
        empty = int(start == 0)
        yield hazard[empty:], np.multiply.outer(-tops[top], signs).ravel()[empty:]


def _chunk_bytes(chunks):
    return [(hazard.tobytes(), signs.tobytes()) for hazard, signs in chunks]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_low_half_once_is_the_per_chunk_pass(family, rng):
    # the same chunks, to the byte, with and without a high half
    models = [random_model(family, n, rng, require_interaction=n > 1)
              for n in (1, 8, 12)]
    models += [_split_model(family, n, rng) for n in (13, 14, 16)]
    for m in models:
        for t in (0.3, 1.0, 4.0, 1e200):
            x = np.full(m.n, t)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _chunk_bytes(_hazard_chunks(m, x))
                assert got == _chunk_bytes(_per_chunk_hazard_chunks(m, x)), (m.n, t)


@pytest.mark.parametrize("n", [13, 14, 16])
def test_low_half_nan_products_stay_in_their_chunk(n):
    # MG1's {1, 2, 3} lies in the low half: at 1e200 its product over a
    # mask holding 1 and 2 but not 3 is inf * 0, a nan that `_combine`
    # turns into 0 in place on the low part every chunk shares
    rates = {(i,): 0.1 + 0.01 * i for i in range(1, n + 1)}
    rates.update({(1, 2, 3): 1e-3, (2, n): 1e-2, tuple(range(1, n + 1)): 1e-9})
    m = validate_model(ModelSpec("MG1", n, rates))
    x = np.full(n, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _chunk_bytes(_hazard_chunks(m, x))
        want = _chunk_bytes(_per_chunk_hazard_chunks(m, x))
        assert got == want
        assert parallel_sf_ie(m, 1e200).sf_ie == 0.0
    assert not any(np.isnan(np.frombuffer(h)).any() for h, _ in got)


INDEPENDENT_TIMES = (1e-300, 1e-6, 0.5, 2.0, 1e6, 1e200)


def _odd_singletons_model(family, n, rng):
    """A shock family with singleton rates on the odd components only, each
    even component i failing by the shock {i - 1, i} alone, so that its
    counterpart never fails (the CI's momw_shock.json at n = 2)."""
    rates = {(i,): float(rng.uniform(0.05, 1.5)) for i in range(1, n + 1, 2)}
    rates.update({(i - 1, i): float(rng.uniform(0.05, 1.5))
                  for i in range(2, n + 1, 2)})
    kw = {"MOMW": {"shapes": tuple(float(rng.uniform(0.6, 2.5))
                                   for _ in range(n))},
          "LeeML": {"alpha": 1.3, "scales": tuple(1.0 + 0.05 * i
                                                  for i in range(n))}}
    return validate_model(ModelSpec(family, n, rates, **kw.get(family, {})))


def _relative_error_outcome(fn, *args):
    try:
        return fn(*args).hex()
    except ZeroDenominatorError as exc:
        return type(exc), str(exc)


def _relative_to_counterpart(m, t):
    """(dep - ind) / ind with ind the counterpart model's conditioned form,
    as a row took it before the model's own rates served."""
    dep, _ = _ie_sum(m, t)
    ind = dep if m._is_product else _conditioned_sf(independent_counterpart(m), t)
    if ind == 0.0:
        raise ZeroDenominatorError(
            f"independent-counterpart parallel sf is 0 at t={t}")
    return (dep - ind) / ind


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_independent_side_is_the_counterparts_bit_for_bit(family, rng):
    models = [random_model(family, n, rng, require_interaction=n > 1)
              for n in range(1, 13)]
    if family in ("MOME", "MOMW", "LeeML"):
        models += [_odd_singletons_model(family, n, rng) for n in range(2, 13)]
    for m in models:
        for t in INDEPENDENT_TIMES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ind = _conditioned_sf(independent_counterpart(m), t)
                assert _conditioned_sf(m, t, independent=True).hex() == ind.hex()
                assert (_relative_error_outcome(parallel_relative_error, m, t)
                        == _relative_error_outcome(_relative_to_counterpart, m, t)
                        ), (m, t)


# ---------------------------------------------------------------------------
# The compact column: shock conditioning and the incidence product
# ---------------------------------------------------------------------------


def _sparse_shock_model(family, n, rng):
    """Singletons, up to three pair shocks and one global shock; for MOME
    every third component has no singleton rate (the global shock covers
    it).  IndepExp keeps its singletons only."""
    rates = {(i,): float(rng.uniform(0.05, 1.5)) for i in range(1, n + 1)
             if family == "IndepExp" or i % 3 or n == 1}
    if family == "MOME" and n > 1:
        for _ in range(3):
            pair = tuple(sorted(rng.choice(np.arange(1, n + 1), 2,
                                           replace=False).tolist()))
            rates[pair] = float(rng.uniform(0.05, 1.5))
        rates[tuple(range(1, n + 1))] = float(rng.uniform(0.02, 0.2))
    return validate_model(ModelSpec(family, n, rates))


def _interaction_shocks(model):
    return [(mask, rate) for mask, rate in model.rates.items
            if mask.bit_count() > 1]


@pytest.mark.parametrize("family", ["IndepExp", "MOME"])
def test_both_compact_forms_within_error_bound_of_ie(family, rng):
    # IndepExp (r = 0) always conditions; only MG1 and dense MOME take
    # the incidence product
    for n in range(1, 15):
        m = _sparse_shock_model(family, n, rng)
        for t in (1e-3, 0.5, 2.0, 50.0):
            sf_ie, bound = _ie_sum(m, t)
            forms = [_conditioned_sf(m, t)]
            if family == "MOME":
                forms.append(_incidence_sf(m, t))
            for sf in forms:
                assert abs(sf - sf_ie) <= bound, (n, t, sf, sf_ie, bound)


def test_dispatch_names_one_path_bit_for_bit(rng):
    sparse = _sparse_shock_model("MOME", 9, rng)  # 4 shocks <= 9 - 3
    dense = random_model("MOME", 6, rng)  # dozens of shocks
    assert len(_interaction_shocks(dense)) > 6 - 3
    for t in (0.3, 2.0):
        assert parallel_sf_closed(sparse, t) == _conditioned_sf(sparse, t)
        assert parallel_sf_closed(dense, t) == _incidence_sf(dense, t)


def test_conditioning_capped_at_13_shocks(monkeypatch):
    # 21 pair shocks {1, i} at n = 24 reach 2^21 killed sets: above 13
    # shocks the incidence product takes them, whatever n - 3 allows
    def pairs(n, r):
        rates = {(i,): 1.0 for i in range(1, n + 1)}
        return validate_model(ModelSpec("MOME", n, {
            **rates, **{(1, i): 0.1 for i in range(2, r + 2)}}))

    monkeypatch.setattr("deperr.parallel._incidence_sf", lambda m, t: -1.0)
    assert parallel_sf_closed(pairs(24, 21), 0.5) == -1.0
    assert parallel_sf_closed(pairs(17, 14), 0.5) == -1.0
    assert 0.0 < parallel_sf_closed(pairs(17, 13), 0.5) <= 1.0


@pytest.mark.parametrize("t", [1e300, 1e308, math.inf])
def test_compact_forms_quiet_at_huge_t(t, rng):
    # the incidence path took exponent * t, which overflowed with a warning
    mome = validate_model(ModelSpec("MOME", 2, {(1,): 1.0, (1, 2): 1.0}))
    sparse = _sparse_shock_model("MOME", 8, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, sf in ((mome, 0.0), (independent_counterpart(mome), 1.0),
                      (sparse, 0.0), (independent_counterpart(sparse), 1.0),
                      (_sparse_shock_model("IndepExp", 5, rng), 0.0)):
            assert parallel_sf_closed(m, t) == sf
            assert _conditioned_sf(m, t) == sf
            if m.family is Family.MOME:
                assert _incidence_sf(m, t) == sf


def test_conditioned_form_at_tiny_t(rng):
    # lambda_i * t underflows to 0: q_i = 0, log q_i = -inf, not log(0)
    indep = validate_model(ModelSpec("IndepExp", 1, {(1,): 1e-300}))
    sparse = _sparse_shock_model("MOME", 8, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, t in ((indep, 1e-30), (sparse, 5e-324),
                     (independent_counterpart(sparse), 5e-324)):
            sf_ie, bound = _ie_sum(m, t)
            assert parallel_sf_closed(m, t) == 1.0
            assert abs(1.0 - sf_ie) <= bound


def _exact_sf(model, t):
    """60-digit inclusion-exclusion over the subsets S of exp(-H_S), H_S the
    sum of lambda_T * theta_T(t) over rated T meeting S: theta is t, t**a_i
    or (c_i * t)**alpha, and a shock's is t (only MOME has shocks)."""
    with localcontext() as ctx:
        ctx.prec = 60
        td = Decimal(t)
        theta = [td] * model.n
        if model.shapes is not None:
            theta = [td ** Decimal(a) for a in model.shapes]
        elif model.family is Family.LEE_ML:
            alpha = Decimal(model.alpha)
            theta = [Decimal(c) ** alpha * td ** alpha for c in model.scales]
        hazards = [(mask, Decimal(rate) * (theta[mask.bit_length() - 1]
                                           if mask.bit_count() == 1 else td))
                   for mask, rate in model.rates.items]
        factors = [(mask, (-h).exp()) for mask, h in hazards]
        total = Decimal(0)
        for subset in range(1, 1 << model.n):
            term = Decimal(1)
            for mask, factor in factors:
                if mask & subset:
                    term *= factor
            total += term if subset.bit_count() % 2 else -term
        return total, float(max(h for _, h in hazards))


def test_conditioned_form_against_exact_ie(rng):
    # Bound, with u = eps/2 and H the largest lambda_T * theta_T(t):
    # lambda_i * theta_i takes at most 6 roundings (two powers of 1 ulp, two
    # products), and a relative error d in h_i moves log q_i by at most
    # d * (1 + h_i) * |log q_i|, as h / ((e^h - 1) * -log(1 - e^-h)) <= 1 + h;
    # log1mexp adds 3u and the n - 1 additions (n - 1)u, all relative to
    # |L|, L = sum log q_i <= 0; -expm1(L) turns an error e in L into at most
    # e / |L| relative, plus u.  Each of P(D)'s r factors exp(-lambda t) or
    # -expm1(-lambda t) is within u * (2 + H), the r products and the
    # dict's sums of positive values add 2ru, the product with P(D) u and
    # fsum of the nonnegative terms u: u * (n + 9 + 6H + r * (4 + H) + 2),
    # at most u * (n + 4r + 11) * (1 + H).
    u = sys.float_info.epsilon / 2
    models = [independent_counterpart(random_model(family, n, rng,
                                                   require_interaction=n > 1))
              for family in ALL_FAMILIES for n in range(1, 9)]
    models += [_sparse_shock_model("MOME", n, rng) for n in range(1, 9)]
    cases = [(m, t) for m in models for t in (1e-3, 0.5, 2.0, 20.0, 50.0)]
    cases.append((_sparse_shock_model("MOME", 13, rng), 0.5))  # two halves
    for m, t in cases:
        r = len(m.rates.interaction_members)
        exact, big = _exact_sf(m, t)
        if exact < sys.float_info.min:
            continue  # below the float range
        bound = u * (m.n + 4 * r + 11) * (1.0 + big)
        sf = _conditioned_sf(m, t)
        assert abs(Decimal(sf) - exact) <= Decimal(bound) * exact, (
            m.family, m.n, t, sf, float(exact))
        # the IE pass, within its own error_bound
        sf_ie, ie_bound = _ie_sum(m, t)
        assert abs(Decimal(sf_ie) - exact) <= Decimal(ie_bound), (
            m.family, m.n, t, sf_ie, float(exact), ie_bound)


def test_golden_compact_cell_is_correctly_rounded():
    # IndepExp n = 2 at t = 2: 1 - (1 - e^-2)^2 = 2e^-2 - e^-4
    golden = Path(__file__).parent / "data" / "golden" / "parallel_indep.csv"
    row = golden.read_text().splitlines()[2].split(",")
    assert row[0] == "2"
    with localcontext() as ctx:
        ctx.prec = 50
        e2 = Decimal(-2).exp()
        exact = 2 * e2 - e2 * e2
    cell = float(row[2])
    assert abs(Decimal(cell) - exact) <= Decimal(math.ulp(cell)) / 2
