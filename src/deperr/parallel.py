"""Parallel-system (max-lifetime) survival via inclusion-exclusion.

The parallel survival at t is the alternating sum over nonempty component
subsets S of the joint survival evaluated with t at the members of S and 0
elsewhere.  Subsets are integer bitmasks, read from tables of the member
indices and signs of the masks of k bits, one per k <= 12 and the same for
every n.  A mask is a low half of L = min(n, 12) bits and a high half of
the rest, perhaps none (meet in the middle; Horowitz and Sahni 1974): the
joint-hazard kernel's parts are taken on each half and joined per chunk of
high masks, so a pass's temporaries stay at one chunk whatever n is.  Up
to 12 components the low half is the pass: one batch of all 2^n points.

Compact forms, the families' own algebra apart from the kernel, check that
value.  `_conditioned_sf` conditions on the r interaction shocks (rated
subsets of size >= 2; Marshall and Olkin 1967): at most 2^r states, a table
under 2 MB at r = 13, no cancellation.  It serves IndepExp, MOME with r <=
min(max(n - 3, 0), 13), and with no shock the independent side of every
relative error, on the model's own singleton rates and theta: no counterpart.
MG1, and MOME with more shocks, sum over the subsets by shock incidence,
on masks and signs of their own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

import numpy as np

from .exceptions import DomainError, ZeroDenominatorError
from .models import (MAX_COMPONENTS, _REDUCE, Family, ValidatedModel,
                     _combine, _coordinates, _parts, _quiet)
from .numerics import clamp_unit

# Bits of a mask's low half: n <= 24 = 2 * 12 has at most two halves.  The
# compact incidence product also takes its masks 2^12 at a time.
_HALF = MAX_COMPONENTS // 2
# High masks per chunk: a (8, 4096) temporary of a pass is 256 KB.
_ROWS = 8
# Rated subsets per incidence block: a (block, 4096) temporary is 8 MB.
_SHOCKS = 256


@dataclass(frozen=True)
class ParallelResult:
    """Inclusion-exclusion parallel survival at one t.

    `error_bound` is a first-order bound on the round-off in `sf_ie`
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3-4),
    with u = eps/2 the unit round-off:

        error_bound = u * sum_S term_S * (3 + kappa * H_S)

    over the 2^n - 1 terms term_S = exp(-H_S), with kappa = r + n + 2 for
    r rated subsets.  `math.fsum` returns the sum of the computed terms to
    within half an ulp, at most u * sum term_S.  `exp` adds under one ulp
    per term, 2u * term_S.  The hazard H_S is a sum of at most r
    nonnegative parts (r - 1 roundings), each formed in at most n + 3
    roundings (a rate times a product of up to n coordinates, or two
    powers and two products), so its relative error is at most about
    kappa * u, which `exp` turns into kappa * u * H_S * term_S.  Above 12
    components the two halves of a mask regroup the same additions and
    multiplications (a max is exact), so the counts, and kappa, hold.  The
    bound grows with the cancellation: sum term_S is up to 2^n - 1 while
    the result is at most 1.  For Crowder, LeeII and LuBI the hazard is a
    power of such a sum, which scales its relative error by the exponent
    (at most 1 for LeeII, m for LuBI), and the Crowder difference
    (gamma + s)^l - gamma^l cancels when s << gamma; the bound does not
    cover those.
    """

    t: float
    sf_ie: float
    sf_closed: float | None
    terms_evaluated: int
    error_bound: float


@lru_cache(maxsize=_HALF + 1)
def _subsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(members, signs) of the masks j < 2^k, read-only and the same for
    every n, built once per bit count k <= 12 (0.8 MB for all 13): members[j,
    i] is i where bit i of j is set, else -1, and signs[j] = (-1)^(|j| + 1)."""
    inside = np.arange(1 << k)[:, None] >> np.arange(k) & 1 == 1
    tables = (np.where(inside, np.arange(k), -1),
              np.where(inside.sum(axis=1) % 2, 1.0, -1.0))
    for table in tables:
        table.flags.writeable = False
    return tables


def _hazard_chunks(model: ValidatedModel, x: np.ndarray):
    """(H_S, (-1)^(|S| + 1)) over the nonempty subsets S in chunks of
    consecutive masks from 1, H_S the joint hazard at x on S's members and
    0 elsewhere.  The low half's `_parts` (2^L,), L = min(n, 12), are taken
    once per pass, and are the pass up to 12 components.  Above, per chunk
    of `_ROWS` high masks, each `_parts` of the high half (rows,) is joined
    to them by np.add (the singleton sums, LuBI's u) or the family's
    `_REDUCE` (a shock's), a part one half holds none of (None) being the
    other's.  The singleton sums, zeros where none is rated, span the masks."""
    n, join = model.n, _REDUCE.get(model.family, np.add)
    bits = min(n, _HALF)
    (index, signs), (top_index, tops) = _subsets(bits), _subsets(n - bits)
    with _quiet(model):
        # each coordinate with a 0 appended, which an index of -1 picks
        ends = [np.append(c, 0.0) for c in _coordinates(model, x)]
        low = list(_parts(model, [e[index] for e in ends]))
        whole = _combine(model, iter(low)) if n == bits else None
    if whole is not None:  # mask 0 heads the pass
        yield whole[1:], signs[1:]
        return
    for start in range(0, tops.size, _ROWS):
        top = slice(start, start + _ROWS)
        with _quiet(model):
            high = _parts(model, [e[bits:][top_index[top]] for e in ends], bits)
            joined = (lo if hi is None else hi[:, None] if lo is None
                      else ufunc(hi[:, None], lo)
                      for ufunc, hi, lo in zip(chain([np.add], repeat(join)), high, low))
            hazard = _combine(model, joined).ravel()
        empty = int(start == 0)  # mask 0 heads the first chunk
        # -tops[hi] = (-1)^|S_hi|, so that each sign is that times signs[lo]
        yield hazard[empty:], np.multiply.outer(-tops[top], signs).ravel()[empty:]


def _ie_sum(model: ValidatedModel, t: float) -> tuple[float, float]:
    """(sf_ie, error_bound) of `parallel_sf_ie`, without the compact form:
    the terms' fsum, exactly rounded, one chunk's terms at a time."""
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    kappa = len(model.rates.items) + model.n + 2
    weighted: list[float] = []  # per chunk, sum of term_S * (3 + kappa * H_S)

    def terms():
        for hazard, signs in _hazard_chunks(model, np.full(model.n, t)):
            sf = np.minimum(np.exp(-hazard), 1.0)
            weight = 3.0 + kappa * np.where(sf > 0.0, hazard, 0.0)
            weighted.append(float(np.dot(sf, weight)))
            yield (signs * sf).tolist()

    value = clamp_unit(math.fsum(chain.from_iterable(terms())))
    return value, 0.5 * sys.float_info.epsilon * math.fsum(weighted)


def parallel_sf_ie(model: ValidatedModel, t: float) -> ParallelResult:
    """Inclusion-exclusion parallel survival P(max_i X_i > t)."""
    value, bound = _ie_sum(model, t)
    return ParallelResult(
        t=t,
        sf_ie=value,
        sf_closed=parallel_sf_closed(model, t),
        terms_evaluated=(1 << model.n) - 1,
        error_bound=bound,
    )


def parallel_sf_closed(model: ValidatedModel, t: float) -> float | None:
    """Compact parallel survival where the family has one, else None; the
    choice of form is the module docstring's."""
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    fam = model.family
    if fam not in (Family.INDEP_EXP, Family.MOME, Family.MG1):
        return None
    shocks = len(model.rates.interaction_members)
    if fam is Family.MG1 or shocks > min(max(model.n - 3, 0), 13):
        return _incidence_sf(model, t)
    return _conditioned_sf(model, t)


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x > 0 (Maechler 2012), -0.0 at x = inf."""
    return (math.log(-math.expm1(-x)) if x <= math.log(2.0)
            else math.log1p(-math.exp(-x)))


def _conditioned_sf(model: ValidatedModel, t: float, independent=False) -> float:
    """fsum over the sets D that the interaction shocks killed by t of P(D)
    * -expm1(sum_{i not in D} log q_i), q_i = -expm1(-lambda_i * theta_i(t))
    the chance that i failed by itself, log q_i = -inf where lambda_i *
    theta_i is 0 or 0 * inf: terms >= 0.  A dict holds P(D), {0: 1} alone
    for a product model or the `independent` side (the counterpart's value)."""
    killed = {0: 1.0}
    for shock, _, rate in () if independent else model.rates.interaction_members:
        fire, stay = -math.expm1(-rate * t), math.exp(-rate * t)
        grown: dict[int, float] = {}
        for dead, p in killed.items():
            grown[dead] = grown.get(dead, 0.0) + p * stay
            grown[dead | shock] = grown.get(dead | shock, 0.0) + p * fire
        killed = grown
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf
        theta = _coordinates(model, np.full(model.n, t))[0]
        hazards = model.rates.singleton_vector * theta
    log_q = [(1 << i, _log1mexp(h) if h > 0 else -math.inf)
             for i, h in enumerate(hazards.tolist())]
    # 0.0 - x, not -x: where every q_i is 1, expm1 is 0 and this is +0.0
    return clamp_unit(math.fsum(
        p * (0.0 - math.expm1(sum(q for bit, q in log_q if not dead & bit)))
        for dead, p in killed.items()))


def _incidence_sf(model: ValidatedModel, t: float) -> float:
    """Alternating sum over subsets S of exp(-E_S), E_S = sum of weights
    lambda_T * t over rated T meeting S (MOME), or lambda_T * t^|T| over T
    within S (MG1), each at most the float max so that a 0 of the (subsets,
    chunk) incidence never meets inf; `_SHOCKS` subsets a block.  The masks
    and their signs are its own, not the inclusion-exclusion pass's."""
    mg1, n = model.family is Family.MG1, model.n
    shocks = np.array([mask for mask, _ in model.rates.items], np.int64)
    power = np.array([s.bit_count() for s in shocks.tolist()]) if mg1 else 1
    with np.errstate(over="ignore"):
        weights = np.minimum(model.rates.rate_array * t**power, sys.float_info.max)
    blocks = [(shocks[j:j + _SHOCKS, None], weights[j:j + _SHOCKS])
              for j in range(0, len(shocks), _SHOCKS)]

    def terms():
        for start in range(1, 1 << n, 1 << _HALF):
            masks = np.arange(start, min(start + (1 << _HALF), 1 << n), dtype=np.int64)
            parity = masks.copy()
            for shift in (16, 8, 4, 2, 1):  # xor-fold the bits: n <= 24 < 32
                parity ^= parity >> shift
            with np.errstate(over="ignore"):
                sf = np.exp(-sum(w @ ((s & masks == s) if mg1 else (s & masks != 0))
                                 for s, w in blocks))
            yield np.where(parity & 1, sf, -sf).tolist()

    return clamp_unit(math.fsum(chain.from_iterable(terms())))


def _relative_to_independent(model: ValidatedModel, dep: float,
                             t: float) -> float:
    """(dep - ind) / ind, ind the independent counterpart's parallel
    survival at t (refused if 0); exactly 0 for a model with no dependence."""
    ind = dep if model._is_product else _conditioned_sf(model, t, independent=True)
    if ind == 0.0:
        raise ZeroDenominatorError(
            f"independent-counterpart parallel sf is 0 at t={t}"
        )
    return (dep - ind) / ind


def parallel_relative_error(model: ValidatedModel, t: float) -> float:
    """Relative error of the parallel survival under assumed independence:
    dep by inclusion-exclusion, the independent side the no-shock conditioned form."""
    dep, _ = _ie_sum(model, t)
    return _relative_to_independent(model, dep, t)
