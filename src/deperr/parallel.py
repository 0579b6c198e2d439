"""Parallel-system (max-lifetime) survival via inclusion-exclusion.

The parallel survival at t is the alternating sum over nonempty component
subsets S of the joint survival evaluated with t at the members of S and 0
elsewhere.  Subsets are handled as integer bitmasks, in fixed-size chunks:
each chunk's points t * 1_S go through the joint-hazard kernel as one
(chunk, n) batch, so a pass's temporaries stay at one chunk whatever n
is.  A chunk's masks, signs and member indices depend on n only: every pass
shares them from a read-only cache of 16 chunks (13.6 MB at n = 24).

Compact forms, the families' own algebra apart from the kernel, check that
value.  `_conditioned_sf` conditions on the r interaction shocks (rated
subsets of size >= 2; Marshall and Olkin 1967): at most 2^r states, a table
under 2 MB at r = 13, no cancellation.  It serves IndepExp, MOME with r <=
min(max(n - 3, 0), 13) (a rule timed at n <= 16 only), and with r = 0 the
independent side of every relative error, each counterpart a product model.
MG1, and MOME with more shocks, sum over the subsets by incidence products.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .exceptions import DomainError, ZeroDenominatorError
from .models import Family, ValidatedModel, _joint_hazard, _theta
from .numerics import clamp_unit

# Subset masks per chunk: each (chunk, n) temporary is under 1 MB at n = 24.
_CHUNK = 4096
# Rated subsets per incidence block: a (block, chunk) temporary is 8 MB.
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
    kappa * u, which `exp` turns into kappa * u * H_S * term_S.  The bound
    grows with the cancellation: sum term_S is up to 2^n - 1 while the
    result is at most 1.  For Crowder, LeeII and LuBI the hazard is a
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


@lru_cache(maxsize=16)
def _mask_chunk(n: int, start: int) -> tuple[np.ndarray, ...]:
    """(masks, signs, members) for the chunk of nonempty subsets of {1..n}
    that begins at mask `start`, read-only: every pass at n shares them.

    signs[j] is the inclusion-exclusion sign (-1)^(|S| + 1) of masks[j],
    and members[j] its `_masked` index row: i at a member i of S, else n.
    """
    masks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
    parity = masks.copy()
    for shift in (16, 8, 4, 2, 1):  # xor-fold the bits: n <= 24 < 32
        parity ^= parity >> shift
    bits = np.arange(n, dtype=np.intp)
    members = np.where(masks[:, None] >> bits & 1 == 1, bits, n)
    tables = masks, np.where(parity & 1, 1.0, -1.0), members
    for table in tables:
        table.flags.writeable = False
    return tables


def _alternating_sum(n: int, term) -> float:
    """fsum of signs * term(masks, members) over the chunks at n, clamped
    to [0, 1]: exactly rounded, one chunk's terms in memory at a time."""
    chunks = (_mask_chunk(n, start) for start in range(1, 1 << n, _CHUNK))
    return clamp_unit(math.fsum(chain.from_iterable(
        (signs * term(masks, members)).tolist() for masks, signs, members in chunks)))


def _ie_sum(model: ValidatedModel, t: float) -> tuple[float, float]:
    """(sf_ie, error_bound) of `parallel_sf_ie`, without the compact form."""
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    kappa = len(model.rates.items) + model.n + 2
    weighted: list[float] = []  # per chunk, sum of term_S * (3 + kappa * H_S)

    def terms(masks, members) -> np.ndarray:
        hazard = _joint_hazard(model, np.full(model.n, t), members)
        sf = np.minimum(np.exp(-hazard), 1.0)
        weight = 3.0 + kappa * np.where(sf > 0.0, hazard, 0.0)
        weighted.append(float(np.dot(sf, weight)))
        return sf

    value = _alternating_sum(model.n, terms)
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


def _conditioned_sf(model: ValidatedModel, t: float) -> float:
    """fsum over the sets D that the interaction shocks killed by t of P(D)
    * -expm1(sum_{i not in D} log q_i), q_i = -expm1(-lambda_i * theta_i(t))
    the chance that i failed by itself, log q_i = -inf where lambda_i *
    theta_i is 0 or 0 * inf: terms >= 0.  A dict holds P(D), {0: 1} alone
    for a product model."""
    killed = {0: 1.0}
    for shock, _, rate in model.rates.interaction_members:
        fire, stay = -math.expm1(-rate * t), math.exp(-rate * t)
        grown: dict[int, float] = {}
        for dead, p in killed.items():
            grown[dead] = grown.get(dead, 0.0) + p * stay
            grown[dead | shock] = grown.get(dead | shock, 0.0) + p * fire
        killed = grown
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf
        hazards = model.rates.singleton_vector * _theta(model, np.full(model.n, t))
    log_q = [(1 << i, _log1mexp(h) if h > 0 else -math.inf)
             for i, h in enumerate(hazards.tolist())]
    # 0.0 - x, not -x: where every q_i is 1, expm1 is 0 and this is +0.0
    return clamp_unit(math.fsum(
        p * (0.0 - math.expm1(sum(q for bit, q in log_q if not dead & bit)))
        for dead, p in killed.items()))


def _incidence_sf(model: ValidatedModel, t: float) -> float:
    """Alternating sum over subsets S of exp(-E_S), E_S = sum of weights
    lambda_T * t over rated T meeting S (MOME), or lambda_T * t^|T|
    over T within S (MG1), each at most the float max so that a 0 of the
    (subsets, chunk) incidence never meets inf; `_SHOCKS` subsets a block."""
    mg1 = model.family is Family.MG1
    shocks = np.array([mask for mask, _ in model.rates.items], np.int64)
    power = np.array([s.bit_count() for s in shocks.tolist()]) if mg1 else 1
    with np.errstate(over="ignore"):
        weights = np.minimum(model.rates.rate_array * t**power, sys.float_info.max)
    blocks = [(shocks[j:j + _SHOCKS, None], weights[j:j + _SHOCKS])
              for j in range(0, len(shocks), _SHOCKS)]

    def survival(masks, _) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(-sum(w @ ((s & masks == s) if mg1 else (s & masks != 0))
                               for s, w in blocks))

    return _alternating_sum(model.n, survival)


def _relative_to_independent(model: ValidatedModel, dep: float,
                             t: float) -> float:
    """(dep - ind) / ind, ind the independent counterpart's parallel
    survival at t (refused if 0); exactly 0 for a model with no dependence."""
    ind = dep if model._is_product else _conditioned_sf(model._indep, t)
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
