"""Parallel-system (max-lifetime) survival via inclusion-exclusion.

The parallel survival at t is the alternating sum over nonempty component
subsets S of the joint survival evaluated with t at the members of S and 0
elsewhere.  Subsets are handled as integer bitmasks, in fixed-size chunks:
each chunk's points t * 1_S go through the joint-hazard kernel as one
(chunk, n) batch, so a pass's temporaries stay at one chunk whatever n
is.  A chunk's masks, signs and member rows depend on n only: every pass
shares them from a read-only cache of 16 chunks (2.6 MB at n = 24).  Compact
closed forms exist for the independent exponential, Marshall-Olkin
exponential, and product-interaction exponential families and are checked
against the inclusion-exclusion value wherever available.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator

import numpy as np

from .exceptions import DomainError, ZeroDenominatorError
from .models import Family, ValidatedModel, _joint_hazard
from .numerics import clamp_unit

# Subset masks per chunk: each (chunk, n) temporary is under 1 MB at n = 24.
_CHUNK = 4096


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
    and members[j] its boolean row 1_S.
    """
    masks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
    parity = masks.copy()
    for shift in (16, 8, 4, 2, 1):  # xor-fold the bits: n <= 24 < 32
        parity ^= parity >> shift
    members = (masks[:, None] & (1 << np.arange(n, dtype=np.int64))) != 0
    tables = masks, np.where(parity & 1, 1.0, -1.0), members
    for table in tables:
        table.flags.writeable = False
    return tables


def _ie_sum(model: ValidatedModel, t: float) -> tuple[float, float]:
    """(sf_ie, error_bound) of `parallel_sf_ie`, without the compact form."""
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    kappa = len(model.rates.items) + model.n + 2
    weighted: list[float] = []  # per chunk, sum of term_S * (3 + kappa * H_S)

    def chunk_terms() -> Iterator[list[float]]:
        for start in range(1, 1 << model.n, _CHUNK):
            _, signs, members = _mask_chunk(model.n, start)
            hazard = _joint_hazard(model, np.full(model.n, t), members)
            sf = np.minimum(np.exp(-hazard), 1.0)
            weight = 3.0 + kappa * np.where(sf > 0.0, hazard, 0.0)
            weighted.append(float(np.dot(sf, weight)))
            yield (signs * sf).tolist()

    value = clamp_unit(math.fsum(chain.from_iterable(chunk_terms())))
    return value, 0.5 * sys.float_info.epsilon * math.fsum(weighted)


def _product_sf(model: ValidatedModel, t: float) -> float:
    """Parallel survival 1 - prod_i P(X_i <= t) of a product model, in O(n):
    -expm1(sum_i log1p(-exp(-H_i))) (Maechler 2012) from one kernel call,
    the singletons as subset batch.  No 2^n sum, so no cancellation.  At a
    huge t or t = inf, H_i is inf, or 0 for a component with zero rate."""
    n = model.n
    q = np.exp(-_joint_hazard(model, np.full(n, t), np.eye(n, dtype=bool)))
    with np.errstate(divide="ignore"):  # a component with zero rate: log1p(-1)
        log_cdf = float(np.log1p(-q).sum())
    # 0.0 - x, not -x: where every q is 0 the sum is -0.0, and this is +0.0
    return 0.0 - math.expm1(log_cdf)


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
    """Compact parallel survival where the family has one, else None.

    Each subset S of surviving candidates contributes exp(-E_S) with
    E_S the joint hazard restricted to S:

    - independent exponential: E_S = t * sum of member rates;
    - Marshall-Olkin exponential: E_S = t * sum of lambda_T over shock
      subsets T meeting S (the independent case has singletons only);
    - product-interaction exponential: E_S = sum over nonempty T within S
      of lambda_T * t^|T|.

    This is the families' own algebra over bitmasks, kept apart from the
    joint-hazard kernel so that it checks the inclusion-exclusion value.
    """
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    fam = model.family
    if fam not in (Family.INDEP_EXP, Family.MOME, Family.MG1):
        return None
    shocks = [mask for mask, _ in model.rates.items]
    rates = model.rates.rate_array
    inside_only = fam is Family.MG1
    if inside_only:  # numpy's t**|T| past the float range is inf: term 0
        with np.errstate(over="ignore"):
            rates = rates * t ** np.array([s.bit_count() for s in shocks], float)
    rates = rates.tolist()

    def chunk_terms() -> Iterator[list[float]]:
        for start in range(1, 1 << model.n, _CHUNK):
            masks, signs, _ = _mask_chunk(model.n, start)
            exponent = np.zeros(len(masks))
            for shock, rate in zip(shocks, rates):
                common = masks & shock
                acts = common == shock if inside_only else common != 0
                np.add(exponent, rate, out=exponent, where=acts)
            if not inside_only:  # a subset that never fails has exp(-0) at inf
                np.multiply(exponent, t, out=exponent, where=exponent != 0)
            yield (signs * np.exp(-exponent)).tolist()

    return clamp_unit(math.fsum(chain.from_iterable(chunk_terms())))


def _relative_to_independent(model: ValidatedModel, dep: float,
                             t: float) -> float:
    """(dep - ind) / ind, ind the independent counterpart's parallel
    survival at t (refused if 0); exactly 0 for a model with no dependence."""
    ind = dep if model._is_product else _product_sf(model._indep, t)
    if ind == 0.0:
        raise ZeroDenominatorError(
            f"independent-counterpart parallel sf is 0 at t={t}"
        )
    return (dep - ind) / ind


def parallel_relative_error(model: ValidatedModel, t: float) -> float:
    """Relative error of the parallel survival under assumed independence:
    dep by inclusion-exclusion, the independent side a product in O(n)."""
    dep, _ = _ie_sum(model, t)
    return _relative_to_independent(model, dep, t)
