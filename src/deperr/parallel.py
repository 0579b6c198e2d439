"""Parallel-system (max-lifetime) survival via inclusion-exclusion.

The parallel survival at t is the alternating sum over nonempty component
subsets S of the joint survival evaluated with t at the members of S and 0
elsewhere.  Subsets are handled as integer bitmasks, in fixed-size chunks:
each chunk's points t * 1_S go through the joint-hazard kernel as one
(chunk, n) batch, so memory stays at one chunk whatever n is.  Compact
closed forms exist for the independent exponential, Marshall-Olkin
exponential, and product-interaction exponential families and are checked
against the inclusion-exclusion value wherever available.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .exceptions import DomainError, ZeroDenominatorError
from .models import (
    Family,
    ValidatedModel,
    _joint_hazard,
    independent_counterpart,
)
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


def _mask_chunks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(masks, signs) for the nonempty subsets of {1..n}, by chunk.

    signs[j] is the inclusion-exclusion sign (-1)^(|S| + 1) of masks[j].
    """
    end = 1 << n
    for start in range(1, end, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, end), dtype=np.int64)
        parity = masks.copy()
        for shift in (16, 8, 4, 2, 1):  # xor-fold the bits: n <= 24 < 32
            parity ^= parity >> shift
        yield masks, np.where(parity & 1, 1.0, -1.0)


def _ie_sum(model: ValidatedModel, t: float) -> tuple[float, float]:
    """(sf_ie, error_bound) of `parallel_sf_ie`, without the compact form."""
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    if t == math.inf:
        # Every component has a positive total rate, so every marginal
        # survival is 0; the kernel would meet 0 * inf (MG1 products).
        return 0.0, 0.0
    bits = 1 << np.arange(model.n, dtype=np.int64)
    kappa = len(model.rates.items) + model.n + 2
    weighted: list[float] = []  # per chunk, sum of term_S * (3 + kappa * H_S)

    def chunk_terms() -> Iterator[list[float]]:
        for masks, signs in _mask_chunks(model.n):
            x = np.where((masks[:, None] & bits) != 0, t, 0.0)  # t * 1_S
            hazard = _joint_hazard(model, x)
            sf = np.minimum(np.exp(-hazard), 1.0)
            weight = 3.0 + kappa * np.where(sf > 0.0, hazard, 0.0)
            weighted.append(float(np.dot(sf, weight)))
            yield (signs * sf).tolist()

    value = clamp_unit(math.fsum(chain.from_iterable(chunk_terms())))
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
    if inside_only:  # numpy powers overflow to inf, not OverflowError
        rates = rates * t ** np.array([s.bit_count() for s in shocks], float)
    rates = rates.tolist()

    def chunk_terms() -> Iterator[list[float]]:
        for masks, signs in _mask_chunks(model.n):
            exponent = np.zeros(len(masks))
            for shock, rate in zip(shocks, rates):
                common = masks & shock
                acts = common == shock if inside_only else common != 0
                np.add(exponent, rate, out=exponent, where=acts)
            if not inside_only:
                exponent *= t
            yield (signs * np.exp(-exponent)).tolist()

    return clamp_unit(math.fsum(chain.from_iterable(chunk_terms())))


def _relative_to_independent(dep: float, ind: float, t: float) -> float:
    """(dep - ind) / ind, refusing an independent survival of 0."""
    if ind == 0.0:
        raise ZeroDenominatorError(
            f"independent-counterpart parallel sf is 0 at t={t}"
        )
    return (dep - ind) / ind


def parallel_relative_error(model: ValidatedModel, t: float) -> float:
    """Relative error of the parallel survival under assumed independence."""
    dep, _ = _ie_sum(model, t)
    ind, _ = _ie_sum(independent_counterpart(model), t)
    return _relative_to_independent(dep, ind, t)
