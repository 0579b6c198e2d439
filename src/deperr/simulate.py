"""Independent ground truth: a shock-model sampler and finite differences.

The Marshall-Olkin construction draws one exponential shock clock per rated
subset; a component fails at the earliest shock hitting any subset that
contains it.  Weibull-type families are obtained by power (and scale) maps
of the exponential draws.  The positive-stable and product-interaction
families have no elementary construction and are validated through the
finite-difference oracle instead.

Randomness is counter-based (Philox) with one disjoint counter block per
rated subset, so estimates depend only on (seed, draw_count) and not on how
the work is scheduled.  Lifetimes are drawn in blocks of `_BLOCK` rows with
each subset's stream kept open from block to block; consecutive draws from
one stream equal a single draw, so the rows do not depend on the block size
while memory stays bounded at any draw count.  Each block is filled
component-major, as an (n, rows) buffer, so every shock member's minimum,
the power map and the series/parallel reduction run over contiguous memory;
the blocks are handed out as their (rows, n) transposes.
`estimate_system_sf` counts the survivors of every t on the same draws.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import CapabilityError, DomainError, SingularityError
from .models import (
    Family,
    MetricKind,
    ValidatedModel,
    _metric_kind,
    _sf_value,
    _times,
    series_hazard,
)

# Rows per lifetime block: 65 536 x 24 components x 8 B is 12.6 MB.
_BLOCK = 65_536


@dataclass(frozen=True)
class SimEstimate:
    """Survival estimate and binomial standard error: floats for a float t,
    arrays (one entry per time, all from the same draws) for an array t."""

    value: float | np.ndarray
    stderr: float | np.ndarray
    n_samples: int
    seed: int


def _subset_stream(seed: int, subset_index: int) -> np.random.Generator:
    # One Philox counter block per subset keeps the streams disjoint and
    # independent of evaluation order.
    bg = np.random.Philox(key=seed & (2**64 - 1), counter=[0, 0, subset_index + 1, 0])
    return np.random.Generator(bg)


def _lifetime_blocks(model: ValidatedModel, draw_count: int, seed: int = 0):
    """Consecutive (rows, n) lifetime blocks, draw_count rows in all."""
    fam = model.family
    if fam not in (Family.INDEP_EXP, Family.MOME, Family.INDEP_WEIBULL,
                   Family.MOMW, Family.LEE_ML):
        raise CapabilityError(
            f"family {fam.value} has no shock-model sampler; "
            "use finite_diff_metric for validation"
        )
    if draw_count < 1:
        raise DomainError(f"draw_count must be >= 1, got {draw_count}")
    rates = model.rates
    shocks = [
        (members, lam, _subset_stream(seed, j))
        for j, (members, (_, lam)) in enumerate(zip(rates.members, rates.items))
    ]
    for start in range(0, draw_count, _BLOCK):
        rows = min(_BLOCK, draw_count - start)
        x = np.full((model.n, rows), np.inf)
        for members, lam, stream in shocks:
            clock = stream.standard_exponential(rows)
            clock /= lam
            for i in members:
                np.minimum(x[i], clock, out=x[i])
        # X_i = Y_i**(1/alpha_i), or Y_i**(1/alpha) / c_i for the common shape
        if fam in (Family.INDEP_WEIBULL, Family.MOMW):
            x **= 1.0 / np.asarray(model.shapes)[:, None]
        elif fam is Family.LEE_ML:
            x **= 1.0 / model.alpha
            x /= np.asarray(model.scales)[:, None]
        yield x.T


def sample_model(
    model: ValidatedModel, draw_count: int, seed: int = 0
) -> np.ndarray:
    """(draw_count, n) lifetimes of a samplable family, column-major (each
    component's draws contiguous), else CapabilityError."""
    return np.concatenate(list(_lifetime_blocks(model, draw_count, seed)))


def estimate_system_sf(
    model: ValidatedModel, structure: str, t, draw_count: int, seed: int = 0
) -> SimEstimate:
    """Monte Carlo estimate of the series or parallel survival at t.

    t is a float or a 1-D array of times; every time is counted on the
    same draw_count draws, one block at a time.
    """
    if structure not in ("series", "parallel"):
        raise DomainError(f"structure must be 'series' or 'parallel', got {structure!r}")
    t = _times(t)
    survivors = 0
    for x in _lifetime_blocks(model, draw_count, seed):
        life = x.min(axis=1) if structure == "series" else x.max(axis=1)
        life.sort()
        survivors += life.size - np.searchsorted(life, t, side="right")
    value = survivors / draw_count
    stderr = np.sqrt(value * (1.0 - value) / draw_count)
    if not isinstance(t, np.ndarray):
        value, stderr = float(value), float(stderr)
    return SimEstimate(value=value, stderr=stderr, n_samples=draw_count, seed=seed)


# ---------------------------------------------------------------------------
# Finite-difference metric oracle
# ---------------------------------------------------------------------------


def _checked_sf(model: ValidatedModel, t: float) -> float:
    # A subnormal SF (H > 708) has lost relative precision, so it and its
    # log are too coarse to difference; treat it like an underflow to 0.
    sf = _sf_value(series_hazard(model, t)[0])  # as series_metric gives it
    if sf < sys.float_info.min or sf >= 1.0:
        raise SingularityError(
            f"series survival saturates at t={t}; shrink the stencil or move t"
        )
    return sf


def finite_diff_metric(
    model: ValidatedModel, metric: MetricKind, t: float
) -> float:
    """FR/RHR/AI from central differences of the series survival.

    Independent of the per-family closed forms: only SF evaluations are
    used.  The stencil is h = min(max(1e-4 * t, 1e-8), t / 2), halved once
    for Richardson extrapolation.
    """
    metric = _metric_kind(metric)
    if metric is MetricKind.SF:
        raise DomainError("finite differences target FR, RHR, or AI, not SF")
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    h = min(max(1e-4 * t, 1e-8), 0.5 * t)
    # The MOMW diagonal hazard switches exponents at t = 1, so its FR jumps
    # there; a stencil that would straddle 1 stays on t's side of it.
    side = 0
    if model.family is Family.MOMW and t - h < 1.0 < t + h:
        side = 1 if t >= 1.0 else -1

    def derivative(f) -> float:
        # Central (or one-sided) differences at h and h/2, with one level
        # of Richardson extrapolation: error O(h^2).
        if side:
            d = [side * (f(t + side * hh) - f(t)) / hh for hh in (h, h / 2)]
            return 2.0 * d[1] - d[0]
        d = [(f(t + hh) - f(t - hh)) / (2.0 * hh) for hh in (h, h / 2)]
        return (4.0 * d[1] - d[0]) / 3.0

    sf = lambda u: _checked_sf(model, u)
    if metric is MetricKind.RHR:  # f(t) / F(t), differencing the SF for f
        return -derivative(sf) / (1.0 - sf(t))
    fr = derivative(lambda u: -math.log(sf(u)))
    return fr if metric is MetricKind.FR else t * fr / -math.log(sf(t))
