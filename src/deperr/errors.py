"""Relative errors from wrongly assuming independent components.

For a metric m evaluated on the series system, the relative error at time t
is (m_dep(t) - m_indep(t)) / m_indep(t), where the independent reference is
the model's independent counterpart.  The generic combinator works for every
family; per-family closed forms exist for the Marshall-Olkin exponential,
the product-interaction exponential, the Marshall-Olkin Weibull (SF and FR
only), the positive-stable Weibull, and the common-shape Marshall-Olkin
Weibull family.

All formulas are expressed through the series cumulative hazards
H_dep, H_indep and their derivatives, which keeps them finite where the raw
survival values would under- or overflow:

    SF:  exp(H_i - H_d) - 1
    FR:  H_d'/H_i' - 1
    RHR: (H_d'/H_i') * expm1(H_i)/expm1(H_d) - 1
    AI:  (H_d' * H_i)/(H_i' * H_d) - 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, ZeroDenominatorError
from .grids import GridLike, grid_points
from .models import (
    Family,
    MetricKind,
    ValidatedModel,
    _dot,
    _fill,
    _first_where,
    _metric_values,
    _momw_exponents,
    _times,
    independent_counterpart,
    series_hazard,
)
from .numerics import each, expm1_ratio, power, power_gap

#: relative tolerance for grid-based monotonicity/constancy verdicts
MONOTONE_TOL = 1e-9


def _sf_error(t: float, x: float) -> float:
    """exp(x) - 1, the SF relative error at t for x = H_i - H_d."""
    try:
        return math.expm1(x)
    except OverflowError:
        raise ZeroDenominatorError(
            f"sf relative error exceeds the float range at t={t}"
        ) from None


def _rhr_error(t: float, slope_ratio: float, hi: float, hd: float) -> float:
    """slope_ratio * expm1(hi) / expm1(hd) - 1, the RHR relative error at t
    for slope_ratio = H_d'/H_i'."""
    err = slope_ratio * expm1_ratio(hi, hd) - 1.0
    if math.isinf(err):
        raise ZeroDenominatorError(
            f"rhr relative error exceeds the float range at t={t}"
        )
    return err


# Per-point relative error at t from the hazards (H_d, H_d', H_i, H_i').
_ERROR_FROM_HAZARDS = {
    MetricKind.SF: lambda t, hd, dhd, hi, dhi: _sf_error(t, hi - hd),
    MetricKind.FR: lambda t, hd, dhd, hi, dhi: dhd / dhi - 1.0,
    MetricKind.RHR: lambda t, hd, dhd, hi, dhi: (
        _rhr_error(t, dhd / dhi, hi, hd)
    ),
    MetricKind.AI: lambda t, hd, dhd, hi, dhi: (dhd * hi) / (dhi * hd) - 1.0,
}


def relative_error(model: ValidatedModel, metric: MetricKind, t):
    """Generic relative error of the named series metric at time t.

    t is a float, giving a float, or a 1-D array, giving an array.
    """
    metric = MetricKind(metric)
    t, _ = _times(t)
    indep = independent_counterpart(model)
    h_ind, dh_ind = series_hazard(indep, t)
    # Evaluating the reference metric both enforces the domain checks and
    # surfaces an exact zero denominator before the stable combinator runs.
    ref = _metric_values(metric, t, h_ind, dh_ind)
    bad = _first_where(t, ref == 0.0)
    if bad is not None:
        raise ZeroDenominatorError(
            f"independent-counterpart {metric.value} is 0 at t={bad}"
        )
    h_dep, dh_dep = series_hazard(model, t)
    return each(_ERROR_FROM_HAZARDS[metric], t, h_dep, dh_dep, h_ind, dh_ind)


def closed_form_error(model: ValidatedModel, metric: MetricKind, t):
    """Per-family closed-form relative error, or None when no form exists.

    Each form is derived from the survival functions themselves as an
    algebraic rewrite of the generic combinator, which the test suite
    asserts.  t is a float, giving a float, or a 1-D array, giving an
    array; powers and sums run over the whole array, and expm1 per point.
    """
    metric = MetricKind(metric)
    t, tc = _times(t)
    fam = model.family

    if fam in (Family.INDEP_EXP, Family.INDEP_WEIBULL) or (
        fam in (Family.MOME, Family.LEE_ML)
        and not model.rates.interaction_members
    ):
        # A product model: no dependence, so the error is exactly 0, where
        # the forms below could meet 0 * inf.
        return _fill(t, 0.0)

    if fam is Family.MOME:
        lam = model.rates.total
        s = float(model.rates.singleton_vector.sum())
        if s == 0.0:
            raise ZeroDenominatorError("model has no singleton rates")
        if metric is MetricKind.SF:
            return each(_sf_error, t, -t * (lam - s))
        if metric is MetricKind.FR:
            return _fill(t, (lam - s) / s)
        if metric is MetricKind.RHR:
            return (lam / s) * each(expm1_ratio, s * t, lam * t) - 1.0
        return _fill(t, 0.0)  # AI is identically 1 on both sides

    if fam is Family.MG1:
        a, powers, slopes = model._mg1_terms
        tp = tc**powers
        theta = _dot(a, tp)
        dtheta = _dot(slopes, tp / tc)
        a1 = a[0]
        if a1 == 0.0:
            raise ZeroDenominatorError("model has no singleton rates")
        if metric is MetricKind.SF:
            return each(_sf_error, t, a1 * t - theta)
        if metric is MetricKind.FR:
            return (dtheta - a1) / a1
        if metric is MetricKind.RHR:
            return (dtheta / a1) * each(expm1_ratio, a1 * t, theta) - 1.0
        return t * dtheta / theta - 1.0  # AI; independent side is 1

    if fam is Family.MOMW:
        if metric in (MetricKind.RHR, MetricKind.AI):
            return None
        r, e = _momw_exponents(model, tc)
        tp = tc**e
        a_val = _dot(r, tp)
        da_val = _dot(r, e * tp / tc)
        lam, al, slopes = model._weibull_terms
        ta = tc**al
        s = _dot(lam, ta)
        ds = _dot(slopes, ta / tc)
        if metric is MetricKind.SF:
            return each(_sf_error, t, s - a_val)
        if _first_where(t, ds == 0.0) is not None:
            raise ZeroDenominatorError("model has no singleton rates")
        return (da_val - ds) / ds

    if fam in (Family.CROWDER, Family.LEE_II):
        lam, al, _ = model._weibull_terms
        s = _dot(lam, tc**al)
        g, ell = model.gamma, model.stable_exponent
        slope = ell * (g + s) ** (ell - 1.0)
        h = power_gap(g, s, ell)
        if metric is MetricKind.SF:
            return each(_sf_error, t, s - h)
        if metric is MetricKind.FR:
            return slope - 1.0
        if metric is MetricKind.RHR:
            return each(_rhr_error, t, slope, s, h)
        return slope * s / h - 1.0  # AI

    if fam is Family.LEE_ML:
        lam_l = model._lee_total
        s = independent_counterpart(model)._lee_total
        if s == 0.0:
            raise ZeroDenominatorError("model has no singleton rates")
        ta = power(t, model.alpha)
        if metric is MetricKind.SF:
            return each(_sf_error, t, -ta * (lam_l - s))
        if metric is MetricKind.FR:
            return _fill(t, lam_l / s - 1.0)
        if metric is MetricKind.RHR:
            return (lam_l / s) * each(expm1_ratio, s * ta, lam_l * ta) - 1.0
        return _fill(t, 0.0)  # AI is the common shape on both sides

    return None  # LuBI: no closed form; use the generic combinator


def lemma_g(beta: float, gamma: float, x: float) -> float:
    """(gamma/beta) * (e^{beta x} - 1)/(e^{gamma x} - 1) - 1.

    Increasing in x for beta > gamma, decreasing for beta < gamma, and
    identically 0 for beta == gamma; the limit at x -> 0+ is 0.
    """
    if not (beta > 0 and gamma > 0 and x > 0):
        raise DomainError("lemma_g requires beta, gamma, x > 0")
    if beta == gamma:
        return 0.0
    return (gamma / beta) * expm1_ratio(beta * x, gamma * x) - 1.0


def lemma_h(beta: float, gamma: float, alpha: float, x: float) -> float:
    """Power-time variant of :func:`lemma_g`: same expression at x**alpha."""
    if not (beta > 0 and gamma > 0 and alpha > 0 and x > 0):
        raise DomainError("lemma_h requires beta, gamma, alpha, x > 0")
    return lemma_g(beta, gamma, x**alpha)


# ---------------------------------------------------------------------------
# Curves and aging classification
# ---------------------------------------------------------------------------


class ErrorPoint(NamedTuple):
    """One grid point of an error curve (a tuple: one is built per point)."""

    t: float
    dep: float
    indep: float
    rel_err: float | None  # None: zero reference, or beyond the float range


@dataclass(frozen=True)
class ErrorCurve:
    metric: MetricKind
    points: tuple[ErrorPoint, ...]


def error_curve(
    model: ValidatedModel, metric: MetricKind, grid: GridLike
) -> ErrorCurve:
    """Pointwise relative error with the raw dependent/independent values.

    A point whose independent value is 0, or whose SF or RHR relative
    error exceeds the float range, has rel_err None.
    """
    metric = MetricKind(metric)
    pts = grid_points(grid, minimum=1)
    indep = independent_counterpart(model)
    h_dep, dh_dep = series_hazard(model, pts)
    h_ind, dh_ind = series_hazard(indep, pts)
    dep = _metric_values(metric, pts, h_dep, dh_dep).tolist()
    ind = _metric_values(metric, pts, h_ind, dh_ind).tolist()
    error = _ERROR_FROM_HAZARDS[metric]
    hazards = zip(h_dep.tolist(), dh_dep.tolist(), h_ind.tolist(),
                  dh_ind.tolist())
    out = []
    for t, dep_val, ind_val, hz in zip(pts.tolist(), dep, ind, hazards):
        try:
            rel = error(t, *hz) if ind_val != 0.0 else None
        except ZeroDenominatorError:
            rel = None
        out.append(ErrorPoint(t, dep_val, ind_val, rel))
    return ErrorCurve(metric=metric, points=tuple(out))


@dataclass(frozen=True)
class AgingClass:
    """Grid-based aging verdicts for the series system."""

    frclass: str  # "IFR" | "DFR" | "neither"
    fraclass: str  # "IFRA" | "DFRA" | "neither"
    aiclass: str  # "IAI" | "DAI" | "neither"
    fr_constant: bool
    ai_constant: bool
    evidence_grid: tuple[float, ...]


def _monotone_verdict(values: np.ndarray, up: str, down: str) -> tuple[str, bool]:
    diffs = np.diff(values)
    scale = MONOTONE_TOL * (1.0 + np.abs(values[:-1]))
    nondecreasing = bool(np.all(diffs >= -scale))
    nonincreasing = bool(np.all(diffs <= scale))
    if nondecreasing and nonincreasing:
        return "neither", True
    if nondecreasing:
        return up, False
    if nonincreasing:
        return down, False
    return "neither", False


def classify_aging(model: ValidatedModel, grid: GridLike) -> AgingClass:
    """Classify IFR/DFR, IFRA/DFRA, and IAI/DAI behavior on a grid.

    IFRA/DFRA follow from the aging intensity threshold at 1 (a system is
    IFRA exactly when AI >= 1 everywhere, DFRA when AI <= 1); when AI is
    identically 1 both conditions hold and IFRA is reported.  FR and AI
    monotonicity are judged to within MONOTONE_TOL, with constants flagged.
    """
    pts = grid_points(grid, minimum=3)
    h, fr = series_hazard(model, pts)
    ai = _metric_values(MetricKind.AI, pts, h, fr)

    frclass, fr_constant = _monotone_verdict(fr, "IFR", "DFR")
    aiclass, ai_constant = _monotone_verdict(ai, "IAI", "DAI")

    if np.all(ai >= 1.0 - MONOTONE_TOL):
        fraclass = "IFRA"
    elif np.all(ai <= 1.0 + MONOTONE_TOL):
        fraclass = "DFRA"
    else:
        fraclass = "neither"

    return AgingClass(
        frclass=frclass,
        fraclass=fraclass,
        aiclass=aiclass,
        fr_constant=fr_constant,
        ai_constant=ai_constant,
        evidence_grid=tuple(pts.tolist()),
    )
