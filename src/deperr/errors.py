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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, SingularityError, ZeroDenominatorError
from .grids import GridLike, grid_points
from .models import (
    Family,
    MetricKind,
    ValidatedModel,
    _fill,
    _first_where,
    _metric_kind,
    _metric_values,
    _times,
    series_hazard,
)
from .numerics import each, expm1_ratio, power_gap

#: relative tolerance for grid-based monotonicity/constancy verdicts
MONOTONE_TOL = 1e-9


def _expm1(x: float) -> float:
    """exp(x) - 1, or inf beyond the float range."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


# Per-point relative error from the hazards (H_d, H_d', H_i, H_i'); none
# raises: inf beyond the float range, nan at inf/inf, 0/0 or a 0 divisor.
# AI takes the ratio of the ratios H'/H where a product is inf, all four
# hazards are finite and > 0 and H_i'/H_i is not 0; it is nan where H_d is
# inf, as the dependent AI is there.
_ERROR_FROM_HAZARDS = {
    MetricKind.SF: lambda hd, dhd, hi, dhi: _expm1(hi - hd),
    MetricKind.FR: lambda hd, dhd, hi, dhi: dhd / dhi - 1.0 if dhi else math.nan,
    MetricKind.RHR: lambda hd, dhd, hi, dhi: (
        dhd / dhi * expm1_ratio(hi, hd) - 1.0 if dhi and hd else math.nan),
    MetricKind.AI: lambda hd, dhd, hi, dhi: (
        n / d - 1.0 if (n := dhd * hi) + (d := dhi * hd) < math.inf and d
        else (dhd / hd) / r - 1.0 if math.inf in (n, d)
        and all(0.0 < h < math.inf for h in (hd, dhd, hi, dhi)) and (r := dhi / hi)
        else n / d - 1.0 if d and hd < math.inf else math.nan),
}


def _defined(metric: MetricKind, t, err):
    """err at t, floats or arrays, if finite: the one rule for an undefined
    error.  A first inf raises ZeroDenominatorError, else a nan SingularityError."""
    if math.isfinite(err) if isinstance(err, float) else np.isfinite(err).all():
        return err
    bad = _first_where(t, np.isinf(err))
    if bad is not None:
        raise ZeroDenominatorError(
            f"{metric.value} relative error exceeds the float range at t={bad}")
    raise SingularityError(f"{metric.value} error meets inf/inf or 0/0 at "
                           f"t={_first_where(t, err != err)}")


def relative_error(model: ValidatedModel, metric: MetricKind, t):
    """Generic relative error of the named series metric at time t.

    t is a float, giving a float, or a 1-D array, giving an array.  Where
    the independent metric is 0 or the error is inf, ZeroDenominatorError
    names the first such t; where the hazards give inf/inf or 0/0, so does
    SingularityError.
    """
    metric, t = _metric_kind(metric), _times(t)
    h_ind, dh_ind = series_hazard(model._indep, t)
    # Evaluating the reference metric both enforces the domain checks and
    # surfaces an exact zero denominator before the stable combinator runs.
    bad = _first_where(t, _metric_values(metric, t, h_ind, dh_ind) == 0.0)
    if bad is not None:
        raise ZeroDenominatorError(
            f"independent-counterpart {metric.value} is 0 at t={bad}")
    h_dep, dh_dep = series_hazard(model, t)
    return _defined(metric, t, each(
        _ERROR_FROM_HAZARDS[metric], h_dep, dh_dep, h_ind, dh_ind))


def closed_form_error(model: ValidatedModel, metric: MetricKind, t):
    """Per-family closed-form relative error, or None when no form exists.

    Each form is derived from the survival functions themselves as an
    algebraic rewrite of the generic combinator, which the test suite
    asserts.  t is a float, giving a float, or a 1-D array, giving an
    array, whose powers and sums run quietly, with expm1 per point.  Where
    t, or the hazard a form reads (lam * x for the MOME and LeeML RHR), is
    inf or (Crowder/LeeII) 0, where LeeML's t**alpha is 0 (SF, RHR, AI),
    and for FR, RHR and AI where the counterpart's H_i' (MG1, MOMW) or
    singleton total s (MOME, LeeML) is 0, the error is the generic one.
    It is refused where inf or nan as relative_error's is.
    """
    metric, t = _metric_kind(metric), _times(t)
    if isinstance(t, float):  # a Python float division overflows quietly
        err = _closed_form(model, metric, t)
    else:  # quiet, as MG1's a1 * t is 0 * inf at a1 = 0 and t = inf
        with np.errstate(over="ignore", invalid="ignore"):
            err = _closed_form(model, metric, t)
    return None if err is None else _defined(metric, t, err)


def _closed_form(model: ValidatedModel, metric: MetricKind, t):
    fam = model.family
    if model._is_product:  # no dependence: exactly 0, where a form may be nan
        return _fill(t, 0.0)
    if fam is Family.LU_BI or (
            fam is Family.MOMW and metric in (MetricKind.RHR, MetricKind.AI)):
        return None  # no closed form; use the generic combinator
    # The forms meet inf - inf and inf/inf where t or the hazard they read is
    # inf (MOMW's H_d >= H_i; the MOME/LeeML RHR's lam * x, as expm1_ratio(inf,
    # inf) is 1), and 0/0 where the Crowder/LeeII H_d or LeeML's x = t**alpha
    # is 0 (FR's form reads no x); every form but SF's needs the counterpart's
    # H_i' or s > 0 (LeeML's H_i' may underflow where s > 0): generic there.
    if fam in (Family.MOME, Family.LEE_ML):  # H = lam * x, x = t or t**alpha
        if fam is Family.MOME:
            x, lam = t, model.rates.total
            s = sum(model.rates.singleton_vector.tolist())  # Python floats: quiet
        else:
            with np.errstate(over="ignore"):  # t**alpha may be inf
                x = np.power(t, model.alpha)
            x = float(x) if isinstance(t, float) else x  # quiet: not np.float64
            lam, s = model._lee_total, model._indep._lee_total
        edge = ((t == math.inf) | (metric is not MetricKind.FR) & (x == 0.0)
                | (metric is MetricKind.RHR) & (lam * x == math.inf)
                | (metric is not MetricKind.SF) & (s == 0.0))
        if fam is Family.LEE_ML and metric is MetricKind.FR:
            edge = edge | (series_hazard(model._indep, t)[1] == 0.0)
    else:  # the hazard pairs (hi, dhi) of the counterpart and (h, dh)
        if fam is Family.MG1:  # a1, the left sum of MG1's own term table
            dhi = sum(model.rates.singleton_vector.tolist())  # Python floats: quiet
            hi = dhi * t
        else:
            hi, dhi = series_hazard(model._indep, t)  # IndepWeibull
        if fam in (Family.MG1, Family.MOMW):
            h, dh = series_hazard(model, t)
            edge = (h == math.inf) | (metric is not MetricKind.SF) & (dhi == 0.0)
        else:  # Crowder and LeeII
            h = power_gap(model.gamma, hi, model.stable_exponent)  # H_d, or inf
            edge = (h == math.inf) | (h == 0.0)
    if _first_where(t, edge) is not None:
        if isinstance(t, float):
            return relative_error(model, metric, t)
        return np.array([closed_form_error(model, metric, u) for u in t])

    if fam in (Family.MOME, Family.LEE_ML):
        if metric is MetricKind.SF:
            return each(_expm1, -x * (lam - s))
        if metric is MetricKind.FR:
            return _fill(t, (lam - s) / s)
        if metric is MetricKind.RHR:
            return (lam / s) * each(expm1_ratio, s * x, lam * x) - 1.0
        return _fill(t, 0.0)  # AI is 1, or LeeML's common shape, on both sides
    if metric is MetricKind.SF:
        return each(_expm1, hi - h)
    if fam in (Family.MG1, Family.MOMW):  # MOMW has no RHR or AI form
        if metric is MetricKind.FR:
            return (dh - dhi) / dhi
        if metric is MetricKind.RHR:
            return (dh / dhi) * each(expm1_ratio, hi, h) - 1.0
        return _metric_values(MetricKind.AI, t, h, dh) - 1.0  # AI_i is 1
    g, ell = model.gamma, model.stable_exponent  # Crowder and LeeII
    slope = ell * (g + hi) ** (ell - 1.0)
    if metric is MetricKind.FR:
        return slope - 1.0
    if metric is MetricKind.RHR:
        return slope * each(expm1_ratio, hi, h) - 1.0
    ps = slope * hi  # AI; where that product overflows, slope * (hi / h)
    if isinstance(ps, np.ndarray):
        return np.where(ps < math.inf, ps / h, slope * (hi / h)) - 1.0
    return (ps / h if ps < math.inf else slope * (hi / h)) - 1.0


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
    """One grid point of an error curve, as `ErrorCurve.points` gives it.

    dep and indep are None where that side's metric is undefined (RHR and
    AI where H <= 0, AI where H = inf); rel_err is None there too, and
    where indep is 0 or the error is inf or nan.
    """

    t: float
    dep: float | None
    indep: float | None
    rel_err: float | None


@dataclass(frozen=True)
class ErrorCurve:
    """An error curve by column; `points` zips it into rows when first read."""

    metric: MetricKind
    t: tuple[float, ...]
    dep: tuple[float | None, ...]
    indep: tuple[float | None, ...]
    rel_err: tuple[float | None, ...]

    @cached_property
    def points(self) -> tuple[ErrorPoint, ...]:
        return tuple(map(ErrorPoint, self.t, self.dep, self.indep, self.rel_err))


def error_curve(
    model: ValidatedModel, metric: MetricKind, grid: GridLike
) -> ErrorCurve:
    """Pointwise relative error with the raw dependent/independent values.

    A value that :func:`series_metric` or :func:`relative_error` refuses
    is None in its column, not raised.
    """
    metric = MetricKind(metric)
    pts = grid_points(grid, minimum=1)
    sides = series_hazard(model, pts), series_hazard(model._indep, pts)
    if metric in (MetricKind.RHR, MetricKind.AI):
        # A side's metric is undefined where H <= 0, and AI's where H = inf:
        # nan hazards there read nan below, quietly, and spare expm1_ratio
        # the expm1(0) = 0 it would divide by.
        top = math.inf if metric is MetricKind.RHR else np.finfo(float).max
        sides = [[np.where((h > 0.0) & (h <= top), x, math.nan) for x in (h, dh)]
                 for h, dh in sides]
    dep, ind = (tuple([v if v == v else None  # nan: that side is undefined
                       for v in _metric_values(metric, pts, *side).tolist()])
                for side in sides)
    err = each(_ERROR_FROM_HAZARDS[metric], *sides[0], *sides[1])
    return ErrorCurve(metric, tuple(pts.tolist()), dep, ind, tuple([
        e if i != 0.0 and math.isfinite(e) else None  # i None where nan
        for i, e in zip(ind, err.tolist())]))


@dataclass(frozen=True)
class AgingClass:
    """Grid-based aging verdicts for the series system."""

    frclass: str  # "IFR" | "DFR" | "neither"
    fraclass: str  # "IFRA" | "DFRA" | "neither"
    aiclass: str  # "IAI" | "DAI" | "neither"
    fr_constant: bool
    ai_constant: bool


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

    return AgingClass(frclass, fraclass, aiclass, fr_constant, ai_constant)
