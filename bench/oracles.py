"""Output checks for the benchmark, each returning a reason or None.

The tolerances are the package's acceptance criteria: closed-form vs generic
relative error 1e-8 (criterion 1), FR vs finite differences 1e-5
(criterion 2), inclusion-exclusion vs compact parallel form 1e-10
(criterion 5) and Monte Carlo within 3.5 standard errors (criterion 6).
Series survival is also held to the joint survival on the diagonal,
SF(t) = joint_sf(t, ..., t), and parallel survival to bounds computed here
from closed-form marginals.
"""

from __future__ import annotations

import math

import numpy as np

from gen import independent_marginal_hazards, marginal_hazards

CLOSED_TOL = 1e-8
FD_TOL = 1e-5
DIAG_TOL = 1e-9
IE_TOL = 1e-10
MC_Z = 3.5


def closed_vs_generic(closed: float, generic: float) -> str | None:
    if closed == generic:  # also equal infinities
        return None
    err = abs(closed - generic) / (1.0 + abs(closed))
    if not err <= CLOSED_TOL:
        return f"closed form {closed!r} vs generic {generic!r}"
    return None


def fr_vs_fd(fr: float, fd: float) -> str | None:
    err = abs(fd - fr) / (1.0 + abs(fr))
    if not err <= FD_TOL:
        return f"FR {fr!r} vs finite difference {fd!r}"
    return None


def series_vs_joint(sf: float, joint: float) -> str | None:
    """Series survival must equal the joint survival on the diagonal."""
    if not abs(sf - joint) <= DIAG_TOL * max(abs(sf), abs(joint)):
        return f"series SF {sf!r} vs joint_sf(t*1) {joint!r}"
    return None


def ie_vs_compact(sf_ie: float, sf_closed: float) -> str | None:
    if not abs(sf_ie - sf_closed) <= IE_TOL:
        return f"IE {sf_ie!r} vs compact form {sf_closed!r}"
    return None


def mc_within(estimate: float, analytic: float, draws: int) -> str | None:
    """|estimate - analytic| within MC_Z standard errors of the analytic."""
    se = math.sqrt(analytic * (1.0 - analytic) / draws)
    diff = abs(estimate - analytic)
    z = diff / se if se else (0.0 if diff == 0.0 else math.inf)
    if not z <= MC_Z:
        return f"Monte Carlo {estimate!r} vs analytic {analytic!r}: z={z:.1f}"
    return None


def parallel_bounds(model: dict, t: float, sf_ie: float) -> str | None:
    """max_i SF_i(t) <= P(max X > t) <= min(1, sum_i SF_i(t))."""
    sf_i = np.exp(-marginal_hazards(model, t))
    lo, hi = float(sf_i.max()), min(1.0, float(sf_i.sum()))
    slack = 1e-12 + 2.0 ** model["n"] * 1e-15
    if not lo - slack <= sf_ie <= hi + slack:
        return f"parallel SF {sf_ie!r} outside [{lo!r}, {hi!r}]"
    return None


def independent_parallel_sf(model: dict, t: float) -> float:
    """Parallel survival of the independent counterpart, 1 - prod F_i."""
    sf_i = np.exp(-independent_marginal_hazards(model, t))
    return -math.expm1(float(np.sum(np.log1p(-sf_i))))


def parallel_rel_err(model: dict, t: float, sf_ie: float,
                     rel_err: float) -> str | None:
    """rel_err = sf_ie / (independent parallel SF) - 1, with IE round-off.

    Inclusion-exclusion over 2^n terms carries an absolute error of about
    2^n * eps on each survival; the tolerance propagates that bound.
    """
    ind = independent_parallel_sf(model, t)
    expected = sf_ie / ind - 1.0
    abs_err = 2.0 ** model["n"] * 1e-14
    tol = abs_err / ind + sf_ie * abs_err / ind**2 + 1e-12
    if not abs(rel_err - expected) <= tol * (1.0 + abs(expected)):
        return f"parallel rel_err {rel_err!r} vs {expected!r}"
    return None


def same_bytes(first: bytes, again: bytes) -> str | None:
    if first != again:
        return "CLI output differs on rerun"
    return None


# ---------------------------------------------------------------------------
# Aging classification, re-derived from FR and AI columns
# ---------------------------------------------------------------------------

MONOTONE_TOL = 1e-9


def _verdict(values: np.ndarray, up: str, down: str) -> tuple[str, bool]:
    diffs = np.diff(values)
    scale = MONOTONE_TOL * (1.0 + np.abs(values[:-1]))
    nondec = bool(np.all(diffs >= -scale))
    noninc = bool(np.all(diffs <= scale))
    if nondec and noninc:
        return "neither", True
    if nondec:
        return up, False
    if noninc:
        return down, False
    return "neither", False


def aging_classes(fr: np.ndarray, ai: np.ndarray) -> list[str]:
    """[frclass, fraclass, aiclass, fr_constant, ai_constant] as CSV text."""
    frclass, fr_const = _verdict(fr, "IFR", "DFR")
    aiclass, ai_const = _verdict(ai, "IAI", "DAI")
    if np.all(ai >= 1.0 - MONOTONE_TOL):
        fraclass = "IFRA"
    elif np.all(ai <= 1.0 + MONOTONE_TOL):
        fraclass = "DFRA"
    else:
        fraclass = "neither"
    return [frclass, fraclass, aiclass, str(fr_const).lower(),
            str(ai_const).lower()]


def classify_matches(row: list[str], fr: np.ndarray,
                     ai: np.ndarray) -> str | None:
    expected = aging_classes(fr, ai)
    if row != expected:
        return f"classify {row} vs {expected} from the eval columns"
    return None
