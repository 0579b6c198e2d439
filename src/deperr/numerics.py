"""Small numeric helpers used by the metric and error formulas.

The kernels take a float t or a 1-D array of times.  Transcendentals whose
values reach the output (exp, expm1, expm1_ratio) are applied per point
with `math` through :func:`each`, so a point's value does not depend on
whether it was computed alone or in a batch.
"""

from __future__ import annotations

import math

import numpy as np

# exp(x) overflows around 709.78; switch to the log-space form well before.
_EXP_SWITCH = 700.0


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def each(fn, *args):
    """fn(*args) for floats; fn over the points of equal-length 1-D arrays."""
    if isinstance(args[0], np.ndarray):
        cols = [a.tolist() for a in args]
        return np.fromiter(map(fn, *cols), float, len(cols[0]))
    return fn(*args)


def power(t, a: float):
    """t**a by numpy's loop, so a float t (giving a float) matches a batch.

    A power beyond the float range is inf, silently: the callers take it.
    """
    with np.errstate(over="ignore"):
        p = np.power(t, a)
    return p if isinstance(t, np.ndarray) else float(p)


def power_gap(g: float, s, ell: float):
    """(g + s)**ell - g**ell for s >= 0, a float or an array.

    Written g**ell * expm1(ell * log1p(s / g)) for g > 0, which does not
    cancel when s << g.
    """
    if g == 0.0:
        return s**ell
    if isinstance(s, np.ndarray):
        return g**ell * np.expm1(ell * np.log1p(s / g))
    return g**ell * math.expm1(ell * math.log1p(s / g))


def expm1_ratio(a: float, b: float) -> float:
    """Compute expm1(a)/expm1(b) for a, b > 0 without overflow.

    For large arguments the direct ratio is inf/inf; rewrite as
    exp(a-b) * (1-exp(-a)) / (1-exp(-b)), which is stable for any
    positive a, b.
    """
    if a == b:
        return 1.0
    if a < _EXP_SWITCH and b < _EXP_SWITCH:
        return math.expm1(a) / math.expm1(b)
    if a - b > _EXP_SWITCH:  # ratio exceeds float range
        return math.inf
    return math.exp(a - b) * math.expm1(-a) / math.expm1(-b)


def clamp_unit(p: float) -> float:
    """Clamp a probability to [0, 1] after floating-point rounding."""
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p
