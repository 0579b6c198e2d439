"""Small numeric helpers used by the metric and error formulas.

The kernels take a float t or a 1-D array of times.  Both paths sum one
term table per model, an array's in numpy over the whole array, a float's
on Python floats in another order: they agree to 1e-14 relative where no
power is subnormal, not to the bit.  Transcendentals whose values reach the output (exp,
expm1, expm1_ratio) are applied per point with `math` through :func:`each`
on either path; :func:`power_gap` alone takes numpy's expm1 and log1p on
an array.
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


def power_gap(g: float, s, ell: float):
    """(g + s)**ell - g**ell for s >= 0, a float or an array, quietly: for
    g > 0, g**ell * expm1(ell * log1p(s / g)), which does not cancel when
    s << g, and where that is not finite (g + s)**ell * -expm1(-ell *
    log1p(s / g)), inf only where (g + s)**ell is (a float via an array)."""
    if not isinstance(s, np.ndarray):
        try:
            h = s**ell if g == 0.0 else g**ell * math.expm1(ell * math.log1p(s / g))
        except OverflowError:
            h = math.inf
        if h < math.inf:  # neither inf nor nan
            return h
        return float(power_gap(g, np.array([s], dtype=float), ell)[0])
    with np.errstate(over="ignore", invalid="ignore"):
        if g == 0.0:
            return s**ell
        x = ell * np.log1p(s / g)
        h = g**ell * np.expm1(x)
        far = ~np.isfinite(h)  # s / g or expm1 overflowed, or g**ell underflowed
        h[far] = (g + s[far]) ** ell * -np.expm1(-x[far])
        return h


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
