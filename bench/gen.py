"""Seeded model generator for the benchmark workloads.

Models come out as the JSON dicts the `dep-err` CLI reads (the keys of
`deperr.cli.model_from_dict`), so the program only ever sees generated
configs.  Parameter ranges follow the package's own random-model
construction: rates in [0.05, 1.5), Weibull shapes in [0.6, 2.5),
MG1 interaction rates drawn as a fraction in [0.05, 0.3) of the product of
the member singleton rates (the product bound that keeps the Gumbel
survival a distribution), and the LuBI exponent m in [0.5, 2.0).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

FAMILIES = ("IndepExp", "MOME", "MG1", "IndepWeibull", "MOMW", "Crowder",
            "LeeII", "LeeML", "LuBI")
# Families whose rate map may carry subsets of size >= 2.
INTERACTING = ("MOME", "MG1", "MOMW", "LeeML")
SHAPED = ("IndepWeibull", "MOMW", "Crowder", "LeeII", "LuBI")
# Families with a shock-model sampler (`dep-err simulate`).
SAMPLABLE = ("IndepExp", "MOME", "IndepWeibull", "MOMW", "LeeML")

RATE_RANGE = (0.05, 1.5)
SHAPE_RANGE = (0.6, 2.5)
MG1_COUPLING = (0.05, 0.3)
INCLUDE_PROB = 0.6


def _rates_list(rates: dict) -> list[dict]:
    return [{"subset": list(s), "lambda": lam} for s, lam in rates.items()]


def _singletons(rng, n: int) -> dict:
    return {(i,): float(rng.uniform(*RATE_RANGE)) for i in range(1, n + 1)}


def _mg1_rate(rng, singles: dict, combo) -> float:
    prod = math.prod(singles[(i,)] for i in combo)
    return float(rng.uniform(*MG1_COUPLING)) * prod


def _dense_interactions(rng, family: str, singles: dict, n: int) -> dict:
    """Each subset of size >= 2 joins with probability 0.6.

    Exactly round(0.6 * pool) subsets (at least one) are drawn without
    replacement, so every model of a given family and n carries the same
    number of shocks and costs about the same to evaluate and sample.
    """
    pool = [c for size in range(2, n + 1)
            for c in combinations(range(1, n + 1), size)]
    rates = dict(singles)
    count = max(1, round(INCLUDE_PROB * len(pool)))
    picked = [pool[i] for i in sorted(rng.choice(len(pool), count,
                                                 replace=False))]
    for combo in picked:
        if family == "MG1":
            rates[combo] = _mg1_rate(rng, singles, combo)
        else:
            rates[combo] = float(rng.uniform(*RATE_RANGE))
    return rates


def _family_params(rng, family: str, n: int) -> dict:
    out: dict = {}
    if family in SHAPED:
        out["shapes"] = [float(rng.uniform(*SHAPE_RANGE)) for _ in range(n)]
    if family == "Crowder":
        out["gamma"] = float(rng.uniform(0.0, 1.0))
        out["l"] = float(rng.uniform(0.3, 1.0))
    elif family == "LeeII":
        out["gamma"] = 0.0
        out["l"] = float(rng.uniform(0.3, 1.0))
    elif family == "LeeML":
        out["alpha"] = float(rng.uniform(0.5, 2.5))
        out["c"] = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
    elif family == "LuBI":
        out["delta"] = float(rng.uniform(0.1, 1.0))
        out["m"] = float(rng.uniform(0.5, 2.0))
    return out


def random_model(rng, family: str, n: int) -> dict:
    """A model with dense random interactions where the family has them."""
    singles = _singletons(rng, n)
    rates = (_dense_interactions(rng, family, singles, n)
             if family in INTERACTING else singles)
    return {"family": family, "n": n, "rates": _rates_list(rates),
            **_family_params(rng, family, n)}


def sparse_shock_model(rng, family: str, n: int) -> dict:
    """Singletons, up to three random pair shocks and one global shock.

    Non-interacting families keep their singletons only.  Rates are scaled
    so that the mean component hazard at t = 1 is -log(1 - 0.5**(1/n)):
    were the components independent, the parallel survival at t = 1 would
    be 1/2, so it is neither 0 nor 1 on a grid around t = 1.
    """
    singles = _singletons(rng, n)
    params = _family_params(rng, family, n)
    shocks: dict = {}
    if family in INTERACTING:
        combos = [tuple(sorted(rng.choice(np.arange(1, n + 1), 2,
                                          replace=False).tolist()))
                  for _ in range(3)]
        for combo in combos + [tuple(range(1, n + 1))]:
            shocks[combo] = float(rng.uniform(
                *(MG1_COUPLING if family == "MG1" else RATE_RANGE)))
    target = -math.log1p(-0.5 ** (1.0 / n))
    return scale_to_hazard({"family": family, "n": n, **params}, singles,
                           shocks, target, series=False)


def shock_model(rng, family: str, n: int, series: bool) -> dict:
    """A samplable `random_model` rescaled so survival at t = 1 is near 1/2.

    For a series system the series hazard at t = 1 is set to log 2; for a
    parallel one the mean component hazard is set as in
    `sparse_shock_model`.  Used where Monte Carlo needs survival well away
    from 0 and 1 across a grid around t = 1.
    """
    model = random_model(rng, family, n)
    rates = _rate_map(model)
    singles = {k: v for k, v in rates.items() if len(k) == 1}
    shocks = {k: v for k, v in rates.items() if len(k) > 1}
    target = math.log(2.0) if series else -math.log1p(-0.5 ** (1.0 / n))
    return scale_to_hazard(model, singles, shocks, target, series=series)


def _scaled_rates(family: str, singles: dict, shocks: dict, c: float) -> dict:
    """Rates times c; MG1 shocks are fractions of the scaled product bound."""
    scaled = {k: c * v for k, v in singles.items()}
    if family == "MG1":
        inter = {k: frac * math.prod(scaled[(i,)] for i in k)
                 for k, frac in shocks.items()}
    else:
        inter = {k: c * v for k, v in shocks.items()}
    return {**scaled, **inter}


def scale_to_hazard(model: dict, singles: dict, shocks: dict, target: float,
                    series: bool) -> dict:
    """Scale all rates by one factor to hit a hazard target at t = 1.

    The target is the series hazard (`series`) or else the mean component
    hazard; both grow monotonically with the factor, so bisection in log
    space finds it.
    """
    family = model["family"]

    def with_rates(c: float) -> dict:
        out = dict(model)
        out["rates"] = _rates_list(_scaled_rates(family, singles, shocks, c))
        return out

    def hazard(c: float) -> float:
        probe = with_rates(c)
        if series:
            return series_hazard_at_one(probe)
        return float(np.mean(marginal_hazards(probe, 1.0)))

    lo, hi = 1e-6, 1e6
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if hazard(mid) < target:
            lo = mid
        else:
            hi = mid
    return with_rates(math.sqrt(lo * hi))


# ---------------------------------------------------------------------------
# Closed-form marginals, written independently of the package
# ---------------------------------------------------------------------------


def _rate_map(model: dict) -> dict:
    return {tuple(e["subset"]): e["lambda"] for e in model["rates"]}


def marginal_hazards(model: dict, t: float) -> np.ndarray:
    """-log P(X_i > t) for each component i, from the family definition."""
    fam, n = model["family"], model["n"]
    rates = _rate_map(model)
    hit = np.zeros(n)  # total rate of the subsets containing i
    for subset, lam in rates.items():
        for i in subset:
            hit[i - 1] += lam
    single = np.array([rates.get((i,), 0.0) for i in range(1, n + 1)])
    shapes = np.asarray(model.get("shapes", [1.0] * n), dtype=float)
    if fam in ("IndepExp", "MOME"):
        return hit * t
    if fam == "MG1":
        return single * t
    if fam in ("IndepWeibull", "MOMW"):
        return hit * t ** shapes
    if fam in ("Crowder", "LeeII"):
        g, ell = model["gamma"], model["l"]
        return (g + single * t ** shapes) ** ell - g ** ell
    if fam == "LeeML":
        c = np.asarray(model["c"], dtype=float)
        return hit * (c * t) ** model["alpha"]
    if fam == "LuBI":
        return (1.0 + model["delta"]) * single * t ** shapes
    raise ValueError(f"unknown family {fam}")


def independent_marginal_hazards(model: dict, t: float) -> np.ndarray:
    """Marginal hazards of the model with its dependence removed."""
    fam = model["family"]
    n = model["n"]
    single = {k: v for k, v in _rate_map(model).items() if len(k) == 1}
    indep = dict(model)
    indep["rates"] = _rates_list(single)
    if fam in ("Crowder", "LeeII"):
        shapes = np.asarray(model["shapes"], dtype=float)
        lam = np.array([single.get((i,), 0.0) for i in range(1, n + 1)])
        return lam * t ** shapes
    if fam == "LuBI":
        indep["delta"] = 0.0
    return marginal_hazards(indep, t)


def series_hazard_at_one(model: dict) -> float:
    """Series cumulative hazard at t = 1 of the shock-model families.

    At t = 1 every Weibull power is 1, so a shock on S contributes its
    rate (times max c_i**alpha over S for LeeML).
    """
    fam = model["family"]
    rates = _rate_map(model)
    if fam in ("IndepExp", "MOME", "IndepWeibull", "MOMW"):
        return sum(rates.values())
    if fam == "LeeML":
        cp = [c ** model["alpha"] for c in model["c"]]
        return sum(lam * max(cp[i - 1] for i in s) for s, lam in rates.items())
    raise ValueError(f"no series scaling for family {fam}")


def log_grid_strata(rng, k: int, lo: float = 1e-3, hi: float = 1e3
                    ) -> list[float]:
    """k log-uniform points, one in each of k equal log-width strata."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / k
    return [math.exp(a + width * (j + rng.random())) for j in range(k)]
