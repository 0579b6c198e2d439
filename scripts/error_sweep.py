#!/usr/bin/env python3
"""Sweep the independence-assumption error across families and metrics.

For each dependence family with interaction terms, build a few models from
the family's fixed config with random rates, evaluate the relative error
of every metric over a log grid, and print a compact summary table
(min/max error per family and metric).

Usage:
    python3 scripts/error_sweep.py [--models N] [--seed S] [--n-components K]
"""

import argparse

import numpy as np

from deperr import MetricKind, ZeroDenominatorError, relative_error
from deperr.cli import model_from_dict

# Each family's parameters besides rates and shapes; shaped families cycle
# through SHAPES, and LeeML's scales c rise from 1 in steps of 0.1.
FAMILIES = {
    "MOME": {},
    "MG1": {},
    "MOMW": {},
    "Crowder": {"gamma": 0.5, "l": 0.6},
    "LeeII": {"gamma": 0.0, "l": 0.6},
    "LeeML": {"alpha": 1.5},
    "LuBI": {"delta": 0.5, "m": 1.5},
}
SHAPES = (0.8, 1.4, 2.0)
SHOCK_FAMILIES = ("MOME", "MG1", "MOMW", "LeeML")


def model_config(family: str, n: int, rng) -> dict:
    """The family's config on n components with rates drawn from rng.

    Singleton rates are uniform on [0.2, 1.5).  Shock families add one
    shock on all n components; for MG1 it is a tenth of the product of the
    singleton rates, inside that family's validity region.
    """
    lam = rng.uniform(0.2, 1.5, n)
    rates = [{"subset": [i + 1], "lambda": float(x)} for i, x in enumerate(lam)]
    if family in SHOCK_FAMILIES and n > 1:
        shock = (0.1 * float(np.prod(lam)) if family == "MG1"
                 else float(rng.uniform(0.1, 1.0)))
        rates.append({"subset": list(range(1, n + 1)), "lambda": shock})
    config = {"family": family, "n": n, "rates": rates, **FAMILIES[family]}
    if family in ("MOMW", "Crowder", "LeeII", "LuBI"):
        config["shapes"] = [SHAPES[i % len(SHAPES)] for i in range(n)]
    if family == "LeeML":
        config["c"] = [1.0 + 0.1 * i for i in range(n)]
    return config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-components", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    grid = np.geomspace(0.05, 5.0, 25)

    print(f"{'family':<10} {'metric':<5} {'min err':>12} {'max err':>12}")
    for family in FAMILIES:
        models = [
            model_from_dict(model_config(family, args.n_components, rng))
            for _ in range(args.models)
        ]
        for metric in MetricKind:
            values = []
            for m in models:
                for t in grid:
                    try:
                        values.append(relative_error(m, metric, float(t)))
                    except ZeroDenominatorError:
                        continue
            print(
                f"{family:<10} {metric.value:<5} "
                f"{min(values):>12.4e} {max(values):>12.4e}"
            )


if __name__ == "__main__":
    main()
