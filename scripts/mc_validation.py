#!/usr/bin/env python3
"""Monte Carlo check of analytic series/parallel survival for shock models.

Samples the three samplable families (common-shock exponential, common-shock
Weibull, common-shape Weibull) and compares empirical system survival with
the closed-form answers, reporting z-scores.

Usage:
    python3 scripts/mc_validation.py [--draws N] [--seed S]
"""

import argparse
import math

import numpy as np

from deperr import (
    MetricKind,
    ModelSpec,
    estimate_system_sf,
    parallel_sf_ie,
    series_metric,
    validate_model,
)


def cases():
    rates = {(1,): 0.3, (2,): 0.4, (3,): 0.3, (1, 2): 0.2, (1, 2, 3): 0.15}
    yield validate_model(ModelSpec("MOME", 3, rates)), (0.3, 0.8, 1.5)
    yield (
        validate_model(
            ModelSpec("MOMW", 3, rates, shapes=(0.8, 1.4, 2.0))
        ),
        (0.2, 0.5, 1.0, 1.4, 2.0),  # both sides of the exponent switch at 1
    )
    yield (
        validate_model(
            ModelSpec("LeeML", 3, rates, alpha=1.5, scales=(0.9, 1.1, 1.3))
        ),
        (0.3, 0.8, 1.5),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'family':<8} {'struct':<9} {'t':>5} {'estimate':>10} "
          f"{'analytic':>10} {'z':>6}")
    for model, ts in cases():
        for structure in ("series", "parallel"):
            est = estimate_system_sf(
                model, structure, np.array(ts), args.draws, args.seed
            )
            for t, value in zip(ts, est.value.tolist()):
                if structure == "series":
                    exact = series_metric(model, MetricKind.SF, t)
                else:
                    exact = parallel_sf_ie(model, t).sf_ie
                se = math.sqrt(exact * (1.0 - exact) / args.draws)
                z = (value - exact) / se if se else float("nan")
                print(
                    f"{model.family.value:<8} {structure:<9} {t:>5.2f} "
                    f"{value:>10.5f} {exact:>10.5f} {z:>6.2f}"
                )


if __name__ == "__main__":
    main()
