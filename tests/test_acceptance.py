"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each test exercises a whole-library property at desk scale and reports a
single line through the capture-disabled console so the verdicts are
visible in plain pytest output.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from deperr import (
    Family,
    MetricKind,
    ModelSpec,
    ZeroDenominatorError,
    classify_aging,
    closed_form_error,
    estimate_system_sf,
    independent_counterpart,
    lemma_g,
    parallel_sf_ie,
    relative_error,
    sample_model,
    series_metric,
    validate_model,
)
from deperr.simulate import finite_diff_metric

from conftest import ALL_FAMILIES, random_model

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
METRICS = list(MetricKind)

CLOSED_FORM_FAMILIES = ("MOME", "MG1", "MOMW", "Crowder", "LeeII", "LeeML")


def report(capsys, cid, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {cid}] {verdict} — {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_1_closed_vs_generic(capsys):
    """Closed forms match the generic combinator to 1e-8 relative."""
    rng = np.random.default_rng(101)
    grid = np.geomspace(0.05, 5.0, 20)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for family in CLOSED_FORM_FAMILIES:
        for draw in range(200):
            n = 2 + draw % 3
            m = random_model(family, n, rng)
            for metric in METRICS:
                for t in grid:
                    t = float(t)
                    closed = closed_form_error(m, metric, t)
                    if closed is None:
                        continue
                    try:
                        generic = relative_error(m, metric, t)
                    except ZeroDenominatorError:
                        continue  # reference survival underflowed to 0
                    err = abs(closed - generic) / (1.0 + abs(closed))
                    worst = max(worst, err)
                    checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(
        capsys, 1, ok,
        f"closed vs generic: {checked} comparisons, worst rel dev "
        f"{worst:.2e} (tol 1e-8), {elapsed:.1f}s (target <10s)",
    )


def test_criterion_2_metric_consistency(capsys):
    """FR agrees with a finite-difference oracle; AI*H == t*FR exactly."""
    rng = np.random.default_rng(102)
    grid = np.geomspace(0.05, 5.0, 20)
    worst_fd = 0.0
    worst_id = 0.0
    for family in ALL_FAMILIES:
        for _ in range(5):
            m = random_model(family, 3, rng)
            for t in grid:
                t = float(t)
                sf = series_metric(m, MetricKind.SF, t)
                if sf == 0.0:
                    continue  # survival underflowed; no log-scale oracle
                fr = series_metric(m, MetricKind.FR, t)
                fd = finite_diff_metric(m, MetricKind.FR, t)
                worst_fd = max(worst_fd, abs(fd - fr) / (1.0 + abs(fr)))
                ai = series_metric(m, MetricKind.AI, t)
                ident = abs(ai * (-math.log(sf)) - t * fr) / (1.0 + t * fr)
                worst_id = max(worst_id, ident)
    ok = worst_fd <= 1e-5 and worst_id <= 1e-10
    report(
        capsys, 2, ok,
        f"all families: |FR - FD| worst {worst_fd:.2e} (tol 1e-5), "
        f"AI identity worst {worst_id:.2e} (tol 1e-10)",
    )


def test_criterion_3_signs_and_monotonicity(capsys):
    """Published sign/monotonicity statements hold on 200-point grids."""
    rng = np.random.default_rng(103)
    tol = 1e-9
    grid = np.geomspace(1e-3, 1e3, 200)
    violations = []

    for _ in range(20):
        m = random_model("MOME", 3, rng, rate_range=(0.02, 0.2))
        rhr = [closed_form_error(m, MetricKind.RHR, float(t)) for t in grid]
        if not all(v <= tol for v in rhr):
            violations.append("common-shock RHR error not <= 0")
        if not all(b - a <= tol for a, b in zip(rhr, rhr[1:])):
            violations.append("common-shock RHR error not nonincreasing")
        sf = [closed_form_error(m, MetricKind.SF, float(t)) for t in grid]
        # expm1 saturates at exactly -1 for very large t; allow the limit
        if not all(-1.0 <= v <= tol for v in sf):
            violations.append("common-shock SF error outside (-1, 0]")
        if not all(b - a <= tol for a, b in zip(sf, sf[1:])):
            violations.append("common-shock SF error not decreasing")

    mg_grid = np.geomspace(1e-3, 10.0, 200)
    for _ in range(20):
        m = random_model("MG1", 3, rng, rate_range=(0.05, 0.5))
        fr = [closed_form_error(m, MetricKind.FR, float(t)) for t in mg_grid]
        if not all(v >= -tol for v in fr):
            violations.append("product-interaction FR error not >= 0")
        if not all(b - a >= -tol for a, b in zip(fr, fr[1:])):
            violations.append("product-interaction FR error not nondecreasing")
        ai = [closed_form_error(m, MetricKind.AI, float(t)) for t in mg_grid]
        if not all(-tol <= v <= m.n - 1 + tol for v in ai):
            violations.append("product-interaction AI error outside [0, n-1]")

    for _ in range(20):
        m = random_model("LeeML", 3, rng)
        ai = [closed_form_error(m, MetricKind.AI, t) for t in (0.2, 1.0, 5.0)]
        if not all(abs(v) <= tol for v in ai):
            violations.append("common-shape AI error not identically 0")

    xs = np.geomspace(0.01, 20.0, 200)
    up = [lemma_g(2.0, 1.0, float(x)) for x in xs]
    down = [lemma_g(1.0, 2.0, float(x)) for x in xs]
    if not all(b - a >= -tol for a, b in zip(up, up[1:])):
        violations.append("ratio lemma not increasing for beta > gamma")
    if not all(b - a <= tol for a, b in zip(down, down[1:])):
        violations.append("ratio lemma not decreasing for beta < gamma")

    ok = not violations
    report(
        capsys, 3, ok,
        "signs/monotonicity on 200-point grids, tol 1e-9: "
        + ("no violations" if ok else "; ".join(sorted(set(violations)))),
    )


def test_criterion_4_aging_classification(capsys):
    """IFRA for product-interaction, exponential AI for common-shock,
    DFRA/IFRA for slow/fast independent Weibull — 50 models each."""
    rng = np.random.default_rng(104)
    grid = np.geomspace(0.1, 10.0, 25)
    failures = []

    for _ in range(50):
        m = random_model("MG1", 3, rng)
        if classify_aging(m, grid).fraclass != "IFRA":
            failures.append("product-interaction not IFRA")
    for _ in range(50):
        m = random_model("MOME", 3, rng)
        ai = [series_metric(m, MetricKind.AI, float(t)) for t in grid]
        if not all(abs(v - 1.0) <= 1e-10 for v in ai):
            failures.append("common-shock AI not identically 1")
    for _ in range(50):
        m = random_model("IndepWeibull", 3, rng, shape_range=(0.3, 0.95),
                        require_interaction=False)
        if classify_aging(m, grid).fraclass != "DFRA":
            failures.append("slow Weibull not DFRA")
        m = random_model("IndepWeibull", 3, rng, shape_range=(1.05, 3.0),
                        require_interaction=False)
        if classify_aging(m, grid).fraclass != "IFRA":
            failures.append("fast Weibull not IFRA")
    ok = not failures
    report(
        capsys, 4, ok,
        "aging classes over 50 models each: "
        + ("all as predicted" if ok else "; ".join(sorted(set(failures)))),
    )


def test_criterion_5_inclusion_exclusion_vs_compact(capsys):
    """Inclusion-exclusion equals the compact parallel forms to 1e-10."""
    rng = np.random.default_rng(105)
    ts = (0.2, 0.7, 1.3, 2.5, 4.0)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for family in ("IndepExp", "MOME", "MG1"):
        for draw in range(100):
            n = 2 + draw % 5
            m = random_model(family, n, rng)
            for t in ts:
                result = parallel_sf_ie(m, t)
                worst = max(worst, abs(result.sf_ie - result.sf_closed))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(
        capsys, 5, ok,
        f"inclusion-exclusion vs compact: {checked} points, worst dev "
        f"{worst:.2e} (tol 1e-10), {elapsed:.1f}s (target <5s)",
    )


def test_criterion_6_monte_carlo(capsys):
    """1e6-draw empirical series/parallel survival within 3.5 SE;
    same-seed reruns bit-identical."""
    n_draws = 1_000_000
    start = time.perf_counter()
    failures = []
    worst_z = 0.0
    checks = 0

    mome = validate_model(
        ModelSpec("MOME", 3, {(1,): 0.3, (2,): 0.4, (3,): 0.3, (1, 2): 0.2,
                              (1, 2, 3): 0.15})
    )
    momw = validate_model(
        ModelSpec("MOMW", 3, {(1,): 0.3, (2,): 0.4, (3,): 0.3, (1, 3): 0.2,
                              (1, 2, 3): 0.15}, shapes=(0.8, 1.4, 2.0))
    )
    lee = validate_model(
        ModelSpec("LeeML", 3, {(1,): 0.3, (2,): 0.4, (3,): 0.3, (2, 3): 0.2,
                               (1, 2, 3): 0.15}, alpha=1.5,
                  scales=(0.9, 1.1, 1.3))
    )
    cases = [
        ("common-shock exp", mome, (0.3, 0.6, 1.0, 1.5, 2.0)),
        # both sides of t = 1, where the diagonal exponents switch
        ("common-shock Weibull", momw, (0.2, 0.5, 0.8, 1.0, 1.2, 1.4, 1.7,
                                        2.0)),
        ("common-shape Weibull", lee, (0.3, 0.6, 1.0, 1.5, 2.0)),
    ]

    for seed, (label, model, ts) in enumerate(cases, start=600):
        x = sample_model(model, n_draws, seed)
        mins = x.min(axis=1)
        maxs = x.max(axis=1)
        for t in ts:
            for struct, lifetimes in (("series", mins), ("parallel", maxs)):
                p_hat = float((lifetimes > t).mean())
                if struct == "series":
                    p = series_metric(model, MetricKind.SF, t)
                else:
                    p = parallel_sf_ie(model, t).sf_ie
                se = math.sqrt(p * (1.0 - p) / n_draws)
                z = abs(p_hat - p) / se
                worst_z = max(worst_z, z)
                checks += 1
                if z > 3.5:
                    failures.append(f"{label} {struct} t={t}: z={z:.2f}")
        rerun = sample_model(model, n_draws, seed)
        if not np.array_equal(x, rerun):
            failures.append(f"{label}: rerun with same seed not bit-identical")

    a = estimate_system_sf(mome, "series", 1.0, 100_000, 610)
    b = estimate_system_sf(mome, "series", 1.0, 100_000, 610)
    if a != b:
        failures.append("estimator rerun with same seed not bit-identical")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(
        capsys, 6, ok,
        f"Monte Carlo 1e6 draws, {checks} survival checks, "
        f"worst z={worst_z:.2f} "
        f"(limit 3.5), reruns bit-identical, {elapsed:.1f}s (target <60s)"
        + ("" if ok else "; " + "; ".join(failures)),
    )


def test_criterion_7_degenerate_limits(capsys):
    """Independence fixed points and parameter degenerations to 1e-12."""
    rng = np.random.default_rng(107)
    failures = []
    ts = (0.3, 1.0, 2.5)

    for family in ALL_FAMILIES:
        m = independent_counterpart(random_model(family, 3, rng))
        for metric in METRICS:
            for t in ts:
                if abs(relative_error(m, metric, t)) > 1e-12:
                    failures.append(
                        f"{family.value} counterpart {metric.value} error != 0"
                    )

    rates = {(1,): 0.7, (2,): 1.1, (3,): 0.4}
    shapes = (0.8, 1.5, 2.2)
    crowder = validate_model(
        ModelSpec("Crowder", 3, rates, shapes=shapes, gamma=0.0,
                  stable_exponent=1.0)
    )
    weib = validate_model(ModelSpec("IndepWeibull", 3, rates, shapes=shapes))
    mo_rates = {(1,): 0.5, (2,): 0.6, (3,): 0.4, (1, 2): 0.3, (1, 2, 3): 0.2}
    lee = validate_model(
        ModelSpec("LeeML", 3, mo_rates, alpha=1.0, scales=(1.0, 1.0, 1.0))
    )
    mome = validate_model(ModelSpec("MOME", 3, mo_rates))
    for metric in METRICS:
        for t in ts:
            a = series_metric(crowder, metric, t)
            b = series_metric(weib, metric, t)
            if abs(a - b) > 1e-12 * (1.0 + abs(b)):
                failures.append("stable-power gamma=0,l=1 != indep Weibull")
            a = series_metric(lee, metric, t)
            b = series_metric(mome, metric, t)
            if abs(a - b) > 1e-12 * (1.0 + abs(b)):
                failures.append("unit-scale alpha=1 != common-shock exp")

    ok = not failures
    report(
        capsys, 7, ok,
        "degenerate limits to 1e-12: "
        + ("all matched" if ok else "; ".join(sorted(set(failures)))),
    )


def test_criterion_8_cli_golden(capsys, tmp_path):
    """One config per command reproduces its golden CSV byte-exactly twice."""
    from deperr.cli import main

    failures = []
    for name in ("eval_mome", "errors_mg1", "classify_weibull",
                 "parallel_indep", "simulate_lee"):
        config = json.loads((DATA / f"{name}.json").read_text())
        golden = (GOLDEN / f"{name}.csv").read_bytes()
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}.csv"
            config["output"] = str(out)
            cfg_path = tmp_path / f"{name}_{run}.json"
            cfg_path.write_text(json.dumps(config))
            rc = main([config["command"], "--model", str(cfg_path)])
            if rc != 0:
                failures.append(f"{name}: exit code {rc}")
                break
            outputs.append(out.read_bytes())
        else:
            if outputs[0] != outputs[1]:
                failures.append(f"{name}: reruns differ")
            if outputs[0] != golden:
                failures.append(f"{name}: differs from golden file")
    ok = not failures
    report(
        capsys, 8, ok,
        "CLI golden files, 5 commands, byte-exact twice: "
        + ("all matched" if ok else "; ".join(failures)),
    )
