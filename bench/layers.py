"""The traced run: per-layer metrics from one traced pass plus fixed probes.

Untraced passes run first for half the run's seconds (they also warm the
package's caches).  Then one pass runs with every public function of the
package wrapped by `spans.Tracer`, so call counts are exact for the seed.
The difference in items per second between the two is the tracing
overhead.  Fixed probes, identical on every workload, follow untraced:
inclusion-exclusion at n = 8/12/16, `error_curve` and `classify_aging` on
1000 points, and the sampler at 1e6 draws.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import deperr
from deperr import cli, errors, grids, models, parallel, simulate
from spans import Tracer

TRACED_MODULES = (deperr, cli, grids, models, errors, parallel, simulate)
PROBE_REPEATS = 3
PROBE_GRID = np.geomspace(0.01, 10.0, 1000)
SHOCKS = {(1,): 0.3, (2,): 0.4, (3,): 0.3, (1, 2): 0.2, (1, 2, 3): 0.15}


def _ie_probe_model(n: int):
    rates = {(i,): 0.2 for i in range(1, n + 1)}
    rates.update({(1, 2): 0.05, (3, 4): 0.05, tuple(range(1, n + 1)): 0.02})
    return models.validate_model(models.ModelSpec("MOME", n, rates))


def _median_time(fn, repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes() -> dict:
    """Fixed-model layer timings; the same inputs on every run."""
    out = {}
    for n in (8, 12, 16):
        m = _ie_probe_model(n)
        out[f"parallel.ie_n{n}_ms"] = (
            _median_time(lambda: parallel.parallel_sf_ie(m, 1.0)) * 1e3, "ms")
    mome = models.validate_model(models.ModelSpec("MOME", 3, SHOCKS))
    pts = PROBE_GRID.size
    out["errors.error_curve.per_point_us"] = (_median_time(
        lambda: errors.error_curve(mome, "sf", PROBE_GRID)) / pts * 1e6, "us")
    out["errors.classify_aging.per_point_us"] = (_median_time(
        lambda: errors.classify_aging(mome, PROBE_GRID)) / pts * 1e6, "us")
    lee = models.validate_model(models.ModelSpec(
        "LeeML", 3, SHOCKS, alpha=1.5, scales=(0.9, 1.1, 1.3)))
    draws = 1_000_000
    out["simulate.probe_draws_per_s"] = (draws / _median_time(
        lambda: simulate.sample_model(lee, draws)), "1/s")

    tracer = Tracer(watch=[("errors.error_curve", "models.series_hazard")])
    tracer.install(TRACED_MODULES)
    try:
        errors.error_curve(mome, "sf", PROBE_GRID)
    finally:
        tracer.uninstall()
    evals = tracer.nested[("errors.error_curve", "models.series_hazard")]
    out["errors.hazard_evals_per_point"] = (evals / pts, "count")
    return out


class SimulateCounts:
    """Draw and sample counts seen at `simulate.sample_model`."""

    def __init__(self):
        self.draws = 0
        self.bytes = 0
        self.calls = 0
        self.distinct: set = set()

    def __call__(self, args, kwargs, result):
        model, draw_count = args[0], args[1]
        policy = args[2] if len(args) > 2 else kwargs.get("policy")
        seed = policy.seed if policy is not None else 0
        self.calls += 1
        self.draws += draw_count
        self.bytes += draw_count * model.n * 8
        self.distinct.add((model, seed, draw_count))


def traced_run(workload, tally, seconds):
    """Per-layer metrics of one workload, and the tracer of its traced pass."""
    start = time.perf_counter()
    while True:
        tally.run_pass()
        if time.perf_counter() - start >= seconds / 2:
            break
    cache = models.independent_counterpart
    info0 = cache.cache_info()
    sim = SimulateCounts()
    curve_undefined = [0]

    def count_undefined(args, kwargs, result):
        curve_undefined[0] += sum(p.rel_err is None for p in result.points)

    tracer = Tracer(watch=[("parallel.parallel_sf_ie", "models.joint_sf")])
    tracer.observe("simulate.sample_model", sim)
    tracer.observe("errors.error_curve", count_undefined)
    tracer.install(TRACED_MODULES)
    try:
        tally.run_pass()
    finally:
        tracer.uninstall()
    info1 = cache.cache_info()
    # the last untraced pass against the traced one
    untraced_ips = tally.pass_items[-2] / tally.pass_busy[-2]
    traced_ips = tally.pass_items[-1] / tally.pass_busy[-1]
    rows = tally.pass_rows[-1]

    st = tracer.stats

    def calls(name):
        return st[name].calls if name in st else 0

    def self_s(name):
        return st[name].self_time if name in st else 0.0

    def per_call_us(name):
        s = st.get(name)
        return s.total / s.calls * 1e6 if s and s.calls else 0.0

    hits = info1.hits - info0.hits
    misses = info1.misses - info0.misses
    ie = st.get("parallel.parallel_sf_ie")
    ie_terms = tracer.nested[("parallel.parallel_sf_ie", "models.joint_sf")]
    is_parallel = any(getattr(op, "command", "") == "parallel"
                      for op in workload.ops)
    cli_bytes = sum(len(op.first) for op in workload.ops
                    if getattr(op, "first", None))

    m = {
        "models.series_hazard.calls": (calls("models.series_hazard"), "count"),
        "models.series_hazard.per_call_us": (
            per_call_us("models.series_hazard"), "us"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "cli.build_config.self_s": (self_s("cli.build_config"), "s"),
        "cli.rows": (rows, "count"),
        "cli.bytes_out": (cli_bytes if rows else 0, "B"),
        "models.validate_model.calls": (calls("models.validate_model"),
                                        "count"),
        "models.validate_model.self_s": (self_s("models.validate_model"), "s"),
        "models.series_metric.per_call_us": (
            per_call_us("models.series_metric"), "us"),
        "errors.relative_error.per_call_us": (
            per_call_us("errors.relative_error"), "us"),
        "errors.closed_form_error.per_call_us": (
            per_call_us("errors.closed_form_error"), "us"),
        "simulate.finite_diff_metric.per_call_us": (
            per_call_us("simulate.finite_diff_metric"), "us"),
        "models.independent_counterpart.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "models.joint_sf.calls": (calls("models.joint_sf"), "count"),
        "models.joint_sf.per_call_us": (per_call_us("models.joint_sf"), "us"),
        "parallel.parallel_sf_ie.calls": (calls("parallel.parallel_sf_ie"),
                                          "count"),
        "parallel.parallel_sf_ie.self_s": (
            self_s("parallel.parallel_sf_ie"), "s"),
        "parallel.parallel_sf_closed.self_s": (
            self_s("parallel.parallel_sf_closed"), "s"),
        "parallel.ie_terms": (ie_terms, "count"),
        "parallel.ie_terms_per_s": (
            ie_terms / ie.total if ie and ie.total else 0.0, "1/s"),
        "parallel.ie_passes_per_row": (
            calls("parallel.parallel_sf_ie") / rows
            if is_parallel and rows else 0.0, "count"),
        "simulate.sample_model.calls": (sim.calls, "count"),
        "simulate.draws": (sim.draws, "count"),
        "simulate.draws_per_s": (
            sim.draws / st["simulate.sample_model"].total
            if sim.calls else 0.0, "1/s"),
        "simulate.estimate_system_sf.self_s": (
            self_s("simulate.estimate_system_sf"), "s"),
        "simulate.distinct_samples_ratio": (
            len(sim.distinct) / sim.calls if sim.calls else 0.0, "ratio"),
        "simulate.bytes_computed": (sim.bytes, "B"),
        "grids.grid_points.self_s": (self_s("grids.grid_points"), "s"),
        "errors.undefined_points": (
            curve_undefined[0] + tally.pass_undefined[-1], "count"),
        "trace.items_per_s_untraced": (untraced_ips, "1/s"),
        "trace.items_per_s_traced": (traced_ips, "1/s"),
        "trace.overhead_ratio": (untraced_ips / traced_ips, "ratio"),
        "trace.spans": (tracer.span_count, "count"),
    }
    for layer, value in tracer.layer_self_time().items():
        m[f"layer.{layer}.self_s"] = (value, "s")
    m.update(probes())
    return m, tracer
