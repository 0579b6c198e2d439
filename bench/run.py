#!/usr/bin/env python3
"""deperr benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  The workload's inputs are generated from --seed.  Passes over the
workload's fixed operation list repeat, with set-up samples between them,
until --seconds have gone by (and at least MIN_PASSES have run), in this
one process with no extra threads.
Every operation's output is checked; failures are counted by cause.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass plus fixed probes.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; a fuller report goes to
bench/results/.  See bench/README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 8  # spread evenly over the run
SETUP_TRIES = 2  # fresh interpreters per sample, back to back
MIN_PASSES = 3
HARD_STOP_S = 120.0
# Share of operations allowed a Monte Carlo row beyond 3.5 SE by chance.
MC_OUTLIER_LIMIT = 0.05
CPUS = sorted(os.sched_getaffinity(0))


def pin(k: int) -> None:
    """Run this process, and the children it starts, on the k-th of its
    CPUs, round robin.  Another tenant can slow one CPU of the host for a
    whole run; taking turns gives every operation passes on each CPU, and
    its fastest pass is then one on the least disturbed CPU."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def _import_package():
    if not (SRC / "deperr" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'deperr'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import deperr

    if Path(deperr.__file__).resolve().parent != SRC / "deperr":
        sys.exit(f"bench: imported deperr from {deperr.__file__}, not {SRC}")
    return deperr


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Tally:
    """Per-operation best times, items and failures over complete passes.

    The machine is shared, so an operation's latency is its fastest run
    over the passes: interference from other tenants comes and goes within
    a run, and the fastest of several runs is the least disturbed one.

    `attempted` counts the operations of one pass and `failed` those that
    failed in any pass, so both depend on the seed only, not on how many
    passes the host's speed allowed.  The inputs are fixed, so an operation
    fails in every pass or in none; one that differs between passes is
    counted as unexplained.
    """

    def __init__(self, workload):
        self.workload = workload
        n = len(workload.ops)
        self.best = [math.inf] * n
        self.items = [0] * n
        self.rows = [0] * n
        self.pass_busy: list[float] = []
        self.pass_items: list[int] = []
        self.pass_rows: list[int] = []
        self.pass_undefined: list[int] = []
        self.op_causes: list[frozenset | None] = [None] * n
        from workloads import UNEXPLAINED  # importable once deperr is
        self.unexplained = UNEXPLAINED

    @property
    def passes(self) -> int:
        return len(self.pass_busy)

    def run_pass(self) -> None:
        pin(self.passes)
        clock = time.perf_counter
        busy = 0.0
        items = rows = undefined = 0
        for i, op in enumerate(self.workload.ops):
            error = None
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # judged by the op's checker
                result, error = None, exc
            elapsed = clock() - start
            outcome = op.check(result, error)
            busy += elapsed
            items += outcome.items
            rows += outcome.rows
            undefined += outcome.undefined
            self.best[i] = min(self.best[i], elapsed)
            self.items[i] = outcome.items
            self.rows[i] = outcome.rows
            causes = frozenset(outcome.causes)
            seen = self.op_causes[i]
            if seen is not None and seen != causes:
                causes = seen | causes | {self.unexplained}
            self.op_causes[i] = causes
        self.pass_busy.append(busy)
        self.pass_items.append(items)
        self.pass_rows.append(rows)
        self.pass_undefined.append(undefined)

    @property
    def attempted(self) -> int:
        return len(self.workload.ops)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.op_causes if c)

    @property
    def causes(self) -> dict[str, int]:
        """Failed operations per cause."""
        out: dict[str, int] = {}
        for causes in self.op_causes:
            for cause in causes or ():
                out[cause] = out.get(cause, 0) + 1
        return out

    def latencies(self) -> list[float]:
        """Sorted latency samples: one per op, or per row, split evenly."""
        out = []
        for best, rows in zip(self.best, self.rows):
            if self.workload.per_row_latency and rows:
                out.extend([best / rows] * rows)
            else:
                out.append(best)
        return sorted(out)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def run_passes(tally: Tally, seconds: float, deadline: float,
               after_pass=lambda: None) -> None:
    """Passes, and `after_pass` between them, until `seconds` have gone by
    and MIN_PASSES have run, or until the deadline."""
    start = time.perf_counter()
    while True:
        tally.run_pass()
        now = time.perf_counter()
        if now >= deadline:
            break
        if now - start >= seconds and tally.passes >= MIN_PASSES:
            break
        after_pass()


class SetupProbe:
    """Wall time of a fresh interpreter that imports deperr and validates
    the workload's generated configs (`validate_inputs.py`).

    A sample is the faster of SETUP_TRIES starts made back to back, for the
    reason an operation's latency is its fastest pass: it filters out the
    moments other tenants hold the host.
    """

    def __init__(self, workdir: Path, inputs: list[dict], seconds: float):
        self.count = len(inputs)
        path = workdir / "inputs.json"
        path.write_text(json.dumps(inputs))
        self.cmd = [sys.executable, str(HERE / "validate_inputs.py"),
                    str(path)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.spacing = seconds / SETUP_SAMPLES
        self.start = time.perf_counter()

    def sample(self) -> None:
        best = math.inf
        for k in range(SETUP_TRIES):
            pin(k)
            start = time.perf_counter()
            proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
            best = min(best, time.perf_counter() - start)
            if proc.returncode != 0 or proc.stdout.strip() != str(self.count):
                sys.exit(f"bench: setup probe failed: {proc.stderr.strip()}")
        self.times.append(best)

    def between_passes(self) -> None:
        """The samples that have fallen due, one every `spacing` seconds."""
        while (len(self.times) < SETUP_SAMPLES and time.perf_counter()
               - self.start >= len(self.times) * self.spacing):
            self.sample()

    def finish(self) -> None:
        while len(self.times) < SETUP_SAMPLES:
            self.sample()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment(deperr) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "deperr").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "deperr": deperr.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "note": "timings taken on a shared host with no machine tuning "
                "(no frequency or cache control); the benchmark moves its "
                "own process between its CPUs from pass to pass",
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="deperr benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread: keep numpy's BLAS from starting a thread pool, here and
    # in the set-up probes, which inherit the environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    deperr = _import_package()
    import layers
    from workloads import CAUSES, MC_OUTLIER, UNEXPLAINED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    t_begin = time.perf_counter()
    deadline = t_begin + HARD_STOP_S
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally(workload)
        report: dict = {"workload": args.workload, "seed": args.seed,
                        "trace": args.trace, "env": environment(deperr)}
        if args.trace:
            metrics, tracer = layers.traced_run(workload, tally, args.seconds)
        else:
            # set-up samples are spread over the run, between passes
            setup = SetupProbe(workdir, workload.models, args.seconds)
            setup.between_passes()
            run_passes(tally, args.seconds, deadline, setup.between_passes)
            setup.finish()
            metrics = end_to_end(tally, setup.times)
            report["setup_s_samples"] = setup.times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = (tally.causes.get(UNEXPLAINED, 0) == 0
               and tally.causes.get(MC_OUTLIER, 0)
               <= MC_OUTLIER_LIMIT * tally.attempted)
    report.update({
        "passes": tally.passes,
        "ops_per_pass": len(workload.ops),
        "latency_samples": len(tally.latencies()),
        "tail_percentile": workload.tail_pct,
        "failures_by_cause": {
            cause: {"ops": count, "why": CAUSES[cause]}
            for cause, count in sorted(tally.causes.items())},
        "undefined_points_per_pass": tally.pass_undefined[-1],
        "wall_s": time.perf_counter() - t_begin,
        "metrics": metrics,
    })
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps({k: report[k] for k in (
        "env", "passes", "ops_per_pass", "latency_samples", "tail_percentile",
        "failures_by_cause")}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(tally: Tally, setup_times: list[float]) -> dict:
    lat = tally.latencies()
    return {
        "items_per_s": (sum(tally.items) / sum(tally.best), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(lat, tally.workload.tail_pct) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        # add-one estimate: a run with no failure reads 1/(attempted+1), not 0
        "fail_frac": ((tally.failed + 1.0) / (tally.attempted + 1.0),
                      "fraction"),
    }


if __name__ == "__main__":
    sys.exit(main())
