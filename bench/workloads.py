"""The four workloads: seeded inputs, one pass of operations, and checks.

A workload builds a fixed list of operations from its seed.  One pass runs
each operation once; the benchmark repeats passes for the run's duration.
`Op.run` holds only calls into the package and is the timed part;
`Op.check` applies the oracles to what `run` returned.  Every operation
reports the items it delivered, the output rows it wrote, and, on failure,
a cause from `CAUSES`: a known seed defect, a Monte Carlo outlier, or
"unexplained".

The program is reached only through `deperr.cli.main` and public functions,
looked up on their modules at call time so the traced run sees them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import gen
import oracles
from deperr import cli, errors, models, simulate
from deperr.exceptions import DomainError

METRICS = ("sf", "fr", "rhr", "ai")
MC_OUTLIER = "mc_outlier"
UNEXPLAINED = "unexplained"
# The first three are defects of the seed, each with its ROADMAP item.
CAUSES = {
    "momw_t_lt_1": "MOMW series SF uses max-shape powers for t < 1 "
                   "(ROADMAP item 4)",
    "crowder_overflow": "OverflowError from the Crowder/LeeII SF relative "
                        "error at large t (ROADMAP items 4 and 5)",
    "fd_subnormal_sf": "finite_diff_metric differences a subnormal series SF "
                       "(H > 708) without raising (ROADMAP item 4)",
    MC_OUTLIER: "Monte Carlo row beyond 3.5 standard errors",
    UNEXPLAINED: "not a known defect",
}
# Series hazard above which exp(-H) is subnormal and loses precision.
SUBNORMAL_H = -math.log(np.finfo(float).tiny)


class Outcome:
    __slots__ = ("items", "rows", "causes", "undefined")

    def __init__(self, items=0, rows=0, causes=(), undefined=0):
        self.items = items
        self.rows = rows
        self.causes = list(causes)
        self.undefined = undefined


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


# ---------------------------------------------------------------------------
# CLI operations (series_grid, parallel_ie, montecarlo)
# ---------------------------------------------------------------------------


class CliOp:
    """One `dep-err` command on one generated config file."""

    def __init__(self, workdir: Path, tag: str, model: dict, run_opts: dict,
                 checker):
        self.model = model
        self.opts = run_opts
        self.command = run_opts["command"]
        self.output = workdir / f"{tag}.csv"
        self.config = workdir / f"{tag}.json"
        self.config.write_text(json.dumps(
            {**model, **run_opts, "output": str(self.output)}))
        self.argv = [self.command, "--model", str(self.config)]
        self.checker = checker
        self.first: bytes | None = None
        self.first_outcome: Outcome | None = None
        self._validated = None

    def validated(self):
        if self._validated is None:
            self._validated = cli.model_from_dict(self.model)
        return self._validated

    def run(self):
        return cli.main(self.argv)

    def check(self, rc, error: BaseException | None) -> Outcome:
        if error is not None or rc != 0:
            return Outcome(causes=[self.checker.cause_of_error(self, error)])
        data = self.output.read_bytes()
        if self.first is None:
            self.first = data
            self.first_outcome = self.checker.check(self, data.decode())
            return self.first_outcome
        if oracles.same_bytes(self.first, data):
            return Outcome(causes=[UNEXPLAINED])
        return self.first_outcome


class Checker:
    def cause_of_error(self, op: CliOp, error) -> str:
        """Cause of a command that raised or exited non-zero."""
        return UNEXPLAINED

    @staticmethod
    def _diag(op: CliOp, t: float, sf: float) -> str | None:
        """Series SF written by the CLI against joint_sf(t*1)."""
        joint = models.joint_sf(op.validated(), [t] * op.model["n"])
        if oracles.series_vs_joint(sf, joint) is None:
            return None
        if op.model["family"] == "MOMW" and t < 1.0:
            return "momw_t_lt_1"
        return UNEXPLAINED


class SeriesGridChecker(Checker):
    """eval / errors / classify outputs against the diagonal and closed forms."""

    def __init__(self, grid: dict):
        self.points = np.geomspace(grid["start"], grid["stop"], grid["count"])

    def cause_of_error(self, op: CliOp, error) -> str:
        if (isinstance(error, OverflowError) and op.command == "errors"
                and op.model["family"] in ("Crowder", "LeeII")):
            return "crowder_overflow"
        return UNEXPLAINED

    def check(self, op: CliOp, text: str) -> Outcome:
        rows = _csv_rows(text)
        causes: set[str] = set()
        items = 0
        if op.command == "eval":
            for t, sf, fr, rhr, ai in rows:
                items += sum(1 for c in (sf, fr, rhr, ai) if c)
                cause = self._diag(op, float(t), float(sf))
                if cause:
                    causes.add(cause)
        elif op.command == "errors":
            for t, metric, dep, indep, rel, closed in rows:
                items += sum(1 for c in (dep, indep, rel, closed) if c)
                if rel and closed and oracles.closed_vs_generic(
                        float(closed), float(rel)):
                    causes.add(UNEXPLAINED)
                if metric == "sf":
                    cause = self._diag(op, float(t), float(dep))
                    if cause:
                        causes.add(cause)
        else:  # classify
            items = sum(1 for c in rows[0] if c)
            m = op.validated()
            fr = np.array([models.series_metric(m, "fr", float(t))
                           for t in self.points])
            ai = np.array([models.series_metric(m, "ai", float(t))
                           for t in self.points])
            if oracles.classify_matches(rows[0], fr, ai):
                causes.add(UNEXPLAINED)
        return Outcome(items=items, rows=len(rows), causes=sorted(causes))


class ParallelChecker(Checker):
    """IE vs compact form, marginal bounds and the independent rel_err."""

    def check(self, op: CliOp, text: str) -> Outcome:
        rows = _csv_rows(text)
        bad = False
        for t, sf_ie, sf_closed, rel in rows:
            t, sf_ie = float(t), float(sf_ie)
            reasons = [
                oracles.ie_vs_compact(sf_ie, float(sf_closed))
                if sf_closed else None,
                oracles.parallel_bounds(op.model, t, sf_ie),
                oracles.parallel_rel_err(op.model, t, sf_ie, float(rel)),
            ]
            bad = bad or any(reasons)
        weight = 2 ** op.model["n"] - 1
        return Outcome(items=len(rows) * weight, rows=len(rows),
                       causes=[UNEXPLAINED] if bad else [])


class MonteCarloChecker(Checker):
    """Each row's estimate within 3.5 standard errors of the analytic value,
    and a series analytic value equal to joint_sf(t*1)."""

    def check(self, op: CliOp, text: str) -> Outcome:
        rows = _csv_rows(text)
        causes: set[str] = set()
        items = 0
        series = op.opts["structure"] == "series"
        for t, est, _se, draws, analytic in rows:
            items += int(draws)
            cause = self._diag(op, float(t), float(analytic)) if series else None
            if cause:
                causes.add(cause)
            elif oracles.mc_within(float(est), float(analytic), int(draws)):
                causes.add(MC_OUTLIER)
        return Outcome(items=items, rows=len(rows), causes=sorted(causes))


# ---------------------------------------------------------------------------
# Library operations (series_scalar)
# ---------------------------------------------------------------------------

class ScalarOp:
    """validate_model, then per t: closed vs generic error for all four
    metrics, FR vs finite differences, and series SF vs joint_sf(t*1)."""

    def __init__(self, model: dict, ts: list[float]):
        self.model = model
        self.spec = models.ModelSpec(
            family=model["family"], n=model["n"],
            rates={tuple(e["subset"]): e["lambda"] for e in model["rates"]},
            shapes=model.get("shapes"), gamma=model.get("gamma"),
            stable_exponent=model.get("l"), alpha=model.get("alpha"),
            scales=model.get("c"), delta=model.get("delta"),
            m=model.get("m"))
        self.ts = ts

    @staticmethod
    def _call(fn, *args):
        try:
            return fn(*args)
        except DomainError:
            return None  # typed "undefined here": a documented outcome
        except Exception as exc:  # checked below, by cause
            return exc

    def run(self):
        m = models.validate_model(self.spec)
        out = []
        for t in self.ts:
            point = {"t": t}
            point["sf"] = models.series_metric(m, "sf", t)
            point["joint"] = models.joint_sf(m, [t] * m.n)
            point["fr"] = models.series_metric(m, "fr", t)
            point["fd"] = self._call(simulate.finite_diff_metric, m, "fr", t)
            for metric in METRICS:
                point["gen_" + metric] = self._call(
                    errors.relative_error, m, metric, t)
                point["cf_" + metric] = self._call(
                    errors.closed_form_error, m, metric, t)
            out.append(point)
        return out

    def check(self, points, error) -> Outcome:
        if error is not None:
            return Outcome(causes=[UNEXPLAINED])
        fam = self.model["family"]
        causes: set[str] = set()
        undefined = 0
        for p in points:
            t = p["t"]
            if oracles.series_vs_joint(p["sf"], p["joint"]):
                causes.add("momw_t_lt_1" if fam == "MOMW" and t < 1.0
                           else UNEXPLAINED)
            fd = p["fd"]
            if isinstance(fd, Exception):
                causes.add(UNEXPLAINED)
            elif fd is not None and oracles.fr_vs_fd(p["fr"], fd):
                h = -math.log(p["sf"]) if p["sf"] > 0 else math.inf
                causes.add("fd_subnormal_sf" if h > SUBNORMAL_H
                           else UNEXPLAINED)
            for metric in METRICS:
                gen_v, cf_v = p["gen_" + metric], p["cf_" + metric]
                if metric == "sf" and fam in ("Crowder", "LeeII") and (
                        isinstance(gen_v, OverflowError)
                        or isinstance(cf_v, OverflowError)):
                    causes.add("crowder_overflow")
                elif isinstance(gen_v, Exception) or isinstance(cf_v,
                                                                Exception):
                    causes.add(UNEXPLAINED)
                elif gen_v is None:
                    undefined += 1
                elif cf_v is not None and oracles.closed_vs_generic(cf_v,
                                                                    gen_v):
                    causes.add(UNEXPLAINED)
        return Outcome(items=len(points) * len(METRICS), causes=sorted(causes),
                       undefined=undefined)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


class Workload:
    """Name, tail percentile, the ops of one pass and the generated models,
    which the set-up probe validates."""

    name = ""
    tail_pct = 90.0
    per_row_latency = False  # op latency is split evenly over output rows

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.ops: list = []
        self.models: list[dict] = []


class SeriesGrid(Workload):
    name = "series_grid"
    tail_pct = 95.0
    GRID_COUNT = 100
    SIZES = (3, 4, 5, 6)
    REPEATS = 1

    def __init__(self, seed, workdir):
        super().__init__(seed)
        grid = {"start": 1e-3, "stop": 1e3, "count": self.GRID_COUNT,
                "spacing": "log"}
        checker = SeriesGridChecker(grid)
        # `errors` runs once per metric: shorter commands time more steadily
        runs = [{"command": "eval"}] + [
            {"command": "errors", "metric": m} for m in METRICS] + [
            {"command": "classify"}]
        k = 0
        for _ in range(self.REPEATS):
            for fam in gen.FAMILIES:
                for n in self.SIZES:
                    model = gen.random_model(self.rng, fam, n)
                    self.models.append(model)
                    for j, opts in enumerate(runs):
                        self.ops.append(CliOp(workdir, f"g{k}_{j}", model,
                                              {**opts, "grid": grid}, checker))
                    k += 1


class SeriesScalar(Workload):
    name = "series_scalar"
    tail_pct = 98.0
    MODELS = 540
    T_PER_MODEL = 4

    def __init__(self, seed, workdir=None):
        super().__init__(seed)
        for k in range(self.MODELS):
            fam = gen.FAMILIES[k % len(gen.FAMILIES)]
            n = 2 + (k // len(gen.FAMILIES)) % 5
            model = gen.random_model(self.rng, fam, n)
            self.models.append(model)
            self.ops.append(ScalarOp(model, gen.log_grid_strata(
                self.rng, self.T_PER_MODEL)))


class ParallelIE(Workload):
    """Two models per family and n, one evaluated at t = 0.5, one at t = 2:
    a command of one row is short, so its fastest pass is reached often."""

    name = "parallel_ie"
    tail_pct = 75.0
    per_row_latency = True
    FAMILIES = ("IndepExp", "MOME", "MG1", "MOMW", "LeeML", "Crowder", "LuBI")
    SIZES = (8, 9, 10)
    # a one-point grid is its start
    GRIDS = ({"start": 0.5, "stop": 1.0, "count": 1, "spacing": "log"},
             {"start": 2.0, "stop": 4.0, "count": 1, "spacing": "log"})

    def __init__(self, seed, workdir):
        super().__init__(seed)
        checker = ParallelChecker()
        cases = [(f, n, g) for n in self.SIZES for f in self.FAMILIES
                 for g in self.GRIDS]
        for k, (fam, n, grid) in enumerate(cases):
            model = gen.sparse_shock_model(self.rng, fam, n)
            self.models.append(model)
            self.ops.append(CliOp(workdir, f"p{k}", model,
                                  {"command": "parallel", "grid": grid},
                                  checker))


class MonteCarlo(Workload):
    name = "montecarlo"
    tail_pct = 90.0
    per_row_latency = True
    SIZES = (3, 4, 5, 6)
    DRAWS = 10_000
    GRID = {"start": 0.5, "stop": 2.0, "count": 4, "spacing": "log"}

    def __init__(self, seed, workdir):
        super().__init__(seed)
        checker = MonteCarloChecker()
        k = 0
        for fam in gen.SAMPLABLE:
            for n in self.SIZES:
                for structure in ("series", "parallel"):
                    model = gen.shock_model(self.rng, fam, n,
                                            series=structure == "series")
                    self.models.append(model)
                    self.ops.append(CliOp(workdir, f"s{k}", model, {
                        "command": "simulate", "grid": self.GRID,
                        "samples": self.DRAWS, "structure": structure,
                        "seed": int(self.rng.integers(2**31)),
                    }, checker))
                    k += 1


WORKLOADS = {w.name: w for w in (SeriesGrid, SeriesScalar, ParallelIE,
                                 MonteCarlo)}
