"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q

A shrunken run of every workload must print every metric BENCHMARK.json
names, and every oracle must flag a planted wrong value.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload and probe to a fraction of a second."""
    monkeypatch.setattr(workloads.SeriesGrid, "REPEATS", 1)
    monkeypatch.setattr(workloads.SeriesGrid, "SIZES", (3,))
    monkeypatch.setattr(workloads.SeriesGrid, "GRID_COUNT", 20)
    monkeypatch.setattr(workloads.SeriesScalar, "MODELS", 18)
    monkeypatch.setattr(workloads.ParallelIE, "SIZES", (4,))
    monkeypatch.setattr(workloads.MonteCarlo, "SIZES", (3,))
    monkeypatch.setattr(workloads.MonteCarlo, "DRAWS", 2000)
    monkeypatch.setattr(layers, "PROBE_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_TRIES", 1)


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tiny, capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    result = _last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] is True
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in named)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.ParallelIE(7, tmp_path)
    b = workloads.ParallelIE(7, tmp_path)
    c = workloads.ParallelIE(8, tmp_path)
    assert a.models == b.models
    assert a.models != c.models


def test_generator_keeps_validity_ranges():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mg1 = gen.random_model(rng, "MG1", 4)
        singles = {tuple(e["subset"]): e["lambda"] for e in mg1["rates"]
                   if len(e["subset"]) == 1}
        for e in mg1["rates"]:
            bound = np.prod([singles[(i,)] for i in e["subset"]])
            assert len(e["subset"]) == 1 or e["lambda"] <= 0.3 * bound
        assert 0.5 <= gen.random_model(rng, "LuBI", 3)["m"] < 2.0
    sparse = gen.sparse_shock_model(rng, "MG1", 10)
    singles = {tuple(e["subset"]): e["lambda"] for e in sparse["rates"]
               if len(e["subset"]) == 1}
    for e in sparse["rates"]:
        bound = np.prod([singles[(i,)] for i in e["subset"]])
        assert len(e["subset"]) == 1 or e["lambda"] <= 0.3 * bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Each oracle flags a planted wrong value
# ---------------------------------------------------------------------------


def test_scalar_oracles_flag_planted_values():
    assert oracles.closed_vs_generic(0.25, 0.25) is None
    assert oracles.closed_vs_generic(0.25, 0.25 + 1e-6)
    assert oracles.fr_vs_fd(2.0, 2.0 + 1e-7) is None
    assert oracles.fr_vs_fd(2.0, 2.001)
    assert oracles.series_vs_joint(0.5, 0.5 * (1 + 1e-12)) is None
    assert oracles.series_vs_joint(0.5, 0.5001)
    assert oracles.ie_vs_compact(0.7, 0.7 + 1e-12) is None
    assert oracles.ie_vs_compact(0.7, 0.7 + 1e-9)
    assert oracles.mc_within(0.501, 0.5, 100_000) is None
    assert oracles.mc_within(0.51, 0.5, 100_000)
    assert oracles.same_bytes(b"a,b\n", b"a,b\n") is None
    assert oracles.same_bytes(b"a,b\n", b"a,c\n")


def _run_cli(op):
    rc = op.run()
    assert rc == 0
    return op.output.read_text()


def _plant(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _cli_op(tmp_path, family, n, opts, checker, model=None):
    model = model or gen.random_model(np.random.default_rng(1), family, n)
    return workloads.CliOp(tmp_path, "t", model, opts, checker)


GRID = {"start": 0.5, "stop": 2.0, "count": 3, "spacing": "log"}


def test_series_grid_checker_flags_planted_values(tmp_path):
    checker = workloads.SeriesGridChecker(GRID)
    for command, col in (("eval", 1), ("errors", 5), ("classify", 0)):
        op = _cli_op(tmp_path, "MG1", 3, {"command": command, "grid": GRID},
                     checker)
        text = _run_cli(op)
        assert checker.check(op, text).causes == []
        wrong = {"eval": "0.123", "errors": "0.5",
                 "classify": "DFR" if "IFR" in text else "IFR"}[command]
        bad = checker.check(op, _plant(text, 0, col, wrong))
        assert bad.causes == [workloads.UNEXPLAINED]


def test_parallel_checker_flags_planted_values(tmp_path):
    checker = workloads.ParallelChecker()
    grid = {"start": 0.5, "stop": 2.0, "count": 2, "spacing": "log"}
    model = gen.sparse_shock_model(np.random.default_rng(2), "MOME", 5)
    op = _cli_op(tmp_path, "MOME", 5, {"command": "parallel", "grid": grid},
                 checker, model)
    text = _run_cli(op)
    assert checker.check(op, text).causes == []
    row = text.splitlines()[1].split(",")
    for col, value in ((1, float(row[1]) + 1e-8),   # IE vs compact
                       (2, float(row[2]) + 1e-8),   # compact vs IE
                       (3, float(row[3]) + 1e-6)):  # relative error
        bad = checker.check(op, _plant(text, 0, col, repr(value)))
        assert bad.causes == [workloads.UNEXPLAINED], col
    assert oracles.parallel_bounds(model, 1.0, 1.5)


def test_montecarlo_checker_flags_planted_values(tmp_path):
    checker = workloads.MonteCarloChecker()
    model = gen.shock_model(np.random.default_rng(3), "LeeML", 3, series=True)
    op = _cli_op(tmp_path, "LeeML", 3, {
        "command": "simulate", "grid": GRID, "samples": 20_000,
        "structure": "series", "seed": 5}, checker, model)
    text = _run_cli(op)
    assert checker.check(op, text).causes == []
    est = float(text.splitlines()[1].split(",")[1])
    bad = checker.check(op, _plant(text, 0, 1, repr(est + 0.05)))
    assert bad.causes == [workloads.MC_OUTLIER]
    analytic = float(text.splitlines()[1].split(",")[4])  # vs joint_sf(t*1)
    bad = checker.check(op, _plant(text, 0, 4, repr(analytic * (1 + 1e-6))))
    assert bad.causes == [workloads.UNEXPLAINED]


def test_cli_rerun_oracle_flags_changed_bytes(tmp_path):
    checker = workloads.SeriesGridChecker(GRID)
    op = _cli_op(tmp_path, "MOME", 3, {"command": "eval", "grid": GRID},
                 checker)
    assert op.check(op.run(), None).causes == []
    op.first = op.first + b" "
    assert op.check(op.run(), None).causes == [workloads.UNEXPLAINED]


def test_scalar_checker_flags_planted_values():
    model = gen.random_model(np.random.default_rng(4), "MG1", 3)
    op = workloads.ScalarOp(model, [0.3, 2.0])
    points = op.run()
    assert op.check(points, None).causes == []
    for key, delta in (("joint", 1e-6), ("fd", 1e-3), ("cf_fr", 1e-6)):
        planted = [dict(p) for p in points]
        planted[1][key] += delta
        assert op.check(planted, None).causes == [workloads.UNEXPLAINED], key


def test_nearest_rank_percentile():
    values = sorted(float(v) for v in range(1, 101))
    assert run.nearest_rank(values, 50.0) == 50.0
    assert run.nearest_rank(values, 90.0) == 90.0
    assert run.nearest_rank(values, 100.0) == 100.0


class _FixedOp:
    """An operation whose outcome per pass is scripted."""

    def __init__(self, causes_per_pass):
        self.script = list(causes_per_pass)

    def run(self):
        return None

    def check(self, result, error):
        return workloads.Outcome(items=1, rows=1, causes=self.script.pop(0))


def test_counts_do_not_depend_on_pass_count():
    wl = workloads.Workload(0)
    wl.ops = [_FixedOp([[]] * 5), _FixedOp([["momw_t_lt_1"]] * 5),
              _FixedOp([[], [], ["momw_t_lt_1"], [], []])]
    tally = run.Tally(wl)
    tally.run_pass()
    tally.run_pass()
    assert (tally.attempted, tally.failed) == (3, 1)
    for _ in range(3):
        tally.run_pass()
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.causes == {"momw_t_lt_1": 2, workloads.UNEXPLAINED: 1}
