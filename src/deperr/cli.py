"""Command-line front end: `dep-err <command> --model FILE ... --output FILE`.

Commands: eval, errors, classify, parallel, simulate.  The model (and
optionally every run option) lives in a JSON config file; command-line
flags override file values.  Output is a deterministic CSV with a header
row, comma separators, LF line endings, and 17-significant-digit floats.

Exit codes: 0 success, 2 config error, 3 domain error, 4 capability error,
5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import classify_aging, closed_form_error, error_curve
from .exceptions import (
    CapabilityError,
    ConfigError,
    DomainError,
    ValidationError,
)
from .grids import GridSpec
from .models import (
    MetricKind,
    ModelSpec,
    ValidatedModel,
    _metric_values,
    _real,
    independent_counterpart,
    mask_to_subset,
    series_hazard,
    series_metric,
    validate_model,
)
from .numerics import is_integer
from .parallel import _ie_sum, _relative_to_independent, parallel_sf_ie
from .simulate import estimate_system_sf

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_CAPABILITY = 4
EXIT_IO = 5

COMMANDS = ("eval", "errors", "classify", "parallel", "simulate")
STRUCTURES = ("series", "parallel")

# (ModelSpec/ValidatedModel field, config key) of each parameter after the
# rates, in the order model_to_dict writes them
_MODEL_FIELDS = (("shapes", "shapes"), ("gamma", "gamma"),
                 ("stable_exponent", "l"), ("alpha", "alpha"), ("scales", "c"),
                 ("delta", "delta"), ("m", "m"))
_MODEL_KEYS = {"family", "n", "rates", *(key for _, key in _MODEL_FIELDS)}
_RUN_KEYS = _MODEL_KEYS | {"command", "grid", "metric", "samples", "seed",
                           "structure", "output"}
_GRID_KEYS = {"start", "stop", "count", "spacing"}
# bounds run time; simulate draws in blocks, so memory does not grow
MAX_SAMPLES = 10**8


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: ValidatedModel
    grid: GridSpec
    output: str
    metric: MetricKind | None = None
    samples: int | None = None
    seed: int | None = None
    structure: str = "series"

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"command: unknown command {self.command!r}")
        if self.structure not in STRUCTURES:
            raise ConfigError(f"structure: must be one of {STRUCTURES}")
        if not isinstance(self.output, str) or "\0" in self.output:
            raise ConfigError(f"output: not a file path: {self.output!r}")
        for key in ("samples", "seed"):
            value = getattr(self, key)
            if value is not None and not is_integer(value):
                raise ConfigError(f"{key}: must be an integer, got {value!r}")
        if self.samples is not None and not 1 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(
                f"samples: must be in 1..{MAX_SAMPLES}, got {self.samples}"
            )
        if self.command == "simulate" and self.samples is None:
            raise ConfigError("samples: missing (simulate requires it)")


def model_from_dict(data: dict) -> ValidatedModel:
    """Build and validate a model from its JSON representation."""
    if not isinstance(data, dict):
        raise ConfigError("model config must be a JSON object")
    unknown = set(data) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model key(s): {sorted(unknown)}")
    if "family" not in data:
        raise ConfigError("family: missing")
    if "n" not in data:
        raise ConfigError("n: missing")
    rates = data.get("rates", [])
    if not isinstance(rates, list) or not all(
        isinstance(e, dict) and set(e) == {"subset", "lambda"}
        and isinstance(e["subset"], list) for e in rates
    ):
        raise ConfigError(
            "rates: must be a list of {\"subset\": [...], \"lambda\": x}"
        )
    spec = ModelSpec(
        family=data["family"],
        n=data["n"],
        rates=[(e["subset"], e["lambda"]) for e in rates],
        **{field: data.get(key) for field, key in _MODEL_FIELDS},
    )
    try:
        return validate_model(spec)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def model_to_dict(model: ValidatedModel) -> dict:
    """Canonical JSON representation; inverse of :func:`model_from_dict`."""
    out: dict = {
        "family": model.family.value,
        "n": model.n,
        "rates": [
            {"subset": list(mask_to_subset(mask)), "lambda": rate}
            for mask, rate in model.rates.items
        ],
    }
    for field, key in _MODEL_FIELDS:  # validation leaves foreign fields None
        value = getattr(model, field)
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _grid_from_dict(data: dict) -> GridSpec:
    """The config's grid object as a GridSpec: the one place one is built."""
    if not isinstance(data, dict):
        raise ConfigError("grid: must be an object")
    unknown = set(data) - _GRID_KEYS
    if unknown:
        raise ConfigError(f"grid: unknown key(s): {sorted(unknown)}")
    for key in ("start", "stop", "count"):
        if key not in data:
            raise ConfigError(f"grid.{key}: missing")
    try:
        return GridSpec(
            start=_real(data["start"], "grid.start"),
            stop=_real(data["stop"], "grid.stop"),
            count=data["count"],
            spacing=data.get("spacing", "log"),
        )
    except (DomainError, ValidationError) as exc:
        raise ConfigError(str(exc)) from exc


def _metric_from(name) -> MetricKind | None:
    if name is None:
        return None
    try:
        return MetricKind(name)
    except ValueError:
        raise ConfigError(f"metric: unknown metric {name!r}") from None


def _read_config(path) -> dict:
    """The JSON object in the config file at `path`."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _config_from_dict(data: dict) -> RunConfig:
    """Check every key of a config dict and build the RunConfig."""
    unknown = set(data) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    for key in ("command", "grid", "output"):
        if key not in data:
            raise ConfigError(f"{key}: missing")
    model = model_from_dict({k: v for k, v in data.items() if k in _MODEL_KEYS})
    return RunConfig(
        command=data["command"],
        model=model,
        grid=_grid_from_dict(data["grid"]),
        output=data["output"],
        metric=_metric_from(data.get("metric")),
        samples=data.get("samples"),
        seed=data.get("seed"),
        structure=data.get("structure", "series"),
    )


def parse_config(path) -> RunConfig:
    """Parse a self-contained run configuration file."""
    return _config_from_dict(_read_config(path))


def emit_config(config: RunConfig) -> str:
    """Serialize a RunConfig to canonical JSON; parse_config round-trips it."""
    data = model_to_dict(config.model)
    data["command"] = config.command
    data["grid"] = {
        "start": config.grid.start,
        "stop": config.grid.stop,
        "count": config.grid.count,
        "spacing": config.grid.spacing,
    }
    if config.metric is not None:
        data["metric"] = config.metric.value
    if config.samples is not None:
        data["samples"] = config.samples
    if config.seed is not None:
        data["seed"] = config.seed
    data["structure"] = config.structure
    data["output"] = config.output
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv(header: list[str], rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _run_eval(config: RunConfig) -> str:
    t = config.grid.points()
    hazard = series_hazard(config.model, t)
    columns = [_metric_values(metric, t, *hazard).tolist()
               for metric in MetricKind]
    return _csv(["t", "sf", "fr", "rhr", "ai"], list(zip(t.tolist(), *columns)))


def _run_errors(config: RunConfig) -> str:
    metrics = [config.metric] if config.metric else list(MetricKind)
    rows = []
    for metric in metrics:
        points = error_curve(config.model, metric, config.grid).points
        defined = [p.t for p in points if p.rel_err is not None]
        closed = (closed_form_error(config.model, metric, np.array(defined))
                  if defined else None)
        closed = iter([] if closed is None else closed.tolist())
        for p in points:
            rows.append([
                p.t, metric.value, p.dep, p.indep, p.rel_err,
                next(closed, None) if p.rel_err is not None else None,
            ])
    return _csv(["t", "metric", "dep", "indep", "rel_err", "closed_form_err"],
                rows)


def _run_classify(config: RunConfig) -> str:
    verdict = classify_aging(config.model, config.grid)
    return _csv(
        ["frclass", "fraclass", "aiclass", "fr_constant", "ai_constant"],
        [[verdict.frclass, verdict.fraclass, verdict.aiclass,
          verdict.fr_constant, verdict.ai_constant]],
    )


def _run_parallel(config: RunConfig) -> str:
    indep = independent_counterpart(config.model)
    rows = []
    for t in config.grid.points():
        t = float(t)
        result = parallel_sf_ie(config.model, t)
        ind, _ = _ie_sum(indep, t)
        rel = _relative_to_independent(result.sf_ie, ind, t)
        rows.append([t, result.sf_ie, result.sf_closed, rel])
    return _csv(["t", "sf_ie", "sf_closed", "rel_err"], rows)


def _run_simulate(config: RunConfig) -> str:
    t = config.grid.points()
    est = estimate_system_sf(
        config.model, config.structure, t, config.samples, config.seed or 0
    )
    if config.structure == "series":
        analytic = series_metric(config.model, MetricKind.SF, t).tolist()
    else:
        analytic = [_ie_sum(config.model, u)[0] for u in t.tolist()]
    return _csv(["t", "estimate", "stderr", "n", "analytic"],
                list(zip(t.tolist(), est.value.tolist(), est.stderr.tolist(),
                         [est.n_samples] * t.size, analytic)))


_RUNNERS = {
    "eval": _run_eval,
    "errors": _run_errors,
    "classify": _run_classify,
    "parallel": _run_parallel,
    "simulate": _run_simulate,
}


def run(config: RunConfig) -> None:
    """Execute the command and write the CSV artifact (all-or-nothing)."""
    text = _RUNNERS[config.command](config)
    Path(config.output).write_text(text, newline="")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_grid_arg(value: str) -> dict:
    """--grid START:STOP:COUNT:lin|log as a config grid object."""
    parts = value.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--grid expects START:STOP:COUNT:lin|log, got {value!r}")
    spacing = {"lin": "linear", "log": "log"}.get(parts[3])
    if spacing is None:
        raise ConfigError(f"--grid spacing must be lin or log, got {parts[3]!r}")
    try:
        return {"start": float(parts[0]), "stop": float(parts[1]),
                "count": int(parts[2]), "spacing": spacing}
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from exc


def build_config(argv: list[str]) -> RunConfig:
    """The config file's keys, each overridden by its flag when given."""
    parser = argparse.ArgumentParser(
        prog="dep-err",
        description="Series/parallel reliability metrics and the relative "
        "error of assuming independent components.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--model", required=True, help="model/run config JSON")
    parser.add_argument("--metric", choices=[m.value for m in MetricKind])
    parser.add_argument("--grid", help="START:STOP:COUNT:lin|log")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--structure", choices=STRUCTURES)
    parser.add_argument("--output", help="output CSV path")
    flags = vars(parser.parse_args(argv))

    data = _read_config(flags.pop("model"))
    if flags["grid"] is not None:
        flags["grid"] = _parse_grid_arg(flags["grid"])
    data.update((key, value) for key, value in flags.items()
                if value is not None)
    return _config_from_dict(data)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = build_config(argv)
        run(config)
    except (ConfigError, ValidationError) as exc:
        print(f"dep-err: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapabilityError as exc:
        print(f"dep-err: capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except DomainError as exc:
        print(f"dep-err: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ArithmeticError as exc:  # a value beyond the float range
        print(f"dep-err: domain error: float arithmetic failed: {exc}",
              file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"dep-err: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
