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
import os
import stat
import sys
from dataclasses import asdict, dataclass, fields
from functools import cache
from itertools import chain

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


# a run config's keys: the model's, then RunConfig's own
_RUN_KEYS = _MODEL_KEYS | {f.name for f in fields(RunConfig)} - {"model"}


def _object(data, name: str, keys: set, required=(), prefix: str = "") -> dict:
    """`data` if a JSON object `name` of `keys` holding each `required` key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(data) - keys
    if unknown:  # by str: a library caller's keys need not be strings
        raise ConfigError(f"unknown {name} key(s): {sorted(unknown, key=str)}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{prefix}{key}: missing")
    return data


def _rate_pairs(rates):
    """Each entry of a JSON `rates` list as a (subset, lambda) pair, checked
    as `SubsetRates.from_mapping` reads it."""
    for e in rates if isinstance(rates, list) else [None]:  # None: refused
        if not (isinstance(e, dict) and set(e) == {"subset", "lambda"}
                and isinstance(e["subset"], list)):
            raise ValidationError(
                "rates: must be a list of {\"subset\": [...], \"lambda\": x}")
        yield e["subset"], e["lambda"]


def model_from_dict(data: dict) -> ValidatedModel:
    """Build and validate a model from its JSON representation."""
    _object(data, "model", _MODEL_KEYS, ("family", "n"))
    spec = ModelSpec(
        family=data["family"],
        n=data["n"],
        rates=_rate_pairs(data.get("rates", [])),
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


def _read_config(path):
    """The JSON value in the config file at `path`, whose bytes are UTF-8."""
    try:  # unbuffered bytes: a text file's buffer and decoder cost more
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _config_from_dict(data) -> RunConfig:
    """A config dict as a RunConfig: check the model, grid, metric, then it."""
    _object(data, "config", _RUN_KEYS, ("command", "grid", "output"))
    model = model_from_dict({k: v for k, v in data.items() if k in _MODEL_KEYS})
    run = {k: v for k, v in data.items() if k not in _MODEL_KEYS}
    grid = _object(run["grid"], "grid", _GRID_KEYS, ("start", "stop", "count"),
                   "grid.")
    try:
        run["grid"] = GridSpec(**(grid | {k: _real(grid[k], f"grid.{k}")
                                          for k in ("start", "stop")}))
        if run.get("metric") is not None:
            run["metric"] = MetricKind(run["metric"])
    except (DomainError, ValidationError) as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError:  # MetricKind's, for a name it does not know
        raise ConfigError(f"metric: unknown metric {run['metric']!r}") from None
    return RunConfig(model=model, **run)


def parse_config(path) -> RunConfig:
    """Parse a self-contained run configuration file."""
    return _config_from_dict(_read_config(path))


def emit_config(config: RunConfig) -> str:
    """Serialize a RunConfig to canonical JSON; parse_config round-trips it."""
    data = model_to_dict(config.model)
    for field in fields(config):
        value = getattr(config, field.name)
        if field.name != "model" and value is not None:
            data[field.name] = (asdict(value) if isinstance(value, GridSpec)
                                else value.value if isinstance(value, MetricKind)
                                else value)
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


@cache
def _row_pattern(kinds: tuple[type, ...]) -> str:
    """A row's `%` pattern, so that `_csv` formats a table with one `%`: a
    float (np.float64 too) to 17 significant digits, None empty, else str."""
    return ",".join(["%.17g" if issubclass(k, float) else "%.0s"  # None: no text
                     if k is type(None) else "%s" for k in kinds]) + "\n"


def _csv(header: list[str], rows: list) -> str:
    pattern = "".join([_row_pattern(tuple(map(type, row))) for row in rows])
    return ",".join(header) + "\n" + pattern % tuple(chain.from_iterable(rows))


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
        c = error_curve(config.model, metric, config.grid)
        defined = [t for t, e in zip(c.t, c.rel_err) if e is not None]
        closed = (closed_form_error(config.model, metric, np.array(defined))
                  if defined else None)
        closed = iter([] if closed is None else closed.tolist())
        rows += zip(c.t, [metric.value] * len(c.t), c.dep, c.indep, c.rel_err,
                    [None if e is None else next(closed, None) for e in c.rel_err])
    return _csv(["t", "metric", "dep", "indep", "rel_err", "closed_form_err"],
                rows)


def _run_classify(config: RunConfig) -> str:
    verdict = classify_aging(config.model, config.grid)
    return _csv(
        ["frclass", "fraclass", "aiclass", "fr_constant", "ai_constant"],
        [[verdict.frclass, verdict.fraclass, verdict.aiclass,
          str(verdict.fr_constant).lower(), str(verdict.ai_constant).lower()]],
    )


def _run_parallel(config: RunConfig) -> str:
    rows = []
    for t in config.grid.points().tolist():
        result = parallel_sf_ie(config.model, t)
        rel = _relative_to_independent(config.model, result.sf_ie, t)
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
    """Execute the command, then rewrite the output CSV in place (os.write):
    no O_TRUNC, which on ext4 flushes a rerun's data on close, and a regular
    file (not /dev/null or a pipe, where ftruncate fails) is then cut."""
    data = _RUNNERS[config.command](config).encode()
    fd = os.open(config.output, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # a pipe or a signal may take part of it
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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


# Built once per process: parse_args keeps no state between calls.
_PARSER = argparse.ArgumentParser(
    prog="dep-err",
    description="Series/parallel reliability metrics and the relative "
    "error of assuming independent components.",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--model", required=True, help="model/run config JSON")
_PARSER.add_argument("--metric", choices=[m.value for m in MetricKind])
_PARSER.add_argument("--grid", help="START:STOP:COUNT:lin|log")
_PARSER.add_argument("--samples", type=int)
_PARSER.add_argument("--seed", type=int)
_PARSER.add_argument("--structure", choices=STRUCTURES)
_PARSER.add_argument("--output", help="output CSV path")


def build_config(argv: list[str]) -> RunConfig:
    """The config file's keys, each overridden by its flag when given."""
    flags = vars(_PARSER.parse_args(argv))

    data = _object(_read_config(flags.pop("model")), "config", _RUN_KEYS)
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
