"""CLI behavior: config parsing, CSV output, exit codes, determinism."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deperr import MetricKind, simulate
from deperr.cli import (
    EXIT_CAPABILITY,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    RunConfig,
    _GRID_KEYS,
    _RUN_KEYS,
    emit_config,
    main,
    model_from_dict,
    model_to_dict,
    parse_config,
)
from deperr.exceptions import ConfigError

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def base_config(tmp_path, **overrides):
    data = {
        "family": "MOME",
        "n": 2,
        "rates": [
            {"subset": [1], "lambda": 1.0},
            {"subset": [2], "lambda": 1.0},
            {"subset": [1, 2], "lambda": 0.5},
        ],
        "command": "eval",
        "grid": {"start": 0.5, "stop": 2.0, "count": 4, "spacing": "linear"},
        "output": str(tmp_path / "out.csv"),
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        for name in ("eval_mome.json", "errors_mg1.json",
                     "classify_weibull.json", "parallel_indep.json",
                     "simulate_lee.json"):
            config = parse_config(DATA / name)
            echoed = tmp_path / name
            echoed.write_text(emit_config(config))
            again = parse_config(echoed)
            assert emit_config(again) == emit_config(config)

    def test_model_dict_round_trip(self):
        data = {
            "family": "LeeML",
            "n": 2,
            "rates": [
                {"subset": [1], "lambda": 0.5},
                {"subset": [2], "lambda": 0.5},
                {"subset": [1, 2], "lambda": 0.4},
            ],
            "alpha": 1.5,
            "c": [1.0, 1.3],
        }
        model = model_from_dict(data)
        assert model_to_dict(model) == data

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "bad.json", base_config(tmp_path, bogus=1)
        )
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    def test_missing_command_rejected(self, tmp_path):
        data = base_config(tmp_path)
        del data["command"]
        path = write_config(tmp_path, "bad.json", data)
        with pytest.raises(ConfigError, match="command"):
            parse_config(path)

    def test_bad_metric_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "bad.json", base_config(tmp_path, metric="pdf")
        )
        with pytest.raises(ConfigError, match="metric"):
            parse_config(path)

    def test_simulate_requires_samples(self, tmp_path):
        path = write_config(
            tmp_path, "bad.json", base_config(tmp_path, command="simulate")
        )
        with pytest.raises(ConfigError, match="samples"):
            parse_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)


class TestExitCodes:
    def test_success(self, tmp_path):
        path = write_config(tmp_path, "ok.json", base_config(tmp_path))
        assert main(["eval", "--model", str(path)]) == EXIT_OK
        assert (tmp_path / "out.csv").exists()

    def test_config_error(self, tmp_path):
        path = write_config(
            tmp_path, "bad.json", base_config(tmp_path, family="Unknown")
        )
        assert main(["eval", "--model", str(path)]) == EXIT_CONFIG

    def test_bad_metric_in_config(self, tmp_path, capsys):
        data = base_config(tmp_path, command="errors", metric="zz")
        path = write_config(tmp_path, "bad.json", data)
        assert main(["errors", "--model", str(path)]) == EXIT_CONFIG
        assert "metric" in capsys.readouterr().err

    def test_non_numeric_lambda(self, tmp_path, capsys):
        data = base_config(tmp_path)
        data["rates"][0]["lambda"] = "x"
        path = write_config(tmp_path, "bad.json", data)
        assert main(["eval", "--model", str(path)]) == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert (
            main(["eval", "--model", str(tmp_path / "nope.json")])
            == EXIT_CONFIG
        )

    def test_domain_error(self, tmp_path):
        # classify needs at least three grid points; a two-point grid is a
        # valid config that fails at evaluation time
        data = base_config(tmp_path, command="classify")
        data["grid"] = {"start": 1.0, "stop": 2.0, "count": 2,
                        "spacing": "linear"}
        path = write_config(tmp_path, "dom.json", data)
        assert main(["classify", "--model", str(path)]) == EXIT_DOMAIN

    def test_infinite_hazard_ai_exits_3(self, tmp_path, capsys):
        # t**alpha is inf on the whole grid, where AI is inf/inf
        data = base_config(tmp_path, family="LeeML", alpha=1e300, c=[1.0, 1.0])
        data["rates"][2]["lambda"] = 0.4
        data["grid"] = {"start": 1.2, "stop": 2.0, "count": 3,
                        "spacing": "linear"}
        path = write_config(tmp_path, "inf.json", data)
        assert main(["eval", "--model", str(path)]) == EXIT_DOMAIN
        assert "t=1.2" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_capability_error(self, tmp_path):
        data = base_config(
            tmp_path, family="MG1", command="simulate", samples=100, seed=1
        )
        path = write_config(tmp_path, "mg1.json", data)
        assert main(["simulate", "--model", str(path)]) == EXIT_CAPABILITY

    def test_io_error(self, tmp_path):
        data = base_config(
            tmp_path, output=str(tmp_path / "missing_dir" / "out.csv")
        )
        path = write_config(tmp_path, "io.json", data)
        assert main(["eval", "--model", str(path)]) == EXIT_IO

    def test_no_partial_file_on_error(self, tmp_path):
        # evaluation-time failure must not leave any output behind
        data = base_config(tmp_path, command="classify")
        data["grid"] = {"start": 1.0, "stop": 2.0, "count": 2,
                        "spacing": "linear"}
        path = write_config(tmp_path, "dom.json", data)
        assert main(["classify", "--model", str(path)]) == EXIT_DOMAIN
        assert not (tmp_path / "out.csv").exists()


class TestOutput:
    def run_csv(self, tmp_path, data, command=None):
        path = write_config(tmp_path, "run.json", data)
        assert main([command or data["command"], "--model", str(path)]) == EXIT_OK
        return (tmp_path / "out.csv").read_bytes().decode()

    def test_eval_values(self, tmp_path):
        text = self.run_csv(tmp_path, base_config(tmp_path))
        lines = text.split("\n")
        assert lines[0] == "t,sf,fr,rhr,ai"
        assert lines[-1] == ""  # trailing LF
        assert "\r" not in text
        row = lines[2].split(",")  # t = 1.0
        assert float(row[0]) == 1.0
        assert float(row[1]) == pytest.approx(math.exp(-2.5), rel=1e-15)
        assert float(row[2]) == pytest.approx(2.5, rel=1e-15)
        assert float(row[4]) == pytest.approx(1.0, rel=1e-15)

    def test_eval_17_digit_floats(self, tmp_path):
        text = self.run_csv(tmp_path, base_config(tmp_path))
        value = text.split("\n")[2].split(",")[1]
        assert value == format(math.exp(-2.5), ".17g")

    def test_errors_sf_beyond_float_range_is_blank(self, tmp_path):
        # Crowder at t = 370: exp(H_i - H_d) - 1 exceeds the float range
        # while the independent survival is still subnormal, not 0.
        data = base_config(
            tmp_path, family="Crowder", command="errors", metric="sf",
            rates=[{"subset": [1], "lambda": 1.0},
                   {"subset": [2], "lambda": 1.0}],
            shapes=[1.0, 1.0], gamma=0.5, l=0.5,
            grid={"start": 360.0, "stop": 370.0, "count": 2,
                  "spacing": "linear"},
        )
        rows = [line.split(",")
                for line in self.run_csv(tmp_path, data).splitlines()[1:]]
        assert [row[0] for row in rows] == ["360", "370"]
        assert rows[0][4] and rows[0][5]
        assert float(rows[0][4]) == pytest.approx(float(rows[0][5]),
                                                  rel=1e-12)
        assert rows[1][4] == "" and rows[1][5] == ""
        assert 0.0 < float(rows[1][3]) < 1e-300  # subnormal reference

    def test_errors_rhr_beyond_float_range_is_blank(self, tmp_path):
        # the Crowder point of the SF case above, for RHR
        data = base_config(
            tmp_path, family="Crowder", command="errors", metric="rhr",
            rates=[{"subset": [1], "lambda": 1.0},
                   {"subset": [2], "lambda": 1.0}],
            shapes=[1.0, 1.0], gamma=0.5, l=0.5,
            grid={"start": 360.0, "stop": 370.0, "count": 2,
                  "spacing": "linear"},
        )
        rows = [line.split(",")
                for line in self.run_csv(tmp_path, data).splitlines()[1:]]
        assert rows[0][4] and rows[0][5]
        assert rows[1][4] == "" and rows[1][5] == ""
        assert 0.0 < float(rows[1][3]) < 1e-300  # subnormal reference

    def test_errors_all_metrics(self, tmp_path):
        data = base_config(tmp_path, command="errors")
        text = self.run_csv(tmp_path, data)
        lines = [l for l in text.split("\n") if l]
        assert lines[0] == "t,metric,dep,indep,rel_err,closed_form_err"
        metrics = [l.split(",")[1] for l in lines[1:]]
        assert metrics == ["sf"] * 4 + ["fr"] * 4 + ["rhr"] * 4 + ["ai"] * 4

    def test_errors_single_metric_flag(self, tmp_path):
        data = base_config(tmp_path, command="errors")
        path = write_config(tmp_path, "run.json", data)
        assert main(
            ["errors", "--model", str(path), "--metric", "fr"]
        ) == EXIT_OK
        lines = [
            l for l in (tmp_path / "out.csv").read_text().split("\n") if l
        ]
        assert len(lines) == 5
        row = lines[1].split(",")
        assert row[1] == "fr"
        assert float(row[4]) == pytest.approx(0.25)  # 2.5/2 - 1
        assert float(row[5]) == pytest.approx(0.25)

    def test_classify_row(self, tmp_path):
        data = base_config(tmp_path, command="classify")
        data["grid"] = {"start": 0.1, "stop": 10.0, "count": 20,
                        "spacing": "log"}
        text = self.run_csv(tmp_path, data)
        lines = [l for l in text.split("\n") if l]
        assert lines[0] == "frclass,fraclass,aiclass,fr_constant,ai_constant"
        assert lines[1] == "neither,IFRA,neither,true,true"

    def test_parallel_values(self, tmp_path):
        data = base_config(tmp_path, command="parallel")
        data["grid"] = {"start": 1.0, "stop": 2.0, "count": 2,
                        "spacing": "linear"}
        text = self.run_csv(tmp_path, data)
        row = [l for l in text.split("\n") if l][1].split(",")  # t = 1.0
        expected = 2 * math.exp(-1.5) - math.exp(-2.5)
        assert float(row[1]) == pytest.approx(expected, rel=1e-14)
        assert float(row[2]) == pytest.approx(expected, rel=1e-14)

    def test_simulate_deterministic(self, tmp_path):
        data = base_config(
            tmp_path, command="simulate", samples=5000, seed=7
        )
        first = self.run_csv(tmp_path, data)
        second = self.run_csv(tmp_path, data)
        assert first == second
        row = [l for l in first.split("\n") if l][1].split(",")
        assert int(row[3]) == 5000
        assert abs(float(row[1]) - float(row[4])) < 5 * float(row[2]) + 1e-3

    def test_cli_flags_override_config(self, tmp_path):
        data = base_config(tmp_path)
        path = write_config(tmp_path, "run.json", data)
        out = tmp_path / "other.csv"
        assert main(
            ["eval", "--model", str(path), "--grid", "1:2:2:lin",
             "--output", str(out)]
        ) == EXIT_OK
        lines = [l for l in out.read_text().split("\n") if l]
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"

    def test_run_config_rejects_bad_command(self, tmp_path):
        config = parse_config(DATA / "eval_mome.json")
        with pytest.raises(ConfigError):
            RunConfig(
                command="plot",
                model=config.model,
                grid=config.grid,
                output="x.csv",
            )

    def test_simulate_draws_once_for_the_grid(self, tmp_path, monkeypatch):
        opened = []
        stream = simulate._subset_stream

        def counted(seed, subset_index):
            opened.append(subset_index)
            return stream(seed, subset_index)

        monkeypatch.setattr(simulate, "_subset_stream", counted)
        data = base_config(tmp_path, command="simulate", samples=1000, seed=5)
        self.run_csv(tmp_path, data)  # 4 grid points, 3 rated subsets
        assert opened == [0, 1, 2]


class TestGolden:
    @pytest.mark.parametrize(
        "name",
        ["eval_mome", "errors_mg1", "classify_weibull", "parallel_indep",
         "simulate_lee"],
    )
    def test_matches_golden(self, name, tmp_path):
        config_path = DATA / f"{name}.json"
        data = json.loads(config_path.read_text())
        out = tmp_path / f"{name}.csv"
        data["output"] = str(out)
        path = write_config(tmp_path, f"{name}.json", data)
        assert main([data["command"], "--model", str(path)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


# ---------------------------------------------------------------------------
# Malformed configs: exit 2 naming the key, never a traceback
# ---------------------------------------------------------------------------

CONFIG_NAMES = ["eval_mome", "errors_mg1", "classify_weibull",
                "parallel_indep", "simulate_lee"]
# every top-level key and every grid key, as "grid.<key>"
FUZZ_KEYS = sorted(_RUN_KEYS) + [f"grid.{k}" for k in sorted(_GRID_KEYS)]
HUGE = [2**31, 2**53, 2**64, 10**30, 10**400, 1e308, 5e-324]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.sampled_from(HUGE + [-x for x in HUGE]), st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# an output path stays a name in the working directory
file_names = st.text(max_size=8).map(lambda s: s.replace("/", "_"))


def set_key(data, key, value):
    """Set a top-level key, or a grid key given as "grid.<key>"."""
    if key.startswith("grid."):
        data["grid"][key[5:]] = value
    else:
        data[key] = value
    return data


def run_mutated(tmp_path, name, key, value):
    """Set one key of a golden config and run its command; the exit code."""
    data = json.loads((DATA / f"{name}.json").read_text())
    command = data["command"]  # the argv command overrides the file's
    data["output"] = str(tmp_path / "out.csv")
    path = write_config(tmp_path, "fuzz.json", set_key(data, key, value))
    return main([command, "--model", str(path)])


def names_key(err: str, key: str) -> bool:
    return re.search(rf"(?<![\w.]){re.escape(key)}(?![\w])", err) is not None


MALFORMED = [
    ("n", "2"), ("n", True),
    ("samples", "10"), ("samples", 10.5),
    ("seed", "x"), ("seed", 1.5),
    ("grid.count", "x"), ("grid.count", True), ("grid.count", 2.7),
    ("grid.start", "a"), ("grid.stop", math.nan),
    ("shapes", "ab"), ("gamma", "x"), ("rates", 5),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("key,value", MALFORMED)
    def test_exits_2_naming_key(self, tmp_path, capsys, key, value):
        data = base_config(tmp_path)
        if key in ("shapes", "gamma"):  # parameters of the Crowder family
            data.update(family="Crowder", shapes=[1.0, 1.0], gamma=0.5, l=0.5,
                        rates=[{"subset": [1], "lambda": 1.0},
                               {"subset": [2], "lambda": 1.0}])
        path = write_config(tmp_path, "bad.json", set_key(data, key, value))
        assert main(["eval", "--model", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert names_key(err, key)
        if key == "n":
            assert "must be an integer >= 1" in err

    @pytest.mark.parametrize("rates", [
        [{"subset": [1], "lambda": math.inf}, {"subset": [2], "lambda": 1.0}],
        [{"subset": [1], "lambda": 1e308}, {"subset": [2], "lambda": 1e308}],
    ])
    def test_bad_rates_exit_2(self, tmp_path, capsys, rates):
        path = write_config(tmp_path, "bad.json",
                            base_config(tmp_path, rates=rates))
        assert main(["eval", "--model", str(path)]) == EXIT_CONFIG
        assert "rates" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_lee_scale_power_overflow_exit_2(self, tmp_path, capsys, command):
        # 1.3**1e300 is inf, and inf * 0.5**1e300 = inf * 0 is nan
        data = json.loads((DATA / "simulate_lee.json").read_text())
        data.update(command=command, alpha=1e300,
                    output=str(tmp_path / "out.csv"))
        path = write_config(tmp_path, "lee.json", data)
        assert main([command, "--model", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert names_key(err, "alpha") and names_key(err, "c")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000])
    def test_unreadable_config_exits_2(self, tmp_path, content):
        # not UTF-8, and JSON nested too deep to parse
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["eval", "--model", str(path)]) == EXIT_CONFIG

    def test_parse_config_rejects_same_values(self, tmp_path):
        # the file path and the flag path run the same checks
        path = write_config(tmp_path, "bad.json",
                            base_config(tmp_path, seed=1.5))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)

    def test_bad_flag_value_names_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "ok.json", base_config(tmp_path))
        assert main(["eval", "--model", str(path), "--grid",
                     "1:nan:3:lin"]) == EXIT_CONFIG
        assert names_key(capsys.readouterr().err, "grid.stop")

    def test_flag_overrides_only_its_key(self, tmp_path):
        data = base_config(tmp_path, command="simulate", samples=10, seed=3)
        path = write_config(tmp_path, "run.json", data)
        assert main(["simulate", "--model", str(path), "--samples",
                     "20"]) == EXIT_OK
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["20"] * 4


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(CONFIG_NAMES), key=st.sampled_from(FUZZ_KEYS),
       data=st.data())
@example(name="eval_mome", key="output", data="a\0b")
@example(name="eval_mome", key="grid.start", data=10**400)
@example(name="simulate_lee", key="alpha", data=1e308)
@example(name="simulate_lee", key="grid.stop", data=1e300)
@example(name="simulate_lee", key="samples", data=2**53)
def test_fuzz_one_key(tmp_path, monkeypatch, capsys, name, key, data):
    monkeypatch.chdir(tmp_path)
    if isinstance(data, st.DataObject):
        value = data.draw(file_names if key == "output" else json_values)
    else:  # an explicit example gives the value itself
        value = data
    capsys.readouterr()
    code = run_mutated(tmp_path, name, key, value)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_CAPABILITY,
                    EXIT_IO)
    if code == EXIT_CONFIG:
        assert names_key(capsys.readouterr().err, key)
