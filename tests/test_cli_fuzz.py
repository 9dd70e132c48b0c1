"""The command line under mutated input: each example changes one scenario
key or one flag of a valid command to a value of the wrong type, NaN, an
infinity, zero, a negative, a huge or a tiny number, a string, a nested
list or null, and runs ``cli.main`` in process.  Whatever the input, main
returns 0, 1 or 2 and no exception escapes it; an exit of 1 prints exactly
one ``error:`` line.  Sizes stay small: at most 50 agents, generators or
negotiation rounds per step, and dynamic-sim runs one step: each value
given to its --horizon is refused."""

import json
import math
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvtalloc import cli

SHIPPED = Path(__file__).resolve().parent.parent / "scenarios" / "demand_response.json"

VALUES = ["abc", math.nan, math.inf, -math.inf, 0, -1, 1e300, 1e-300,
          [[1, 2]], None, True]
# Keys and flags that size the work: a value above MAX_SIZE becomes it.
SIZES = {"--n", "n_agents", "rounds_per_step"}
MAX_SIZE = 50

GAUSS = '{"family":"gaussian","mu":"free","sigma2":4}'
COMMANDS = {
    "cvt": ["--domain", "0,10", "--n", "3", "--density", "uniform",
            "--init", "uniform", "--tol", "1e-9", "--max-iter", "200"],
    "static-alloc": ["--domain", "0,100", "--n", "5", "--r", "250",
                     "--density", GAUSS],
    "shift-check": ["--domain", "0,100", "--n", "5", "--mu", "50",
                    "--sigma2", "4", "--delta", "2", "--tol", "1e-7"],
    "dynamic-sim": ["--config", str(SHIPPED), "--horizon", "1",
                    "--seed", "7"],
}
# A scenario key, or the path to an entry inside one.  A drawn top-level
# key may also be dropped.
SCENARIO_KEYS = [(k,) for k in json.loads(SHIPPED.read_text())] + [
    ("domain", 0), ("domain", 1), ("power_schedule", 0), ("poles", 0),
    ("setpoints", 0), ("setpoint_changes", 0, 0), ("setpoint_changes", 0, 2),
    ("density", "family"), ("density", "mu"), ("density", "sigma2")]


def _sized(where, value):
    if (where in SIZES and isinstance(value, (int, float))
            and not isinstance(value, bool) and value > MAX_SIZE):
        return MAX_SIZE
    return value


def _text(value) -> str:
    """A flag's text for a value: numbers as Python prints them, the rest
    as JSON."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return value if isinstance(value, str) else json.dumps(value)


def _assert_clean_exit(rc, captured):
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_SOLVER)
    if rc == cli.EXIT_USAGE:
        lines = captured.err.splitlines()
        assert sum("error:" in line for line in lines) == 1, captured.err
        if not captured.err.startswith("usage:"):
            assert len(lines) == 1 and lines[0].startswith("error: "), \
                captured.err


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data(),
       value=st.sampled_from(VALUES))
def test_one_flag_mutated(command, data, value, tmp_path_factory, capsys):
    argv = list(COMMANDS[command])
    at = data.draw(st.sampled_from(range(0, len(argv), 2)))
    argv[at + 1] = _text(_sized(argv[at], value))
    if command != "shift-check":
        argv += ["--out", str(tmp_path_factory.mktemp("out"))]
    rc = cli.main([command, *argv])
    _assert_clean_exit(rc, capsys.readouterr())


@FUZZ
@given(path=st.sampled_from(SCENARIO_KEYS), value=st.sampled_from(VALUES),
       drop=st.booleans())
def test_one_scenario_key_mutated(path, value, drop, tmp_path_factory,
                                  capsys):
    cfg = json.loads(SHIPPED.read_text())
    *parents, last = path
    holder = cfg
    for key in parents:
        holder = holder[key]
    if drop and not parents:
        del holder[last]
    else:
        holder[last] = _sized(last, value)
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tmp / "scenario.json"
    config.write_text(json.dumps(cfg))
    rc = cli.main(["dynamic-sim", "--config", str(config), "--horizon", "1",
                   "--out", str(tmp / "out")])
    _assert_clean_exit(rc, capsys.readouterr())
