"""Golden output bytes of ``cvtalloc dynamic-sim`` and of the static solve.

The SHA-256 of each of the six output files must stay fixed for the shipped
scenario (``bench/golden_shipped.json``) and for the same scenario scaled to
240 agents (``tests/golden_fleet240.json``).  At N = 240 ties in the resource
order and in the negotiation are much more frequent than at N = 15.  The
static solves of the benchmark's static-sweep and of Acceptance 3 are pinned
the same way, one hash per solve (``tests/golden_static.json``).
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from cvtalloc import cli
from cvtalloc import static_alloc as sa
from cvtalloc.density import DensitySpec
from cvtalloc.static_alloc import StaticProblem
from cvtalloc.tessellation import Domain1D

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "scenarios" / "demand_response.json"
FLEET_N = 240


def fleet_config(n: int) -> dict:
    """The shipped scenario scaled to n agents: r(k) times n/15, setpoints
    linspace(68, 76, n), and the step-30 setpoint change for the first n // 3
    agents."""
    cfg = json.loads(SHIPPED.read_text())
    n0 = cfg["n_agents"]
    when, _, new_sp = cfg["setpoint_changes"][0]
    cfg["n_agents"] = n
    cfg["power_schedule"] = [r * n / n0 for r in cfg["power_schedule"]]
    cfg["setpoints"] = np.linspace(68.0, 76.0, n).tolist()
    cfg["setpoint_changes"] = [[when, i, new_sp] for i in range(n // 3)]
    return cfg


def output_hashes(config: dict, tmp_path: Path) -> dict:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["dynamic-sim", "--config", str(path), "--out", str(out)])
    assert rc == cli.EXIT_OK
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "swaps.csv", "metrics.json",
                         "powers.csv", "total_power.csv", "temperatures.csv")}


@pytest.mark.parametrize("config, golden", [
    (lambda: json.loads(SHIPPED.read_text()), ROOT / "bench" / "golden_shipped.json"),
    (lambda: fleet_config(FLEET_N), ROOT / "tests" / "golden_fleet240.json"),
], ids=["shipped", "fleet-240"])
def test_dynamic_sim_outputs_match_golden_hashes(config, golden, tmp_path):
    assert output_hashes(config(), tmp_path) == json.loads(golden.read_text())


def static_problems(acceptance3_problems):
    """The static-sweep seed-0 problems (Acceptance-2 family at N = 50, 200,
    800 and r/N = 50) and the six Acceptance-3 problems, by label."""
    d = DensitySpec("gaussian", {"sigma2": 4.0}, free_param="mu")
    sweep = [(f"gauss s2=4 n={n} r={50 * n}",
              StaticProblem(Domain1D(0.0, 100.0), n, d, 50.0 * n))
             for n in (50, 200, 800)]
    return dict(sweep + list(acceptance3_problems))


def solution_hash(sol) -> str:
    """SHA-256 over the centroid bytes, repr(v_k), repr(residual_norm) and
    the Newton iteration count."""
    h = hashlib.sha256(np.ascontiguousarray(sol.centroids).tobytes())
    h.update(repr((sol.v_k, sol.residual_norm, sol.iterations)).encode())
    return h.hexdigest()


def test_static_solutions_match_golden_hashes(acceptance3_problems):
    problems = static_problems(acceptance3_problems)
    hashes = {label: solution_hash(sa.solve(p)) for label, p in problems.items()}
    assert hashes == json.loads((ROOT / "tests" / "golden_static.json").read_text())
