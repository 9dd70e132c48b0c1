"""Golden output bytes of ``cvtalloc dynamic-sim`` and of the static solve.

The SHA-256 of each of the six output files must stay fixed for the shipped
scenario (``bench/golden_shipped.json``), for the same scenario scaled to
240 agents (``tests/golden_fleet240.json``) and for the shipped scenario with
three negotiation rounds per step (``tests/golden_shipped_rounds3.json``).
At N = 240 ties in the resource order and in the negotiation are much more
frequent than at N = 15; only with more than one round per step can a swap
start from resources that an earlier round of the same step exchanged.  The
static solves of the benchmark's static-sweep and of Acceptance 3 are pinned
the same way, one hash per solve (``tests/golden_static.json``), and so are
Lloyd runs of all four families at N = 1 to 800, which end on each of the
three stop reasons (``tests/golden_lloyd.json``).  The same file holds the
iteration count and stop reason of each Acceptance-3 cross-validation run.
The text files print 15 digits, so the three dynamic runs' trace columns
are also pinned by the SHA-256 of their float64 bytes
(``tests/golden_trace_bits.json``), where a change in the last bit shows.
Every static solve above N_DENSE, the shipped scenario's N = 15, takes the
banded path, whose bytes do not depend on the BLAS thread count; so the
static goldens, all at N = 50 and above, hold on any host.  Only the
shipped scenarios' N = 15 solves take the dense path.
"""

import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from cvtalloc import cli, sim
from cvtalloc import static_alloc as sa
from cvtalloc import tessellation as tess
from cvtalloc.density import DensitySpec
from cvtalloc.sim import Scenario
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
    (lambda: {**json.loads(SHIPPED.read_text()), "rounds_per_step": 3},
     ROOT / "tests" / "golden_shipped_rounds3.json"),
], ids=["shipped", "fleet-240", "shipped-rounds3"])
def test_dynamic_sim_outputs_match_golden_hashes(config, golden, tmp_path):
    assert output_hashes(config(), tmp_path) == json.loads(golden.read_text())


def test_debug_logging_leaves_outputs_unchanged(tmp_path, caplog):
    # Every cvtalloc logger at DEBUG: the six files keep their golden bytes.
    with caplog.at_level(logging.DEBUG, logger="cvtalloc"):
        hashes = output_hashes(json.loads(SHIPPED.read_text()), tmp_path)
    assert any(r.name == "cvtalloc.sim" for r in caplog.records)
    assert hashes == json.loads(
        (ROOT / "bench" / "golden_shipped.json").read_text())


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


def banded_solution_hashes() -> dict:
    """solution_hash of the fleet-240 initial solve and of the static-sweep
    N = 50 (Acceptance 2) and N = 800 solves, all above N_DENSE."""
    sc = Scenario.from_config(fleet_config(FLEET_N))
    fleet = StaticProblem(sc.domain, sc.n_agents, sc.density,
                          sc.power_schedule[0])
    d = DensitySpec("gaussian", {"sigma2": 4.0}, free_param="mu")
    hashes = {"fleet-240": solution_hash(sa.solve(fleet))}
    for n in (50, 800):
        sweep = StaticProblem(Domain1D(0.0, 100.0), n, d, 50.0 * n)
        hashes[f"n={n}"] = solution_hash(sa.solve(sweep))
    return hashes


def test_banded_solutions_independent_of_blas_threads():
    assert min(FLEET_N, 50) > sa.N_DENSE
    script = ("import json, test_golden; "
              "print(json.dumps(test_golden.banded_solution_hashes()))")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        hashes.append(json.loads(out.stdout.splitlines()[-1]))
    assert hashes[0] == hashes[1]
    golden = json.loads((ROOT / "tests" / "golden_static.json").read_text())
    for n in (50, 800):
        assert hashes[0][f"n={n}"] == golden[f"gauss s2=4 n={n} r={50 * n}"]


LLOYD_FAMILIES = {
    "uniform": (DensitySpec("uniform", {"a": 0.0, "b": 100.0}),
                Domain1D(0.0, 100.0)),
    "gaussian": (DensitySpec("gaussian", {"mu": 40.0, "sigma2": 225.0}),
                 Domain1D(0.0, 100.0)),
    "exponential": (DensitySpec("exponential", {"lam": 0.04}),
                    Domain1D(0.0, 150.0)),
    "gamma": (DensitySpec("gamma", {"k": 3.0, "theta": 12.0}),
              Domain1D(0.0, 150.0)),
}
# (tol, max_iter) per N; None is lloyd's default tolerance.  A tol of 1e-300
# is met only by an exact floating-point fixed point, so N = 2 ends on "tol"
# and the exponential and gamma runs at N = 15 end "stagnated"; N = 50 and
# 800 end on "budget".
LLOYD_RUNS = {1: (None, 100), 2: (1e-300, 8000), 15: (1e-300, 8000),
              50: (None, 3000), 800: (None, 100)}


def lloyd_runs():
    """Lloyd from seeded random generators: (label, Tessellation) pairs."""
    for f, (family, (d, dom)) in enumerate(LLOYD_FAMILIES.items()):
        for n, (tol, max_iter) in LLOYD_RUNS.items():
            rng = np.random.default_rng(1000 * f + n)
            z = np.sort(rng.uniform(dom.a, dom.b, n))
            yield f"{family} n={n}", tess.lloyd(z, d, dom, tol=tol,
                                                max_iter=max_iter)


def lloyd_hash(t) -> str:
    """SHA-256 over the generator bytes, repr(energy), the iteration count
    and the stop reason."""
    h = hashlib.sha256(np.ascontiguousarray(t.generators).tobytes())
    h.update(repr((t.energy, t.iterations, t.stop_reason)).encode())
    return h.hexdigest()


GOLDEN_LLOYD = ROOT / "tests" / "golden_lloyd.json"


def test_lloyd_runs_match_golden_hashes():
    # Each result's generators also pass the rule of Lloyd's start.
    runs = dict(lloyd_runs())
    hashes = {label: lloyd_hash(t) for label, t in runs.items()}
    assert hashes == json.loads(GOLDEN_LLOYD.read_text())["runs"]
    for label, t in runs.items():
        dom = LLOYD_FAMILIES[label.split()[0]][1]
        assert tess._valid_row(t.generators, dom), label


def test_acceptance3_lloyd_runs_match_golden(acceptance3_runs):
    # Each Lloyd result's generators also pass the rule of Lloyd's start.
    got = {label: {"iterations": rep.lloyd_iterations, "stop": rep.lloyd_stop}
           for label, _, rep, _ in acceptance3_runs}
    assert got == json.loads(GOLDEN_LLOYD.read_text())["acceptance3"]
    for label, p, _, t in acceptance3_runs:
        assert tess._valid_row(t.generators, p.domain), label


# The trace columns whose float64 bytes tests/golden_trace_bits.json pins.
TRACE_COLUMNS = ("z", "desired_abs", "applied_power", "temp_F", "sum_z",
                 "constraint_error", "swaps")


def undo_swaps(z, pairs) -> np.ndarray:
    """The values that each swap of ``pairs`` (S, 2) found at its two
    agents, (S, 2) float64: the swaps undone, last first, on the bits of
    the values ``z`` they ended in, so signs of zero and NaNs survive."""
    bits = np.asarray(z, dtype=np.float64).view(np.int64).tolist()
    before = []
    for p, q in reversed(pairs.tolist()):
        bits[p], bits[q] = bits[q], bits[p]
        before += (bits[q], bits[p])
    return np.array(before[::-1], dtype=np.int64).reshape(-1, 2).view(
        np.float64)


def trace_bit_hashes(config: dict) -> dict:
    """SHA-256 of the float64 bytes of each trace column, all steps in
    order, of the per-step swap counts (int64) and of the line-graph column
    ``order`` (int64).  The text goldens print 15 digits, so a change in a
    value's last bit passes them; this one does not.  The ``order`` entry
    was recorded from ``np.argsort(z, kind="stable")`` of each step, before
    the trace kept the line graph, and the ``swaps`` entry from rows of
    proposer, target and their resources before the round, which the trace
    stored then; the rows are rebuilt here from its pairs and z."""
    t = sim.run(Scenario.from_config(config))
    hashes = {}
    for name in TRACE_COLUMNS:
        column = getattr(t, name)
        if name == "swaps":
            column = [np.column_stack([pairs, undo_swaps(z, pairs)])
                      for z, pairs in zip(t.z, column)]
        values = (np.concatenate(column) if name == "swaps"
                  else np.asarray(column, dtype=np.float64))
        hashes[name] = hashlib.sha256(values.tobytes()).hexdigest()
    counts = np.array([len(s) for s in t.swaps], dtype=np.int64)
    hashes["swaps_per_step"] = hashlib.sha256(counts.tobytes()).hexdigest()
    order = np.asarray(t.order)
    hashes["order"] = hashlib.sha256(
        order.astype(np.int64).tobytes()).hexdigest()
    return hashes


TRACE_RUNS = {
    "shipped": lambda: json.loads(SHIPPED.read_text()),
    "shipped-rounds3": lambda: {**json.loads(SHIPPED.read_text()),
                                "rounds_per_step": 3},
    "fleet-240": lambda: fleet_config(FLEET_N),
}


@pytest.mark.parametrize("label", list(TRACE_RUNS))
def test_trace_columns_match_golden_bits(label):
    golden = json.loads((ROOT / "tests" / "golden_trace_bits.json").read_text())
    assert trace_bit_hashes(TRACE_RUNS[label]()) == golden[label]
