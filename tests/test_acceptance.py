"""Acceptance gate: ten end-to-end criteria, each printing one PASS/FAIL line.

Each line holds only deterministic text, so two runs or two trees print the
same ten lines; criteria 1 and 2 still bound their wall time and name it
only when the bound is missed.

The verdict lines are collected here and echoed by the terminal-summary hook
in conftest.py, so a plain ``pytest`` run always shows one line per
criterion regardless of output capturing.  Each line must equal its
criterion's line in tests/golden_acceptance.txt, so a run that selects some
criteria compares only the lines it printed.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cvtalloc import cli, sim
from cvtalloc import dynamic_alloc as dyn
from cvtalloc import static_alloc as sa
from cvtalloc import tessellation as tess
from cvtalloc import thermal as th
from cvtalloc.density import DensitySpec
from cvtalloc.dynamic_alloc import AllocationState
from cvtalloc.static_alloc import StaticProblem
from cvtalloc.tessellation import Domain1D
from cvtalloc.thermal import ThermalParams
from test_tessellation import is_cvt

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / \
    "demand_response.json"
GOLDEN = Path(__file__).resolve().parent / "golden_acceptance.txt"


VERDICT_LINES: list = []


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion:2d}: {verdict} - {detail}"
    VERDICT_LINES.append(line)
    print(line)
    assert passed, f"criterion {criterion}: {detail}"
    assert line == GOLDEN.read_text().splitlines()[criterion - 1]


def test_criterion_01_uniform_cvt_cli(tmp_path, capsys):
    start = time.perf_counter()
    rc = cli.main(["cvt", "--domain", "0,15", "--n", "3",
                   "--density", "uniform", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    err = float(np.max(np.abs(np.array(out["generators"])
                              - [2.5, 7.5, 12.5])))
    detail = f"uniform CVT generators err={err:.2e}"
    if elapsed >= 1.0:
        detail += f", runtime={elapsed:.3f}s, not under 1s"
    report(1, rc == 0 and err < 1e-9 and elapsed < 1.0, detail)


def test_criterion_02_static_allocation_symmetry():
    start = time.perf_counter()
    p = StaticProblem(domain=Domain1D(0.0, 100.0), n_agents=50,
                      density=DensitySpec("gaussian", {"sigma2": 4.0},
                                          free_param="mu"), r=2500.0)
    sol = sa.solve(p)
    elapsed = time.perf_counter() - start
    mu_err = abs(sol.v_k - 50.0)
    sum_err = abs(float(np.sum(sol.centroids)) - 2500.0)
    detail = f"mu err={mu_err:.2e}, sum err={sum_err:.2e}"
    if elapsed >= 10.0:
        detail += f", runtime={elapsed:.2f}s, not under 10s"
    report(2, mu_err < 1e-6 and sum_err < 1e-6 and elapsed < 10.0, detail)


def test_criterion_03_solver_lloyd_cross_validation(acceptance3_reports):
    worst = 0.0
    all_ok = True
    for _, p, rep in acceptance3_reports:
        worst = max(worst, rep.max_discrepancy / p.domain.width)
        all_ok = all_ok and rep.passed
    report(3, all_ok,
           f"6 configurations, worst discrepancy {worst:.2e} of width")


def test_criterion_04_energy_oracle():
    d = DensitySpec("uniform", {"a": 0.0, "b": 1.0})
    dom = Domain1D(0.0, 1.0)
    k_analytic = tess.energy_K([0.25, 0.75], d, dom)
    analytic_err = abs(k_analytic - 1.0 / 48.0)

    t = tess.lloyd(tess.default_init(2, dom), d, dom, tol=1e-12)
    grid = np.linspace(0.0025, 0.9975, 201)
    h = grid[1] - grid[0]
    z1, z2 = np.meshgrid(grid, grid, indexing="ij")
    m = 0.5 * (z1 + z2)
    # closed-form uniform energy, independent of the library integrals
    e = (((m - z1) ** 3 + z1 ** 3) + ((1.0 - z2) ** 3 + (z2 - m) ** 3)) / 3.0
    best = float(np.min(np.where(z1 < z2, e, np.inf)))
    # one grid-cell bound: |dK/dz| <= 2 per generator on [0,1]
    within_bound = abs(best - t.energy) <= 2.0 * 2.0 * h
    ok = analytic_err < 1e-9 and within_bound and best >= t.energy - 1e-12
    report(4, ok, f"K(0.25,0.75) err={analytic_err:.2e}, brute-force gap="
                  f"{best - t.energy:.2e} (bound {4 * h:.2e})")


def test_criterion_05_mean_shift_property():
    d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
    dom = Domain1D(0.0, 100.0)
    worst = 0.0
    all_ok = True
    for n in (3, 5, 10):
        rep = dyn.verify_shift_property(d, dom, n, delta=2.0, tol=1e-7)
        worst = max(worst, rep.max_deviation)
        all_ok = all_ok and rep.passed
    report(5, all_ok, f"N in {{3,5,10}}, max generator deviation {worst:.2e}")


def test_criterion_06_one_step_conservation():
    dom = Domain1D(0.0, 100.0)
    n = 5
    d0 = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
    t0 = tess.lloyd(tess.default_init(n, dom), d0, dom, tol=1e-12,
                    max_iter=200_000)
    rng = np.random.default_rng(2024)
    worst_sum = 0.0
    cvt_ok = True
    for _ in range(100):
        z = t0.generators.copy()
        r = float(np.sum(z))
        mu = 50.0
        for _ in range(10):
            # keep the mean within [45, 55] so the domain guard holds
            delta_mu = float(rng.uniform(-2.0, 2.0))
            delta_mu = float(np.clip(mu + delta_mu, 45.0, 55.0) - mu)
            r_next = r + n * delta_mu
            z = dyn.one_step_update(z, r, r_next)
            worst_sum = max(worst_sum, abs(float(np.sum(z)) - r_next))
            mu += delta_mu
            r = r_next
        d = DensitySpec("gaussian", {"mu": mu, "sigma2": 4.0})
        cvt_ok = cvt_ok and is_cvt(np.sort(z), d, dom, tol=1e-6)
    ok = worst_sum < 1e-9 * n and cvt_ok
    report(6, ok, f"100 random schedules, worst sum error {worst_sum:.2e}, "
                  f"CVT preserved at shifted mean: {cvt_ok}")


def test_criterion_07_civility_protocol_invariants():
    rng = np.random.default_rng(99)
    violations = 0
    for round_no in range(1000):
        n = int(rng.integers(2, 51))
        resources = rng.uniform(0.0, 100.0, size=n)
        state = AllocationState(resources=resources,
                                r_current=float(np.sum(resources)),
                                mu_current=0.0)
        desired = rng.uniform(0.0, 100.0, size=n)
        before = sorted(state.resources.tolist())
        state, swaps = dyn.negotiate_round(state, desired)
        if sorted(state.resources.tolist()) != before:
            violations += 1
        participants = swaps.ravel().tolist()
        if len(participants) != len(set(participants)):
            violations += 1
        # The line graph is the order: a permutation of the agents that
        # sorts the resources, ties by agent index.
        order = state.order.tolist()
        keys = [(state.resources[i], i) for i in order]
        if sorted(order) != list(range(n)) or keys != sorted(keys):
            violations += 1
    report(7, violations == 0,
           f"1000 randomized rounds, {violations} invariant violations")


def test_criterion_08_hvac_regulation():
    m = th.build_continuous_model(ThermalParams.means())
    dm = th.discretize_zoh(m)
    g = th.design_controller(dm)

    x = np.zeros(3)
    y = 0.0
    w0 = np.zeros(2)
    for _ in range(100):
        u = th.desired_power(g, x, 72.0)
        x, y = th.step_plant(x, u, w0, dm)
    temp_ok = abs(y - 72.0) < 0.1

    eig = np.sort(np.linalg.eigvals(dm.Ad - dm.Bd @ g.K_fb).real)
    pole_err = float(np.max(np.abs(eig - np.array(th.DEFAULT_POLES))))

    rng = np.random.default_rng(5)
    x0 = rng.uniform(40.0, 90.0, size=3)
    u0 = float(rng.uniform(-2000.0, 2000.0))
    w = rng.uniform([40.0, 0.0], [100.0, 800.0])
    h = dm.Ts * 60.0 / 1000.0

    def deriv(xv):
        return m.A @ xv + m.B[:, 0] * u0 + m.G @ w

    xf = x0.copy()
    for _ in range(1000):
        k1 = deriv(xf)
        k2 = deriv(xf + 0.5 * h * k1)
        k3 = deriv(xf + 0.5 * h * k2)
        k4 = deriv(xf + h * k3)
        xf = xf + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    x_zoh, _ = th.step_plant(x0, u0, w, dm)
    zoh_rel = float(np.max(np.abs(x_zoh - xf) / np.abs(xf)))

    ok = temp_ok and pole_err < 1e-8 and zoh_rel < 1e-6
    report(8, ok, f"y(100)={y:.3f}F, pole err={pole_err:.2e}, "
                  f"ZOH vs fine-step rel err={zoh_rel:.2e}")


def test_criterion_09_demand_response_end_to_end():
    sc = sim.Scenario.from_json(SCENARIO)
    trace = sim.run(sc)
    rep = sim.metrics(trace)

    per_step = [len(swaps) for swaps in trace.swaps]
    perturb = min(when for when, _, _ in sc.setpoint_changes)
    window = 24
    pre = sum(per_step[perturb - window:perturb])
    post = sum(per_step[perturb:perturb + window])

    ok = rep.l2_power_error < 1e-6 and post > pre
    report(9, ok,
           f"l2 power error={rep.l2_power_error:.2e}, swaps "
           f"pre={pre} post={post}, mean swaps/agent="
           f"{rep.mean_swaps_per_agent:.1f}, temp rms="
           f"{rep.temperature_rms_error:.2f}F (swap/coverage metrics "
           f"reported, not asserted against fixed values)")


def test_criterion_10_determinism(tmp_path):
    sc = sim.Scenario(
        n_agents=5, horizon=20, domain=Domain1D(0.0, 3000.0),
        density=DensitySpec("gaussian", {"sigma2": 900.0}, free_param="mu"),
        power_schedule=(4000.0,) * 20, seed=11,
        setpoints=(70.0, 71.0, 72.0, 73.0, 74.0),
        setpoint_changes=((10, 0, 60.0),))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sim.run(sc).write_trace_csv(p1)
    sim.run(sc).write_trace_csv(p2)
    identical = p1.read_bytes() == p2.read_bytes()
    report(10, identical,
           f"two seeded runs byte-identical trace.csv: {identical}")
