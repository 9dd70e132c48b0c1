"""Demand-response simulation orchestration."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_golden import SHIPPED, TRACE_RUNS, fleet_config

from cvtalloc import dynamic_alloc as dyn
from cvtalloc import sim
from cvtalloc import static_alloc as sa
from cvtalloc import thermal as th
from cvtalloc.density import DensitySpec
from cvtalloc.errors import InvalidScenario
from cvtalloc.tessellation import Domain1D


def small_scenario(**overrides):
    defaults = dict(
        n_agents=5,
        horizon=20,
        domain=Domain1D(0.0, 3000.0),
        density=DensitySpec("gaussian", {"sigma2": 900.0}, free_param="mu"),
        power_schedule=(4000.0,) * 20,
        seed=3,
        setpoints=(70.0, 71.0, 72.0, 73.0, 74.0),
    )
    defaults.update(overrides)
    return sim.Scenario(**defaults)


class TestScenario:
    def test_horizon_schedule_mismatch(self):
        with pytest.raises(ValueError):
            small_scenario(horizon=21)

    def test_mean_allocation_must_fit_domain(self):
        with pytest.raises(ValueError):
            small_scenario(power_schedule=(4000.0,) * 19 + (20000.0,))

    def test_density_must_be_gaussian_free_mu(self):
        with pytest.raises(ValueError):
            small_scenario(density=DensitySpec("exponential", {},
                                               free_param="lam"))

    def test_from_config_roundtrip(self):
        cfg = {
            "n_agents": 5, "horizon": 20, "domain": [0.0, 3000.0],
            "density": {"family": "gaussian", "mu": "free", "sigma2": 900.0},
            "power_schedule": [4000.0] * 20, "seed": 3,
            "setpoints": [70.0, 71.0, 72.0, 73.0, 74.0],
            "setpoint_changes": [[5, 0, 60.0]],
        }
        sc = sim.Scenario.from_config(cfg)
        assert sc == small_scenario(setpoint_changes=((5, 0, 60.0),))

    @pytest.mark.parametrize("poles", [[0.8, 0.9], [0.8, 0.85, 0.9, 0.95]])
    def test_poles_need_exactly_three(self, poles):
        cfg = json.loads(SHIPPED.read_text())
        with pytest.raises(InvalidScenario, match="poles must have exactly "
                           f"three entries, one per plant state, got {len(poles)}"):
            sim.Scenario.from_config({**cfg, "poles": poles})


class TestInitialize:
    def test_one_debug_record_per_run(self, caplog):
        # One record from initialize with N, the horizon and the static
        # solve's Newton iterations and residual; none per step or agent.
        sc = small_scenario()
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.sim"):
            sim.run(sc)
        records = [r for r in caplog.records if r.name == "cvtalloc.sim"]
        sol = sa.solve(sa.StaticProblem(sc.domain, sc.n_agents, sc.density,
                                        sc.power_schedule[0]))
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert records[0].args == (5, 20, sol.iterations, sol.residual_norm)

    def test_initial_sum_matches_schedule(self):
        st = sim.initialize(small_scenario())
        assert sum(st.alloc.resources) == pytest.approx(
            4000.0, abs=1e-6)

    def test_symmetric_initialization(self):
        # r(0)/N at the domain midpoint forces mu(0) to the midpoint
        sc = small_scenario(domain=Domain1D(0.0, 1600.0),
                            power_schedule=(4000.0,) * 20)
        st = sim.initialize(sc)
        assert st.alloc.mu_current == pytest.approx(800.0, abs=1e-6)

    def test_agents_get_sorted_centroids(self):
        st = sim.initialize(small_scenario())
        values = st.alloc.resources.tolist()
        assert values == sorted(values)
        assert st.alloc.order.tolist() == [0, 1, 2, 3, 4]

    def test_serialization_deterministic(self):
        sc = small_scenario()
        a, b = sim.initialize(sc), sim.initialize(sc)
        for x, y in ((a.alloc.resources, b.alloc.resources),
                     (a.alloc.mu_current, b.alloc.mu_current),
                     (a.alloc.r_current, b.alloc.r_current), (a.X, b.X),
                     (a.setpoints, b.setpoints)):
            assert np.array_equal(x, y)

    def test_shipped_initialize_leaves_scipy_stats_unimported(self):
        # The shipped N = 15 solve starts at the density quantiles; their
        # inverse CDFs come from scipy.special, and scipy.stats alone costs
        # most of a second and tens of MB at import.
        script = ("import json, sys; from cvtalloc import sim; "
                  f"cfg = json.load(open({str(SHIPPED)!r})); "
                  "sim.initialize(sim.Scenario.from_config(cfg)); "
                  "print('scipy.stats' in sys.modules)")
        src = str(Path(sim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False"]


class TestRun:
    def test_row_counts(self):
        # one row per step in every column
        trace = sim.run(small_scenario())
        for col in (trace.z, trace.desired_abs, trace.applied_power,
                    trace.temp_F, trace.setpoints):
            assert len(col) == 20
            assert all(np.shape(v) == (5,) for v in col)
        for col in (trace.r, trace.sum_z, trace.constraint_error):
            assert len(col) == 20

    def test_constraint_error_column(self):
        trace = sim.run(small_scenario())
        for err in trace.constraint_error:
            assert err < 1e-9 * 5
        for z, sum_z, r in zip(trace.z, trace.sum_z, trace.r):
            assert sum_z == pytest.approx(float(np.sum(z)), abs=1e-9)

    def test_applied_magnitudes_sum_to_schedule(self):
        sc = small_scenario()
        trace = sim.run(sc)
        for k, powers in enumerate(trace.applied_power):
            np.testing.assert_array_equal(np.abs(powers), trace.z[k])
            assert sum(np.abs(powers)) == pytest.approx(
                sc.power_schedule[k], abs=1e-9 * sc.n_agents)

    def test_determinism_byte_identical(self, tmp_path):
        sc = small_scenario()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sim.run(sc).write_trace_csv(p1)
        sim.run(sc).write_trace_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_setpoint_change_applied(self):
        sc = small_scenario(setpoint_changes=((5, 0, 60.0),))
        trace = sim.run(sc)
        assert trace.setpoints[4][0] == 70.0
        assert trace.setpoints[5][0] == 60.0

    def test_replay_consistency(self):
        """Replaying logged powers through a standalone plant reproduces the
        logged temperatures."""
        sc = small_scenario()
        trace = sim.run(sc)
        st = sim.initialize(sc)   # fresh plants, same seeds
        n = sc.n_agents
        for i in range(n):
            x = st.X[i].copy()
            dm = st.models[i]
            for k in range(sc.horizon):
                x, y = th.step_plant(x, trace.applied_power[k][i],
                                     st.disturbances[k], dm)
                assert y == pytest.approx(trace.temp_F[k][i], abs=1e-9)

    def test_line_graph_every_step(self):
        from cvtalloc import dynamic_alloc as dyn
        trace = sim.run(small_scenario())
        for z, kept in zip(trace.z, trace.order, strict=True):
            order = dyn.rebuild_line_graph(z).tolist()
            assert sorted(order) == list(range(len(z)))
            assert [z[i] for i in order] == sorted(z.tolist())
            assert kept.tolist() == order


def incremental_setpoints(sc):
    """The setpoint rule the table replaced, kept as its oracle: changes
    grouped by step in list order, and each step with changes patching a
    copy of the previous step's setpoints.  One (N,) array per step."""
    changes = {}
    for when, agent, value in sc.setpoint_changes:
        changes.setdefault(when, []).append((agent, value))
    setpoint = np.array(sc.setpoints or (72.0,) * sc.n_agents, dtype=float)
    rows = []
    for k in range(sc.horizon):
        if k in changes:
            setpoint = setpoint.copy()
            for agent, value in changes[k]:
                setpoint[agent] = value
        rows.append(setpoint)
    return rows


def random_changes(seed, n_agents, horizon):
    """Setpoint changes in shuffled step order, with repeated (step, agent)
    pairs holding different values and a change at step 0 and at the last
    step."""
    rng = np.random.default_rng(seed)
    pairs = [(int(s), int(a)) for s, a in zip(
        rng.integers(0, horizon, 12), rng.integers(0, n_agents, 12))]
    pairs += [(0, int(rng.integers(n_agents))),
              (horizon - 1, int(rng.integers(n_agents)))]
    pairs += [pairs[i] for i in rng.integers(0, len(pairs), 6)]
    changes = [(s, a, float(v)) for (s, a), v in
               zip(pairs, rng.uniform(55.0, 85.0, len(pairs)))]
    rng.shuffle(changes)
    steps = [s for s, _, _ in changes]
    assert steps != sorted(steps) and len(set(pairs)) < len(pairs)
    return tuple(changes)


def bits(rows):
    return [np.asarray(row).tobytes() for row in rows]


class TestSetpointTable:
    @pytest.mark.parametrize("seed", range(12))
    def test_table_is_the_incremental_rule(self, seed):
        """Every row of initialize's table, and every step's traced
        setpoints, are bit for bit the old per-step patching rule."""
        setpoints = () if seed % 3 == 0 else (70.0, 71.0, 72.0, 73.0, 74.0)
        sc = small_scenario(setpoints=setpoints,
                            setpoint_changes=random_changes(seed, 5, 20))
        expected = bits(incremental_setpoints(sc))
        st = sim.initialize(sc)
        assert st.setpoints.shape == (20, 5)
        assert bits(st.setpoints) == expected
        assert bits(sim.run(sc).setpoints) == expected

    @pytest.mark.parametrize("seed, horizon", [(20, 1), (21, 7), (22, 19)])
    def test_horizon_override_truncates_the_table(self, seed, horizon,
                                                  tmp_path, monkeypatch):
        """dynamic-sim --horizon H gives the first H rows of the old rule
        over the full change list: changes at steps >= H never apply."""
        from cvtalloc import cli
        changes = random_changes(seed, 5, 20)
        sc = small_scenario(setpoint_changes=changes)
        config = {"n_agents": 5, "horizon": 20, "domain": [0.0, 3000.0],
                  "density": {"family": "gaussian", "mu": "free",
                              "sigma2": 900.0},
                  "power_schedule": list(sc.power_schedule), "seed": 3,
                  "setpoints": list(sc.setpoints),
                  "setpoint_changes": [list(c) for c in changes]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        states = []
        initialize = sim.initialize

        def spy(scenario):
            states.append(initialize(scenario))
            return states[-1]

        monkeypatch.setattr(sim, "initialize", spy)
        assert cli.main(["dynamic-sim", "--config", str(path), "--horizon",
                         str(horizon), "--out", str(tmp_path / "out")]) == 0
        assert any(s >= horizon for s, _, _ in changes)
        assert bits(states[0].setpoints) == \
            bits(incremental_setpoints(sc)[:horizon])


def per_agent_law(g, X, setpoints, w):
    """The control law as each agent evaluated it before the fleet's gains
    were stacked: -(K_fb @ x)[0] + N_r * setpoint + (K_w @ w)[0]."""
    return np.array([-(g.K_fb[i:i + 1] @ X[i])[0] + g.N_r[i] * setpoints[i]
                     + (g.K_w[i:i + 1] @ w)[0] for i in range(len(X))])


class TestStackedControl:
    @pytest.mark.parametrize("config", [
        lambda: json.loads(SHIPPED.read_text()),
        lambda: fleet_config(240),
    ], ids=["shipped", "fleet-240"])
    def test_batched_law_equals_per_agent_law(self, config, monkeypatch):
        """Every step's one batched control evaluation is bit for bit the
        per-agent law, setpoint changes included."""
        calls = []
        law = th.desired_power

        def spy(g, X, setpoints, w=None):
            u = law(g, X, setpoints, w)
            calls.append((g, X, setpoints, w, u))
            return u

        monkeypatch.setattr(th, "desired_power", spy)
        sc = sim.Scenario.from_config(config())
        sim.run(sc)
        assert len(calls) == sc.horizon
        for g, X, setpoints, w, u in calls:
            assert u.shape == (sc.n_agents,)
            assert np.array_equal(u, per_agent_law(g, X, setpoints, w))
        changed = [agent for _, agent, _ in sc.setpoint_changes]
        assert calls[-1][2][changed].tolist() == \
            [v for _, _, v in sc.setpoint_changes]

    def test_one_agent_gains_give_a_float(self):
        sc = small_scenario()
        st = sim.initialize(sc)
        g = st.gains
        w = st.disturbances[0]
        setpoints = st.setpoints[0]
        for i in range(sc.n_agents):
            one = th.ControllerGains(K_fb=g.K_fb[i:i + 1], N_r=g.N_r[i],
                                     K_w=g.K_w[i:i + 1])
            u = th.desired_power(one, st.X[i], setpoints[i], w)
            assert isinstance(u, float)
            assert u == per_agent_law(g, st.X, setpoints, w)[i]


def seeded(config, seed):
    return lambda: {**config(), "seed": seed}


class TestStackedSetUp:
    @pytest.mark.parametrize("config", [
        lambda: json.loads(SHIPPED.read_text()),
        lambda: fleet_config(240),
        seeded(lambda: fleet_config(240), 3),
    ], ids=["shipped", "fleet-240", "fleet-240-seed-3"])
    def test_stacked_calls_equal_per_agent_calls(self, config):
        """The model, discretization, pole placement and equilibrium, each
        called once for the whole fleet, give every agent bit for bit the
        arrays of its own one-agent call, and initialize hands them on."""
        sc = sim.Scenario.from_config(config())
        st = sim.initialize(sc)
        w0 = st.disturbances[0]
        setpoints = np.array(sc.setpoints or (72.0,) * sc.n_agents)
        params = [th.sample_parameters(sc.seed * 100_003 + i)
                  for i in range(sc.n_agents)]
        cm = th.build_continuous_model(th.ThermalParams.stack(params))
        dm = th.discretize_zoh(cm, sc.ts_minutes)
        g = th.design_controller(dm, sc.poles)
        X, u = th.equilibrium_state(dm, w0, setpoints)
        assert dm.Ad.shape == (sc.n_agents, 3, 3) and X.shape == (sc.n_agents, 3)
        for i, (p, setpoint) in enumerate(zip(params, setpoints)):
            cm_i = th.build_continuous_model(p)
            dm_i = th.discretize_zoh(cm_i, sc.ts_minutes)
            g_i = th.design_controller(dm_i, sc.poles)
            x_i, u_i = th.equilibrium_state(dm_i, w0, setpoint)
            pairs = [(cm.A[i], cm_i.A), (cm.B[i], cm_i.B), (cm.G[i], cm_i.G),
                     (dm.Ad[i], dm_i.Ad), (dm.Bd[i], dm_i.Bd),
                     (dm.Gd[i], dm_i.Gd), (g.K_fb[i], g_i.K_fb[0]),
                     (g.K_w[i], g_i.K_w[0]), (g.N_r[i], g_i.N_r),
                     (X[i], x_i), (u[i], u_i),
                     (st.models[i].Ad, dm_i.Ad), (st.models[i].Bd, dm_i.Bd),
                     (st.models[i].Gd, dm_i.Gd)]
            for stacked, one in pairs:
                assert np.array_equal(stacked, one), i
        for name in ("K_fb", "N_r", "K_w"):
            assert np.array_equal(getattr(st.gains, name), getattr(g, name))
        assert np.array_equal(st.setpoints[0], setpoints)
        assert np.array_equal(st.X, X)


def unique_coverage(t):
    """The neighbour coverage by ``np.unique`` over the directed pairs
    a * n + b of adjacent agents: the oracle of the sort in metrics."""
    n = t.n_agents
    order = np.asarray(t.order)
    a, b = order[:, :-1].ravel(), order[:, 1:].ravel()
    pairs = np.unique(np.concatenate([a * n + b, b * n + a]))
    return tuple(np.bincount(pairs // n, minlength=n).tolist())


def order_trace(orders):
    """A trace of the line graphs ``orders`` (steps, N), with zeros in every
    other column that metrics reads."""
    steps, n = orders.shape
    t = sim.TraceLog(n_agents=n, order=list(orders))
    t.r = t.constraint_error = [0.0] * steps
    t.temp_F = t.setpoints = list(np.zeros((steps, n)))
    return t


class TestMetrics:
    @pytest.mark.parametrize("label", list(TRACE_RUNS))
    def test_coverage_is_the_unique_rule_on_golden_runs(self, label):
        t = sim.run(sim.Scenario.from_config(TRACE_RUNS[label]()))
        assert sim.metrics(t).neighbor_coverage == unique_coverage(t)

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 240, 1000, 10_000])
    def test_coverage_is_the_unique_rule_on_random_orders(self, n):
        # Few resource levels give many ties, so the stable sort repeats
        # adjacent pairs within and across steps.
        rng = np.random.default_rng(n)
        for levels in (1, 2, n // 3 + 1, 4 * n):
            z = rng.integers(0, levels, size=(6, n)).astype(float)
            t = order_trace(np.array([dyn.rebuild_line_graph(row)
                                      for row in z]))
            assert sim.metrics(t).neighbor_coverage == unique_coverage(t)

    def test_l2_error_small(self):
        report = sim.metrics(sim.run(small_scenario()))
        assert report.l2_power_error <= 1e-6

    def test_zero_swap_run(self):
        trace = sim.TraceLog(n_agents=3)
        trace.r.append(1.0)
        trace.sum_z.append(1.0)
        trace.constraint_error.append(0.0)
        trace.setpoints.append(np.array([72.0, 72.0, 72.0]))
        trace.z.append(np.array([1.0, 2.0, 3.0]))
        trace.order.append(np.array([0, 1, 2]))
        trace.desired_abs.append(np.ones(3))
        trace.applied_power.append(np.ones(3))
        trace.temp_F.append(np.full(3, 72.0))
        report = sim.metrics(trace)
        assert report.mean_swaps_per_agent == 0.0
        assert report.total_swaps == 0
        assert report.temperature_rms_error == 0.0
        assert report.neighbor_coverage == (1, 2, 1)
        assert report.to_dict()["neighbor_coverage"] == {"0": 1, "1": 2, "2": 1}

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            sim.metrics(sim.TraceLog(n_agents=2))

