"""RC thermal plant, ZOH discretization, and pole-placement control."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from cvtalloc import thermal as th
from cvtalloc.errors import InvalidScenario, NonHurwitz, Uncontrollable
from cvtalloc.thermal import ThermalParams


def drawn_per_value(seed):
    """The draw rule as a per-value loop, its one reference: each parameter,
    in PARAM_NAMES order, is mean + sqrt(var) * one standard normal of the
    seed's generator, drawn again while it is nonpositive.  The means are
    read at call time."""
    rng = np.random.default_rng(seed)
    values = []
    for mean, var in [(m, th.K_VARIANCE) for m in th.K_MEANS] + \
                     [(m, th.C_VARIANCE) for m in th.C_MEANS]:
        v = 0.0
        while v <= 0:
            v = mean + math.sqrt(var) * rng.standard_normal()
        values.append(v)
    return values


def assert_fleet_is_per_seed(seeds):
    """The fleet form equals the stack of one-seed calls, and each one-seed
    call returns the reference's floats."""
    one = [th.sample_parameters(s) for s in seeds]
    for s, p in zip(seeds, one):
        values = [getattr(p, n) for n in th.PARAM_NAMES]
        assert all(type(v) is float for v in values)
        assert values == drawn_per_value(s), s
    fleet, stacked = th.sample_parameters(seeds), ThermalParams.stack(one)
    for name in th.PARAM_NAMES:
        assert np.array_equal(getattr(fleet, name), getattr(stacked, name))
    return fleet


class TestSampleParameters:
    @pytest.mark.parametrize("seeds", [
        list(range(500)),
        [7 * 100_003 + i for i in range(500)],
        np.arange(10**6, 10**6 + 500, dtype=np.int64),
        [2**70 * 100_003 + i for i in range(500)],
    ], ids=["from-0", "shipped-seed", "numpy-ints", "past-2**63"])
    def test_fleet_draw_equals_per_value_draws(self, seeds):
        assert_fleet_is_per_seed(seeds)

    def test_nonpositive_draws_are_redrawn_from_a_fresh_generator(
            self, monkeypatch):
        # With the K3 mean at 0 about half the agents draw a nonpositive K3
        # and take the redraw rule; the others keep their one draw of eight.
        means = list(th.K_MEANS)
        means[2] = 0.0
        monkeypatch.setattr(th, "K_MEANS", tuple(means))
        seeds = range(400)
        fleet = assert_fleet_is_per_seed(seeds)
        k3 = [np.random.default_rng(s).standard_normal(8)[2] for s in seeds]
        assert 100 < np.count_nonzero(np.array(k3) <= 0) < 300
        for name in th.PARAM_NAMES:
            assert (getattr(fleet, name) > 0).all()

    def test_determinism(self):
        assert th.sample_parameters(7) == th.sample_parameters(7)

    def test_statistical_mean(self):
        draws = [th.sample_parameters(s).K1 for s in range(1000)]
        assert np.mean(draws) == pytest.approx(16.48, abs=0.05)

    def test_positivity_enforced(self):
        for seed in range(200):
            p = th.sample_parameters(seed)
            for name in ("K1", "K2", "K3", "K4", "K5", "C1", "C2", "C3"):
                assert getattr(p, name) > 0


class TestThermalParamsCheck:
    """One agent's floats are checked in Python, a fleet's (N,) arrays in
    NumPy, by one rule: the first parameter whose least value is <= 0 is
    named, and NaN, which compares false, passes."""

    MEANS = th.K_MEANS + th.C_MEANS

    def values(self, stacked, **changed):
        values = [changed.get(n, m) for n, m in zip(th.PARAM_NAMES, self.MEANS)]
        if stacked:
            values = [np.array([m, v]) for m, v in zip(self.MEANS, values)]
        return values

    @pytest.mark.parametrize("stacked", [False, True])
    def test_first_nonpositive_parameter_is_named(self, stacked):
        with pytest.raises(ValueError, match="^K4 must be strictly positive$"):
            ThermalParams(*self.values(stacked, K4=0.0, C2=-1.0))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_nan_passes(self, stacked):
        p = ThermalParams(*self.values(stacked, K2=np.nan))
        assert np.isnan(p.K2).any()

    def test_floats_are_checked_without_numpy(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("np.array called")
        monkeypatch.setattr(np, "array", fail)
        assert ThermalParams(*self.MEANS).C3 == th.C_MEANS[2]
        with pytest.raises(ValueError, match="^C1 must be strictly positive$"):
            ThermalParams(*self.values(False, C1=-2.0))


class TestContinuousModel:
    def test_matrix_entries(self):
        m = th.build_continuous_model(ThermalParams.means())
        assert m.A[0, 0] == pytest.approx(
            -(16.48 + 108.5 + 5.0 + 23.04) / 9.36e5, rel=1e-12)
        # second row sums to zero exactly
        assert m.A[1, 0] + m.A[1, 1] == 0.0
        assert m.A[1, 2] == 0.0
        np.testing.assert_allclose(
            m.B[:, 0], [1.0 / 9.36e5 + 1.0 / 2.97e6, 0.0, 0.0], rtol=1e-12)
        np.testing.assert_allclose(m.G[0], [5.0 / 9.36e5, 1.0 / 9.36e5],
                                   rtol=1e-12)
        np.testing.assert_allclose(m.G[2], [30.5 / 6.695e5, 0.0], rtol=1e-12)

    def test_mean_eigenvalues_real_negative(self):
        m = th.build_continuous_model(ThermalParams.means())
        eig = np.linalg.eigvals(m.A)
        assert np.all(np.abs(eig.imag) < 1e-18)
        assert np.all(eig.real < 0)


class TestDiscretization:
    def test_mean_model_stable(self):
        dm = th.discretize_zoh(th.build_continuous_model(ThermalParams.means()))
        assert np.max(np.abs(np.linalg.eigvals(dm.Ad))) < 1.0

    def test_short_step_series_expansion(self):
        m = th.build_continuous_model(ThermalParams.means())
        ts_min = 1e-3   # 0.06 s
        dm = th.discretize_zoh(m, Ts=ts_min)
        ts_sec = ts_min * 60.0
        # agreement up to the O((A Ts)^2) ~ 1e-10 second-order term
        np.testing.assert_allclose(dm.Ad, np.eye(3) + m.A * ts_sec,
                                   atol=1e-9)
        np.testing.assert_allclose(dm.Bd, m.B * ts_sec, rtol=1e-5,
                                   atol=1e-12)

    def test_matches_fine_step_integration(self):
        """ZOH must agree with RK4 at step Ts/1000 to 1e-6 relative."""
        m = th.build_continuous_model(ThermalParams.means())
        dm = th.discretize_zoh(m)
        rng = np.random.default_rng(11)
        ts = dm.Ts * 60.0
        h = ts / 1000.0
        for _ in range(5):
            x = rng.uniform(40.0, 90.0, size=3)
            u = rng.uniform(-2000.0, 2000.0)
            w = rng.uniform([40.0, 0.0], [100.0, 800.0])

            def deriv(xv):
                return m.A @ xv + m.B[:, 0] * u + m.G @ w

            xf = x.copy()
            for _ in range(1000):
                k1 = deriv(xf)
                k2 = deriv(xf + 0.5 * h * k1)
                k3 = deriv(xf + 0.5 * h * k2)
                k4 = deriv(xf + h * k3)
                xf = xf + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

            x_zoh, _ = th.step_plant(x, u, w, dm)
            assert np.max(np.abs(x_zoh - xf) / np.abs(xf)) < 1e-6

    @pytest.mark.parametrize("ts", [0.0, -10.0])
    def test_nonpositive_sample_time_rejected(self, ts):
        m = th.build_continuous_model(ThermalParams.means())
        with pytest.raises(ValueError, match="^Ts must be positive$"):
            th.discretize_zoh(m, ts)

    def test_stability_over_sampled_parameters(self):
        for seed in range(1000):
            p = th.sample_parameters(seed)
            dm = th.discretize_zoh(th.build_continuous_model(p))
            assert np.max(np.abs(np.linalg.eigvals(dm.Ad))) < 1.0


@pytest.fixture(scope="module")
def dm():
    return th.discretize_zoh(th.build_continuous_model(ThermalParams.means()))


class TestController:
    def test_pole_placement_exact(self, dm):
        g = th.design_controller(dm)
        eig = np.sort(np.linalg.eigvals(dm.Ad - dm.Bd @ g.K_fb).real)
        np.testing.assert_allclose(eig, th.DEFAULT_POLES, atol=1e-8)

    def test_open_loop_poles_give_zero_gain(self, dm):
        open_poles = np.sort(np.linalg.eigvals(dm.Ad).real)
        g = th.design_controller(dm, poles=tuple(open_poles))
        assert np.max(np.abs(g.K_fb)) < 1e-6

    def test_duplicate_poles_separated(self, dm):
        g = th.design_controller(dm, poles=(0.85, 0.85, 0.85))
        eig = np.sort(np.linalg.eigvals(dm.Ad - dm.Bd @ g.K_fb).real)
        np.testing.assert_allclose(eig, 0.85, atol=1e-4)

    def test_reference_dc_gain_is_one(self, dm):
        g = th.design_controller(dm)
        closed = np.eye(3) - dm.Ad + dm.Bd @ g.K_fb
        C = np.array([[1.0, 0.0, 0.0]])
        dc = float((C @ np.linalg.solve(closed, dm.Bd))[0, 0])
        assert dc * g.N_r == pytest.approx(1.0, abs=1e-8)

    def test_zero_disturbance_regulation(self, dm):
        g = th.design_controller(dm)
        x = np.zeros(3)
        w = np.zeros(2)
        y = 0.0
        for k in range(100):
            u = th.desired_power(g, x, 72.0)
            x, y = th.step_plant(x, u, w, dm)
        assert y == pytest.approx(72.0, abs=0.1)

    @pytest.mark.parametrize("poles", [(0.8, 0.9), (0.8, 0.85, 0.9, 0.95)])
    def test_wrong_number_of_poles_rejected(self, dm, poles):
        with pytest.raises(ValueError,
                           match=f"^need 3 poles, got {len(poles)}$"):
            th.design_controller(dm, poles)

    def test_uncontrollable_pair_rejected(self):
        dm = th.DiscreteModel(Ad=np.eye(3), Bd=np.zeros((3, 1)),
                              Gd=np.zeros((3, 2)), Ts=10.0)
        with pytest.raises(Uncontrollable):
            th.design_controller(dm)


# Positive RC parameters whose A is not Hurwitz: a strong K1 into a light
# envelope with almost no path out of it.
UNSTABLE = ThermalParams(100.0, 1.0, 0.1, 0.1, 0.001, 0.01, 10.0, 10.0)


class TestStackedFleet:
    def test_one_agent_is_a_fleet_of_one(self, dm):
        """A one-agent call has the one-agent shapes and the values of the
        same agent stacked as a fleet of one."""
        means = ThermalParams.means()
        one = th.discretize_zoh(th.build_continuous_model(
            ThermalParams.stack([means])))
        assert one.Ad.shape == (1, 3, 3) and dm.Ad.shape == (3, 3)
        g, g1 = th.design_controller(dm), th.design_controller(one)
        assert isinstance(g.N_r, float)
        assert g.K_fb.shape == g1.K_fb.shape == (1, 3)
        assert g.K_w.shape == g1.K_w.shape == (1, 2)
        assert np.array_equal(g.K_fb, g1.K_fb) and np.array_equal(g.K_w, g1.K_w)
        assert g1.N_r.tolist() == [g.N_r]
        w = np.array([85.0, 300.0])
        x, u = th.equilibrium_state(dm, w, 72.0)
        x1, u1 = th.equilibrium_state(one, w, [72.0])
        assert x.shape == (3,) and isinstance(u, float)
        assert np.array_equal(x1, x[None]) and u1.tolist() == [u]
        power = th.desired_power(g, x, 72.0, w)
        assert isinstance(power, float)
        assert th.desired_power(g1, x1, [72.0], w).tolist() == [power]

    def test_non_hurwitz_names_the_first_agent(self):
        means = ThermalParams.means()
        params = ThermalParams.stack([means, means, UNSTABLE, means, UNSTABLE])
        with pytest.raises(NonHurwitz, match="^agent 2: A has an eigenvalue"):
            th.build_continuous_model(params)

    def test_uncontrollable_names_the_first_agent(self):
        fleet = th.discretize_zoh(th.build_continuous_model(
            ThermalParams.stack([ThermalParams.means()] * 4)))
        Bd = fleet.Bd.copy()
        Bd[[1, 3]] = 0.0
        with pytest.raises(Uncontrollable, match="^agent 1: .* rank deficient"):
            th.design_controller(
                th.DiscreteModel(fleet.Ad, Bd, fleet.Gd, fleet.Ts))


class TestDesiredPowerAndEquilibrium:
    def test_zero_gains_zero_power(self):
        g = th.ControllerGains(K_fb=np.zeros((1, 3)), N_r=0.0,
                               K_w=np.zeros((1, 2)))
        assert th.desired_power(g, [70.0, 70.0, 70.0], 72.0) == 0.0

    def test_setpoint_raise_increases_power(self, dm):
        g = th.design_controller(dm)
        x = np.full(3, 72.0)
        assert th.desired_power(g, x, 75.0) > th.desired_power(g, x, 72.0)

    def test_equilibrium_is_fixed_point(self, dm):
        w = np.array([85.0, 300.0])
        x_eq, u_eq = th.equilibrium_state(dm, w, 72.0)
        x2, y = th.step_plant(x_eq, u_eq, w, dm)
        np.testing.assert_allclose(x2, x_eq, atol=1e-9)
        assert y == pytest.approx(72.0, abs=1e-9)

    def test_feedforward_holds_setpoint_under_disturbance(self, dm):
        g = th.design_controller(dm)
        w = np.array([90.0, 400.0])
        x, _ = th.equilibrium_state(dm, w, 72.0)
        for _ in range(50):
            u = th.desired_power(g, x, 72.0, w)
            x, y = th.step_plant(x, u, w, dm)
        assert y == pytest.approx(72.0, abs=1e-6)


def exponential(m, ts_minutes=th.DEFAULT_TS_MINUTES):
    """The augmented zero-order-hold exponential of one agent's model, or
    of a fleet's stacked by agent, whose blocks discretize_zoh returns."""
    inputs = np.concatenate([m.B, m.G], axis=-1)
    n, p = m.A.shape[-1], inputs.shape[-1]
    aug = np.zeros(m.A.shape[:-2] + (n + p, n + p))
    aug[..., :n, :n] = m.A
    aug[..., :n, n:] = inputs
    return expm(aug * (ts_minutes * 60.0))


def strided_model(phi, ts_minutes=th.DEFAULT_TS_MINUTES):
    """One agent's Ad, Bd and Gd as strided views of its exponential phi."""
    return th.DiscreteModel(Ad=phi[:3, :3], Bd=phi[:3, 3:4], Gd=phi[:3, 4:],
                            Ts=ts_minutes)


def oracle_step(x, u, w, dm):
    """The plant step as the matmul expression ``Ad @ x + Bd u + Gd @ w``:
    the oracle of step_plant's ``dot`` calls, applied to strided views."""
    return dm.Ad @ x + dm.Bd[:, 0] * u + dm.Gd @ w


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPlantStepOracle:
    """step_plant's ``dot`` on contiguous blocks gives bit for bit the
    matmul expression on strided views of the exponential."""

    @pytest.mark.parametrize("n", [None, 1, 15, 240])
    def test_blocks_are_contiguous_copies(self, n):
        params = (ThermalParams.means() if n is None else ThermalParams.stack(
            [th.sample_parameters(seed) for seed in range(n)]))
        m = th.build_continuous_model(params)
        dm = th.discretize_zoh(m)
        phi = exponential(m)
        for block, view in ((dm.Ad, phi[..., :3, :3]),
                            (dm.Bd, phi[..., :3, 3:4]),
                            (dm.Gd, phi[..., :3, 4:])):
            assert block.flags.c_contiguous
            assert not np.shares_memory(block, phi)
            assert_same_bits(block, view)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        m = th.build_continuous_model(th.sample_parameters(seed))
        dm = th.discretize_zoh(m)
        views = strided_model(exponential(m))
        assert not views.Ad.flags.c_contiguous
        powers = np.concatenate([rng.uniform(-5000.0, 5000.0, 40),
                                 [0.0, -0.0, -1e-300, 1e-300, -7e5, 7e5]])
        for u in powers.tolist():
            x = rng.uniform(40.0, 100.0, 3)
            w = rng.uniform([40.0, 0.0], [110.0, 900.0])
            # Non-contiguous x (every other entry) and disturbances far
            # outside the weather's range.
            strided_x = np.repeat(x, 2)[::2]
            huge_w = w * rng.choice([-1e6, 1e6], 2)
            for xi, wi in ((x, w), (strided_x, w), (x, huge_w),
                           (x.tolist(), w)):
                want = oracle_step(np.asarray(xi), u, wi, views)
                for model in (dm, views):
                    got, y = th.step_plant(xi, u, wi, model)
                    assert_same_bits(got, want)
                    assert y == float(want[0]) and isinstance(y, float)

    def test_inputs_are_not_written(self, dm):
        x, w = np.array([70.0, 71.0, 72.0]), np.array([85.0, 300.0])
        before = x.copy(), w.copy()
        x_next, _ = th.step_plant(x, 1500.0, w, dm)
        assert not np.shares_memory(x_next, x)
        assert_same_bits(x, before[0])
        assert_same_bits(w, before[1])


class TestDisturbances:
    def test_synthetic_shape_and_ranges(self):
        w = th.synthetic_disturbance(144)
        assert w.shape == (144, 2)
        assert np.all(w[:, 0] >= 66.0 - 1e-9)
        assert np.all(w[:, 0] <= 90.0 + 1e-9)
        assert np.all(w[:, 1] >= 0.0)
        assert np.max(w[:, 1]) == pytest.approx(600.0, abs=1.0)
        # coolest outdoor point at 03:00 -> step 18 at 10-minute sampling
        assert int(np.argmin(w[:, 0])) == 18
        # no solar before 06:00
        assert np.all(w[:36, 1] == 0.0)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "weather.csv"
        with open(path, "w") as fh:
            fh.write("time_min,outdoor_temp_F,solar_radiation_W\n")
            for k in range(10):
                fh.write(f"{k * 10},{70.0 + k},{k * 50.0}\n")
        w = th.load_disturbance_csv(path, 10)
        np.testing.assert_allclose(w[:, 0], 70.0 + np.arange(10))
        np.testing.assert_allclose(w[:, 1], 50.0 * np.arange(10))

    def test_ragged_csv_names_disturbance_the_path_and_the_rows(self,
                                                                tmp_path):
        path = tmp_path / "weather.csv"
        path.write_text("time_min,outdoor_temp_F,solar_radiation_W\n"
                        "0,70,0\n600,90\n1430,80,5,7\n")
        with pytest.raises(InvalidScenario) as exc:
            th.load_disturbance_csv(path, 3)
        message = str(exc.value)
        assert message.startswith(f"disturbance {str(path)!r}: ")
        assert "Line #3 (got 2 columns instead of 3)" in message
        assert "Line #4 (got 4 columns instead of 3)" in message
        assert "\n" not in message
