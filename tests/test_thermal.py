"""RC thermal plant, ZOH discretization, and pole-placement control."""

from dataclasses import replace

import numpy as np
import pytest

from cvtalloc import thermal as th
from cvtalloc.errors import NonHurwitz, Uncontrollable
from cvtalloc.thermal import ThermalParams


class TestSampleParameters:
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
        np.testing.assert_allclose(m.C, [[1.0, 0.0, 0.0]])
        assert m.D == 0.0

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
        g = th.design_controller(dm, setpoint=72.0)
        x = np.zeros(3)
        w = np.zeros(2)
        y = 0.0
        for k in range(100):
            u = th.desired_power(g, x)
            x, y = th.step_plant(x, u, w, dm)
        assert y == pytest.approx(72.0, abs=0.1)

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
        assert isinstance(g.N_r, float) and isinstance(g.setpoint, float)
        assert g.K_fb.shape == g1.K_fb.shape == (1, 3)
        assert g.K_w.shape == g1.K_w.shape == (1, 2)
        assert np.array_equal(g.K_fb, g1.K_fb) and np.array_equal(g.K_w, g1.K_w)
        assert g1.N_r.tolist() == [g.N_r] and g1.setpoint.tolist() == [72.0]
        w = np.array([85.0, 300.0])
        x, u = th.equilibrium_state(dm, w, 72.0)
        x1, u1 = th.equilibrium_state(one, w, [72.0])
        assert x.shape == (3,) and isinstance(u, float)
        assert np.array_equal(x1, x[None]) and u1.tolist() == [u]

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
            th.design_controller(replace(fleet, Bd=Bd))


class TestDesiredPowerAndEquilibrium:
    def test_zero_gains_zero_power(self):
        g = th.ControllerGains(K_fb=np.zeros((1, 3)), N_r=0.0, setpoint=72.0)
        assert th.desired_power(g, [70.0, 70.0, 70.0]) == 0.0

    def test_setpoint_raise_increases_power(self, dm):
        g = th.design_controller(dm, setpoint=72.0)
        g_hot = replace(g, setpoint=75.0)
        x = np.full(3, 72.0)
        assert th.desired_power(g_hot, x) > th.desired_power(g, x)

    def test_equilibrium_is_fixed_point(self, dm):
        w = np.array([85.0, 300.0])
        x_eq, u_eq = th.equilibrium_state(dm, w, 72.0)
        x2, y = th.step_plant(x_eq, u_eq, w, dm)
        np.testing.assert_allclose(x2, x_eq, atol=1e-9)
        assert y == pytest.approx(72.0, abs=1e-9)

    def test_feedforward_holds_setpoint_under_disturbance(self, dm):
        g = th.design_controller(dm, setpoint=72.0)
        w = np.array([90.0, 400.0])
        x, _ = th.equilibrium_state(dm, w, 72.0)
        for _ in range(50):
            u = th.desired_power(g, x, w)
            x, y = th.step_plant(x, u, w, dm)
        assert y == pytest.approx(72.0, abs=1e-6)


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
