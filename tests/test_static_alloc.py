"""Constrained allocation via the N+1 nonlinear system."""

import logging

import numpy as np
import pytest

from cvtalloc import density as dens
from cvtalloc import static_alloc as sa
from cvtalloc import tessellation as tess
from cvtalloc.density import DensitySpec, bind_free_parameter
from cvtalloc.errors import EmptyCell, InfeasibleProblem, InvalidCandidate
from cvtalloc.static_alloc import StaticProblem
from cvtalloc.tessellation import Domain1D

DOM_100 = Domain1D(0.0, 100.0)
GAUSS_FREE_MU = DensitySpec("gaussian", {"sigma2": 4.0}, free_param="mu")
WIDE_GAUSS_FREE_MU = DensitySpec("gaussian", {"sigma2": 400.0}, free_param="mu")
# Free-parameter densities and mean allocations r/N on [0, 100] whose
# default initial guess leaves no cell empty.
FAMILIES = {
    "gaussian": (WIDE_GAUSS_FREE_MU, 30.0),
    "exponential": (DensitySpec("exponential", {}, free_param="lam"), 30.0),
    "gamma": (DensitySpec("gamma", {"theta": 10.0}, free_param="k"), 30.0),
    "uniform": (DensitySpec("uniform", {"a": 0.0}, free_param="b"), 50.0),
}


def oracle_jacobian(u, f, p):
    """The per-column forward-difference Jacobian that the dense Newton step
    must reproduce bit for bit: N+1 residual evaluations, each column
    stepping forward, or backward when the forward candidate is invalid."""
    n = p.n_agents
    jac = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        h = sa.FD_STEP * max(1.0, abs(u[j]))
        up = u.copy()
        up[j] += h
        try:
            fj = sa.residual(up, p)
        except InvalidCandidate:
            up[j] = u[j] - h
            fj = sa.residual(up, p)
            h = -h
        jac[:, j] = (fj - f) / h
    return jac


def fd_jacobian(u, f, p):
    """The dense step's matrix: _fd_band's band and row bordered by the
    free-parameter difference column."""
    band, row = sa._fd_band(u, f, p)
    return sa._bordered_matrix(band, sa._fd_column(u, f, p, p.n_agents), row)


class TestStaticProblem:
    def test_infeasible_mean(self):
        with pytest.raises(InfeasibleProblem):
            StaticProblem(domain=DOM_100, n_agents=10,
                          density=GAUSS_FREE_MU, r=2000.0)

    def test_density_must_have_free_parameter(self):
        d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
        with pytest.raises(ValueError):
            StaticProblem(domain=DOM_100, n_agents=10, density=d, r=500.0)

    def test_pluggable_constraint(self):
        p = StaticProblem(domain=DOM_100, n_agents=3, density=GAUSS_FREE_MU,
                          r=150.0, constraint=lambda z: float(z[0] - 10.0))
        assert p.constraint_value(np.array([10.0, 50.0, 60.0])) == 0.0


class TestResidual:
    def test_zero_at_exact_solution(self):
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        sol = sa.solve(p)
        res = sa.residual(np.concatenate([sol.centroids, [sol.v_k]]), p)
        assert np.max(np.abs(res)) < 1e-9

    def test_single_agent_uniform_free_width(self):
        # One agent on Uniform(0, b) with free b: centroid row is r - b/2.
        d = DensitySpec("uniform", {"a": 0.0}, free_param="b")
        p = StaticProblem(domain=DOM_100, n_agents=1, density=d, r=30.0)
        res = sa.residual(np.array([30.0, 60.0]), p)
        np.testing.assert_allclose(res, [0.0, 0.0], atol=1e-12)
        res2 = sa.residual(np.array([30.0, 80.0]), p)
        assert res2[0] == pytest.approx(30.0 - 40.0, abs=1e-12)

    def test_invalid_candidates_rejected(self):
        p = StaticProblem(domain=DOM_100, n_agents=2,
                          density=GAUSS_FREE_MU, r=100.0)
        with pytest.raises(InvalidCandidate):
            sa.residual(np.array([60.0, 40.0, 50.0]), p)   # unsorted
        with pytest.raises(InvalidCandidate):
            sa.residual(np.array([-1.0, 40.0, 50.0]), p)   # out of domain
        with pytest.raises(InvalidCandidate):
            # mean candidate so far right the first cell mass underflows
            sa.residual(np.array([1.0, 2.0, 500.0]), p)


class TestFdJacobian:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 50])
    def test_equals_per_column_oracle(self, family, n):
        density, mean = FAMILIES[family]
        p = StaticProblem(DOM_100, n, density, mean * n)
        u = sa.default_initial_guess(p)
        f = sa.residual(u, p)
        assert np.array_equal(fd_jacobian(u, f, p), oracle_jacobian(u, f, p))

    def test_equals_oracle_at_large_n(self):
        # The default constraint row sums N stepped rows at once.
        p = StaticProblem(DOM_100, 800, WIDE_GAUSS_FREE_MU, 800 * 30.0)
        u = sa.default_initial_guess(p)
        f = sa.residual(u, p)
        assert np.array_equal(fd_jacobian(u, f, p), oracle_jacobian(u, f, p))

    def test_equals_oracle_with_pluggable_constraint(self):
        p = StaticProblem(DOM_100, 7, WIDE_GAUSS_FREE_MU, 350.0,
                          constraint=lambda z: float(np.sum(z * z) - 2e4))
        u = sa.default_initial_guess(p)
        f = sa.residual(u, p)
        assert np.array_equal(fd_jacobian(u, f, p), oracle_jacobian(u, f, p))

    def test_equals_oracle_at_forced_fallback(self, caplog):
        # The last generator sits within FD_STEP * |z| of b, so its forward
        # candidate leaves the domain: colour 1 falls back to single columns
        # and column 4 is a backward difference.
        p = StaticProblem(DOM_100, 5, WIDE_GAUSS_FREE_MU, 250.0)
        u = np.array([10.0, 30.0, 50.0, 70.0, 100.0 - 5e-6, 50.0])
        f = sa.residual(u, p)
        up = u.copy()
        up[4] += sa.FD_STEP * u[4]
        with pytest.raises(InvalidCandidate):
            sa.residual(up, p)
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            jac = fd_jacobian(u, f, p)
        assert np.array_equal(jac, oracle_jacobian(u, f, p))
        assert "colour 1 invalid" in caplog.text

    def test_at_most_four_residual_evaluations(self, monkeypatch):
        p = StaticProblem(DOM_100, 50, WIDE_GAUSS_FREE_MU, 2500.0)
        u = sa.default_initial_guess(p)
        f, m0 = sa.residual(u, p, masses=True)
        calls = []
        real = sa.residual

        def counting(unknowns, problem):
            calls.append(1)
            return real(unknowns, problem)

        monkeypatch.setattr(sa, "residual", counting)
        sa._newton_step(u, f, m0, p)
        assert len(calls) <= 4

    def test_singular_matrix_takes_lstsq_step(self, monkeypatch, caplog):
        # A zero band and row leave only the free-parameter column: the
        # bordered matrix is singular, so the step is the least-squares one.
        p = StaticProblem(DOM_100, 5, WIDE_GAUSS_FREE_MU, 250.0)
        u = sa.default_initial_guess(p)
        f, m0 = sa.residual(u, p, masses=True)
        parts = (np.zeros((3, 5)), np.zeros(5))
        monkeypatch.setattr(sa, "_fd_band", lambda *args: parts)
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            step = sa._newton_step(u, f, m0, p)
        assert "singular matrix" in caplog.text
        jac = sa._bordered_matrix(parts[0], sa._fd_column(u, f, p, 5),
                                  parts[1])
        assert np.array_equal(step,
                              np.linalg.lstsq(jac, -f, rcond=None)[0])


class TestBandedStep:
    """Above N_DENSE a Newton step fills the tridiagonal analytically and
    solves the bordered system in O(N); the dense path is its oracle."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [65, 100, 400])
    def test_tridiagonal_matches_difference_jacobian(self, family, n):
        # The forward difference's truncation error grows with FD_STEP * |z|
        # over the cell width, so single entries of _fd_band are off by
        # up to 3e-5 at N = 400; each diagonal is compared as a whole.
        density, mean = FAMILIES[family]
        p = StaticProblem(DOM_100, n, density, mean * n)
        u = sa.default_initial_guess(p)
        f, m0 = sa.residual(u, p, masses=True)
        band = sa._tridiagonal(u, f, m0, p)
        fd, _ = sa._fd_band(u, f, p)
        for k in range(3):
            assert (np.linalg.norm(band[k] - fd[k])
                    <= 1e-5 * np.linalg.norm(fd[k])), k

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [65, 80, 100])
    def test_converges_to_dense_solution(self, family, n, monkeypatch):
        # Start with the free parameter 2 % off, so that every family takes
        # Newton steps.  Uniform free b has r/N = 45 here: at FAMILIES' 50
        # the solution is b = 100, and so is any b above the domain.
        density, mean = FAMILIES[family]
        if family == "uniform":
            mean = 45.0
        p = StaticProblem(DOM_100, n, density, mean * n)
        init = (sa._quantile_guess(p) if family == "uniform"
                else sa.default_initial_guess(p))
        init[-1] *= 1.02
        banded = sa.solve(p, init)
        monkeypatch.setattr(sa, "N_DENSE", n)
        dense = sa.solve(p, init)
        assert banded.iterations >= 1
        assert banded.residual_norm < sa.RESIDUAL_TOL
        assert (np.max(np.abs(banded.centroids - dense.centroids))
                < 1e-8 * DOM_100.width)
        assert banded.v_k == pytest.approx(dense.v_k, rel=1e-8)

    def test_pluggable_constraint_converges_to_dense_solution(
            self, monkeypatch):
        # The same sum constraint, differenced column by column through
        # constraint_value instead of the exact row of ones.
        n = 80
        p = StaticProblem(DOM_100, n, WIDE_GAUSS_FREE_MU, 30.0 * n,
                          constraint=lambda z: float(np.sum(z) - 30.0 * n))
        banded = sa.solve(p)
        monkeypatch.setattr(sa, "N_DENSE", n)
        dense = sa.solve(p)
        assert (np.max(np.abs(banded.centroids - dense.centroids))
                < 1e-8 * DOM_100.width)
        assert abs(np.sum(banded.centroids) - p.r) < 1e-6

    def test_at_most_two_residual_evaluations(self, monkeypatch):
        p = StaticProblem(DOM_100, 200, WIDE_GAUSS_FREE_MU, 200 * 30.0)
        u = sa.default_initial_guess(p)
        f, m0 = sa.residual(u, p, masses=True)
        calls = []
        real = sa.residual

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sa, "residual", counting)
        sa._newton_step(u, f, m0, p)
        assert 1 <= len(calls) <= 2

    def test_singular_band_takes_lstsq_fallback(self, caplog):
        # A zero row in T makes the banded solve fail; the bordered matrix
        # stays singular too, so the step is the least-squares one.
        n = 4
        band = np.zeros((3, n))
        band[1] = [2.0, 0.0, 3.0, 1.0]
        col = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        row = np.ones(n)
        f = np.array([1.0, 1.0, -2.0, 0.5, 0.25])
        jac = np.diag([2.0, 0.0, 3.0, 1.0, 0.0])
        jac[:n, n] = col[:n]
        jac[n, :n] = row
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            step = sa._bordered_step(band, col, row, f)
        assert "banded solve failed" in caplog.text
        assert np.array_equal(step,
                              np.linalg.lstsq(jac, -f, rcond=None)[0])

    def test_zero_schur_complement_takes_lstsq_fallback(self, caplog):
        # T = I, but the border column lies in the span the border row
        # cancels: the Schur complement is exactly 0.
        n = 3
        band = np.zeros((3, n))
        band[1] = 1.0
        col = np.array([1.0, -1.0, 0.0, 0.0])
        row = np.array([1.0, 1.0, 0.0])
        f = np.array([1.0, 2.0, 3.0, 4.0])
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            step = sa._bordered_step(band, col, row, f)
        assert "Schur complement 0" in caplog.text
        jac = np.eye(n + 1)
        jac[n, n] = 0.0
        jac[:, n] = col
        jac[n, :n] = row
        assert np.array_equal(step,
                              np.linalg.lstsq(jac, -f, rcond=None)[0])

    def test_regular_step_solves_bordered_system(self):
        rng = np.random.default_rng(3)
        n = 6
        band = rng.uniform(-0.3, 0.3, (3, n))
        band[1] += 2.0
        col = rng.uniform(-1.0, 1.0, n + 1)
        row = rng.uniform(0.5, 1.5, n)
        f = rng.uniform(-1.0, 1.0, n + 1)
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = (np.diag(band[1]) + np.diag(band[0, 1:], 1)
                       + np.diag(band[2, :-1], -1))
        jac[:, n] = col
        jac[n, :n] = row
        np.testing.assert_allclose(sa._bordered_step(band, col, row, f),
                                   np.linalg.solve(jac, -f), rtol=1e-12,
                                   atol=1e-12)


class TestSolve:
    def test_newton_history(self):
        # Acceptance-2 problem: Armijo makes every accepted step strictly
        # decrease the residual norm.
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        sol = sa.solve(p)
        hist = sol.residual_history
        assert sol.iterations >= 1
        assert len(hist) == sol.iterations + 1
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert hist[-1] == sol.residual_norm < 1e-9

    def test_symmetric_gaussian(self):
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        sol = sa.solve(p)
        assert sol.v_k == pytest.approx(50.0, abs=1e-6)
        assert np.sum(sol.centroids) == pytest.approx(2500.0, abs=1e-6)
        # centroid set symmetric about mu
        sym = sol.centroids + sol.centroids[::-1]
        np.testing.assert_allclose(sym, 100.0, atol=1e-6)

    def test_reduced_resource_shifts_mean_down(self):
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=1500.0)
        sol = sa.solve(p)
        assert sol.v_k < 50.0
        assert np.sum(sol.centroids) == pytest.approx(1500.0, abs=1e-6)

    def test_exponential_free_rate_vs_bisection_oracle(self):
        # Independent oracle: bisection on the 1-unknown reduced problem
        # (Lloyd at fixed lambda, match sum to r) gives 0.021442997835274584.
        d = DensitySpec("exponential", {}, free_param="lam")
        p = StaticProblem(domain=Domain1D(0.0, 300.0), n_agents=50,
                          density=d, r=5000.0)
        sol = sa.solve(p)
        assert sol.v_k == pytest.approx(0.021442997835274584, abs=1e-8)
        assert np.sum(sol.centroids) == pytest.approx(5000.0, abs=1e-6)

    def test_uniform_free_width(self):
        # Uniform(0, b) free b, N=3, r=22.5: CVT midpoints sum to 3b/2 = 22.5
        # so b = 15 and centroids are (2.5, 7.5, 12.5).
        d = DensitySpec("uniform", {"a": 0.0}, free_param="b")
        p = StaticProblem(domain=Domain1D(0.0, 50.0), n_agents=3,
                          density=d, r=22.5)
        sol = sa.solve(p)
        assert sol.v_k == pytest.approx(15.0, abs=1e-7)
        np.testing.assert_allclose(sol.centroids, [2.5, 7.5, 12.5], atol=1e-7)

    def test_narrow_gaussian_uses_quantile_fallback(self, caplog):
        # Equally spaced initial centroids leave empty tail cells here; the
        # solver must still converge from its quantile-based fallback.
        d = DensitySpec("gaussian", {"sigma2": 25.0}, free_param="mu")
        p = StaticProblem(domain=Domain1D(0.0, 3000.0), n_agents=15,
                          density=d, r=15000.0)
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            sol = sa.solve(p)
        assert "density quantiles" in caplog.text
        assert "N = 15: dense Newton steps" in caplog.text
        assert sol.v_k == pytest.approx(1000.0, abs=1e-6)
        assert np.sum(sol.centroids) == pytest.approx(15000.0, abs=1e-6)


class TestEmptyCellRule:
    """A cell of mass at most density.mass_floor is empty, in the solve as in
    Lloyd.  At r/N = 25 on [0, 100] with sigma^2 = 4 and N = 200, the last
    cell of the equally spaced guess has a denormal, nonzero mass."""

    P = StaticProblem(domain=DOM_100, n_agents=200, density=GAUSS_FREE_MU,
                      r=5000.0)

    def default_cells(self):
        u = sa.default_initial_guess(self.P)
        d = bind_free_parameter(self.P.density, u[-1])
        return u, d, tess._midpoint_boundaries(u[:-1], DOM_100)

    def test_default_guess_is_invalid_candidate(self):
        u, d, m = self.default_cells()
        lo, hi = m[:-1], m[1:]
        m0, _ = dens.interval_moments(d, lo, hi, order=1)
        assert 0.0 < m0[-1] <= dens.mass_floor(hi[-1] - lo[-1])
        with pytest.raises(InvalidCandidate):
            sa.residual(u, self.P)

    def test_cell_centroids_names_first_empty_cell(self):
        _, d, m = self.default_cells()
        with pytest.raises(EmptyCell, match="^cell 199 "):
            dens.cell_centroids(d, m)
        far = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        with pytest.raises(EmptyCell, match=r"^cell 1 = \[40.0, 41.0\]"):
            dens.cell_centroids(far, np.array([-1.0, 40.0, 41.0]))

    def test_solve_retries_from_quantiles(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            sol = sa.solve(self.P)
        assert "density quantiles" in caplog.text
        assert "N = 200: banded Newton steps" in caplog.text
        assert sol.residual_norm < 1e-9
        assert abs(sol.v_k - 25.0) < 1e-6
        assert abs(np.sum(sol.centroids) - 5000.0) < 1e-6


class TestInvariantsAndProperties:
    def test_constraint_conservation_and_cvt_consistency(self):
        for r in (1500.0, 2000.0, 2500.0):
            p = StaticProblem(domain=DOM_100, n_agents=20,
                              density=GAUSS_FREE_MU, r=r * 20.0 / 50.0)
            sol = sa.solve(p)
            assert abs(np.sum(sol.centroids) - p.r) < 1e-6
            d = bind_free_parameter(GAUSS_FREE_MU, sol.v_k)
            assert tess.is_cvt(sol.centroids, d, DOM_100, tol=1e-7)

    def test_mu_monotone_in_r(self):
        mus = []
        for r in (1500.0, 1750.0, 2000.0, 2250.0, 2500.0):
            p = StaticProblem(domain=DOM_100, n_agents=50,
                              density=GAUSS_FREE_MU, r=r)
            mus.append(sa.solve(p).v_k)
        assert all(a < b for a, b in zip(mus, mus[1:]))


class TestCrossValidate:
    def test_symmetric_configuration_passes(self):
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        sol = sa.solve(p)
        report = sa.cross_validate(sol, p)
        assert report.passed
        assert report.max_discrepancy < 1e-6 * DOM_100.width
        assert abs(report.sum_solver - 2500.0) < 1e-6
        assert abs(report.sum_lloyd - 2500.0) < 1e-6

    def test_perturbed_free_parameter_fails(self):
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        sol = sa.solve(p)
        from dataclasses import replace
        bad = replace(sol, v_k=sol.v_k * 1.1)
        report = sa.cross_validate(bad, p)
        assert not report.passed

    def test_acceptance3_stop_reasons(self, acceptance3_reports):
        # Gamma free-k reaches the gammainc noise floor above lloyd_tol and
        # stagnates; its comparison still passes.  The others meet the tol.
        for label, p, report in acceptance3_reports:
            assert report.passed, label
            if label.startswith("gamma"):
                assert report.lloyd_stop == "stagnated"
                assert not report.lloyd_converged
                assert report.lloyd_iterations < 50_000
            else:
                assert report.lloyd_stop == "tol", label
                assert report.lloyd_converged, label

    def test_budget_stop_never_passes(self):
        # At 3000 iterations Lloyd is already within every comparison gate,
        # but a run cut off by its budget is not accepted.
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        report = sa.cross_validate(sa.solve(p), p, max_iter=3000)
        assert report.lloyd_stop == "budget"
        assert report.lloyd_iterations == 3000
        assert report.max_discrepancy < 1e-6 * DOM_100.width
        assert abs(report.sum_solver - 2500.0) < 1e-6
        assert abs(report.sum_lloyd - 2500.0) < 1e-6
        assert not report.passed
