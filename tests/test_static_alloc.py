"""Constrained allocation via the N+1 nonlinear system."""

import json
import logging
import math
import re

import numpy as np
import pytest
from scipy.linalg import solve_banded
from test_golden import (ROOT, SHIPPED, fleet_config, solution_hash,
                         static_problems)
from test_tessellation import is_cvt

import quadrature
from cvtalloc import density as dens
from cvtalloc import sim
from cvtalloc import static_alloc as sa
from cvtalloc import tessellation as tess
from cvtalloc.density import DensitySpec, bind_free_parameter
from cvtalloc.errors import (
    EmptyCell,
    InfeasibleProblem,
    InvalidCandidate,
    SolverDiverged,
)
from cvtalloc.sim import Scenario
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
    """The dense step's matrix."""
    return sa._fd_jacobian(u, f, p)[0]


def evaluation(u, p, ws=None):
    """_evaluate's (f, norm, cells) at u, under the np.errstate that a
    solve opens, written into the workspace ws, or a new one for p."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return sa._evaluate(np.asarray(u, dtype=float), p,
                            sa._Workspace(p) if ws is None else ws)


def workspace(n):
    """A solve's workspace for N = n agents on [0, 100]."""
    return sa._Workspace(seed0_sweep(n))


@pytest.fixture()
def no_dense_solve(monkeypatch):
    """Fail the test on any call of np.linalg.solve or np.linalg.lstsq."""
    def fail(*args, **kwargs):
        pytest.fail("the banded path called a dense solver")

    monkeypatch.setattr(np.linalg, "solve", fail)
    monkeypatch.setattr(np.linalg, "lstsq", fail)


class TestStaticProblem:
    def test_infeasible_mean(self):
        with pytest.raises(InfeasibleProblem):
            StaticProblem(domain=DOM_100, n_agents=10,
                          density=GAUSS_FREE_MU, r=2000.0)

    def test_density_must_have_free_parameter(self):
        d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
        with pytest.raises(ValueError):
            StaticProblem(domain=DOM_100, n_agents=10, density=d, r=500.0)


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


def cell_masses(u, p):
    """The cell masses of the unknowns u, a row or a stack of rows sharing
    one free parameter: d's centroid map on u's midpoint boundaries, the
    moment evaluation residual(u, p) makes."""
    n = p.n_agents
    d = bind_free_parameter(p.density, u[..., n].flat[0])
    m = tess._midpoint_boundaries(u[..., :n], p.domain)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return dens._centroid_map(d)(m)[1]


class TestResidualStack:
    """A (K, N+1) stack with one free parameter is K residual calls in one:
    the same bits row for row, and invalid as a whole when any row is."""

    @staticmethod
    def stack_of(p, k=3):
        # Rows of the default guess, each with every third centroid nudged.
        u = sa.default_initial_guess(p)
        rows = np.tile(u, (k, 1))
        n = p.n_agents
        for c in range(k):
            rows[c, c % n:n:3] += 1e-3 * (c + 1)
        return rows

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_rows_equal_single_calls(self, family, n):
        density, mean = FAMILIES[family]
        p = StaticProblem(DOM_100, n, density, mean * n)
        rows = self.stack_of(p)
        f, m0 = sa.residual(rows, p), cell_masses(rows, p)
        assert f.shape == rows.shape and m0.shape == (3, n)
        for k, row in enumerate(rows):
            assert f[k].tobytes() == sa.residual(row, p).tobytes()
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                fk, _, cells = sa._evaluate(row, p, sa._Workspace(p))
            assert f[k].tobytes() == fk.tobytes()
            assert m0[k].tobytes() == cells[2].tobytes()

    @pytest.mark.parametrize("bad", [
        [60.0, 40.0, 50.0, 5.0],         # unsorted
        [40.0, 40.0, 50.0, 5.0],         # duplicate
        [-1.0, 40.0, 50.0, 5.0],         # out of domain
        [4.0, 90.0, 99.0, 5.0],          # cell [94.5, 100] holds no mass
    ], ids=["unsorted", "duplicate", "out-of-domain", "empty-cell"])
    def test_one_invalid_row_invalidates_the_stack(self, bad):
        p = StaticProblem(DOM_100, 3, GAUSS_FREE_MU, 15.0)
        good = np.array([[3.0, 5.0, 7.0, 5.0], [4.0, 5.0, 6.0, 5.0]])
        for row in good:
            sa.residual(row, p)
        with pytest.raises(InvalidCandidate):
            sa.residual(bad, p)
        for at in range(3):
            with pytest.raises(InvalidCandidate):
                sa.residual(np.insert(good, at, bad, axis=0), p)

    def test_wrong_count_of_unknowns(self):
        p = StaticProblem(DOM_100, 3, GAUSS_FREE_MU, 15.0)
        with pytest.raises(ValueError, match="^expected 4 unknowns, got 3$"):
            sa.residual([3.0, 5.0, 7.0], p)

    def test_rows_must_share_the_free_parameter(self):
        p = StaticProblem(DOM_100, 3, GAUSS_FREE_MU, 15.0)
        with pytest.raises(ValueError, match="share one free parameter"):
            sa.residual([[3.0, 5.0, 7.0, 5.0], [3.0, 5.0, 7.0, 5.5]], p)

    def test_stacked_empty_cell_names_row_and_cell(self):
        d = DensitySpec("gaussian", {"mu": 5.0, "sigma2": 4.0})
        m = np.array([[0.0, 4.0, 6.0, 100.0], [0.0, 47.0, 94.5, 100.0]])
        with pytest.raises(EmptyCell,
                           match=r"^row 1, cell 2 = \[94.5, 100.0\] has mass"):
            dens.cell_centroids(d, m)
        with pytest.raises(EmptyCell, match=r"^cell 2 = \[94.5, 100.0\]"):
            dens.cell_centroids(d, m[1])


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
        # One stack of 800 rows, the constraint row included.
        p = StaticProblem(DOM_100, 800, WIDE_GAUSS_FREE_MU, 800 * 30.0)
        u = sa.default_initial_guess(p)
        f = sa.residual(u, p)
        assert np.array_equal(fd_jacobian(u, f, p), oracle_jacobian(u, f, p))

    def test_equals_oracle_at_forced_fallback(self, caplog, monkeypatch):
        # The last generator sits within FD_STEP * |z| of b, so its forward
        # candidate leaves the domain: the difference stack is invalid, all
        # columns fall back to single ones and column 4 is a backward
        # difference.
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
        assert ("difference stack invalid (generators must lie inside "
                "(0.0, 100.0)); differencing all 5 columns one at a time"
                in caplog.text)
        # The stack, 5 forward candidates, column 4's backward one and the
        # free-parameter column.
        calls = []
        real = sa.residual
        monkeypatch.setattr(sa, "residual",
                            lambda *args: calls.append(1) or real(*args))
        assert sa._fd_jacobian(u, f, p)[1] == len(calls) == 8

    def test_at_most_two_residual_evaluations(self, monkeypatch):
        # One stack of the N generator columns and the free-parameter
        # column.
        n = sa.N_DENSE
        p = StaticProblem(DOM_100, n, WIDE_GAUSS_FREE_MU, 50.0 * n)
        u, ws = sa.default_initial_guess(p), sa._Workspace(p)
        f, _, cells = evaluation(u, p, ws)
        calls = []
        real = sa.residual

        def counting(unknowns, problem):
            calls.append(1)
            return real(unknowns, problem)

        monkeypatch.setattr(sa, "residual", counting)
        _, evals = sa._newton_step(u, f, cells, p, ws)
        assert evals == len(calls) <= 2

    def test_singular_matrix_ends_in_solver_diverged(self, monkeypatch):
        # A zero band and row leave only the free-parameter column: the
        # bordered matrix is singular, so the step raises InvalidCandidate,
        # as the banded path does, and the solve ends in SolverDiverged
        # carrying its start, the iterate it could not step from, and the
        # start's norm.
        p = StaticProblem(DOM_100, 5, WIDE_GAUSS_FREE_MU, 250.0)
        u, ws = sa.default_initial_guess(p), sa._Workspace(p)
        f, _, cells = evaluation(u, p, ws)
        jac = np.zeros((6, 6))
        jac[:, 5] = sa._fd_column(u, f, p, 5)[0]
        monkeypatch.setattr(sa, "_fd_jacobian", lambda *args: (jac, 2))
        with pytest.raises(InvalidCandidate,
                           match=r"^dense solve failed \(singular matrix\)$"):
            sa._newton_step(u, f, cells, p, ws)
        with pytest.raises(SolverDiverged, match="singular matrix") as info:
            sa.solve(p)
        assert np.array_equal(info.value.best, u)
        assert info.value.residual_norm == np.linalg.norm(f)

    def test_shipped_initialize_steps_equal_oracle(self, monkeypatch):
        # Every matrix of the shipped scenario's initial N = 15 solve is the
        # per-column difference Jacobian bit for bit.  u and f are copied
        # out of the solve's workspace, which later iterates write over.
        seen = []
        real = sa._fd_jacobian

        def spy(u, f, p):
            jac, evals = real(u, f, p)
            seen.append((u.copy(), f.copy(), p, jac))
            return jac, evals

        monkeypatch.setattr(sa, "_fd_jacobian", spy)
        sim.initialize(Scenario.from_config(json.loads(SHIPPED.read_text())))
        assert len(seen) == 4
        for u, f, p, jac in seen:
            assert p.n_agents == 15
            assert np.array_equal(jac, oracle_jacobian(u, f, p))


class TestBandedStep:
    """Above N_DENSE a Newton step fills the tridiagonal analytically and
    solves the bordered system in O(N); the dense path is its oracle."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [65, 100, 400])
    def test_tridiagonal_matches_difference_jacobian(self, family, n):
        # The forward difference's truncation error grows with FD_STEP * |z|
        # over the cell width, so single entries of _fd_jacobian are off by
        # up to 3e-5 at N = 400; each diagonal is compared as a whole.
        density, mean = FAMILIES[family]
        p = StaticProblem(DOM_100, n, density, mean * n)
        u, ws = sa.default_initial_guess(p), sa._Workspace(p)
        f, _, cells = evaluation(u, p, ws)
        band, _, _ = sa._banded_jacobian(u, f, cells, p, ws)
        t = fd_jacobian(u, f, p)[:n, :n]
        for k, diag in ((1, band[0, 1:]), (0, band[1]), (-1, band[2, :-1])):
            fd = np.diag(t, k)
            assert np.linalg.norm(diag - fd) <= 1e-5 * np.linalg.norm(fd), k

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

    def test_at_most_two_residual_evaluations(self, monkeypatch):
        # The analytic Gaussian mu column makes none; the gamma k column is
        # differenced, one.
        calls = []
        real = sa.residual

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sa, "residual", counting)
        for family, expected in (("gaussian", 0), ("gamma", 1)):
            density, mean = FAMILIES[family]
            p = StaticProblem(DOM_100, 200, density, 200 * mean)
            u, ws = sa.default_initial_guess(p), sa._Workspace(p)
            f, _, cells = evaluation(u, p, ws)
            calls.clear()
            _, evals = sa._newton_step(u, f, cells, p, ws)
            assert evals == len(calls) == expected, family

    def test_singular_band_is_an_invalid_candidate(self, no_dense_solve):
        # A zero row in T makes the banded solve fail; no least-squares step
        # is taken.
        n = 4
        band = np.zeros((3, n))
        band[1] = [2.0, 0.0, 3.0, 1.0]
        col = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        f = np.array([1.0, 1.0, -2.0, 0.5, 0.25])
        with pytest.raises(InvalidCandidate,
                           match=r"^banded solve failed \(singular matrix\)$"):
            sa._bordered_step(band, col, f, workspace(n))

    def test_zero_schur_complement_is_an_invalid_candidate(self,
                                                           no_dense_solve):
        # T = I, and the border column's solve sums to its last entry: the
        # Schur complement is exactly 0.
        n = 3
        band = np.zeros((3, n))
        band[1] = 1.0
        col = np.array([1.0, -1.0, 0.0, 0.0])
        f = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidCandidate, match="^Schur complement 0$"):
            sa._bordered_step(band, col, f, workspace(n))

    def test_regular_step_solves_bordered_system(self):
        rng = np.random.default_rng(3)
        n = 6
        band = rng.uniform(-0.3, 0.3, (3, n))
        band[1] += 2.0
        col = rng.uniform(-1.0, 1.0, n + 1)
        f = rng.uniform(-1.0, 1.0, n + 1)
        jac = np.ones((n + 1, n + 1))
        jac[:n, :n] = (np.diag(band[1]) + np.diag(band[0, 1:], 1)
                       + np.diag(band[2, :-1], -1))
        jac[:, n] = col
        np.testing.assert_allclose(sa._bordered_step(band, col, f,
                                                     workspace(n)),
                                   np.linalg.solve(jac, -f), rtol=1e-12,
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [2, 50, 800])
    def test_equals_solve_banded_and_schur_complement(self, n):
        # The direct dgtsv call is the routine solve_banded runs for a
        # (1, 1) band: the step is the old body's bit for bit.
        rng = np.random.default_rng(n)
        row, ws = np.ones(n), workspace(n)
        for _ in range(20):
            band = rng.uniform(-1.0, 1.0, (3, n))
            band[1] = (np.abs(band[0]) + np.abs(band[2])
                       + rng.uniform(0.1, 2.0, n)) * rng.choice([-1, 1], n)
            band[0, 0] = band[2, -1] = 0.0
            col = rng.uniform(-1.0, 1.0, n + 1)
            f = rng.uniform(-1.0, 1.0, n + 1)
            x = solve_banded((1, 1), band, np.column_stack((-f[:n], col[:n])))
            schur = col[n] - np.sum(row * x[:, 1])
            dv = (-f[n] - np.sum(row * x[:, 0])) / schur
            expected = np.append(x[:, 0] - dv * x[:, 1], dv)
            before = band.copy()
            assert np.array_equal(sa._bordered_step(band, col, f, ws),
                                  expected)
            assert np.array_equal(band, before)

    @pytest.mark.parametrize("where", ["band", "col", "f"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_is_an_invalid_candidate(self, where, bad,
                                                       monkeypatch,
                                                       no_dense_solve):
        # No LAPACK call sees a non-finite value, and no least-squares step
        # is taken: the step is an invalid candidate.
        n = 5
        band = np.zeros((3, n))
        band[1] = 2.0
        band[0, 1:] = 0.5
        band[2, :-1] = -0.5
        col = np.linspace(0.1, 0.5, n + 1)
        f = np.linspace(1.0, 2.0, n + 1)
        {"band": band[1], "col": col, "f": f}[where][2] = bad
        monkeypatch.setattr(sa, "dgtsv", lambda *args, **kwargs: pytest.fail(
            "dgtsv called on a non-finite system"))
        with pytest.raises(InvalidCandidate, match=(
                r"^banded solve failed \(non-finite band or right-hand "
                r"side\)$")):
            sa._bordered_step(band, col, f, workspace(n))

    def test_no_dense_solver_at_any_step(self, monkeypatch, no_dense_solve):
        # A banded solve converges without np.linalg.solve or lstsq, and a
        # singular band at N = 2000 ends the solve instead of a
        # least-squares step on a 2001-square matrix.
        assert sa.solve(seed0_sweep(50)).residual_norm < sa.RESIDUAL_TOL
        real = sa._banded_jacobian

        def singular(u, f, cells, p, ws):
            band, col, evals = real(u, f, cells, p, ws)
            band[:, 1000] = 0.0  # T's column 1000
            return band, col, evals

        monkeypatch.setattr(sa, "_banded_jacobian", singular)
        p = seed0_sweep(2000)
        with pytest.raises(SolverDiverged,
                           match=r"^banded solve failed \(singular matrix\)$"
                           ) as exc:
            sa.solve(p)
        assert exc.value.residual_norm == np.linalg.norm(
            sa.residual(exc.value.best, p))


class TestGaussianMuColumn:
    """Above N_DENSE the Gaussian free-mu column is analytic; _fd_column,
    the column every other free parameter takes, is its oracle."""

    # (sigma2, domain, r/N, the domain ends whose cells hold tail mass).
    CASES = {"s2=4": (4.0, DOM_100, 50.0, ()),
             "s2=900": (900.0, Domain1D(0.0, 3000.0), 1000.0, ()),
             "s2=900 right tail": (900.0, Domain1D(0.0, 3000.0), 2940.0,
                                   ("b",)),
             "s2=400 r/N=30": (400.0, DOM_100, 30.0, ("a",)),
             "s2=400 r/N=50": (400.0, DOM_100, 50.0, ("a", "b"))}

    def columns(self, n, case):
        """(p, u, f, analytic column) at the cube-root start and at the
        solution."""
        sigma2, domain, mean, tails = self.CASES[case]
        d = DensitySpec("gaussian", {"sigma2": sigma2}, free_param="mu")
        p = StaticProblem(domain, n, d, mean * n)
        sol = sa.solve(p)
        for u in (sa._cube_root_guess(p), np.append(sol.centroids, sol.v_k)):
            ws = sa._Workspace(p)
            f, _, cells = evaluation(u, p, ws)
            _, col, evals = sa._banded_jacobian(u, f, cells, p, ws)
            assert evals == 0
            assert col[n] == 0.0
            # The density at a tail end is above 1 % of its peak.
            rho = bind_free_parameter(d, u[n]).pdf(
                [getattr(domain, end) for end in tails])
            assert np.all(rho * math.sqrt(2 * math.pi * sigma2) > 1e-2)
            yield p, u, f, col

    @pytest.mark.parametrize("n", [16, 50, 240, 800])
    @pytest.mark.parametrize("case", ["s2=4", "s2=900", "s2=900 right tail"])
    def test_matches_difference_column(self, n, case):
        for p, u, f, col in self.columns(n, case):
            fd, _ = sa._fd_column(u, f, p, n)
            assert fd[n] == 0.0
            assert np.max(np.abs(col - fd)) <= 1e-6

    @pytest.mark.parametrize("n", [16, 50, 240, 800])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_central_difference(self, n, case):
        # _fd_column steps mu by 1e-7 |mu|; at r/N = 30 and 50 with sigma
        # 20 its quotient is off by up to 1e-5 at N = 800, where the cells
        # are so narrow that the centroids' rounding dominates that step.
        # A central difference at a step of 1e-3 sigma, whose truncation
        # error is below 5e-9 on every case, is the tighter oracle.
        h = 1e-3 * math.sqrt(self.CASES[case][0])
        for p, u, f, col in self.columns(n, case):
            up, down = u.copy(), u.copy()
            up[n] += h
            down[n] -= h
            central = (sa.residual(up, p) - sa.residual(down, p)) / (2 * h)
            assert np.max(np.abs(col - central)) <= 1e-8

    def test_solves_agree_with_the_difference_column(
            self, acceptance3_problems, monkeypatch):
        # The Gaussian solves whose goldens the analytic column re-recorded:
        # static-sweep, Acceptance 3 and the fleet-240 initial solve.
        problems = static_problems(acceptance3_problems)
        problems["fleet-240"] = fleet240_initial()
        real = sa._banded_jacobian

        def differenced(u, f, cells, p, ws):
            return (real(u, f, cells, p, ws)[0],) + sa._fd_column(
                u, f, p, p.n_agents)

        for label, p in problems.items():
            if p.density.family != "gaussian":
                continue
            sol = sa.solve(p)
            with monkeypatch.context() as m:
                m.setattr(sa, "_banded_jacobian", differenced)
                ref = sa.solve(p)
            assert sol.iterations == ref.iterations, label
            assert (np.max(np.abs(sol.centroids - ref.centroids))
                    <= 1e-9 * p.domain.width), label
            assert abs(sol.v_k - ref.v_k) <= 1e-9, label


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

    def test_budget_stop_reports_the_last_iterate(self, monkeypatch):
        # Armijo acceptance never raises the norm, so the last iterate is a
        # best one: a stop on MAX_NEWTON_ITER = 2 reports iterate 2.
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        hist = sa.solve(p).residual_history
        assert len(hist) > 3
        monkeypatch.setattr(sa, "MAX_NEWTON_ITER", 2)
        with pytest.raises(SolverDiverged,
                           match="^no convergence in 2 iterations") as exc:
            sa.solve(p)
        norm = exc.value.residual_norm
        assert norm == np.linalg.norm(sa.residual(exc.value.best, p))
        assert norm == hist[2] < hist[1]

    @pytest.mark.parametrize("n, r, needed", [(15, 750.0, 5),
                                              (50, 2500.0, 4)])
    def test_budget_tests_its_last_iterate(self, n, r, needed, monkeypatch):
        # The iterate after the last allowed step is tested against
        # RESIDUAL_TOL: a budget of the steps a solve needs converges, and
        # one step less stops at that budget's last iterate.
        p = StaticProblem(DOM_100, n, GAUSS_FREE_MU, r)
        ref = sa.solve(p)
        assert ref.iterations == needed
        monkeypatch.setattr(sa, "MAX_NEWTON_ITER", needed)
        sol = sa.solve(p)
        assert sol.iterations == needed
        assert sol.centroids.tobytes() == ref.centroids.tobytes()
        assert sol.residual_history == ref.residual_history
        monkeypatch.setattr(sa, "MAX_NEWTON_ITER", needed - 1)
        with pytest.raises(SolverDiverged,
                           match="^no convergence in ") as exc:
            sa.solve(p)
        norm = exc.value.residual_norm
        assert norm == np.linalg.norm(sa.residual(exc.value.best, p))
        assert norm == ref.residual_history[needed - 1]

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


class TestEvaluationCount:
    """Each Newton iterate is evaluated once: a solve makes one residual
    call at the start, one per line-search candidate and the step's own
    (2 dense, 1 banded, none banded for a Gaussian free mu), and never
    evaluates the same unknowns twice."""

    @pytest.mark.parametrize("n, family, per_step", [
        pytest.param(sa.N_DENSE, "gaussian", 2, id=f"{sa.N_DENSE}-2"),
        pytest.param(200, "gamma", 1, id="200-1"),
        pytest.param(200, "gaussian", 0, id="200-0"),
    ])
    def test_whole_solve(self, n, family, per_step, monkeypatch):
        density, mean = FAMILIES[family]
        p = StaticProblem(DOM_100, n, density, mean * n)
        seen, steps, evaluated = [], [], []
        real_residual, real_step, real_evaluate = (
            sa.residual, sa._newton_step, sa._evaluate)

        def residual(unknowns, problem):
            seen.append(np.asarray(unknowns).tobytes())
            return real_residual(unknowns, problem)

        def newton_step(*args):
            steps.append(1)
            return real_step(*args)

        def evaluate(u, problem, ws):
            evaluated.append(1)
            seen.append(u.tobytes())
            return real_evaluate(u, problem, ws)

        monkeypatch.setattr(sa, "residual", residual)
        monkeypatch.setattr(sa, "_newton_step", newton_step)
        monkeypatch.setattr(sa, "_evaluate", evaluate)
        sol = sa.solve(p)
        assert sol.residual_norm < sa.RESIDUAL_TOL
        candidates = len(evaluated) - 1
        assert len(steps) == sol.iterations >= 1
        assert candidates >= len(steps)
        assert len(seen) == 1 + candidates + per_step * len(steps)
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("init", [None, "given"])
    def test_nan_start(self, init, monkeypatch, caplog):
        # A start whose residual is NaN counts as infeasible: the default
        # guess retries from the density quantiles, exactly as a solve
        # started there; a given start raises with its NaN norm.  At
        # N_DENSE the equally spaced start is the first.
        p = StaticProblem(DOM_100, sa.N_DENSE, GAUSS_FREE_MU,
                          50.0 * sa.N_DENSE)
        start = sa.default_initial_guess(p)
        real = sa._evaluate

        def nan_at_start(u, problem, ws):
            f, norm, cells = real(u, problem, ws)
            if np.array_equal(u, start):
                f = np.full_like(f, np.nan)
                norm = math.sqrt(f.dot(f))
            return f, norm, cells

        monkeypatch.setattr(sa, "_evaluate", nan_at_start)
        if init is None:
            with caplog.at_level(logging.DEBUG,
                                 logger="cvtalloc.static_alloc"):
                sol = sa.solve(p)
            assert "density quantiles" in caplog.text
            monkeypatch.setattr(sa, "_evaluate", real)
            ref = sa.solve(p, init=sa._quantile_guess(p))
            assert sol.centroids.tobytes() == ref.centroids.tobytes()
            assert sol.v_k == ref.v_k
            assert sol.residual_history == ref.residual_history
        else:
            with pytest.raises(SolverDiverged,
                               match="^initial guess is infeasible$") as exc:
                sa.solve(p, init=start)
            assert np.isnan(exc.value.residual_norm)
            assert np.array_equal(exc.value.best, start)

    def test_one_debug_record_per_solve(self, monkeypatch, caplog):
        p = StaticProblem(DOM_100, 15, GAUSS_FREE_MU, 750.0)
        calls = count_evaluations(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            sol = sa.solve(p)
        records = [r.getMessage() for r in caplog.records
                   if "Newton steps" in r.getMessage()]
        assert records == [
            f"N = 15: dense Newton steps {sol.iterations}, residual "
            f"evaluations {len(calls)}, final residual norm "
            f"{sol.residual_norm:.3g}, converged, start equally spaced"]
        assert sol.residual_norm == sol.residual_history[-1]
        assert sol.iterations == len(sol.residual_history) - 1

        caplog.clear()
        bad = np.append(np.linspace(10.0, 20.0, 15)[::-1], 50.0)
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            with pytest.raises(SolverDiverged,
                               match="^initial guess is infeasible$") as exc:
                sa.solve(p, init=bad)
        assert [r.getMessage() for r in caplog.records] == [
            "N = 15: dense Newton steps 0, residual evaluations 1, final "
            "residual norm inf, diverged, start given"]
        assert exc.value.residual_norm == np.inf
        assert np.array_equal(exc.value.best, bad)

    @pytest.mark.parametrize("n", [50, 200, 800])
    def test_static_sweep_solve(self, n, monkeypatch):
        # The seed-0 static-sweep solve: 4 Gaussian-mu banded steps, whose
        # columns are analytic, and 5 evaluations, all through sa._evaluate.
        calls = count_evaluations(monkeypatch)
        sol = sa.solve(seed0_sweep(n))
        assert sol.iterations == 4
        assert len(calls) == 5

    def test_norm_is_numpy_norm(self, monkeypatch):
        # _evaluate's norm is np.linalg.norm's bit for bit, a Python float,
        # on residuals of 2 to 900 entries from 1e-12 to 1e3: the centroid
        # map gives the centroids z - f[:N], and r = sum(z) - f[N].
        rng = np.random.default_rng(11)
        dom = Domain1D(-2e3, 2e3)
        for _ in range(500):
            n = int(rng.integers(1, 900))
            f = (rng.choice([-1.0, 1.0], n + 1)
                 * 10.0 ** rng.uniform(-12.0, 3.0, n + 1))
            z = tess.default_init(n, Domain1D(-1.0, 1.0))
            c = z - f[:n]
            monkeypatch.setattr(dens, "_centroid_map", lambda d, kept: (
                lambda m: (c, np.ones(n), None)))
            p = StaticProblem(dom, n, GAUSS_FREE_MU, np.add.reduce(z) - f[n])
            got, norm, _ = evaluation(np.append(z, 0.0), p)
            assert np.allclose(got, f, rtol=1e-3, atol=0.0)
            assert type(norm) is float
            assert norm == float(np.linalg.norm(got))

    def test_norm_of_real_candidates(self):
        # The same on unpatched evaluations: the N = 50 sweep solution with
        # its centroids shifted by up to 30 and jittered by 1e-12 to 1e-2.
        rng = np.random.default_rng(11)
        p = seed0_sweep(50)
        sol = sa.solve(p)
        tested = 0
        for _ in range(500):
            u = np.append(sol.centroids, sol.v_k)
            u[:-1] += (rng.uniform(-30.0, 30.0) * 10.0 ** rng.uniform(-12, 0)
                       + rng.normal(0.0, 10.0 ** rng.uniform(-12, -2), 50))
            f, norm, _ = evaluation(u, p)
            if f is None:
                continue
            tested += 1
            assert type(norm) is float
            assert norm == float(np.linalg.norm(f))
        assert tested >= 400

    @pytest.mark.parametrize("scale", [1e140, 1e160, 1e300])
    def test_norm_past_the_square_overflow(self, scale, monkeypatch):
        # Entries above about 1.3e154 overflow f.dot(f) to inf: where f is
        # finite the norm is then scaled by its largest entry, and finite
        # below the largest float; np.linalg.norm's bits elsewhere.
        n = 5
        z = tess.default_init(n, Domain1D(-1.0, 1.0))
        f = np.append(np.array([3.0, -4.0, 0.0, 1e-300, 12.0]) * scale, 0.5)
        c = z - f[:n]
        monkeypatch.setattr(dens, "_centroid_map", lambda d, kept: (
            lambda m: (c, np.ones(n), None)))
        p = StaticProblem(Domain1D(-2e3, 2e3), n, GAUSS_FREE_MU,
                          np.add.reduce(z) - f[n])
        got, norm, _ = evaluation(np.append(z, 0.0), p)
        assert type(norm) is float
        assert norm == pytest.approx(13.0 * scale, rel=1e-15)
        with np.errstate(over="ignore"):
            numpy_norm = float(np.linalg.norm(got))
        assert math.isinf(numpy_norm) == (scale > 1e150)
        if math.isfinite(numpy_norm):
            assert norm == numpy_norm

    def test_solve_evaluates_no_second_moments(self, monkeypatch):
        # A solve returns no energy, so neither it nor sim.initialize
        # evaluates order-2 moments: with interval_moments, the energy sum
        # and every order-2 call of a moment kernel raising, the dense
        # shipped solve keeps its hash, the banded Acceptance-2 solve its
        # golden one, and initialize its allocation.
        shipped = Scenario.from_config(json.loads(SHIPPED.read_text()))
        dense = StaticProblem(shipped.domain, shipped.n_agents,
                              shipped.density, shipped.power_schedule[0])
        assert dense.n_agents <= sa.N_DENSE
        reference = sa.solve(dense)
        banded = StaticProblem(domain=DOM_100, n_agents=50,
                               density=GAUSS_FREE_MU, r=2500.0)
        golden = json.loads((ROOT / "tests" / "golden_static.json").read_text())

        def fail(*args, **kwargs):
            raise AssertionError("second moments evaluated")

        real_kernel = dens._cell_moments

        def first_order_only(d, kept=None):
            moments = real_kernel(d, kept)

            def checked(m, order):
                if order != 1:
                    fail()
                return moments(m, order)
            return checked

        monkeypatch.setattr(dens, "interval_moments", fail)
        monkeypatch.setattr(tess, "_energy_of_cells", fail)
        monkeypatch.setattr(dens, "_cell_moments", first_order_only)
        assert solution_hash(sa.solve(dense)) == solution_hash(reference)
        assert (solution_hash(sa.solve(banded))
                == golden["gauss s2=4 n=50 r=2500"])
        alloc = sim.initialize(shipped).alloc
        assert np.array_equal(alloc.resources, reference.centroids)
        assert alloc.mu_current == reference.v_k


def count_evaluations(monkeypatch):
    """A list that gains one entry per residual evaluation of a solve:
    per call of _evaluate and of residual (a stack counts as one)."""
    calls = []
    for name in ("_evaluate", "residual"):
        real = getattr(sa, name)
        monkeypatch.setattr(sa, name, lambda *args, real=real, **kwargs: (
            calls.append(1) or real(*args, **kwargs)))
    return calls


def logged_solve(p, caplog):
    """(the solution or the SolverDiverged, the solve's end records)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
        try:
            out = sa.solve(p)
        except SolverDiverged as exc:
            out = exc
    return out, [r.getMessage() for r in caplog.records
                 if "Newton steps" in r.getMessage()]


def carries_its_best(exc, p):
    return exc.residual_norm == np.linalg.norm(sa.residual(exc.best, p))


class TestOneExit:
    """Every way a solve ends passes through one exit: one DEBUG record,
    then the StaticSolution or one SolverDiverged carrying its best iterate,
    that iterate's norm and the norm of each tested iterate, the last its
    own.  test_one_debug_record_per_solve covers the converged solve and
    the infeasible given start."""

    def test_no_usable_start(self, monkeypatch, caplog):
        # The equally spaced start leaves an empty cell and neither quantile
        # start is made: the error carries the last start that was made.
        p = TestEmptyCellRule.P
        for name in ("_cube_root_guess", "_quantile_guess"):
            monkeypatch.setattr(sa, name, lambda p: None)
        exc, records = logged_solve(p, caplog)
        assert str(exc) == "initial guess is infeasible"
        assert exc.residual_norm == np.inf
        assert exc.history == ()
        assert np.array_equal(exc.best, sa.default_initial_guess(p))
        assert records == [
            "N = 200: banded Newton steps 0, residual evaluations 1, final "
            "residual norm inf, diverged, start density quantiles"]

    def test_invalid_step(self, monkeypatch, caplog):
        # The second step cannot be solved: the error keeps its text, names
        # it as the cause and carries iterate 1.
        p = StaticProblem(DOM_100, 15, GAUSS_FREE_MU, 750.0)
        ref = sa.solve(p)
        real, calls = sa._newton_step, []
        invalid = InvalidCandidate("no step at iterate 1")

        def newton_step(*args):
            calls.append(1)
            if len(calls) == 2:
                raise invalid
            return real(*args)

        monkeypatch.setattr(sa, "_newton_step", newton_step)
        exc, records = logged_solve(p, caplog)
        assert str(exc) == "no step at iterate 1"
        assert exc.__cause__ is invalid
        assert carries_its_best(exc, p)
        assert exc.residual_norm == ref.residual_history[1]
        assert exc.history == ref.residual_history[:2]
        assert exc.history[-1] == exc.residual_norm
        assert len(records) == 1
        assert records[0].startswith("N = 15: dense Newton steps 1, ")
        assert records[0].endswith(
            f"final residual norm {ref.residual_history[1]:.3g}, diverged, "
            f"start equally spaced")

    def test_line_search_stall(self, caplog):
        d = DensitySpec("gamma", {"theta": 100.0}, free_param="k")
        p = StaticProblem(Domain1D(0.0, 300.0), 20, d, 1000.0)
        exc, records = logged_solve(p, caplog)
        assert str(exc) == "line search stalled at residual norm 886.221"
        assert exc.__cause__ is None
        assert carries_its_best(exc, p)
        assert len(exc.history) == 24 and exc.history[-1] == exc.residual_norm
        assert all(b <= a for a, b in zip(exc.history, exc.history[1:]))
        assert records == [
            "N = 20: banded Newton steps 23, residual evaluations 502, final "
            "residual norm 886, diverged, start cube-root quantiles"]

    @pytest.mark.parametrize("p, norm, ulp", [
        (StaticProblem(Domain1D(0.0, 1.7e308), 3, DensitySpec(
            "uniform", {"a": 0.0}, free_param="b"), 1.53e308),
         r"9\.979\d*e\+291", r"1\.99584e\+292"),
        (StaticProblem(Domain1D(0.0, 1e8), 15, DensitySpec(
            "gaussian", {"sigma2": 4e12}, free_param="mu"), 50e6 * 15),
         r"2\.23\d*e-08", r"1\.49012e-08"),
        (StaticProblem(Domain1D(0.0, 1e8), 50, DensitySpec(
            "gaussian", {"sigma2": 4e12}, free_param="mu"), 50e6 * 50),
         r"4\.59\d*e-08", r"1\.49012e-08"),
    ], ids=["uniform-1.7e308-n=3", "acceptance2x1e6-n=15",
            "acceptance2x1e6-n=50"])
    def test_names_the_ulp_of_a_wide_domain(self, p, norm, ulp):
        # Near a domain end whose ulp exceeds RESIDUAL_TOL no norm below
        # the tolerance can be reached: the text says so, with both.  The
        # second and third problems are Acceptance 2 scaled by 1e6.
        end = max(abs(p.domain.a), abs(p.domain.b))
        assert math.ulp(end) > sa.RESIDUAL_TOL
        with pytest.raises(SolverDiverged) as exc:
            sa.solve(p)
        assert re.fullmatch(
            rf"line search stalled at residual norm {norm}; the residual "
            rf"tolerance 1e-09 is below {ulp}, one ulp of the larger domain "
            rf"end", str(exc.value))
        assert exc.value.residual_norm == exc.value.history[-1]

    def test_carries_path_and_start(self, monkeypatch):
        # The stalled banded solve, a dense one out of budget and a dense
        # one whose given start is infeasible.
        stalled = StaticProblem(Domain1D(0.0, 300.0), 20, DensitySpec(
            "gamma", {"theta": 100.0}, free_param="k"), 1000.0)
        dense = StaticProblem(DOM_100, 15, GAUSS_FREE_MU, 750.0)
        bad = np.append(np.linspace(10.0, 20.0, 15)[::-1], 50.0)
        with pytest.raises(SolverDiverged, match="^line search stalled"
                           ) as exc:
            sa.solve(stalled)
        assert (exc.value.path, exc.value.start) == (
            "banded", "cube-root quantiles")
        with pytest.raises(SolverDiverged,
                           match="^initial guess is infeasible$") as exc:
            sa.solve(dense, init=bad)
        assert (exc.value.path, exc.value.start) == ("dense", "given")
        monkeypatch.setattr(sa, "MAX_NEWTON_ITER", 1)
        with pytest.raises(SolverDiverged, match="^no convergence in 1 "
                           ) as exc:
            sa.solve(dense)
        assert (exc.value.path, exc.value.start) == ("dense",
                                                     "equally spaced")

    def test_budget(self, monkeypatch, caplog):
        p = StaticProblem(DOM_100, 50, GAUSS_FREE_MU, 2500.0)
        monkeypatch.setattr(sa, "MAX_NEWTON_ITER", 2)
        exc, records = logged_solve(p, caplog)
        assert str(exc).startswith("no convergence in 2 iterations")
        assert exc.__cause__ is None
        assert carries_its_best(exc, p)
        assert len(exc.history) == 3 and exc.history[-1] == exc.residual_norm
        assert records == [
            f"N = 50: banded Newton steps 2, residual evaluations 3, final "
            f"residual norm {exc.residual_norm:.3g}, diverged, start "
            f"cube-root quantiles"]

    @pytest.mark.parametrize("n, later", [
        (15, ["_quantile_guess"]),
        (50, ["default_initial_guess", "_quantile_guess"]),
    ])
    def test_later_starts_are_never_made(self, n, later, monkeypatch):
        # A solve whose first start is used never calls the later guesses.
        def fail(p):
            raise AssertionError("a later start was made")

        for name in later:
            monkeypatch.setattr(sa, name, fail)
        p = StaticProblem(DOM_100, n, GAUSS_FREE_MU, 50.0 * n)
        assert sa.solve(p).residual_norm < sa.RESIDUAL_TOL


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
        m0 = dens.interval_moments(d, lo, hi)[0]
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
        # Above N_DENSE the cube-root quantiles come before the equally
        # spaced start; at or below it the retry is
        # test_narrow_gaussian_uses_quantile_fallback.
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            sol = sa.solve(self.P)
        assert "start cube-root quantiles" in caplog.text
        assert "N = 200: banded Newton steps" in caplog.text
        assert sol.residual_norm < 1e-9
        assert abs(sol.v_k - 25.0) < 1e-6
        assert abs(np.sum(sol.centroids) - 5000.0) < 1e-6


def seed0_sweep(n):
    """The static-sweep seed-0 problem at N = n (Acceptance 2 scaled)."""
    return StaticProblem(DOM_100, n, GAUSS_FREE_MU, 50.0 * n)


def fleet240_initial():
    """The initial static problem of the shipped scenario scaled to 240."""
    sc = Scenario.from_config(fleet_config(240))
    return StaticProblem(sc.domain, sc.n_agents, sc.density,
                         sc.power_schedule[0])


def old_default_start(p):
    """The start a solve without init took before the cube-root start: the
    equally spaced one, else the density quantiles."""
    u = sa.default_initial_guess(p)
    return u if np.isfinite(evaluation(u, p)[1]) else sa._quantile_guess(p)


def cube_root_density(d):
    """rho^(1/3) of the bound density d, normalised: in d's family."""
    par = d.params
    if d.family == "gaussian":
        return DensitySpec("gaussian", {"mu": par["mu"],
                                        "sigma2": 3.0 * par["sigma2"]})
    if d.family == "exponential":
        return DensitySpec("exponential", {"lam": par["lam"] / 3.0})
    if d.family == "gamma":
        return DensitySpec("gamma", {"k": (par["k"] + 2.0) / 3.0,
                                     "theta": 3.0 * par["theta"]})
    return d


def falls_through_to_equally_spaced(guess, n, monkeypatch, caplog):
    """Solve the Gaussian free-mu problem at N = n with guess as its
    cube-root start, and assert that it takes the equally spaced start,
    with the bits of a solve given that start, and that a row guess, which
    _evaluate's _valid_row rejects, counts as one residual evaluation."""
    p = StaticProblem(DOM_100, n, WIDE_GAUSS_FREE_MU, 30.0 * n)
    monkeypatch.setattr(sa, "_cube_root_guess", lambda p: guess)
    with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
        sol = sa.solve(p)
        ref = sa.solve(p, init=sa.default_initial_guess(p))
    record, ref_record = caplog.messages
    assert record.endswith("start equally spaced")
    assert sol.centroids.tobytes() == ref.centroids.tobytes()
    assert sol.residual_history == ref.residual_history
    evals = [int(re.search(r"residual evaluations (\d+)", r)[1])
             for r in (record, ref_record)]
    assert evals[0] == evals[1] + (guess is not None)


class TestCubeRootStart:
    """Above N_DENSE a solve without init starts at the quantiles
    (i - 1/2)/N of rho^(1/3) truncated to the domain, rho the density at
    default_initial_guess's v_k, and falls through to the equally spaced
    start and the density quantiles when that start is not usable."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_quantiles_of_the_truncated_cube_root(self, family):
        d, mean = FAMILIES[family]
        n = 100
        p = StaticProblem(DOM_100, n, d, mean * n)
        u = sa._cube_root_guess(p)
        v0 = sa.default_initial_guess(p)[-1]
        assert u[-1] == v0
        rho = bind_free_parameter(d, v0)
        total = quadrature.power_quadrature(rho, 0.0, 100.0, 1.0 / 3.0)
        levels = [quadrature.power_quadrature(rho, 0.0, z, 1.0 / 3.0) / total
                  for z in u[:-1]]
        np.testing.assert_allclose(levels, (np.arange(n) + 0.5) / n,
                                   rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("name, p, max_steps", [
        ("n=200", seed0_sweep(200), 5),
        ("n=800", seed0_sweep(800), 5),
        ("fleet-240", fleet240_initial(), 5),
    ], ids=lambda x: x if isinstance(x, str) else "")
    def test_agrees_with_the_old_start(self, name, p, max_steps, caplog):
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            sol = sa.solve(p)
        assert "start cube-root quantiles" in caplog.text
        assert sol.iterations <= max_steps
        old = sa.solve(p, init=old_default_start(p))
        assert (np.max(np.abs(sol.centroids - old.centroids))
                <= 1e-9 * p.domain.width)
        assert abs(sol.v_k - old.v_k) <= 1e-9 * abs(old.v_k)

    def test_ten_thousand_agents_in_few_steps(self):
        sol = sa.solve(seed0_sweep(10_000))
        assert sol.residual_norm < sa.RESIDUAL_TOL
        assert sol.iterations <= 6

    @pytest.mark.parametrize("density", [
        # Quantiles of N(50, 3e-30) collapse onto a few floats near 50.
        DensitySpec("gaussian", {"sigma2": 1e-30}, free_param="mu"),
        # rho^(1/3) = N(1000, 3) has no mass left on [0, 100].
        DensitySpec("gaussian", {"mu": 1000.0}, free_param="sigma2"),
        # rho^(1/3) = N(50, 3e308) has an infinite variance.
        DensitySpec("gaussian", {"sigma2": 1e308}, free_param="mu"),
    ], ids=["collapsed", "outside", "overflowing"])
    def test_unusable_quantiles_give_no_start(self, density, monkeypatch,
                                              caplog):
        # None only where rho^(1/3) is no valid density (the overflowing
        # one); else a row that solve passes over for the next start.
        guess = sa._cube_root_guess(
            StaticProblem(DOM_100, 100, density, 5000.0))
        if guess is not None:
            with np.errstate(invalid="ignore"):  # the outside row is -inf
                assert not tess._valid_row(guess[:-1], DOM_100)
        else:
            assert density.params["sigma2"] == 1e308
        falls_through_to_equally_spaced(guess, 100, monkeypatch, caplog)

    @pytest.mark.parametrize("n", [16, 50, 800])
    @pytest.mark.parametrize("family", sorted(FAMILIES) + ["collapsed"])
    def test_start_row_equals_the_concatenated_quantiles(self, family, n,
                                                         monkeypatch, caplog):
        # The start row that _quantiles writes in place has the bits of the
        # concatenation the start was built by, usable or not.  The
        # collapsed Gaussian's quantiles tie, and solve passes over them.
        if family == "collapsed":
            density, mean = DensitySpec("gaussian", {"sigma2": 1e-30},
                                        free_param="mu"), 50.0
        else:
            density, mean = FAMILIES[family]
        p = StaticProblem(DOM_100, n, density, mean * n)
        d, dom = sa._moment_density(p), p.domain
        v0, d3 = d.params[density.free_param], cube_root_density(d)
        oracle = np.concatenate((sa._quantiles(d3, sa._levels(n), dom), [v0]))
        z = oracle[:-1]
        usable = dom.a < z[0] and z[-1] < dom.b and np.all(np.diff(z) > 0)
        got = sa._cube_root_guess(p)
        assert usable == tess._valid_row(z, dom)
        assert usable == (family != "collapsed")
        assert np.array_equal(bits(got), bits(oracle))
        assert got.shape == (n + 1,) and got.flags.c_contiguous
        if family == "collapsed":
            assert np.any(np.diff(z) == 0)
            falls_through_to_equally_spaced(got, n, monkeypatch, caplog)

    @pytest.mark.parametrize("density, r, v0", [
        (DensitySpec("gamma", {"k": 3.0}, free_param="theta"), 3000.0, 10.0),
        (DensitySpec("uniform", {"b": 100.0}, free_param="a"), 6000.0, 20.0),
    ], ids=["gamma-theta", "uniform-a"])
    def test_moment_guess_matches_the_mean(self, density, r, v0):
        # The free parameter at which the untruncated density's mean is r/N.
        assert sa._moment_guess(StaticProblem(DOM_100, 100, density, r)) == v0

    def test_invalid_moment_guess_gives_no_start(self):
        # U(60, b) with mean 50 needs b = 40 < a: no density to take
        # quantiles of.
        d = DensitySpec("uniform", {"a": 60.0}, free_param="b")
        p = StaticProblem(DOM_100, 100, d, 5000.0)
        assert sa._moment_guess(p) == 40.0
        assert sa._moment_density(p) is None
        assert sa._quantile_guess(p) is None
        assert sa._cube_root_guess(p) is None

    @pytest.mark.parametrize("guess", [
        lambda p: None,
        lambda p: sa.default_initial_guess(p)[::-1].copy(),
    ], ids=["none", "invalid"])
    def test_falls_through_to_equally_spaced(self, guess, monkeypatch,
                                             caplog):
        p = StaticProblem(DOM_100, 100, WIDE_GAUSS_FREE_MU, 3000.0)
        falls_through_to_equally_spaced(guess(p), 100, monkeypatch, caplog)

    def test_gamma_quantiles_equal_scipy_stats(self):
        stats = pytest.importorskip("scipy.stats")
        q = (np.arange(800) + 0.5) / 800
        for k in np.geomspace(0.05, 60.0, 30):
            for theta in (0.1, 1.0, 10.0, 300.0):
                d = DensitySpec("gamma", {"k": k, "theta": theta})
                assert np.array_equal(sa._quantiles(d, q),
                                      stats.gamma.ppf(q, k, scale=theta))


def dense_solve(p, monkeypatch):
    """p solved on the dense path, whatever its N."""
    with monkeypatch.context() as m:
        m.setattr(sa, "N_DENSE", max(sa.N_DENSE, p.n_agents))
        return sa.solve(p)


def converges(solve, p):
    try:
        return solve(p).residual_norm < sa.RESIDUAL_TOL
    except SolverDiverged:
        return False


class TestBandedAboveShippedN:
    """Only the shipped scenario's N = 15 and below take the dense path;
    every larger solve, the N = 50 ones of Acceptance 2 and 3 included, is
    banded."""

    def test_dense_path_ends_at_the_shipped_n(self):
        sc = Scenario.from_config(json.loads(SHIPPED.read_text()))
        assert sc.n_agents <= sa.N_DENSE < 16

    def test_n50_solves_agree_with_the_dense_path(self, acceptance3_problems,
                                                  caplog, monkeypatch):
        # The static-sweep N = 50 problem is the first Acceptance-3 one.
        assert seed0_sweep(50) == acceptance3_problems[0][1]
        for label, p in acceptance3_problems:
            caplog.clear()
            with caplog.at_level(logging.DEBUG,
                                 logger="cvtalloc.static_alloc"):
                sol = sa.solve(p)
            assert "N = 50: banded Newton steps" in caplog.text, label
            assert sol.residual_norm < sa.RESIDUAL_TOL, label
            dense = dense_solve(p, monkeypatch)
            assert (np.max(np.abs(sol.centroids - dense.centroids))
                    <= 1e-9 * p.domain.width), label
            assert abs(sol.v_k - dense.v_k) <= 1e-9, label

    @pytest.mark.parametrize("p", [
        StaticProblem(DOM_100, 50, DensitySpec(
            "gaussian", {"sigma2": 25.0}, free_param="mu"), 10.0 * 50),
        StaticProblem(DOM_100, 50, DensitySpec(
            "gaussian", {"sigma2": 25.0}, free_param="mu"), 90.0 * 50),
        StaticProblem(Domain1D(0.0, 300.0), 50, DensitySpec(
            "gamma", {"theta": 20.0}, free_param="k"), 40.0 * 50),
    ], ids=["gauss-s2=25-r/N=10", "gauss-s2=25-r/N=90", "gamma-theta=20"])
    def test_solves_what_the_dense_path_could_not(self, p, monkeypatch):
        # The dense path's line search stalls far from these solutions.
        with pytest.raises(SolverDiverged, match="line search stalled"):
            dense_solve(p, monkeypatch)
        sol = sa.solve(p)
        assert sol.residual_norm < sa.RESIDUAL_TOL
        assert abs(np.sum(sol.centroids) - p.r) < 1e-6
        d = bind_free_parameter(p.density, sol.v_k)
        assert is_cvt(sol.centroids, d, p.domain, tol=1e-7)

    @pytest.mark.parametrize("n", [16, 32, 50, 64])
    def test_converges_wherever_the_dense_path_does(self, n, monkeypatch):
        # Means on both sides of each family's bulk, some of which neither
        # path solves (the exponential at r/N = 50, uniform free b at 70).
        cases = {"gaussian": (10.0, 30.0, 90.0),
                 "exponential": (10.0, 30.0, 50.0),
                 "gamma": (10.0, 30.0, 70.0),
                 "uniform": (30.0, 45.0, 70.0)}
        dense_solved = 0
        for family, means in cases.items():
            density, _ = FAMILIES[family]
            for mean in means:
                p = StaticProblem(DOM_100, n, density, mean * n)
                dense = converges(lambda q: dense_solve(q, monkeypatch), p)
                dense_solved += dense
                assert converges(sa.solve, p) or not dense, (family, mean)
        assert dense_solved >= 8


class TestInvariantsAndProperties:
    def test_constraint_conservation_and_cvt_consistency(self):
        for r in (1500.0, 2000.0, 2500.0):
            p = StaticProblem(domain=DOM_100, n_agents=20,
                              density=GAUSS_FREE_MU, r=r * 20.0 / 50.0)
            sol = sa.solve(p)
            assert abs(np.sum(sol.centroids) - p.r) < 1e-6
            d = bind_free_parameter(GAUSS_FREE_MU, sol.v_k)
            assert is_cvt(sol.centroids, d, DOM_100, tol=1e-7)

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
        bad = sa.StaticSolution(sol.centroids, sol.v_k * 1.1,
                                sol.residual_norm, sol.iterations,
                                sol.residual_history)
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

    def test_lloyd_final_displacement_shows_the_noise_floor(
            self, acceptance3_reports):
        # Each "tol" stop ends below CROSSVAL_LLOYD_TOL; the gamma run,
        # which stagnates, ends on its noise floor above it (5.3e-12 on
        # [0, 300]).
        for label, p, report in acceptance3_reports:
            moved = report.lloyd_final_displacement
            if label.startswith("gamma"):
                assert sa.CROSSVAL_LLOYD_TOL < moved < 1e3 * sa.CROSSVAL_LLOYD_TOL
            else:
                assert 0.0 < moved < sa.CROSSVAL_LLOYD_TOL, label

    def test_report_carries_the_lloyd_run(self, monkeypatch):
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        runs, real = [], tess.lloyd
        monkeypatch.setattr(tess, "lloyd", lambda *args, **kwargs: (
            runs.append(real(*args, **kwargs)) or runs[-1]))
        report = sa.cross_validate(sa.solve(p), p)
        (t,) = runs
        assert (report.lloyd_stop, report.lloyd_iterations,
                report.lloyd_final_displacement) == (
            t.stop_reason, t.iterations, t.final_displacement)

    def test_budget_stop_never_passes(self, monkeypatch):
        # At 3000 iterations Lloyd is already within every comparison gate,
        # but a run cut off by its budget is not accepted.
        p = StaticProblem(domain=DOM_100, n_agents=50,
                          density=GAUSS_FREE_MU, r=2500.0)
        monkeypatch.setattr(tess, "REFERENCE_MAX_ITER", 3000)
        report = sa.cross_validate(sa.solve(p), p)
        assert report.lloyd_stop == "budget"
        assert report.lloyd_iterations == 3000
        assert report.max_discrepancy < 1e-6 * DOM_100.width
        assert abs(report.sum_solver - 2500.0) < 1e-6
        assert abs(report.sum_lloyd - 2500.0) < 1e-6
        assert not report.passed


def acceptance2_scaled(s, n):
    """Acceptance 2 with every length scaled by s: N(mu, 4 s^2) with a free
    mean on [0, 100 s], r = 50 N s."""
    return StaticProblem(Domain1D(0.0, 100.0 * s), n, DensitySpec(
        "gaussian", {"sigma2": 4.0 * s * s}, free_param="mu"), 50.0 * n * s)


class TestScaledProblem:
    """solve's and cross_validate's tolerances scale with a domain narrower
    than 100, so that a problem scaled by s converges to the scaled
    solution; from a width of 100 up they are unscaled."""

    @pytest.mark.parametrize("n", [15, 50])
    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3])
    def test_scaled_solve_agrees_with_the_unscaled_one(self, s, n):
        p, ref = acceptance2_scaled(s, n), sa.solve(acceptance2_scaled(1.0, n))
        sol = sa.solve(p)
        assert (np.max(np.abs(sol.centroids / s - ref.centroids))
                <= 1e-9 * DOM_100.width)
        assert sa.cross_validate(sol, p).passed

    @pytest.mark.parametrize("width", [100.0, 1e3, 1.7e308])
    def test_tolerances_are_unscaled_from_width_100(self, width):
        # RESIDUAL_TOL * min(1, width / 100), not 1e-11 * width, whose
        # float64 value at width 100 is 9.999999999999999e-10.
        assert sa._tolerance_scale(Domain1D(0.0, width)) == 1.0


def banded_jacobian_before(u, f, m0, p):
    """_banded_jacobian as it was before it read the evaluation's cells,
    where f = residual(u, p) and m0 = cell_masses(u, p): it built the
    midpoints, bound the free parameter and called pdf itself."""
    n = p.n_agents
    z = u[:n]
    c = z - f[:n]
    m = tess._midpoint_boundaries(z, p.domain)
    half = 0.5 * bind_free_parameter(p.density, u[n]).pdf(m)
    lo = half[:-1] * (c - m[:-1]) / m0
    hi = half[1:] * (m[1:] - c) / m0
    left, right = lo[1:], hi[:-1]
    band = np.zeros((3, n))
    band[0, 1:] = -right
    band[1] = 1.0
    band[1, 1:] -= left
    band[1, :-1] -= right
    band[2, :-1] = -left
    if (p.density.family, p.density.free_param) != ("gaussian", "mu"):
        return (band,) + sa._fd_column(u, f, p, n)
    col = np.zeros(n + 1)
    col[:n] = 2.0 * (lo + hi) - 1.0
    return band, col, 0


def bits(a):
    """The float64 values of a as int64 words: equal only bit for bit."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestKeptEvaluation:
    """One centroid-map pass per tested iterate: _evaluate keeps the
    boundaries, masses and density terms, and the banded step reads them
    instead of building its own."""

    def test_steps_equal_the_oracle(self, acceptance3_problems, monkeypatch):
        # Every banded step of the golden static solves and of fleet-240's
        # initialize solve: the evaluation has residual's bits, and the
        # band, the column and the bordered step have the oracle's.  The
        # spy copies what it sees out of the solve's workspace, which the
        # next evaluation and step write over.
        problems = static_problems(acceptance3_problems)
        seen = []
        real = sa._banded_jacobian

        def spy(u, f, cells, p, ws):
            out = real(u, f, cells, p, ws)
            seen.append((u.copy(), f.copy(), (None, None, cells[2].copy()),
                         p, out[0].copy(), out[1].copy()))
            return out

        monkeypatch.setattr(sa, "_banded_jacobian", spy)
        for p in problems.values():
            sa.solve(p)
        sim.initialize(Scenario.from_config(fleet_config(240)))
        assert seen[-1][3].n_agents == 240
        assert len(seen) >= 4 * (len(problems) + 1)
        for u, f, cells, p, band, col in seen:
            f0, m0 = sa.residual(u, p), cell_masses(u, p)
            assert np.array_equal(bits(f), bits(f0))
            assert np.array_equal(bits(cells[2]), bits(m0))
            band0, col0, _ = banded_jacobian_before(u, f0, m0, p)
            assert np.array_equal(bits(band), bits(band0))
            assert np.array_equal(bits(col), bits(col0))
            ws = workspace(p.n_agents)
            step = sa._bordered_step(band, col, f, ws).copy()
            assert np.array_equal(bits(step), bits(
                sa._bordered_step(band0, col0, f0, ws)))

    @pytest.mark.parametrize("family, pdf_per_step", [
        ("gaussian", 0), ("exponential", 1), ("gamma", 1), ("uniform", 1)])
    def test_work_per_iterate(self, family, pdf_per_step, monkeypatch):
        # At most one centroid map and one set of midpoints per
        # evaluation, be it an _evaluate or a residual for a differenced
        # column, and exactly one per evaluation that keeps its cells; no
        # pdf for a Gaussian mu step, whose density comes from the terms'
        # exp, and one pdf call per step for the other families.
        density, mean = FAMILIES[family]
        init = None
        if family == "uniform":  # whose quantile start is the solution
            p = StaticProblem(DOM_100, 200, density, 45.0 * 200)
            init = sa._quantile_guess(p)
            init[-1] *= 1.02
        else:
            p = StaticProblem(DOM_100, 200, density, mean * 200)
        calls = {}
        for owner, name in ((sa, "_evaluate"), (sa, "residual"),
                            (sa, "_banded_jacobian"),
                            (dens, "_centroid_map"),
                            (tess, "_midpoints"),
                            (DensitySpec, "pdf")):
            real = getattr(owner, name)
            calls[name] = 0

            def counting(*args, real=real, name=name, **kwargs):
                calls[name] += 1
                out = real(*args, **kwargs)
                if name == "_evaluate" and out[2] is not None:
                    calls["kept"] += 1
                return out

            monkeypatch.setattr(owner, name, counting)
        calls["kept"] = 0
        sol = sa.solve(p, init)
        assert sol.residual_norm < sa.RESIDUAL_TOL
        steps = calls["_banded_jacobian"]
        assert steps == sol.iterations >= 1
        assert calls["residual"] == (family != "gaussian") * steps
        maps = calls["_centroid_map"]
        assert maps == calls["_midpoints"]
        assert (calls["kept"] + calls["residual"] <= maps
                <= calls["_evaluate"] + calls["residual"])
        assert calls["pdf"] == pdf_per_step * steps

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_candidate_checks_equal_residuals(self, family, n):
        # _evaluate rejects exactly what residual raises InvalidCandidate
        # for, and otherwise has its bits: the default start with one
        # unknown at a time set non-finite, onto or past a domain end,
        # onto its neighbour or within the duplicate gap of it, and the
        # free parameter far from the start.
        density, mean = FAMILIES[family]
        p = StaticProblem(DOM_100, n, density, mean * n)
        start = sa.default_initial_guess(p)
        candidates = [start]
        for j in range(n + 1):
            near = start[j - 1] + 0.5 * tess.DUPLICATE_GAP_FRACTION * 100.0
            for value in (np.nan, np.inf, -np.inf, 0.0, 100.0, -1.0, 1e4,
                          start[j - 1], near, -start[j]):
                u = start.copy()
                u[j] = value
                candidates.append(u)
        rejected = 0
        for u in candidates:
            f, norm, cells = evaluation(u, p)
            try:
                f0 = sa.residual(u, p)
            except InvalidCandidate:
                assert (f, norm, cells) == (None, math.inf, None)
                rejected += 1
                continue
            assert np.array_equal(bits(f), bits(f0))
            assert norm == np.linalg.norm(f0)
        assert 0 < rejected < len(candidates)


def stall_problem():
    """A banded gamma free-k solve whose line search stalls (TestOneExit)."""
    return StaticProblem(Domain1D(0.0, 300.0), 20, DensitySpec(
        "gamma", {"theta": 100.0}, free_param="k"), 1000.0)


class TestWorkspaceLifetime:
    """A solve writes every evaluation and banded step into one workspace
    made for that call: nothing it returns or raises is written over by a
    later solve, and no evaluation reads what an earlier one left there."""

    def test_a_second_solve_leaves_the_first_solution(self):
        first = sa.solve(seed0_sweep(50))
        kept = (first.centroids.copy(), first.v_k, first.residual_history)
        sa.solve(seed0_sweep(50))
        sa.solve(seed0_sweep(200))
        sa.solve(StaticProblem(DOM_100, 15, GAUSS_FREE_MU, 750.0))
        assert np.array_equal(bits(first.centroids), bits(kept[0]))
        assert (first.v_k, first.residual_history) == kept[1:]

    @pytest.mark.parametrize("budget", [None, 2], ids=["stall", "budget"])
    def test_another_solve_leaves_a_diverged_best(self, budget, monkeypatch):
        # The stalled gamma solve, and a Gaussian one cut off after two
        # steps, whose best is a line-search candidate row.
        if budget is not None:
            monkeypatch.setattr(sa, "MAX_NEWTON_ITER", budget)
        p = stall_problem() if budget is None else seed0_sweep(50)
        with pytest.raises(SolverDiverged) as exc:
            sa.solve(p)
        best, norm = exc.value.best.copy(), exc.value.residual_norm
        with pytest.raises(SolverDiverged):
            sa.solve(p)
        monkeypatch.undo()
        sa.solve(seed0_sweep(50))
        assert np.array_equal(bits(exc.value.best), bits(best))
        assert exc.value.residual_norm == norm
        assert carries_its_best(exc.value, p)

    @pytest.mark.parametrize("case", [
        "empty cell, banded", "empty cell, dense", "empty cube-root cells",
        "invalid cube-root parameter"])
    def test_a_failed_start_leaves_no_trace(self, case, monkeypatch, caplog):
        # A start whose evaluation fails after it wrote the midpoints or the
        # kernel's buffers (an EmptyCell), or before (an invalid free
        # parameter), and the next start: the bits of a solve given that
        # start.
        if case == "empty cell, dense":  # equally spaced, then quantiles
            p = StaticProblem(Domain1D(0.0, 3000.0), 15, DensitySpec(
                "gaussian", {"sigma2": 25.0}, free_param="mu"), 15000.0)
            taken, used = "density quantiles", sa._quantile_guess
        elif case == "invalid cube-root parameter":
            p = StaticProblem(DOM_100, 100, FAMILIES["gamma"][0], 3000.0)
            bad = sa._cube_root_guess(p)
            bad[-1] = -1.0  # k = -1
            monkeypatch.setattr(sa, "_cube_root_guess", lambda p: bad)
            taken, used = "equally spaced", sa.default_initial_guess
        else:  # TestEmptyCellRule.P: the equally spaced cells are empty
            p = TestEmptyCellRule.P
            empty = sa.default_initial_guess(p)
            monkeypatch.setattr(sa, "_cube_root_guess", lambda p: (
                None if case == "empty cell, banded" else empty.copy()))
            taken, used = "density quantiles", sa._quantile_guess
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.static_alloc"):
            sol = sa.solve(p)
        assert caplog.text.rstrip().endswith(f"start {taken}")
        ref = sa.solve(p, init=used(p))
        assert np.array_equal(bits(sol.centroids), bits(ref.centroids))
        assert (sol.v_k, sol.residual_history) == (ref.v_k,
                                                   ref.residual_history)

    @pytest.mark.parametrize("n, family", [
        (sa.N_DENSE, "gaussian"), (50, "gaussian"), (200, "exponential"),
        (200, "gamma"), (200, "uniform")])
    def test_each_step_reads_what_a_fresh_workspace_gives(self, n, family,
                                                          monkeypatch):
        # At every Newton step of a solve, the f, norm and cells of the
        # accepted iterate equal a fresh workspace's evaluation of it bit
        # for bit: the shared workspace holds that iterate's evaluation and
        # nothing a rejected candidate or an earlier iterate left.
        density, mean = FAMILIES[family]
        init = None
        if family == "uniform":  # whose quantile start is the solution
            mean = 45.0
            init = sa._quantile_guess(StaticProblem(DOM_100, n, density,
                                                    mean * n))
            init[-1] *= 1.02
        p = StaticProblem(DOM_100, n, density, mean * n)
        real, checked = sa._newton_step, []

        def newton_step(u, f, cells, problem, ws):
            g, norm, fresh = evaluation(u, problem)
            assert np.array_equal(bits(f), bits(g))
            assert math.sqrt(f.dot(f)) == norm
            assert cells[0] == fresh[0]
            for a, b in zip(cells[1:], fresh[1:]):
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(bits(a), bits(b))
            checked.append(1)
            return real(u, f, cells, problem, ws)

        monkeypatch.setattr(sa, "_newton_step", newton_step)
        sol = sa.solve(p, init)
        assert sol.residual_norm < sa.RESIDUAL_TOL
        assert len(checked) == sol.iterations >= 1
