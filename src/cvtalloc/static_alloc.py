"""Exact static allocation: the N+1 nonlinear system for a constrained CVT.

The N centroid fixed-point equations (with midpoint cell boundaries) are
augmented with one constraint row, by default sum(z) = r, and solved jointly
for the centroids and the density family's single free parameter.

Each Newton step solves a linear system in the Jacobian of that residual.
Centroid row i depends only on z_{i-1}, z_i, z_{i+1} and the free parameter,
so the Jacobian is tridiagonal plus one border row and one border column
(the 1-D Lloyd-Newton structure; Du, Faber & Gunzburger 1999).  Every step
builds those three parts.  Up to N_DENSE agents the tridiagonal is
differenced and the bordered matrix solved densely; above, the tridiagonal
is filled analytically and the bordered system solved in O(N).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from . import density as dens
from . import tessellation as tess
from .density import DensitySpec, bind_free_parameter
from .errors import (
    DuplicateGenerators,
    EmptyCell,
    GeneratorOutOfDomain,
    InfeasibleProblem,
    InvalidCandidate,
    InvalidParameterValue,
    SolverDiverged,
    UnsortedGenerators,
)
from .tessellation import Domain1D, Tessellation

__all__ = ["StaticProblem", "StaticSolution", "CrossValidationReport",
           "residual", "solve", "cross_validate"]

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9
MAX_NEWTON_ITER = 200
FD_STEP = 1e-7
ARMIJO_C = 1e-4
MIN_ALPHA = 1e-12
# Largest N solved with the dense difference Jacobian.  The dense solve
# gives the same bytes at any BLAS thread count only up to about N = 80.
N_DENSE = 64
CROSSVAL_LLOYD_TOL = 1e-12


@dataclass(frozen=True)
class StaticProblem:
    """Allocate r among n_agents on domain under a density with one free
    parameter.  The constraint row defaults to sum(z) - r and may be replaced
    by any function R^N -> R."""

    domain: Domain1D
    n_agents: int
    density: DensitySpec
    r: float
    constraint: Callable[[np.ndarray], float] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.density.free_param is None:
            raise ValueError("density must declare exactly one free parameter")
        mean = self.r / self.n_agents
        if not (self.domain.a < mean < self.domain.b):
            raise InfeasibleProblem(
                f"mean allocation r/N = {mean} outside ({self.domain.a}, {self.domain.b})")

    def constraint_value(self, z: np.ndarray) -> float:
        if self.constraint is not None:
            return float(self.constraint(z))
        return float(np.sum(z) - self.r)


@dataclass(frozen=True)
class StaticSolution:
    """The solved centroids and free parameter.

    ``iterations`` counts the Newton steps taken; ``residual_history`` holds
    the residual 2-norm at each Newton iterate, ending with
    ``residual_norm``."""

    centroids: np.ndarray
    v_k: float
    residual_norm: float
    tessellation: Tessellation
    iterations: int = 0
    residual_history: tuple = ()


@dataclass(frozen=True)
class CrossValidationReport:
    """Solver-vs-Lloyd agreement at the solved free parameter.

    ``lloyd_stop`` and ``lloyd_iterations`` are the Lloyd run's
    ``Tessellation.stop_reason`` and ``iterations``."""

    max_discrepancy: float
    sum_solver: float
    sum_lloyd: float
    lloyd_stop: str
    lloyd_iterations: int
    passed: bool

    @property
    def lloyd_converged(self) -> bool:
        return self.lloyd_stop == "tol"


def _split(unknowns: np.ndarray, n: int):
    u = np.asarray(unknowns, dtype=float).ravel()
    if u.size != n + 1:
        raise ValueError(f"expected {n + 1} unknowns, got {u.size}")
    return u[:n], float(u[n])


def residual(unknowns, p: StaticProblem, masses: bool = False):
    """Rows 1..N: z_i minus the centroid of its midpoint cell; row N+1: the
    constraint value (sum(z) - r by default).  With masses=True, returns
    (residual, cell masses) from the same moment evaluation.

    A candidate with unsorted, duplicate or out-of-domain centroids, an
    invalid free parameter or an empty cell raises InvalidCandidate."""
    z, v = _split(unknowns, p.n_agents)
    try:
        z = tess._validate_generators(z, p.domain)
        d = bind_free_parameter(p.density, v)
        m = tess._midpoint_boundaries(z, p.domain)
        c, m0 = dens.cell_centroids(d, m, masses=True)
    except (UnsortedGenerators, DuplicateGenerators, GeneratorOutOfDomain,
            InvalidParameterValue, EmptyCell) as exc:
        raise InvalidCandidate(str(exc)) from exc
    f = np.concatenate((z - c, [p.constraint_value(z)]))
    return (f, m0) if masses else f


def default_initial_guess(p: StaticProblem) -> np.ndarray:
    """Equally spaced centroids plus a family-specific moment guess for v_k."""
    z0 = tess.default_init(p.n_agents, p.domain)
    mean = p.r / p.n_agents
    free = p.density.free_param
    fam = p.density.family
    if fam == "gaussian" and free == "mu":
        v0 = mean
    elif fam == "exponential":
        v0 = p.n_agents / p.r if p.r > 0 else 1.0
    elif fam == "gamma" and free == "k":
        v0 = mean / p.density.params["theta"]
    elif fam == "gamma" and free == "theta":
        v0 = mean / p.density.params["k"]
    elif fam == "uniform" and free == "b":
        v0 = 2.0 * mean - p.density.params.get("a", p.domain.a)
    elif fam == "uniform" and free == "a":
        v0 = 2.0 * mean - p.density.params.get("b", p.domain.b)
    else:  # gaussian free sigma2 or anything else without a moment identity
        v0 = 1.0
    return np.concatenate((z0, [v0]))


def _quantile_guess(p: StaticProblem) -> np.ndarray | None:
    """Centroid guess at the density quantiles (i - 1/2)/N of the moment-based
    v_k.  Used when the equally spaced default leaves empty tail cells, e.g. a
    Gaussian far narrower than the domain."""
    from scipy import special, stats

    u0 = default_initial_guess(p)
    v0 = u0[-1]
    try:
        d = bind_free_parameter(p.density, v0)
    except InvalidParameterValue:
        return None
    q = (np.arange(1, p.n_agents + 1) - 0.5) / p.n_agents
    fam, par = d.family, d.params
    if fam == "gaussian":
        z = par["mu"] + math.sqrt(par["sigma2"]) * special.ndtri(q)
    elif fam == "exponential":
        z = -np.log1p(-q) / par["lam"]
    elif fam == "gamma":
        z = stats.gamma.ppf(q, par["k"], scale=par["theta"])
    else:
        z = par["a"] + (par["b"] - par["a"]) * q
    pad = 1e-9 * p.domain.width
    z = np.clip(z, p.domain.a + pad, p.domain.b - pad)
    if np.any(np.diff(z) <= 0):
        return None
    return np.concatenate((z, [v0]))


def _safe_norm(u: np.ndarray, p: StaticProblem) -> float:
    try:
        return float(np.linalg.norm(residual(u, p)))
    except InvalidCandidate:
        return np.inf


def _fd_column(u: np.ndarray, f: np.ndarray, p: StaticProblem,
               j: int) -> np.ndarray:
    """Column j of the difference Jacobian at u, where f = residual(u, p):
    a forward difference, or a backward one when the forward candidate is
    invalid.  InvalidCandidate when both are."""
    h = FD_STEP * max(1.0, abs(u[j]))
    up = u.copy()
    up[j] += h
    try:
        fj = residual(up, p)
    except InvalidCandidate:
        up[j] = u[j] - h
        try:
            fj = residual(up, p)
        except InvalidCandidate as exc:
            raise InvalidCandidate(
                f"difference Jacobian column {j}: the forward and the "
                f"backward candidate are both invalid ({exc})") from exc
        h = -h
    return (fj - f) / h


def _constraint_row(z: np.ndarray, h: np.ndarray, f_n: float,
                    p: StaticProblem) -> np.ndarray:
    """Forward differences of the constraint in each z_j by h[j], where f_n
    is its value at z.  The default sum steps the diagonal of N copies of z
    and sums each contiguous row, which keeps the pairwise order of the 1-D
    sum, so each entry equals its single-column quotient bit for bit.  A
    custom constraint is evaluated once per column."""
    n = z.size
    if p.constraint is None:
        zs = np.tile(z, (n, 1))
        zs.flat[::n + 1] += h
        return (np.sum(zs, axis=1) - p.r - f_n) / h
    out = np.empty(n)
    for j in range(n):
        zj = z.copy()
        zj[j] += h[j]
        out[j] = (p.constraint_value(zj) - f_n) / h[j]
    return out


def _fd_band(u: np.ndarray, f: np.ndarray, p: StaticProblem):
    """The forward-difference centroid block at u as the (3, N) band of
    solve_banded((1, 1), ...), and the constraint row, where
    f = residual(u, p): (band, row) from at most 3 residual evaluations.

    Centroid row i depends only on z_{i-1}, z_i, z_{i+1} and the free
    parameter, so the columns j = c (mod 3) touch disjoint rows and are
    differenced together from one evaluation per colour c (Curtis, Powell &
    Reid 1974).  Each row, and each ordering, domain and empty-cell check,
    sees exactly one perturbed column, so every entry equals the
    single-column quotient bit for bit, and a joint candidate is valid
    exactly when each of its single-column candidates is.  A colour whose
    joint candidate is invalid is redone column by column with _fd_column,
    which also gives those columns' constraint entries.
    """
    n = p.n_agents
    z = u[:n]
    h = FD_STEP * np.maximum(1.0, np.abs(z))
    band = np.zeros((3, n))
    row = _constraint_row(z, h, f[n], p)
    for c in range(min(3, n)):
        cols = np.arange(c, n, 3)
        up = u.copy()
        up[cols] += h[cols]
        try:
            fg = residual(up, p)
        except InvalidCandidate as exc:
            logger.debug("difference colour %d invalid (%s); differencing "
                         "its %d columns one at a time", c, exc, cols.size)
            for j in cols:
                col = _fd_column(u, f, p, j)
                rows = np.arange(max(j - 1, 0), min(j + 2, n))
                band[1 + rows - j, j] = col[rows]
                row[j] = col[n]
            continue
        for d in (-1, 0, 1):
            rows = cols + d
            keep = (rows >= 0) & (rows < n)
            rows, k = rows[keep], cols[keep]
            band[1 + d, k] = (fg[rows] - f[rows]) / h[k]
    return band, row


def _tridiagonal(u: np.ndarray, f: np.ndarray, m0: np.ndarray,
                 p: StaticProblem) -> np.ndarray:
    """The centroid rows' derivatives in z, exactly, as the (3, N) band of
    solve_banded((1, 1), ...), where f = residual(u, p) and m0 are the cell
    masses at u.

    By the Leibniz rule a cell [m_i, m_{i+1}] of mass M_i and centroid c_i
    has dc_i/dm_i = rho(m_i)(c_i - m_i)/M_i and
    dc_i/dm_{i+1} = rho(m_{i+1})(m_{i+1} - c_i)/M_i, and each interior
    boundary is the midpoint of its two generators.  The domain ends are
    fixed, so rho is taken at the N-1 interior boundaries only (a gamma
    density with k < 1 is infinite at 0).
    """
    n = p.n_agents
    z = u[:n]
    c = z - f[:n]  # centroid row i is z_i - c_i
    mid = tess._midpoint_boundaries(z, p.domain)[1:-1]
    rho = 0.5 * bind_free_parameter(p.density, u[n]).pdf(mid)
    left = rho * (c[1:] - mid) / m0[1:]     # dc_{i+1}/dz_i
    right = rho * (mid - c[:-1]) / m0[:-1]  # dc_i/dz_{i+1}
    band = np.zeros((3, n))
    band[0, 1:] = -right
    band[1] = 1.0
    band[1, 1:] -= left
    band[1, :-1] -= right
    band[2, :-1] = -left
    return band


def _bordered_matrix(band: np.ndarray, col: np.ndarray,
                     row: np.ndarray) -> np.ndarray:
    """The dense (N+1)² matrix [[T, col[:N]], [row, col[N]]] for the
    tridiagonal T given as a solve_banded band."""
    n = band.shape[1]
    jac = np.zeros((n + 1, n + 1))
    i = np.arange(n)
    jac[i, i] = band[1]
    jac[i[:-1], i[1:]] = band[0, 1:]
    jac[i[1:], i[:-1]] = band[2, :-1]
    jac[n, :n] = row
    jac[:, n] = col
    return jac


def _bordered_step(band: np.ndarray, col: np.ndarray, row: np.ndarray,
                   f: np.ndarray) -> np.ndarray:
    """Solve _bordered_matrix(band, col, row) step = -f in O(N): one banded
    solve with the two right-hand sides -f[:N] and col[:N], then the Schur
    complement of T for the last unknown.  The complement's sums are np.sum
    of products, not BLAS dot products, so the step is the same at any BLAS
    thread count.  A singular T or complement falls back to least squares
    on the dense matrix."""
    n = band.shape[1]
    try:
        x = solve_banded((1, 1), band, np.column_stack((-f[:n], col[:n])))
    except (np.linalg.LinAlgError, ValueError) as exc:
        reason = f"banded solve failed ({exc})"
    else:
        schur = col[n] - np.sum(row * x[:, 1])
        if schur != 0.0 and np.isfinite(schur):
            dv = (-f[n] - np.sum(row * x[:, 0])) / schur
            return np.append(x[:, 0] - dv * x[:, 1], dv)
        reason = f"Schur complement {schur:g}"
    logger.debug("%s; least-squares step on the dense matrix", reason)
    return np.linalg.lstsq(_bordered_matrix(band, col, row), -f,
                           rcond=None)[0]


def _newton_step(u: np.ndarray, f: np.ndarray, m0: np.ndarray,
                 p: StaticProblem) -> np.ndarray:
    """The Newton step at u, where (f, m0) = residual(u, p, masses=True),
    from the centroid band, the free-parameter difference column and the
    constraint row.  Up to N_DENSE agents the band and row are differenced
    (4 residual evaluations) and the bordered matrix is solved densely, by
    least squares if it is singular.  Above, the band is analytic, the
    default row is exact ones, and _bordered_step solves in O(N)."""
    n = p.n_agents
    col = _fd_column(u, f, p, n)
    if n <= N_DENSE:
        band, row = _fd_band(u, f, p)
        jac = _bordered_matrix(band, col, row)
        try:
            return np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            logger.debug("singular matrix; least-squares step")
            return np.linalg.lstsq(jac, -f, rcond=None)[0]
    z = u[:n]
    row = (np.ones(n) if p.constraint is None else
           _constraint_row(z, FD_STEP * np.maximum(1.0, np.abs(z)), f[n], p))
    return _bordered_step(_tridiagonal(u, f, m0, p), col, row, f)


def solve(p: StaticProblem, init=None) -> StaticSolution:
    """Damped Newton with Armijo backtracking on the residual 2-norm.
    Candidates that break ordering or parameter invariants are treated as
    line-search rejections.

    Each step is _newton_step; above N_DENSE agents its bytes are the same
    at any BLAS thread count."""
    u = (np.asarray(init, dtype=float).ravel() if init is not None
         else default_initial_guess(p))
    logger.debug("N = %d: %s Newton steps", p.n_agents,
                 "banded" if p.n_agents > N_DENSE else "dense")

    best_u, best_norm = u.copy(), _safe_norm(u, p)
    if not np.isfinite(best_norm) and init is None:
        fallback = _quantile_guess(p)
        if fallback is not None:
            logger.debug("default initial guess is infeasible; retrying "
                         "from the density quantiles")
            u = fallback
            best_u, best_norm = u.copy(), _safe_norm(u, p)
    if not np.isfinite(best_norm):
        raise SolverDiverged("initial guess is infeasible", best=u,
                             residual_norm=best_norm)

    history = []
    for _ in range(MAX_NEWTON_ITER):
        f, m0 = residual(u, p, masses=True)
        norm = float(np.linalg.norm(f))
        history.append(norm)
        if norm < best_norm:
            best_u, best_norm = u.copy(), norm
        if norm < RESIDUAL_TOL:
            return _package(u, tuple(history), p)

        try:
            step = _newton_step(u, f, m0, p)
        except InvalidCandidate as exc:
            raise SolverDiverged(str(exc), best=best_u,
                                 residual_norm=best_norm) from exc

        alpha = 1.0
        accepted = False
        while alpha >= MIN_ALPHA:
            cand = u + alpha * step
            cand_norm = _safe_norm(cand, p)
            if cand_norm <= (1.0 - ARMIJO_C * alpha) * norm:
                u = cand
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise SolverDiverged(
                f"line search stalled at residual norm {norm:g}",
                best=best_u, residual_norm=best_norm)

    raise SolverDiverged(
        f"no convergence in {MAX_NEWTON_ITER} iterations "
        f"(best residual norm {best_norm:g})",
        best=best_u, residual_norm=best_norm)


def _package(u: np.ndarray, history: tuple,
             p: StaticProblem) -> StaticSolution:
    z, v = _split(u, p.n_agents)
    d = bind_free_parameter(p.density, v)
    t = tess.voronoi_regions(z, p.domain, d)
    return StaticSolution(centroids=z, v_k=v, residual_norm=history[-1],
                          tessellation=t, iterations=len(history) - 1,
                          residual_history=history)


def cross_validate(sol: StaticSolution, p: StaticProblem,
                   max_iter: int = 200_000) -> CrossValidationReport:
    """Re-derive the tessellation with Lloyd's algorithm at the solved free
    parameter (default equally spaced start) and compare generators and sums.

    Lloyd converges linearly with a rate that can approach 1 for densities
    concentrated well inside the domain, so the displacement tolerance here
    is far below the comparison tolerance: the sum check needs the
    accumulated N-generator error under 1e-6.  A Lloyd run that stagnates on
    the noise floor before reaching CROSSVAL_LLOYD_TOL can still pass the
    comparison; one cut off by max_iter never passes.
    """
    d = bind_free_parameter(p.density, sol.v_k)
    t = tess.lloyd(tess.default_init(p.n_agents, p.domain), d, p.domain,
                   tol=CROSSVAL_LLOYD_TOL, max_iter=max_iter)
    disc = float(np.max(np.abs(t.generators - sol.centroids)))
    sum_solver = float(np.sum(sol.centroids))
    sum_lloyd = float(np.sum(t.generators))
    passed = (t.stop_reason != "budget"
              and disc < 1e-6 * p.domain.width
              and abs(sum_solver - p.r) < 1e-6
              and abs(sum_lloyd - p.r) < 1e-6)
    return CrossValidationReport(max_discrepancy=disc, sum_solver=sum_solver,
                                 sum_lloyd=sum_lloyd,
                                 lloyd_stop=t.stop_reason,
                                 lloyd_iterations=t.iterations, passed=passed)
