"""Exact static allocation: the N+1 nonlinear system for a constrained CVT.

The N centroid fixed-point equations (with midpoint cell boundaries) are
augmented with one constraint row, by default sum(z) = r, and solved jointly
for the centroids and the density family's single free parameter.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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


def residual(unknowns, p: StaticProblem) -> np.ndarray:
    """Rows 1..N: z_i minus the centroid of its midpoint cell; row N+1: the
    constraint value (sum(z) - r by default).

    A candidate with unsorted, duplicate or out-of-domain centroids, an
    invalid free parameter or an empty cell raises InvalidCandidate."""
    z, v = _split(unknowns, p.n_agents)
    try:
        z = tess._validate_generators(z, p.domain)
        d = bind_free_parameter(p.density, v)
        m = tess._midpoint_boundaries(z, p.domain)
        c = dens.cell_centroids(d, m)
    except (UnsortedGenerators, DuplicateGenerators, GeneratorOutOfDomain,
            InvalidParameterValue, EmptyCell) as exc:
        raise InvalidCandidate(str(exc)) from exc
    return np.concatenate((z - c, [p.constraint_value(z)]))


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


# Stepped copies of z summed at once for the default constraint row.
SUM_ROW_CHUNK = 64


def _stepped_sums(z: np.ndarray, h: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """np.sum(z) with z[j] stepped by h[j], for each j in cols.  np.sum
    along a contiguous row keeps the pairwise order of the 1-D sum, so each
    value equals the 1-D sum bit for bit."""
    out = np.empty(cols.size)
    for s in range(0, cols.size, SUM_ROW_CHUNK):
        chunk = cols[s:s + SUM_ROW_CHUNK]
        zs = np.tile(z, (chunk.size, 1))
        zs[np.arange(chunk.size), chunk] += h[chunk]
        out[s:s + chunk.size] = np.sum(zs, axis=1)
    return out


def _fd_jacobian(u: np.ndarray, f: np.ndarray,
                 p: StaticProblem) -> np.ndarray:
    """The forward-difference Jacobian of residual at u, where
    f = residual(u, p), from at most 4 residual evaluations.

    Centroid row i depends only on z_{i-1}, z_i, z_{i+1} and the free
    parameter, so the columns j = c (mod 3) touch disjoint rows and are
    differenced together from one evaluation per colour c (Curtis, Powell &
    Reid 1974).  Each row, and each ordering, domain and empty-cell check,
    sees exactly one perturbed column, so every entry equals the
    single-column quotient bit for bit, and a joint candidate is valid
    exactly when each of its single-column candidates is.  A colour whose
    joint candidate is invalid is redone column by column with _fd_column.
    The constraint row is differenced through the constraint alone: a
    custom one per column through constraint_value, the default sum from
    chunks of stepped rows with the rounding of the 1-D sum.
    """
    n = p.n_agents
    z = u[:n]
    h = FD_STEP * np.maximum(1.0, np.abs(z))
    jac = np.zeros((n + 1, n + 1))
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
                jac[:, j] = _fd_column(u, f, p, j)
            continue
        for d in (-1, 0, 1):
            rows = cols + d
            keep = (rows >= 0) & (rows < n)
            rows, k = rows[keep], cols[keep]
            jac[rows, k] = (fg[rows] - f[rows]) / h[k]
        if p.constraint is None:
            jac[n, cols] = (_stepped_sums(z, h, cols) - p.r - f[n]) / h[cols]
        else:
            for j in cols:
                zj = z.copy()
                zj[j] += h[j]
                jac[n, j] = (p.constraint_value(zj) - f[n]) / h[j]
    jac[:, n] = _fd_column(u, f, p, n)
    return jac


def solve(p: StaticProblem, init=None) -> StaticSolution:
    """Damped Newton with a forward-difference Jacobian and Armijo
    backtracking on the residual 2-norm.  Candidates that break ordering or
    parameter invariants are treated as line-search rejections."""
    u = (np.asarray(init, dtype=float).ravel() if init is not None
         else default_initial_guess(p))

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
        f = residual(u, p)
        norm = float(np.linalg.norm(f))
        history.append(norm)
        if norm < best_norm:
            best_u, best_norm = u.copy(), norm
        if norm < RESIDUAL_TOL:
            return _package(u, tuple(history), p)

        try:
            jac = _fd_jacobian(u, f, p)
        except InvalidCandidate as exc:
            raise SolverDiverged(str(exc), best=best_u,
                                 residual_norm=best_norm) from exc
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]

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
                   lloyd_tol: float = 1e-12,
                   max_iter: int = 200_000) -> CrossValidationReport:
    """Re-derive the tessellation with Lloyd's algorithm at the solved free
    parameter (default equally spaced start) and compare generators and sums.

    Lloyd converges linearly with a rate that can approach 1 for densities
    concentrated well inside the domain, so the displacement tolerance here
    is far below the comparison tolerance: the sum check needs the
    accumulated N-generator error under 1e-6.  A Lloyd run that stagnates on
    the noise floor before reaching lloyd_tol can still pass the comparison;
    one cut off by max_iter never passes.
    """
    d = bind_free_parameter(p.density, sol.v_k)
    t = tess.lloyd(tess.default_init(p.n_agents, p.domain), d, p.domain,
                   tol=lloyd_tol, max_iter=max_iter)
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
