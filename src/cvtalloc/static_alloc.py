"""Exact static allocation: the N+1 nonlinear system for a constrained CVT.

The N centroid fixed-point equations (with midpoint cell boundaries) are
augmented with the allocation constraint sum(z) = r and solved jointly for
the centroids and the density family's single free parameter.

Each Newton step solves a linear system in the Jacobian of that residual.
Centroid row i depends only on z_{i-1}, z_i, z_{i+1} and the free parameter,
so the Jacobian is tridiagonal plus one border row and one border column
(the 1-D Lloyd-Newton structure; Du, Faber & Gunzburger 1999).  Up to
N_DENSE agents, the shipped scenario's 15, the whole matrix is differenced
and solved densely, the path whose last bits the shipped output bytes pin;
above, the tridiagonal is filled analytically, as is the border column for
a Gaussian free mean, and the bordered system solved in O(N).
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import special
from scipy.linalg.lapack import dgtsv

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
    _slot_eq,
)
from .tessellation import Domain1D

__all__ = ["StaticProblem", "StaticSolution", "CrossValidationReport",
           "residual", "solve", "cross_validate"]

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9
MAX_NEWTON_ITER = 200
FD_STEP = 1e-7
ARMIJO_C = 1e-4
MIN_ALPHA = 1e-12
# Largest N solved with the dense difference Jacobian: the shipped
# scenario's n_agents, whose output bytes pin that path's last bits.  Every
# larger solve takes the banded path, which needs fewer residual
# evaluations and gives the same bytes at any BLAS thread count.
N_DENSE = 15
CROSSVAL_LLOYD_TOL = 1e-12


class StaticProblem:
    """Allocate r among n_agents on domain under a density with one free
    parameter: the centroids must sum to r."""

    __slots__ = ("domain", "n_agents", "density", "r")
    __eq__ = _slot_eq

    def __init__(self, domain: Domain1D, n_agents: int, density: DensitySpec,
                 r: float):
        if n_agents < 1:
            raise InvalidParameterValue("n_agents must be >= 1")
        if density.free_param is None:
            raise InvalidParameterValue(
                "density must declare exactly one free parameter")
        mean = r / n_agents
        if not (domain.a < mean < domain.b):
            raise InfeasibleProblem(
                f"mean allocation r/N = {mean} outside ({domain.a}, {domain.b})")
        self.domain, self.n_agents, self.density, self.r = (
            domain, n_agents, density, r)


class StaticSolution:
    """A solve's sorted centroids, free parameter v_k, final residual_norm,
    Newton iterations and residual_history (the 2-norm at each iterate).
    It holds no cells or energy: tessellation.voronoi_regions gives their
    boundaries and tessellation.energy_K, at the bound v_k, the energy."""

    __slots__ = ("centroids", "v_k", "residual_norm", "iterations",
                 "residual_history")

    def __init__(self, centroids: np.ndarray, v_k: float,
                 residual_norm: float, iterations: int = 0,
                 residual_history: tuple = ()):
        self.centroids, self.v_k, self.residual_norm = (
            centroids, v_k, residual_norm)
        self.iterations, self.residual_history = iterations, residual_history


class CrossValidationReport:
    """Solver-vs-Lloyd agreement at the solved free parameter.

    ``lloyd_stop``, ``lloyd_iterations`` and ``lloyd_final_displacement``
    are the Lloyd run's ``Tessellation.stop_reason``, ``iterations`` and
    ``final_displacement``: on a "stagnated" run the last shows how far
    above CROSSVAL_LLOYD_TOL its noise floor sits."""

    __slots__ = ("max_discrepancy", "sum_solver", "sum_lloyd", "lloyd_stop",
                 "lloyd_iterations", "passed", "lloyd_final_displacement")

    def __init__(self, max_discrepancy: float, sum_solver: float,
                 sum_lloyd: float, lloyd_stop: str, lloyd_iterations: int,
                 passed: bool, lloyd_final_displacement: float):
        self.max_discrepancy, self.sum_solver, self.sum_lloyd = (
            max_discrepancy, sum_solver, sum_lloyd)
        self.lloyd_stop, self.lloyd_iterations, self.passed = (
            lloyd_stop, lloyd_iterations, passed)
        self.lloyd_final_displacement = lloyd_final_displacement

    @property
    def lloyd_converged(self) -> bool:
        return self.lloyd_stop == "tol"


def _split(unknowns, n: int):
    u = np.asarray(unknowns, dtype=float)
    if u.ndim < 2:
        u = u.ravel()
    if u.shape[-1] != n + 1:
        raise ValueError(f"expected {n + 1} unknowns, got {u.shape[-1]}")
    v = u[..., n]
    if v.ndim and (v != v[0]).any():
        raise ValueError("the rows of a stack must share one free parameter")
    return u[..., :n], float(v.flat[0])


def residual(unknowns, p: StaticProblem):
    """Rows 1..N: z_i minus the centroid of its midpoint cell; row N+1:
    sum(z) - r.

    unknowns may be a (K, N+1) stack whose rows share one free-parameter
    value (ValueError otherwise): one moment evaluation then gives the
    (K, N+1) residuals, each row the same bits as its own call.  A
    candidate with unsorted, duplicate or out-of-domain centroids, an
    invalid free parameter or an empty cell raises InvalidCandidate; a
    stack raises it when any row is such a candidate.

    d is bound and m built as ordered floats here, all that
    density.cell_centroids checks, so d's centroid map is called directly,
    under the errstate the wrapper would open."""
    z, v = _split(unknowns, p.n_agents)
    try:
        z = tess._validate_generators(z, p.domain)
        d = bind_free_parameter(p.density, v)
        m = tess._midpoint_boundaries(z, p.domain)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            c = dens._centroid_map(d)(m)[0]
    except (UnsortedGenerators, DuplicateGenerators, GeneratorOutOfDomain,
            InvalidParameterValue, EmptyCell) as exc:
        raise InvalidCandidate(str(exc)) from exc
    f = np.empty(z.shape[:-1] + (z.shape[-1] + 1,))
    np.subtract(z, c, out=f[..., :-1])
    f[..., -1] = np.add.reduce(z, axis=-1) - p.r
    return f


def default_initial_guess(p: StaticProblem) -> np.ndarray:
    """Equally spaced centroids plus _moment_guess's v_k."""
    return np.concatenate((tess.default_init(p.n_agents, p.domain),
                           [_moment_guess(p)]))


def _moment_guess(p: StaticProblem) -> float:
    """A family-specific moment guess for v_k, which every default start
    of solve takes."""
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
    return v0


def _quantiles(d: DensitySpec, q: np.ndarray,
               domain: Domain1D | None = None) -> np.ndarray:
    """The q-quantiles of the bound density d, from the family's inverse
    CDF; with a domain, those of d truncated to it, at the levels
    F(a) + q (F(b) - F(a)) of the family's CDF F."""
    fam, par = d.family, d.params
    if fam == "gaussian":
        mu, sigma = par["mu"], math.sqrt(par["sigma2"])
        cdf = lambda x: special.ndtr((x - mu) / sigma)
        inverse = lambda q: mu + sigma * special.ndtri(q)
    elif fam == "exponential":
        lam = par["lam"]
        cdf = lambda x: -math.expm1(-lam * max(x, 0.0))
        inverse = lambda q: -np.log1p(-q) / lam
    elif fam == "gamma":
        k, theta = par["k"], par["theta"]
        cdf = lambda x: special.gammainc(k, max(x, 0.0) / theta)
        inverse = lambda q: special.gammaincinv(k, q) * theta
    else:
        a, width = par["a"], par["b"] - par["a"]
        cdf = lambda x: min(max((x - a) / width, 0.0), 1.0)
        inverse = lambda q: a + width * q
    if domain is not None:
        lo, hi = cdf(domain.a), cdf(domain.b)
        q = lo + (hi - lo) * q
    return inverse(q)


def _moment_density(p: StaticProblem) -> DensitySpec | None:
    """The density at _moment_guess's v_k; None when that value is
    invalid."""
    try:
        return bind_free_parameter(p.density, _moment_guess(p))
    except InvalidParameterValue:
        return None


def _levels(n: int) -> np.ndarray:
    return (np.arange(1, n + 1) - 0.5) / n


def _quantile_guess(p: StaticProblem) -> np.ndarray | None:
    """Centroid guess at the density quantiles (i - 1/2)/N of the moment-based
    v_k, untruncated and clipped into the domain; None when they are not
    strictly increasing.  The last default start: it takes a Gaussian far
    narrower than the domain, where the equally spaced start leaves empty
    tail cells."""
    d = _moment_density(p)
    if d is None:
        return None
    z = _quantiles(d, _levels(p.n_agents))
    pad = 1e-9 * p.domain.width
    z = np.clip(z, p.domain.a + pad, p.domain.b - pad)
    if np.any(np.diff(z) <= 0):
        return None
    return np.concatenate((z, [d.params[p.density.free_param]]))


def _cube_root_guess(p: StaticProblem) -> np.ndarray | None:
    """Centroid guess at the quantiles (i - 1/2)/N of rho^(1/3) truncated to
    the domain, rho the density at the moment-based v_k; None when they are
    not strictly increasing inside the domain.

    In 1-D the optimal quantizer's points follow rho^(1/3) as N grows (Panter
    & Dite 1951; Gersho 1979), and each family's rho^(1/3) is in the same
    family: Gaussian N(mu, 3 sigma^2), exponential of rate lambda/3,
    Gamma((k + 2)/3, 3 theta), and the uniform itself."""
    d = _moment_density(p)
    if d is None:
        return None
    v0, par = d.params[p.density.free_param], d.params
    try:
        if d.family == "gaussian":
            d = DensitySpec("gaussian", {"mu": par["mu"],
                                         "sigma2": 3.0 * par["sigma2"]})
        elif d.family == "exponential":
            d = DensitySpec("exponential", {"lam": par["lam"] / 3.0})
        elif d.family == "gamma":
            d = DensitySpec("gamma", {"k": (par["k"] + 2.0) / 3.0,
                                      "theta": 3.0 * par["theta"]})
    except InvalidParameterValue:
        return None
    z = _quantiles(d, _levels(p.n_agents), p.domain)
    if not (p.domain.a < z[0] and z[-1] < p.domain.b
            and np.all(np.diff(z) > 0)):
        return None
    return np.concatenate((z, [v0]))


def _evaluate(u: np.ndarray, p: StaticProblem) -> tuple:
    """(f, norm, cells) at u, a 1-D (N+1,) float array, from one
    centroid-map pass under the caller's np.errstate (solve holds one): f
    and norm have the bits of residual(u, p) and of its np.linalg.norm
    wherever that is finite, and cells = (d, m, m0, e), the bound density,
    boundaries, cell masses and the map's density terms, is what the banded
    step reads: m0 and e, the map's buffers, stay valid because each
    evaluation builds its own map, which nothing calls again.  (None, inf,
    None) for an invalid candidate: residual's checks, made on the one row,
    whose centroids tessellation._valid_row tests as _validate_generators
    does."""
    n, dom = p.n_agents, p.domain
    z = u[:n]
    if not tess._valid_row(z, dom):
        return None, math.inf, None
    try:
        d = bind_free_parameter(p.density, u[n])
        m = tess._midpoint_boundaries(z, dom)
        c, m0, e = dens._centroid_map(d)(m)
    except (InvalidParameterValue, EmptyCell):
        return None, math.inf, None
    f = np.empty(n + 1)
    np.subtract(z, c, out=f[:n])
    f[n] = np.add.reduce(z) - p.r
    # np.linalg.norm's own computation; where a square overflows, hypot's,
    # which scales by the largest entry.
    norm = math.sqrt(f.dot(f))
    if norm == math.inf and np.isfinite(f).all():
        norm = math.hypot(*f)
    return f, norm, (d, m, m0, e)


def _fd_column(u: np.ndarray, f: np.ndarray, p: StaticProblem, j: int):
    """Column j of the difference Jacobian at u, where f = residual(u, p):
    a forward difference, or a backward one when the forward candidate is
    invalid; InvalidCandidate when both are.  Returns (column, residual
    evaluations made)."""
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
        return (fj - f) / -h, 2
    return (fj - f) / h, 1


def _fd_jacobian(u: np.ndarray, f: np.ndarray, p: StaticProblem):
    """The forward-difference Jacobian at u, where f = residual(u, p):
    (matrix, residual evaluations made).

    The N generator columns come from one (N, N+1) residual stack whose row
    j is u with z_j stepped, the constraint row included, so every entry
    equals its single-column quotient bit for bit, and the stack is valid
    exactly when each single-column candidate is.  When it is invalid, all
    N columns are differenced one at a time with _fd_column, which steps
    backward where the forward candidate is invalid and gives the same bits
    where it is valid.  The free-parameter column is _fd_column's.
    """
    n = p.n_agents
    h = FD_STEP * np.maximum(1.0, np.abs(u[:n]))
    stack = np.tile(u, (n, 1))
    j = np.arange(n)
    stack[j, j] += h
    try:
        cols, evals = (residual(stack, p) - f) / h[:, None], 1
    except InvalidCandidate as exc:
        logger.debug("difference stack invalid (%s); differencing all %d "
                     "columns one at a time", exc, n)
        cols, evals = zip(*(_fd_column(u, f, p, k) for k in range(n)))
        evals = 1 + sum(evals)
    col, col_evals = _fd_column(u, f, p, n)
    return np.column_stack((*cols, col)), evals + col_evals


def _banded_jacobian(u: np.ndarray, f: np.ndarray, cells: tuple,
                     p: StaticProblem):
    """(band, column, residual evaluations made) for the banded Newton
    step at u, where (f, _, cells) = _evaluate(u, p): band holds the
    centroid rows' derivatives in z as a (3, N) band, column the N+1 rows'
    derivatives in the free parameter.

    By the Leibniz rule a cell [m_i, m_{i+1}] of mass M_i and centroid c_i
    has dc_i/dm_i = rho(m_i)(c_i - m_i)/M_i and
    dc_i/dm_{i+1} = rho(m_{i+1})(m_{i+1} - c_i)/M_i, and each interior
    boundary is the midpoint of its two generators, so the band is exact.
    For a Gaussian free mu so is the column, with no residual evaluation:
    mu is a location parameter, so moving mu and every boundary together
    moves c_i as much, and dc_i/dmu = 1 - dc_i/dm_i - dc_i/dm_{i+1} over
    all N+1 boundaries (the domain ends stay fixed; a Gaussian is finite
    there).  Every other free parameter's column is _fd_column's difference
    (1 evaluation).  One density value at each of the N+1 boundaries, read
    from the evaluation's cells with pdf's bits, serves both.
    """
    n = p.n_agents
    d, m, m0, e = cells
    c = u[:n] - f[:n]  # centroid row i is z_i - c_i
    # Half of each slope: an interior boundary moves half as far as either
    # generator.  A gamma density with k < 1 is infinite at 0, where pdf
    # gives 0; only the Gaussian column reads the domain ends.
    half = 0.5 * dens._pdf_at(d, m, e)
    lo = half[:-1] * (c - m[:-1]) / m0  # dc_i/dm_i / 2
    hi = half[1:] * (m[1:] - c) / m0    # dc_i/dm_{i+1} / 2
    left, right = lo[1:], hi[:-1]       # dc_{i+1}/dz_i, dc_i/dz_{i+1}
    band = np.zeros((3, n))
    band[0, 1:] = -right
    band[1] = 1.0
    band[1, 1:] -= left
    band[1, :-1] -= right
    band[2, :-1] = -left
    if (p.density.family, p.density.free_param) != ("gaussian", "mu"):
        return (band,) + _fd_column(u, f, p, n)
    col = np.zeros(n + 1)  # the constraint row does not depend on mu
    col[:n] = 2.0 * (lo + hi) - 1.0
    return band, col, 0


def _bordered_step(band: np.ndarray, col: np.ndarray,
                   f: np.ndarray) -> np.ndarray:
    """Solve [[T, col[:N]], [1 ... 1, col[N]]] step = -f in O(N), T the
    tridiagonal given as a (3, N) band in LAPACK's banded storage
    (T[i-1, i] = band[0, i], T[i, i] = band[1, i], T[i+1, i] = band[2, i]):
    one tridiagonal solve with the two right-hand sides -f[:N] and col[:N],
    then the Schur complement of T for the last unknown.

    The solve calls LAPACK's dgtsv as scipy's solve_banded does for a
    (1, 1) band, with the same bits and without its per-call argument
    checks.  The complement's sums are pairwise np.add.reduce, not BLAS
    dot products, so the step is the same at any BLAS thread count; one
    reduction along the solution's rows gives both columns' sums, each with
    its own reduction's bits.  A non-finite band or right-hand side, a
    singular T or a zero or non-finite complement raises
    InvalidCandidate."""
    n = band.shape[1]
    rhs = np.array((-f[:n], col[:n])).T  # Fortran order: solved in place
    if not (np.logical_and.reduce(np.isfinite(band), axis=None)
            and np.logical_and.reduce(np.isfinite(rhs), axis=None)):
        raise InvalidCandidate(
            "banded solve failed (non-finite band or right-hand side)")
    x, info = dgtsv(band[2, :-1], band[1], band[0, 1:], rhs,
                    overwrite_b=True)[3:]
    if info != 0:  # info > 0: a zero pivot
        raise InvalidCandidate("banded solve failed (singular matrix)")
    sums = np.add.reduce(x, axis=0)  # each column pairwise, as on its own
    schur = col[n] - sums[1]
    if schur == 0.0 or not math.isfinite(schur):
        raise InvalidCandidate(f"Schur complement {schur:g}")
    step = np.empty(n + 1)
    step[n] = dv = (-f[n] - sums[0]) / schur
    np.subtract(x[:, 0], dv * x[:, 1], out=step[:n])
    return step


def _newton_step(u: np.ndarray, f: np.ndarray, cells: tuple,
                 p: StaticProblem):
    """(step, residual evaluations made): the Newton step at u, where
    (f, _, cells) = _evaluate(u, p).

    Up to N_DENSE agents _fd_jacobian differences the whole matrix (2
    residual evaluations: one stack and the free-parameter column), which
    is solved densely.  Above, _banded_jacobian gives the band exactly and
    the column exactly for a Gaussian free mu (0 evaluations) or by
    difference otherwise (1), the constraint row is exact ones, and
    _bordered_step solves in O(N).  A system either path cannot solve
    raises InvalidCandidate."""
    if p.n_agents > N_DENSE:
        band, col, evals = _banded_jacobian(u, f, cells, p)
        return _bordered_step(band, col, f), evals
    jac, evals = _fd_jacobian(u, f, p)
    try:
        return np.linalg.solve(jac, -f), evals
    except np.linalg.LinAlgError as exc:
        raise InvalidCandidate("dense solve failed (singular matrix)") from exc


def _starts(p: StaticProblem, init):
    """solve's starts in order, as (name, unknowns or None), each guess made
    only when the start before it was not used.  A given init is the only
    start.  Otherwise: above N_DENSE the cube-root quantiles, then the
    equally spaced centroids, then the density quantiles; at or below it, as
    the shipped N = 15 solve has always started, only the last two."""
    if init is not None:
        yield "given", np.append(*_split(np.ravel(init), p.n_agents))
        return
    if p.n_agents > N_DENSE:
        yield "cube-root quantiles", _cube_root_guess(p)
    yield "equally spaced", default_initial_guess(p)
    yield "density quantiles", _quantile_guess(p)


def solve(p: StaticProblem, init=None) -> StaticSolution:
    """Damped Newton with Armijo backtracking on the residual 2-norm.
    Candidates that break ordering or parameter invariants are treated as
    line-search rejections.

    Without init, Newton starts from the first of _starts whose residual
    norm is finite: above N_DENSE agents first the quantiles of rho^(1/3)
    (the asymptotic point density of the optimal quantizer), then at any N
    the equally spaced centroids and the density quantiles, each with
    _moment_guess's v_k.  Each step is _newton_step: dense at or below
    N_DENSE (the shipped N = 15), with 2 residual evaluations; banded
    above, where its bytes are the same at any BLAS thread count, with 1,
    or none for a Gaussian free mu, whose column is analytic.  Each iterate
    is evaluated once, by _evaluate under the solve's one np.errstate: the
    accepted line-search candidate's residual, norm and cells are the next
    step's.  Every iterate is tested against RESIDUAL_TOL, the one after
    the MAX_NEWTON_ITER-th step included.

    One loop names why it stopped, and the solve ends in one place: one
    DEBUG record, converged or diverged, with its path, Newton steps,
    residual evaluations (a stack counts as one; those of a step that
    raises are not counted), final residual norm and the start it took;
    then the StaticSolution, or SolverDiverged for an infeasible start, a
    step _newton_step cannot solve (its InvalidCandidate the cause), a
    stalled line search or a spent budget.  Armijo acceptance never raises
    the norm, so the SolverDiverged of a started solve carries the last
    iterate, a best one, its norm and the history of tested norms, and
    every SolverDiverged the path and the start."""
    path = "banded" if p.n_agents > N_DENSE else "dense"
    evals, steps, norm, history, cause = 0, 0, math.nan, [], None
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for start, cand in _starts(p, init):
            if cand is not None:
                u = cand
                f, norm, cells = _evaluate(u, p)
                evals += 1
                if math.isfinite(norm):
                    break
        stop = None if math.isfinite(norm) else "initial guess is infeasible"
        while stop is None:
            history.append(norm)
            if norm < RESIDUAL_TOL:
                stop = "converged"
                break
            if steps == MAX_NEWTON_ITER:
                stop = (f"no convergence in {MAX_NEWTON_ITER} iterations "
                        f"(residual norm {norm:g})")
                break
            try:
                step, step_evals = _newton_step(u, f, cells, p)
            except InvalidCandidate as exc:
                stop, cause = str(exc), exc
                break
            evals += step_evals
            alpha = 1.0
            while alpha >= MIN_ALPHA:
                cand = u + alpha * step
                cand_f, cand_norm, cand_cells = _evaluate(cand, p)
                evals += 1
                if cand_norm <= (1.0 - ARMIJO_C * alpha) * norm:
                    u, f, cells, norm = cand, cand_f, cand_cells, cand_norm
                    steps += 1
                    break
                alpha *= 0.5
            else:
                stop = f"line search stalled at residual norm {norm:g}"
    converged = stop == "converged"
    logger.debug("N = %d: %s Newton steps %d, residual evaluations %d, "
                 "final residual norm %.3g, %s, start %s", p.n_agents, path,
                 steps, evals, norm, "converged" if converged else "diverged",
                 start)
    if not converged:
        raise SolverDiverged(stop, best=u, residual_norm=norm,
                             history=tuple(history), path=path,
                             start=start) from cause
    z, v = _split(u, p.n_agents)
    return StaticSolution(centroids=z, v_k=v, residual_norm=norm,
                          iterations=steps, residual_history=tuple(history))


def cross_validate(sol: StaticSolution, p: StaticProblem) -> CrossValidationReport:
    """Re-derive the tessellation with Lloyd's algorithm at the solved free
    parameter (default equally spaced start) and compare generators and sums.

    Lloyd converges linearly with a rate that can approach 1 for densities
    concentrated well inside the domain, so the displacement tolerance here
    is far below the comparison tolerance: the sum check needs the
    accumulated N-generator error under 1e-6.  A Lloyd run that stagnates on
    the noise floor before reaching CROSSVAL_LLOYD_TOL can still pass the
    comparison; one cut off by tessellation.REFERENCE_MAX_ITER never passes.
    """
    d = bind_free_parameter(p.density, sol.v_k)
    t = tess.lloyd(tess.default_init(p.n_agents, p.domain), d, p.domain,
                   tol=CROSSVAL_LLOYD_TOL, max_iter=tess.REFERENCE_MAX_ITER)
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
                                 lloyd_iterations=t.iterations, passed=passed,
                                 lloyd_final_displacement=t.final_displacement)
