"""1-D Voronoi tessellations, energy functionals, and Lloyd's fixed point.

Generators on an interval [a, b] induce cell boundaries at midpoints of
adjacent generators; Lloyd's algorithm alternates that construction with
per-cell mass centroids until the generators stop moving.
"""

from __future__ import annotations

import contextlib
import logging
import math

import numpy as np

from . import density as dens
from .density import DensitySpec
from .errors import (
    DuplicateGenerators,
    GeneratorOutOfDomain,
    InvalidParameterValue,
    UnsortedGenerators,
    _slot_eq,
)

__all__ = [
    "Domain1D",
    "Tessellation",
    "voronoi_regions",
    "energy_K",
    "lloyd",
    "default_init",
]

# Generators closer than this fraction of the domain width collapse the
# midpoint parameterization and are rejected.
DUPLICATE_GAP_FRACTION = 1e-12

# Default Lloyd stopping displacement, as a fraction of the domain width.
LLOYD_TOL_FRACTION = 1e-10
LLOYD_MAX_ITER = 10_000
# Lloyd budget of the reference runs that check a result against Lloyd:
# static_alloc.cross_validate and dynamic_alloc.verify_shift_property.
REFERENCE_MAX_ITER = 200_000
# Lloyd stops as stagnated once its max displacement has set no new minimum
# for this many iterations: it has reached the floating-point noise floor of
# the centroid map and further iterations only resample that noise.
LLOYD_STALL_WINDOW = 1000

logger = logging.getLogger(__name__)


class Domain1D:
    """The bounded resource interval Omega = [a, b]."""

    __slots__ = ("a", "b")
    __eq__ = _slot_eq

    def __init__(self, a: float, b: float):
        if not (np.isfinite(a) and np.isfinite(b)):
            raise InvalidParameterValue("domain endpoints must be finite")
        if not a < b:
            raise InvalidParameterValue(f"domain requires a < b, got [{a}, {b}]")
        # On Python floats: a NumPy scalar's overflow would warn.
        if math.isinf(float(b) - float(a)):
            raise InvalidParameterValue(
                f"domain width b - a overflows, got [{a}, {b}]")
        self.a, self.b = a, b

    @property
    def width(self) -> float:
        return self.b - self.a


class Tessellation:
    """A Lloyd run's result: the sorted generators, their midpoint cell
    boundaries, the energy K, the updates made (``iterations``), the max
    generator move of the last one (``final_displacement``, 0 when there
    was none) and why the run ended (``stop_reason``): "tol" (displacement
    below the tolerance), "stagnated" (no new minimum displacement for
    LLOYD_STALL_WINDOW iterations) or "budget" (max_iter reached)."""

    __slots__ = ("generators", "boundaries", "energy", "stop_reason",
                 "iterations", "final_displacement")

    def __init__(self, generators: np.ndarray, boundaries: np.ndarray,
                 energy: float, stop_reason: str, iterations: int,
                 final_displacement: float):
        self.generators, self.boundaries = generators, boundaries
        self.energy, self.stop_reason = energy, stop_reason
        self.iterations = iterations
        self.final_displacement = final_displacement

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


def _valid_row(z: np.ndarray, dom: Domain1D) -> bool:
    """Whether the non-empty 1-D float generators z pass
    _validate_generators: strictly increasing by at least the duplicate
    gap and inside (a, b).  A NaN or infinite generator fails one of the
    comparisons.  static_alloc tests each Newton iterate with it."""
    gap = np.minimum.reduce(z[1:] - z[:-1], initial=np.inf)
    return bool(gap >= DUPLICATE_GAP_FRACTION * dom.width
                and dom.a < z[0] and z[-1] < dom.b)


def _validate_generators(generators, dom: Domain1D) -> np.ndarray:
    """Checked along the last axis: a (K, N) stack fails if any row does.
    A 1-D row is accepted by _valid_row; the checks after it name the rule
    a failing row or stack breaks."""
    z = np.asarray(generators, dtype=float)
    if z.shape[-1] == 0:
        raise InvalidParameterValue("need at least one generator")
    if z.ndim == 1 and _valid_row(z, dom):
        return z
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise GeneratorOutOfDomain("generators must be finite")
    gap = np.minimum.reduce(z[..., 1:] - z[..., :-1], axis=None,
                            initial=np.inf)
    if gap < 0:
        raise UnsortedGenerators("generators must be strictly increasing")
    if gap < DUPLICATE_GAP_FRACTION * dom.width:
        raise DuplicateGenerators(
            f"adjacent generators closer than {DUPLICATE_GAP_FRACTION:g} * width")
    if min(z[..., 0].flat) <= dom.a or max(z[..., -1].flat) >= dom.b:
        raise GeneratorOutOfDomain(
            f"generators must lie inside ({dom.a}, {dom.b})")
    return z


def _midpoint_boundaries(z: np.ndarray, dom: Domain1D) -> np.ndarray:
    """The domain ends and the midpoints of z, along its last axis."""
    m = np.empty(z.shape[:-1] + (z.shape[-1] + 1,))
    m[..., 0], m[..., -1] = dom.a, dom.b
    _midpoints(z[..., :-1], z[..., 1:], _sums_overflow(dom), m[..., 1:-1])
    return m


def _sums_overflow(dom: Domain1D) -> bool:
    """Whether the sum of two points of dom can overflow: only past half
    the largest float."""
    return math.isinf(2.0 * float(dom.a)) or math.isinf(2.0 * float(dom.b))


_NO_ERRSTATE = contextlib.nullcontext()


def _midpoints(lo: np.ndarray, hi: np.ndarray, wide: bool,
               out: np.ndarray) -> None:
    """out = (lo + hi) / 2 for points lo <= hi of a domain; when wide, as
    _sums_overflow of the domain says, lo / 2 + hi / 2 where that sum
    overflows.  lloyd passes fixed views and a wide chosen once per run."""
    with np.errstate(over="ignore") if wide else _NO_ERRSTATE:
        np.add(lo, hi, out=out)
    out *= dens._HALF
    if wide:
        big = np.isinf(out)
        out[big] = 0.5 * lo[big] + 0.5 * hi[big]


def voronoi_regions(generators, dom: Domain1D) -> np.ndarray:
    """The N+1 boundaries of the Voronoi cells that the checked generators
    induce on dom: its ends and the midpoints of adjacent generators."""
    return _midpoint_boundaries(_validate_generators(np.ravel(generators), dom),
                                dom)


def _energy_of_cells(points: np.ndarray, m: np.ndarray,
                     d: DensitySpec) -> float:
    """The second moment of (x - point) under d summed over the cells of
    the ordered boundaries m, from d's moment kernel at order 2;
    InvalidParameterValue, naming the domain, when the sum is not finite."""
    with np.errstate(all="ignore"):
        m0, m1, m2, _ = dens._cell_moments(d)(m, 2)
        per_cell = m2 - 2.0 * points * m1 + points * points * m0
        energy = float(np.sum(np.maximum(per_cell, 0.0)))
    if not np.isfinite(energy):
        raise InvalidParameterValue(
            f"the quantization energy on [{m[0]}, {m[-1]}] is not a finite "
            f"float64 ({energy})")
    return energy


def energy_K(points, d: DensitySpec, dom: Domain1D) -> float:
    """Quantization energy: the sum over the Voronoi cells of the points of
    the density-weighted squared distance to each cell's point."""
    z = _validate_generators(np.ravel(points), dom)
    return _energy_of_cells(z, _midpoint_boundaries(z, dom), d)


def default_init(n: int, dom: Domain1D) -> np.ndarray:
    """N equally spaced points at a + (i - 1/2) * width / N; where
    (i - 1/2) * width overflows, at a + (i - 1/2) * (width / N)."""
    k = np.arange(1, n + 1) - 0.5
    with np.errstate(over="ignore"):
        z = dom.a + k * dom.width / n
    big = np.isinf(z)
    if big.any():
        z[big] = dom.a + k[big] * (dom.width / n)
    return z


def lloyd(init, d: DensitySpec, dom: Domain1D, tol: float | None = None,
          max_iter: int = LLOYD_MAX_ITER, record_history: bool = False):
    """Lloyd's algorithm from the given generators.

    Stops at the first iterate whose max generator displacement is below tol
    (default 1e-10 * domain width), with stop_reason "tol".  Lloyd converges
    only linearly, and a tolerance below the noise floor of the centroid map
    is never met; so the iteration also stops, with stop_reason "stagnated",
    once the max displacement has set no new minimum for LLOYD_STALL_WINDOW
    iterations.  After max_iter iterations it stops with stop_reason
    "budget".  Every stop returns the last iterate rather than raising, and
    only a "tol" stop has converged=True.  A NaN displacement (from moments
    that overflow) raises GeneratorOutOfDomain, and so does a final
    generator on an end of the domain, where the centroid of a cell whose
    moments overflow is clamped.  Each call logs one DEBUG record with the
    stop reason, the iteration count and the final displacement.

    d is checked, its centroid map built, one np.errstate opened and the
    midpoints' overflow rule chosen once per run, not once per iteration;
    the errstate covers the whole loop, midpoints and displacements too.
    The domain ends are written once.  But for a uniform d, whose kernel
    allocates its moments, no iteration allocates array data: the map
    writes its terms and moments into its own buffers and the centroids
    into the one of two run buffers that the last iterate is not in, and
    the interior midpoints and the displacement go into fixed views.  So
    the returned generators and boundaries, like the history's copies,
    belong to this run alone.

    Returns the Tessellation, or (Tessellation, history) when
    record_history is true; history holds the generator array per iterate,
    including the initial one.
    """
    if tol is None:
        tol = LLOYD_TOL_FRACTION * dom.width
    if not tol > 0:
        raise InvalidParameterValue(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise InvalidParameterValue(f"max_iter must be >= 0, got {max_iter}")
    z = _validate_generators(np.ravel(init), dom)
    history = [z.copy()] if record_history else None
    stop_reason = "budget"
    iterations, moved = 0, 0.0
    least_moved, least_at = np.inf, 0
    diff = np.empty(z.size)
    # The iterates alternate between two buffers, each with its pairs' ends.
    buffers = [(b, b[:-1], b[1:]) for b in (np.empty(z.size), np.empty(z.size))]
    wide = _sums_overflow(dom)
    centroids = dens._centroid_map(d)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        m = _midpoint_boundaries(z, dom)
        inner = m[1:-1]
        for iterations in range(1, max_iter + 1):
            z_new, left, right = buffers[iterations & 1]
            centroids(m, z_new)
            if record_history:
                history.append(z_new.copy())
            np.abs(np.subtract(z_new, z, out=diff), out=diff)
            moved = float(diff[diff.argmax()])  # a NaN's, if there is one
            z = z_new
            _midpoints(left, right, wide, inner)
            if moved < tol:
                stop_reason = "tol"
                break
            if moved < least_moved:
                least_moved, least_at = moved, iterations
            elif moved != moved:  # NaN; an improving iteration skips this
                raise GeneratorOutOfDomain("generators must be finite")
            elif iterations - least_at >= LLOYD_STALL_WINDOW:
                stop_reason = "stagnated"
                break
    if not (dom.a < z[0] and z[-1] < dom.b):
        raise GeneratorOutOfDomain(
            f"Lloyd moved a generator onto an end of ({dom.a}, {dom.b})")
    logger.debug("N = %d: Lloyd stopped on %s after %d iterations, final "
                 "displacement %.3g", z.size, stop_reason, iterations, moved)
    t = Tessellation(generators=z, boundaries=m,
                     energy=_energy_of_cells(z, m, d),
                     stop_reason=stop_reason, iterations=iterations,
                     final_displacement=moved)
    return (t, history) if record_history else t
