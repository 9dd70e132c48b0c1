"""1-D Voronoi tessellations, energy functionals, and Lloyd's fixed point.

Generators on an interval [a, b] induce cell boundaries at midpoints of
adjacent generators; Lloyd's algorithm alternates that construction with
per-cell mass centroids until the generators stop moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import density as dens
from .density import DensitySpec, Interval
from .errors import (
    CellsDoNotTile,
    DuplicateGenerators,
    GeneratorOutOfDomain,
    UnsortedGenerators,
)

__all__ = [
    "Domain1D",
    "Tessellation",
    "voronoi_regions",
    "energy_F",
    "energy_K",
    "lloyd_step",
    "lloyd",
    "is_cvt",
    "default_init",
]

# Generators closer than this fraction of the domain width collapse the
# midpoint parameterization and are rejected.
DUPLICATE_GAP_FRACTION = 1e-12

# Default Lloyd stopping displacement, as a fraction of the domain width.
LLOYD_TOL_FRACTION = 1e-10
LLOYD_MAX_ITER = 10_000
# Lloyd stops as stagnated once its max displacement has set no new minimum
# for this many iterations: it has reached the floating-point noise floor of
# the centroid map and further iterations only resample that noise.
LLOYD_STALL_WINDOW = 1000


@dataclass(frozen=True)
class Domain1D:
    """The bounded resource interval Omega = [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("domain endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"domain requires a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Tessellation:
    """Sorted generators, their midpoint cell boundaries, and the energy K.

    For a Lloyd result, ``iterations`` counts the updates made and
    ``stop_reason`` says why the iteration ended: "tol" (displacement below
    the tolerance), "stagnated" (no new minimum displacement for
    LLOYD_STALL_WINDOW iterations) or "budget" (max_iter reached), and
    ``final_displacement`` is the max generator move of the last update (0
    when there was none).
    """

    generators: np.ndarray
    boundaries: np.ndarray
    energy: float
    domain: Domain1D
    stop_reason: str = "tol"
    iterations: int = 0
    final_displacement: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"

    def cells(self) -> list[Interval]:
        return [Interval(self.boundaries[i], self.boundaries[i + 1])
                for i in range(len(self.generators))]


def _validate_generators(generators, dom: Domain1D) -> np.ndarray:
    z = np.asarray(generators, dtype=float).ravel()
    if z.size == 0:
        raise ValueError("need at least one generator")
    if not np.isfinite(z).all():
        raise GeneratorOutOfDomain("generators must be finite")
    gap = np.diff(z).min(initial=np.inf)
    if gap < 0:
        raise UnsortedGenerators("generators must be strictly increasing")
    if gap < DUPLICATE_GAP_FRACTION * dom.width:
        raise DuplicateGenerators(
            f"adjacent generators closer than {DUPLICATE_GAP_FRACTION:g} * width")
    if z[0] <= dom.a or z[-1] >= dom.b:
        raise GeneratorOutOfDomain(
            f"generators must lie inside ({dom.a}, {dom.b})")
    return z


def _midpoint_boundaries(z: np.ndarray, dom: Domain1D) -> np.ndarray:
    m = np.empty(z.size + 1)
    m[0], m[-1] = dom.a, dom.b
    np.add(z[:-1], z[1:], out=m[1:-1])
    m[1:-1] *= 0.5
    return m


def voronoi_regions(generators, dom: Domain1D,
                    d: DensitySpec | None = None) -> Tessellation:
    """Tessellation of dom induced by the generators.

    If a density is given the energy field holds the quantization energy;
    otherwise it is left at 0 (pure geometry).
    """
    z = _validate_generators(generators, dom)
    m = _midpoint_boundaries(z, dom)
    energy = _energy_of_cells(z, m[:-1], m[1:], d) if d is not None else 0.0
    return Tessellation(generators=z, boundaries=m, energy=energy, domain=dom)


def _energy_of_cells(points: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     d: DensitySpec) -> float:
    """Sum over cells [lo, hi] of the second moment of (x - point) under d."""
    m0, m1, m2 = dens.interval_moments(d, lo, hi)
    per_cell = m2 - 2.0 * points * m1 + points * points * m0
    return float(np.sum(np.maximum(per_cell, 0.0)))


def energy_F(points, cells: Sequence[Interval], d: DensitySpec) -> float:
    """Distortion of an arbitrary point/cell assignment (not necessarily
    Voronoi): sum_i of the density-weighted squared distance to points[i]."""
    points = np.asarray(points, dtype=float).ravel()
    if len(points) != len(cells):
        raise ValueError("points and cells must have equal length")
    cells = [c if isinstance(c, Interval) else Interval(*c) for c in cells]
    order = sorted(range(len(cells)), key=lambda i: cells[i].lo)
    tol = 1e-9 * max(abs(cells[order[-1]].hi - cells[order[0]].lo), 1.0)
    for i, j in zip(order[:-1], order[1:]):
        if abs(cells[i].hi - cells[j].lo) > tol:
            raise CellsDoNotTile(
                f"cells [{cells[i].lo},{cells[i].hi}] and "
                f"[{cells[j].lo},{cells[j].hi}] leave a gap or overlap")
    return _energy_of_cells(points, np.array([c.lo for c in cells]),
                            np.array([c.hi for c in cells]), d)


def energy_K(points, d: DensitySpec, dom: Domain1D) -> float:
    """Quantization energy: energy_F at the Voronoi cells of the points."""
    return voronoi_regions(points, dom, d).energy


def lloyd_step(t: Tessellation, d: DensitySpec) -> Tessellation:
    """One Lloyd update: move every generator to its cell centroid."""
    z_new = dens.cell_centroids(d, t.boundaries)
    return voronoi_regions(z_new, t.domain, d)


def default_init(n: int, dom: Domain1D) -> np.ndarray:
    """N equally spaced points at a + (i - 1/2) * width / N."""
    return dom.a + (np.arange(1, n + 1) - 0.5) * dom.width / n


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
    only a "tol" stop has converged=True.

    Returns the Tessellation, or (Tessellation, history) when
    record_history is true; history holds the generator array per iterate,
    including the initial one.
    """
    if tol is None:
        tol = LLOYD_TOL_FRACTION * dom.width
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    z = _validate_generators(init, dom)
    m = _midpoint_boundaries(z, dom)
    history = [z.copy()] if record_history else None
    stop_reason = "budget"
    iterations, moved = 0, 0.0
    least_moved, least_at = np.inf, 0
    for iterations in range(1, max_iter + 1):
        z_new = dens.cell_centroids(d, m)
        if record_history:
            history.append(z_new.copy())
        moved = float(np.max(np.abs(z_new - z)))
        z = z_new
        m = _midpoint_boundaries(z, dom)
        if moved < tol:
            stop_reason = "tol"
            break
        if moved < least_moved:
            least_moved, least_at = moved, iterations
        elif iterations - least_at >= LLOYD_STALL_WINDOW:
            stop_reason = "stagnated"
            break
    t = Tessellation(generators=z, boundaries=m,
                     energy=_energy_of_cells(z, m[:-1], m[1:], d), domain=dom,
                     stop_reason=stop_reason, iterations=iterations,
                     final_displacement=moved)
    return (t, history) if record_history else t


def is_cvt(points, d: DensitySpec, dom: Domain1D, tol: float) -> bool:
    """True iff every generator is within tol of its own cell centroid."""
    t = voronoi_regions(points, dom)
    c = dens.cell_centroids(d, t.boundaries)
    return bool(np.max(np.abs(t.generators - c)) < tol)
