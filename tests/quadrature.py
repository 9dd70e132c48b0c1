"""Adaptive-quadrature interval moments: the independent oracle that the
closed-form moments of ``cvtalloc.density`` are checked against.

``interval_moments(d, lo, hi, order)`` takes the same arguments and returns
the same tuple as ``density.interval_moments``, one ``scipy.integrate.quad``
call per interval and moment.  A call that does not reach the tolerances
raises QuadratureNonConvergence instead of returning a poor value.
"""

import math

import numpy as np
from scipy import integrate

from cvtalloc.density import DensitySpec

# Quadrature tolerances, well below those of the comparisons that use them.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 200


class QuadratureNonConvergence(AssertionError):
    """Adaptive quadrature did not reach the requested tolerance."""


def support(d: DensitySpec) -> tuple[float, float]:
    """The ends (lo, hi) of the interval outside which d's density is zero."""
    if d.family == "uniform":
        return d.params["a"], d.params["b"]
    if d.family == "gaussian":
        return -math.inf, math.inf
    return 0.0, math.inf


def moment_quadrature(d: DensitySpec, lo: float, hi: float, order: int) -> float:
    """Adaptive quadrature of x^order * pdf over [lo, hi]."""
    return _quadrature(lambda x: (x ** order if order else 1.0) * float(d.pdf(x)),
                       d, lo, hi)


def power_quadrature(d: DensitySpec, lo: float, hi: float, power: float) -> float:
    """Adaptive quadrature of pdf ** power over [lo, hi]: with power 1/3, the
    unnormalized mass of the cube-root density."""
    return _quadrature(lambda x: float(d.pdf(x)) ** power, d, lo, hi)


def _quadrature(fn, d: DensitySpec, lo: float, hi: float) -> float:
    sup_lo, sup_hi = support(d)
    lo = max(lo, sup_lo)
    hi = min(hi, sup_hi)
    if lo >= hi:
        return 0.0
    result = integrate.quad(fn, lo, hi, epsabs=QUAD_ABS_TOL,
                            epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT,
                            full_output=1)
    if len(result) > 3:
        raise QuadratureNonConvergence(
            f"quadrature failed on [{lo}, {hi}]: {result[3]}")
    return result[0]


def interval_moments(d: DensitySpec, lo, hi, order: int = 2):
    """Moments 0..order over [lo, hi] arrays by quadrature."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    return tuple(np.array([moment_quadrature(d, a, b, k)
                           for a, b in zip(lo, hi)])
                 for k in range(order + 1))
