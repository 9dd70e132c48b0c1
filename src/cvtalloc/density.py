"""One-dimensional density families and their interval integrals.

Supports four families (uniform, gaussian, exponential, gamma), each with an
optional single "free" parameter left symbolic until bound.  Every CVT
computation in this package reduces to interval mass / first-moment /
second-moment queries against these densities, so those are provided both in
closed form (the default) and through adaptive quadrature (used as an
independent cross-check and for verification).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate, special

from .errors import (
    EmptyCell,
    InvalidParameterValue,
    NoFreeParameter,
    QuadratureNonConvergence,
    UnboundFreeParameter,
)

__all__ = [
    "DensitySpec",
    "Interval",
    "mass",
    "first_moment",
    "second_moment",
    "centroid",
    "cell_centroids",
    "bind_free_parameter",
]

# Parameter names per family, in canonical order.
_FAMILY_PARAMS = {
    "uniform": ("a", "b"),
    "gaussian": ("mu", "sigma2"),
    "exponential": ("lam",),
    "gamma": ("k", "theta"),
}

# Accepted aliases when parsing config dictionaries.
_PARAM_ALIASES = {"lambda": "lam", "rate": "lam", "variance": "sigma2"}

# Default quadrature tolerances; centroids feed a Newton solver so the
# residuals must be smooth and low-noise.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 200

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _check_params(family: str, params: dict) -> None:
    """Raise InvalidParameterValue if any bound parameter breaks its invariant."""
    def bound(name):
        v = params.get(name)
        return v if isinstance(v, (int, float)) else None

    if family == "uniform":
        a, b = bound("a"), bound("b")
        if a is not None and b is not None and not a < b:
            raise InvalidParameterValue(f"uniform requires a < b, got a={a}, b={b}")
    elif family == "gaussian":
        s2 = bound("sigma2")
        if s2 is not None and not s2 > 0:
            raise InvalidParameterValue(f"gaussian requires sigma2 > 0, got {s2}")
    elif family == "exponential":
        lam = bound("lam")
        if lam is not None and not lam > 0:
            raise InvalidParameterValue(f"exponential requires lambda > 0, got {lam}")
    elif family == "gamma":
        k, theta = bound("k"), bound("theta")
        if k is not None and not k > 0:
            raise InvalidParameterValue(f"gamma requires k > 0, got {k}")
        if theta is not None and not theta > 0:
            raise InvalidParameterValue(f"gamma requires theta > 0, got {theta}")


@dataclass(frozen=True)
class Interval:
    """A closed interval on the resource axis; hi may be +inf, lo may be -inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class DensitySpec:
    """A density family with fixed parameters and at most one free parameter.

    ``params`` maps the family's canonical parameter names to values; the
    parameter named by ``free_param`` (if any) carries no value and must be
    bound via :func:`bind_free_parameter` before integration.
    """

    family: str
    params: dict = field(default_factory=dict)
    free_param: str | None = None

    def __post_init__(self):
        fam = self.family.lower()
        if fam not in _FAMILY_PARAMS:
            raise InvalidParameterValue(f"unknown density family {self.family!r}")
        object.__setattr__(self, "family", fam)
        names = _FAMILY_PARAMS[fam]
        clean = {}
        for key, value in self.params.items():
            key = _PARAM_ALIASES.get(key, key)
            if key not in names:
                raise InvalidParameterValue(f"{fam} has no parameter {key!r}")
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float, np.integer, np.floating))
                    or not math.isfinite(value)):
                raise InvalidParameterValue(
                    f"{fam} parameter {key!r} must be a finite number, got {value!r}")
            clean[key] = float(value)
        if self.free_param is not None:
            free = _PARAM_ALIASES.get(self.free_param, self.free_param)
            if free not in names:
                raise InvalidParameterValue(f"{fam} has no parameter {free!r}")
            object.__setattr__(self, "free_param", free)
            clean.pop(free, None)
        missing = [n for n in names if n not in clean and n != self.free_param]
        if missing:
            raise InvalidParameterValue(f"{fam} is missing parameters {missing}")
        _check_params(fam, clean)
        object.__setattr__(self, "params", clean)

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_config(cls, obj: dict) -> "DensitySpec":
        """Build from the config grammar: family plus named numeric values,
        with the string "free" marking the single free parameter."""
        if not isinstance(obj, dict):
            raise InvalidParameterValue(
                f"density spec must be an object, got {obj!r}")
        obj = dict(obj)
        family = obj.pop("family")
        free = None
        params = {}
        for key, value in obj.items():
            name = _PARAM_ALIASES.get(key, key)
            if isinstance(value, str):
                if value.lower() != "free":
                    raise InvalidParameterValue(
                        f"parameter {key!r} must be a number or 'free', got {value!r}")
                if free is not None:
                    raise InvalidParameterValue("at most one parameter may be free")
                free = name
            else:
                params[name] = value
        return cls(family=family, params=params, free_param=free)

    def to_config(self) -> dict:
        out = {"family": self.family}
        out.update(self.params)
        if self.free_param is not None:
            out[self.free_param] = "free"
        return out

    # -- queries ---------------------------------------------------------

    @property
    def is_bound(self) -> bool:
        return self.free_param is None

    def support(self) -> Interval:
        if self.family == "uniform":
            return Interval(self.params["a"], self.params["b"])
        if self.family == "gaussian":
            return Interval(-math.inf, math.inf)
        return Interval(0.0, math.inf)

    def pdf(self, x):
        """Density value(s) at x (vectorized)."""
        _require_bound(self)
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.family == "uniform":
            a, b = p["a"], p["b"]
            return np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
        if self.family == "gaussian":
            mu, s2 = p["mu"], p["sigma2"]
            sigma = math.sqrt(s2)
            t = (x - mu) / sigma
            return np.exp(-0.5 * t * t) * (_INV_SQRT_2PI / sigma)
        if self.family == "exponential":
            lam = p["lam"]
            return np.where(x >= 0, lam * np.exp(-lam * np.maximum(x, 0.0)), 0.0)
        # gamma
        k, theta = p["k"], p["theta"]
        logc = -special.gammaln(k) - k * math.log(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = logc + (k - 1.0) * np.log(x) - x / theta
        out = np.where(x > 0, np.exp(logpdf), 0.0)
        if k == 1.0:  # no singularity, pdf(0) finite
            out = np.where(x == 0, math.exp(logc), out)
        return out


def _require_bound(d: DensitySpec) -> None:
    if not d.is_bound:
        raise UnboundFreeParameter(
            f"density has unbound free parameter {d.free_param!r}")


def bind_free_parameter(d: DensitySpec, value: float) -> DensitySpec:
    """Return a concrete copy of d with its free parameter set to value."""
    if d.free_param is None:
        raise NoFreeParameter("density has no free parameter to bind")
    params = dict(d.params)
    params[d.free_param] = float(value)
    _check_params(d.family, params)
    return replace(d, params=params, free_param=None)


# ---------------------------------------------------------------------------
# Closed-form moments: per-point terms, differenced per interval.  A cell's
# moments are differences of terms at its two ends, so a tessellation needs
# the terms once per boundary, not twice.  Callers wrap both steps in one
# np.errstate that ignores over- and underflow.
# ---------------------------------------------------------------------------

def _terms(d: DensitySpec, x, order: int) -> tuple:
    """Per-point values whose differences between two ends give d's
    moments up to order over the interval between them."""
    p = d.params
    if d.family == "uniform":
        c = np.clip(x, p["a"], p["b"])
        return (c, c ** 2, c ** 3) if order == 2 else (c, c ** 2)

    if d.family == "gaussian":
        t = (x - p["mu"]) / math.sqrt(p["sigma2"])
        s = t / _SQRT2
        e = np.exp(-0.5 * t * t)  # 0 at t = +-inf
        out = (t, special.erfc(s), special.erfc(-s), special.erf(s),
               e * _INV_SQRT_2PI)
        if order == 2:
            out += (np.where(np.isfinite(t), t, 0.0) * e * _INV_SQRT_2PI,)
        return out

    if d.family == "exponential":
        lam = p["lam"]
        x = np.maximum(x, 0.0)
        xs = np.where(np.isfinite(x), x, 0.0)
        e = np.exp(-lam * x)  # 0 at x = inf
        out = (e, (xs + 1.0 / lam) * e)
        if order == 2:
            out += ((xs * xs + 2.0 * xs / lam + 2.0 / lam ** 2) * e,)
        return out

    # gamma: the lower and upper regularized incomplete gamma functions P
    # and Q of shapes k, k + 1[, k + 2]
    k = p["k"]
    x = np.maximum(x, 0.0) / p["theta"]
    out = ()
    for shape in (k, k + 1.0, k + 2.0)[:order + 1]:
        out += (special.gammainc(shape, x), special.gammaincc(shape, x))
    return out


def _combine(d: DensitySpec, lo, hi, order: int) -> tuple:
    """(mass, first moment[, second moment]) over [lo, hi] from the _terms
    at both ends, each difference taken in a cancellation-safe branch."""
    p = d.params
    if d.family == "uniform":
        w = 1.0 / (p["b"] - p["a"])
        m0 = (hi[0] - lo[0]) * w
        m1 = 0.5 * (hi[1] - lo[1]) * w
        if order == 1:
            return m0, m1
        return m0, m1, (hi[2] - lo[2]) / 3.0 * w

    if d.family == "gaussian":
        # Terms t, erfc(t/sqrt2), erfc(-t/sqrt2), erf(t/sqrt2), phi(t)[,
        # t phi(t)].  Deep in one tail the difference of CDFs loses all
        # relative accuracy; the complementary error function of that side
        # keeps it.
        mu, s2 = p["mu"], p["sigma2"]
        sigma = math.sqrt(s2)
        m0 = 0.5 * np.where(lo[0] >= 0, lo[1] - hi[1],
                            np.where(hi[0] <= 0, hi[2] - lo[2], hi[3] - lo[3]))
        dphi = lo[4] - hi[4]
        m1 = mu * m0 + sigma * dphi
        if order == 1:
            return m0, m1
        central2 = s2 * (m0 + lo[5] - hi[5])
        return m0, m1, mu * mu * m0 + 2.0 * mu * sigma * dphi + central2

    if d.family == "exponential":
        return tuple(a - b for a, b in zip(lo, hi))

    # gamma: terms P, Q per shape.  The upper tail Q when the lower end sits
    # past the bulk, to avoid catastrophic cancellation of near-1 P values.
    k, theta = p["k"], p["theta"]
    m = [np.where(lo[j] > 0.5, lo[j + 1] - hi[j + 1], hi[j] - lo[j])
         for j in range(0, 2 * order + 2, 2)]
    if order == 1:
        return m[0], k * theta * m[1]
    return m[0], k * theta * m[1], k * (k + 1.0) * theta * theta * m[2]


def _moment_quadrature(d: DensitySpec, lo: float, hi: float, order: int) -> float:
    """Adaptive quadrature of x^order * pdf over [lo, hi]."""
    sup = d.support()
    lo = max(lo, sup.lo)
    hi = min(hi, sup.hi)
    if lo >= hi:
        return 0.0
    result = integrate.quad(
        lambda x: (x ** order if order else 1.0) * float(d.pdf(x)),
        lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT,
        full_output=1,
    )
    if len(result) > 3:
        raise QuadratureNonConvergence(
            f"quadrature failed on [{lo}, {hi}]: {result[3]}")
    return result[0]


def interval_moments(d: DensitySpec, lo, hi, method: str = "analytic",
                     order: int = 2):
    """Vectorized moments 0..order over [lo, hi] arrays: (mass, first
    moment, second moment) for order 2, (mass, first moment) for order 1.

    Centroids need only order 1, which skips the second-moment work; the
    mass and first moment are the same either way.  For the cells of a
    tessellation, cell_centroids shares each boundary's terms between its
    two cells instead.
    """
    _require_bound(d)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    if method == "analytic":
        with np.errstate(over="ignore", under="ignore"):
            return _combine(d, _terms(d, np.asarray(lo, dtype=float), order),
                            _terms(d, np.asarray(hi, dtype=float), order),
                            order)
    if method == "quadrature":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        return tuple(np.array([_moment_quadrature(d, a, b, k)
                               for a, b in zip(lo, hi)])
                     for k in range(order + 1))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Public scalar operations
# ---------------------------------------------------------------------------

def mass(d: DensitySpec, iv: Interval, method: str = "analytic") -> float:
    """Integral of the density over iv; in [0, 1]."""
    m0, _ = interval_moments(d, iv.lo, iv.hi, method=method, order=1)
    return float(np.clip(np.squeeze(m0), 0.0, 1.0))


def first_moment(d: DensitySpec, iv: Interval, method: str = "analytic") -> float:
    """Integral of x * density over iv."""
    _, m1 = interval_moments(d, iv.lo, iv.hi, method=method, order=1)
    return float(np.squeeze(m1))


def second_moment(d: DensitySpec, iv: Interval, method: str = "analytic") -> float:
    """Integral of x^2 * density over iv."""
    _, _, m2 = interval_moments(d, iv.lo, iv.hi, method=method)
    return float(np.squeeze(m2))


def mass_floor(width):
    """Minimum mass below which a cell of the given width is treated as
    empty (vectorized over a widths array).

    Scaled by the width, at least 1, and 1 for an infinite or undefined
    (NaN, from inf - inf) width, so far-tail cells that underflow raise a
    clear EmptyCell instead of dividing near-zero.
    """
    return 1e-300 * np.maximum(np.where(np.isfinite(width), width, 1.0), 1.0)


def cell_centroids(d: DensitySpec, m, masses: bool = False):
    """Mass centroids m1 / m0 of the cells [m[i], m[i+1]] under d, for
    boundaries m, clamped into each cell against fp noise.  The package's
    one empty-cell rule: a cell of mass at most mass_floor of its width
    raises EmptyCell naming the first one.  With masses=True, returns
    (centroids, m0).

    Analytic moments evaluate each boundary's terms once and difference
    them per cell, with the same values as interval_moments over each cell.
    """
    _require_bound(d)
    m = np.asarray(m, dtype=float)
    lo, hi = m[:-1], m[1:]
    # One errstate for the moments and the widths, which overflow or are
    # NaN only for cells with an infinite end.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = _terms(d, m, 1)
        m0, m1 = _combine(d, [a[:-1] for a in t], [a[1:] for a in t], 1)
        bad = m0 <= mass_floor(hi - lo)
    if bad.any():
        i = int(np.argmax(bad))
        raise EmptyCell(f"cell {i} = [{lo[i]}, {hi[i]}] has mass {m0[i]:g}")
    c = np.minimum(np.maximum(m1 / m0, lo), hi)
    return (c, m0) if masses else c


def centroid(d: DensitySpec, iv: Interval) -> float:
    """Mass centroid of iv under d: first_moment / mass. Always inside iv."""
    return float(cell_centroids(d, np.array([iv.lo, iv.hi]))[0])
