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
                params[name] = float(value)
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
# Closed-form interval moments, vectorized over (lo, hi) arrays.
# ---------------------------------------------------------------------------

def _phi(t):
    """Standard normal pdf with phi(+-inf) = 0."""
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    ts = np.where(finite, t, 0.0)
    with np.errstate(under="ignore"):
        return np.where(finite, np.exp(-0.5 * ts * ts) * _INV_SQRT_2PI, 0.0)


def _t_phi(t):
    """t * phi(t), with the limit 0 at +-inf."""
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    ts = np.where(finite, t, 0.0)
    with np.errstate(under="ignore"):
        return np.where(finite, ts * np.exp(-0.5 * ts * ts) * _INV_SQRT_2PI, 0.0)


def _normal_cdf_diff(alpha, beta):
    """Phi(beta) - Phi(alpha) evaluated in a cancellation-safe branch.

    For intervals deep in one tail the difference of CDFs loses all relative
    accuracy; the complementary error function keeps it.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    both_right = alpha >= 0
    both_left = beta <= 0
    a2, b2 = alpha / _SQRT2, beta / _SQRT2
    with np.errstate(over="ignore", under="ignore"):
        right = 0.5 * (special.erfc(np.where(both_right, a2, 0.0))
                       - special.erfc(np.where(both_right, b2, 0.0)))
        left = 0.5 * (special.erfc(np.where(both_left, -b2, 0.0))
                      - special.erfc(np.where(both_left, -a2, 0.0)))
        mid = 0.5 * (special.erf(b2) - special.erf(a2))
    return np.where(both_right, right, np.where(both_left, left, mid))


def _moments_analytic(d: DensitySpec, lo, hi, order: int):
    """(mass, first moment[, second moment]) of d over [lo, hi], closed form;
    the second moment only when order is 2."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    p = d.params

    if d.family == "uniform":
        a, b = p["a"], p["b"]
        lo_c = np.clip(lo, a, b)
        hi_c = np.clip(hi, a, b)
        w = 1.0 / (b - a)
        m0 = (hi_c - lo_c) * w
        m1 = 0.5 * (hi_c ** 2 - lo_c ** 2) * w
        if order == 1:
            return m0, m1
        m2 = (hi_c ** 3 - lo_c ** 3) / 3.0 * w
        return m0, m1, m2

    if d.family == "gaussian":
        mu, s2 = p["mu"], p["sigma2"]
        sigma = math.sqrt(s2)
        alpha = (lo - mu) / sigma
        beta = (hi - mu) / sigma
        m0 = _normal_cdf_diff(alpha, beta)
        dphi = _phi(alpha) - _phi(beta)
        m1 = mu * m0 + sigma * dphi
        if order == 1:
            return m0, m1
        central2 = s2 * (m0 + _t_phi(alpha) - _t_phi(beta))
        m2 = mu * mu * m0 + 2.0 * mu * sigma * dphi + central2
        return m0, m1, m2

    if d.family == "exponential":
        lam = p["lam"]
        lo_c = np.maximum(lo, 0.0)
        hi_c = np.maximum(hi, 0.0)

        def terms(x):
            finite = np.isfinite(x)
            xs = np.where(finite, x, 0.0)
            e = np.where(finite, np.exp(-lam * xs), 0.0)
            t = [e, (xs + 1.0 / lam) * e]
            if order == 2:
                t.append((xs * xs + 2.0 * xs / lam + 2.0 / lam ** 2) * e)
            return t

        return tuple(a - b for a, b in zip(terms(lo_c), terms(hi_c)))

    # gamma
    k, theta = p["k"], p["theta"]
    lo_c = np.maximum(lo, 0.0) / theta
    hi_c = np.where(np.isfinite(hi), np.maximum(hi, 0.0), np.inf) / theta

    def reg_diff(shape):
        # Use the upper tail when both endpoints sit past the bulk to avoid
        # catastrophic cancellation of near-1 lower incomplete values.
        p_lo = special.gammainc(shape, lo_c)
        lower = special.gammainc(shape, hi_c) - p_lo
        upper = special.gammaincc(shape, lo_c) - special.gammaincc(shape, hi_c)
        return np.where(p_lo > 0.5, upper, lower)

    m0 = reg_diff(k)
    m1 = k * theta * reg_diff(k + 1.0)
    if order == 1:
        return m0, m1
    m2 = k * (k + 1.0) * theta * theta * reg_diff(k + 2.0)
    return m0, m1, m2


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
    mass and first moment are the same either way.  This is the workhorse
    used by the tessellation module; the public scalar operations below
    wrap it.
    """
    _require_bound(d)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    if method == "analytic":
        return _moments_analytic(d, lo, hi, order)
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


def mass_floor(lo, hi):
    """Minimum mass below which a cell [lo, hi] is treated as empty
    (vectorized over lo, hi arrays).

    Scaled by interval width, at least 1, and 1 for an infinite width, so
    far-tail cells that underflow raise a clear EmptyCell instead of
    dividing near-zero.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        width = np.subtract(hi, lo, dtype=float)
    return 1e-300 * np.maximum(np.where(np.isfinite(width), width, 1.0), 1.0)


def cell_centroids(d: DensitySpec, lo, hi, method: str = "analytic"):
    """Mass centroids m1 / m0 of the cells [lo[i], hi[i]] under d, clamped
    into each cell against fp noise.  The package's one empty-cell rule: a
    cell of mass at most mass_floor raises EmptyCell naming the first one."""
    m0, m1 = interval_moments(d, lo, hi, method=method, order=1)
    bad = m0 <= mass_floor(lo, hi)
    if bad.any():
        i = int(np.argmax(bad))
        raise EmptyCell(f"cell {i} = [{lo[i]}, {hi[i]}] has mass {m0[i]:g}")
    return np.minimum(np.maximum(m1 / m0, lo), hi)


def centroid(d: DensitySpec, iv: Interval, method: str = "analytic") -> float:
    """Mass centroid of iv under d: first_moment / mass. Always inside iv."""
    return float(cell_centroids(d, np.array([iv.lo]), np.array([iv.hi]),
                                method=method)[0])
