"""One-dimensional density families and their interval integrals.

Supports four families (uniform, gaussian, exponential, gamma), each with an
optional single "free" parameter left symbolic until bound.  Every CVT
computation in this package reduces to interval mass / first-moment /
second-moment queries against these densities, which are computed in closed
form.  The tests check them against adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import (
    EmptyCell,
    InvalidParameterValue,
    NoFreeParameter,
    UnboundFreeParameter,
    _slot_eq,
)

__all__ = [
    "DensitySpec",
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

# Accepted aliases of the canonical names, in params and free_param alike.
_PARAM_ALIASES = {"lambda": "lam", "rate": "lam", "variance": "sigma2"}

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


class DensitySpec:
    """A density family with fixed parameters and at most one free parameter.

    ``params`` maps the family's canonical parameter names to values; the
    parameter named by ``free_param`` (if any) carries no value and must be
    bound via :func:`bind_free_parameter` before integration.
    """

    __slots__ = ("family", "params", "free_param")
    __eq__ = _slot_eq

    def __init__(self, family: str, params: dict | None = None,
                 free_param: str | None = None):
        fam = family.lower() if isinstance(family, str) else None
        if fam not in _FAMILY_PARAMS:
            raise InvalidParameterValue(f"unknown density family {family!r}")
        names = _FAMILY_PARAMS[fam]
        spelled = {}  # each canonical name taken, and the key that took it

        def canonical(key):
            name = _PARAM_ALIASES.get(key, key)
            if name not in names:
                raise InvalidParameterValue(f"{fam} has no parameter {key!r}")
            if name in spelled:
                raise InvalidParameterValue(
                    f"{fam} parameter {name!r} is named twice, as "
                    f"{spelled[name]!r} and {key!r}")
            spelled[name] = key
            return name
        clean = {}
        for key, value in (params or {}).items():
            key = canonical(key)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float, np.integer, np.floating))
                    or not math.isfinite(value)):
                raise InvalidParameterValue(
                    f"{fam} parameter {key!r} must be a finite number, got {value!r}")
            clean[key] = float(value)
        if free_param is not None:
            free_param = canonical(free_param)
        missing = [n for n in names if n not in clean and n != free_param]
        if missing:
            raise InvalidParameterValue(f"{fam} is missing parameters {missing}")
        _check_params(fam, clean)
        self.family, self.params, self.free_param = fam, clean, free_param

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_config(cls, obj: dict) -> "DensitySpec":
        """Build from the config grammar: family plus named numeric values,
        with the string "free" marking the single free parameter."""
        if not isinstance(obj, dict):
            raise InvalidParameterValue(
                f"density spec must be an object, got {obj!r}")
        obj = dict(obj)
        if "family" not in obj:
            raise InvalidParameterValue("density spec is missing 'family'")
        family = obj.pop("family")
        free = None
        params = {}
        for key, value in obj.items():
            if isinstance(value, str):
                if value.lower() != "free":
                    raise InvalidParameterValue(
                        f"parameter {key!r} must be a number or 'free', got {value!r}")
                if free is not None:
                    raise InvalidParameterValue("at most one parameter may be free")
                free = key
            else:
                params[key] = value
        return cls(family=family, params=params, free_param=free)

    # -- queries ---------------------------------------------------------

    @property
    def is_bound(self) -> bool:
        return self.free_param is None

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


def _pdf_at(d: DensitySpec, m: np.ndarray, t: tuple) -> np.ndarray:
    """d.pdf(m), t being _terms(d, m, order, keep_exp=True): a Gaussian's
    from the terms' exp(-t^2/2), by pdf's own expression and its bits."""
    if d.family == "gaussian":
        return t[-1] * (_INV_SQRT_2PI / math.sqrt(d.params["sigma2"]))
    return d.pdf(m)


def _unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook for every config the package reads: a key
    given twice raises InvalidParameterValue, where json keeps the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidParameterValue(f"JSON key {key!r} is given twice")
        obj[key] = value
    return obj


def _require_bound(d: DensitySpec) -> None:
    if not d.is_bound:
        raise UnboundFreeParameter(
            f"density has unbound free parameter {d.free_param!r}")


def bind_free_parameter(d: DensitySpec, value: float) -> DensitySpec:
    """Return a concrete copy of d with its free parameter set to value.

    d's other parameters were checked when d was built, so only the new
    value is checked, in the order DensitySpec's own checks would take it:
    the family's invariant first, then finiteness."""
    if d.free_param is None:
        raise NoFreeParameter("density has no free parameter to bind")
    value = float(value)
    params = dict(d.params)
    params[d.free_param] = value
    _check_params(d.family, params)
    if not math.isfinite(value):
        raise InvalidParameterValue(
            f"{d.family} parameter {d.free_param!r} must be a finite number, "
            f"got {value!r}")
    bound = object.__new__(DensitySpec)
    bound.family, bound.params, bound.free_param = d.family, params, None
    return bound


# ---------------------------------------------------------------------------
# Closed-form moments: per-point terms, differenced per interval.  A cell's
# moments are differences of terms at its two ends, so a tessellation needs
# the terms once per boundary, not twice.  Callers wrap both steps in one
# np.errstate that ignores over- and underflow: interval_moments and
# cell_centroids once per call, and tessellation.lloyd once per run around
# its whole loop, which also covers its midpoints and displacements.
# ---------------------------------------------------------------------------

def _terms(d: DensitySpec, x, order: int, keep_exp: bool = False) -> tuple:
    """Per-point values whose differences between two ends give d's
    moments up to order over the interval between them; with keep_exp, a
    Gaussian's end with its exp(-t^2/2), which _pdf_at reads."""
    p = d.params
    if d.family == "uniform":
        c = np.clip(x, p["a"], p["b"])
        return (c, c ** 2, c ** 3) if order == 2 else (c, c ** 2)

    if d.family == "gaussian":
        t = (x - p["mu"]) / math.sqrt(p["sigma2"])
        s = t / _SQRT2
        e = np.exp(-0.5 * t * t)  # 0 at t = +-inf
        # One erfc per point, of |s|: a cell reads it only on its own side
        # of mu, where |s| is bitwise the argument erfc(s) or erfc(-s) takes.
        out = (t, special.erfc(np.abs(s)), special.erf(s), e * _INV_SQRT_2PI)
        if order == 2:
            out += (np.where(np.isfinite(t), t, 0.0) * e * _INV_SQRT_2PI,)
        return out + (e,) if keep_exp else out

    if d.family == "exponential":
        lam = p["lam"]
        x = np.maximum(x, 0.0)
        xs = np.where(np.isfinite(x), x, 0.0)
        e = np.exp(-lam * x)  # 0 at x = inf
        out = (e, (xs + 1.0 / lam) * e)
        if order == 2:
            # 0 where e is: at a huge x the polynomial overflows to inf,
            # and inf * 0 would be NaN.
            poly = xs * xs + 2.0 * xs / lam + 2.0 / np.float64(lam) ** 2
            out += (np.multiply(poly, e, out=np.zeros_like(e), where=e != 0),)
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
    at both ends, each difference taken in a cancellation-safe branch; the
    intervals are cells, lo <= hi."""
    p = d.params
    if d.family == "uniform":
        w = 1.0 / (p["b"] - p["a"])
        m0 = (hi[0] - lo[0]) * w
        # A square above about 1.3e154 or a cube above about 5.6e102
        # overflows, and two infinite powers differ by NaN: there, the same
        # moment factored as m0 (hi + lo) / 2 or m0 (hi^2 + hi lo + lo^2) / 3.
        ok = np.isfinite(hi[1]) & np.isfinite(lo[1])
        squares = np.subtract(hi[1], lo[1], out=np.zeros(np.shape(ok)),
                              where=ok)
        m1 = np.where(ok, 0.5 * squares * w, m0 * (0.5 * hi[0] + 0.5 * lo[0]))
        if order == 1:
            return m0, m1
        ok = np.isfinite(hi[2]) & np.isfinite(lo[2])
        cubes = np.subtract(hi[2], lo[2], out=np.zeros(np.shape(ok)),
                            where=ok)
        return m0, m1, np.where(ok, cubes / 3.0 * w,
                                m0 * (hi[1] + hi[0] * lo[0] + lo[1]) / 3.0)

    if d.family == "gaussian":
        # Terms t, erfc(|t|/sqrt2), erf(t/sqrt2), phi(t)[, t phi(t)].  Deep
        # in one tail the difference of CDFs loses all relative accuracy;
        # the complementary error function of that tail keeps it: a cell
        # right of mu reads erfc(t/sqrt2) at both ends, one left of it
        # erfc(-t/sqrt2).
        mu, s2 = p["mu"], p["sigma2"]
        sigma = math.sqrt(s2)
        m0 = 0.5 * np.where(lo[0] >= 0, lo[1] - hi[1],
                            np.where(hi[0] <= 0, hi[1] - lo[1], hi[2] - lo[2]))
        dphi = lo[3] - hi[3]
        m1 = mu * m0 + sigma * dphi
        if order == 1:
            return m0, m1
        central2 = s2 * (m0 + lo[4] - hi[4])
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


def interval_moments(d: DensitySpec, lo, hi):
    """Vectorized (mass, first moment, second moment) over [lo, hi] arrays.

    For the centroids of a tessellation's cells, cell_centroids shares each
    boundary's terms between its two cells and skips the second moment.
    """
    _require_bound(d)
    with np.errstate(over="ignore", under="ignore"):
        return _combine(d, _terms(d, np.asarray(lo, dtype=float), 2),
                        _terms(d, np.asarray(hi, dtype=float), 2), 2)


# Widths above this count as this wide in mass_floor, so no floor exceeds
# 1e-200: far below the mass of a cell that holds any share of the density
# worth a centroid, even a cell wider than 1e300 holding all of it.
_FLOOR_WIDTH_CAP = 1e100


def mass_floor(width):
    """Minimum mass below which a cell of the given width is treated as
    empty (vectorized over a widths array).

    Scaled by the width, at least 1 and at most _FLOOR_WIDTH_CAP, and 1 for
    an infinite or undefined (NaN, from inf - inf) width, so far-tail cells
    that underflow raise a clear EmptyCell instead of dividing near-zero.
    """
    width = np.where(np.isfinite(width), width, 1.0)
    return 1e-300 * np.minimum(np.maximum(width, 1.0), _FLOOR_WIDTH_CAP)


def cell_centroids(d: DensitySpec, m) -> np.ndarray:
    """Mass centroids m1 / m0 of the cells [m[i], m[i+1]] under d, for
    boundaries m, clamped into each cell against fp noise.  The package's
    one empty-cell rule: a cell of mass at most mass_floor of its width
    raises EmptyCell naming the first one.  A (K, N+1) stack of boundaries
    gives (K, N) centroids, each row the same bits as its own call, and an
    EmptyCell names the row as well as the cell.

    Analytic moments evaluate each boundary's terms once and difference
    them per cell, with the same values as interval_moments over each cell.
    The empty-cell rule is checked exactly, but per cell only when some
    cell is near empty.  This wrapper checks d and m and opens the
    np.errstate; the work is _cell_centroids, which tessellation.lloyd
    calls directly, inside one errstate per run.
    """
    _require_bound(d)
    m = np.asarray(m, dtype=float)
    # One errstate for the moments and the widths, which overflow or are
    # NaN only for cells with an infinite end.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return _cell_centroids(d, m)[0]


def _cell_centroids(d: DensitySpec, m: np.ndarray, t=None) -> tuple:
    """(centroids, m0) of the cells between boundaries m under the bound d,
    from t = _terms(d, m, 1) when given, for a caller that has checked d
    and holds an np.errstate ignoring over-, underflow and invalid values.

    The empty-cell rule costs two reductions when no cell is near empty:
    every cell's mass_floor is at most 1e-300 * min(max(largest width, 1),
    _FLOOR_WIDTH_CAP), so a least mass above that bound means no cell is
    empty.  An infinite width makes the bound the capped one, which is still
    at least the floor of 1e-300 that the per-cell rule gives it.  A NaN
    width makes the bound NaN and a NaN mass makes the least mass NaN; the
    comparison is then false, as it is when some mass is small, and the
    full per-cell rule decides.  Cells run along the last axis of m.
    """
    lo, hi = m[..., :-1], m[..., 1:]
    t = _terms(d, m, 1) if t is None else t
    m0, m1 = _combine(d, [a[..., :-1] for a in t], [a[..., 1:] for a in t], 1)
    width = hi - lo
    widest = np.maximum.reduce(width, axis=None, initial=1.0)
    # min keeps a NaN widest: the cap is never less than NaN.
    if not (np.minimum.reduce(m0, axis=None, initial=np.inf)
            > 1e-300 * min(widest, _FLOOR_WIDTH_CAP)):
        bad = m0 <= mass_floor(width)
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            row = f"row {at[0]}, " if bad.ndim > 1 else ""
            raise EmptyCell(f"{row}cell {at[-1]} = [{lo[at]}, {hi[at]}] "
                            f"has mass {m0[at]:g}")
    # m1 is a fresh array from _combine: the centroids take its place.
    c = np.divide(m1, m0, out=m1)
    np.maximum(c, lo, out=c)
    np.minimum(c, hi, out=c)
    return c, m0
