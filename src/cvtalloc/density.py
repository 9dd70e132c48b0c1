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


def _pdf_at(d: DensitySpec, m: np.ndarray, e) -> np.ndarray:
    """d.pdf(m), e being what d's centroid map gave for m: a Gaussian's
    from its exp(-t^2/2), by pdf's own expression and its bits."""
    if e is not None:
        return e * (_INV_SQRT_2PI / math.sqrt(d.params["sigma2"]))
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
# Closed-form moments: one kernel per density, _cell_moments, whose cell
# moments are differences of per-point terms at the two ends, taken once
# per boundary.  Callers open one np.errstate that ignores over- and
# underflow: interval_moments and cell_centroids once per call, and
# tessellation.lloyd once per run around its whole loop, which also covers
# its midpoints and displacements.
# ---------------------------------------------------------------------------

def _terms(d: DensitySpec, x, order: int) -> tuple:
    """Per-point values whose differences between two ends give d's
    moments up to order over the interval between them (not a Gaussian's)."""
    p = d.params
    if d.family == "uniform":
        c = np.clip(x, p["a"], p["b"])
        return (c, c ** 2, c ** 3) if order == 2 else (c, c ** 2)

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
    at both ends, arrays, each difference taken in a cancellation-safe
    branch."""
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
        # Past the square overflow hi^2 + hi lo + lo^2 is inf, or NaN for
        # ends of opposite signs: there it is s (s q) for the larger |end| s
        # and the sum q of the ends over s.  An empty interval's factored
        # moment is 0, not 0 * inf = NaN.
        factored = np.multiply(m0, hi[1] + np.where(ok, hi[0] * lo[0], 0.0)
                               + lo[1], out=np.zeros(np.shape(ok)),
                               where=m0 != 0)
        wide = ~ok & (m0 != 0)
        s = np.maximum(np.abs(hi[0]), np.abs(lo[0]))[wide]
        h, l = hi[0][wide] / s, lo[0][wide] / s
        factored[wide] = m0[wide] * s * (s * (h * h + h * l + l * l))
        ok = np.isfinite(hi[2]) & np.isfinite(lo[2])
        cubes = np.subtract(hi[2], lo[2], out=np.zeros(np.shape(ok)),
                            where=ok)
        return m0, m1, np.where(ok, cubes / 3.0 * w, factored / 3.0)

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


def _cell_moments(d: DensitySpec):
    """The bound d's moment kernel: a function of boundaries m, a 1-D row
    in non-decreasing order or a (K, N+1) stack of rows in any order, and
    an order, 1 or 2, giving (m0, m1[, m2], e) of the cells along m's last
    axis, under a caller's np.errstate ignoring over- and underflow; e is
    what _pdf_at reads, None but for a Gaussian.  A Gaussian cell reads the
    erfc of its own tail, E = erfc(|t|/sqrt2), which keeps the accuracy a
    difference of CDFs loses there: E_lo - E_hi right of mu, E_hi - E_lo
    left of it, and erf only across it.  A row's cells run left of mu,
    across it (one at most) and right of it, split by one searchsorted of t
    for 0; a stack takes each cell's side.  The other families difference
    their _terms in _combine."""
    _require_bound(d)
    if d.family != "gaussian":
        def moments(m, order):
            t = _terms(d, m, order)
            return _combine(d, [a[..., :-1] for a in t],
                            [a[..., 1:] for a in t], order) + (None,)
        return moments

    mu, s2 = d.params["mu"], d.params["sigma2"]
    sigma = math.sqrt(s2)
    erf, erfc = special.erf, special.erfc

    def moments(m, order):
        t = (m - mu) / sigma
        e = np.exp(-0.5 * t * t)  # 0 at t = +-inf
        tail = erfc(np.abs(t) / _SQRT2)
        m0 = np.subtract(tail[..., 1:], tail[..., :-1])
        if t.ndim == 1:  # the cells from i on lie right of mu
            i = t.searchsorted(0.0)
            np.subtract(tail[i:-1], tail[i + 1:], out=m0[i:])
            at = (i - 1,) if 0 < i < t.size and t[i] > 0 else None
        else:
            np.subtract(tail[:, :-1], tail[:, 1:], out=m0,
                        where=t[:, :-1] >= 0)
            at = np.nonzero((t[:, :-1] < 0) & (t[:, 1:] > 0))
        if at is not None:
            m0[at] = (erf(t[at[:-1] + (at[-1] + 1,)] / _SQRT2)
                      - erf(t[at] / _SQRT2))
        m0 *= 0.5
        phi = e * _INV_SQRT_2PI
        dphi = phi[..., :-1] - phi[..., 1:]
        m1 = mu * m0 + sigma * dphi
        if order == 1:
            return m0, m1, e
        tphi = np.where(np.isfinite(t), t, 0.0) * e * _INV_SQRT_2PI
        central2 = s2 * (m0 + tphi[..., :-1] - tphi[..., 1:])
        return m0, m1, mu * mu * m0 + 2.0 * mu * sigma * dphi + central2, e
    return moments


def interval_moments(d: DensitySpec, lo, hi):
    """Vectorized (mass, first moment, second moment) over [lo, hi],
    broadcast together: each interval a one-cell row of a stack for d's
    kernel, so that its ends may come in either order."""
    moments = _cell_moments(d)
    m = np.stack(np.broadcast_arrays(lo, hi), axis=-1).astype(float)
    with np.errstate(over="ignore", under="ignore"):
        out = moments(m.reshape(-1, 2), 2)
    return tuple(a.reshape(m.shape[:-1])[()] for a in out[:3])


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
    """Mass centroids m1 / m0 of the cells [m[i], m[i+1]] under d, clamped
    into each cell against fp noise, for boundaries m in non-decreasing
    order: InvalidParameterValue otherwise, or for a NaN.  The package's
    one empty-cell rule: a cell of mass at most mass_floor of its width
    raises EmptyCell naming the first one.  A (K, N+1) stack of boundaries
    gives (K, N) centroids, each row the same bits as its own call, and an
    EmptyCell names the row as well as the cell.  Its work is d's
    _centroid_map, on the moment kernel that interval_moments reads.
    """
    _require_bound(d)
    m = np.asarray(m, dtype=float)
    if not np.logical_and.reduce(m[..., 1:] >= m[..., :-1], axis=None):
        raise InvalidParameterValue(
            "cell boundaries must be non-decreasing, with no NaN")
    # One errstate for the moments and the widths, which overflow or are
    # NaN only for cells with an infinite end.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return _centroid_map(d)(m)[0]


def _centroid_map(d: DensitySpec):
    """The bound d's centroid map: a function of ordered boundaries m, 1-D
    or (K, N+1), giving (centroids, m0, e) from _cell_moments(d) at order
    1, under a caller's np.errstate ignoring over-, underflow and invalid
    values.  No cell is wider than its row's span m[-1] - m[0], so a least
    mass above 1e-300 * min(max(span, 1), _FLOOR_WIDTH_CAP) means none is
    empty; else, as for a NaN span or mass, the per-cell rule decides."""
    moments = _cell_moments(d)

    def centroids(m):
        m0, m1, e = moments(m, 1)
        lo, hi = m[..., :-1], m[..., 1:]
        span = (m[-1] - m[0] if m.ndim == 1 and m.size else np.maximum.reduce(
            m[..., -1:] - m[..., :1], axis=None, initial=1.0))
        # max and min keep a NaN span: neither bound exceeds NaN.
        if not (np.minimum.reduce(m0, axis=None, initial=np.inf)
                > 1e-300 * min(max(span, 1.0), _FLOOR_WIDTH_CAP)):
            bad = m0 <= mass_floor(hi - lo)
            if bad.any():
                at = np.unravel_index(np.argmax(bad), bad.shape)
                row = f"row {at[0]}, " if bad.ndim > 1 else ""
                raise EmptyCell(f"{row}cell {at[-1]} = [{lo[at]}, {hi[at]}] "
                                f"has mass {m0[at]:g}")
        # m1 is a fresh array: the centroids take its place.
        c = np.divide(m1, m0, out=m1)
        np.maximum(c, lo, out=c)
        np.minimum(c, hi, out=c)
        return c, m0, e
    return centroids
