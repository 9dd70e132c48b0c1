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


# The parameters that must be positive, and the name each message gives.
_POSITIVE = {"sigma2": "sigma2", "lam": "lambda", "k": "k", "theta": "theta"}


def _check_params(family: str, params: dict) -> None:
    """Raise InvalidParameterValue if any bound parameter, a float, breaks
    its invariant: in _FAMILY_PARAMS order, so a gamma's k before theta."""
    for name in _FAMILY_PARAMS[family]:
        v = params.get(name)
        if name in _POSITIVE and v is not None and not v > 0:
            raise InvalidParameterValue(
                f"{family} requires {_POSITIVE[name]} > 0, got {v}")
    a, b = params.get("a"), params.get("b")
    if family == "uniform" and a is not None and b is not None:
        if not a < b:
            raise InvalidParameterValue(
                f"uniform requires a < b, got a={a}, b={b}")
        # An infinite end is refused as not finite, not here.
        if math.isfinite(a) and math.isfinite(b) and math.isinf(b - a):
            raise InvalidParameterValue(
                f"uniform requires a finite width b - a, got a={a}, b={b}")


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
# Closed-form moments: one kernel per density, _cell_moments, built once by
# its family's builder, whose cell moments are differences of per-point
# terms at the two ends, taken once per boundary.  The Gaussian, exponential
# and gamma kernels write their terms and order-1 moments into the buffers
# of a list, made when the boundaries' shape changes, so that a Lloyd run or
# a static solve on them allocates no array data per iteration; what they
# return is valid until the next call on that list.  Order 2's
# further terms are fresh arrays, but for the gamma's, which share its
# loop; the uniform kernel allocates all of its results afresh on every
# call, and so does the exponential's on a row it takes near zero.  Their constants are 0-d arrays: as ufunc operands
# they give the bits of the Python floats, but are not converted again on
# every call.  Callers open one np.errstate that ignores over- and
# underflow: interval_moments and cell_centroids once per call, and
# tessellation.lloyd once per run around its whole loop, which also covers
# its midpoints and displacements.
# ---------------------------------------------------------------------------

_ZERO, _HALF, _MINUS_HALF, _ROOT2, _INV_ROOT = map(
    np.array, (0.0, 0.5, -0.5, _SQRT2, _INV_SQRT_2PI))


def _buffers(kept: list, shape: tuple, make) -> tuple:
    """A kernel's buffers for boundaries of the given shape: make(shape of
    the ends, shape of the cells), kept in the kernel's list kept."""
    if shape != kept[0]:
        kept[:] = shape, make(shape, shape[:-1] + (max(shape[-1] - 1, 0),))
    return kept[1]


def _uniform(p: dict, kept: list):
    """The uniform kernel: powers of the ends clipped into [a, b]."""
    a, b = p["a"], p["b"]
    w = 1.0 / (b - a)

    def moments(m, order):
        c = np.clip(m, a, b)
        c2 = c ** 2
        lo, hi, lo2, hi2 = c[..., :-1], c[..., 1:], c2[..., :-1], c2[..., 1:]
        m0 = (hi - lo) * w
        # A square above about 1.3e154 or a cube above about 5.6e102
        # overflows, and two infinite powers differ by NaN: there, the same
        # moment factored as m0 (hi + lo) / 2 or m0 (hi^2 + hi lo + lo^2) / 3.
        ok = np.isfinite(hi2) & np.isfinite(lo2)
        squares = np.subtract(hi2, lo2, out=np.zeros(np.shape(ok)), where=ok)
        m1 = np.where(ok, 0.5 * squares * w, m0 * (0.5 * hi + 0.5 * lo))
        if order == 1:
            return m0, m1, None
        # Past the square overflow hi^2 + hi lo + lo^2 is inf, or NaN for
        # ends of opposite signs: there it is s (s q) for the larger |end| s
        # and the sum q of the ends over s.  An empty interval's factored
        # moment is 0, not 0 * inf = NaN.
        factored = np.multiply(m0, hi2 + np.where(ok, hi * lo, 0.0) + lo2,
                               out=np.zeros(np.shape(ok)), where=m0 != 0)
        wide = ~ok & (m0 != 0)
        s = np.maximum(np.abs(hi), np.abs(lo))[wide]
        h, l = hi[wide] / s, lo[wide] / s
        factored[wide] = m0[wide] * s * (s * (h * h + h * l + l * l))
        c3 = c ** 3
        ok = np.isfinite(c3[..., 1:]) & np.isfinite(c3[..., :-1])
        cubes = np.subtract(c3[..., 1:], c3[..., :-1],
                            out=np.zeros(np.shape(ok)), where=ok)
        return m0, m1, np.where(ok, cubes / 3.0 * w, factored / 3.0), None
    return moments


def _exponential_buffers(ends, cells):
    e, t1 = np.empty(ends), np.empty(ends)
    return (np.empty(ends), np.empty(ends), e, t1, np.empty(ends, bool),
            np.empty(cells), np.empty(cells),
            e[..., :-1], e[..., 1:], t1[..., :-1], t1[..., 1:])


# Below this lam x, for x the largest end of a row clipped at 0, the
# exponential's per-point terms, of sizes 1, 1/lam and 2/lam^2, cancel in
# their differences: such a row's cells take _exponential_near_zero.
EXP_NEAR_ZERO = 1.0

# Highest first, the Taylor coefficients in -v of B1(v) / v and B2(v) / v,
# where B1(v) = P(2, v) / v and B2(v) = 2 P(3, v) / v^2 for P the
# regularized lower incomplete gamma function: 1 / (j! (j + 2)) and
# 1 / (j! (j + 3)).  For |v| < 1 the terms past j = 19 are below 2^-60 of
# the sum.
_EXP_SERIES = tuple(
    np.array([1.0 / (math.factorial(j) * (j + n)) for j in range(19, -1, -1)])
    for n in (2, 3))


def _exponential_near_zero(lam: float, x: np.ndarray, order: int):
    """(m0, m1[, m2]) of the exponential's cells between the ends x >= 0,
    each taken about its first end lo: with w = hi - lo, v = lam w and
    e = exp(-lam lo), m0 = e A, m1 = e (lo A + w B1) and
    m2 = e (lo (lo A + 2 w B1) + w (w B2)), where A = -expm1(-v) and B1,
    B2 are the series of _EXP_SERIES.  No sum cancels for |v| < 1, which
    holds in a row below EXP_NEAR_ZERO, its cells' ends in either order."""
    lo = x[..., :-1]
    w = x[..., 1:] - lo
    v = lam * w
    e = np.exp(-lam * lo)
    a = -np.expm1(-v)
    wb1 = w * (v * np.polyval(_EXP_SERIES[0], -v))
    m0, m1 = e * a, e * (lo * a + wb1)
    if order == 1:
        return m0, m1
    wwb2 = w * (w * (v * np.polyval(_EXP_SERIES[1], -v)))
    return m0, m1, e * (lo * (lo * a + 2.0 * wb1) + wwb2)


def _exponential(p: dict, kept: list):
    """The exponential kernel: each moment's polynomial times exp(-lam x),
    but for a row whose largest clipped end x has lam x < EXP_NEAR_ZERO,
    which _exponential_near_zero takes; each row of a stack takes the form
    its own call would."""
    lam = p["lam"]
    minus_lam, inv = np.array(-lam), np.array(1.0 / lam)

    def moments(m, order):
        (x, xs, e, t1, fin, m0, m1, e_lo, e_hi, t1_lo,
         t1_hi) = _buffers(kept, m.shape, _exponential_buffers)
        np.maximum(m, _ZERO, out=x)
        if x.ndim == 1:
            if x.size and lam * x[-1] < EXP_NEAR_ZERO:
                return (*_exponential_near_zero(lam, x, order), None)
        else:
            largest = np.maximum.reduce(x, axis=-1, initial=0.0)
            near = lam * largest < EXP_NEAR_ZERO
            if near.any():
                out = [np.empty(m0.shape) for _ in range(order + 1)]
                for rows, part in (
                        (near, _exponential_near_zero(lam, x[near], order)),
                        (~near, () if near.all() else moments(m[~near], order))):
                    for a, b in zip(out, part):
                        a[rows] = b
                return (*out, None)
        np.isfinite(x, out=fin)
        xs.fill(0.0)
        np.copyto(xs, x, where=fin)
        np.multiply(x, minus_lam, out=e)
        np.exp(e, out=e)  # 0 at x = inf
        np.add(xs, inv, out=t1)
        t1 *= e
        np.subtract(e_lo, e_hi, out=m0)
        np.subtract(t1_lo, t1_hi, out=m1)
        if order == 1:
            return m0, m1, None
        # 0 where e is: at a huge x the polynomial overflows to inf, and
        # inf * 0 would be NaN.
        poly = xs * xs + 2.0 * xs / lam + 2.0 / np.float64(lam) ** 2
        t2 = np.multiply(poly, e, out=np.zeros_like(e), where=e != 0)
        return m0, m1, t2[..., :-1] - t2[..., 1:], None
    return moments


def _gamma_buffers(ends, cells):
    P, Q = np.empty(ends), np.empty(ends)
    return (np.empty(ends), P, Q, P[..., :-1], P[..., 1:], Q[..., :-1],
            Q[..., 1:], np.empty(cells, bool),
            (np.empty(cells), np.empty(cells), np.empty(cells)))


def _gamma(p: dict, kept: list):
    """The gamma kernel: the lower and upper regularized incomplete gamma
    functions P and Q of shapes k, k + 1[, k + 2] at the ends clipped at 0,
    over theta.  A cell reads the upper tail Q when its lower end sits past
    the bulk, to avoid catastrophic cancellation of near-1 P values."""
    k, theta = p["k"], p["theta"]
    shapes = tuple(map(np.array, (k, k + 1.0, k + 2.0)))
    scales = tuple(map(np.array, (k * theta, k * (k + 1.0) * theta * theta)))
    theta = np.array(theta)
    gammainc, gammaincc = special.gammainc, special.gammaincc

    def moments(m, order):
        (x, P, Q, P_lo, P_hi, Q_lo, Q_hi, upper,
         diffs) = _buffers(kept, m.shape, _gamma_buffers)
        np.maximum(m, _ZERO, out=x)
        x /= theta
        diffs = diffs[:order + 1]
        for shape, diff in zip(shapes, diffs):
            gammainc(shape, x, out=P)
            gammaincc(shape, x, out=Q)
            np.greater(P_lo, _HALF, out=upper)
            np.subtract(P_hi, P_lo, out=diff)
            np.subtract(Q_lo, Q_hi, out=diff, where=upper)
        for c, diff in zip(scales, diffs[1:]):
            diff *= c
        return (*diffs, None)
    return moments


def _gaussian_buffers(ends, cells):
    tail = np.empty(ends)
    return (np.empty(ends), np.empty(ends), tail, np.empty(cells),
            np.empty(cells), np.empty(cells), tail[..., :-1], tail[..., 1:])


def _gaussian(p: dict, kept: list):
    """The Gaussian kernel.  A cell reads the erfc of its own tail,
    E = erfc(|t|/sqrt2), which keeps the accuracy a difference of CDFs
    loses there: E_lo - E_hi right of mu, E_hi - E_lo left of it, and erf
    only across it.  A row's cells run left of mu, across it (one at most)
    and right of it, split by one searchsorted of t for 0; a stack takes
    each cell's side.  Its e is exp(-t^2/2) at the boundaries."""
    s2 = p["sigma2"]
    mu, sigma = np.array(p["mu"]), np.array(math.sqrt(s2))
    erf, erfc = special.erf, special.erfc

    def moments(m, order):
        (t, e, tail, m0, m1, dphi, tail_lo,
         tail_hi) = _buffers(kept, m.shape, _gaussian_buffers)
        np.subtract(m, mu, out=t)
        t /= sigma
        np.multiply(t, _MINUS_HALF, out=e)
        e *= t
        np.exp(e, out=e)  # 0 at t = +-inf
        np.abs(t, out=tail)
        tail /= _ROOT2
        erfc(tail, out=tail)
        np.subtract(tail_hi, tail_lo, out=m0)
        if t.ndim == 1:  # the cells from i on lie right of mu
            i = t.searchsorted(0.0)
            np.subtract(tail[i:-1], tail[i + 1:], out=m0[i:])
            at = (i - 1,) if 0 < i < t.size and t[i] > 0 else None
        else:
            np.subtract(tail_lo, tail_hi, out=m0, where=t[:, :-1] >= 0)
            at = np.nonzero((t[:, :-1] < 0) & (t[:, 1:] > 0))
        if at is not None:
            m0[at] = (erf(t[at[:-1] + (at[-1] + 1,)] / _SQRT2)
                      - erf(t[at] / _SQRT2))
        m0 *= _HALF
        # The spent tail holds the pdf phi, then sigma dphi.
        np.multiply(e, _INV_ROOT, out=tail)
        np.subtract(tail_lo, tail_hi, out=dphi)
        np.multiply(m0, mu, out=m1)
        np.multiply(dphi, sigma, out=tail_lo)
        m1 += tail_lo
        if order == 1:
            return m0, m1, e
        tphi = np.where(np.isfinite(t), t, 0.0) * e * _INV_SQRT_2PI
        central2 = s2 * (m0 + tphi[..., :-1] - tphi[..., 1:])
        return m0, m1, mu * mu * m0 + 2.0 * mu * sigma * dphi + central2, e
    return moments


_KERNELS = {"uniform": _uniform, "gaussian": _gaussian,
            "exponential": _exponential, "gamma": _gamma}


def _cell_moments(d: DensitySpec, kept: list | None = None):
    """The bound d's moment kernel, from its family's builder: a function
    of boundaries m, a 1-D row in non-decreasing order or a (K, N+1) stack
    of rows in any order, and an order, 1 or 2, giving (m0, m1[, m2], e)
    of the cells along m's last axis, under a caller's np.errstate ignoring
    over- and underflow; e is what _pdf_at reads, None but for a Gaussian.
    But for the uniform kernel's and an exponential's near zero, whose
    results are fresh arrays, m0, m1 and e are buffers in kept, a new list
    by default that kernels of one family may share, and so is a gamma m2:
    each is valid until the next call of a kernel on kept."""
    _require_bound(d)
    return _KERNELS[d.family](d.params, [None, None] if kept is None else kept)


def interval_moments(d: DensitySpec, lo, hi):
    """Vectorized (mass, first moment, second moment) over [lo, hi],
    broadcast together: each interval a one-cell row of a stack for d's
    kernel, so that its ends may come in either order.  A NaN moment of an
    interval neither of whose ends is NaN, where a term leaves float64,
    raises InvalidParameterValue naming the first such interval."""
    moments = _cell_moments(d)
    m = np.stack(np.broadcast_arrays(lo, hi), axis=-1).astype(float)
    rows = m.reshape(-1, 2)
    with np.errstate(all="ignore"):
        out = moments(rows, 2)
    bad = np.isnan(out[:3]).any(axis=(0, 2)) & ~np.isnan(rows).any(axis=1)
    if bad.any():
        a, b = rows[np.argmax(bad)]
        raise InvalidParameterValue(
            f"the {d.family} moments of [{a}, {b}] are NaN: a term leaves "
            "the float64 range")
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


def _centroid_map(d: DensitySpec, kept: list | None = None):
    """The bound d's centroid map: a function of ordered boundaries m, 1-D
    or (K, N+1), and an optional out for the centroids, giving
    (centroids, m0, e) from _cell_moments(d, kept) at order 1, under a
    caller's np.errstate ignoring over-, underflow and invalid values.
    Without out the centroids take the place of the kernel's first moments;
    they, m0 and e are the kernel's buffers, valid until the next call of a
    map on the same kept list (the map's own without kept).  No cell is
    wider than its row's span m[-1] - m[0], so a least mass above 1e-300 *
    min(max(span, 1), _FLOOR_WIDTH_CAP) means none is empty; else, as for a
    NaN span or mass, the per-cell rule decides."""
    moments = _cell_moments(d, kept)

    def centroids(m, out=None):
        m0, m1, e = moments(m, 1)
        lo, hi = m[..., :-1], m[..., 1:]
        if m.ndim == 1 and m0.size:  # argmin, unlike min, is no reduction
            span, least = m[-1] - m[0], m0[m0.argmin()]
        else:
            span = np.maximum.reduce(m[..., -1:] - m[..., :1], axis=None,
                                     initial=1.0)
            least = np.minimum.reduce(m0, axis=None, initial=np.inf)
        # max and min keep a NaN span, and argmin a NaN mass: neither bound
        # exceeds NaN.
        if not least > 1e-300 * min(max(span, 1.0), _FLOOR_WIDTH_CAP):
            bad = m0 <= mass_floor(hi - lo)
            if bad.any():
                at = np.unravel_index(np.argmax(bad), bad.shape)
                row = f"row {at[0]}, " if bad.ndim > 1 else ""
                raise EmptyCell(f"{row}cell {at[-1]} = [{lo[at]}, {hi[at]}] "
                                f"has mass {m0[at]:g}")
        c = np.divide(m1, m0, out=m1 if out is None else out)
        np.maximum(c, lo, out=c)
        np.minimum(c, hi, out=c)
        return c, m0, e
    return centroids
