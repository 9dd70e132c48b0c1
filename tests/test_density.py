"""Density families: construction, closed-form interval moments, and their
agreement with the quadrature oracle of tests/quadrature.py."""

import decimal
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import quadrature
from cvtalloc import density as dens
from cvtalloc import sim
from cvtalloc import static_alloc as sa
from cvtalloc import tessellation as tess
from cvtalloc.density import DensitySpec, bind_free_parameter
from cvtalloc.errors import (
    EmptyCell,
    InvalidParameterValue,
    NoFreeParameter,
    UnboundFreeParameter,
)
from test_golden import SHIPPED, lloyd_runs, static_problems


# ---------------------------------------------------------------------------
# Construction and the config grammar
# ---------------------------------------------------------------------------

class TestDensitySpec:
    def test_families_and_params(self):
        DensitySpec("uniform", {"a": 0.0, "b": 1.0})
        DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        DensitySpec("exponential", {"lam": 2.0})
        DensitySpec("gamma", {"k": 2.0, "theta": 1.0})

    @pytest.mark.parametrize("value", [None, True, False, math.nan,
                                       math.inf, -math.inf, "2", [2.0]],
                             ids=repr)
    def test_non_finite_and_non_numeric_values_rejected(self, value):
        with pytest.raises(InvalidParameterValue, match="sigma2"):
            DensitySpec("gaussian", {"mu": 0.0, "sigma2": value})
        with pytest.raises(InvalidParameterValue, match="sigma2"):
            DensitySpec.from_config(
                {"family": "gaussian", "mu": "free", "sigma2": value})

    @pytest.mark.parametrize("spec", [5, [1], "gaussian", None])
    def test_non_object_config_rejected(self, spec):
        with pytest.raises(InvalidParameterValue, match="must be an object"):
            DensitySpec.from_config(spec)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterValue):
            DensitySpec("gaussian", {"mu": 0.0, "sigma2": -1.0})
        with pytest.raises(InvalidParameterValue):
            DensitySpec("exponential", {"lam": 0.0})
        with pytest.raises(InvalidParameterValue):
            DensitySpec("gamma", {"k": -2.0, "theta": 1.0})
        with pytest.raises(InvalidParameterValue):
            DensitySpec("uniform", {"a": 1.0, "b": 1.0})
        with pytest.raises(InvalidParameterValue):
            DensitySpec("weibull", {"k": 1.0})
        with pytest.raises(InvalidParameterValue,
                           match="^gaussian has no parameter 'k'$"):
            DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0, "k": 2.0})
        with pytest.raises(InvalidParameterValue,
                           match=r"^gamma is missing parameters \['theta'\]$"):
            DensitySpec("gamma", {"k": 2.0})

    def test_free_parameter_marking(self):
        d = DensitySpec("gaussian", {"sigma2": 4.0}, free_param="mu")
        assert not d.is_bound
        assert d.free_param == "mu"
        bound = bind_free_parameter(d, 50.0)
        assert bound.is_bound
        assert bound.params == {"mu": 50.0, "sigma2": 4.0}

    def test_bind_without_free_parameter(self):
        d = DensitySpec("exponential", {"lam": 1.0})
        with pytest.raises(NoFreeParameter):
            bind_free_parameter(d, 2.0)

    def test_bind_invalid_value(self):
        d = DensitySpec("gaussian", {"mu": 0.0}, free_param="sigma2")
        with pytest.raises(InvalidParameterValue):
            bind_free_parameter(d, -1.0)

    def test_config_grammar_roundtrip(self):
        cfg = {"family": "gaussian", "mu": "free", "sigma2": 4.0}
        d = DensitySpec.from_config(cfg)
        assert d.family == "gaussian"
        assert d.free_param == "mu"
        assert d.params == {"sigma2": 4.0}
        assert DensitySpec.from_config(
            {"family": d.family, **d.params, d.free_param: "free"}) == d

    def test_config_aliases(self):
        d = DensitySpec.from_config({"family": "exponential", "lambda": 2.0})
        assert d.params == {"lam": 2.0}
        d = DensitySpec.from_config({"family": "gaussian", "mu": 0.0,
                                     "variance": 9.0})
        assert d.params == {"mu": 0.0, "sigma2": 9.0}

    @pytest.mark.parametrize("cfg, first, second", [
        ({"family": "exponential", "lam": 1, "lambda": 2}, "lam", "lambda"),
        ({"family": "exponential", "rate": 1, "lambda": 2}, "rate", "lambda"),
        ({"family": "gaussian", "mu": "free", "sigma2": 4, "variance": 9},
         "sigma2", "variance"),
        ({"family": "exponential", "lam": 1, "rate": "free"}, "lam", "rate"),
        ({"family": "exponential", "lambda": "free", "lam": 1},
         "lam", "lambda"),
    ], ids=["lam-lambda", "rate-lambda", "sigma2-variance", "value-and-free",
            "free-and-value"])
    def test_one_parameter_named_twice_is_refused(self, cfg, first, second):
        # The keys with values are resolved in order, then the free one, so
        # the message names a value's spelling first.
        name = "lam" if first in ("lam", "rate") else "sigma2"
        with pytest.raises(InvalidParameterValue,
                           match=f"^{cfg['family']} parameter '{name}' is "
                                 f"named twice, as '{first}' and "
                                 f"'{second}'$"):
            DensitySpec.from_config(cfg)

    def test_free_parameter_also_given_a_value_is_refused(self):
        with pytest.raises(InvalidParameterValue, match="named twice"):
            DensitySpec("gaussian", {"mu": 1.0, "sigma2": 4.0},
                        free_param="mu")

    @pytest.mark.parametrize("family", [3, None, ["gaussian"]], ids=repr)
    def test_family_not_a_string_is_refused(self, family):
        with pytest.raises(InvalidParameterValue,
                           match="^unknown density family"):
            DensitySpec.from_config({"family": family, "lam": 1.0})

    def test_two_free_parameters_rejected(self):
        with pytest.raises(InvalidParameterValue):
            DensitySpec.from_config({"family": "gamma", "k": "free",
                                     "theta": "free"})

    def test_unbound_density_cannot_integrate(self):
        d = DensitySpec("gaussian", {"sigma2": 4.0}, free_param="mu")
        with pytest.raises(UnboundFreeParameter):
            dens.interval_moments(d, 0.0, 1.0)


def _bind_before(d, value):
    """bind_free_parameter as it was before it stopped re-running
    DensitySpec.__post_init__: the oracle for every outcome and message."""
    if d.free_param is None:
        raise NoFreeParameter("density has no free parameter to bind")
    params = dict(d.params)
    params[d.free_param] = float(value)
    dens._check_params(d.family, params)
    return DensitySpec(d.family, params, free_param=None)


def _bind_outcome(bind, d, value):
    try:
        b = bind(d, value)
    except Exception as exc:  # the oracle's exception, whatever it is
        return type(exc), str(exc)
    return (b.family, b.free_param,
            [(k, type(v), v) for k, v in b.params.items()])


class TestBindFreeParameter:
    SPECS = [
        DensitySpec("gaussian", {"sigma2": 4.0}, free_param="mu"),
        DensitySpec("gaussian", {"mu": 1.0}, free_param="sigma2"),
        DensitySpec("uniform", {"a": 0.0}, free_param="b"),
        DensitySpec("uniform", {"b": 10.0}, free_param="a"),
        DensitySpec("exponential", {}, free_param="lambda"),
        DensitySpec("gamma", {"theta": 2.0}, free_param="k"),
        DensitySpec("gamma", {"k": 3.0}, free_param="theta"),
        DensitySpec("gamma", {"k": 3.0, "theta": 2.0}),
    ]
    VALUES = [2.5, 20.0, 0.0, -0.0, -3.0, 1e308, 5e-324, math.inf,
              -math.inf, math.nan, True, False, 7, np.float64(1.5),
              np.float32(0.25), np.int64(3), np.float64(math.nan),
              np.float64(-math.inf), np.bool_(True), "2", None, [1.0]]

    @pytest.mark.parametrize("d", SPECS, ids=lambda d: f"{d.family}-{d.free_param}")
    def test_same_outcome_as_rebuilding_the_spec(self, d):
        for value in self.VALUES:
            assert (_bind_outcome(bind_free_parameter, d, value)
                    == _bind_outcome(_bind_before, d, value)), value

    def test_messages_keep_their_order(self):
        mu = DensitySpec("gaussian", {"sigma2": 4.0}, free_param="mu")
        s2 = DensitySpec("gaussian", {"mu": 0.0}, free_param="sigma2")
        with pytest.raises(InvalidParameterValue,
                           match="^gaussian requires sigma2 > 0, got nan$"):
            bind_free_parameter(s2, math.nan)
        with pytest.raises(InvalidParameterValue,
                           match="^gaussian parameter 'mu' must be a finite "
                                 "number, got nan$"):
            bind_free_parameter(mu, math.nan)

    def test_bound_spec_equals_a_constructed_one(self):
        d = DensitySpec("gamma", {"theta": 2.0}, free_param="k")
        assert bind_free_parameter(d, 3) == DensitySpec(
            "gamma", {"theta": 2.0, "k": 3.0})


# ---------------------------------------------------------------------------
# Known integral values
# ---------------------------------------------------------------------------

def _mass(d, lo, hi):
    return dens.interval_moments(d, lo, hi)[0]


def _first_moment(d, lo, hi):
    return dens.interval_moments(d, lo, hi)[1]


def _centroid(d, lo, hi):
    return dens.cell_centroids(d, [lo, hi])[0]


class TestKnownIntegrals:
    def test_uniform_proportional_mass(self):
        d = DensitySpec("uniform", {"a": 0.0, "b": 15.0})
        assert _mass(d, 0.0, 5.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_gaussian_half_mass(self):
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        assert _mass(d, -math.inf, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_gamma_lower_tail(self):
        # integral of x e^{-x} over [0,1] = 1 - 2/e
        d = DensitySpec("gamma", {"k": 2.0, "theta": 1.0})
        assert _mass(d, 0.0, 1.0) == pytest.approx(1.0 - 2.0 / math.e,
                                                   abs=1e-12)

    def test_uniform_mean(self):
        d = DensitySpec("uniform", {"a": 0.0, "b": 1.0})
        assert _first_moment(d, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_full_first_moment(self):
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        assert _first_moment(d, -math.inf, math.inf) == pytest.approx(
            0.0, abs=1e-15)

    def test_exponential_mean(self):
        d = DensitySpec("exponential", {"lam": 2.0})
        assert _first_moment(d, 0.0, math.inf) == pytest.approx(0.5,
                                                                abs=1e-15)

    def test_half_normal_centroid(self):
        # E[X | X > mu] = mu + sigma * sqrt(2/pi)
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        assert _centroid(d, 0.0, math.inf) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-14)

    def test_gaussian_full_second_moment(self):
        d = DensitySpec("gaussian", {"mu": 3.0, "sigma2": 4.0})
        # E[X^2] = mu^2 + sigma^2
        assert dens.interval_moments(d, -math.inf, math.inf)[2] == \
            pytest.approx(13.0, abs=1e-12)

    def test_exponential_moments_up_to_a_huge_end(self):
        # At x = 1.7e308 the second-moment term's polynomial overflows to
        # inf where exp(-lam x) is 0; the term is 0 there, not NaN.
        d = DensitySpec("exponential", {"lam": 0.5})
        m0, m1, m2 = dens.interval_moments(d, 0.0, 1.7e308)
        assert (m0, m1, m2) == (1.0, 2.0, 8.0)

    @pytest.mark.parametrize("lam", [0.5, 1e-3, 7.0])
    def test_exponential_second_moment_term_keeps_its_bits(self, lam):
        # Wherever the product poly * e was finite, the guarded term has its
        # bits; elsewhere (inf * 0) it is 0.
        # The kernel's m2 of each one-cell row [x_i, x_{i+1}] is the
        # difference of those terms, but for the rows it takes near zero.
        d = DensitySpec("exponential", {"lam": lam})
        x = np.concatenate(([0.0, np.inf], 10.0 ** np.linspace(-3, 308, 400),
                            np.linspace(0.0, 2000.0 / lam, 400)))
        rows = np.column_stack((x[:-1], x[1:]))
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(-lam * x)
            xs = np.where(np.isfinite(x), x, 0.0)
            before = (xs * xs + 2.0 * xs / lam + 2.0 / lam ** 2) * e
            got = dens._cell_moments(d)(rows, 2)[2][:, 0]
        finite = np.isfinite(before)
        assert not finite.all()
        term = np.where(finite, before, 0.0)
        near = _near_zero_rows(d, rows)
        assert 0 < near.sum() < 10
        assert (got[~near].tobytes()
                == (term[:-1] - term[1:])[~near].tobytes())

    def test_uniform_second_moment_past_the_cube_overflow(self):
        # Above about 5.6e102 the cubed ends overflow; the second moment is
        # the factored m0 (hi^2 + hi lo + lo^2) / 3 there, not NaN.
        b = 1e120
        d = DensitySpec("uniform", {"a": 0.0, "b": b})
        lo, hi = np.array([0.0, 0.5 * b, 0.0]), np.array([0.5 * b, b, b])
        m0, _, m2 = dens.interval_moments(d, lo, hi)
        np.testing.assert_allclose(m2, [b * b / 24.0, 7.0 * b * b / 24.0,
                                        b * b / 3.0], rtol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_uniform_second_moment_of_an_empty_interval(self):
        # Past the square overflow an interval outside [a, b] has m0 = 0
        # and clipped ends whose square is inf: its second moment is 0,
        # not 0 * inf = NaN with a RuntimeWarning.  Where m0 is not 0 the
        # factored moment keeps its bits.
        b = 1e200
        d = DensitySpec("uniform", {"a": 0.0, "b": b})
        assert dens.interval_moments(d, 2e200, 3e200) == (0.0, 0.0, 0.0)
        lo = np.array([0.0, 0.25 * b, 2e200, 0.5 * b])
        hi = np.array([0.5 * b, b, 3e200, 0.5 * b])
        m0, _, m2 = dens.interval_moments(d, lo, hi)
        c_lo, c_hi = np.clip(lo, 0.0, b), np.clip(hi, 0.0, b)
        with np.errstate(over="ignore", invalid="ignore"):
            before = m0 * (c_hi ** 2 + c_hi * c_lo + c_lo ** 2) / 3.0
        assert m2[:2].tobytes() == before[:2].tobytes()
        assert np.array_equal(m2[2:], [0.0, 0.0]) and np.isnan(before[2:]).all()

    @pytest.mark.filterwarnings("error")
    def test_uniform_second_moment_past_the_square_overflow(self):
        # Where a squared end overflows, hi^2 + hi lo + lo^2 is inf, or
        # inf - inf = NaN, with a RuntimeWarning, for ends of opposite
        # signs.  Over the whole of [-1e200, 1e200] the moment overflows
        # to +inf; over narrower intervals, on one side of 0 or across it
        # and in either order, it is finite.
        a, b = -1e200, 1e200
        d = DensitySpec("uniform", {"a": a, "b": b})
        assert dens.interval_moments(d, a, b)[2] == math.inf
        lo = np.array([-1e155, -3e154, 2e155, 1e150, -2e155, 1e199])
        hi = np.array([1e155, 2e155, -3e154, 2e155, -1e155, 1e199])
        m2 = dens.interval_moments(d, lo, hi)[2]
        exact = [float((Fraction(h) ** 3 - Fraction(l) ** 3)
                       / (3 * (Fraction(b) - Fraction(a))))
                 for l, h in zip(lo, hi)]
        np.testing.assert_allclose(m2, exact, rtol=2e-15)

    @pytest.mark.parametrize("d, lo, hi", [
        # inf - inf in the second moment's difference of terms, inf * 0 in
        # the gamma's, and 2 / lam ** 2 with lam ** 2 underflowing to 0.
        (DensitySpec("exponential", {"lam": 1e-160}), 1e160, 2e160),
        (DensitySpec("gamma", {"k": 3.0, "theta": 1e300}), 1e305, 1e306),
        (DensitySpec("exponential", {"lam": 1e-300}), 0.0, 1e300),
    ], ids=["exponential-subtract", "gamma-multiply", "exponential-divide"])
    def test_moments_that_leave_float64_are_one_typed_error(self, d, lo, hi):
        # Each once ended in a RuntimeWarning and a NaN second moment.
        with pytest.raises(InvalidParameterValue, match=re.escape(
                f"the {d.family} moments of [{lo}, {hi}] are NaN")):
            dens.interval_moments(d, lo, hi)

    def test_the_error_names_the_first_interval_with_number_ends(self):
        # A NaN end gives NaN moments and no error; [1e155, 1e156] has
        # finite moments under the same lam.
        d = DensitySpec("exponential", {"lam": 1e-160})
        lo, hi = np.array([1e155, np.nan, 1e160]), np.array([1e156, 1, 2e160])
        moments = np.array(dens.interval_moments(d, lo[:2], hi[:2]))
        assert np.isfinite(moments[:, 0]).all()
        assert np.isnan(moments[:, 1]).all()
        with pytest.raises(InvalidParameterValue,
                           match=r"^the exponential moments of \[1e\+160, "):
            dens.interval_moments(d, lo, hi)

    def test_uniform_first_moment_past_the_square_overflow(self):
        # Above about 1.3e154 the squared ends overflow; the first moment is
        # the factored m0 (hi + lo) / 2 there, not NaN, and the centroids
        # are the cells' midpoints.
        b = 1.7e308
        d = DensitySpec("uniform", {"a": 0.0, "b": b})
        m = np.array([0.0, 1e160, 0.5 * b, b])
        np.testing.assert_allclose(dens.cell_centroids(d, m),
                                   [5e159, 0.25 * b + 5e159, 0.75 * b],
                                   rtol=1e-15)

    @pytest.mark.parametrize("b", [1.0, 1e100, 1e154, 1e200, 8e307])
    def test_uniform_first_moment_keeps_its_bits(self, b):
        # Wherever the difference of squares was finite, the first moment
        # has its bits.  Up to b = 8e307 the squares overflow but b - a
        # does not; at 1e308 it does, and the uniform is refused.
        with pytest.raises(InvalidParameterValue, match="finite width"):
            DensitySpec("uniform", {"a": -1e308, "b": 1e308})
        d = DensitySpec("uniform", {"a": -b, "b": b})
        x = np.sort(np.concatenate((b * np.linspace(-1.0, 1.0, 201),
                                    10.0 ** np.linspace(-3, 308, 200))))
        lo, hi = x[:-1], x[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            before = 0.5 * (np.clip(hi, -b, b) ** 2
                            - np.clip(lo, -b, b) ** 2) * (1.0 / (2.0 * b))
            got = dens._cell_moments(d)(x, 1)[1]
        finite = np.isfinite(before)
        assert finite.any() and np.isfinite(got).all()
        assert got[finite].tobytes() == before[finite].tobytes()

    @pytest.mark.parametrize("b", [1.0, 1e100, 1e120, 1e150])
    def test_uniform_second_moment_keeps_its_bits(self, b):
        # Wherever the difference of cubes was finite, the second moment
        # has its bits.
        d = DensitySpec("uniform", {"a": -b, "b": b})
        x = np.sort(np.concatenate((b * np.linspace(-1.0, 1.0, 201),
                                    10.0 ** np.linspace(-3, 160, 200))))
        lo, hi = x[:-1], x[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            before = (np.clip(hi, -b, b) ** 3
                      - np.clip(lo, -b, b) ** 3) / 3.0 * (1.0 / (2.0 * b))
        got = dens.interval_moments(d, lo, hi)[2]
        finite = np.isfinite(before)
        assert finite.any() and np.isfinite(got).all()
        assert got[finite].tobytes() == before[finite].tobytes()

    def test_centroid_of_empty_cell(self):
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        with pytest.raises(EmptyCell):
            _centroid(d, 500.0, 501.0)

    def test_cell_centroids_stay_in_narrow_cells(self):
        # Over cells 1e-12 wide, m1 / m0 falls outside its cell by rounding.
        # The cells alternate 1e-12 wide and wide.
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        starts = np.linspace(0.1, 3.0, 50)
        m = np.column_stack((starts, starts + 1e-12)).ravel()
        c = dens.cell_centroids(d, m)
        lo, hi = m[:-1], m[1:]
        assert np.all(hi[::2] - lo[::2] < 2e-12)
        assert np.all((lo[::2] <= c[::2]) & (c[::2] <= hi[::2]))

    def test_gamma_mass_of_empty_left_ray(self):
        # Both ends at -inf: no mass, like every other family.
        for d in _ALL_BOUND:
            assert _mass(d, -math.inf, -math.inf) == 0.0

    def test_centroid_inside_interval(self):
        d = DensitySpec("exponential", {"lam": 1.0})
        c = _centroid(d, 2.0, 3.0)
        assert 2.0 <= c <= 3.0


# ---------------------------------------------------------------------------
# Analytic vs quadrature agreement
# ---------------------------------------------------------------------------

_ALL_BOUND = [
    DensitySpec("uniform", {"a": 0.0, "b": 10.0}),
    DensitySpec("gaussian", {"mu": 5.0, "sigma2": 4.0}),
    DensitySpec("exponential", {"lam": 0.5}),
    DensitySpec("gamma", {"k": 3.0, "theta": 1.5}),
]


class TestAnalyticVsQuadrature:
    @pytest.mark.parametrize("d", _ALL_BOUND, ids=lambda d: d.family)
    def test_random_intervals(self, d):
        rng = np.random.default_rng(1234)
        n = 250
        lo = rng.uniform(0.0, 9.0, size=n)
        hi = lo + rng.uniform(0.01, 6.0, size=n)
        a0, a1, a2 = dens.interval_moments(d, lo, hi)
        q0, q1, q2 = quadrature.interval_moments(d, lo, hi)
        assert np.max(np.abs(a0 - q0)) < 1e-10
        assert np.max(np.abs(a1 - q1)) < 1e-10
        assert np.max(np.abs(a2 - q2)) < 1e-10

    def test_deep_tail_accuracy(self):
        # Differences of CDFs lose accuracy in the far tail; the closed form
        # must agree with quadrature in relative terms there.
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        m_a = _mass(d, 8.0, 9.0)
        m_q = quadrature.moment_quadrature(d, 8.0, 9.0, 0)
        assert m_a > 0
        assert m_a == pytest.approx(m_q, rel=1e-8)

    def test_oracle_fails_loudly(self, monkeypatch):
        # With one subinterval quad cannot reach the tolerances; the oracle
        # raises rather than return its estimate.
        monkeypatch.setattr(quadrature, "QUAD_LIMIT", 1)
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        with pytest.raises(quadrature.QuadratureNonConvergence,
                           match="quadrature failed"):
            quadrature.moment_quadrature(d, -30.0, 30.0, 2)


def _scalar_mass_floor(width):
    """The per-cell empty-cell rule, one width at a time."""
    if not math.isfinite(width):
        width = 1.0
    return 1e-300 * min(max(width, 1.0), 1e100)


class TestMassFloor:
    def test_vectorized_equals_scalar_rule(self):
        # Widths below, at and above 1, zero, infinite, overflowing to
        # infinity, and undefined (inf - inf), as cell_centroids takes them
        # from np.diff of the boundaries; then widths around the cap.
        lo = np.array([0.0, 0.0, 0.0, 2.0, 5.0, -np.inf, 0.0, -np.inf,
                       -3.5, 1e300, -1e308, -np.inf, np.inf,
                       0.0, 0.0, 0.0, -1e300])
        hi = np.array([0.5, 1.0, 1.5, 300.0, 5.0, 0.0, np.inf, np.inf,
                       1e-300, np.inf, 1e308, -np.inf, np.inf,
                       9e99, 1e100, 1.1e100, 1.7e308])
        with np.errstate(invalid="ignore", over="ignore"):
            width = hi - lo
        expected = np.array([_scalar_mass_floor(float(w)) for w in width])
        assert np.array_equal(dens.mass_floor(width), expected)
        for w, e in zip(width, expected):
            assert dens.mass_floor(w) == e

    def test_cell_wider_than_1e300_holding_all_mass_is_not_empty(self):
        # Uncapped, the floor of this cell would be 1.7e8, above its mass 1.
        d = DensitySpec("uniform", {"a": 0.0, "b": 1.7e308})
        _, m0 = centroids_and_masses(d, [0.0, 1.7e308])
        assert m0[0] == pytest.approx(1.0, rel=1e-15)
        assert dens.mass_floor(1.7e308) == dens.mass_floor(1e100) < 1e-199

    def test_wide_cells_with_small_masses_are_kept(self):
        # Cells 1e150 wide under the uniform density on [0, 1e302] each hold
        # 1e-152: below their uncapped floor of 1e-150 but above the capped
        # one, so the one-reduction check passes them without the per-cell
        # rule, which keeps them too.
        d = DensitySpec("uniform", {"a": 0.0, "b": 1e302})
        m = np.array([0.0, 1e150, 2e150, 3e150])
        c, m0 = centroids_and_masses(d, m)
        expected = _cell_centroids_before(d, m, masses=True)
        assert c.tobytes() == expected[0].tobytes()
        assert m0.tobytes() == expected[1].tobytes()
        np.testing.assert_allclose(m0, 1e-152, rtol=1e-12)
        np.testing.assert_allclose(c, [5e149, 1.5e150, 2.5e150], rtol=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "exponential"])
    def test_precheck_exact_next_to_wide_cells(self, family):
        # Far-tail cells near their floor beside cells up to 1e300 wide,
        # whose capped floors bound the check: the same bits or the same
        # EmptyCell message as the per-cell rule.
        d, _, tail = _PRECHECK_CASES[family]
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(300):
            m = np.sort(rng.uniform(*tail, rng.integers(2, 6)))
            wide = 10.0 ** rng.uniform(0.0, 300.0, rng.integers(1, 3))
            m = np.concatenate((m[:1] - wide[::-1].cumsum()[::-1], m))
            try:
                c0, m00 = _cell_centroids_before(d, m, masses=True)
            except EmptyCell as exc:
                with pytest.raises(EmptyCell) as got:
                    dens.cell_centroids(d, m)
                assert str(got.value) == str(exc)
                outcomes.add("empty")
                continue
            c, m0 = centroids_and_masses(d, m)
            assert c.tobytes() == c0.tobytes()
            assert m0.tobytes() == m00.tobytes()
            outcomes.add("kept")
        assert outcomes == {"empty", "kept"}


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_intervals = st.tuples(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
).map(sorted)


def _cell_centroids_oracle(d, m):
    """cell_centroids through the per-cell interval_moments, or for an
    exponential, whose kernel takes a whole row near zero or none of it,
    through the kept terms or the near-zero form: the index of the first
    cell whose mass is at most mass_floor, or else the centroids clamped
    into their cells."""
    lo, hi = m[:-1], m[1:]
    if d.family == "exponential":
        with np.errstate(over="ignore", under="ignore"):
            m0, m1 = _with_near_zero_rows(
                d, m, _combine_kept(d, _terms_kept(d, lo, 1),
                                    _terms_kept(d, hi, 1), 1), 1)
    else:
        m0, m1, _ = dens.interval_moments(d, lo, hi)
    with np.errstate(invalid="ignore", over="ignore"):
        bad = m0 <= dens.mass_floor(hi - lo)
    if bad.any():
        return int(np.argmax(bad))
    return np.minimum(np.maximum(m1 / m0, lo), hi)


class TestCellCentroids:
    @given(st.sampled_from(_ALL_BOUND + [
               DensitySpec("gaussian", {"mu": -3.0, "sigma2": 0.01}),
               DensitySpec("gamma", {"k": 0.4, "theta": 8.0})]),
           st.lists(st.floats(min_value=-60.0, max_value=60.0),
                    min_size=1, max_size=60, unique=True),
           st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_cell_oracle(self, d, points, left_inf, right_inf):
        m = np.sort(np.array(points))
        if left_inf:
            m = np.concatenate(([-np.inf], m))
        if right_inf:
            m = np.concatenate((m, [np.inf]))
        if m.size < 2:
            m = np.concatenate((m, [m[0] + 1.0]))
        expected = _cell_centroids_oracle(d, m)
        if isinstance(expected, int):
            with pytest.raises(EmptyCell, match=f"^cell {expected} = "):
                dens.cell_centroids(d, m)
        else:
            assert np.array_equal(dens.cell_centroids(d, m), expected)


def centroids_and_masses(d, m):
    """(centroids, m0) of the ordered cells of m under the bound d: d's
    centroid map, called under the np.errstate that density.cell_centroids
    opens, whose centroids are the same bits as the wrapper's."""
    m = np.asarray(m, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        c, m0, _ = dens._centroid_map(d)(m)
    assert c.tobytes() == dens.cell_centroids(d, m).tobytes()
    return c, m0


def _gaussian_terms_kept(d, x, order):
    """The Gaussian _terms that the centroid map replaced for cells: t,
    erfc(|t|/sqrt2), erf(t/sqrt2), phi(t)[, t phi(t)]."""
    t = (x - d.params["mu"]) / math.sqrt(d.params["sigma2"])
    s = t / dens._SQRT2
    e = np.exp(-0.5 * t * t)
    out = (t, special.erfc(np.abs(s)), special.erf(s), e * dens._INV_SQRT_2PI)
    if order == 2:
        out += (np.where(np.isfinite(t), t, 0.0) * e * dens._INV_SQRT_2PI,)
    return out


def _gaussian_combine_kept(d, lo, hi, order):
    """The Gaussian _combine of _gaussian_terms_kept: a nested np.where
    over every cell, with erf read at every boundary."""
    mu, s2 = d.params["mu"], d.params["sigma2"]
    sigma = math.sqrt(s2)
    m0 = 0.5 * np.where(lo[0] >= 0, lo[1] - hi[1],
                        np.where(hi[0] <= 0, hi[1] - lo[1], hi[2] - lo[2]))
    dphi = lo[3] - hi[3]
    m1 = mu * m0 + sigma * dphi
    if order == 1:
        return m0, m1
    central2 = s2 * (m0 + lo[4] - hi[4])
    return m0, m1, mu * mu * m0 + 2.0 * mu * sigma * dphi + central2


def _terms_kept(d, x, order):
    """The non-Gaussian _terms that each family's kernel builder replaced:
    per-point values whose differences between two ends give d's moments
    up to order over the interval between them."""
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


def _combine_kept(d, lo, hi, order):
    """The non-Gaussian _combine of _terms_kept: (mass, first moment[,
    second moment]) over [lo, hi] from the terms at both ends, arrays,
    each difference taken in a cancellation-safe branch."""
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


def _near_zero_rows(d, m):
    """Whether the kernel takes each row of the boundaries m, along the
    last axis, by the exponential's near-zero form: lam times the row's
    largest end clipped at 0 below EXP_NEAR_ZERO, and no NaN."""
    if d.family != "exponential":
        return np.zeros(np.shape(m)[:-1], bool)
    largest = np.maximum(np.max(m, axis=-1), 0.0)
    with np.errstate(over="ignore"):
        return d.params["lam"] * largest < dens.EXP_NEAR_ZERO


def _with_near_zero_rows(d, m, kept, order):
    """kept, d's moments up to order of the cells of m from the kept
    terms, with the rows that the kernel takes near zero replaced by the
    near-zero form's moments."""
    near = _near_zero_rows(d, m)
    if not near.any():
        return tuple(kept)
    with np.errstate(all="ignore"):
        nz = dens._exponential_near_zero(d.params["lam"], np.maximum(m, 0.0),
                                         order)
    return tuple(np.where(near[..., None], a, b) for a, b in zip(nz, kept))


def _kept(d):
    """The (_terms, _combine) pair of the oracle maps for d: the kept
    Gaussian copies, or the kept copies of the other families'."""
    if d.family == "gaussian":
        return _gaussian_terms_kept, _gaussian_combine_kept
    return _terms_kept, _combine_kept


def _cell_centroids_kept(d, m):
    """(centroids, m0) of d's cells between the boundaries m, 1-D or a
    (K, N+1) stack, as the centroid map computed them before it took a
    Gaussian's cells from their runs: every cell's terms through one
    _combine, the empty-cell rule checked per cell only when the least
    mass is at most the bound of the widest cell."""
    terms, combine = _kept(d)
    m = np.asarray(m, dtype=float)
    lo, hi = m[..., :-1], m[..., 1:]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = terms(d, m, 1)
        m0, m1 = _with_near_zero_rows(
            d, m, combine(d, [a[..., :-1] for a in t],
                          [a[..., 1:] for a in t], 1), 1)
        width = hi - lo
        widest = np.maximum.reduce(width, axis=None, initial=1.0)
        if not (np.minimum.reduce(m0, axis=None, initial=np.inf)
                > 1e-300 * min(widest, dens._FLOOR_WIDTH_CAP)):
            bad = m0 <= dens.mass_floor(width)
            if bad.any():
                at = np.unravel_index(np.argmax(bad), bad.shape)
                row = f"row {at[0]}, " if bad.ndim > 1 else ""
                raise EmptyCell(f"{row}cell {at[-1]} = [{lo[at]}, {hi[at]}] "
                                f"has mass {m0[at]:g}")
        c = np.minimum(np.maximum(m1 / m0, lo), hi)
    return c, m0


def _cell_centroids_before(d, m, masses=False):
    """cell_centroids as it was before the one-reduction empty-cell check
    and the in-place centroids: every cell's mass_floor, compared cell by
    cell, and fresh arrays for the quotient and the clamp."""
    dens._require_bound(d)
    terms, combine = _kept(d)
    m = np.asarray(m, dtype=float)
    lo, hi = m[:-1], m[1:]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = terms(d, m, 1)
        m0, m1 = _with_near_zero_rows(
            d, m, combine(d, [a[:-1] for a in t], [a[1:] for a in t], 1), 1)
        bad = m0 <= dens.mass_floor(hi - lo)
    if bad.any():
        i = int(np.argmax(bad))
        raise EmptyCell(f"cell {i} = [{lo[i]}, {hi[i]}] has mass {m0[i]:g}")
    c = np.minimum(np.maximum(m1 / m0, lo), hi)
    return (c, m0) if masses else c


def _ordered(m):
    """Whether every row of m is non-decreasing, with no NaN."""
    m = np.asarray(m, dtype=float)
    return bool(np.all(m[..., 1:] >= m[..., :-1]))


# Per family: a density, the span of its bulk, and a far-tail span where
# cell masses come near 1e-300 times the cell width.
_PRECHECK_CASES = {
    "uniform": (DensitySpec("uniform", {"a": 0.0, "b": 1.0}),
                (-0.5, 1.5), (0.0, 3e-300)),
    "gaussian": (DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0}),
                 (-6.0, 6.0), (36.5, 38.0)),
    "exponential": (DensitySpec("exponential", {"lam": 1.0}),
                    (-1.0, 12.0), (685.0, 700.0)),
    "gamma": (DensitySpec("gamma", {"k": 2.5, "theta": 1.0}),
              (-1.0, 15.0), (690.0, 710.0)),
}


def _precheck_boundaries(rng, bulk, tail):
    """Random boundaries of one kind: sorted or not, in the bulk or the far
    tail (mirrored for the left tail), with infinite ends, NaN widths, NaN
    boundaries, a cell wider than m[-1] - m[0], or a single boundary."""
    kind = rng.integers(7)
    if rng.random() < 0.5:
        m = rng.uniform(*tail, rng.integers(1, 6))
        if rng.random() < 0.3:
            m = -m
    else:
        m = rng.uniform(*bulk, rng.integers(1, 40))
    if kind == 0:                       # sorted
        return np.sort(m)
    if kind == 1:                       # unsorted
        return m
    if kind == 2:                       # a cell wider than m[-1] - m[0]
        w = rng.uniform(1.0, 100.0)
        m = np.sort(m)
        return np.concatenate(([m[0]], [m[0] + w], m[1:]))
    if kind == 3:                       # infinite ends
        ends = rng.choice([-np.inf, np.inf], size=2)
        return np.concatenate((ends[:1], np.sort(m), ends[1:]))
    if kind == 4:                       # NaN widths, from inf - inf
        return np.concatenate(([-np.inf, -np.inf], np.sort(m),
                               [np.inf, np.inf]))
    if kind == 5:                       # a NaN boundary
        m = np.sort(m)
        m[rng.integers(m.size)] = np.nan
        return m
    return m[:1]                        # one boundary, zero cells


class TestEmptyCellPreCheck:
    """The one-reduction empty-cell check is exact: the same centroid and
    mass bits, or the same EmptyCell message, as the per-cell rule."""

    @pytest.mark.parametrize("family", sorted(_PRECHECK_CASES))
    def test_same_bits_or_message_as_before(self, family):
        d, bulk, tail = _PRECHECK_CASES[family]
        rng = np.random.default_rng(sorted(_PRECHECK_CASES).index(family))
        raised_later = tail_masses = 0
        for _ in range(4500):
            m = _precheck_boundaries(rng, bulk, tail)
            if not _ordered(m):
                # Kinds 1, 2 and 5, and infinite ends out of order.
                with pytest.raises(InvalidParameterValue,
                                   match="non-decreasing"):
                    dens.cell_centroids(d, m)
                continue
            try:
                c0, m00 = _cell_centroids_before(d, m, masses=True)
            except EmptyCell as exc:
                with pytest.raises(EmptyCell) as got:
                    dens.cell_centroids(d, m)
                assert str(got.value) == str(exc)
                raised_later += not str(exc).startswith("cell 0 ")
                continue
            c, m0 = centroids_and_masses(d, m)
            assert c.tobytes() == c0.tobytes()
            assert m0.tobytes() == m00.tobytes()
            assert c.tobytes() == dens.cell_centroids(d, m).tobytes()
            tail_masses += bool(np.any(m0 < 1e-290))
        # Both outcomes occur, and near-empty cells past the first and
        # kept cells with far-tail masses are among them; the draws are
        # three times as many as when the unordered kinds reached the map.
        assert raised_later > 50
        assert tail_masses > 10

    def test_mass_equal_to_the_bound(self):
        # Under the uniform density on [0, 1e300] a cell of width w >= 1 has
        # mass w * 1e-300, exactly its mass_floor; with equal widths the
        # least mass equals the bound, and the cells are empty.
        d = DensitySpec("uniform", {"a": 0.0, "b": 1e300})
        for m in ([0.0, 2.0], [5.0, 9.0, 13.0], [1.0, 4.0, 7.0, 10.0]):
            m0 = _mass(d, m[:-1], m[1:])
            assert np.array_equal(m0, dens.mass_floor(np.diff(m)))
            with pytest.raises(EmptyCell, match="^cell 0 = "):
                dens.cell_centroids(d, m)

    def test_masses_straddling_the_floor(self):
        # Gaussian far-tail cells whose masses sit just above and just below
        # 1e-300 * width, where width > 1 and the floor is not 1e-300.
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0})
        for width in (2.0, 10.0, 80.0):
            for lo in np.linspace(36.8, 37.4, 61):
                m = np.array([0.0, lo, lo + width])
                try:
                    expected = _cell_centroids_before(d, m)
                except EmptyCell as exc:
                    with pytest.raises(EmptyCell, match="^cell 1 = "):
                        dens.cell_centroids(d, m)
                    assert str(exc).startswith("cell 1 = ")
                else:
                    assert (dens.cell_centroids(d, m).tobytes()
                            == expected.tobytes())


def _module_moments(d, lo, hi, order):
    """The module's moments of the intervals [lo, hi] at order: d's kernel
    on them as one-cell rows of a stack, which interval_moments reads at
    order 2."""
    if order == 2:
        return dens.interval_moments(d, lo, hi)
    rows = np.stack((lo, hi), axis=-1).reshape(-1, 2)
    return tuple(a.reshape(np.shape(lo))
                 for a in dens._cell_moments(d)(rows, order)[:order + 1])


def _kept_moments(d, lo, hi, order):
    """The moments of the intervals [lo, hi] at order through the kept
    Gaussian pair, _gaussian_terms_kept and _gaussian_combine_kept."""
    return _gaussian_combine_kept(d, _gaussian_terms_kept(d, lo, order),
                                  _gaussian_terms_kept(d, hi, order), order)


def _gaussian_outcomes(d, m, cells=centroids_and_masses,
                       moments=_module_moments):
    """The bytes of cells(d, m), or its EmptyCell message, or None for
    boundaries out of order or NaN, which cell_centroids rejects; and the
    bytes of the order-1 and order-2 moments of the cells of m, each cell
    taken as its own interval by moments."""
    lo, hi = m[..., :-1], m[..., 1:]
    if not _ordered(m):
        with pytest.raises(InvalidParameterValue, match="non-decreasing"):
            dens.cell_centroids(d, m)
        out = None
    else:
        try:
            out = [a.tobytes() for a in cells(d, m)]
        except EmptyCell as exc:
            out = str(exc)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        order1 = moments(d, lo, hi, 1)
        order2 = moments(d, lo, hi, 2)
    return out, [a.tobytes() for a in order1 + order2]


_GAUSSIANS = [DensitySpec("gaussian", {"mu": 0.0, "sigma2": 1.0}),
              DensitySpec("gaussian", {"mu": -3.0, "sigma2": 0.01}),
              DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})]


def _gaussian_boundaries(rng, d, kind, n):
    """n sorted boundaries in sigma units t about mu: all left of mu, all
    right of it, on both sides, past erfc's underflow (|t| > 40, on one
    side or both), or on both sides with one of them NaN."""
    if kind == "left":
        t = -rng.uniform(0.0, 8.0, n)
    elif kind == "right":
        t = rng.uniform(0.0, 8.0, n)
    elif kind == "underflow":
        sides = rng.choice([-1.0, 1.0], 1 if rng.random() < 0.5 else n)
        t = rng.uniform(40.0, 60.0, n) * sides
    else:
        t = rng.uniform(-8.0, 8.0, n)
        t[:2] = -rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
    m = np.sort(d.params["mu"] + math.sqrt(d.params["sigma2"]) * t)
    if kind == "nan":
        m[rng.integers(n)] = np.nan
    return m


class TestOneErfcGaussian:
    """The Gaussian kernel keeps one erfc, of |t|/sqrt2: cell_centroids and
    the order-1 and order-2 moments keep the bits, and the EmptyCell
    messages, of the kept pair _gaussian_terms_kept and
    _gaussian_combine_kept, which read erf at every boundary."""

    @staticmethod
    def assert_same_as_kept(d, m):
        kept = _gaussian_outcomes(d, m, _cell_centroids_kept, _kept_moments)
        assert _gaussian_outcomes(d, m) == kept

    @pytest.mark.parametrize("kind", ["left", "right", "straddle",
                                      "underflow", "nan"])
    def test_same_bits_as_the_kept_pair(self, kind):
        rng = np.random.default_rng(len(kind))
        empty = 0
        for d in _GAUSSIANS:
            for _ in range(100):
                n = int(rng.integers(2, 40))
                m = _gaussian_boundaries(rng, d, kind, n)
                self.assert_same_as_kept(d, m)
                empty += isinstance(_gaussian_outcomes(d, m)[0], str)
        # Cells past the underflow are empty; elsewhere none is.  A row
        # with a NaN boundary is rejected by cell_centroids.
        assert (empty > 200) if kind == "underflow" else (empty == 0)

    @pytest.mark.parametrize("m", [
        [-2.0, -0.0, 1.0], [-2.0, 0.0, 1.0], [-0.0, 0.0], [0.0, -0.0],
        [-0.0, 3.0], [0.0, 3.0], [-3.0, -0.0], [-3.0, 0.0],
        [-0.0, 0.0, 2.0], [-1e-300, -0.0, 0.0, 1e-300],
    ])
    def test_boundaries_at_signed_zero(self, m):
        # mu = 0, so a boundary at -0.0 has t = -0.0 and one at 0.0 has
        # t = +0.0, on either side of every branch of _combine.
        m = np.array(m)
        d = _GAUSSIANS[0]
        assert np.array_equal(np.signbit((m - 0.0) / 1.0), np.signbit(m))
        self.assert_same_as_kept(d, m)

    def test_stacks(self):
        # (K, N+1) stacks of rows of every kind: an EmptyCell names the
        # row as well as the cell.
        rng = np.random.default_rng(3)
        kinds = ["left", "right", "straddle", "underflow", "nan"]
        for d in _GAUSSIANS:
            for _ in range(40):
                n = int(rng.integers(2, 20))
                rows = [_gaussian_boundaries(rng, d, kind, n)
                        for kind in rng.choice(kinds, 4)]
                self.assert_same_as_kept(d, np.array(rows))


def _bits(a):
    """The float64 values of a as int64 words: equal only bit for bit."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _map_outcome(d, m, cells):
    """cells(d, m) as int64 words of (centroids, m0), or the EmptyCell
    message."""
    try:
        return [_bits(a).tolist() for a in cells(d, m)]
    except EmptyCell as exc:
        return str(exc)


def _sorted_cells(rng, d, n):
    """n + 1 sorted Gaussian boundaries in sigma units about mu: with mu
    left of, inside or right of their span, one of them exactly at mu in
    one set of five, and an infinite end in order in one of ten."""
    mu, sigma = d.params["mu"], math.sqrt(d.params["sigma2"])
    shift = rng.choice([-12.0, 0.0, 12.0])
    t = np.sort(rng.uniform(-9.0, 9.0, n + 1) + shift)
    m = mu + sigma * t
    if rng.random() < 0.2:
        m[rng.integers(n + 1)] = mu
        m.sort()
    if rng.random() < 0.1:
        m[0 if rng.random() < 0.5 else -1] = rng.choice([-np.inf, np.inf])
        m.sort()
    return m


class TestCentroidMap:
    """d's centroid map against the map it replaced, kept in
    _cell_centroids_kept: the same int64 words of centroids and masses, or
    the same EmptyCell message, on ordered boundaries; cell_centroids
    rejects boundaries out of order or NaN."""

    @pytest.mark.parametrize("d", _GAUSSIANS + [
        DensitySpec("gaussian", {"mu": 7.5, "sigma2": 1e-6})],
        ids=lambda d: f"mu={d.params['mu']:g}")
    def test_gaussian_rows_and_stacks_equal_the_kept_map(self, d):
        rng = np.random.default_rng(int(d.params["sigma2"] * 1000))
        at_mu = across = infinite = 0
        for _ in range(300):
            n = int(rng.integers(1, 900 if rng.random() < 0.1 else 60))
            m = _sorted_cells(rng, d, n)
            got = _map_outcome(d, m, centroids_and_masses)
            assert got == _map_outcome(d, m, _cell_centroids_kept)
            at_mu += bool(np.any(m == d.params["mu"]))
            t = m - d.params["mu"]
            across += bool(np.any((t[:-1] < 0) & (t[1:] > 0)))
            infinite += bool(np.isinf(m).any())
        assert at_mu > 30 and across > 60 and infinite > 10
        for _ in range(60):
            n = int(rng.integers(1, 30))
            m = np.array([_sorted_cells(rng, d, n) for _ in range(4)])
            got = _map_outcome(d, m, centroids_and_masses)
            assert got == _map_outcome(d, m, _cell_centroids_kept)
            if not isinstance(got, str):
                for row, c in zip(m, np.array(got[0])):
                    assert (_bits(dens.cell_centroids(d, row)).tolist()
                            == c.tolist())

    @pytest.mark.parametrize("m", [
        [0.0, 2.0, 1.0], [0.0, np.nan, 1.0], [np.inf, 0.0], [np.nan, np.nan],
        [[0.0, 1.0, 2.0], [0.0, 2.0, 1.0]], [[0.0, 1.0], [np.nan, 1.0]]])
    def test_out_of_order_or_nan_is_a_typed_error(self, m):
        for d in _ALL_BOUND:
            with pytest.raises(InvalidParameterValue,
                               match="non-decreasing, with no NaN"):
                dens.cell_centroids(d, m)

    def test_every_golden_iterate_equals_the_kept_map(
            self, acceptance3_problems, monkeypatch):
        # Every centroid map of the Lloyd goldens' runs, of the static
        # goldens' solves and of the shipped N = 15 dense solve, whose
        # difference stacks are (15, 16).
        real = dens._centroid_map
        seen = {"rows": 0, "stacks": 0}

        def checked(d, kept=None):
            cells = real(d, kept)

            def compare(m, into=None):
                try:
                    out = cells(m, into)
                except EmptyCell as exc:
                    with pytest.raises(EmptyCell) as kept:
                        _cell_centroids_kept(d, m)
                    assert str(kept.value) == str(exc)
                    raise
                c, m0 = _cell_centroids_kept(d, m)
                assert np.array_equal(_bits(out[0]), _bits(c))
                assert np.array_equal(_bits(out[1]), _bits(m0))
                seen["rows" if m.ndim == 1 else "stacks"] += 1
                return out
            return compare

        monkeypatch.setattr(dens, "_centroid_map", checked)
        runs = dict(lloyd_runs())
        for p in static_problems(acceptance3_problems).values():
            sa.solve(p)
        sim.initialize(sim.Scenario.from_config(
            json.loads(SHIPPED.read_text())))
        assert len(runs) == 20
        assert seen["rows"] > 20_000 and seen["stacks"] >= 4


def _energy_per_interval(z, d, dom):
    """energy_K of the points z through per-interval moments: each cell's
    terms taken at both its ends by the kept copies of _terms and
    _combine, or, in a row the kernel takes near zero, each cell's
    near-zero moments."""
    terms, combine = _kept(d)
    m = tess._midpoint_boundaries(z, dom)
    with np.errstate(all="ignore"):
        m0, m1, m2 = _with_near_zero_rows(
            d, m, combine(d, terms(d, m[:-1], 2), terms(d, m[1:], 2), 2), 2)
        per_cell = m2 - 2.0 * z * m1 + z * z * m0
        return float(np.sum(np.maximum(per_cell, 0.0)))


class TestOneMomentKernel:
    """The centroid map, the energy and interval_moments read one moment
    kernel per density."""

    @pytest.mark.parametrize("d, span", [
        (DensitySpec("uniform", {"a": 0.0, "b": 10.0}), (0.0, 10.0)),
        (DensitySpec("uniform", {"a": -8e307, "b": 8e307}), (-8e307, 8e307)),
        (DensitySpec("uniform", {"a": 0.0, "b": 1e160}), (0.0, 1e160)),
        (DensitySpec("exponential", {"lam": 0.5}), (0.0, 20.0)),
        (DensitySpec("exponential", {"lam": 1e-3}), (0.0, 1e4)),
        (DensitySpec("gamma", {"k": 3.0, "theta": 1.5}), (0.0, 20.0)),
        (DensitySpec("gamma", {"k": 0.4, "theta": 100.0}), (0.0, 1e3))],
        ids=lambda v: f"{v.family}-{v.params}" if isinstance(v, DensitySpec)
        else None)
    def test_stacks_have_the_bits_of_the_kept_terms(self, d, span):
        # (K, 2) one-cell rows with ends in either order, infinite ends and
        # NaN: the kernel at order 1 and 2, and interval_moments, have the
        # bits of the kept _combine of the kept _terms at both ends.
        rng = np.random.default_rng(11)
        u = rng.uniform(-0.2, 1.2, (2, 800))
        lo, hi = span[0] + u * span[1] - u * span[0]
        for ends in (lo, hi):
            ends[rng.random(ends.size) < 0.05] = np.inf
            ends[rng.random(ends.size) < 0.05] = -np.inf
            ends[rng.random(ends.size) < 0.03] = np.nan
        assert (lo > hi).sum() > 200
        for order in (1, 2):
            with np.errstate(all="ignore"):
                got = dens._cell_moments(d)(np.column_stack((lo, hi)), order)
                want = _with_near_zero_rows(
                    d, np.column_stack((lo, hi)),
                    _combine_kept(d, _terms_kept(d, lo[:, None], order),
                                  _terms_kept(d, hi[:, None], order), order),
                    order)
            assert got[-1] is None and len(got) == order + 2
            assert ([_bits(a).tolist() for a in got[:-1]]
                    == [_bits(a).tolist() for a in want])
        moments = dens.interval_moments(d, lo, hi)
        assert ([_bits(a).tolist() for a in moments]
                == [_bits(a[:, 0]).tolist() for a in want])

    @pytest.mark.parametrize("d", _ALL_BOUND + _GAUSSIANS[1:],
                             ids=lambda d: f"{d.family}-{d.params}")
    def test_energy_has_the_bits_of_the_per_interval_oracle(self, d):
        rng = np.random.default_rng(len(str(d.params)))
        for _ in range(500):
            a = rng.uniform(-30.0, 60.0)
            dom = tess.Domain1D(a, a + rng.uniform(0.01, 80.0))
            z = np.unique(rng.uniform(dom.a, dom.b, rng.integers(1, 80)))
            assert (tess.energy_K(z, d, dom).hex()
                    == _energy_per_interval(z, d, dom).hex())

    @pytest.mark.parametrize("d", _ALL_BOUND + [
        DensitySpec("uniform", {"a": -3.0, "b": 40.0})],
        ids=lambda d: f"{d.family}-{d.params}")
    def test_scalar_calls_have_the_bits_of_array_calls(self, d):
        # A lone interval is a one-cell row of the kernel, as each interval
        # of an array is: its moments are numpy float64 scalars with the
        # same bits, in either order of the ends.
        rng = np.random.default_rng(7)
        lo, hi = rng.uniform(-5.0, 45.0, (2, 300))
        arrays = dens.interval_moments(d, lo, hi)
        scalars = [dens.interval_moments(d, lo[k], float(hi[k]))
                   for k in range(lo.size)]
        assert (_bits(scalars).tolist()
                == _bits(np.transpose(arrays)).tolist())
        assert all(type(v) is np.float64 for s in scalars for v in s)


def _exponential_moments_exact(lam, lo, hi):
    """(m0, m1, m2) of the exponential over [lo, hi], 0 <= lo <= hi with
    lam hi <= 1: in u = lam x, u^n e^-u integrated term by term over the
    Taylor series of e^-u about 0, 40 terms in 80-digit decimals, then
    divided by lam^n."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        lam = decimal.Decimal(lam)
        a, b = lam * decimal.Decimal(lo), lam * decimal.Decimal(hi)
        return tuple(
            float(sum((-1) ** j * (b ** (n + j + 1) - a ** (n + j + 1))
                      / (math.factorial(j) * (n + j + 1)) for j in range(40))
                  / lam ** n)
            for n in range(3))


class TestExponentialNearZero:
    """Rows whose largest clipped end x has lam x < EXP_NEAR_ZERO take each
    cell's moments about its first end, where the differences of the
    per-point terms 1/lam and 2/lam^2 cancel."""

    @pytest.mark.parametrize("k", [-300, -299, -250, -200, -170, -155, -154,
                                   -150, -100, -50, -20, -16, -12, -9, -8,
                                   -6, -5, -4, -3, -2, -1])
    def test_rows_against_the_exact_series(self, k):
        # On [0, 1] and, where lam 300 < 1, [0, 300], rows of 1 to 50
        # equal cells: within 1e-13 of the exact moments at order 1 and
        # order 2, with no RuntimeWarning (pyproject.toml makes them
        # errors).  Today's expressions missed by up to 1e-4 for lam = 0.1
        # on [0, 1], and were NaN or 0 below about 1e-8.
        lam = 10.0 ** k
        d = DensitySpec("exponential", {"lam": lam})
        for b in (1.0, 300.0):
            if not lam * b < dens.EXP_NEAR_ZERO:
                continue
            for n in (1, 2, 7, 50):
                m = np.linspace(0.0, b, n + 1)
                exact = np.array([_exponential_moments_exact(lam, lo, hi)
                                  for lo, hi in zip(m[:-1], m[1:])]).T
                with np.errstate(over="ignore", under="ignore"):
                    got = (dens._cell_moments(d)(m, 1)[:2]
                           + dens._cell_moments(d)(m, 2)[:3])
                for g, want in zip(got, [*exact[:2], *exact]):
                    np.testing.assert_allclose(g, want, rtol=1e-13, atol=0)
                for g, want in zip(dens.interval_moments(d, m[:-1], m[1:]),
                                   exact):
                    np.testing.assert_allclose(g, want, rtol=1e-13, atol=0)

    def test_interval_moments_of_the_unit_interval(self):
        # At 1e-12 today's m2 was -2.7e8, at 1e-20 its mass was 0, and at
        # 1e-170 it warned twice.
        for lam in (1e-12, 1e-20, 1e-170):
            d = DensitySpec("exponential", {"lam": lam})
            m0, m1, m2 = dens.interval_moments(d, 0.0, 1.0)
            np.testing.assert_allclose(
                [m0, m1, m2], [lam * (1.0 - lam / 2.0),
                               lam * (0.5 - lam / 3.0),
                               lam * (1.0 / 3.0 - lam / 4.0)], rtol=1e-15)

    def test_stack_rows_have_the_bits_of_their_own_calls(self):
        # A stack of ordered rows on both sides of the threshold: each row
        # has the bits of its own call.  Each interval of interval_moments,
        # its ends in either order, has those of its scalar call.
        d = DensitySpec("exponential", {"lam": 0.5})
        rng = np.random.default_rng(3)
        m = np.sort(rng.uniform(-1.0, 3.0, (40, 6)))
        near = _near_zero_rows(d, m)
        assert 5 < near.sum() < 35
        for order in (1, 2):
            with np.errstate(over="ignore", under="ignore"):
                stack = dens._cell_moments(d)(m, order)[:-1]
                rows = [dens._cell_moments(d)(row, order)[:-1] for row in m]
            for i, row in enumerate(rows):
                assert _bits([a[i] for a in stack]).tolist() == \
                    _bits(row).tolist()
        lo, hi = rng.uniform(-1.0, 3.0, (2, 200))
        arrays = dens.interval_moments(d, lo, hi)
        scalars = [dens.interval_moments(d, a, b) for a, b in zip(lo, hi)]
        assert _bits(np.transpose(arrays)).tolist() == _bits(scalars).tolist()


class TestProperties:
    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0),
                    min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_mass_additivity(self, points):
        """mass([a,b]) + mass([b,c]) == mass([a,c]) for adjacent intervals."""
        d = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 25.0})
        a, b, c = sorted(points)
        total = _mass(d, a, c)
        split = _mass(d, a, b) + _mass(d, b, c)
        assert split == pytest.approx(total, abs=1e-12)

    @given(_intervals)
    @settings(max_examples=200, deadline=None)
    def test_mass_in_unit_range(self, iv):
        # Unclipped: over an interval a few ulps wide the difference of the
        # ends' terms can round to -4e-16.
        for d in _ALL_BOUND:
            m = _mass(d, *iv)
            assert -1e-15 <= m <= 1.0 + 1e-15

    @given(st.floats(min_value=-20.0, max_value=20.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_mass_shift_invariance(self, mu, half_width):
        """Mass of an interval centered on the mean is independent of mu."""
        d0 = DensitySpec("gaussian", {"mu": 0.0, "sigma2": 4.0})
        d1 = DensitySpec("gaussian", {"mu": mu, "sigma2": 4.0})
        m0 = _mass(d0, -half_width, half_width)
        m1 = _mass(d1, mu - half_width, mu + half_width)
        assert m0 == pytest.approx(m1, abs=1e-13)

    @given(_intervals)
    @settings(max_examples=100, deadline=None)
    def test_monotone_mass_in_width(self, iv):
        """Widening an interval never decreases its mass."""
        a, b = iv
        for d in _ALL_BOUND:
            inner = _mass(d, a, b)
            outer = _mass(d, a - 1.0, b + 1.0)
            assert outer >= inner - 1e-13

    def test_pdf_nonnegative(self):
        xs = np.linspace(-20.0, 60.0, 400)
        for d in _ALL_BOUND:
            assert np.all(d.pdf(xs) >= 0.0)
