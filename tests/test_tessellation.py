"""Voronoi regions, energies, and Lloyd's algorithm in one dimension."""

import itertools
import logging
import math

import numpy as np
import pytest
from scipy import special

from cvtalloc import density as dens
from cvtalloc import tessellation as tess
from cvtalloc.density import DensitySpec
from cvtalloc.errors import (
    DuplicateGenerators,
    EmptyCell,
    GeneratorOutOfDomain,
    InvalidParameterValue,
    UnsortedGenerators,
)
from cvtalloc.tessellation import Domain1D
from test_golden import LLOYD_FAMILIES, LLOYD_RUNS

UNIFORM_15 = DensitySpec("uniform", {"a": 0.0, "b": 15.0})
DOM_15 = Domain1D(0.0, 15.0)


def is_cvt(points, d, dom, tol):
    """True iff every generator is within tol of the centroid of its own
    Voronoi cell: the CVT check that the tessellation, static, dynamic and
    acceptance tests apply to a result."""
    z = np.asarray(points, dtype=float)
    c = dens.cell_centroids(d, tess.voronoi_regions(z, dom))
    return bool(np.max(np.abs(z - c)) < tol)


def _lloyd_step(z, d):
    """One Lloyd update of the generators z on DOM_15: lloyd with a budget
    of one iteration."""
    return tess.lloyd(z, d, DOM_15, max_iter=1)


class TestVoronoiRegions:
    def test_midpoint_boundaries(self):
        m = tess.voronoi_regions([2.5, 7.5, 12.5], DOM_15)
        np.testing.assert_allclose(m, [0.0, 5.0, 10.0, 15.0])

    @pytest.mark.parametrize("a, b", [
        (0.0, 15.0), (-1e300, 1e300), (2.0, 1.7e308), (-1.7e308, -1.0)])
    def test_midpoints_halved_first_only_where_the_sum_overflows(self, a, b):
        # Rows and stacks of generators in (a, b): each midpoint has the
        # bits of (z_i + z_{i+1}) / 2 where that sum is finite, and is
        # z_i / 2 + z_{i+1} / 2 where it overflows.
        rng = np.random.default_rng(5)
        z = np.sort(rng.uniform(0.0, 1.0, (4, 9)), axis=-1)
        z = a + z * b - z * a  # in (a, b) without forming b - a
        for rows, dom in ((z, Domain1D(a, b)),
                          (z[0], Domain1D(np.float64(a), np.float64(b)))):
            m = tess._midpoint_boundaries(rows, dom)
            with np.errstate(over="ignore"):
                before = (rows[..., :-1] + rows[..., 1:]) * 0.5
            halved = 0.5 * rows[..., :-1] + 0.5 * rows[..., 1:]
            finite = np.isfinite(before)
            assert np.isfinite(m).all()
            assert (m[..., 0] == a).all() and (m[..., -1] == b).all()
            assert np.array_equal(m[..., 1:-1][finite], before[finite])
            assert np.array_equal(m[..., 1:-1][~finite], halved[~finite])
            assert (np.diff(m, axis=-1) >= 0).all()
        if b < 9e307 and a > -9e307:
            assert finite.all()

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (-1.7e308, 1.7e308),
                                      (np.float64(-1e308), np.float64(1e308))])
    def test_domain_whose_width_overflows_is_refused(self, a, b):
        # Without a warning (pyproject.toml makes one fail the test), for
        # NumPy scalar ends too.
        with pytest.raises(InvalidParameterValue,
                           match=r"^domain width b - a overflows"):
            Domain1D(a, b)

    def test_validation(self):
        with pytest.raises(UnsortedGenerators):
            tess.voronoi_regions([5.0, 3.0], DOM_15)
        with pytest.raises(DuplicateGenerators):
            tess.voronoi_regions([5.0, 5.0 + 1e-14], DOM_15)
        with pytest.raises(GeneratorOutOfDomain):
            tess.voronoi_regions([0.0, 5.0], DOM_15)
        with pytest.raises(GeneratorOutOfDomain):
            tess.voronoi_regions([5.0, 16.0], DOM_15)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_valid_row_is_the_stack_checks(self, n):
        # _valid_row accepts a row exactly when the checks that decide a
        # stack accept it as a one-row stack: one unknown at a time set
        # non-finite, onto or past a domain end, onto a neighbour, inside,
        # at or just past the duplicate gap of it, or below it, and a first
        # pair exactly the gap apart and one ulp closer.
        start = tess.default_init(n, DOM_15)
        gap = tess.DUPLICATE_GAP_FRACTION * DOM_15.width
        rows = [start] + [np.concatenate(([gap, second], start[2:]))
                          for second in (2.0 * gap,
                                         np.nextafter(2.0 * gap, 0.0))
                          if n >= 2]
        for j in range(n):
            before = start[j - 1] if j else 0.0
            for value in (np.nan, np.inf, -np.inf, 0.0, 15.0, -1.0, 16.0,
                          before, before + 0.5 * gap, before + gap,
                          before + 2.0 * gap, before - 1.0):
                z = start.copy()
                z[j] = value
                rows.append(z)
        accepted = 0
        for z in rows:
            try:
                tess._validate_generators(z[None, :], DOM_15)
            except (UnsortedGenerators, DuplicateGenerators,
                    GeneratorOutOfDomain):
                assert tess._valid_row(z, DOM_15) is False
                continue
            assert tess._valid_row(z, DOM_15) is True
            accepted += 1
        assert 0 < accepted < len(rows)


class TestEnergies:
    def test_uniform_two_generator_energy(self):
        # Symmetric pair on [0,1]: K = 2 * int_0^0.5 (x - 0.25)^2 dx = 1/48
        d = DensitySpec("uniform", {"a": 0.0, "b": 1.0})
        k = tess.energy_K([0.25, 0.75], d, Domain1D(0.0, 1.0))
        assert k == pytest.approx(1.0 / 48.0, abs=1e-9)

    def test_energy_F_equals_energy_K_on_voronoi_cells(self):
        # F, the energy of points assigned to any cells, is
        # _energy_of_cells; at the Voronoi cells it is K.
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 4.0})
        z = np.array([3.0, 7.0, 11.0])
        m = tess.voronoi_regions(z, DOM_15)
        f = tess._energy_of_cells(z, m, d)
        k = tess.energy_K(z, d, DOM_15)
        assert f == pytest.approx(k, abs=1e-12)

    def test_voronoi_cells_beat_shifted_cells(self):
        # Among tilings, the Voronoi (midpoint) assignment minimizes energy:
        # F >= K.
        d = DensitySpec("uniform", {"a": 0.0, "b": 15.0})
        z = np.array([4.0, 10.0])
        k = tess.energy_K(z, d, DOM_15)
        for split in (3.0, 5.0, 9.0, 12.0):
            f = tess._energy_of_cells(z, np.array([0.0, split, 15.0]), d)
            assert f >= k - 1e-12


class TestLloydStep:
    def test_cvt_is_fixed_point(self):
        z = [2.5, 7.5, 12.5]
        t2 = _lloyd_step(z, UNIFORM_15)
        np.testing.assert_allclose(t2.generators, z, atol=1e-12)

    def test_uniform_step_moves_to_cell_midpoints(self):
        # cells of (1,2,14): (0,1.5),(1.5,8),(8,15) -> centroids at midpoints
        t2 = _lloyd_step([1.0, 2.0, 14.0], UNIFORM_15)
        np.testing.assert_allclose(t2.generators, [0.75, 4.75, 11.5],
                                   atol=1e-12)

    def test_symmetric_single_generator(self):
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 1.0})
        t2 = _lloyd_step([3.0], d)
        assert t2.generators[0] == pytest.approx(7.5, abs=1e-9)


class TestLloyd:
    def test_uniform_three_generators(self):
        t = tess.lloyd([1.0, 8.0, 14.0], UNIFORM_15, DOM_15, tol=1e-10)
        assert t.converged
        assert t.stop_reason == "tol"
        np.testing.assert_allclose(t.generators, [2.5, 7.5, 12.5], atol=1e-8)

    def test_gaussian_two_generators_vs_bisection_oracle(self):
        # Symmetric pair for Gaussian(50, 4) on [0, 100]: the shared boundary
        # is 50, so z2 is the centroid of [50, 100], solved independently by
        # adaptive quadrature: 51.595769121605734.
        d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
        dom = Domain1D(0.0, 100.0)
        t = tess.lloyd([40.0, 60.0], d, dom, tol=1e-13, max_iter=100_000)
        np.testing.assert_allclose(
            t.generators, [48.404230878394266, 51.595769121605734], atol=1e-9)

    def test_concentrated_gaussian_clusters_near_mean(self):
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 1.0})
        t = tess.lloyd([1.0, 2.0, 3.0], d, DOM_15, max_iter=100_000)
        assert np.all(np.abs(t.generators - 7.5) < 3.0)

    def test_budget_exhaustion_returns_unconverged(self):
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 1.0})
        t = tess.lloyd([1.0, 2.0, 3.0], d, DOM_15, max_iter=3)
        assert not t.converged
        assert t.stop_reason == "budget"
        assert t.iterations == 3

    @pytest.mark.parametrize("d, b, iterations", [
        (DensitySpec("gaussian", {"mu": 30.0, "sigma2": 4.0}), 100.0, 13_261),
        (DensitySpec("exponential", {"lam": 0.02}), 300.0, 14_769),
        (DensitySpec("gamma", {"k": 3.0, "theta": 20.0}), 300.0, 14_882),
    ], ids=["gaussian", "exponential", "gamma"])
    def test_fifty_generators_stop_on_tol(self, d, b, iterations):
        # The cvt command's run from the equally spaced start, whose
        # energy comes from the moment kernel at order 2: the count of
        # updates to a "tol" stop moves with the centroid map's bits.
        dom = Domain1D(0.0, b)
        t = tess.lloyd(tess.default_init(50, dom), d, dom, max_iter=50_000)
        assert (t.stop_reason, t.iterations) == ("tol", iterations)
        assert np.isfinite([t.energy, *t.generators]).all()

    def test_stagnation_below_noise_floor(self):
        # A tolerance below the noise floor of the centroid map is never met;
        # Lloyd stops once the displacement has set no new minimum for
        # LLOYD_STALL_WINDOW iterations, at the last iterate.
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 9.0})
        t, hist = tess.lloyd([2.0, 8.0, 13.0], d, DOM_15, tol=1e-300,
                             max_iter=100_000, record_history=True)
        assert t.stop_reason == "stagnated"
        assert not t.converged
        moved = np.max(np.abs(np.diff(np.array(hist), axis=0)), axis=1)
        assert len(moved) == t.iterations
        least_at = int(np.argmin(moved)) + 1
        assert t.iterations - least_at == tess.LLOYD_STALL_WINDOW
        # every earlier window held a new minimum
        running_min = np.minimum.accumulate(moved)
        new_min_at = np.flatnonzero(moved[1:] < running_min[:-1]) + 2
        assert np.all(np.diff(np.concatenate(([1], new_min_at)))
                      < tess.LLOYD_STALL_WINDOW)
        np.testing.assert_array_equal(t.generators, hist[-1])
        ref = tess.lloyd([2.0, 8.0, 13.0], d, DOM_15, tol=1e-12,
                         max_iter=100_000)
        np.testing.assert_allclose(t.generators, ref.generators, atol=1e-10)

    def test_final_displacement_against_tol(self):
        # Below tol on a "tol" stop, at or above it on the other two, and the
        # max move of the last update.
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 9.0})
        init = [2.0, 8.0, 13.0]
        for tol, max_iter, stop in ((1e-10, 100_000, "tol"),
                                    (1e-300, 100_000, "stagnated"),
                                    (1e-10, 5, "budget")):
            t, hist = tess.lloyd(init, d, DOM_15, tol=tol, max_iter=max_iter,
                                 record_history=True)
            assert t.stop_reason == stop
            assert t.final_displacement == np.max(np.abs(hist[-1] - hist[-2]))
            if stop == "tol":
                assert t.final_displacement < tol
            else:
                assert t.final_displacement >= tol
        assert tess.lloyd(init, d, DOM_15, max_iter=0).final_displacement == 0.0

    def test_one_debug_record_per_call(self, caplog):
        # One record per call, whatever the stop and the iteration count,
        # naming the stop reason, the iterations and the final displacement.
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 9.0})
        init = [2.0, 8.0, 13.0]
        for tol, max_iter, stop in ((1e-10, 100_000, "tol"),
                                    (1e-300, 100_000, "stagnated"),
                                    (1e-10, 5, "budget")):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="cvtalloc.tessellation"):
                t = tess.lloyd(init, d, DOM_15, tol=tol, max_iter=max_iter)
            assert t.stop_reason == stop
            assert len(caplog.records) == 1
            record = caplog.records[0]
            assert record.levelno == logging.DEBUG
            assert record.name == "cvtalloc.tessellation"
            assert record.args == (3, stop, t.iterations, t.final_displacement)
            assert f"stopped on {stop} after {t.iterations} iterations" \
                in record.getMessage()

    def test_history_recording(self):
        t, hist = tess.lloyd([1.0, 8.0, 14.0], UNIFORM_15, DOM_15,
                             record_history=True)
        assert len(hist) == t.iterations + 1
        np.testing.assert_allclose(hist[0], [1.0, 8.0, 14.0])
        np.testing.assert_allclose(hist[-1], t.generators)


class TestLloydLoopOracle:
    """Every recorded iterate is the centroid map of the one before it, bit
    for bit, and the stop follows from the recorded displacements: the
    one errstate per run and the reused buffers change nothing."""

    @staticmethod
    def _replay(hist, dom, d, tol, max_iter):
        """(iterations, stop reason, final displacement) of the stop rules
        applied to the recorded history, checking each iterate on the way."""
        least_moved, least_at, moved, stop = np.inf, 0, 0.0, "budget"
        for k in range(1, len(hist)):
            expected = dens.cell_centroids(
                d, tess._midpoint_boundaries(hist[k - 1], dom))
            assert hist[k].tobytes() == expected.tobytes(), f"iterate {k}"
            moved = float(np.max(np.abs(hist[k] - hist[k - 1])))
            if moved < tol:
                stop = "tol"
                break
            if moved < least_moved:
                least_moved, least_at = moved, k
            elif k - least_at >= tess.LLOYD_STALL_WINDOW:
                stop = "stagnated"
                break
        assert k == len(hist) - 1 and (stop != "budget" or k == max_iter)
        return k, stop, moved

    def test_iterates_and_stops_equal_the_replay(self):
        stops = set()
        for f, (family, (d, dom)) in enumerate(LLOYD_FAMILIES.items()):
            # The N = 15 runs of the Lloyd goldens (uniform and gaussian
            # stop on "tol", exponential and gamma "stagnated") and a
            # "budget" stop at N = 50.
            for n, tol, max_iter in ((15, 1e-300, 8000), (50, None, 300)):
                rng = np.random.default_rng(1000 * f + n)
                z = np.sort(rng.uniform(dom.a, dom.b, n))
                t, hist = tess.lloyd(z, d, dom, tol=tol, max_iter=max_iter,
                                     record_history=True)
                got = (t.iterations, t.stop_reason, t.final_displacement)
                assert got == self._replay(hist, dom, d,
                                           tol or 1e-10 * dom.width, max_iter)
                assert t.generators.tobytes() == hist[-1].tobytes()
                assert t.boundaries.tobytes() == tess._midpoint_boundaries(
                    hist[-1], dom).tobytes()
                assert not np.shares_memory(t.generators, hist[-1])
                stops.add(t.stop_reason)
        assert stops == {"tol", "stagnated", "budget"}

    def test_midpoint_overflow_inside_the_loop(self, monkeypatch):
        # On a domain straddling half the largest float, the sum of the
        # second iterate's generators overflows: that midpoint, above half
        # the largest float, is halved first, so every map sees finite,
        # ordered boundaries, and no RuntimeWarning is raised.  The run ends in the energy's typed
        # error, as every energy on this domain overflows.
        h = np.finfo(float).max / 2
        d = DensitySpec("gamma", {"k": 8.1e17, "theta": (h + 3e298) / 8.1e17})
        dom = Domain1D(h - 1e299, h + 1e299)
        seen = []
        real = dens._centroid_map

        def spy(d):
            cells = real(d)

            def recorded(m, out=None):
                seen.append(m.copy())
                return cells(m, out)
            return recorded

        monkeypatch.setattr(dens, "_centroid_map", spy)
        with pytest.raises(InvalidParameterValue,
                           match="^the quantization energy on "):
            tess.lloyd([h - 6e298, h - 5e298], d, dom, max_iter=3)
        assert len(seen) == 3
        for m in seen:
            assert np.isfinite(m).all() and np.all(np.diff(m) > 0)
        assert seen[2][1] > h

    def test_one_map_per_run_and_erf_at_two_boundaries(self, monkeypatch):
        # Lloyd builds the Gaussian's centroid map once per run, and in
        # each map call erf sees only the two ends of the cell across mu.
        d, dom = LLOYD_FAMILIES["gaussian"]
        real_map, real_erf = dens._centroid_map, special.erf
        builds, per_call, inside = [], [], [False]

        def spy_map(d):
            builds.append(d)
            cells = real_map(d)

            def counted(m, out=None):
                per_call.append(0)
                inside[0] = True
                try:
                    return cells(m, out)
                finally:
                    inside[0] = False
            return counted

        def spy_erf(x, *args, **kwargs):
            if inside[0]:
                per_call[-1] += np.size(x)
            return real_erf(x, *args, **kwargs)

        monkeypatch.setattr(dens, "_centroid_map", spy_map)
        monkeypatch.setattr(special, "erf", spy_erf)
        t = tess.lloyd(np.linspace(1.0, 99.0, 50), d, dom, max_iter=300)
        assert builds == [d] and len(per_call) == t.iterations == 300
        # 0 where a boundary sits exactly at mu = 40, as the first
        # iterates' midpoints of the evenly spaced start do.
        assert set(per_call) == {0, 2} and per_call.count(2) > 250


    @pytest.mark.parametrize("max_iter", [50, tess.LLOYD_MAX_ITER])
    def test_nan_centroids_raise(self, max_iter):
        # The exponential first moments overflow here (the term
        # (x + 1/lam) exp(-lam x) is inf at both ends of a cell, and
        # inf - inf is NaN), so the first centroid map is NaN: Lloyd raises
        # instead of running on to a "budget" or "stagnated" stop with NaN
        # generators.
        dom = Domain1D(0.0, 1.7e308)
        d = DensitySpec("exponential", {"lam": 1e-308})
        with pytest.raises(GeneratorOutOfDomain,
                           match="^generators must be finite$"):
            tess.lloyd(tess.default_init(2, dom), d, dom, max_iter=max_iter)

    def test_generator_clamped_onto_a_domain_end_raises(self):
        # On [0, 1.7e308] the exponential first moment overflows (the term
        # at b is inf), so the centroid is clamped onto a: Lloyd raises
        # instead of reporting a converged generator at a with NaN energy.
        dom = Domain1D(0.0, 1.7e308)
        d = DensitySpec("exponential", {"lam": 1e-308})
        with pytest.raises(GeneratorOutOfDomain, match="onto an end"):
            tess.lloyd(tess.default_init(1, dom), d, dom)

    def test_coinciding_generators_at_the_end_raise(self, monkeypatch):
        # A map that clamps the centroids of both cells onto their shared
        # boundary: the second iterate repeats the first, so the run would
        # stop on "tol" with two equal generators.  The result must pass
        # the rule the start passed.
        def onto_the_shared_boundary(d):
            def cells(m, out):
                out[:] = m[1]
                return out, None, None
            return cells

        monkeypatch.setattr(dens, "_centroid_map", onto_the_shared_boundary)
        with pytest.raises(DuplicateGenerators):
            tess.lloyd([0.25, 0.75], UNIFORM_15, Domain1D(0.0, 1.0))

    @pytest.mark.parametrize("lam", [1e-6, 1e-9])
    def test_nearly_uniform_exponential_converges(self, lam):
        # Once a run on the moments that cancel at a tiny lam x: it stopped
        # "stagnated" with energy 0 at 1e-6, and at 1e-9 on "tol" with the
        # pairs 1.53e-5, 1.53e-5 and 0.375, 0.375.
        t = tess.lloyd(tess.default_init(4, Domain1D(0.0, 1.0)),
                       DensitySpec("exponential", {"lam": lam}),
                       Domain1D(0.0, 1.0))
        assert t.converged
        np.testing.assert_allclose(t.generators, [0.125, 0.375, 0.625, 0.875],
                                   rtol=0, atol=1e-6)
        assert t.energy == pytest.approx(lam / 192.0, rel=1e-5)

    def test_exponential_energy_on_a_huge_domain(self):
        # The second moment's term at b = 1.7e308 is 0, not inf * 0, so the
        # energy of the one generator at the mean 1/lam is 1/lam^2.
        dom = Domain1D(0.0, 1.7e308)
        d = DensitySpec("exponential", {"lam": 0.5})
        t = tess.lloyd(tess.default_init(1, dom), d, dom)
        assert t.converged
        assert t.generators.tolist() == [2.0]
        assert t.energy == 4.0

    def test_one_cell_wider_than_1e300(self):
        # The one cell holds all the mass, far above its capped mass_floor.
        d = DensitySpec("gaussian", {"mu": 3.0, "sigma2": 1.0})
        t = tess.lloyd([1e307], d, Domain1D(-8e307, 8e307))
        assert t.generators.tolist() == [3.0]
        assert t.stop_reason == "tol"


def _run_bits(t) -> tuple:
    return (t.generators.tobytes(), t.boundaries.tobytes(),
            t.final_displacement.hex(), t.energy.hex(), t.iterations,
            t.stop_reason)


class TestReusedBuffers:
    """Lloyd keeps its iterates, and a centroid map its terms, in buffers
    reused from one iteration or call to the next: nothing that a run or
    a cell_centroids call returns moves afterwards."""

    @pytest.mark.parametrize("family", sorted(LLOYD_FAMILIES))
    def test_history_changes_no_bit(self, family):
        d, dom = LLOYD_FAMILIES[family]
        for n in (1, 2, 15, 50):
            tol, max_iter = LLOYD_RUNS[n]
            z = np.sort(np.random.default_rng(n).uniform(dom.a, dom.b, n))
            t = tess.lloyd(z, d, dom, tol=tol, max_iter=max_iter)
            kept, history = tess.lloyd(z, d, dom, tol=tol, max_iter=max_iter,
                                       record_history=True)
            assert _run_bits(t) == _run_bits(kept), n
            assert len(history) == t.iterations + 1

    @pytest.mark.parametrize("family", sorted(LLOYD_FAMILIES))
    def test_a_second_run_moves_nothing_of_the_first(self, family):
        d, dom = LLOYD_FAMILIES[family]
        rng = np.random.default_rng(7)
        first, history = tess.lloyd(
            np.sort(rng.uniform(dom.a, dom.b, 15)), d, dom, max_iter=200,
            record_history=True)
        bits = _run_bits(first), [z.tobytes() for z in history]
        second = tess.lloyd(np.sort(rng.uniform(dom.a, dom.b, 15)), d, dom,
                            max_iter=200)
        assert (_run_bits(first), [z.tobytes() for z in history]) == bits
        assert not np.shares_memory(first.generators, second.generators)
        assert not np.shares_memory(first.boundaries, second.boundaries)

    @pytest.mark.parametrize("family", sorted(LLOYD_FAMILIES))
    def test_cell_centroids_survive_a_further_call(self, family):
        d, dom = LLOYD_FAMILIES[family]
        rng = np.random.default_rng(8)
        rows = [tess.voronoi_regions(np.sort(rng.uniform(dom.a, dom.b, n)),
                                     dom) for n in (15, 15, 40)]
        first = dens.cell_centroids(d, rows[0])
        bits = first.tobytes()
        for m in rows[1:]:
            dens.cell_centroids(d, m)
            assert first.tobytes() == bits


class TestIsCvt:
    def test_exact_cvt(self):
        assert is_cvt([2.5, 7.5, 12.5], UNIFORM_15, DOM_15, tol=1e-9)

    def test_non_cvt(self):
        assert not is_cvt([1.0, 7.5, 14.0], UNIFORM_15, DOM_15, tol=1e-9)

    def test_lloyd_output_is_cvt(self):
        d = DensitySpec("exponential", {"lam": 0.3})
        t = tess.lloyd([1.0, 5.0, 10.0], d, DOM_15, max_iter=100_000)
        assert is_cvt(t.generators, d, DOM_15, tol=1e-6)


class TestInvariants:
    DENSITIES = [
        UNIFORM_15,
        DensitySpec("gaussian", {"mu": 6.0, "sigma2": 9.0}),
        DensitySpec("exponential", {"lam": 0.2}),
        DensitySpec("gamma", {"k": 2.0, "theta": 3.0}),
    ]

    @pytest.mark.parametrize("d", DENSITIES, ids=lambda d: d.family)
    def test_energy_monotonicity(self, d):
        z = [1.0, 2.0, 9.0, 14.0]
        energy = tess.energy_K(z, d, DOM_15)
        for _ in range(200):
            t = _lloyd_step(z, d)
            assert t.energy <= energy + 1e-12
            z, energy = t.generators, t.energy

    @pytest.mark.parametrize("d", DENSITIES, ids=lambda d: d.family)
    def test_order_preserved_through_iterations(self, d):
        _, hist = tess.lloyd([1.0, 2.0, 9.0, 14.0], d, DOM_15,
                             max_iter=50_000, record_history=True)
        for z in hist:
            assert np.all(np.diff(z) > 0)

    def test_fixed_point_iff_cvt(self):
        d = DensitySpec("gaussian", {"mu": 7.5, "sigma2": 9.0})
        t = tess.lloyd([2.0, 8.0, 13.0], d, DOM_15, tol=1e-12,
                       max_iter=100_000)
        t2 = _lloyd_step(t.generators, d)
        moved = np.max(np.abs(t2.generators - t.generators))
        assert is_cvt(t.generators, d, DOM_15, tol=1e-10)
        assert moved < 1e-10
        # and a non-CVT moves by more than that
        z3 = [1.0, 7.5, 14.0]
        t4 = _lloyd_step(z3, d)
        assert np.max(np.abs(t4.generators - z3)) > 1e-3

    @staticmethod
    def _uniform_energy_oracle(*zs):
        """Closed-form quantization energy for Uniform(0,1), independent of
        the library's integration path.  Arguments broadcast."""
        zs = [np.asarray(z, dtype=float) for z in zs]
        bounds = ([np.zeros_like(zs[0])]
                  + [0.5 * (a + b) for a, b in zip(zs[:-1], zs[1:])]
                  + [np.ones_like(zs[0])])
        total = 0.0
        for z, lo, hi in zip(zs, bounds[:-1], bounds[1:]):
            total = total + ((hi - z) ** 3 - (lo - z) ** 3) / 3.0
        return total

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_brute_force_optimality(self, n):
        """Exhaustive 201-grid minimization of an independent closed-form
        energy cannot beat Lloyd by more than the grid resolution bound."""
        d = DensitySpec("uniform", {"a": 0.0, "b": 1.0})
        dom = Domain1D(0.0, 1.0)
        t = tess.lloyd(tess.default_init(n, dom), d, dom, tol=1e-12)
        grid = np.linspace(0.0025, 0.9975, 201)
        h = grid[1] - grid[0]
        if n == 1:
            best = float(np.min(self._uniform_energy_oracle(grid)))
        elif n == 2:
            z1, z2 = np.meshgrid(grid, grid, indexing="ij")
            e = self._uniform_energy_oracle(z1, z2)
            best = float(np.min(np.where(z1 < z2, e, np.inf)))
        else:
            best = math.inf
            for z1 in grid[:-2]:
                z2, z3 = np.meshgrid(grid[grid > z1], grid, indexing="ij")
                e = self._uniform_energy_oracle(
                    np.full_like(z2, z1), z2, z3)
                masked = np.where(z2 < z3, e, np.inf)
                best = min(best, float(np.min(masked)))
        # Perturbing each generator by at most h changes K by O(h); bound
        # via the Lipschitz constant of K (<= 2 per generator on [0,1]).
        assert best >= t.energy - 1e-12
        assert best <= t.energy + 2.0 * n * h

    @pytest.mark.parametrize("d", [
        UNIFORM_15, DensitySpec("gaussian", {"mu": 6.0, "sigma2": 9.0})])
    def test_uniqueness_for_log_concave(self, d):
        rng = np.random.default_rng(42)
        results = []
        for _ in range(20):
            init = np.sort(rng.uniform(0.5, 14.5, size=4))
            while np.min(np.diff(init)) < 1e-3:
                init = np.sort(rng.uniform(0.5, 14.5, size=4))
            t = tess.lloyd(init, d, DOM_15, tol=1e-12, max_iter=200_000)
            results.append(t.generators)
        ref = results[0]
        for z in results[1:]:
            assert np.max(np.abs(z - ref)) < 1e-6

    def test_default_init(self):
        np.testing.assert_allclose(tess.default_init(3, DOM_15),
                                   [2.5, 7.5, 12.5])

    @pytest.mark.parametrize("a, b, n", [
        (0.0, 15.0, 3), (-1e300, 1e300, 7), (2.0, 1.7e308, 3),
        (0.0, 1.7e308, 1000), (-8e307, 9e307, 5)])
    def test_default_init_keeps_its_bits_where_finite(self, a, b, n):
        # Where (i - 1/2) * width overflows, the width is divided by N
        # first; elsewhere the points have today's a + (i - 1/2) * width / N
        # bits.
        dom = Domain1D(a, b)
        k = np.arange(1, n + 1) - 0.5
        with np.errstate(over="ignore"):
            before = dom.a + k * dom.width / n
        z = tess.default_init(n, dom)
        finite = np.isfinite(before)
        assert np.isfinite(z).all() and np.all(np.diff(z) > 0)
        assert a < z[0] and z[-1] < b
        assert z[finite].tobytes() == before[finite].tobytes()
        assert (z[~finite].tobytes()
                == (dom.a + k[~finite] * (dom.width / n)).tobytes())
