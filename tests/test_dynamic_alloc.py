"""Dynamic allocation: the one-step shift, mean-shift verification, the
resource order, and the civility swap protocol."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtalloc import dynamic_alloc as dyn
from cvtalloc import tessellation as tess
from cvtalloc.density import DensitySpec
from cvtalloc.dynamic_alloc import AllocationState
from cvtalloc.errors import DomainTooNarrow, MissingDesiredInput
from cvtalloc.tessellation import Domain1D
from test_tessellation import is_cvt


class TestOneStepUpdate:
    def test_direct_shift(self):
        np.testing.assert_allclose(
            dyn.one_step_update([10.0, 20.0, 30.0], 60.0, 66.0),
            [12.0, 22.0, 32.0])

    def test_zero_delta(self):
        z = [10.0, 20.0, 30.0]
        np.testing.assert_allclose(dyn.one_step_update(z, 60.0, 60.0), z)

    def test_fifty_agents_drop(self):
        z = np.linspace(10.0, 90.0, 50)
        out = dyn.one_step_update(z, 2500.0, 1500.0)
        np.testing.assert_allclose(out, z - 20.0)

    def test_sum_tracks_new_total(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(2, 40)
            z = rng.uniform(0.0, 100.0, size=n)
            r_k = float(np.sum(z))
            r_k1 = r_k + rng.uniform(-50.0, 50.0)
            out = dyn.one_step_update(z, r_k, r_k1)
            assert abs(np.sum(out) - r_k1) < 1e-9 * n


class TestShiftedMean:
    def test_arithmetic(self):
        assert dyn.shifted_mean(50.0, 2500.0, 2550.0, 50) == 51.0

    def test_unchanged(self):
        assert dyn.shifted_mean(30.0, 7.0, 7.0, 3) == 30.0

    def test_sign_convention(self):
        # delta = mu(k) - mu(k+1) = -(r(k+1) - r(k)) / N
        mu1 = dyn.shifted_mean(50.0, 100.0, 90.0, 5)
        assert 50.0 - mu1 == pytest.approx(2.0)


class TestVerifyShiftProperty:
    def test_passes_on_wide_domain(self):
        d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
        report = dyn.verify_shift_property(d, Domain1D(0.0, 100.0), n=5,
                                           delta=2.0, tol=1e-7)
        assert report.passed
        assert report.max_deviation < 1e-7

    def test_one_debug_record(self, caplog):
        d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
        with caplog.at_level(logging.DEBUG, logger="cvtalloc.dynamic_alloc"):
            report = dyn.verify_shift_property(d, Domain1D(0.0, 100.0), n=3,
                                               delta=2.0, tol=1e-7)
        records = [r for r in caplog.records
                   if r.name == "cvtalloc.dynamic_alloc"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert records[0].args == (3, 2.0, report.max_deviation)

    def test_zero_delta(self):
        d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
        report = dyn.verify_shift_property(d, Domain1D(0.0, 100.0), n=3,
                                           delta=0.0, tol=1e-10)
        assert report.max_deviation == 0.0

    def test_narrow_domain_guard(self):
        d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 1.0})
        with pytest.raises(DomainTooNarrow):
            dyn.verify_shift_property(d, Domain1D(49.0, 51.0), n=2,
                                      delta=5.0, tol=1e-7)

    def test_non_gaussian_rejected(self):
        d = DensitySpec("exponential", {"lam": 1.0})
        with pytest.raises(ValueError):
            dyn.verify_shift_property(d, Domain1D(0.0, 100.0), n=3,
                                      delta=1.0, tol=1e-7)


def reference_negotiate_round(resources: dict, desired: dict):
    """The dict-of-ids civility round that the array version replaced, kept
    as a test oracle.  The line graph is a tuple of edges between agents
    adjacent in (resource, id) order, and an agent's neighbors are found by
    scanning the edges.  Returns the post-round resources and the swaps as
    (proposer, target, z_proposer, z_target) tuples, with the resources
    read at the moment of the swap."""
    order = tuple(sorted(resources, key=lambda i: (resources[i], i)))
    edges = tuple((order[k], order[k + 1]) for k in range(len(order) - 1))

    def neighbors(agent):
        out = []
        for i, j in edges:
            if i == agent:
                out.append(j)
            elif j == agent:
                out.append(i)
        return out

    def neighbor_of_interest(i, u_i):
        def rank(j):
            return (abs(u_i - resources[j]), 0 if j == i else 1, j)
        return min(neighbors(i) + [i], key=rank)

    z = dict(resources)
    taken = set()
    events = []
    for i in order:
        if i in taken:
            continue
        j = neighbor_of_interest(i, desired[i])
        if j == i or j in taken:
            continue
        events.append((i, j, z[i], z[j]))
        z[i], z[j] = z[j], z[i]
        taken.add(i)
        taken.add(j)
    return z, events


def _state(resources):
    resources = np.asarray(resources, dtype=float)
    return AllocationState(resources=resources,
                           r_current=float(np.sum(resources)),
                           mu_current=0.0)


def neighbor_of_interest(p: int, u: float, z, order) -> int:
    """The scalar rule, the oracle of dyn.neighbors_of_interest: the agent
    at position p of the resource order, or its neighbor at position p - 1
    or p + 1, whose resource z[j] is closest to the desired amount u; ties
    break toward the agent itself, then toward the lower agent index."""
    if not 0 <= p < len(order):
        raise IndexError(f"position {p} outside 0..{len(order) - 1}")
    i = order[p]
    candidates = [order[q] for q in (p - 1, p, p + 1) if 0 <= q < len(order)]
    return min(candidates, key=lambda j: (abs(u - z[j]), j != i, j))


def assert_line_order(state):
    """state.order is a permutation of the agents that sorts the resources,
    ties broken by agent index."""
    z, order = state.resources, state.order
    assert sorted(order.tolist()) == list(range(z.size))
    keys = [(z[i], i) for i in order.tolist()]
    assert keys == sorted(keys)


class TestLineGraph:
    def test_sort_and_edges(self):
        order = dyn.rebuild_line_graph(np.array([1.0, 5.0, 3.0])).tolist()
        assert order == [0, 2, 1]
        assert list(zip(order[:-1], order[1:])) == [(0, 2), (2, 1)]

    def test_single_agent(self):
        assert dyn.rebuild_line_graph(np.array([1.0])).tolist() == [0]

    def test_tie_broken_by_id(self):
        order = dyn.rebuild_line_graph(np.array([7.0, 2.0, 2.0, 2.0]))
        assert order.tolist() == [1, 2, 3, 0]

    def test_state_builds_order(self):
        st_ = _state([4.0, 1.0, 4.0, 0.5])
        assert st_.order.tolist() == [3, 1, 0, 2]
        assert_line_order(st_)

    def test_neighbors(self):
        # resources in order 0 < 1 < 2: agent 0 (position 0) sees only
        # agent 1, even when agent 2's resource is what it wants.
        z, order = [1.0, 2.0, 3.0], [0, 1, 2]
        assert neighbor_of_interest(0, 3.0, z, order) == 1
        assert neighbor_of_interest(1, 0.0, z, order) == 0
        assert neighbor_of_interest(1, 9.0, z, order) == 2
        assert neighbor_of_interest(2, 0.0, z, order) == 1


class TestNeighborOfInterest:
    def test_closest_neighbor_wins(self):
        assert neighbor_of_interest(0, 5.1, [2.0, 5.0], [0, 1]) == 1

    def test_own_resource_exact(self):
        assert neighbor_of_interest(1, 5.0, [2.0, 5.0], [0, 1]) == 1

    def test_tie_goes_to_self(self):
        # desired 3.0 equidistant to own 2.0 and neighbor 4.0
        assert neighbor_of_interest(0, 3.0, [2.0, 4.0], [0, 1]) == 0

    def test_three_way_tie_goes_to_self(self):
        # own 2.0 in the middle, neighbors 1.0 and 3.0 at equal distance
        z, order = [3.0, 2.0, 1.0], [2, 1, 0]
        assert neighbor_of_interest(1, 2.0, z, order) == 1
        assert neighbor_of_interest(1, 2.5, z, order) == 1

    def test_equidistant_neighbors_lower_index_wins(self):
        # In a sorted order the agent lies between its neighbors, so it is
        # never strictly farther than both; the rule is checked on an order
        # given by hand: neighbors 2 (1.0) and 0 (5.0) are both 2 from 3.0.
        z, order = [5.0, 10.0, 1.0], [2, 1, 0]
        assert neighbor_of_interest(1, 3.0, z, order) == 0
        z, order = [1.0, 10.0, 5.0], [2, 1, 0]
        assert neighbor_of_interest(1, 3.0, z, order) == 0

    def test_unknown_agent(self):
        # a position outside the fleet, at either end
        for p in (-1, 1):
            with pytest.raises(IndexError):
                neighbor_of_interest(p, 1.0, [2.0], [0])


class TestNeighborsOfInterest:
    def test_matches_oracle_at_every_position(self):
        """3,000 rounds at N = 1 to 40 on half-integers from 0 to 6, so that
        equal resources, equal distances and desired amounts midway between
        two resources are frequent; in the sorted order and in a random
        one, where the equidistant-neighbor rule also shows."""
        rng = np.random.default_rng(11)
        for n in range(1, 41):
            for _ in range(75):
                z = (rng.integers(0, 13, size=n) / 2.0).tolist()
                desired = (rng.integers(0, 13, size=n) / 2.0).tolist()
                for order in (dyn.rebuild_line_graph(np.array(z)).tolist(),
                              rng.permutation(n).tolist()):
                    got = dyn.neighbors_of_interest(z, desired, order).tolist()
                    assert got == [neighbor_of_interest(p, desired[i], z, order)
                                   for p, i in enumerate(order)]


def oracle_neighbors_of_interest(z, desired, order):
    """dyn.neighbors_of_interest as it was before its padded arrays were
    preallocated, built with np.concatenate and np.append: the oracle of
    the array version."""
    order = np.asarray(order)
    n = order.size
    padded = np.concatenate(([n], order, [n]))
    z = np.append(np.asarray(z, dtype=float), np.inf)[padded]
    u = np.asarray(desired, dtype=float)[order]
    left, right = padded[:-2], padded[2:]
    d_left, d_right = np.abs(u - z[:-2]), np.abs(u - z[2:])
    go_left = (d_left < d_right) | ((d_left == d_right) & (left < right))
    best = np.where(go_left, left, right)
    d_best = np.where(go_left, d_left, d_right)
    return np.where(d_best < np.abs(u - z[1:-1]), best, order)


def oracle_negotiate_round(state, desired):
    """dyn.negotiate_round as it was before its swaps became one flat list
    of ints, with a list of (proposer, target) tuples and np.flatnonzero:
    the post-round resources, their np.argsort line graph and the swaps."""
    desired = np.asarray(desired, dtype=float)
    choice = oracle_neighbors_of_interest(state.resources, desired,
                                          state.order)
    proposers = np.flatnonzero(choice != state.order)
    taken = [False] * state.resources.size
    swaps = []
    for i, j in zip(state.order[proposers].tolist(),
                    choice[proposers].tolist()):
        if not (taken[i] or taken[j]):
            swaps.append((i, j))
            taken[i] = taken[j] = True
    swaps = np.array(swaps, dtype=int).reshape(-1, 2)
    z = state.resources.copy()
    z[swaps] = state.resources[swaps[:, ::-1]]
    return z, np.argsort(z, kind="stable"), swaps


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestAgainstArrayOracle:
    """The preallocated padding, the flat swap list and the method sort
    against the code they replaced, on half-integers, where equal
    resources, equal distances and desired amounts midway between two
    resources are frequent."""

    def assert_choice(self, z, desired, order):
        want = oracle_neighbors_of_interest(z, desired, order)
        assert_same_array(dyn.neighbors_of_interest(z, desired, order), want)
        assert_same_array(dyn.neighbors_of_interest(
            z.tolist(), desired.tolist(), order.tolist()), want)

    def assert_rounds(self, z, desired_rounds):
        """Chained rounds from z; returns the number of swaps made."""
        state, total = _state(z), 0
        for desired in desired_rounds:
            ref_z, ref_order, ref_swaps = oracle_negotiate_round(state,
                                                                 desired)
            assert_same_array(dyn.rebuild_line_graph(state.resources),
                              np.argsort(state.resources, kind="stable"))
            self.assert_choice(state.resources, desired, state.order)
            for given in (desired, desired.tolist()):
                new, swaps = dyn.negotiate_round(state, given)
                assert_same_array(swaps, ref_swaps)
                assert_same_array(new.resources, ref_z)
                assert_same_array(new.order, ref_order)
            state, total = new, total + len(swaps)
        return total

    def test_small_fleets(self):
        """3,000 cases at N = 1 to 40, the choice also in a random order,
        where the equidistant-neighbor rule shows."""
        rng = np.random.default_rng(27)
        swap_counts = []
        for n in range(1, 41):
            for _ in range(75):
                z = rng.integers(0, 13, size=n) / 2.0
                desired = rng.integers(0, 13, size=(2, n)) / 2.0
                self.assert_choice(z, desired[0], rng.permutation(n))
                swap_counts.append(self.assert_rounds(z, desired))
        assert len(swap_counts) == 3000
        assert 0 in swap_counts and max(swap_counts) > 0

    @pytest.mark.parametrize("n", [240, 1000, 10_000])
    def test_large_fleets(self, n):
        """Few levels (many equal resources) and about n levels."""
        rng = np.random.default_rng(n)
        for levels in (13, 2 * n):
            z = rng.integers(0, levels, size=n) / 2.0
            desired = rng.integers(0, levels, size=(3, n)) / 2.0
            self.assert_choice(z, desired[0], rng.permutation(n))
            assert self.assert_rounds(z, desired) > 0


class TestNegotiateRound:
    def test_two_agent_walkthrough(self):
        st_ = _state([2.0, 5.0])
        new, swaps = dyn.negotiate_round(st_, [5.1, 4.9])
        assert swaps.tolist() == [[0, 1]]
        assert st_.resources[swaps].tolist() == [[2.0, 5.0]]
        assert new.resources.tolist() == [5.0, 2.0]
        assert new.order.tolist() == [1, 0]

    def test_fixed_point_when_satisfied(self):
        st_ = _state([2.0, 5.0, 9.0])
        new, swaps = dyn.negotiate_round(st_, [2.0, 5.0, 9.0])
        assert swaps.shape == (0, 2)
        assert np.array_equal(new.resources, st_.resources)

    def test_lower_order_proposer_wins_contested_target(self):
        # agents 0 and 2 both want agent 1's resource; 0 acts first.
        st_ = _state([1.0, 5.0, 9.0])
        new, swaps = dyn.negotiate_round(st_, [5.0, 5.0, 5.0])
        assert swaps.tolist() == [[0, 1]]
        assert new.resources.tolist() == [5.0, 1.0, 9.0]

    def test_missing_desired_input(self):
        st_ = _state([2.0, 5.0])
        with pytest.raises(MissingDesiredInput):
            dyn.negotiate_round(st_, [5.0])

    def test_graph_rebuilt_after_swaps(self):
        new, _ = dyn.negotiate_round(_state([2.0, 5.0]), [5.1, 4.9])
        assert np.array_equal(new.order, dyn.rebuild_line_graph(new.resources))

    def test_step_and_totals_carried(self):
        st_ = _state([2.0, 5.0])
        new, swaps = dyn.negotiate_round(st_, [5.1, 4.9])
        assert len(swaps) == 1
        assert (new.r_current, new.mu_current) == (st_.r_current, st_.mu_current)


# Mostly half-integers on a short range, so that equal resources, equal
# desired amounts and desired amounts midway between two resources are all
# frequent; some arbitrary floats in the same range.
tied_values = st.one_of(st.integers(0, 12).map(lambda k: k / 2.0),
                        st.floats(0.0, 6.0))


class TestAgainstReference:
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(tied_values, min_size=n, max_size=n),
        st.lists(st.lists(tied_values, min_size=n, max_size=n),
                 min_size=1, max_size=4))))
    @settings(max_examples=300, deadline=None)
    def test_same_values_and_events_with_ties(self, case):
        """The same resources and swaps as the reference; the resources a
        swap starts from, which the reference reads at swap time, are the
        pre-round ones, as the trace records them."""
        z0, rounds = case
        state = _state(z0)
        ref = dict(enumerate(z0))
        for desired in rounds:
            before = state.resources
            state, swaps = dyn.negotiate_round(state, desired)
            ref, ref_events = reference_negotiate_round(
                ref, dict(enumerate(desired)))
            assert state.resources.tolist() == [ref[i] for i in range(len(z0))]
            events = [(i, j, zi, zj) for (i, j), (zi, zj)
                      in zip(swaps.tolist(), before[swaps].tolist())]
            assert events == ref_events
            assert_line_order(state)


class TestProtocolProperties:
    @given(st.integers(min_value=2, max_value=50), st.integers())
    @settings(max_examples=100, deadline=None)
    def test_randomized_rounds(self, n, seed):
        """Across many random rounds: multiset preserved, at most one swap
        per agent, and the order stays a valid line graph."""
        rng = np.random.default_rng(seed % 2**32)
        state = _state(rng.uniform(0.0, 100.0, size=n))
        for round_no in range(10):
            desired = rng.uniform(0.0, 100.0, size=n)
            before = sorted(state.resources.tolist())
            state, swaps = dyn.negotiate_round(state, desired)
            # conservation of the multiset
            assert sorted(state.resources.tolist()) == before
            # single participation
            participants = swaps.ravel().tolist()
            assert len(participants) == len(set(participants))
            # line-graph validity: a permutation sorting the resources
            assert_line_order(state)

    def test_civility_no_rejection(self):
        # A proposed-to untaken agent always accepts: design the round so
        # agent 2 would "prefer" not to swap, yet the swap still happens.
        state = _state([2.0, 5.0, 9.0])
        desired = [5.0, 5.0, 9.0]  # 1 is perfectly satisfied
        _, swaps = dyn.negotiate_round(state, desired)
        assert len(swaps) == 1
        assert swaps[0, 1] == 1

    def test_distribution_preserved_after_update(self):
        """From a CVT, the one-step shift lands on the CVT of the shifted
        Gaussian (domain wide enough for the translation property)."""
        dom = Domain1D(0.0, 100.0)
        d = DensitySpec("gaussian", {"mu": 50.0, "sigma2": 4.0})
        t = tess.lloyd(tess.default_init(5, dom), d, dom, tol=1e-12,
                       max_iter=200_000)
        r_k = float(np.sum(t.generators))
        r_k1 = r_k - 10.0   # mean moves to 48
        z_new = dyn.one_step_update(t.generators, r_k, r_k1)
        d_new = DensitySpec("gaussian", {"mu": 48.0, "sigma2": 4.0})
        assert is_cvt(np.sort(z_new), d_new, dom, tol=1e-6)
