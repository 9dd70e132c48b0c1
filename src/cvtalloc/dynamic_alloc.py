"""Decentralized dynamic allocation: one-step Gaussian update, mean-shift
utilities, the resource order, and the civility-model swap protocol.

Resources live on a line: sorting agents by resource value induces the
resource graph, which doubles as the communication graph.  Agents are
indices into the resource array and the graph is the sort permutation
``order``: the agent at position p talks to those at p - 1 and p + 1.  A
round of negotiation lets each agent propose a swap to the neighbor whose
resource is closest to its locally desired amount; a proposed-to agent
always accepts unless it has already taken part in a swap this round.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tessellation as tess
from .density import DensitySpec
from .errors import DomainTooNarrow, MissingDesiredInput
from .tessellation import Domain1D

__all__ = [
    "AllocationState",
    "ShiftReport",
    "one_step_update",
    "shifted_mean",
    "verify_shift_property",
    "rebuild_line_graph",
    "neighbors_of_interest",
    "negotiate_round",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class AllocationState:
    """Per-step snapshot of agent resources, indexed by agent, and the
    resource order that induces the line graph, built from them."""

    resources: np.ndarray
    r_current: float
    mu_current: float
    order: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "resources",
                           np.asarray(self.resources, dtype=float))
        object.__setattr__(self, "order", rebuild_line_graph(self.resources))


def rebuild_line_graph(resources) -> np.ndarray:
    """Agents sorted by resource value, ties by agent index: the line graph
    joins the agents at adjacent positions."""
    return np.argsort(resources, kind="stable")


def one_step_update(z, r_k: float, r_k1: float) -> np.ndarray:
    """Shift every resource by (r(k+1) - r(k)) / N; the sum then tracks the
    new total exactly up to floating rounding."""
    z = np.asarray(z, dtype=float)
    return z + (r_k1 - r_k) / z.size


def shifted_mean(mu_k: float, r_k: float, r_k1: float, n: int) -> float:
    """Updated Gaussian mean after a total-resource change."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return mu_k + (r_k1 - r_k) / n


@dataclass(frozen=True)
class ShiftReport:
    """CVT translation check for a Gaussian mean shift."""

    n: int
    delta: float
    max_deviation: float
    passed: bool


def _gaussian_tail_mass_outside(mu: float, sigma: float, dom: Domain1D) -> float:
    from scipy.special import ndtr
    return float(ndtr((dom.a - mu) / sigma) + ndtr((mu - dom.b) / sigma))


def verify_shift_property(d_gaussian: DensitySpec, dom: Domain1D, n: int,
                          delta: float, tol: float) -> ShiftReport:
    """Check that shifting the Gaussian mean by -delta shifts every CVT
    generator by -delta.

    Exact only when the domain truncates a negligible amount of density at
    both means; otherwise DomainTooNarrow is raised rather than reporting a
    truncation artifact as a failure.  Logs one DEBUG record with n, delta
    and the max deviation.
    """
    if d_gaussian.family != "gaussian":
        raise ValueError("shift property applies to the gaussian family only")
    if not d_gaussian.is_bound:
        raise ValueError("density must be fully bound")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mu = d_gaussian.params["mu"]
    sigma = math.sqrt(d_gaussian.params["sigma2"])
    d_shift = replace(d_gaussian,
                      params={**d_gaussian.params, "mu": mu - delta})
    for m in (mu, mu - delta):
        if _gaussian_tail_mass_outside(m, sigma, dom) >= 1e-9:
            raise DomainTooNarrow(
                f"mass outside the domain at mean {m} is not negligible")

    lloyd_tol = min(tol * 1e-3, 1e-11 * dom.width)
    init = tess.default_init(n, dom)
    t_base = tess.lloyd(init, d_gaussian, dom, tol=lloyd_tol,
                        max_iter=tess.REFERENCE_MAX_ITER)
    t_shift = tess.lloyd(init, d_shift, dom, tol=lloyd_tol,
                         max_iter=tess.REFERENCE_MAX_ITER)
    dev = float(np.max(np.abs(t_shift.generators
                              - (t_base.generators - delta))))
    logger.debug("shift check n = %d, delta = %g: max deviation %.3g",
                 n, delta, dev)
    return ShiftReport(n=n, delta=delta, max_deviation=dev, passed=dev < tol)


def neighbors_of_interest(z, desired, order) -> np.ndarray:
    """For every position p of ``order`` at once, with i = order[p] and
    u = desired[i]: of agent i and its neighbors at positions p - 1 and
    p + 1, the agent j whose resource z[j] is closest to u.  Ties break
    toward agent i itself, then toward the lower agent index."""
    order = np.asarray(order)
    n = order.size
    # The order padded at either end with the sentinel agent n, whose
    # resource is infinite: at infinite distance, no real agent loses to it.
    padded = np.concatenate(([n], order, [n]))
    z = np.append(np.asarray(z, dtype=float), np.inf)[padded]
    u = np.asarray(desired, dtype=float)[order]
    left, right = padded[:-2], padded[2:]
    d_left, d_right = np.abs(u - z[:-2]), np.abs(u - z[2:])
    go_left = (d_left < d_right) | ((d_left == d_right) & (left < right))
    best = np.where(go_left, left, right)
    d_best = np.where(go_left, d_left, d_right)
    return np.where(d_best < np.abs(u - z[1:-1]), best, order)


def negotiate_round(st: AllocationState, desired):
    """One civility round.

    Agents act in ascending resource order (pre-round order) and choose
    their neighbor of interest from the pre-round resources.  An agent
    whose neighbor of interest differs from itself swaps resource values
    with it unless either party already took part in a swap this round; a
    proposed-to agent never refuses.  Returns the post-round state and the
    swaps as an (S, 2) array of (proposer, target) agents in execution
    order; no agent appears twice, so each exchanges its pre-round value.
    """
    desired = np.asarray(desired, dtype=float)
    if desired.shape != st.resources.shape:
        raise MissingDesiredInput(
            f"need {st.resources.size} desired amounts, got {desired.size}")

    choice = neighbors_of_interest(st.resources, desired, st.order)
    proposers = np.flatnonzero(choice != st.order)
    taken = [False] * st.resources.size
    swaps = []
    for i, j in zip(st.order[proposers].tolist(), choice[proposers].tolist()):
        if not (taken[i] or taken[j]):
            swaps.append((i, j))
            taken[i] = taken[j] = True
    swaps = np.array(swaps, dtype=int).reshape(-1, 2)
    z = st.resources.copy()
    z[swaps] = st.resources[swaps[:, ::-1]]

    new_state = AllocationState(resources=z, r_current=st.r_current,
                                mu_current=st.mu_current)
    return new_state, swaps
