"""Demand-response orchestration: static-allocation initialization, per-step
one-step updates, local control, civility negotiation, and plant stepping.

Each time step runs four phases in order: shift all resources to the new
total, compute every agent's desired power from its plant state in one
batched control law, negotiate swaps along the resource order using desired
magnitudes, then apply the allocated power (with the local controller's
sign) to every plant.  The fleet's state is stacked by agent: plant states
X (N, 3), one ControllerGains whose arrays have a row or an entry per
agent, and each step's setpoints, a (horizon, N) table.
"""

from __future__ import annotations

import json
import logging
import math
import time

import numpy as np

from . import dynamic_alloc as dyn
from . import static_alloc as sa
from . import thermal as th
from .density import DensitySpec, _unique_keys
from .dynamic_alloc import AllocationState
from .errors import InvalidParameterValue, InvalidScenario, Uncontrollable, _slot_eq
from .tessellation import Domain1D

__all__ = ["Scenario", "SimState", "TraceLog", "MetricsReport", "initialize",
           "step", "run", "metrics", "diagnostics", "write_outputs"]

_FMT = "%.15g"  # numeric CSV formatting, 15 significant digits
_BLOCK = 1024  # values per % call in the CSV writers
# Absolute zero to far above any building's: squared errors stay finite.
SETPOINT_RANGE_F = (-459.67, 1000.0)
# The parts of a step whose wall time TraceLog.phase_s sums.
PHASES = ("shift", "control", "negotiate", "plant", "trace")
# The parts of write_outputs whose wall time TraceLog.write_phase_s holds.
WRITE_PARTS = ("metrics", "trace.csv", "swaps.csv", "metrics.json",
               "plot_files")

logger = logging.getLogger(__name__)


def _number(value) -> float:
    """A config number as a float; TypeError for anything else, a quoted
    number or a boolean included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """An integral config number as an int; TypeError for anything else."""
    if not _number(value).is_integer():
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _floats(values) -> tuple:
    if isinstance(values, str):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(_number(v) for v in values)


# How Scenario.from_config reads each config field, in the constructor's order;
# a TypeError or ValueError from one becomes an InvalidScenario naming the field.
_FROM_CONFIG = {
    "n_agents": _integer, "horizon": _integer,
    "domain": lambda v: Domain1D(*_floats(v)),
    "density": DensitySpec.from_config, "power_schedule": _floats,
    "seed": _integer, "disturbance": _string, "setpoints": _floats,
    "setpoint_changes": lambda v: tuple(
        (_integer(s), _integer(a), _number(x)) for s, a, x in v),
    "rounds_per_step": _integer, "ts_minutes": _number, "poles": _floats,
}
_REQUIRED = ("n_agents", "horizon", "domain", "density", "power_schedule")


class Scenario:
    """Configuration of one demand-response run: ``density`` gaussian with
    free mu, ``power_schedule`` r(k) as floats, one entry per step,
    ``disturbance`` "synthetic" or a CSV path, ``setpoints`` per-agent degF
    (empty: all 72), ``setpoint_changes`` (step, agent, new_setpoint)
    triples.  Equal by value, unhashable; ``replace`` builds a checked copy."""

    __slots__ = tuple(_FROM_CONFIG)
    __eq__ = _slot_eq

    def __init__(self, n_agents: int, horizon: int, domain: Domain1D,
                 density: DensitySpec, power_schedule: tuple, seed: int = 0,
                 disturbance: str = "synthetic", setpoints: tuple = (),
                 setpoint_changes: tuple = (), rounds_per_step: int = 1,
                 ts_minutes: float = th.DEFAULT_TS_MINUTES,
                 poles: tuple = th.DEFAULT_POLES):
        if n_agents < 1 or horizon < 1:
            raise InvalidScenario("n_agents and horizon must be >= 1")
        if horizon != len(power_schedule):
            raise InvalidScenario("horizon must equal len(power_schedule)")
        if density.family != "gaussian" or density.free_param != "mu":
            raise InvalidScenario("scenario density must be gaussian with free mu")
        for r in power_schedule:
            mean = r / n_agents
            if not (domain.a < mean < domain.b):
                raise InvalidScenario(
                    f"r(k)/N = {mean} outside domain ({domain.a}, {domain.b})")
        if setpoints and len(setpoints) != n_agents:
            raise InvalidScenario("setpoints must have one entry per agent")
        lo, hi = SETPOINT_RANGE_F
        if not all(lo <= v <= hi for v in setpoints):
            raise InvalidScenario(f"setpoints must lie in [{lo}, {hi}] degF")
        for when, agent, value in setpoint_changes:
            if not (0 <= when < horizon and 0 <= agent < n_agents):
                raise InvalidScenario(
                    f"setpoint change at step {when} for agent {agent}: need "
                    f"step in [0, {horizon}) and agent in [0, {n_agents})")
            if not lo <= value <= hi:
                raise InvalidScenario(
                    f"setpoint_changes: the new setpoint at step {when} for "
                    f"agent {agent} must lie in [{lo}, {hi}] degF, got {value!r}")
        if len(poles) != 3:
            raise InvalidScenario(
                f"poles must have exactly three entries, one per plant "
                f"state, got {len(poles)}")
        if not all(abs(pole) < 1.0 for pole in poles):
            raise InvalidScenario(
                f"poles must lie strictly inside the unit circle for a "
                f"stable closed loop, got {list(poles)}")
        if rounds_per_step < 1:
            raise InvalidScenario("rounds_per_step must be >= 1")
        if not (math.isfinite(ts_minutes) and ts_minutes > 0):
            raise InvalidScenario(
                f"ts_minutes must be a finite number > 0, got {ts_minutes!r}")
        if seed < 0:
            raise InvalidScenario(f"seed must be >= 0, got {seed}")
        self.n_agents, self.horizon, self.domain = n_agents, horizon, domain
        self.density, self.seed, self.disturbance = density, seed, disturbance
        self.power_schedule = tuple(float(r) for r in power_schedule)
        self.setpoints, self.setpoint_changes = setpoints, setpoint_changes
        self.rounds_per_step, self.ts_minutes = rounds_per_step, ts_minutes
        self.poles = poles

    def replace(self, **changes) -> "Scenario":
        """A copy with ``changes`` applied, checked again by the constructor."""
        return type(self)(**{n: getattr(self, n) for n in self.__slots__} | changes)

    @classmethod
    def from_config(cls, obj: dict) -> "Scenario":
        if not isinstance(obj, dict):
            raise InvalidScenario(
                f"a scenario must be a JSON object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - set(_FROM_CONFIG))
        if unknown:
            raise InvalidScenario(f"unknown scenario keys: {', '.join(unknown)}")
        values = {}
        for name, read in _FROM_CONFIG.items():
            if name not in obj:
                if name in _REQUIRED:
                    raise InvalidScenario(f"missing required key {name!r}")
                continue
            try:
                values[name] = read(obj[name])
            except (TypeError, ValueError) as exc:
                raise InvalidScenario(f"{name}: {exc}") from exc
        return cls(**values)

    @classmethod
    def from_json(cls, path) -> "Scenario":
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh, object_pairs_hook=_unique_keys)
        except (UnicodeDecodeError, json.JSONDecodeError,
                InvalidParameterValue) as exc:
            raise InvalidScenario(f"config {str(path)!r}: {exc}") from exc
        return cls.from_config(obj)


class SimState:
    """The fleet between steps.  ``gains`` holds the controller arrays
    stacked by agent (K_fb (N, 3), N_r (N,), K_w (N, 2)), ``setpoints``
    each step's setpoint per agent (horizon, N), ``X`` the plant states
    (N, 3), ``disturbances`` each step's (horizon, 2) and ``models`` each
    agent's DiscreteModel, a view of the fleet's one stacked
    discretization; the plant steps one agent at a time."""

    __slots__ = ("scenario", "alloc", "models", "gains", "X", "disturbances",
                 "setpoints")

    def __init__(self, scenario: Scenario, alloc: AllocationState,
                 models: list, gains: th.ControllerGains, X: np.ndarray,
                 disturbances: np.ndarray, setpoints: np.ndarray):
        self.scenario, self.alloc, self.models, self.gains = (
            scenario, alloc, models, gains)
        self.X, self.disturbances, self.setpoints = X, disturbances, setpoints


def _blocks(steps: int, width: int) -> list:
    """(start, stop) of each block of steps, ``width`` values a step: about
    ``_BLOCK`` values and at least one step a block, one % call each."""
    per = max(1, _BLOCK // width)
    return [(s, min(s + per, steps)) for s in range(0, steps, per)]


def _texts(values: np.ndarray) -> list:
    """One comma-joined ``_FMT`` text per row of the 2-D ``values``."""
    row = ",".join([_FMT] * values.shape[1])
    texts = []
    for s, e in _blocks(*values.shape):
        texts += ("\n".join([row] * (e - s))
                  % tuple(values[s:e].ravel().tolist())).split("\n")
    return texts


def _applied(desired, z):
    """z with the controller's sign: + where desired >= 0, - elsewhere."""
    return np.where(desired >= 0, 1.0, -1.0) * z


class TraceLog:
    """Columnar trace of what each step decides, one entry per step.

    ``z``, the signed ``desired``, ``temp_F`` and ``setpoints`` hold one
    (N,) array per step, indexed by agent, ``order`` each step's line graph,
    ``r`` one float and ``swaps`` one (S, 2) int array per step: the
    (proposer, target) pairs its civility rounds returned, in execution
    order.  The four properties below stack what they derive from these,
    (H, N) or (H,) for H steps, on each read.  Each column starts empty;
    ``phase_s`` sums the wall seconds of each step phase, ``initialize_s``
    those of :func:`initialize` in :func:`run` and ``write_phase_s`` those
    of :func:`write_outputs`; only :func:`diagnostics` reads them.

    Its three writers format each value of ``z``, ``applied_power`` and
    ``temp_F`` through one memo, :meth:`rows`, so each is formatted once,
    and make every text a block of steps (:func:`_blocks`) per % call
    (:func:`_texts`), so the cost is each value's ``%.15g``, not a call
    and a template per step and column: the benchmark's shipped ``write``
    unit went from 9.7 to 7.4 ms, fleet-240's from 83.8 to 74.8 ms.
    """

    __slots__ = ("n_agents", "z", "desired", "temp_F", "setpoints", "order",
                 "r", "swaps", "phase_s", "initialize_s", "write_phase_s",
                 "_memo")

    def __init__(self, n_agents: int, initialize_s: float = 0.0):
        self.n_agents, self.initialize_s, self._memo = (
            n_agents, initialize_s, (-1,))
        (self.z, self.desired, self.temp_F, self.setpoints, self.order,
         self.r, self.swaps) = ([] for _ in range(7))
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self.write_phase_s = {}

    def _stack(self, column: list) -> np.ndarray:  # (0, N) for no steps
        return (np.concatenate(column) if column else np.empty(0)).reshape(
            -1, self.n_agents)

    def _sums(self, z: np.ndarray) -> tuple:  # sum_z, constraint_error
        sum_z = _left_sum(z)
        return sum_z, np.abs(sum_z - self.r)

    desired_abs = property(lambda t: np.abs(t._stack(t.desired)))
    applied_power = property(
        lambda t: _applied(t._stack(t.desired), t._stack(t.z)))
    sum_z = property(lambda t: t._sums(t._stack(t.z))[0])
    constraint_error = property(lambda t: t._sums(t._stack(t.z))[1])

    def rows(self) -> tuple:
        """(z, applied_power, temp_F) text: one comma-joined ``_FMT`` string
        per step in each, rebuilt when the number of steps changes; z and
        applied power (±z) share one |z| text and get a '-' where the sign
        bit is set and the value is not NaN, as ``%.15g`` prints ±0, ±inf
        and NaN, in the steps that hold one."""
        if self._memo[0] != len(self.r):
            z = self._stack(self.z)
            text = _texts(np.abs(z))
            signed = []
            for values in (z, _applied(self._stack(self.desired), z)):
                negative = np.signbit(values) & ~np.isnan(values)
                rows = list(text)
                for k in np.flatnonzero(negative.any(axis=1)).tolist():
                    rows[k] = ",".join([
                        f"-{v}" if neg else v
                        for v, neg in zip(text[k].split(","),
                                          negative[k].tolist())])
                signed.append(rows)
            self._memo = (len(self.r), *signed,
                          _texts(self._stack(self.temp_F)))
        return self._memo[1:]

    def write_trace_csv(self, path) -> None:
        """One row per step and agent, one comma join per block over six
        texts a row: the memo's, the desired magnitudes' and, first, the
        text that ends the row before (``sum_z,r,constraint_error`` and a
        newline; the header's own names before step 0) and starts its own
        (``k``)."""
        n = self.n_agents
        z_rows, power_rows, temp_rows = self.rows()
        desired = self.desired_abs
        sum_z, error = self._sums(self._stack(self.z))
        tails = ["sum_z,r,constraint_error",
                 *_texts(np.column_stack([sum_z, self.r, error]))]
        names = [str(i) for i in range(n)]
        with open(path, "w", newline="") as fh:
            fh.write("step,agent,z,desired_abs,applied_power,temp_F")
            for s, e in _blocks(len(z_rows), n):
                texts = [None] * (6 * n * (e - s))
                starts = []
                for k in range(s, e):
                    starts.append(f"{tails[k]}\n{k}")
                    starts += [f"{tails[k + 1]}\n{k}"] * (n - 1)
                texts[0::6] = starts
                texts[1::6] = names * (e - s)
                for j, rows in ((2, z_rows[s:e]), (3, _texts(desired[s:e])),
                                (4, power_rows[s:e]), (5, temp_rows[s:e])):
                    texts[j::6] = ",".join(rows).split(",")
                fh.write(",")
                fh.write(",".join(texts))
            fh.write(f",{tails[-1]}\n")

    def write_swaps_csv(self, path) -> None:
        """One row per swap, one template per block.  A step's swaps,
        undone last first on the memo's z text, give each pair the texts it
        held before its swap."""
        z_rows = self.rows()[0]
        names = [str(i) for i in range(self.n_agents)]
        with open(path, "w", newline="") as fh:
            fh.write("step,proposer,target,z_proposer_before,z_target_before\n")
            for s, e in _blocks(len(z_rows), self.n_agents):
                values = []  # each row backwards, last row first
                for k in reversed(range(s, e)):
                    text = z_rows[k].split(",")
                    for p, q in reversed(self.swaps[k].tolist()):
                        text[p], text[q] = text[q], text[p]
                        values += (text[q], text[p], names[q], names[p], k)
                values.reverse()
                fh.write("%d,%s,%s,%s,%s\n" * (len(values) // 5)
                         % tuple(values))

    def write_plot_data(self, out) -> None:
        """Plot data in directory ``out``: applied powers, total vs
        available, temperatures; the per-agent files write the memo's text,
        the totals add |z|, |applied power|."""
        _, power_rows, temp_rows = self.rows()
        totals = _left_sum(np.abs(self._stack(self.z)))
        agent_cols = ",".join(f"agent_{i}" for i in range(self.n_agents))
        for name, header, rows in (
                ("powers.csv", f"step,{agent_cols}", power_rows),
                ("temperatures.csv", f"step,{agent_cols}", temp_rows),
                ("total_power.csv", "step,total_consumed,available",
                 _texts(np.column_stack([totals, self.r])))):
            with open(out / name, "w", newline="") as fh:
                fh.write(f"{header}\n")
                fh.writelines(f"{k},{row}\n" for k, row in enumerate(rows))


class MetricsReport:
    """A run's aggregate metrics, ``neighbor_coverage`` per agent the
    distinct neighbors ever; :meth:`to_dict` gives metrics.json's object,
    its keys in this order."""

    __slots__ = ("l2_power_error", "mean_swaps_per_agent",
                 "neighbor_coverage", "temperature_rms_error", "total_swaps")

    def __init__(self, l2_power_error: float, mean_swaps_per_agent: float,
                 neighbor_coverage: tuple, temperature_rms_error: float,
                 total_swaps: int):
        self.l2_power_error = l2_power_error
        self.mean_swaps_per_agent = mean_swaps_per_agent
        self.neighbor_coverage = neighbor_coverage
        self.temperature_rms_error = temperature_rms_error
        self.total_swaps = total_swaps

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["neighbor_coverage"] = {
            str(i): v for i, v in enumerate(self.neighbor_coverage)}
        return out


def _build_disturbances(sc: Scenario) -> np.ndarray:
    if sc.disturbance == "synthetic":
        return th.synthetic_disturbance(sc.horizon, sc.ts_minutes)
    return th.load_disturbance_csv(sc.disturbance, sc.horizon, sc.ts_minutes)


def initialize(sc: Scenario) -> SimState:
    """Solve the static allocation for r(0), build the seeded fleet and its
    setpoint table, and assign the sorted centroids to agents in id order.
    Logs one DEBUG record with N, the horizon and the static solve's Newton
    iterations and residual."""
    problem = sa.StaticProblem(domain=sc.domain, n_agents=sc.n_agents,
                               density=sc.density, r=sc.power_schedule[0])
    sol = sa.solve(problem)
    logger.debug("N = %d, horizon %d: static solve took %d Newton "
                 "iterations, residual %.3g", sc.n_agents, sc.horizon,
                 sol.iterations, sol.residual_norm)

    alloc = AllocationState(resources=sol.centroids,
                            r_current=sc.power_schedule[0],
                            mu_current=sol.v_k)

    disturbances = _build_disturbances(sc)
    setpoints = np.array(sc.setpoints or (72.0,) * sc.n_agents, dtype=float)
    models, gains, X = _build_fleet(sc, disturbances, setpoints)
    # A change holds from its step on; changes apply in step order (a
    # stable sort), so at one step the last-listed change for an agent wins.
    table = np.tile(setpoints, (sc.horizon, 1))
    for when, agent, value in sorted(sc.setpoint_changes, key=lambda c: c[0]):
        table[when:, agent] = value
    return SimState(scenario=sc, alloc=alloc, models=models, gains=gains,
                    X=X, disturbances=disturbances, setpoints=table)


def _build_fleet(sc: Scenario, disturbances: np.ndarray, setpoints):
    """Seeded plant models, and the gains and plant states stacked by agent,
    each plant started at the steady state consistent with the initial
    disturbance and its agent's configured setpoint.  Agent i draws its
    parameters from seed * 100003 + i, a Python int however large the seed;
    the draw, the model, discretization, pole placement and equilibrium
    each run once for the whole fleet."""
    first = sc.seed * 100_003
    params = th.sample_parameters(range(first, first + sc.n_agents))
    fleet = th.discretize_zoh(th.build_continuous_model(params), sc.ts_minutes)
    if not all(np.isfinite(m).all() for m in (fleet.Ad, fleet.Bd, fleet.Gd)):
        raise InvalidScenario(
            f"ts_minutes: the plant discretization at {sc.ts_minutes!r} "
            f"minutes is not finite")
    try:
        gains = th.design_controller(fleet, sc.poles)
    except Uncontrollable as exc:
        raise InvalidScenario(
            f"ts_minutes: the plant sampled every {sc.ts_minutes!r} minutes "
            f"cannot be controlled ({exc})") from exc
    X, _ = th.equilibrium_state(fleet, disturbances[0], setpoints)
    models = [th.DiscreteModel(Ad=Ad, Bd=Bd, Gd=Gd, Ts=fleet.Ts)
              for Ad, Bd, Gd in zip(fleet.Ad, fleet.Bd, fleet.Gd)]
    return models, gains, X


def _step_plants(X, applied, w, models) -> np.ndarray:
    """Every agent's plant one step on: the states stacked again."""
    return np.array([th.step_plant(x, u, w, dm)[0]
                     for x, u, dm in zip(X, applied.tolist(), models)])


def step(st: SimState, k: int, trace: TraceLog) -> SimState:
    """Advance one time step; replaces the state's arrays and returns st.
    A step k outside [0, horizon) or other than the trace's next, or a
    trace of another fleet size, raises ValueError before anything changes."""
    sc = st.scenario
    if not 0 <= k < sc.horizon:
        raise ValueError(f"step {k} outside [0, {sc.horizon})")
    if trace.n_agents != sc.n_agents:
        raise ValueError(f"a trace of {trace.n_agents} agents cannot record "
                         f"a fleet of {sc.n_agents}")
    if k != len(trace.r):
        raise ValueError(f"step {k} is not the trace's next, {len(trace.r)}")
    t0 = time.perf_counter()

    # Phase 1: shift resources to the new total.
    r_new = sc.power_schedule[k]
    z = dyn.one_step_update(st.alloc.resources, st.alloc.r_current, r_new)
    mu = dyn.shifted_mean(st.alloc.mu_current, st.alloc.r_current, r_new,
                          sc.n_agents)
    alloc = AllocationState(resources=z, r_current=r_new, mu_current=mu)
    t1 = time.perf_counter()

    # Phase 2: local control toward this step's setpoints from the current
    # plant states, disturbance feedforward included so the magnitude
    # reflects the actual requirement.
    setpoints = st.setpoints[k]
    w = st.disturbances[k]
    desired = th.desired_power(st.gains, st.X, setpoints, w)
    desired_abs = np.abs(desired)
    t2 = time.perf_counter()

    # Phase 3: civility negotiation rounds on desired magnitudes.
    swaps = []
    for _ in range(sc.rounds_per_step):
        alloc, pairs = dyn.negotiate_round(alloc, desired_abs)
        swaps.append(pairs)
    t3 = time.perf_counter()

    # Phase 4: apply the allocated magnitude with the controller's sign.
    applied = _applied(desired, alloc.resources)
    st.X = _step_plants(st.X, applied, w, st.models)
    t4 = time.perf_counter()

    trace.z.append(alloc.resources)
    trace.desired.append(desired)
    trace.temp_F.append(st.X[:, 0].copy())
    trace.setpoints.append(setpoints)
    trace.order.append(alloc.order)
    trace.r.append(r_new)
    trace.swaps.append(swaps[0] if len(swaps) == 1 else np.concatenate(swaps))
    phase_s = trace.phase_s
    phase_s["shift"] += t1 - t0
    phase_s["control"] += t2 - t1
    phase_s["negotiate"] += t3 - t2
    phase_s["plant"] += t4 - t3
    phase_s["trace"] += time.perf_counter() - t4

    st.alloc = alloc
    return st


def run(sc: Scenario) -> TraceLog:
    """Initialize and execute the full horizon; deterministic per seed."""
    t0 = time.perf_counter()
    st = initialize(sc)
    trace = TraceLog(n_agents=sc.n_agents,
                     initialize_s=time.perf_counter() - t0)
    for k in range(sc.horizon):
        step(st, k, trace)
    return trace


def _left_sum(x: np.ndarray):
    """Sums along the last axis, each bit for bit the loop that adds a row
    left to right to the integer 0, as Python's ``sum(row)`` does over its
    NumPy scalars.  ``np.add.accumulate`` adds left to right (``np.sum``'s
    pairwise order would change the digits written); ``+ 0.0`` is the
    integer start: first or last, it changes only the sign of a sum of
    ``-0.0`` alone, which it makes ``+0.0``.  Rows must not be empty."""
    return np.add.accumulate(x, axis=-1)[..., -1] + 0.0


def _sum_of_squares(x: np.ndarray) -> float:
    """The sum of x ** 2 over a non-empty array, bit for bit the Python loop
    ``sum(v ** 2 for v in x)`` before 3.12: ``np.float_power`` with an array
    exponent calls libm ``pow`` as Python's ** does (``np.power`` may
    square or take a vector pow instead), summed by :func:`_left_sum`."""
    return _left_sum(np.float_power(x, np.full_like(x, 2.0)))


def metrics(t: TraceLog) -> MetricsReport:
    """Aggregate power tracking, swap activity, neighbor coverage, and
    temperature regulation quality."""
    if not t.r:
        raise ValueError("empty trace")
    l2 = math.sqrt(_sum_of_squares(t.constraint_error))
    total_swaps = sum(len(s) for s in t.swaps)
    mean_swaps = 2 * total_swaps / t.n_agents

    # Distinct line-graph neighbors ever seen: the agents at adjacent
    # positions of each step's resource order, as directed pairs a * n + b,
    # sorted, each counted at its first occurrence.
    n = t.n_agents
    order = t._stack(t.order)
    a, b = order[:, :-1].ravel(), order[:, 1:].ravel()
    pairs = np.sort(np.concatenate([a * n + b, b * n + a]))
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    coverage = tuple(np.bincount(pairs[first] // n, minlength=n).tolist())

    sq_err = _sum_of_squares(
        np.ravel(t._stack(t.temp_F) - t._stack(t.setpoints)))
    rms = math.sqrt(sq_err / (len(t.r) * n))

    return MetricsReport(l2_power_error=l2, mean_swaps_per_agent=mean_swaps,
                         neighbor_coverage=coverage,
                         temperature_rms_error=rms,
                         total_swaps=total_swaps)


def diagnostics(t: TraceLog, domain: Domain1D) -> dict:
    """Why a run took as long as it did and how it ended: wall seconds of
    the set-up and of each step phase, swaps per step, the largest
    constraint error and the resources outside the domain per step, where
    the one-step shift has left the paper's premise.  The wall times differ
    from run to run; the deterministic files never hold them."""
    if not t.r:
        raise ValueError("empty trace")
    swaps = [len(s) for s in t.swaps]
    z = t._stack(t.z)
    inside = (z >= domain.a) & (z <= domain.b)
    return {
        "steps": len(t.r),
        "n_agents": t.n_agents,
        "initialize_s": t.initialize_s,
        "phase_s": dict(t.phase_s),
        "write_phase_s": dict(t.write_phase_s),
        "swaps_per_step": swaps,
        "total_swaps": sum(swaps),
        "max_constraint_error": float(t._sums(z)[1].max()),
        "outside_domain_per_step": np.count_nonzero(~inside, axis=1).tolist(),
    }


def write_outputs(trace: TraceLog, out) -> MetricsReport:
    """Write the six ``dynamic-sim`` files in ``out``; returns the metrics
    and records in ``trace.write_phase_s`` the wall seconds of each of
    ``WRITE_PARTS``: ``metrics``, each file (``trace.csv``'s includes the
    text memo, which ``swaps.csv`` and the plot files read too) and the
    three plot files together."""
    t0 = time.perf_counter()
    report = metrics(trace)
    out.mkdir(parents=True, exist_ok=True)
    t1 = time.perf_counter()
    trace.write_trace_csv(out / "trace.csv")
    t2 = time.perf_counter()
    trace.write_swaps_csv(out / "swaps.csv")
    t3 = time.perf_counter()
    with open(out / "metrics.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    t4 = time.perf_counter()
    trace.write_plot_data(out)
    trace.write_phase_s = dict(zip(WRITE_PARTS, np.diff(
        [t0, t1, t2, t3, t4, time.perf_counter()]).tolist()))
    return report
