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
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import dynamic_alloc as dyn
from . import static_alloc as sa
from . import thermal as th
from .density import DensitySpec, _unique_keys
from .dynamic_alloc import AllocationState
from .errors import InvalidParameterValue, InvalidScenario, Uncontrollable
from .tessellation import Domain1D

__all__ = ["Scenario", "SimState", "TraceLog", "MetricsReport", "initialize",
           "step", "run", "metrics", "diagnostics", "write_outputs"]

_FMT = "%.15g"  # numeric CSV formatting, 15 significant digits
# Absolute zero to far above any building's: squared errors stay finite.
SETPOINT_RANGE_F = (-459.67, 1000.0)
# The parts of a step whose wall time TraceLog.phase_s sums.
PHASES = ("shift", "control", "negotiate", "plant", "trace")

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


# How Scenario.from_config reads each config field; a TypeError or
# ValueError from one becomes an InvalidScenario naming the field.
_FROM_CONFIG = {
    "n_agents": _integer, "horizon": _integer, "seed": _integer,
    "rounds_per_step": _integer, "ts_minutes": _number, "disturbance": _string,
    "domain": lambda v: Domain1D(*_floats(v)),
    "density": DensitySpec.from_config,
    "power_schedule": _floats, "setpoints": _floats, "poles": _floats,
    "setpoint_changes": lambda v: tuple(
        (_integer(s), _integer(a), _number(x)) for s, a, x in v),
}


@dataclass(frozen=True)
class Scenario:
    """Configuration of one demand-response run."""

    n_agents: int
    horizon: int
    domain: Domain1D
    density: DensitySpec          # gaussian with free mu
    power_schedule: tuple         # r(k), one entry per step
    seed: int = 0
    disturbance: str = "synthetic"   # or a CSV path
    setpoints: tuple = ()            # per-agent degF; empty -> all 72
    setpoint_changes: tuple = ()     # (step, agent, new_setpoint) triples
    rounds_per_step: int = 1
    ts_minutes: float = th.DEFAULT_TS_MINUTES
    poles: tuple = th.DEFAULT_POLES

    def __post_init__(self):
        if self.n_agents < 1 or self.horizon < 1:
            raise InvalidScenario("n_agents and horizon must be >= 1")
        if self.horizon != len(self.power_schedule):
            raise InvalidScenario("horizon must equal len(power_schedule)")
        if self.density.family != "gaussian" or self.density.free_param != "mu":
            raise InvalidScenario("scenario density must be gaussian with free mu")
        for r in self.power_schedule:
            mean = r / self.n_agents
            if not (self.domain.a < mean < self.domain.b):
                raise InvalidScenario(
                    f"r(k)/N = {mean} outside domain ({self.domain.a}, {self.domain.b})")
        if self.setpoints and len(self.setpoints) != self.n_agents:
            raise InvalidScenario("setpoints must have one entry per agent")
        lo, hi = SETPOINT_RANGE_F
        if not all(lo <= v <= hi for v in self.setpoints):
            raise InvalidScenario(f"setpoints must lie in [{lo}, {hi}] degF")
        for when, agent, value in self.setpoint_changes:
            if not (0 <= when < self.horizon and 0 <= agent < self.n_agents):
                raise InvalidScenario(
                    f"setpoint change at step {when} for agent {agent}: need "
                    f"step in [0, {self.horizon}) and agent in [0, {self.n_agents})")
            if not lo <= value <= hi:
                raise InvalidScenario(
                    f"setpoint_changes: the new setpoint at step {when} for "
                    f"agent {agent} must lie in [{lo}, {hi}] degF, got {value!r}")
        if len(self.poles) != 3:
            raise InvalidScenario(
                f"poles must have exactly three entries, one per plant "
                f"state, got {len(self.poles)}")
        if not all(abs(pole) < 1.0 for pole in self.poles):
            raise InvalidScenario(
                f"poles must lie strictly inside the unit circle for a "
                f"stable closed loop, got {list(self.poles)}")
        if self.rounds_per_step < 1:
            raise InvalidScenario("rounds_per_step must be >= 1")
        if not (math.isfinite(self.ts_minutes) and self.ts_minutes > 0):
            raise InvalidScenario(
                f"ts_minutes must be a finite number > 0, got {self.ts_minutes!r}")
        if self.seed < 0:
            raise InvalidScenario(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "power_schedule",
                           tuple(float(r) for r in self.power_schedule))

    @classmethod
    def from_config(cls, obj: dict) -> "Scenario":
        if not isinstance(obj, dict):
            raise InvalidScenario(
                f"a scenario must be a JSON object, got {type(obj).__name__}")
        unknown = sorted(set(obj) - set(_FROM_CONFIG))
        if unknown:
            raise InvalidScenario(f"unknown scenario keys: {', '.join(unknown)}")
        values = {}
        for f in fields(cls):
            if f.name not in obj:
                if f.default is MISSING:
                    raise InvalidScenario(f"missing required key {f.name!r}")
                continue
            try:
                values[f.name] = _FROM_CONFIG[f.name](obj[f.name])
            except (TypeError, ValueError) as exc:
                raise InvalidScenario(f"{f.name}: {exc}") from exc
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


@dataclass
class SimState:
    """The fleet between steps.  ``gains`` holds the controller arrays
    stacked by agent (K_fb (N, 3), N_r (N,), K_w (N, 2)), ``setpoints``
    each step's setpoint per agent (horizon, N), ``X`` the plant states
    (N, 3) and ``models`` each agent's DiscreteModel, a view of the fleet's
    one stacked discretization; the plant steps one agent at a time."""

    scenario: Scenario
    alloc: AllocationState
    models: list
    gains: th.ControllerGains
    X: np.ndarray
    disturbances: np.ndarray   # (horizon, 2)
    setpoints: np.ndarray      # (horizon, N)


def _signed(text: str, values: np.ndarray) -> str:
    """``text``, the comma-joined formatted magnitudes of ``values``, with a
    '-' before each entry whose sign bit is set and that is not NaN: the
    text of ``values`` itself, as ``%.15g`` prints ±0, ±inf and NaN too."""
    negative = np.signbit(values) & ~np.isnan(values)
    if not negative.any():
        return text
    return ",".join([f"-{v}" if neg else v
                     for v, neg in zip(text.split(","), negative.tolist())])


def _applied(desired, z):
    """z with the controller's sign: + where desired >= 0, - elsewhere."""
    return np.where(desired >= 0, 1.0, -1.0) * z


@dataclass
class TraceLog:
    """Columnar trace of what each step decides, one entry per step.

    ``z``, the signed ``desired``, ``temp_F`` and ``setpoints`` hold one
    (N,) array per step, indexed by agent, ``order`` each step's line graph,
    ``r`` one float and ``swaps`` one (S, 4) array per step, a row per swap
    in execution order: proposer, target and their resources before the
    round, agent ids stored as floats; the four properties below stack what
    they derive from these on each read.  ``phase_s`` sums the wall seconds of
    each step phase and ``initialize_s`` those of :func:`initialize` in
    :func:`run`; only :func:`diagnostics` reads them, not the output files.

    Its three writers format each value of ``z``, ``applied_power`` and
    ``temp_F`` through one memo, :meth:`rows`, so each is formatted once.
    """

    n_agents: int
    z: list = field(default_factory=list)
    desired: list = field(default_factory=list)
    temp_F: list = field(default_factory=list)
    setpoints: list = field(default_factory=list)
    order: list = field(default_factory=list)
    r: list = field(default_factory=list)
    swaps: list = field(default_factory=list)
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    initialize_s: float = 0.0
    _memo: tuple = field(default=(-1,), init=False, repr=False, compare=False)

    desired_abs = property(lambda t: np.abs(t.desired))
    applied_power = property(lambda t: _applied(np.asarray(t.desired), t.z))
    sum_z = property(lambda t: _left_sum(np.reshape(t.z, (-1, t.n_agents))))
    constraint_error = property(lambda t: np.abs(t.sum_z - t.r))

    def rows(self) -> tuple:
        """(z, applied_power, temp_F) text: one comma-joined ``_FMT`` string
        per step in each, rebuilt when the number of steps changes; z and
        applied power (±z) share one |z| text, signed by :func:`_signed`."""
        if self._memo[0] != len(self.r):
            row = ",".join([_FMT] * self.n_agents)
            z_rows, power_rows, temp_rows = [], [], []
            for z, applied, temp in zip(self.z, self.applied_power, self.temp_F):
                text = row % tuple(np.abs(z).tolist())
                z_rows.append(_signed(text, z))
                power_rows.append(_signed(text, applied))
                temp_rows.append(row % tuple(temp.tolist()))
            self._memo = (len(self.r), z_rows, power_rows, temp_rows)
        return self._memo[1:]

    def write_trace_csv(self, path) -> None:
        """One row per step and agent; each step is one template filled
        from the agent index, the memo's z, applied power and temperature
        text and the formatted desired magnitude, interleaved."""
        header = ("step,agent,z,desired_abs,applied_power,temp_F,"
                  "sum_z,r,constraint_error\n")
        n = self.n_agents
        values = [None] * (5 * n)
        values[0::5] = range(n)
        with open(path, "w", newline="") as fh:
            fh.write(header)
            for k, (z, power, temp, desired, *step_info) in enumerate(zip(
                    *self.rows(), self.desired_abs, self.sum_z, self.r,
                    self.constraint_error)):
                tail = ",".join(_FMT % v for v in step_info)
                values[1::5] = z.split(",")
                values[2::5] = desired.tolist()
                values[3::5] = power.split(",")
                values[4::5] = temp.split(",")
                row = f"{k},%d,%s,{_FMT},%s,%s,{tail}\n"
                fh.write(row * n % tuple(values))

    def write_swaps_csv(self, path) -> None:
        """One row per swap; each step is one template over its rows.  A
        round only exchanges resources, so each resource before a swap is,
        bit for bit, one of the step's z values: its text is looked up in
        the memo by the value's bits."""
        z_rows = self.rows()[0]
        with open(path, "w", newline="") as fh:
            fh.write("step,proposer,target,z_proposer_before,z_target_before\n")
            for k, swaps in enumerate(self.swaps):
                text = dict(zip(self.z[k].view(np.int64).tolist(),
                                z_rows[k].split(",")))
                agents = swaps[:, :2].astype(np.int64).ravel().tolist()
                before = [text[b] for b in
                          swaps[:, 2:].ravel().view(np.int64).tolist()]
                values = [None] * (4 * len(swaps))
                values[0::4], values[1::4] = agents[0::2], agents[1::2]
                values[2::4], values[3::4] = before[0::2], before[1::2]
                fh.write(f"{k},%d,%d,%s,%s\n" * len(swaps) % tuple(values))

    def write_plot_data(self, out) -> None:
        """Plot data in directory ``out``: applied powers, total vs
        available, temperatures; the per-agent files write the memo's text."""
        _, power_rows, temp_rows = self.rows()
        agent_cols = ",".join(f"agent_{i}" for i in range(self.n_agents))
        for name, rows in (("powers.csv", power_rows),
                           ("temperatures.csv", temp_rows)):
            with open(out / name, "w", newline="") as fh:
                fh.write(f"step,{agent_cols}\n")
                fh.write("".join([f"{k},{row}\n" for k, row in enumerate(rows)]))

        totals = _left_sum(np.abs(self.applied_power))
        values = np.column_stack([np.arange(totals.size), totals, self.r])
        with open(out / "total_power.csv", "w", newline="") as fh:
            fh.write("step,total_consumed,available\n")
            fh.write(f"%d,{_FMT},{_FMT}\n" * totals.size
                     % tuple(values.ravel().tolist()))


@dataclass(frozen=True)
class MetricsReport:
    l2_power_error: float
    mean_swaps_per_agent: float
    neighbor_coverage: tuple    # per agent, the distinct neighbors ever
    temperature_rms_error: float
    total_swaps: int

    def to_dict(self) -> dict:
        return {**asdict(self), "neighbor_coverage": {
            str(i): v for i, v in enumerate(self.neighbor_coverage)}}


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
    disturbance and its agent's configured setpoint.  Each agent draws its
    parameters from its own seed; the model, discretization, pole placement
    and equilibrium then run once for the whole fleet."""
    params = th.ThermalParams.stack(
        th.sample_parameters(sc.seed * 100_003 + i) for i in range(sc.n_agents))
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
        z_before = alloc.resources
        alloc, pairs = dyn.negotiate_round(alloc, desired_abs)
        swaps.append(np.concatenate([pairs, z_before[pairs]], axis=1))
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
    order = np.asarray(t.order)
    a, b = order[:, :-1].ravel(), order[:, 1:].ravel()
    pairs = np.sort(np.concatenate([a * n + b, b * n + a]))
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    coverage = tuple(np.bincount(pairs[first] // n, minlength=n).tolist())

    sq_err = _sum_of_squares(np.ravel(t.temp_F) - np.ravel(t.setpoints))
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
    inside = (np.asarray(t.z) >= domain.a) & (np.asarray(t.z) <= domain.b)
    return {
        "steps": len(t.r),
        "n_agents": t.n_agents,
        "initialize_s": t.initialize_s,
        "phase_s": dict(t.phase_s),
        "swaps_per_step": swaps,
        "total_swaps": sum(swaps),
        "max_constraint_error": float(t.constraint_error.max()),
        "outside_domain_per_step": np.count_nonzero(~inside, axis=1).tolist(),
    }


def write_outputs(trace: TraceLog, out) -> MetricsReport:
    """Write the six ``dynamic-sim`` files in ``out``; returns the metrics."""
    report = metrics(trace)
    out.mkdir(parents=True, exist_ok=True)
    trace.write_trace_csv(out / "trace.csv")
    trace.write_swaps_csv(out / "swaps.csv")
    with open(out / "metrics.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    trace.write_plot_data(out)
    return report
