"""Demand-response orchestration: static-allocation initialization, per-step
one-step updates, local control, civility negotiation, and plant stepping.

Each time step runs four phases in order: shift all resources to the new
total, compute each agent's desired power from its plant state, negotiate
swaps along the resource order using desired magnitudes, then apply the
allocated power (with the local controller's sign) to every plant.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import dynamic_alloc as dyn
from . import static_alloc as sa
from . import thermal as th
from .density import DensitySpec
from .dynamic_alloc import AllocationState
from .errors import InvalidScenario
from .tessellation import Domain1D

__all__ = ["Scenario", "SimState", "TraceLog", "MetricsReport",
           "initialize", "step", "run", "metrics"]

_FMT = "%.15g"  # numeric CSV formatting, 15 significant digits


def _integer(value) -> int:
    """An integral config number as an int; TypeError for anything else."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(values) -> tuple:
    if isinstance(values, str):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(float(v) for v in values)


# How Scenario.from_config reads each config field; a TypeError or
# ValueError from one becomes an InvalidScenario naming the field.
_FROM_CONFIG = {
    "n_agents": _integer, "horizon": _integer, "seed": _integer,
    "rounds_per_step": _integer, "ts_minutes": float, "disturbance": str,
    "domain": lambda v: Domain1D(*_floats(v)),
    "density": DensitySpec.from_config,
    "power_schedule": _floats, "setpoints": _floats, "poles": _floats,
    "setpoint_changes": lambda v: tuple(
        (_integer(s), _integer(a), float(x)) for s, a, x in v),
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
        if not all(math.isfinite(v) for v in self.setpoints):
            raise InvalidScenario("setpoints must be finite numbers")
        for when, agent, value in self.setpoint_changes:
            if not (0 <= when < self.horizon and 0 <= agent < self.n_agents):
                raise InvalidScenario(
                    f"setpoint change at step {when} for agent {agent}: need "
                    f"step in [0, {self.horizon}) and agent in [0, {self.n_agents})")
            if not math.isfinite(value):
                raise InvalidScenario(
                    f"setpoint_changes: the new setpoint at step {when} for "
                    f"agent {agent} must be a finite number, got {value!r}")
        if not all(abs(pole) < 1.0 for pole in self.poles):
            raise InvalidScenario(
                f"poles must lie strictly inside the unit circle for a "
                f"stable closed loop, got {list(self.poles)}")
        if self.rounds_per_step < 1:
            raise InvalidScenario("rounds_per_step must be >= 1")
        object.__setattr__(self, "power_schedule",
                           tuple(float(r) for r in self.power_schedule))

    @classmethod
    def from_config(cls, obj: dict) -> "Scenario":
        unknown = sorted(set(obj) - set(_FROM_CONFIG))
        if unknown:
            raise InvalidScenario(f"unknown scenario keys: {', '.join(unknown)}")
        values = {}
        for f in fields(cls):
            if f.name in obj or f.default is MISSING:
                try:
                    values[f.name] = _FROM_CONFIG[f.name](obj[f.name])
                except (TypeError, ValueError) as exc:
                    raise InvalidScenario(f"{f.name}: {exc}") from exc
        return cls(**values)

    @classmethod
    def from_json(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_config(json.load(fh))


@dataclass
class AgentPlant:
    model: th.DiscreteModel
    gains: th.ControllerGains
    x: np.ndarray


@dataclass
class SimState:
    scenario: Scenario
    alloc: AllocationState
    plants: list
    disturbances: np.ndarray   # (horizon, 2)
    k: int = 0

    def serialize(self) -> str:
        """Deterministic snapshot used by reproducibility checks."""
        payload = {
            "k": self.k,
            "resources": {str(i): _FMT % v
                          for i, v in enumerate(self.alloc.resources)},
            "mu": _FMT % self.alloc.mu_current,
            "r": _FMT % self.alloc.r_current,
            "states": [[_FMT % v for v in p.x] for p in self.plants],
        }
        return json.dumps(payload, sort_keys=True)


@dataclass
class TraceLog:
    """Columnar trace with one entry per step in every column.

    ``z``, ``desired_abs``, ``applied_power``, ``temp_F`` and ``setpoints``
    hold one (N,) array per step, indexed by agent; ``r``, ``sum_z`` and
    ``constraint_error`` one float per step.  Swap events are kept in
    execution order.
    """

    n_agents: int
    z: list = field(default_factory=list)
    desired_abs: list = field(default_factory=list)
    applied_power: list = field(default_factory=list)
    temp_F: list = field(default_factory=list)
    setpoints: list = field(default_factory=list)
    r: list = field(default_factory=list)
    sum_z: list = field(default_factory=list)
    constraint_error: list = field(default_factory=list)
    swap_events: list = field(default_factory=list)

    def write_trace_csv(self, path) -> None:
        header = ("step,agent,z,desired_abs,applied_power,temp_F,"
                  "sum_z,r,constraint_error\n")
        per_agent = [self.z, self.desired_abs, self.applied_power, self.temp_F]
        with open(path, "w", newline="") as fh:
            fh.write(header)
            for k, step_info in enumerate(zip(self.sum_z, self.r,
                                              self.constraint_error)):
                tail = ",".join(_FMT % v for v in step_info)
                columns = [col[k].tolist() for col in per_agent]
                for i, row in enumerate(zip(*columns)):
                    fh.write(f"{k},{i},{','.join(_FMT % v for v in row)},{tail}\n")

    def write_swaps_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("step,proposer,target,z_proposer_before,z_target_before\n")
            for ev in self.swap_events:
                fh.write(",".join([
                    str(ev.step), str(ev.proposer), str(ev.target),
                    _FMT % ev.z_before[0], _FMT % ev.z_before[1],
                ]) + "\n")


@dataclass(frozen=True)
class MetricsReport:
    l2_power_error: float
    mean_swaps_per_agent: float
    neighbor_coverage: dict     # agent -> number of distinct neighbors ever
    temperature_rms_error: float
    total_swaps: int

    def to_dict(self) -> dict:
        return {
            "l2_power_error": self.l2_power_error,
            "mean_swaps_per_agent": self.mean_swaps_per_agent,
            "neighbor_coverage": {str(k): v
                                  for k, v in sorted(self.neighbor_coverage.items())},
            "temperature_rms_error": self.temperature_rms_error,
            "total_swaps": self.total_swaps,
        }


def _build_disturbances(sc: Scenario) -> np.ndarray:
    if sc.disturbance == "synthetic":
        return th.synthetic_disturbance(sc.horizon, sc.ts_minutes)
    return th.load_disturbance_csv(sc.disturbance, sc.horizon, sc.ts_minutes)


def initialize(sc: Scenario) -> SimState:
    """Solve the static allocation for r(0), build seeded plants, and assign
    the sorted centroids to agents in id order."""
    problem = sa.StaticProblem(domain=sc.domain, n_agents=sc.n_agents,
                               density=sc.density, r=sc.power_schedule[0])
    sol = sa.solve(problem)

    alloc = AllocationState(resources=sol.centroids,
                            r_current=sc.power_schedule[0],
                            mu_current=sol.v_k, step=0)

    disturbances = _build_disturbances(sc)
    plants = _build_plants(sc, disturbances)
    return SimState(scenario=sc, alloc=alloc, plants=plants,
                    disturbances=disturbances, k=0)


def _build_plants(sc: Scenario, disturbances: np.ndarray) -> list:
    """Seeded per-agent plants, started at the steady state consistent with
    the initial disturbance and each agent's setpoint."""
    setpoints = sc.setpoints or (72.0,) * sc.n_agents
    plants = []
    for i in range(sc.n_agents):
        params = th.sample_parameters(sc.seed * 100_003 + i)
        dm = th.discretize_zoh(th.build_continuous_model(params), sc.ts_minutes)
        gains = th.design_controller(dm, sc.poles, setpoints[i])
        x0, _ = th.equilibrium_state(dm, disturbances[0], setpoints[i])
        plants.append(AgentPlant(model=dm, gains=gains, x=x0))
    return plants


def baseline_power_schedule(sc: Scenario, floor_per_agent: float = 50.0):
    """Total power the fleet would draw if every agent applied its own
    desired power (no allocation constraint): a demand forecast suitable as
    the scenario's r(k) schedule.

    sc.power_schedule is ignored here apart from its length; the returned
    tuple can be fed back into a new Scenario.
    """
    disturbances = _build_disturbances(sc)
    plants = _build_plants(sc, disturbances)
    totals = []
    for k in range(sc.horizon):
        w = disturbances[k]
        total = 0.0
        for plant in plants:
            u = th.desired_power(plant.gains, plant.x, w)
            plant.x, _ = th.step_plant(plant.x, u, w, plant.model)
            total += abs(u)
        totals.append(max(total, sc.n_agents * floor_per_agent))
    return tuple(totals)


def step(st: SimState, k: int, trace: TraceLog | None = None) -> SimState:
    """Advance one time step; mutates plant states in place and returns st."""
    sc = st.scenario
    if k >= sc.horizon:
        raise ValueError(f"step {k} beyond horizon {sc.horizon}")

    for (when, agent, new_sp) in sc.setpoint_changes:
        if when == k:
            plant = st.plants[agent]
            plant.gains = replace(plant.gains, setpoint=float(new_sp))

    # Phase 1: shift resources to the new total.
    r_new = sc.power_schedule[k]
    z = dyn.one_step_update(st.alloc.resources, st.alloc.r_current, r_new)
    mu = dyn.shifted_mean(st.alloc.mu_current, st.alloc.r_current, r_new,
                          sc.n_agents)
    alloc = AllocationState(resources=z, r_current=r_new, mu_current=mu,
                            step=k)

    # Phase 2: local control from current plant states, disturbance
    # feedforward included so the magnitude reflects the actual requirement.
    w = st.disturbances[k]
    desired = np.array([th.desired_power(p.gains, p.x, w) for p in st.plants])
    desired_abs = np.abs(desired)

    # Phase 3: civility negotiation rounds on desired magnitudes.
    events = []
    for _ in range(sc.rounds_per_step):
        alloc, round_events = dyn.negotiate_round(alloc, desired_abs)
        events.extend(round_events)

    # Phase 4: apply the allocated magnitude with the controller's sign.
    applied = np.where(desired >= 0, 1.0, -1.0) * alloc.resources
    temps = np.empty(sc.n_agents)
    for i, (plant, power) in enumerate(zip(st.plants, applied.tolist())):
        plant.x, temps[i] = th.step_plant(plant.x, power, w, plant.model)

    if trace is not None:
        # Python's sum adds NumPy scalars left to right; np.sum's
        # pairwise order would change the digits written.
        sum_z = float(sum(alloc.resources))
        trace.z.append(alloc.resources)
        trace.desired_abs.append(desired_abs)
        trace.applied_power.append(applied)
        trace.temp_F.append(temps)
        trace.setpoints.append(np.array([p.gains.setpoint for p in st.plants]))
        trace.r.append(r_new)
        trace.sum_z.append(sum_z)
        trace.constraint_error.append(abs(sum_z - r_new))
        trace.swap_events.extend(events)

    st.alloc = alloc
    st.k = k + 1
    return st


def run(sc: Scenario) -> TraceLog:
    """Initialize and execute the full horizon; deterministic per seed."""
    st = initialize(sc)
    trace = TraceLog(n_agents=sc.n_agents)
    for k in range(sc.horizon):
        step(st, k, trace)
    return trace


def metrics(t: TraceLog) -> MetricsReport:
    """Aggregate power tracking, swap activity, neighbor coverage, and
    temperature regulation quality."""
    if not t.r:
        raise ValueError("empty trace")
    l2 = math.sqrt(sum(e ** 2 for e in t.constraint_error))
    mean_swaps = 2 * len(t.swap_events) / t.n_agents

    # Distinct line-graph neighbors ever seen: the agents at adjacent
    # positions of each step's resource order, as directed pairs a * n + b.
    n = t.n_agents
    order = np.argsort(np.asarray(t.z), axis=1, kind="stable")
    a, b = order[:, :-1].ravel(), order[:, 1:].ravel()
    pairs = np.unique(np.concatenate([a * n + b, b * n + a]))
    coverage = dict(enumerate(np.bincount(pairs // n, minlength=n).tolist()))

    sq_err = 0.0
    for y, setpoint in zip(np.ravel(t.temp_F).tolist(),
                           np.ravel(t.setpoints).tolist()):
        sq_err += (y - setpoint) ** 2
    rms = math.sqrt(sq_err / (len(t.r) * n))

    return MetricsReport(l2_power_error=l2, mean_swaps_per_agent=mean_swaps,
                         neighbor_coverage=coverage,
                         temperature_rms_error=rms,
                         total_swaps=len(t.swap_events))
