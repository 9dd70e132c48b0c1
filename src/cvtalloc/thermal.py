"""Three-state RC building/HVAC plant: parameter sampling, state-space
assembly, exact zero-order-hold discretization, and local pole-placement
state feedback with reference feedforward.

The model, discretization, pole placement, equilibrium and control law
take one agent, or a fleet stacked by agent.  One agent's float
parameters give A (3, 3) and a float N_r; a fleet's (N,) parameter arrays
give the same arrays with a leading agent axis, each computed by one
stacked call, and every agent's entries are bit for bit those of its own
one-agent call.  ``step_plant`` steps one agent.

State x = (indoor air, interior mass, envelope) temperatures; input u is the
signed HVAC power (positive heating, negative cooling); disturbances
w = (outdoor temperature, solar radiation).  Temperatures are degrees F
throughout, time is seconds internally with sample times given in minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InvalidScenario, NonHurwitz, Uncontrollable

__all__ = [
    "ThermalParams",
    "ContinuousModel",
    "DiscreteModel",
    "ControllerGains",
    "sample_parameters",
    "build_continuous_model",
    "discretize_zoh",
    "design_controller",
    "step_plant",
    "desired_power",
    "synthetic_disturbance",
    "load_disturbance_csv",
    "DEFAULT_POLES",
    "DEFAULT_TS_MINUTES",
]

# ThermalParams field order.
PARAM_NAMES = ("K1", "K2", "K3", "K4", "K5", "C1", "C2", "C3")
# Conductance means (K1..K5) and capacitance means (C1..C3).
K_MEANS = (16.48, 108.5, 5.0, 30.5, 23.04)
C_MEANS = (9.36e5, 2.97e6, 6.695e5)
K_VARIANCE = 0.1
C_VARIANCE = 1.0

DEFAULT_TS_MINUTES = 10.0
DEFAULT_POLES = (0.80, 0.85, 0.90)

# synthetic_disturbance's outdoor mean and swing (F) and solar peak (W).
OUTDOOR_MEAN_F = 78.0
OUTDOOR_AMPLITUDE_F = 12.0
SOLAR_PEAK_W = 600.0


@dataclass(frozen=True)
class ThermalParams:
    """One agent's eight RC parameters as floats, or a fleet's stacked by
    agent as (N,) arrays."""

    K1: float | np.ndarray
    K2: float | np.ndarray
    K3: float | np.ndarray
    K4: float | np.ndarray
    K5: float | np.ndarray
    C1: float | np.ndarray
    C2: float | np.ndarray
    C3: float | np.ndarray

    def __post_init__(self):
        # One array call for all eight fields: a NumPy call per field would
        # cost more than drawing the parameters.
        values = np.array([getattr(self, name) for name in PARAM_NAMES])
        lows = values.reshape(len(PARAM_NAMES), -1).min(axis=1).tolist()
        for name, low in zip(PARAM_NAMES, lows):
            if low <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def means(cls) -> "ThermalParams":
        return cls(*K_MEANS, *C_MEANS)

    @classmethod
    def stack(cls, params) -> "ThermalParams":
        """Per-agent parameters stacked by agent into (N,) arrays."""
        values = np.array([[getattr(p, name) for name in PARAM_NAMES]
                           for p in params])
        return cls(*values.T)


@dataclass(frozen=True)
class ContinuousModel:
    """One agent's A (3, 3), B (3, 1) and G (3, 2), or a fleet's with a
    leading agent axis.  The output is the first state, the indoor air."""

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray


@dataclass(frozen=True)
class DiscreteModel:
    """One agent's Ad (3, 3), Bd (3, 1) and Gd (3, 2), or a fleet's with a
    leading agent axis."""

    Ad: np.ndarray
    Bd: np.ndarray
    Gd: np.ndarray
    Ts: float  # minutes


@dataclass(frozen=True)
class ControllerGains:
    """One agent's gains (K_fb and K_w one row each, N_r and setpoint
    floats), or a fleet's stacked by agent: K_fb (N, 3), K_w (N, 2), N_r
    and setpoint (N,)."""

    K_fb: np.ndarray
    N_r: float | np.ndarray
    setpoint: float | np.ndarray
    # DC disturbance feedforward row (1x2).  Without it the state-feedback
    # term is dominated by a large constant offset whenever the slow
    # envelope state sits at a disturbance-shifted equilibrium, which makes
    # the control signal useless as a "power I actually need" quantity.
    K_w: np.ndarray


def sample_parameters(seed: int) -> ThermalParams:
    """Draw the eight RC parameters from normal distributions with the
    K_MEANS and C_MEANS means and the K_VARIANCE and C_VARIANCE variances,
    redrawing any nonpositive value.  Deterministic per seed."""
    rng = np.random.default_rng(seed)
    values = []
    for mean, var in [(m, K_VARIANCE) for m in K_MEANS] + \
                     [(m, C_VARIANCE) for m in C_MEANS]:
        v = 0.0
        while v <= 0:
            v = mean + math.sqrt(var) * rng.standard_normal()
        values.append(v)
    return ThermalParams(*values)


def _raise_at_first(failed, error, why: str) -> None:
    """Raise error naming the first agent whose entry of failed is true."""
    agents = np.flatnonzero(failed)
    if agents.size:
        raise error(f"agent {agents[0]}: {why}")


def _matrices(rows) -> np.ndarray:
    """Nested rows of scalars or (N,) arrays as one matrix, or a stack of
    N matrices with the agent axis first."""
    return np.ascontiguousarray(np.moveaxis(np.array(rows), (0, 1), (-2, -1)))


def build_continuous_model(p: ThermalParams) -> ContinuousModel:
    """Assemble the 3-state RC network matrices and verify A is Hurwitz;
    NonHurwitz names the first agent whose A is not."""
    K1, K2, K3, K4, K5 = p.K1, p.K2, p.K3, p.K4, p.K5
    C1, C2, C3 = p.C1, p.C2, p.C3
    zero = np.zeros(np.shape(C1))
    A = _matrices([
        [-(K1 + K2 + K3 + K5) / C1, (K1 + K2) / C1, K5 / C1],
        [(K1 + K2) / C2, -(K1 + K2) / C2, zero],
        [K1 / C3, zero, -(K4 + K5) / C3],
    ])
    B = _matrices([[1.0 / C1 + 1.0 / C2], [zero], [zero]])
    G = _matrices([
        [K3 / C1, 1.0 / C1],
        [zero, 1.0 / C2],
        [K4 / C3, zero],
    ])
    _raise_at_first(np.linalg.eigvals(A).real.max(axis=-1) >= 0, NonHurwitz,
                    "A has an eigenvalue with nonnegative real part")
    return ContinuousModel(A=A, B=B, G=G)


def discretize_zoh(m: ContinuousModel, Ts: float = DEFAULT_TS_MINUTES) -> DiscreteModel:
    """Exact zero-order hold at sample time Ts (minutes) via the augmented
    matrix exponential over all input columns at once, one ``expm`` over
    the stack for a fleet.  Ad, Bd and Gd are views of that exponential."""
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    ts_seconds = Ts * 60.0
    inputs = np.concatenate([m.B, m.G], axis=-1)
    n, p = m.A.shape[-1], inputs.shape[-1]
    aug = np.zeros(m.A.shape[:-2] + (n + p, n + p))
    aug[..., :n, :n] = m.A
    aug[..., :n, n:] = inputs
    phi = expm(aug * ts_seconds)
    Ad = phi[..., :n, :n]
    Bd = phi[..., :n, n:n + 1]
    Gd = phi[..., :n, n + 1:]
    return DiscreteModel(Ad=Ad, Bd=Bd, Gd=Gd, Ts=Ts)


def _separate_poles(poles) -> np.ndarray:
    """Nudge duplicate requested poles apart by 1e-6 so the placement is
    well defined for repeated roots."""
    poles = np.sort(np.asarray(poles, dtype=float))
    for i in range(1, len(poles)):
        if poles[i] - poles[i - 1] < 1e-6:
            poles[i] = poles[i - 1] + 1e-6
    return poles


def _per_agent(values):
    """A one-agent (0-d) result as a float; a fleet's (N,) array as is."""
    return float(values) if np.ndim(values) == 0 else values


def design_controller(dm: DiscreteModel, poles=DEFAULT_POLES,
                      setpoint=72.0) -> ControllerGains:
    """Ackermann pole placement plus a static feedforward gain that makes
    the DC gain from setpoint to output equal one.

    One agent's model gives one agent's gains; a fleet's stacked model
    gives the gains stacked by agent, with setpoint one value for all or
    one per agent.  Uncontrollable names the first agent that fails.
    """
    Ad, Bd = dm.Ad, dm.Bd
    n = Ad.shape[-1]
    poles = _separate_poles(poles)
    if len(poles) != n:
        raise ValueError(f"need {n} poles, got {len(poles)}")

    ctrb = np.concatenate([np.linalg.matrix_power(Ad, k) @ Bd
                           for k in range(n)], axis=-1)
    _raise_at_first(np.linalg.matrix_rank(ctrb) < n, Uncontrollable,
                    "(Ad, Bd) controllability matrix is rank deficient")

    # Desired characteristic polynomial evaluated at Ad; K_fb is the last
    # row of ctrb^-1 phi(Ad).
    eye = np.eye(n)
    phi = eye
    for p in poles:
        phi = phi @ (Ad - p * eye)
    K_fb = np.linalg.solve(ctrb, phi)[..., -1:, :]

    # The output is the first state, so C v is v's first row (C = [1, 0, 0]).
    closed = eye - Ad + Bd @ K_fb
    dc = np.linalg.solve(closed, Bd)[..., 0, 0]
    _raise_at_first(dc == 0.0, Uncontrollable,
                    "zero DC gain; cannot compute reference gain")
    # Cancel the disturbance DC contribution so constant w leaves y at the
    # setpoint; without this the closed loop carries a steady offset.
    K_w = -np.linalg.solve(closed, dm.Gd)[..., :1, :] / dc[..., None, None]
    setpoint = np.broadcast_to(np.asarray(setpoint, dtype=float), dc.shape)
    return ControllerGains(K_fb=K_fb.reshape(-1, n), N_r=_per_agent(1.0 / dc),
                           setpoint=_per_agent(setpoint.copy()),
                           K_w=K_w.reshape(-1, K_w.shape[-1]))


def step_plant(x, u: float, w, dm: DiscreteModel):
    """One discrete step of state x (3,) under power u and disturbance
    w (2,): returns (x_next, indoor temperature)."""
    x_next = dm.Ad @ x + dm.Bd[:, 0] * u + dm.Gd @ w
    return x_next, float(x_next[0])


def equilibrium_state(dm: DiscreteModel, w, y_target):
    """Discrete steady state (x, u) holding the output at y_target under a
    constant disturbance.  Solves the linear fixed-point system directly:
    one agent's gives x (3,) and a float u, a fleet's x (N, 3) and u (N,)
    from one stacked solve, with y_target one value for all or one per
    agent."""
    n = dm.Ad.shape[-1]
    w = np.asarray(w, dtype=float).reshape(-1)
    lhs = np.zeros(dm.Ad.shape[:-2] + (n + 1, n + 1))
    lhs[..., :n, :n] = np.eye(n) - dm.Ad
    lhs[..., :n, n] = -dm.Bd[..., 0]
    lhs[..., n, 0] = 1.0
    rhs = np.empty(lhs.shape[:-1] + (1,))
    rhs[..., :n, 0] = dm.Gd @ w
    rhs[..., n, 0] = y_target
    sol = np.linalg.solve(lhs, rhs)[..., 0]
    return sol[..., :n].copy(), _per_agent(sol[..., n])


def desired_power(g: ControllerGains, x, w=None):
    """Signed control power from the local state-feedback law
    u = -K_fb x + N_r * setpoint, plus K_w w when the disturbance w is given.

    With one agent's gains and x of shape (3,) this returns a float; with
    gains stacked by agent and x of shape (N, 3), an (N,) array.  Every
    agent's products are stacked (1, n) @ (n, 1) matmuls, which round as
    the per-agent row products do; a 2-D ``K_w @ w``, ``(K_fb * x).sum(1)``
    or ``einsum`` change the last bits.
    """
    x = np.asarray(x, dtype=float)
    K = g.K_fb
    u = (-(K[:, None, :] @ x.reshape(len(K), -1, 1))[:, 0, 0]
         + g.N_r * g.setpoint)
    if w is not None:
        u = u + (g.K_w[:, None] @ np.asarray(w, float)[:, None])[:, 0, 0]
    return float(u[0]) if x.ndim == 1 else u


# ---------------------------------------------------------------------------
# Disturbance inputs
# ---------------------------------------------------------------------------

def synthetic_disturbance(horizon: int,
                          ts_minutes: float = DEFAULT_TS_MINUTES) -> np.ndarray:
    """Sinusoidal diurnal outdoor temperature plus a half-rectified solar
    term; shape (horizon, 2).  Coolest outdoor point at 03:00, solar between
    06:00 and 18:00 with its peak at noon."""
    t_hours = np.arange(horizon) * ts_minutes / 60.0
    outdoor = OUTDOOR_MEAN_F - OUTDOOR_AMPLITUDE_F * np.cos(
        2.0 * math.pi * (t_hours - 3.0) / 24.0)
    solar = np.maximum(0.0, SOLAR_PEAK_W * np.sin(
        math.pi * (t_hours % 24.0 - 6.0) / 12.0))
    return np.column_stack([outdoor, solar])


def load_disturbance_csv(path, horizon: int,
                         ts_minutes: float = DEFAULT_TS_MINUTES) -> np.ndarray:
    """Read `time_min,outdoor_temp_F,solar_radiation_W` rows and linearly
    interpolate onto the simulation grid.

    The file must have a header with those three columns, at least two
    data rows and strictly increasing time_min spanning the whole grid
    [0, (horizon - 1) * ts_minutes], and every interpolated value must be
    finite; otherwise InvalidScenario names `disturbance` and the path."""
    def invalid(why):
        return InvalidScenario(f"disturbance {str(path)!r}: {why}")

    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise invalid(exc.strerror or str(exc)) from exc
    if not any(line.strip() for line in lines):
        raise invalid("the file is empty")
    data = np.genfromtxt(lines, delimiter=",", names=True, ndmin=1)
    columns = ("time_min", "outdoor_temp_F", "solar_radiation_W")
    missing = [c for c in columns if c not in data.dtype.names]
    if missing:
        raise invalid(f"missing column(s) {', '.join(missing)}")
    if data.size < 2:
        raise invalid(f"needs at least two data rows, got {data.size}")
    t = data["time_min"]
    if not np.all(np.diff(t) > 0):
        raise invalid("time_min must be finite and strictly increasing")
    t_grid = np.arange(horizon) * ts_minutes
    if t[0] > t_grid[0] or t[-1] < t_grid[-1]:
        raise invalid(
            f"time_min runs from {t[0]:g} to {t[-1]:g} but the {horizon} "
            f"steps need [0, {t_grid[-1]:g}]; values are not extrapolated")
    w = np.column_stack([np.interp(t_grid, t, data["outdoor_temp_F"]),
                         np.interp(t_grid, t, data["solar_radiation_W"])])
    if not np.isfinite(w).all():
        raise invalid("a blank or non-numeric cell gives non-finite values "
                      "on the simulation grid")
    return w
