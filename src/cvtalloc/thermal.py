"""Three-state RC building/HVAC plant: parameter sampling, state-space
assembly, exact zero-order-hold discretization, and local pole-placement
state feedback with reference feedforward.

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

from .errors import NonHurwitz, Uncontrollable

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
    K1: float
    K2: float
    K3: float
    K4: float
    K5: float
    C1: float
    C2: float
    C3: float

    def __post_init__(self):
        for name in ("K1", "K2", "K3", "K4", "K5", "C1", "C2", "C3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def means(cls) -> "ThermalParams":
        return cls(*K_MEANS, *C_MEANS)


@dataclass(frozen=True)
class ContinuousModel:
    A: np.ndarray
    B: np.ndarray
    G: np.ndarray
    C: np.ndarray
    D: float


@dataclass(frozen=True)
class DiscreteModel:
    Ad: np.ndarray
    Bd: np.ndarray
    Gd: np.ndarray
    Ts: float  # minutes


@dataclass(frozen=True)
class ControllerGains:
    """One agent's gains (K_fb and K_w one row each, N_r and setpoint
    scalars), or a fleet's stacked by agent: K_fb (N, 3), K_w (N, 2), N_r
    and setpoint (N,)."""

    K_fb: np.ndarray
    N_r: float
    setpoint: float
    # DC disturbance feedforward row (1x2); optional.  Without it the
    # state-feedback term is dominated by a large constant offset whenever the
    # slow envelope state sits at a disturbance-shifted equilibrium, which
    # makes the control signal useless as a "power I actually need" quantity.
    K_w: np.ndarray | None = None


def sample_parameters(seed: int, k_variance: float = K_VARIANCE,
                      c_variance: float = C_VARIANCE) -> ThermalParams:
    """Draw the eight RC parameters from their normal distributions,
    redrawing any nonpositive value.  Deterministic per seed."""
    rng = np.random.default_rng(seed)
    values = []
    for mean, var in [(m, k_variance) for m in K_MEANS] + \
                     [(m, c_variance) for m in C_MEANS]:
        sd = math.sqrt(var)
        v = mean + sd * rng.standard_normal() if sd > 0 else mean
        while v <= 0:
            v = mean + sd * rng.standard_normal()
        values.append(v)
    return ThermalParams(*values)


def build_continuous_model(p: ThermalParams) -> ContinuousModel:
    """Assemble the 3-state RC network matrices and verify A is Hurwitz."""
    K1, K2, K3, K4, K5 = p.K1, p.K2, p.K3, p.K4, p.K5
    C1, C2, C3 = p.C1, p.C2, p.C3
    A = np.array([
        [-(K1 + K2 + K3 + K5) / C1, (K1 + K2) / C1, K5 / C1],
        [(K1 + K2) / C2, -(K1 + K2) / C2, 0.0],
        [K1 / C3, 0.0, -(K4 + K5) / C3],
    ])
    B = np.array([[1.0 / C1 + 1.0 / C2], [0.0], [0.0]])
    G = np.array([
        [K3 / C1, 1.0 / C1],
        [0.0, 1.0 / C2],
        [K4 / C3, 0.0],
    ])
    C = np.array([[1.0, 0.0, 0.0]])
    if np.max(np.linalg.eigvals(A).real) >= 0:
        raise NonHurwitz("A has an eigenvalue with nonnegative real part")
    return ContinuousModel(A=A, B=B, G=G, C=C, D=0.0)


def discretize_zoh(m: ContinuousModel, Ts: float = DEFAULT_TS_MINUTES) -> DiscreteModel:
    """Exact zero-order hold at sample time Ts (minutes) via the augmented
    matrix exponential over all input columns at once."""
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    ts_seconds = Ts * 60.0
    inputs = np.hstack([m.B, m.G])
    n, p = m.A.shape[0], inputs.shape[1]
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = m.A
    aug[:n, n:] = inputs
    phi = expm(aug * ts_seconds)
    Ad = phi[:n, :n]
    Bd = phi[:n, n:n + 1]
    Gd = phi[:n, n + 1:]
    return DiscreteModel(Ad=Ad, Bd=Bd, Gd=Gd, Ts=Ts)


def _separate_poles(poles) -> np.ndarray:
    """Nudge duplicate requested poles apart by 1e-6 so the placement is
    well defined for repeated roots."""
    poles = np.sort(np.asarray(poles, dtype=float))
    for i in range(1, len(poles)):
        if poles[i] - poles[i - 1] < 1e-6:
            poles[i] = poles[i - 1] + 1e-6
    return poles


def design_controller(dm: DiscreteModel, poles=DEFAULT_POLES,
                      setpoint: float = 72.0) -> ControllerGains:
    """Ackermann pole placement plus a static feedforward gain that makes
    the DC gain from setpoint to output equal one."""
    Ad, Bd = dm.Ad, dm.Bd
    n = Ad.shape[0]
    poles = _separate_poles(poles)
    if len(poles) != n:
        raise ValueError(f"need {n} poles, got {len(poles)}")

    ctrb = np.hstack([np.linalg.matrix_power(Ad, k) @ Bd for k in range(n)])
    if np.linalg.matrix_rank(ctrb, tol=None) < n:
        raise Uncontrollable("(Ad, Bd) controllability matrix is rank deficient")

    # Desired characteristic polynomial evaluated at Ad.
    phi = np.eye(n)
    for p in poles:
        phi = phi @ (Ad - p * np.eye(n))
    e_last = np.zeros((1, n))
    e_last[0, -1] = 1.0
    K_fb = e_last @ np.linalg.solve(ctrb, phi)

    C = np.array([[1.0, 0.0, 0.0]])
    closed = np.eye(n) - Ad + Bd @ K_fb
    dc = float((C @ np.linalg.solve(closed, Bd))[0, 0])
    if dc == 0.0:
        raise Uncontrollable("zero DC gain; cannot compute reference gain")
    # Cancel the disturbance DC contribution so constant w leaves y at the
    # setpoint; without this the closed loop carries a steady offset.
    K_w = -(C @ np.linalg.solve(closed, dm.Gd)) / dc
    return ControllerGains(K_fb=K_fb, N_r=1.0 / dc, setpoint=float(setpoint),
                           K_w=K_w)


def step_plant(x, u: float, w, dm: DiscreteModel):
    """One discrete step of state x (3,) under power u and disturbance
    w (2,): returns (x_next, indoor temperature)."""
    x_next = dm.Ad @ x + dm.Bd[:, 0] * u + dm.Gd @ w
    return x_next, float(x_next[0])


def equilibrium_state(dm: DiscreteModel, w, y_target: float):
    """Discrete steady state (x, u) holding the output at y_target under a
    constant disturbance.  Solves the linear fixed-point system directly."""
    n = dm.Ad.shape[0]
    w = np.asarray(w, dtype=float).reshape(-1)
    lhs = np.zeros((n + 1, n + 1))
    lhs[:n, :n] = np.eye(n) - dm.Ad
    lhs[:n, n] = -dm.Bd[:, 0]
    lhs[n, 0] = 1.0
    rhs = np.concatenate([dm.Gd @ w, [y_target]])
    sol = np.linalg.solve(lhs, rhs)
    return sol[:n], float(sol[n])


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
    if w is not None and g.K_w is not None:
        W = np.broadcast_to(np.asarray(w, dtype=float), g.K_w.shape)
        u = u + (g.K_w[:, None, :] @ W[:, :, None])[:, 0, 0]
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
    interpolate onto the simulation grid."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    t_grid = np.arange(horizon) * ts_minutes
    outdoor = np.interp(t_grid, data["time_min"], data["outdoor_temp_F"])
    solar = np.interp(t_grid, data["time_min"], data["solar_radiation_W"])
    return np.column_stack([outdoor, solar])
