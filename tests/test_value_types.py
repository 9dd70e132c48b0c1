"""The package's value types are plain classes with ``__slots__`` and
explicit constructors; none is a dataclass, so every class builds without
generated code, which keeps the cost of importing the package down.  The
five that compare by value share one equality, errors._slot_eq, and are
unhashable."""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest
from test_exports import SUBMODULES

from cvtalloc import dynamic_alloc as dyn
from cvtalloc import errors
from cvtalloc import sim
from cvtalloc import static_alloc as sa
from cvtalloc import tessellation as tess
from cvtalloc import thermal as th
from cvtalloc.density import DensitySpec

DOM = tess.Domain1D(0.0, 10.0)
FREE_MU = DensitySpec("gaussian", {"sigma2": 4.0}, "mu")
ARRAY = np.array([1.0, 2.0])

# Each converted class, and a constructor argument per parameter in
# positional order, keyed by its keyword and attribute name.
VALUE_TYPES = {
    tess.Domain1D: {"a": 0.0, "b": 10.0},
    tess.Tessellation: {
        "generators": ARRAY, "boundaries": np.array([0.0, 1.5, 3.0]),
        "energy": 0.25, "stop_reason": "tol", "iterations": 7,
        "final_displacement": 1e-12},
    DensitySpec: {"family": "gaussian", "params": {"sigma2": 4.0},
                  "free_param": "mu"},
    sa.StaticProblem: {"domain": DOM, "n_agents": 4, "density": FREE_MU,
                       "r": 20.0},
    sa.StaticSolution: {"centroids": ARRAY, "v_k": 5.0,
                        "residual_norm": 1e-12, "iterations": 3,
                        "residual_history": (1.0, 1e-12)},
    sa.CrossValidationReport: {
        "max_discrepancy": 1e-9, "sum_solver": 3.0, "sum_lloyd": 3.0,
        "lloyd_stop": "stagnated", "lloyd_iterations": 1000,
        "passed": True},
    dyn.AllocationState: {"resources": ARRAY, "r_current": 3.0,
                          "mu_current": 1.5},
    dyn.ShiftReport: {"n": 5, "delta": 0.5, "max_deviation": 1e-10,
                      "passed": True},
    th.ThermalParams: dict(zip(th.PARAM_NAMES, th.K_MEANS + th.C_MEANS)),
    th.ContinuousModel: {"A": np.eye(3), "B": np.ones((3, 1)),
                         "G": np.ones((3, 2))},
    th.DiscreteModel: {"Ad": np.eye(3), "Bd": np.ones((3, 1)),
                       "Gd": np.ones((3, 2)), "Ts": 10.0},
    th.ControllerGains: {"K_fb": np.ones((1, 3)), "N_r": 2.0,
                         "K_w": np.ones((1, 2))},
    sim.SimState: {"scenario": None, "alloc": None, "models": [],
                   "gains": None, "X": np.zeros((2, 3)),
                   "disturbances": np.zeros((4, 2)),
                   "setpoints": np.zeros((4, 2))},
    sim.TraceLog: {"n_agents": 2, "initialize_s": 0.5},
    sim.MetricsReport: {"l2_power_error": 1e-11,
                        "mean_swaps_per_agent": 2.0,
                        "neighbor_coverage": (1, 2, 1),
                        "temperature_rms_error": 0.5, "total_swaps": 3},
    sim.Scenario: {"n_agents": 2, "horizon": 2, "domain": DOM,
                   "density": FREE_MU, "power_schedule": (10.0, 12.0),
                   "seed": 4, "disturbance": "synthetic",
                   "setpoints": (70.0, 74.0),
                   "setpoint_changes": ((1, 0, 68.0),),
                   "rounds_per_step": 2, "ts_minutes": 5.0,
                   "poles": (0.7, 0.8, 0.9)},
}
IDS = [cls.__name__ for cls in VALUE_TYPES]
# The classes that compare by value; every other one compares by identity.
BY_VALUE = [tess.Domain1D, DensitySpec, sa.StaticProblem, th.ThermalParams,
            sim.Scenario]


def package_classes():
    for name in SUBMODULES:
        module = importlib.import_module(f"cvtalloc.{name}")
        yield from (cls for cls in vars(module).values()
                    if inspect.isclass(cls)
                    and cls.__module__ == module.__name__)


def assert_holds(obj, args: dict):
    for name, value in args.items():
        held = getattr(obj, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(held, value), name
        else:
            assert held == value, name


def test_no_class_is_a_dataclass():
    assert [cls.__name__ for cls in package_classes()
            if dataclasses.is_dataclass(cls)] == []


def test_the_slots_value_types_are_pinned():
    plain = {cls for cls in package_classes()
             if "__slots__" in vars(cls) and not issubclass(cls, Exception)}
    assert plain == set(VALUE_TYPES)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=IDS)
def test_built_by_position_and_by_keyword(cls):
    args = VALUE_TYPES[cls]
    assert_holds(cls(*args.values()), args)
    assert_holds(cls(**args), args)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=IDS)
def test_a_misspelled_attribute_raises(cls):
    obj = cls(**VALUE_TYPES[cls])
    name = next(iter(VALUE_TYPES[cls])) + "_"
    with pytest.raises(AttributeError):
        setattr(obj, name, 1.0)
    with pytest.raises(AttributeError):
        getattr(obj, name)


def test_defaults():
    sol = sa.StaticSolution(ARRAY, 5.0, 1e-12)
    assert sol.iterations == 0 and sol.residual_history == ()
    assert DensitySpec("uniform", {"a": 0.0, "b": 1.0}).free_param is None
    assert DensitySpec("exponential", free_param="lam").params == {}
    assert list(inspect.signature(sim.TraceLog).parameters) == [
        "n_agents", "initialize_s"]
    first, second = sim.TraceLog(3), sim.TraceLog(n_agents=3)
    for name in ("z", "desired", "temp_F", "setpoints", "order", "r",
                 "swaps"):
        assert getattr(first, name) == []
        assert getattr(first, name) is not getattr(second, name)
    assert first.phase_s == dict.fromkeys(sim.PHASES, 0.0)
    assert first.phase_s is not second.phase_s
    assert first.initialize_s == 0.0
    sc = sim.Scenario(1, 2, DOM, FREE_MU, [3, 4.5])
    assert sc.power_schedule == (3.0, 4.5)
    assert type(sc.power_schedule[0]) is float
    assert (sc.seed, sc.disturbance, sc.setpoints, sc.setpoint_changes,
            sc.rounds_per_step, sc.ts_minutes, sc.poles) == (
        0, "synthetic", (), (), 1, th.DEFAULT_TS_MINUTES, th.DEFAULT_POLES)


def test_allocation_state_derives_the_order():
    st = dyn.AllocationState([3, 1, 2], 6.0, 2.0)
    assert st.resources.dtype == float
    assert st.order.tolist() == [1, 2, 0]
    with pytest.raises(TypeError):
        dyn.AllocationState([3.0], 3.0, 3.0, np.array([0]))


def test_metrics_report_dict_keeps_the_field_order():
    report = sim.MetricsReport(**VALUE_TYPES[sim.MetricsReport])
    assert report.to_dict() == {
        "l2_power_error": 1e-11, "mean_swaps_per_agent": 2.0,
        "neighbor_coverage": {"0": 1, "1": 2, "2": 1},
        "temperature_rms_error": 0.5, "total_swaps": 3}
    assert list(report.to_dict()) == list(VALUE_TYPES[sim.MetricsReport])


def test_density_spec_equality():
    spec = DensitySpec("Exponential", {"rate": 2}, None)
    assert spec == DensitySpec("exponential", {"lam": 2.0})
    assert spec != DensitySpec("exponential", {"lam": 3.0})
    assert spec != DensitySpec("exponential", free_param="lam")
    assert spec != ("exponential", {"lam": 2.0}, None)
    assert FREE_MU == DensitySpec("gaussian", {"variance": 4.0}, "mu")


def test_value_equality_of_the_compared_types():
    # Scenario equality compares its domain and density; tests compare
    # problems and drawn parameters.
    assert DOM == tess.Domain1D(0, 10) and DOM != tess.Domain1D(0.0, 11.0)
    problem = sa.StaticProblem(**VALUE_TYPES[sa.StaticProblem])
    assert problem == sa.StaticProblem(tess.Domain1D(0.0, 10.0), 4,
                                       FREE_MU, 20.0)
    assert problem != sa.StaticProblem(DOM, 4, FREE_MU, 21.0)
    assert th.sample_parameters(3) == th.sample_parameters(3)
    assert th.sample_parameters(3) != th.sample_parameters(4)


def test_the_value_equality_is_shared():
    assert {cls for cls in package_classes()
            if "__eq__" in vars(cls)} == set(BY_VALUE)
    assert all(cls.__eq__ is errors._slot_eq for cls in BY_VALUE)


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda cls: cls.__name__)
def test_equal_values_are_unhashable(cls):
    with pytest.raises(TypeError, match="unhashable"):
        hash(cls(**VALUE_TYPES[cls]))


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda cls: cls.__name__)
def test_another_class_is_not_implemented(cls):
    obj = cls(**VALUE_TYPES[cls])
    assert obj.__eq__(tuple(VALUE_TYPES[cls].values())) is NotImplemented
    assert obj != tuple(VALUE_TYPES[cls].values())
    assert obj == cls(**VALUE_TYPES[cls])


def test_scenario_equality_and_replace():
    sc = sim.Scenario(**VALUE_TYPES[sim.Scenario])
    assert sc.replace() == sc and sc.replace() is not sc
    changed = sc.replace(seed=5, power_schedule=[10, 14])
    assert changed != sc
    assert (changed.seed, changed.power_schedule) == (5, (10.0, 14.0))
    assert changed.replace(seed=4, power_schedule=(10.0, 12.0)) == sc
    # The copy is checked again, as the constructor checks.
    with pytest.raises(errors.InvalidScenario,
                       match="^seed must be >= 0, got -1$"):
        sc.replace(seed=-1)
    with pytest.raises(errors.InvalidScenario,
                       match=r"^horizon must equal len\(power_schedule\)$"):
        sc.replace(horizon=3)
    with pytest.raises(TypeError, match="seeds"):
        sc.replace(seeds=5)
