"""The public surface: every exported name resolves, and the exported sets
are pinned, so that a change to them shows up as a deliberate diff here."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import cvtalloc

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cvtalloc.__path__))

PACKAGE_EXPORTS = {
    "density", "tessellation", "static_alloc", "dynamic_alloc", "thermal",
    "sim", "errors",
    "DensitySpec", "bind_free_parameter",
    "Domain1D", "Tessellation", "lloyd", "energy_K",
    "StaticProblem", "StaticSolution", "solve", "cross_validate",
    "AllocationState", "one_step_update", "shifted_mean",
    "verify_shift_property", "rebuild_line_graph", "negotiate_round",
    "ThermalParams", "ControllerGains", "build_continuous_model",
    "discretize_zoh", "design_controller",
    "Scenario", "TraceLog", "MetricsReport", "run", "metrics",
    "__version__",
}

# Each submodule's __all__; None for a module without one.
SUBMODULE_EXPORTS = {
    "cli": None,
    "density": {"DensitySpec", "bind_free_parameter", "cell_centroids"},
    "dynamic_alloc": {
        "AllocationState", "ShiftReport", "negotiate_round",
        "neighbors_of_interest", "one_step_update", "rebuild_line_graph",
        "shifted_mean", "verify_shift_property"},
    "errors": None,
    "sim": {"MetricsReport", "Scenario", "SimState", "TraceLog",
            "diagnostics", "initialize", "metrics", "run", "step",
            "write_outputs"},
    "static_alloc": {"CrossValidationReport", "StaticProblem",
                     "StaticSolution", "cross_validate", "residual", "solve"},
    "tessellation": {"Domain1D", "Tessellation", "default_init", "energy_K",
                     "lloyd", "voronoi_regions"},
    "thermal": {
        "ContinuousModel", "ControllerGains", "DEFAULT_POLES",
        "DEFAULT_TS_MINUTES", "DiscreteModel", "ThermalParams",
        "build_continuous_model", "design_controller", "desired_power",
        "discretize_zoh", "load_disturbance_csv", "sample_parameters",
        "step_plant", "synthetic_disturbance"},
}

ERRORS = {
    "CvtAllocError", "UnboundFreeParameter", "EmptyCell", "NoFreeParameter",
    "InvalidParameterValue", "UnsortedGenerators", "GeneratorOutOfDomain",
    "DuplicateGenerators", "InvalidCandidate", "SolverDiverged",
    "InfeasibleProblem", "MissingDesiredInput", "DomainTooNarrow",
    "InvalidScenario", "NonHurwitz", "Uncontrollable",
}


def test_package_exports_resolve():
    missing = [name for name in cvtalloc.__all__
               if not hasattr(cvtalloc, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"cvtalloc.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_pinned():
    assert len(cvtalloc.__all__) == len(PACKAGE_EXPORTS)
    assert set(cvtalloc.__all__) == PACKAGE_EXPORTS


def test_every_submodule_is_pinned():
    assert SUBMODULES == sorted(SUBMODULE_EXPORTS)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_are_pinned(name):
    module = importlib.import_module(f"cvtalloc.{name}")
    exports = getattr(module, "__all__", None)
    if exports is not None:
        assert len(exports) == len(set(exports))
        exports = set(exports)
    assert exports == SUBMODULE_EXPORTS[name]


def test_error_types_are_pinned():
    from cvtalloc import errors
    public = {name for name in vars(errors) if not name.startswith("_")}
    assert public == ERRORS


def test_package_is_the_one_version_source():
    """pyproject.toml reads its version from cvtalloc.__version__."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    config = tomllib.loads((root / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "cvtalloc.__version__"}
