"""1-D resource allocation via centroidal Voronoi tessellations.

The package covers the full pipeline: density families and their interval
moments, Lloyd's algorithm and Voronoi energies, the exact static allocation
(N+1 nonlinear system with one free density parameter), the decentralized
dynamic allocation with the civility swap protocol, an RC building/HVAC
plant with pole-placement control, and a demand-response simulation
orchestrator with a CLI front end.
"""

from . import density, dynamic_alloc, errors, sim, static_alloc, tessellation, thermal
from .density import DensitySpec, bind_free_parameter
from .dynamic_alloc import (
    AllocationState,
    negotiate_round,
    one_step_update,
    rebuild_line_graph,
    shifted_mean,
    verify_shift_property,
)
from .sim import MetricsReport, Scenario, TraceLog, metrics, run
from .static_alloc import StaticProblem, StaticSolution, cross_validate, solve
from .tessellation import Domain1D, Tessellation, energy_K, lloyd
from .thermal import (
    ControllerGains,
    ThermalParams,
    build_continuous_model,
    design_controller,
    discretize_zoh,
)

__version__ = "1.0.0"

__all__ = [
    "density", "tessellation", "static_alloc", "dynamic_alloc", "thermal",
    "sim", "errors",
    "DensitySpec", "bind_free_parameter",
    "Domain1D", "Tessellation", "lloyd", "energy_K",
    "StaticProblem", "StaticSolution", "solve", "cross_validate",
    "AllocationState", "one_step_update",
    "shifted_mean", "verify_shift_property", "rebuild_line_graph",
    "negotiate_round",
    "ThermalParams", "ControllerGains", "build_continuous_model",
    "discretize_zoh", "design_controller",
    "Scenario", "TraceLog", "MetricsReport", "run", "metrics",
    "__version__",
]
