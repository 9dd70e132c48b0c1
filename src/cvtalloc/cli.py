"""Command-line front end: parses the options and dispatches each subcommand.

Subcommands::

    cvt          Run Lloyd's algorithm; write generators.csv (per-iteration
                 generator positions plus final cell boundaries).
    static-alloc Solve the constrained allocation; print/write JSON and an
                 optional tessellation CSV.
    shift-check  Verify the Gaussian mean-shift translation property of the
                 tessellation.
    dynamic-sim  Run a demand-response scenario, its seed overridden by
                 --seed; write its trace, swaps, metrics and plot data files
                 (sim.write_outputs) and, on request, a diagnostics JSON.

Exit codes: 0 success, 1 usage/configuration error, 2 solver failure (a
failed shift check, a cvt run that stopped on its iteration budget, or a
static-alloc solve that raised SolverDiverged).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import dynamic_alloc as dyn
from . import sim
from . import static_alloc as sa
from . import tessellation as tess
from .density import DensitySpec, _unique_keys
from .errors import (CvtAllocError, InvalidParameterValue, InvalidScenario,
                     SolverDiverged)
from .sim import _FMT
from .tessellation import Domain1D

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2


def _parse_domain(text: str) -> Domain1D:
    return Domain1D(*_parse_floats("--domain", text, 2))


def _parse_density(text: str, dom: Domain1D) -> DensitySpec:
    """JSON density spec, or the shorthand 'uniform' bound to the domain."""
    if text.strip().lower() == "uniform":
        return DensitySpec("uniform", {"a": dom.a, "b": dom.b})
    try:
        spec = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InvalidParameterValue(
            f"--density: neither 'uniform' nor JSON ({exc})") from exc
    return DensitySpec.from_config(spec)


def _parse_init(text: str, n: int, dom: Domain1D) -> np.ndarray:
    if text.strip().lower() == "uniform":
        return tess.default_init(n, dom)
    return np.array(_parse_floats("--init", text, n))


def _join_negative(argv: list) -> list:
    """argv with each option followed by a value that starts with '-' and a
    number, as in '--domain -1,5' or '--delta -1e-3', made one argument,
    '--domain=-1,5': argparse takes such a value for an option, and the
    option for one missing its value, unless the value is a plain negative
    number such as -5 or -0.5."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag[:2] == "--" and "=" not in flag and arg[:1] == "-":
            try:
                float(arg.split(",")[0])
                out[-1] += "=" + arg
                continue
            except ValueError:
                pass
        out.append(arg)
    return out


def _parse_floats(option: str, text: str, count: int) -> list:
    """``count`` comma-separated numbers; an InvalidParameterValue naming
    the option for any other count or for a value that is not a number."""
    parts = text.split(",")
    if len(parts) != count:
        raise InvalidParameterValue(
            f"{option} needs {count} comma-separated numbers, got {text!r}")
    try:
        return [float(v) for v in parts]
    except ValueError as exc:
        raise InvalidParameterValue(f"{option}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cvtalloc",
        description="1-D resource allocation via centroidal Voronoi tessellations")
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("cvt", help="run Lloyd's algorithm")
    c.add_argument("--domain", required=True, help="interval as 'a,b'")
    c.add_argument("--n", type=int, required=True, help="number of generators")
    c.add_argument("--density", required=True,
                   help="JSON density spec or 'uniform'")
    c.add_argument("--init", default="uniform",
                   help="comma-separated generators or 'uniform' (default)")
    c.add_argument("--tol", type=float, default=None,
                   help="stopping displacement (default 1e-10 * width)")
    c.add_argument("--max-iter", type=int, default=tess.LLOYD_MAX_ITER,
                   help="iteration budget; a run that uses it up exits 2")
    c.add_argument("--out", default=".", help="output directory")
    c.set_defaults(handler=_cmd_cvt)

    s = sub.add_parser("static-alloc", help="solve the constrained allocation")
    s.add_argument("--domain", required=True, help="interval as 'a,b'")
    s.add_argument("--n", type=int, required=True, help="number of agents")
    s.add_argument("--density", required=True,
                   help="JSON density spec with one parameter set to 'free'")
    s.add_argument("--r", type=float, required=True, help="total resource")
    s.add_argument("--out", default=".", help="output directory")
    s.add_argument("--csv", action="store_true",
                   help="also write the tessellation as allocation.csv")
    s.set_defaults(handler=_cmd_static_alloc)

    k = sub.add_parser("shift-check",
                       help="verify the Gaussian mean-shift property")
    k.add_argument("--domain", required=True, help="interval as 'a,b'")
    k.add_argument("--n", type=int, required=True, help="number of generators")
    k.add_argument("--mu", type=float, required=True, help="initial mean")
    k.add_argument("--sigma2", type=float, required=True, help="variance")
    k.add_argument("--delta", type=float, required=True,
                   help="mean shift (new mean = mu - delta)")
    k.add_argument("--tol", type=float, default=1e-7,
                   help="max allowed generator deviation (default 1e-7)")
    k.set_defaults(handler=_cmd_shift_check)

    d = sub.add_parser("dynamic-sim", help="run a demand-response scenario")
    d.add_argument("--config", required=True, help="scenario JSON file")
    d.add_argument("--out", default=".", help="output directory")
    d.add_argument("--horizon", type=int, default=None,
                   help="override the config horizon: keeps the first H "
                   "schedule entries and drops setpoint changes at steps >= H")
    d.add_argument("--diagnostics", metavar="PATH", default=None,
                   help="also write per-phase wall times, swaps per step, "
                   "the largest constraint error and the resources outside "
                   "the domain per step as JSON to PATH")
    d.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    d.set_defaults(handler=_cmd_dynamic_sim)
    return p


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _write_generators_csv(path, history, boundaries) -> None:
    """One row per iterate and generator, then one per final boundary.
    Each iterate is one %-template, with the generator index written into
    it once, filled from (iteration, z_i) interleaved."""
    n = len(boundaries) - 1
    row = "".join(f"%d,{i},{_FMT}\n" for i in range(n))
    values = [0] * (2 * n)
    with open(path, "w", newline="") as fh:
        fh.write("iter,i,z_i\n")
        for it, z in enumerate(history):
            values[0::2] = [it] * n
            values[1::2] = z.tolist()
            fh.write(row % tuple(values))
        fh.write("".join(f"boundary,{i},{_FMT}\n" for i in range(n + 1))
                 % tuple(boundaries.tolist()))


def _cmd_cvt(args) -> int:
    dom = _parse_domain(args.domain)
    d = _parse_density(args.density, dom)
    init = _parse_init(args.init, args.n, dom)
    t, history = tess.lloyd(init, d, dom, tol=args.tol,
                            max_iter=args.max_iter, record_history=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "generators.csv"
    _write_generators_csv(path, history, t.boundaries)
    print(json.dumps({
        "generators": [float(z) for z in t.generators],
        "energy": t.energy,
        "iterations": t.iterations,
        "converged": t.converged,
        "stop_reason": t.stop_reason,
        "final_displacement": t.final_displacement,
        "output": str(path),
    }))
    return EXIT_SOLVER if t.stop_reason == "budget" else EXIT_OK


def _cmd_static_alloc(args) -> int:
    dom = _parse_domain(args.domain)
    d = _parse_density(args.density, dom)
    problem = sa.StaticProblem(domain=dom, n_agents=args.n, density=d, r=args.r)
    sol = sa.solve(problem)

    payload = {
        "v_k": sol.v_k,
        "centroids": [float(z) for z in sol.centroids],
        "residual_norm": sol.residual_norm,
        "sum": float(np.sum(sol.centroids)),
        "newton_iterations": sol.iterations,
        "residual_history": list(sol.residual_history),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "allocation.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    if args.csv:
        with open(out / "allocation.csv", "w", newline="") as fh:
            fh.write("i,z_i,cell_lo,cell_hi\n")
            m = tess.voronoi_regions(sol.centroids, problem.domain)
            for i, z in enumerate(sol.centroids):
                fh.write(f"{i},{_FMT % z},{_FMT % m[i]},{_FMT % m[i + 1]}\n")
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_shift_check(args) -> int:
    dom = _parse_domain(args.domain)
    d = DensitySpec("gaussian", {"mu": args.mu, "sigma2": args.sigma2})
    report = dyn.verify_shift_property(d, dom, args.n, args.delta, args.tol)
    print(json.dumps({
        "n": report.n,
        "delta": report.delta,
        "max_deviation": report.max_deviation,
        "passed": report.passed,
    }))
    return EXIT_OK if report.passed else EXIT_SOLVER


# bench/harness.py calls and traces the plot writer by this name.
_write_plot_data = sim.TraceLog.write_plot_data


def _cmd_dynamic_sim(args) -> int:
    sc = sim.Scenario.from_json(args.config)
    if args.horizon is not None:
        h = args.horizon
        if not 1 <= h <= len(sc.power_schedule):
            raise InvalidScenario(
                f"--horizon {h} must be between 1 and the schedule length "
                f"{len(sc.power_schedule)}")
        sc = sc.replace(horizon=h, power_schedule=sc.power_schedule[:h],
                        setpoint_changes=tuple(c for c in sc.setpoint_changes
                                               if c[0] < h))
    if args.seed is not None:
        sc = sc.replace(seed=args.seed)

    t0 = time.perf_counter()
    trace = sim.run(sc)
    t1 = time.perf_counter()
    report = sim.write_outputs(trace, Path(args.out))
    if args.diagnostics is not None:
        # run_s covers the initial static solve, the fleet build and every
        # step (initialize_s the first two); write_s the metrics and the
        # six output files.
        diag = {**sim.diagnostics(trace, sc.domain), "run_s": t1 - t0,
                "write_s": time.perf_counter() - t1}
        path = Path(args.diagnostics)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(diag, fh, indent=2)
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except SolverDiverged as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (CvtAllocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
