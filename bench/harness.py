"""Workload runners, correctness gates and metric reduction.

Each runner builds its inputs with :mod:`inputs` and then repeats passes
until the requested seconds have elapsed.  A pass sets up (re-imports the
package, builds the inputs, initializes) and then runs the timed body, a
fixed list of *units*: solves, cross-validations, simulation steps, the
output writes.  Only calls into ``cvtalloc`` are timed; the correctness
gates run outside the timed regions.

Shared hosts change speed: from one second to the next, and for minutes
at a time, the same work can take up to twice as long.  Two measures keep
the reported times about the work rather than the host:

* :class:`HostSpeed` times a fixed calibration kernel every
  ``CAL_PERIOD_S`` from an interval timer, also in the middle of long
  units.  Each unit's time excludes the kernel's own time and is scaled by
  ``CAL_REF_S`` over the mean kernel time around the unit: times are in
  seconds of the reference host.
* Each reported time is a median over the run: per unit, the median of its
  scaled samples over the passes, then summed or reduced across units.

Raw (unscaled) totals are kept in the details.  With a
:class:`tracer.Tracer` installed the same runner records spans, from which
:func:`layer_metrics` derives the per-module numbers, unscaled.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import shutil
import signal
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cvtalloc import cli, sim
from cvtalloc import density as dens
from cvtalloc import dynamic_alloc as dyn
from cvtalloc import static_alloc as sa
from cvtalloc import tessellation as tess
from cvtalloc import thermal as th
from cvtalloc.density import DensitySpec
from cvtalloc.static_alloc import StaticProblem
from cvtalloc.tessellation import Domain1D

import inputs
from tracer import Tracer

OUTPUT_FILES = ("trace.csv", "swaps.csv", "metrics.json",
                "powers.csv", "total_power.csv", "temperatures.csv")
GOLDEN_FILE = Path(__file__).resolve().parent / "golden_shipped.json"

# Correctness gates.
STATIC_RESIDUAL_TOL = 1e-9
STATIC_SUM_TOL = 1e-6
STATIC_MU_TOL = 1e-6
NEGLIGIBLE_TAIL = 1e-12
L2_POWER_TOL = 1e-6              # Acceptance 9

FLEET_N = 240
# Passes per run at least; validate's single pass outlasts any run length.
MIN_PASSES = {"static-sweep": 1, "validate": 1, "fleet-240": 2, "shipped": 2}
SETUP_UNITS = ("import", "setup")
# static-sweep solves each smallest-size problem this many times per pass:
# its solves are the workload's unit operations, and are short.
STATIC_OP_REPEATS = 5
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

# Calibration: the kernel's time on the reference host (2 vCPUs at 2.0 GHz,
# in its fast state), the sampling period, and how far before and after a
# unit the samples that scale it may lie.
CAL_REF_S = 0.75e-3
CAL_PERIOD_S = 0.05
CAL_WINDOW_S = 0.25


def median(values) -> float:
    return float(np.median(values))


@dataclass
class Run:
    """Samples of one run plus its operation counts.

    ``passes`` holds one list per pass of ``(unit, start, end, seconds)``;
    the units whose names start with ``op_prefix`` are the workload's unit
    operations, and ``SETUP_UNITS`` time the pass's set-up.
    """

    op_prefix: str = ""
    passes: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    details: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def unit_medians(self, raw: bool = False) -> dict:
        """Per unit, the median of its samples over all passes."""
        samples = {}
        passes = ([{u[0]: u[3] for u in units} for units in self.passes]
                  if raw else self.scaled)
        for units in passes:
            for key, dt in units.items():
                samples.setdefault(key, []).append(dt)
        return {key: median(v) for key, v in samples.items()}

    def work_medians(self, raw: bool = False) -> dict:
        return {k: v for k, v in self.unit_medians(raw).items() if k not in SETUP_UNITS}

    def op_medians(self) -> list:
        return [dt for key, dt in self.unit_medians().items()
                if key.startswith(self.op_prefix)]


@dataclass
class Context:
    root: Path
    work: Path
    workload: str
    seed: int
    seconds: float
    tracer: object = None
    speed: "HostSpeed" = None


def _cal_kernel() -> float:
    """Fixed calibration work: small NumPy calls and interpreter loops, the
    mix the package itself runs."""
    x = np.linspace(0.0, 1.0, 200)
    acc = 0.0
    for _ in range(100):
        acc += float(np.sum(np.exp(-x * x)))
        for j in range(40):
            acc += j * 1e-3
    return acc


class HostSpeed:
    """Samples the calibration kernel from a SIGALRM interval timer.

    :meth:`clock` is ``perf_counter`` minus the time spent in the kernel,
    so a unit timed with it excludes the samples taken inside it.
    """

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.paused = 0.0

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_):
        t0 = time.perf_counter()
        _cal_kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.kernel_s.append(t1 - t0)
        self.paused += t1 - t0

    def clock(self) -> float:
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def scale(self, units: list) -> dict:
        """Reference-host seconds of ``(unit, start, end, seconds)`` samples:
        each is scaled by CAL_REF_S over the median kernel time from
        CAL_WINDOW_S before its start to CAL_WINDOW_S after its end."""
        at = np.asarray(self.at)
        kernel_s = np.asarray(self.kernel_s)
        out = {}
        for key, start, end, seconds in units:
            lo = np.searchsorted(at, start - CAL_WINDOW_S)
            hi = max(np.searchsorted(at, end + CAL_WINDOW_S), lo + 1)
            lo = min(lo, len(at) - 1)
            out[key] = seconds * CAL_REF_S / np.median(kernel_s[lo:hi])
        return out

    def slowdown(self) -> float:
        return median(self.kernel_s) / CAL_REF_S


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten of n samples beyond it."""
    best = None
    for p in PERCENTILES:
        if math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= MIN_BEYOND:
            best = p
    return best


def _measure(ctx: Context, run: Run, unit: str, fn, *args):
    """Time fn(*args) as ``unit`` of the current pass.  An exception counts
    as a failed operation and returns None, recording no time."""
    start = time.perf_counter()
    c0 = ctx.speed.clock()
    try:
        out = fn(*args)
    except Exception:  # the benchmark keeps going and reports the failure
        traceback.print_exc(file=sys.stderr)
        run.fail(unit)
        return None
    c1 = ctx.speed.clock()
    run.passes[-1].append((unit, start, time.perf_counter(), c1 - c0))
    return out


def _repeat(ctx: Context, body) -> None:
    """Run body() until ctx.seconds have passed, at least MIN_PASSES times."""
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES[ctx.workload] or time.perf_counter() - start < ctx.seconds:
        body()
        passes += 1


def _import_package():
    """Import the cvtalloc package afresh (its dependencies are already
    loaded), then put back the modules in use."""
    def ours(name):
        return name == "cvtalloc" or name.startswith("cvtalloc.")
    saved = {k: v for k, v in sys.modules.items() if ours(k)}
    for k in saved:
        del sys.modules[k]
    try:
        importlib.import_module("cvtalloc")
    finally:
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def _warm_up(ctx: Context, run: Run, fn) -> None:
    """Untimed, untraced first call: lazy imports inside the package
    (scipy.stats in the static solver's fallback guess) and first-call costs
    happen once per process; their time is reported in the details, not in
    any metric.  A traced run installs its wrappers after it."""
    t0 = time.perf_counter()
    fn()
    run.details["warm_up_s"] = time.perf_counter() - t0
    if ctx.tracer is not None:
        install(ctx.tracer)


def _set_up(ctx: Context, run: Run, build):
    """Start a pass with its timed set-up: a fresh package import (untraced
    runs only, so the wrapped modules stay in use) plus build()."""
    run.passes.append([])
    run.attempted += 1
    if ctx.tracer is None:
        _measure(ctx, run, "import", _import_package)
    return _measure(ctx, run, "setup", build)


# ---------------------------------------------------------------------------
# static-sweep
# ---------------------------------------------------------------------------

def _static_problem(spec: dict) -> StaticProblem:
    return StaticProblem(Domain1D(*inputs.STATIC_DOMAIN), spec["n"],
                         DensitySpec("gaussian", {"sigma2": inputs.STATIC_SIGMA2},
                                     free_param="mu"), spec["r"])


def _gaussian_tail_outside(mu: float, sigma2: float, dom: Domain1D) -> float:
    s = math.sqrt(2.0 * sigma2)
    return 0.5 * math.erfc((mu - dom.a) / s) + 0.5 * math.erfc((dom.b - mu) / s)


def _check_static(run: Run, p: StaticProblem, sol) -> None:
    mean = p.r / p.n_agents
    tail = _gaussian_tail_outside(mean, p.density.params["sigma2"], p.domain)
    errors = []
    if not sol.residual_norm < STATIC_RESIDUAL_TOL:
        errors.append(f"residual {sol.residual_norm:.2e}")
    if not abs(float(np.sum(sol.centroids)) - p.r) < STATIC_SUM_TOL:
        errors.append("sum(z) != r")
    if tail < NEGLIGIBLE_TAIL and not abs(sol.v_k - mean) < STATIC_MU_TOL:
        errors.append(f"mu {sol.v_k!r} != r/N {mean!r}")
    if errors:
        run.fail(f"solve N={p.n_agents} r={p.r!r}: " + ", ".join(errors))


def _residual_evals(ctx: Context) -> int:
    return ctx.tracer.calls.get("static_alloc.residual", 0) if ctx.tracer else 0


def run_static_sweep(ctx: Context, run: Run) -> None:
    specs = inputs.static_sweep(ctx.seed)
    small = min(inputs.STATIC_SIZES)
    run.op_prefix = f"solve.n{small}."
    _warm_up(ctx, run, lambda: sa.solve(_static_problem(specs[0])))

    def one_pass():
        problems = _set_up(ctx, run, lambda: [_static_problem(s) for s in specs])
        for i, p in enumerate(problems):
            for j in range(STATIC_OP_REPEATS if p.n_agents == small else 1):
                run.attempted += 1
                evals = _residual_evals(ctx)
                sol = _measure(ctx, run, f"solve.n{p.n_agents}.{i}.{j}", sa.solve, p)
                if sol is None:
                    continue
                _check_static(run, p, sol)
                if ctx.tracer is not None:
                    run.sample(f"residual_evals.n{p.n_agents}",
                               _residual_evals(ctx) - evals)

    _repeat(ctx, one_pass)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validate_problem(spec: dict) -> StaticProblem:
    return StaticProblem(Domain1D(*spec["domain"]), spec["n"],
                         DensitySpec(spec["family"], spec["params"],
                                     free_param=spec["free"]), spec["r"])


def run_validate(ctx: Context, run: Run) -> None:
    specs = inputs.validate(ctx.seed)
    run.op_prefix = "crossval"
    _warm_up(ctx, run, lambda: sa.solve(_validate_problem(specs[0])))

    def one_pass():
        problems = _set_up(ctx, run, lambda: [_validate_problem(s) for s in specs])
        unconverged = 0
        for i, (spec, p) in enumerate(zip(specs, problems)):
            run.attempted += 1
            sol = _measure(ctx, run, f"solve{i}", sa.solve, p)
            if sol is None:
                continue
            rep = _measure(ctx, run, f"crossval{i}", sa.cross_validate, sol, p)
            if rep is None:
                continue
            unconverged += not rep.lloyd_converged
            if not rep.passed:
                run.fail(f"cross_validate {spec['label']} r={p.r!r}: "
                         f"discrepancy {rep.max_discrepancy:.2e}")
        run.sample("lloyd_unconverged", unconverged)

    _repeat(ctx, one_pass)


# ---------------------------------------------------------------------------
# fleet-240 and shipped: the dynamic-sim sequence
# ---------------------------------------------------------------------------

def _scenario_config(ctx: Context) -> dict:
    base = inputs.load_shipped(ctx.root)
    if ctx.workload == "shipped":
        return inputs.shipped(ctx.seed, base)
    return inputs.fleet(ctx.seed, base, FLEET_N)


def write_outputs(trace, out: Path):
    """metrics, then the CSV, JSON and plot files, as ``dynamic-sim`` does."""
    report = sim.metrics(trace)
    trace.write_trace_csv(out / "trace.csv")
    trace.write_swaps_csv(out / "swaps.csv")
    with open(out / "metrics.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    cli._write_plot_data(trace, out)
    return report


def hash_outputs(out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES}


def reference_hashes(config_path: Path, out: Path) -> dict | None:
    """Hashes of one untimed ``cvtalloc dynamic-sim`` run on the same config."""
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["dynamic-sim", "--config", str(config_path),
                       "--out", str(out)])
    return hash_outputs(out) if rc == 0 else None


def run_dynamic(ctx: Context, run: Run) -> None:
    config_text = json.dumps(_scenario_config(ctx))
    config_path = ctx.work / "scenario.json"
    config_path.write_text(config_text)
    out = ctx.work / "pass"
    out.mkdir(parents=True, exist_ok=True)
    run.op_prefix = "step"
    pass_hashes = []

    def initialize():
        return sim.initialize(sim.Scenario.from_config(json.loads(config_text)))

    _warm_up(ctx, run, initialize)

    def one_pass():
        st = _set_up(ctx, run, initialize)
        if st is None:
            return
        run.attempted += st.scenario.horizon + 1
        trace = sim.TraceLog(n_agents=st.scenario.n_agents)
        for k in range(st.scenario.horizon):
            if _measure(ctx, run, f"step{k}", sim.step, st, k, trace) is None:
                return
        report = _measure(ctx, run, "write", write_outputs, trace, out)
        if report is None:
            return
        run.sample("trace_bytes", (out / "trace.csv").stat().st_size
                   + (out / "swaps.csv").stat().st_size)
        if not report.l2_power_error < L2_POWER_TOL:
            run.fail(f"l2 power error {report.l2_power_error:.2e}")
        pass_hashes.append(hash_outputs(out))

    _repeat(ctx, one_pass)
    if ctx.tracer is not None:
        ctx.tracer.restore()        # the reference run is never traced

    golden = ctx.workload == "shipped" and ctx.seed == 0
    if golden:
        expected = json.loads(GOLDEN_FILE.read_text())
    else:
        try:
            expected = reference_hashes(config_path, ctx.work / "reference")
        except Exception:  # reported below as a mismatch of every pass
            traceback.print_exc(file=sys.stderr)
            expected = None
    source = "golden hashes" if golden else "reference dynamic-sim run"
    for i, got in enumerate(pass_hashes):
        if expected is None or got != expected:
            bad = [n for n in OUTPUT_FILES if expected is None or got[n] != expected[n]]
            run.fail(f"pass {i}: outputs differ from the {source}: {bad}")
    run.details["outputs_checked_against"] = source


RUNNERS = {
    "static-sweep": run_static_sweep,
    "validate": run_validate,
    "fleet-240": run_dynamic,
    "shipped": run_dynamic,
}


# ---------------------------------------------------------------------------
# Tracing: which attributes are wrapped, and the per-layer reduction
# ---------------------------------------------------------------------------

def _count_cells(tr, args, kwargs, result):
    tr.count("moments_cells", int(np.size(args[1])))


def _count_lloyd(tr, args, kwargs, result):
    t = result[0] if isinstance(result, tuple) else result
    tr.count("lloyd_iters", t.iterations)
    tr.count("lloyd_unconverged", int(not t.converged))


def _count_swaps(tr, args, kwargs, result):
    tr.count("swaps", len(result[1]))
    tr.count("agent_rounds", len(args[0].resources))


SHIFT = ("dynamic_alloc.one_step_update", "dynamic_alloc.shifted_mean",
         "dynamic_alloc.AllocationState")
DESIGN = ("thermal.sample_parameters", "thermal.build_continuous_model",
          "thermal.discretize_zoh", "thermal.design_controller",
          "thermal.equilibrium_state")
TRACE_WRITES = ("sim.write_trace_csv", "sim.write_swaps_csv")


def install(tracer) -> None:
    """Wrap the layer boundaries of every cvtalloc module."""
    p = tracer.patch
    p(dens, "interval_moments", "density.interval_moments", _count_cells)
    p(sa, "residual", "static_alloc.residual")
    p(sa, "solve", "static_alloc.solve")
    p(sa, "cross_validate", "static_alloc.cross_validate")
    p(tess, "lloyd", "tessellation.lloyd", _count_lloyd)
    p(dyn, "one_step_update", "dynamic_alloc.one_step_update")
    p(dyn, "shifted_mean", "dynamic_alloc.shifted_mean")
    # sim builds the phase-1 state through its own imported name.
    p(sim, "AllocationState", "dynamic_alloc.AllocationState")
    p(dyn, "negotiate_round", "dynamic_alloc.negotiate_round", _count_swaps)
    p(dyn, "rebuild_line_graph", "dynamic_alloc.rebuild_line_graph")
    for name in DESIGN:
        p(th, name.split(".")[1], name)
    p(th, "desired_power", "thermal.desired_power")
    p(th, "step_plant", "thermal.step_plant")
    p(sim, "initialize", "sim.initialize")
    p(sim, "step", "sim.step")
    p(sim, "metrics", "sim.metrics")
    p(sim.TraceLog, "write_trace_csv", "sim.write_trace_csv")
    p(sim.TraceLog, "write_swaps_csv", "sim.write_swaps_csv")
    p(cli, "_write_plot_data", "cli.write_plot_data")


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one recorded span around an empty function."""
    def noop():
        return None
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - t0 - bare, 0.0) / calls


def layer_metrics(spans, counters: dict, passes: int, span_cost: float) -> dict:
    """Per-module metrics per pass; a traced pass includes its set-up."""
    per = 1.0 / max(passes, 1)
    c = counters.get
    step_s = spans.inclusive("sim.step")
    shift = spans.inclusive(SHIFT, parent="sim.step")
    control = spans.inclusive("thermal.desired_power")
    negotiate = spans.inclusive("dynamic_alloc.negotiate_round")
    plant = spans.inclusive("thermal.step_plant")
    step_self = spans.self_total("sim.step")
    lloyd_iters = c("lloyd_iters", 0)
    rebuilds = spans.select("dynamic_alloc.rebuild_line_graph") & spans.under("sim.step")
    return {
        "density.moments_calls": spans.calls("density.interval_moments") * per,
        "density.moments_cells": c("moments_cells", 0) * per,
        "density.moments_s": spans.inclusive("density.interval_moments") * per,
        "static_alloc.solve_calls": spans.calls("static_alloc.solve") * per,
        "static_alloc.residual_evals": spans.calls("static_alloc.residual") * per,
        "static_alloc.residual_s": spans.inclusive("static_alloc.residual") * per,
        "static_alloc.solve_self_s": spans.self_total("static_alloc.solve") * per,
        "static_alloc.crossval_s": spans.inclusive("static_alloc.cross_validate") * per,
        "tessellation.lloyd_calls": spans.calls("tessellation.lloyd") * per,
        "tessellation.lloyd_iters": lloyd_iters * per,
        "tessellation.lloyd_us_per_iter": (1e6 * spans.inclusive("tessellation.lloyd")
                                           / lloyd_iters if lloyd_iters else 0.0),
        "tessellation.lloyd_unconverged": c("lloyd_unconverged", 0) * per,
        "dynamic_alloc.shift_s": shift * per,
        "dynamic_alloc.negotiate_calls": spans.calls("dynamic_alloc.negotiate_round") * per,
        "dynamic_alloc.negotiate_s": negotiate * per,
        "dynamic_alloc.graph_rebuilds": int(np.count_nonzero(rebuilds)) * per,
        "dynamic_alloc.swaps": c("swaps", 0) * per,
        "dynamic_alloc.swap_ratio": (c("swaps", 0) / c("agent_rounds")
                                     if c("agent_rounds") else 0.0),
        "thermal.design_s": spans.inclusive(DESIGN) * per,
        "thermal.control_calls": spans.calls("thermal.desired_power") * per,
        "thermal.control_s": control * per,
        "thermal.plant_calls": spans.calls("thermal.step_plant") * per,
        "thermal.plant_s": plant * per,
        "sim.initialize_s": spans.inclusive("sim.initialize") * per,
        "sim.step_s": step_s * per,
        "sim.step_self_s": step_self * per,
        # 1.0 when shift, control, negotiate, plant and the step's own code
        # account for all of sim.step.
        "sim.step_accounted": ((shift + control + negotiate + plant + step_self) / step_s
                               if step_s else 0.0),
        "sim.metrics_s": spans.inclusive("sim.metrics") * per,
        "sim.trace_write_s": spans.inclusive(TRACE_WRITES) * per,
        "sim.trace_bytes": c("trace_bytes", 0) * per,
        "cli.plot_write_s": spans.inclusive("cli.write_plot_data") * per,
        "trace.spans": len(spans) * per,
        "trace.overhead_s": len(spans) * span_cost * per,
    }


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------

def end_to_end(run: Run, peak_rss_mb: float) -> dict:
    per_unit = run.unit_medians()
    return {
        "setup_s": sum(per_unit.get(k, 0.0) for k in SETUP_UNITS),
        "total_s": sum(run.work_medians().values()),
        "op_ms.p50": 1e3 * median(run.op_medians()),
        "peak_rss_mb": peak_rss_mb,
    }


def details(workload: str, run: Run) -> dict:
    """The named measurements behind the end-to-end metrics, by workload."""
    per_unit = run.work_medians()
    out = {"passes": len(run.passes),
           "failed_frac": run.failed / max(run.attempted, 1),
           "raw_total_s": sum(run.work_medians(raw=True).values())}
    for n in inputs.STATIC_SIZES:
        times = [dt for k, dt in per_unit.items() if k.startswith(f"solve.n{n}.")]
        if times:
            out[f"solve_s.n{n}"] = median(times)
        if f"residual_evals.n{n}" in run.samples:
            out[f"residual_evals.n{n}"] = run.samples[f"residual_evals.n{n}"]
    if workload == "validate":
        out["validate_s"] = sum(per_unit.values())
        out["solve_s.n50"] = median([dt for k, dt in per_unit.items()
                                     if k.startswith("solve")])
        out["lloyd_unconverged"] = median(run.samples.get("lloyd_unconverged", [0]))
    if "write" in per_unit:
        out["write_s"] = per_unit["write"]
        out["trace_bytes"] = median(run.samples["trace_bytes"])
        steps_ms = 1e3 * np.asarray(run.op_medians())
        out["step_ms.p50"] = float(np.percentile(steps_ms, 50))
        tail = tail_percentile(steps_ms.size)
        if tail is not None and tail > 50:
            out[f"step_ms.p{tail:g}"] = float(np.percentile(steps_ms, tail))
        out["step_samples"] = int(steps_ms.size)
    out.update(run.details)
    return out


def execute(ctx: Context) -> tuple[Run, dict | None]:
    """Run one workload; with a tracer, also reduce its spans.  The run's
    work directory is removed afterwards."""
    run = Run()
    ctx.work.mkdir(parents=True, exist_ok=True)
    layers = None
    try:
        with HostSpeed() as ctx.speed:
            try:
                RUNNERS[ctx.workload](ctx, run)
            finally:
                if ctx.tracer is not None:
                    ctx.tracer.restore()
        run.scaled = [ctx.speed.scale(units) for units in run.passes]
        run.details["host_slowdown"] = ctx.speed.slowdown()
        if ctx.tracer is not None:
            for v in run.samples.get("trace_bytes", []):
                ctx.tracer.count("trace_bytes", v)
            layers = layer_metrics(ctx.tracer.spans(), ctx.tracer.counters,
                                   len(run.passes), span_cost_s())
            layers["trace.total_s"] = sum(run.work_medians().values())
            layers["trace.host_slowdown"] = ctx.speed.slowdown()
            ctx.tracer.save(ctx.work.parent / f"spans-{ctx.workload}.npz")
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return run, layers
