"""cvtalloc benchmark: one seeded workload per invocation.

Usage, from the repository root::

    python3 bench/run.py --workload static-sweep --seed 0 --seconds 10 --trace 0

Workloads: static-sweep, validate, fleet-240, shipped (see bench/README.md).
The package is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run records spans around the
calls into each module and reports the per-layer metrics instead.  A fuller
record, with the environment and the named measurements behind each metric,
is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("static-sweep", "validate", "fleet-240", "shipped")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "op_ms.p50": "ms",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> float:
    """Import cvtalloc from this checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    if not (src / "cvtalloc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cvtalloc package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import cvtalloc
    import_s = time.perf_counter() - t0
    if Path(cvtalloc.__file__).resolve().parent != src / "cvtalloc":
        raise SystemExit(f"bench: imported cvtalloc from {cvtalloc.__file__}")
    return import_s


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:          # before numpy is first imported
        os.environ[var] = "1"
    import_s = import_package()

    import harness
    from tracer import Tracer

    work_root = ROOT / ".bench_work"
    ctx = harness.Context(root=ROOT, work=work_root / f"run-{os.getpid()}",
                          workload=args.workload, seed=args.seed,
                          seconds=args.seconds,
                          tracer=Tracer() if args.trace else None)
    run, layers = harness.execute(ctx)
    if not run.passes or not run.op_medians():
        print("bench: no complete pass was measured", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        e2e = harness.end_to_end(run, peak_rss_mb)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "first_import_s": import_s,
        "details": harness.details(args.workload, run), "metrics": metrics,
        "attempted": run.attempted, "failed": run.failed,
    }
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))

    print(f"# environment {json.dumps(record['environment'])}")
    for key, value in record["details"].items():
        print(f"# {key} = {value}")
    for key, m in metrics.items():
        print(f"{key:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_us_per_iter"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("dynamic_alloc.swap_ratio", "sim.step_accounted", "trace.host_slowdown"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
