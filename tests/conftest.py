import sys

import pytest


@pytest.fixture(scope="session")
def acceptance3_problems():
    """The six Acceptance-3 problems: a list of (label, problem)."""
    from cvtalloc.density import DensitySpec
    from cvtalloc.static_alloc import StaticProblem
    from cvtalloc.tessellation import Domain1D

    dom_100 = Domain1D(0.0, 100.0)
    dom_300 = Domain1D(0.0, 300.0)
    return [
        ("gauss s2=4 r=2500",
         StaticProblem(dom_100, 50, DensitySpec(
             "gaussian", {"sigma2": 4.0}, free_param="mu"), 2500.0)),
        ("gauss s2=4 r=1500",
         StaticProblem(dom_100, 50, DensitySpec(
             "gaussian", {"sigma2": 4.0}, free_param="mu"), 1500.0)),
        ("gauss s2=25 r=1500",
         StaticProblem(dom_100, 50, DensitySpec(
             "gaussian", {"sigma2": 25.0}, free_param="mu"), 1500.0)),
        ("gamma free-k theta=20",
         StaticProblem(dom_300, 50, DensitySpec(
             "gamma", {"theta": 20.0}, free_param="k"), 5000.0)),
        ("exponential free-lam",
         StaticProblem(dom_300, 50, DensitySpec(
             "exponential", {}, free_param="lam"), 5000.0)),
        ("gauss s2=100 r=5000",
         StaticProblem(dom_300, 50, DensitySpec(
             "gaussian", {"sigma2": 100.0}, free_param="mu"), 5000.0)),
    ]


@pytest.fixture(scope="session")
def acceptance3_runs(acceptance3_problems):
    """The six Acceptance-3 problems, each solved and cross-validated against
    Lloyd once per session: a list of (label, problem, report, the
    Tessellation of the report's Lloyd run)."""
    from cvtalloc import static_alloc as sa
    from cvtalloc import tessellation as tess

    real, runs = tess.lloyd, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tess, "lloyd",
                   lambda *args, **kw: runs.append(real(*args, **kw)) or runs[-1])
        reports = [(label, p, sa.cross_validate(sa.solve(p), p))
                   for label, p in acceptance3_problems]
    assert len(runs) == len(reports)
    return [(*report, t) for report, t in zip(reports, runs)]


@pytest.fixture(scope="session")
def acceptance3_reports(acceptance3_runs):
    """(label, problem, report) of each acceptance3_runs run."""
    return [run[:3] for run in acceptance3_runs]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one PASS/FAIL line per acceptance criterion after the run.

    The lines live in the test_acceptance module that pytest collected and
    ran; importing it again here would load a second copy with none."""
    lines = []
    for name in ("test_acceptance", "tests.test_acceptance"):
        lines += getattr(sys.modules.get(name), "VERDICT_LINES", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(lines):
        terminalreporter.write_line(line)
