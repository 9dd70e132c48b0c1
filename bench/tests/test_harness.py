"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import inputs  # noqa: E402
from cvtalloc import sim  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402


# -- percentile with at least ten samples beyond it -------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (144, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


# -- self time from nested spans --------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    names = ["root", "a", "b", "c"]
    spans = Spans(names, name_id=[0, 1, 2, 3], parent=[-1, 0, 0, 2],
                  start=[0.0, 1.0, 5.0, 6.0], end=[10.0, 4.0, 9.0, 7.0])
    assert spans.self_total("root") == pytest.approx(3.0)
    assert spans.self_total("a") == pytest.approx(3.0)
    assert spans.self_total("b") == pytest.approx(3.0)
    assert spans.self_total("c") == pytest.approx(1.0)
    assert sum(spans.self_total(n) for n in names) == pytest.approx(10.0)
    assert spans.inclusive(("a", "b"), parent="root") == pytest.approx(7.0)
    assert spans.inclusive("c", parent="root") == 0.0
    assert list(spans.under("b")) == [False, False, False, True]
    assert list(spans.under("root")) == [False, True, True, True]


def test_tracer_records_parents_and_restores():
    mod = SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) + mod.leaf(x)   # looks leaf up late

    tracer = Tracer()
    original = mod.outer
    tracer.patch(mod, "leaf", "leaf")
    tracer.patch(mod, "outer", "outer", lambda tr, a, k, r: tr.count("calls"))
    assert mod.outer(1) == 4
    tracer.restore()
    assert mod.outer is original
    spans = tracer.spans()
    assert spans.calls("outer") == 1 and spans.calls("leaf", parent="outer") == 2
    assert tracer.counters == {"calls": 1}
    total = spans.inclusive("outer")
    assert spans.self_total("outer") + spans.inclusive("leaf") == pytest.approx(total)


# -- host-speed scaling ------------------------------------------------------

def test_host_speed_scales_by_kernel_time_around_the_unit():
    speed = harness.HostSpeed()
    ref = harness.CAL_REF_S
    speed.at = [0.0, 1.0, 2.0, 3.0]
    speed.kernel_s = [ref, ref, 2 * ref, 2 * ref]
    scaled = speed.scale([("fast", 0.9, 1.1, 0.2), ("slow", 2.9, 3.1, 0.4)])
    assert scaled["fast"] == pytest.approx(0.2)
    assert scaled["slow"] == pytest.approx(0.2)


# -- seeded inputs -----------------------------------------------------------

def test_generators_are_deterministic_per_seed():
    base = inputs.load_shipped(ROOT)
    for seed in (0, 1, 7):
        assert inputs.static_sweep(seed) == inputs.static_sweep(seed)
        assert inputs.validate(seed) == inputs.validate(seed)
        assert inputs.shipped(seed, base) == inputs.shipped(seed, base)
        assert inputs.fleet(seed, base, 240) == inputs.fleet(seed, base, 240)
    assert inputs.static_sweep(1) != inputs.static_sweep(2)
    assert inputs.validate(1) != inputs.validate(2)
    assert inputs.fleet(1, base, 240)["seed"] != inputs.fleet(2, base, 240)["seed"]


def test_seed_zero_reproduces_the_repository_inputs():
    base = inputs.load_shipped(ROOT)
    assert {"n": 50, "r": 2500.0} in inputs.static_sweep(0)
    rs = [(c["family"], c["domain"], c["r"]) for c in inputs.validate(0)]
    assert rs == [("gaussian", (0.0, 100.0), 2500.0), ("gaussian", (0.0, 100.0), 1500.0),
                  ("gaussian", (0.0, 100.0), 1500.0), ("gamma", (0.0, 300.0), 5000.0),
                  ("exponential", (0.0, 300.0), 5000.0), ("gaussian", (0.0, 300.0), 5000.0)]
    assert inputs.shipped(0, base) == json.loads((ROOT / inputs.SHIPPED_SCENARIO).read_text())
    assert inputs.fleet(0, base, 240)["seed"] == base["seed"]


@pytest.mark.parametrize("seed", range(0, 20))
def test_generated_scenarios_are_valid(seed):
    base = inputs.load_shipped(ROOT)
    for cfg in (inputs.shipped(seed, base), inputs.fleet(seed, base, 240)):
        sc = sim.Scenario.from_config(cfg)
        assert len(sc.setpoints) == sc.n_agents
        assert all(0 <= agent < sc.n_agents for _, agent, _ in sc.setpoint_changes)
    for spec in inputs.static_sweep(seed):
        harness._static_problem(spec)
    for spec in inputs.validate(seed):
        harness._validate_problem(spec)


# -- tracing does not change the outputs -------------------------------------

def _shipped_hashes(tmp_path: Path, tracer=None) -> dict:
    cfg = inputs.shipped(0, inputs.load_shipped(ROOT))
    if tracer is not None:
        harness.install(tracer)
    try:
        st = sim.initialize(sim.Scenario.from_config(cfg))
        trace = sim.TraceLog(n_agents=st.scenario.n_agents)
        for k in range(st.scenario.horizon):
            sim.step(st, k, trace)
        harness.write_outputs(trace, tmp_path)
    finally:
        if tracer is not None:
            tracer.restore()
    return harness.hash_outputs(tmp_path)


def test_traced_run_outputs_are_byte_identical(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = _shipped_hashes(tmp_path / "plain")
    tracer = Tracer()
    traced = _shipped_hashes(tmp_path / "traced", tracer)
    assert traced == plain
    assert plain == json.loads(harness.GOLDEN_FILE.read_text())
    spans = tracer.spans()
    assert spans.calls("sim.step") == 144
    assert spans.calls("thermal.step_plant") == 144 * 15
    assert not hasattr(sim.step, "__wrapped__")
    layers = harness.layer_metrics(spans, tracer.counters, 1, 0.0)
    assert layers["sim.step_accounted"] == pytest.approx(1.0)
    assert layers["dynamic_alloc.negotiate_calls"] == 144
    assert np.isfinite(list(layers.values())).all()
