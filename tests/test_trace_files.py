"""The six ``dynamic-sim`` files against per-file writers, byte for byte,
and the trace's derived columns against the values a step computes.

``TraceLog.rows`` formats each z, applied-power and temperature value once
and every file reads that text; the oracle writers below format each value
where each file writes it, with ``%.15g``, and add the sums and squares of
``metrics`` and ``total_power.csv`` in explicit left-to-right loops.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import SHIPPED, TRACE_RUNS, fleet_config, undo_swaps
from test_sim import small_scenario

from cvtalloc import dynamic_alloc as dyn
from cvtalloc import sim
from cvtalloc.dynamic_alloc import AllocationState, rebuild_line_graph

FMT = "%.15g"
FILES = ("trace.csv", "swaps.csv", "metrics.json",
         "powers.csv", "total_power.csv", "temperatures.csv")


def left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_trace_csv(t, path):
    desired_abs, applied_power = t.desired_abs, t.applied_power
    sum_z, constraint_error = t.sum_z, t.constraint_error
    with open(path, "w", newline="") as fh:
        fh.write("step,agent,z,desired_abs,applied_power,temp_F,"
                 "sum_z,r,constraint_error\n")
        for k in range(len(t.r)):
            tail = ",".join(FMT % v for v in
                            (sum_z[k], t.r[k], constraint_error[k]))
            for i in range(t.n_agents):
                cols = (t.z[k][i], desired_abs[k][i],
                        applied_power[k][i], t.temp_F[k][i])
                fh.write(f"{k},{i}," + ",".join(FMT % float(v) for v in cols)
                         + f",{tail}\n")


def oracle_swaps_csv(t, path):
    """The resources before each swap from the values, not from text."""
    with open(path, "w", newline="") as fh:
        fh.write("step,proposer,target,z_proposer_before,z_target_before\n")
        for k, (z, pairs) in enumerate(zip(t.z, t.swaps)):
            for (p, q), (zp, zq) in zip(pairs.tolist(),
                                        undo_swaps(z, pairs).tolist()):
                fh.write(f"{k},{p},{q},{FMT % zp},{FMT % zq}\n")


def oracle_plot_data(t, out):
    header = "step," + ",".join(f"agent_{i}" for i in range(t.n_agents)) + "\n"
    for name, column in (("powers.csv", t.applied_power),
                         ("temperatures.csv", t.temp_F)):
        with open(out / name, "w", newline="") as fh:
            fh.write(header)
            for k, values in enumerate(column):
                fh.write(f"{k}," + ",".join(FMT % v for v in values.tolist())
                         + "\n")
    with open(out / "total_power.csv", "w", newline="") as fh:
        fh.write("step,total_consumed,available\n")
        for k, (powers, r) in enumerate(zip(t.applied_power, t.r)):
            total = left_to_right(abs(v) for v in powers.tolist())
            fh.write(f"{k},{FMT % total},{FMT % r}\n")


def oracle_metrics(t) -> dict:
    """sim.metrics with l2_power_error and temperature_rms_error from the
    per-value loops: Python's ** on each error, added left to right."""
    l2 = math.sqrt(left_to_right(e ** 2 for e in t.constraint_error))
    sq_err = left_to_right(
        (y - s) ** 2 for y, s in zip(np.ravel(t.temp_F).tolist(),
                                     np.ravel(t.setpoints).tolist()))
    rms = math.sqrt(sq_err / (len(t.r) * t.n_agents))
    return {**sim.metrics(t).to_dict(), "l2_power_error": l2,
            "temperature_rms_error": rms}


def write_oracle_files(t, out):
    out.mkdir()
    oracle_trace_csv(t, out / "trace.csv")
    oracle_swaps_csv(t, out / "swaps.csv")
    with open(out / "metrics.json", "w") as fh:
        json.dump(oracle_metrics(t), fh, indent=2)
    oracle_plot_data(t, out)


def assert_same_files(t, tmp_path):
    sim.write_outputs(t, tmp_path / "memo")
    write_oracle_files(t, tmp_path / "oracle")
    for name in FILES:
        assert ((tmp_path / "memo" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes()), name


def signed_trace() -> sim.TraceLog:
    """Four steps of four agents: negative resources, ±0, ±inf and NaN in
    both z and desired, every sign pattern of applied power (a desired -0
    gives +, NaN gives -), swaps over each step's own resources (±0 among
    them, and agents that swap twice), and one step without swaps."""
    z = [np.array([-30.4, -0.0, 0.0, 2999.999999999]),
         np.array([np.inf, -np.inf, 1.5, -2.25]),
         np.array([np.nan, -np.nan, -1.0, 0.1]),
         np.array([1e-300, 3.0, 7e22, 1.0 / 3.0])]
    desired = [np.array([0.5, -1e-17, -0.0, -12345.678]),
               np.array([-1.5, -np.inf, -1.0, -12346.678]),
               np.array([np.nan, -2.5, 2.0, 12347.678]),
               np.array([0.0, np.inf, 3.0, 12348.678])]
    picks = [[(0, 1), (2, 1), (3, 2)], [], [(1, 0), (0, 3)], [(2, 3)]]
    t = sim.TraceLog(n_agents=4)
    for k, (zk, dk, pk) in enumerate(zip(z, desired, picks)):
        t.z.append(zk)
        t.desired.append(dk)
        t.temp_F.append(np.array([71.5, 72.0, -3.25, 1e16]) - k)
        t.setpoints.append(np.full(4, 72.0))
        t.order.append(rebuild_line_graph(zk))
        t.r.append(4000.0 + k)
        t.swaps.append(np.array(pk, dtype=int).reshape(-1, 2))
    return t


@pytest.mark.parametrize("rounds", [1, 3], ids=["shipped", "shipped-rounds3"])
def test_shipped_runs_match_per_file_writers(rounds, tmp_path):
    sc = sim.Scenario.from_json(SHIPPED)
    assert_same_files(sim.run(sc.replace(rounds_per_step=rounds)),
                      tmp_path)


def test_signed_and_non_finite_values_match_per_file_writers(tmp_path):
    t = signed_trace()
    z_rows, power_rows, _ = t.rows()
    assert z_rows[0] == "-30.4,-0,0,2999.999999999"
    assert power_rows[1] == "-inf,inf,-1.5,2.25"
    assert (z_rows[2], power_rows[2]) == ("nan,nan,-1,0.1", "nan,nan,-1,0.1")
    # Step 1's +inf and -inf sum to NaN, which NumPy flags as invalid.
    with np.errstate(invalid="ignore"):
        assert_same_files(t, tmp_path)


def test_one_agent_run_matches_per_file_writers(tmp_path):
    t = sim.run(small_scenario(n_agents=1, setpoints=(72.0,),
                               power_schedule=(800.0,) * 20))
    assert all(len(s) == 0 for s in t.swaps)
    assert_same_files(t, tmp_path)


def test_memo_is_rebuilt_after_another_step(tmp_path):
    sc = small_scenario()
    st = sim.initialize(sc)
    t = sim.TraceLog(n_agents=sc.n_agents)
    sim.step(st, 0, t)
    first = t.rows()
    assert [len(rows) for rows in first] == [1, 1, 1]
    sim.step(st, 1, t)
    second = t.rows()
    assert [len(rows) for rows in second] == [2, 2, 2]
    assert [rows[0] for rows in second] == [rows[0] for rows in first]
    assert_same_files(t, tmp_path)


def test_memo_is_rebuilt_after_a_step_that_opens_a_block(tmp_path):
    # 204 steps of 5 agents fill a block of 1,024 values; step 204 opens
    # the next one.
    sc = small_scenario(horizon=205, power_schedule=(4000.0,) * 205)
    st = sim.initialize(sc)
    t = sim.TraceLog(n_agents=sc.n_agents)
    for k in range(204):
        sim.step(st, k, t)
    first = t.rows()
    assert sim._blocks(204, sc.n_agents) == [(0, 204)]
    sim.step(st, 204, t)
    second = t.rows()
    assert sim._blocks(205, sc.n_agents) == [(0, 204), (204, 205)]
    assert [len(rows) for rows in second] == [205] * 3
    assert [rows[:204] for rows in second] == list(first)
    assert_same_files(t, tmp_path)


def wide_trace(n=240, steps=40, seed=11) -> sim.TraceLog:
    """Random magnitudes over twelve decades with random signs, where a
    pairwise or compensated sum would round differently."""
    rng = np.random.default_rng(seed)
    t = sim.TraceLog(n_agents=n)
    for k in range(steps):
        z = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, n)
        t.z.append(z)
        magnitude = np.abs(rng.normal(size=n))
        t.desired.append(np.where(rng.random(n) < 0.5, -1.0, 1.0) * magnitude)
        t.temp_F.append(72.0 + rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, n))
        t.setpoints.append(np.full(n, 72.0))
        t.order.append(rebuild_line_graph(z))
        t.r.append(float(np.abs(z).sum()))
        t.swaps.append(rng.integers(0, n, (k % 5 * 30, 2)))
    return t


def test_wide_random_trace_matches_per_file_writers(tmp_path):
    assert_same_files(wide_trace(), tmp_path)


def test_empty_trace_writes_only_headers(tmp_path):
    # No steps: every writer writes its header alone, the plot writer's
    # totals over a (0, N) stack included; metrics refuses such a trace.
    t = sim.TraceLog(n_agents=3)
    memo, oracle = tmp_path / "memo", tmp_path / "oracle"
    memo.mkdir()
    oracle.mkdir()
    t.write_trace_csv(memo / "trace.csv")
    t.write_swaps_csv(memo / "swaps.csv")
    t.write_plot_data(memo)
    oracle_trace_csv(t, oracle / "trace.csv")
    oracle_swaps_csv(t, oracle / "swaps.csv")
    oracle_plot_data(t, oracle)
    assert t.rows() == ([], [], [])
    for name in FILES:
        if name != "metrics.json":
            text = (memo / name).read_bytes()
            assert text == (oracle / name).read_bytes(), name
            assert text.count(b"\n") == 1 and text.endswith(b"\n"), name


@pytest.mark.parametrize("n, steps, blocks", [
    (16, 133, [(0, 64), (64, 128), (128, 133)]),
    (1500, 3, [(0, 1), (1, 2), (2, 3)]),
    (16, 1, [(0, 1)]),
], ids=["partial-last-block", "one-step-per-block", "one-step"])
def test_block_edges_match_per_file_writers(n, steps, blocks, tmp_path):
    # 64 steps of 16 agents fill a block of 1,024 values; 1,500 agents
    # exceed one, so each step is a block of its own.
    assert sim._blocks(steps, n) == blocks
    assert_same_files(wide_trace(n, steps), tmp_path)


def spy_rounds(calls: list):
    """dyn.negotiate_round, recording each call's pre-round resources and
    the pairs it returned in ``calls``."""
    negotiate_round = dyn.negotiate_round

    def spy(state, desired):
        new, pairs = negotiate_round(state, desired)
        calls.append((state.resources, pairs))
        return new, pairs
    return spy


# Half-integers from -4 to 4 tie often, and -0.0 (drawn for -9) equals
# 0.0 with other bits.
half_values = st.integers(-9, 8).map(lambda k: -0.0 if k == -9 else k / 2.0)


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(half_values, min_size=n, max_size=n),
    st.lists(st.lists(half_values, min_size=n, max_size=n),
             min_size=1, max_size=4))))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_undoing_the_pairs_gives_each_swaps_pre_round_values(case):
    z0, rounds = case
    calls = []
    negotiate = spy_rounds(calls)
    state = AllocationState(z0, 0.0, 0.0)
    for desired in rounds:
        state, _ = negotiate(state, desired)
    pairs = np.concatenate([pairs for _, pairs in calls])
    want = np.concatenate([z[pairs] for z, pairs in calls])
    got = undo_swaps(state.resources, pairs)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("label", list(TRACE_RUNS))
def test_trace_keeps_the_pairs_each_round_returned(label, monkeypatch):
    calls = []
    monkeypatch.setattr(dyn, "negotiate_round", spy_rounds(calls))
    sc = sim.Scenario.from_config(TRACE_RUNS[label]())
    t = sim.run(sc)
    rounds = sc.rounds_per_step
    assert len(calls) == rounds * len(t.swaps)
    for k, (z, swaps) in enumerate(zip(t.z, t.swaps)):
        step = calls[k * rounds:(k + 1) * rounds]
        assert np.issubdtype(swaps.dtype, np.integer)
        assert np.array_equal(swaps,
                              np.concatenate([pairs for _, pairs in step]))
        before = np.concatenate([z_round[pairs] for z_round, pairs in step])
        assert np.array_equal(undo_swaps(z, swaps).view(np.int64),
                              before.view(np.int64))


def test_write_outputs_records_the_wall_time_of_each_part(tmp_path):
    sc = small_scenario()
    t = sim.run(sc)
    assert t.write_phase_s == {}
    assert sim.diagnostics(t, sc.domain)["write_phase_s"] == {}
    sim.write_outputs(t, tmp_path / "first")
    seconds = t.write_phase_s
    assert tuple(seconds) == sim.WRITE_PARTS
    assert all(v >= 0.0 for v in seconds.values())
    assert sim.diagnostics(t, sc.domain)["write_phase_s"] == seconds
    # A second write records new times and the same bytes.
    sim.write_outputs(t, tmp_path / "second")
    assert t.write_phase_s is not seconds
    for name in FILES:
        assert ((tmp_path / "first" / name).read_bytes()
                == (tmp_path / "second" / name).read_bytes()), name


def test_sum_of_squares_is_the_python_loop():
    rng = np.random.default_rng(5)
    x = rng.normal(size=200_000) * rng.choice([1e-9, 1.0, 1e9], 200_000)
    assert sim._sum_of_squares(x) == left_to_right(v ** 2 for v in x.tolist())
    # One value at a time, so that each square's last bit shows.
    singles = [sim._sum_of_squares(x[i:i + 1]) for i in range(20_000)]
    assert singles == [v ** 2 for v in x[:20_000].tolist()]


@pytest.mark.parametrize("config", [
    lambda: json.loads(SHIPPED.read_text()),
    lambda: fleet_config(240),
], ids=["shipped", "fleet-240"])
def test_sum_z_is_the_python_sum(config):
    # Every step's sum_z, and _left_sum of its z row, are float(sum(z)),
    # the Python loop the trace was first written with, bit for bit.
    t = sim.run(sim.Scenario.from_config(config()))
    for z, sum_z in zip(t.z, t.sum_z):
        assert sum_z.hex() == sim._left_sum(z).hex() == float(sum(z)).hex()


def stepwise_columns(t) -> dict:
    """The four derived columns as a step computed and appended them before
    the trace derived them: one step at a time, from its z, desired and r.
    The sum is the step's ``_left_sum`` of one row, not ``sum(z)``, which
    keeps the other operand's NaN when two NaNs meet."""
    columns = {"desired_abs": [], "applied_power": [], "sum_z": [],
               "constraint_error": []}
    for z, desired, r in zip(t.z, t.desired, t.r):
        sum_z = float(sim._left_sum(z))
        columns["desired_abs"].append(np.abs(desired))
        columns["applied_power"].append(np.where(desired >= 0, 1.0, -1.0) * z)
        columns["sum_z"].append(sum_z)
        columns["constraint_error"].append(abs(sum_z - r))
    return columns


@pytest.mark.parametrize("trace", [
    *(lambda config=config: sim.run(sim.Scenario.from_config(config()))
      for config in TRACE_RUNS.values()),
    signed_trace,
], ids=[*TRACE_RUNS, "signed"])
def test_derived_columns_are_the_stepwise_values(trace):
    # Bit for bit, NaN payloads and signs of zero included; the signed
    # trace's +inf and -inf in one step sum to NaN, which NumPy flags.
    t = trace()
    with np.errstate(invalid="ignore"):
        columns = {name: (getattr(t, name), want)
                   for name, want in stepwise_columns(t).items()}
    for name, (got, want) in columns.items():
        assert got.shape == np.shape(want), name
        assert np.array_equal(got.view(np.int64),
                              np.asarray(want).view(np.int64)), name


@pytest.mark.parametrize("z", [[-0.0], [-0.0] * 240, [-0.0, 0.0],
                               [0.0, -0.0], [-0.0, -1.5, 1.5], [-0.0, -1.5],
                               [-0.0, np.nan]])
def test_left_sum_keeps_the_integer_start(z):
    # sum starts from the integer 0, so z of -0.0 alone sums to +0.0.
    z = np.array(z)
    assert sim._left_sum(z).hex() == float(sum(z)).hex()


def test_left_sum_sums_each_row_of_a_stack():
    # Along the last axis, every row is the Python sum of that row, as
    # total_power.csv's totals are of each step's |applied power|.
    t = wide_trace()
    stack = np.abs(t.applied_power)
    totals = sim._left_sum(stack)
    assert totals.shape == (len(stack),)
    assert ([float(v).hex() for v in totals]
            == [float(sum(row)).hex() for row in stack])
    signed = np.array([[-0.0, -0.0], [-0.0, 0.0], [1.5, -1.5]])
    assert ([float(v).hex() for v in sim._left_sum(signed)]
            == [float(sum(row)).hex() for row in signed])
