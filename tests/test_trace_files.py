"""The six ``dynamic-sim`` files against per-file writers, byte for byte.

``TraceLog.rows`` formats each z, applied-power and temperature value once
and every file reads that text; the oracle writers below format each value
where each file writes it, with ``%.15g``, and add the sums and squares of
``metrics`` and ``total_power.csv`` in explicit left-to-right loops.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from test_golden import SHIPPED, fleet_config
from test_sim import small_scenario

from cvtalloc import cli, sim
from cvtalloc.dynamic_alloc import rebuild_line_graph

FMT = "%.15g"
FILES = ("trace.csv", "swaps.csv", "metrics.json",
         "powers.csv", "total_power.csv", "temperatures.csv")


def left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_trace_csv(t, path):
    with open(path, "w", newline="") as fh:
        fh.write("step,agent,z,desired_abs,applied_power,temp_F,"
                 "sum_z,r,constraint_error\n")
        for k in range(len(t.r)):
            tail = ",".join(FMT % v for v in
                            (t.sum_z[k], t.r[k], t.constraint_error[k]))
            for i in range(t.n_agents):
                cols = (t.z[k][i], t.desired_abs[k][i],
                        t.applied_power[k][i], t.temp_F[k][i])
                fh.write(f"{k},{i}," + ",".join(FMT % float(v) for v in cols)
                         + f",{tail}\n")


def oracle_swaps_csv(t, path):
    with open(path, "w", newline="") as fh:
        fh.write("step,proposer,target,z_proposer_before,z_target_before\n")
        for k, swaps in enumerate(t.swaps):
            for p, q, zp, zq in swaps.tolist():
                fh.write(f"{k},{int(p)},{int(q)},{FMT % zp},{FMT % zq}\n")


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


def write_files(t, out):
    """The six files as ``dynamic-sim`` writes them."""
    out.mkdir()
    report = sim.metrics(t)
    t.write_trace_csv(out / "trace.csv")
    t.write_swaps_csv(out / "swaps.csv")
    with open(out / "metrics.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    cli._write_plot_data(t, out)


def write_oracle_files(t, out):
    out.mkdir()
    oracle_trace_csv(t, out / "trace.csv")
    oracle_swaps_csv(t, out / "swaps.csv")
    with open(out / "metrics.json", "w") as fh:
        json.dump(oracle_metrics(t), fh, indent=2)
    oracle_plot_data(t, out)


def assert_same_files(t, tmp_path):
    write_files(t, tmp_path / "memo")
    write_oracle_files(t, tmp_path / "oracle")
    for name in FILES:
        assert ((tmp_path / "memo" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes()), name


def signed_trace() -> sim.TraceLog:
    """Four steps of four agents: negative resources, ±0, ±inf and NaN, every
    sign pattern of applied power, swaps from each step's own resources
    (±0 among them), and one step without swaps."""
    z = [np.array([-30.4, -0.0, 0.0, 2999.999999999]),
         np.array([np.inf, -np.inf, 1.5, -2.25]),
         np.array([np.nan, -np.nan, -1.0, 0.1]),
         np.array([1e-300, 3.0, 7e22, 1.0 / 3.0])]
    signs = [np.array([1.0, -1.0, 1.0, -1.0]), -np.ones(4),
             np.array([-1.0, -1.0, 1.0, 1.0]), np.ones(4)]
    picks = [[(0, 1), (2, 1), (3, 2)], [], [(1, 0), (0, 3)], [(2, 3)]]
    t = sim.TraceLog(n_agents=4)
    for k, (zk, sk, pk) in enumerate(zip(z, signs, picks)):
        t.z.append(zk)
        t.desired_abs.append(np.array([0.5, 1e-17, -0.0, 12345.678]) + k)
        t.applied_power.append(sk * zk)
        t.temp_F.append(np.array([71.5, 72.0, -3.25, 1e16]) - k)
        t.setpoints.append(np.full(4, 72.0))
        t.order.append(rebuild_line_graph(zk))
        t.r.append(4000.0 + k)
        t.sum_z.append(4000.0 + k + 1e-9)
        t.constraint_error.append(abs(0.1 * k))
        pairs = np.array(pk, dtype=float).reshape(-1, 2)
        before = zk[pairs.astype(int)]
        t.swaps.append(np.concatenate([pairs, before], axis=1))
    return t


@pytest.mark.parametrize("rounds", [1, 3], ids=["shipped", "shipped-rounds3"])
def test_shipped_runs_match_per_file_writers(rounds, tmp_path):
    sc = sim.Scenario.from_json(SHIPPED)
    assert_same_files(sim.run(replace(sc, rounds_per_step=rounds)),
                      tmp_path)


def test_signed_and_non_finite_values_match_per_file_writers(tmp_path):
    t = signed_trace()
    z_rows, power_rows, _ = t.rows()
    assert z_rows[0] == "-30.4,-0,0,2999.999999999"
    assert power_rows[1] == "-inf,inf,-1.5,2.25"
    assert (z_rows[2], power_rows[2]) == ("nan,nan,-1,0.1", "nan,nan,-1,0.1")
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


def wide_trace(n=240, steps=40, seed=11) -> sim.TraceLog:
    """Random magnitudes over twelve decades with random signs, where a
    pairwise or compensated sum would round differently."""
    rng = np.random.default_rng(seed)
    t = sim.TraceLog(n_agents=n)
    for k in range(steps):
        z = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, n)
        t.z.append(z)
        t.desired_abs.append(np.abs(rng.normal(size=n)))
        t.applied_power.append(np.where(rng.random(n) < 0.5, -1.0, 1.0) * z)
        t.temp_F.append(72.0 + rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, n))
        t.setpoints.append(np.full(n, 72.0))
        t.order.append(rebuild_line_graph(z))
        t.r.append(float(np.abs(z).sum()))
        t.sum_z.append(float(z.sum()))
        t.constraint_error.append(float(rng.random()))
        pairs = rng.integers(0, n, (k % 5 * 30, 2)).astype(float)
        t.swaps.append(np.concatenate([pairs, z[pairs.astype(int)]], axis=1))
    return t


def test_wide_random_trace_matches_per_file_writers(tmp_path):
    assert_same_files(wide_trace(), tmp_path)


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
