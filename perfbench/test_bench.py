"""Self-tests of the benchmark harness.

Run with: python3 -m pytest perfbench/test_bench.py
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402  (puts src/ on sys.path)
from spans import STEP_SPAN, Tracer  # noqa: E402

from robustcbf import RobotState, WheelCommand, ensemble_weight, filter_step  # noqa: E402
from robustcbf.cli import load_config  # noqa: E402

SCENARIO = workloads.SCENARIO


def _coincident_pair():
    states = [RobotState(0.1, 0.2, 0.3), RobotState(0.1, 0.2, 0.3)]
    commands = [WheelCommand(5.0, 5.0), WheelCommand(5.0, 5.0)]
    return states, commands, np.array([5.0, 5.0, 5.0, 5.0])


def test_coincident_robots_count_as_failed_not_crashed():
    fcfg = load_config(SCENARIO).filter_config()
    weight = ensemble_weight(2, fcfg.geometry)
    states, commands, nominal = _coincident_pair()
    for cfg in (fcfg, replace(fcfg, fallback="error")):
        _, _, reasons = workloads.solve_checked(filter_step, states, commands, nominal, cfg, weight)
        assert reasons, f"coincident robots passed the checks with fallback={cfg.fallback}"


def test_coincident_robots_fail_the_replay_tally():
    fcfg = load_config(SCENARIO).filter_config()
    pool = [_coincident_pair()]
    tally = workloads.Tally()
    times, _, _ = workloads.replay_passes(pool, fcfg, seconds=0.0, tally=tally)
    assert tally.attempted == times.size == workloads.MIN_PASSES
    assert tally.failed == tally.attempted


def test_missing_hook_target_is_reported_not_measured():
    tracer = Tracer()
    tracer.patch("robustcbf.sim", "no_such_function", "sim.missing")
    tracer.patch("robustcbf.no_such_module", "solve", "qp.missing")
    workloads.install_hooks(tracer)
    tracer.restore()
    assert tracer.not_measured == ["robustcbf.sim.no_such_function", "robustcbf.no_such_module.solve"]
    metrics = workloads.layer_metrics(tracer)
    assert metrics["sim.step_ms_p50"] == 0.0


def test_hooks_restore_the_original_names():
    import robustcbf.qp
    import robustcbf.sim

    before = (robustcbf.sim.filter_step, robustcbf.qp.solve)
    with Tracer() as tracer:
        workloads.install_hooks(tracer)
        assert robustcbf.sim.filter_step is not before[0]
    assert (robustcbf.sim.filter_step, robustcbf.qp.solve) == before


def test_traced_replay_records_nested_spans():
    fcfg = load_config(SCENARIO).filter_config()
    pool = workloads.replay_objects(seed=3, size=2)
    tracer = Tracer()
    workloads.install_hooks(tracer)
    try:
        workloads.replay_passes(pool, fcfg, 0.0, workloads.Tally(), min_passes=1,
                                step_fn=workloads.traced_filter_step(tracer))
    finally:
        tracer.restore()
    metrics = workloads.layer_metrics(tracer)
    assert tracer.durations(STEP_SPAN).size == len(pool)
    assert metrics["barrier.rows"] == 231
    assert metrics["qp.iterations_mean"] > 0
    assert 0.0 < metrics["barrier.assemble_ms"] < metrics["safety_filter.filter_ms_p99"]


def test_replay_inputs_are_seeded_and_safe():
    a_poses, a_cmds = inputs.replay_snapshot(5, 7)
    b_poses, b_cmds = inputs.replay_snapshot(5, 7)
    assert np.array_equal(a_poses, b_poses) and np.array_equal(a_cmds, b_cmds)
    assert not np.array_equal(a_poses, inputs.replay_snapshot(6, 7)[0])
    assert inputs.pair_h(a_poses).min() > 0.0
    assert np.abs(a_cmds).max() <= inputs.U_MAX + 1e-12


def test_union_hulls_are_seeded_and_inside_the_box():
    hulls = inputs.union_hulls(11)
    assert [h.shape for h in hulls] == [(inputs.HULL_VERTICES, 2)] * inputs.HULLS
    assert all(np.abs(h).max() <= inputs.PSI for h in hulls)
    assert all(np.array_equal(a, b) for a, b in zip(hulls, inputs.union_hulls(11)))


def test_closed_loop_figures_take_medians_over_calls():
    calls = {"rate": [100.0, 50.0, 200.0],
             "wct": [np.array([1.0, 3.0]), np.array([2.0, 6.0]), np.array([0.5, 9.0])]}
    rate, per_step = workloads.closed_loop_figures(calls)
    assert rate == 100.0
    assert np.array_equal(per_step, [1.0, 6.0])


def test_step_midpoints_spread_the_rest_of_the_call_evenly():
    midpoints = workloads.step_midpoints(10.0, np.array([1.0, 3.0]))
    assert np.allclose(midpoints, [2.0, 7.0])


def test_replay_figures_drop_the_checked_pass():
    times = np.array([[9.0, 9.0], [1.0, 2.0], [2.0, 2.0], [4.0, 8.0]])
    assert np.array_equal(workloads.replay_figures(times), [2.0, 2.0])


def test_host_speed_takes_its_samples_out_of_the_timed_interval():
    with calibrate.HostSpeed() as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * calibrate.PERIOD_S:
            pass
        end = time.perf_counter()
    assert len(host.samples) >= 4 and host.speed() > 0.0
    inside = sum(b - a for a, b in host.intervals[1:-1])
    assert np.isclose(host.program_time(start, end), end - start - inside)
    spans = np.array([start, end])
    assert np.allclose(host.program_time(spans, spans), 0.0)


def test_scaled_time_is_proportional_to_program_time():
    host = calibrate.HostSpeed()
    host.samples = [calibrate.REFERENCE_S, calibrate.REFERENCE_S]
    assert host.speed() == 1.0
    host.samples = [2.0 * calibrate.REFERENCE_S]
    assert host.speed() == 0.5
    assert host.scaled(1.0, 3.0) == 1.0


def test_speed_at_interpolates_between_samples_on_the_program_clock():
    host = calibrate.HostSpeed()
    host.samples = [calibrate.REFERENCE_S, 0.5 * calibrate.REFERENCE_S]
    host.intervals = [(9.0, 10.0), (12.0, 13.0)]  # program-time middles 0 and 2
    assert np.allclose(host.speed_at(9.5, [-1.0, 0.0, 1.0, 2.0, 5.0]), [1.0, 1.0, 1.5, 2.0, 2.0])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
