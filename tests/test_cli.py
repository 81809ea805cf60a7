import dataclasses
import json
import math
import re

import numpy as np
import pytest
import yaml

from robustcbf import cli, sim
from robustcbf import (
    HullUnion,
    aggregate_metrics,
    assemble_constraints,
    circle_init,
    zero_union,
)
from robustcbf.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    load_config,
    main,
    run_command,
    trace_command,
)

from .conftest import SCENARIO_DIR


def write_scenario(tmp_path, body, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(body)
    return path


MINIMAL = """
robots:
  count: 2
sim:
  duration: 0.2
"""

# MINIMAL with every optional key spelled out at its documented default.
ALL_DEFAULTS = """
robots:
  count: 2
  wheel_radius: 0.016
  base_length: 0.105
  look_ahead: 0.03
barrier:
  delta: 0.12
  gamma: 150.0
disturbance:
  psi: 5.0
sim:
  duration: 0.2
  dt: 0.005
  radius: 0.6
  seed: 0
  iterations: 1
  plant_disturbance: off
  plant_vertex: 0
  gain: 1.0
  goal_tolerance: 0.05
  integrator: euler
  debug_checks: false
filter:
  u_max: 25.0
  fallback: slack
  slack_weight: 1.0e+6
"""

# Files the loader refuses, keyed by the text its error names: values that
# used to load and then fail mid-run, or run something other than what the
# file says, and files or sections of the wrong shape.  Each file appends a
# line to MINIMAL's last section or a section of its own, or stands alone.
INVALID = {
    "fallback": MINIMAL + "filter:\n  fallback: bogus\n",
    "u_max": MINIMAL + "filter:\n  u_max: -1\n",
    "slack_weight": MINIMAL + "filter:\n  slack_weight: 0\n",
    "plant_vertex": MINIMAL + "  plant_vertex: 9\n",
    "count": MINIMAL.replace("count: 2", "count: 2.7"),
    "iterations": MINIMAL + "  iterations: 1.9\n",
    "debug_checks": MINIMAL + "  debug_checks: 'no'\n",
    "seed": MINIMAL + "  seed: -1\n",
    "dt": MINIMAL + "  dt: 1" + "0" * 400 + "\n",
    # Clears n delta / 2 pi = 0.420 m, but circle_init needs about 0.452 m.
    "radius": "robots:\n  count: 22\nsim:\n  duration: 0.05\n  radius: 0.43\n",
    "disturbance.hulls": MINIMAL + "disturbance:\n  hulls: []\n",
    "disturbance.hulls[0]": MINIMAL + "disturbance:\n  hulls:\n    - points: [[0, 0]]\n",
    "disturbance.hulls[1].vertices": (
        MINIMAL + "disturbance:\n  hulls:\n    - vertices: [[0, 0]]\n    - vertices: [[0, 0], [1]]\n"
    ),
    "robots.count is required": "",
    "mapping of sections": "- robots\n- sim\n",
    "section 'robots'": "robots: 3\nsim:\n  duration: 0.2\n",
}


def config_fields(cfg):
    """The init fields of a ScenarioConfig, hull unions as vertex lists;
    what construction derives from them is left out."""
    out = {}
    for spec in filter(lambda spec: spec.init, dataclasses.fields(cfg)):
        value = getattr(cfg, spec.name)
        if isinstance(value, HullUnion):
            value = [hull.vertices.tolist() for hull in value.hulls]
        out[spec.name] = value
    return out


SMALL_RUN = """
robots:
  count: 2
barrier:
  delta: 0.12
  gamma: 150.0
disturbance:
  psi: 2.0
sim:
  dt: 0.005
  duration: 0.5
  radius: 0.6
  seed: 9
  iterations: 2
  plant_disturbance: uniform-convex
filter:
  u_max: 25.0
  fallback: slack
"""


class TestLoadConfig:
    def test_minimal_file_applies_testbed_defaults(self, tmp_path):
        cfg = load_config(write_scenario(tmp_path, MINIMAL))
        assert cfg.robot_count == 2
        assert cfg.sim_duration == 0.2
        assert cfg.geometry.wheel_radius == 0.016
        assert cfg.geometry.base_length == 0.105
        assert cfg.geometry.look_ahead == 0.03
        assert cfg.barrier.delta == 0.12
        assert cfg.barrier.gamma == 150.0
        assert cfg.u_max == 25.0
        assert cfg.dt == 0.005
        np.testing.assert_array_equal(
            cfg.disturbance.hulls[0].vertices,
            [[5.0, 5.0], [5.0, -5.0], [-5.0, 5.0], [-5.0, -5.0]],
        )

    def test_negative_psi_rejected_with_field_name(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL + "disturbance:\n  psi: -1\n")
        with pytest.raises(ConfigError, match="disturbance.psi"):
            load_config(path)

    def test_shipped_circle22_scenario(self):
        cfg = load_config(SCENARIO_DIR / "circle22.yaml")
        assert cfg.robot_count == 22
        assert cfg.barrier.gamma == 150.0
        assert cfg.barrier.delta == 0.12
        assert cfg.u_max == 25.0
        assert cfg.iterations == 20
        assert cfg.plant_disturbance == "worst-case"
        box = cfg.disturbance.hulls[0].vertices
        assert np.abs(box).max() == 5.0

    def test_unknown_section_and_key_are_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write_scenario(tmp_path, MINIMAL + "turbo:\n  x: 1\n"))
        with pytest.raises(ConfigError, match="unknown key robots.color"):
            load_config(
                write_scenario(tmp_path, "robots:\n  count: 2\n  color: red\nsim:\n  duration: 1.0\n")
            )

    def test_parse_error_reports_position(self, tmp_path):
        path = write_scenario(tmp_path, "robots:\n  count: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)
        path = write_scenario(tmp_path, MINIMAL + "  dt: 0.01\n   gain: 2\n")
        with pytest.raises(ConfigError, match="at line 7, column 8"):
            load_config(path)

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="robots.count"):
            load_config(write_scenario(tmp_path, "sim:\n  duration: 1.0\n"))
        with pytest.raises(ConfigError, match="sim.duration"):
            load_config(write_scenario(tmp_path, "robots:\n  count: 2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_explicit_vertex_hulls(self, tmp_path):
        body = MINIMAL + (
            "disturbance:\n"
            "  hulls:\n"
            "    - vertices: [[1.0, 0.0], [0.0, 1.0]]\n"
            "    - vertices: [[2.0, 2.0]]\n"
        )
        cfg = load_config(write_scenario(tmp_path, body))
        assert cfg.disturbance.size == 2
        assert cfg.disturbance.hulls[0].size == 2
        assert cfg.disturbance.hulls[1].size == 1

    def test_psi_and_hulls_conflict(self, tmp_path):
        body = MINIMAL + "disturbance:\n  psi: 1.0\n  hulls:\n    - vertices: [[0, 0]]\n"
        with pytest.raises(ConfigError, match="either psi or hulls"):
            load_config(write_scenario(tmp_path, body))

    def test_invariant_violations_surface_field_names(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma"):
            load_config(write_scenario(tmp_path, MINIMAL + "barrier:\n  gamma: -5\n"))
        with pytest.raises(ConfigError, match="circle_radius"):
            load_config(
                write_scenario(
                    tmp_path,
                    "robots:\n  count: 22\nsim:\n  duration: 1.0\n  radius: 0.1\n",
                )
            )

    def test_zero_look_ahead_rejected_at_load(self, tmp_path):
        body = "robots:\n  count: 2\n  look_ahead: 0.0\nsim:\n  duration: 1.0\n"
        with pytest.raises(ConfigError, match="look_ahead"):
            load_config(write_scenario(tmp_path, body))

    def test_every_key_at_its_default_loads_as_minimal(self, tmp_path):
        full = load_config(write_scenario(tmp_path, ALL_DEFAULTS, "full.yaml"))
        minimal = load_config(write_scenario(tmp_path, MINIMAL, "minimal.yaml"))
        bare = load_config(write_scenario(tmp_path, MINIMAL + "barrier:\n", "bare.yaml"))
        assert config_fields(full) == config_fields(minimal) == config_fields(bare)

    @pytest.mark.parametrize("key", sorted(INVALID))
    def test_invalid_value_is_config_error_naming_the_key(self, tmp_path, key):
        path = write_scenario(tmp_path, INVALID[key])
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path)
        assert run_command(path, tmp_path / "out", mode="robust") == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_integral_number_accepted_for_integer_key(self, tmp_path):
        cfg = load_config(write_scenario(tmp_path, MINIMAL.replace("count: 2", "count: 2.0")))
        assert cfg.robot_count == 2 and isinstance(cfg.robot_count, int)

    def test_string_and_boolean_keys_reject_other_types(self, tmp_path):
        with pytest.raises(ConfigError, match="sim.integrator: expected str"):
            load_config(write_scenario(tmp_path, MINIMAL + "  integrator: 4\n"))
        with pytest.raises(ConfigError, match="sim.debug_checks: expected bool"):
            load_config(write_scenario(tmp_path, MINIMAL + "  debug_checks: 1\n"))


def union_scenario(seed=5, hulls=3, vertices=256) -> str:
    """A scenario with seeded float vertex lists, written by PyYAML."""
    rng = np.random.default_rng(seed)
    body = yaml.safe_load(MINIMAL)
    body["disturbance"] = {
        "hulls": [{"vertices": rng.normal(size=(vertices, 2)).tolist()} for _ in range(hulls)]
    }
    return yaml.safe_dump(body)


LOADER_FIXTURES = {
    "minimal": MINIMAL,
    "all-defaults": ALL_DEFAULTS,
    "small-run": SMALL_RUN,
    "union": union_scenario(),
    **{f"invalid-{key}": body for key, body in INVALID.items()},
}


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestLibyamlLoader:
    """load_config parses with libyaml's CSafeLoader when PyYAML has it;
    every scenario must come out as under the pure-Python SafeLoader."""

    def load_both(self, path, monkeypatch):
        results = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(cli, "_YAML_LOADER", loader)
            try:
                results.append(config_fields(load_config(path)))
            except ConfigError as exc:
                results.append(f"ConfigError: {exc}")
        return results

    def test_loader_in_use_is_libyaml(self):
        assert cli._YAML_LOADER is yaml.CSafeLoader

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_scenarios_load_the_same(self, path, monkeypatch):
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
        csafe, safe = self.load_both(path, monkeypatch)
        assert csafe == safe

    @pytest.mark.parametrize("name", sorted(LOADER_FIXTURES))
    def test_fixtures_load_the_same(self, name, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, LOADER_FIXTURES[name])
        csafe, safe = self.load_both(path, monkeypatch)
        assert csafe == safe
        if not name.startswith("invalid"):
            assert isinstance(csafe, dict)


class TestRunCommand:
    def test_run_writes_metrics_and_summary(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert run_command(scenario, out, mode="robust") == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert files == ["metrics_00.csv", "metrics_01.csv", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "avg_wct_ms",
            "var_wct_ms2",
            "avg_freq_hz",
            "violation_time_s",
            "goal_completion",
        }

    def test_summary_recomputable_from_records(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert run_command(scenario, out, mode="robust") == EXIT_OK
        wct, min_h = [], []
        for name in ("metrics_00.csv", "metrics_01.csv"):
            rows = (out / name).read_text().strip().splitlines()
            assert rows[0] == "t,min_h,wct_s,max_alter"
            body = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
            assert body.shape[0] == 100
            min_h.append(body[:, 1])
            wct.append(body[:, 2])
        wct = np.concatenate(wct)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["avg_wct_ms"] == pytest.approx(wct.mean() * 1e3, abs=1e-9)
        assert summary["var_wct_ms2"] == pytest.approx(wct.var() * 1e6, abs=1e-9)
        assert summary["avg_freq_hz"] == pytest.approx(1.0 / wct.mean(), rel=1e-9)
        violation = 0.005 * sum(int((m < 0).sum()) for m in min_h)
        assert summary["violation_time_s"] == pytest.approx(violation, abs=1e-12)

    def test_both_mode_writes_comparison(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert run_command(scenario, out, mode="both") == EXIT_OK
        assert (out / "robust" / "summary.json").is_file()
        assert (out / "non_robust" / "summary.json").is_file()
        compare = json.loads((out / "compare.json").read_text())
        assert set(compare) == {"robust", "non_robust", "delta"}
        assert "violation_time_s" in compare["delta"]

    def test_outputs_take_created_by_keyword_and_list_every_file(self, tmp_path, monkeypatch):
        # A tracer that wraps _write_outputs reads the written files from the
        # created keyword, so run_command must pass it by name.
        calls = []
        real = cli._write_outputs

        def spy(*args, **kwargs):
            summary = real(*args, **kwargs)
            calls.append((args, kwargs))
            return summary

        monkeypatch.setattr(cli, "_write_outputs", spy)
        out = tmp_path / "out"
        assert run_command(write_scenario(tmp_path, SMALL_RUN), out, mode="both") == EXIT_OK
        assert [len(args) for args, _ in calls] == [2, 2]
        assert [set(kwargs) for _, kwargs in calls] == [{"created"}, {"created"}]
        created = calls[0][1]["created"]
        assert calls[1][1]["created"] is created
        written = {p for p in out.rglob("*") if p.is_file()}
        assert len(created) == len(written) == 7
        assert set(created) == written

    def test_both_modes_build_the_start_circle_twice(self, tmp_path, monkeypatch):
        # Once when the scenario loads, once for the non-robust copy; the
        # runs read the start poses their config built.
        calls = []
        real = sim.circle_init
        monkeypatch.setattr(sim, "circle_init", lambda *args: calls.append(args) or real(*args))
        body = "robots:\n  count: 22\nsim:\n  duration: 0.05\n  plant_disturbance: worst-case\n"
        path = write_scenario(tmp_path, body)
        assert run_command(path, tmp_path / "out", mode="both") == EXIT_OK
        assert len(calls) <= 2

    def test_mode_honesty_rhs_differs_only_in_the_margin(self, tmp_path):
        # First-step constraint stacks: robust minus non-robust rhs equals
        # the (negated) support minima, and the matrices coincide.
        cfg = load_config(SCENARIO_DIR / "circle22.yaml")
        states = circle_init(cfg.robot_count, cfg.circle_radius, cfg.geometry, cfg.barrier)
        robust = assemble_constraints(
            states, cfg.geometry, cfg.barrier, cfg.disturbance, cfg.u_max
        )
        plain = assemble_constraints(
            states, cfg.geometry, cfg.barrier, zero_union(), cfg.u_max
        )
        np.testing.assert_array_equal(robust.A, plain.A)
        margins = robust.b - plain.b
        assert np.all(margins >= 0.0)
        assert margins.max() > 0.0

    def test_invalid_out_dir_fails_without_partial_files(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        assert run_command(scenario, blocker, mode="robust") == EXIT_RUNTIME
        assert blocker.read_text() == "file, not a directory"

    def test_failed_run_removes_what_it_made_and_nothing_else(self, tmp_path, monkeypatch,
                                                              capsys):
        # The robust pass writes its outputs, then the non-robust one raises.
        scenario = write_scenario(tmp_path, SMALL_RUN)
        real, calls = cli.repeat_experiment, []

        def second_fails(cfg, jobs):
            calls.append(cfg)
            if len(calls) % 2 == 0:
                raise RuntimeError("non-robust pass broke")
            return real(cfg, jobs=jobs)

        monkeypatch.setattr(cli, "repeat_experiment", second_fails)
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "earlier.csv").write_text("x\n")
        fresh = tmp_path / "fresh" / "out"
        for out in (kept, fresh):
            assert run_command(scenario, out, mode="both") == EXIT_RUNTIME
            assert "run failed: non-robust pass broke" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir() if p.name != "scenario.yaml"] == ["kept"]
        assert [p.name for p in kept.iterdir()] == ["earlier.csv"]
        assert (kept / "earlier.csv").read_text() == "x\n"

    def test_config_error_exit_code(self, tmp_path):
        bad = write_scenario(tmp_path, "robots:\n  count: 2\n")
        assert run_command(bad, tmp_path / "out", mode="robust") == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_invalid_seed_override_is_config_error(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert run_command(scenario, out, mode="robust", seed=-1) == EXIT_CONFIG
        assert trace_command(scenario, tmp_path / "t.csv", seed=-1) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_mode_is_config_error(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        assert run_command(scenario, tmp_path / "out", mode="chaotic") == EXIT_CONFIG

    def test_check_flag_flags_missing_violations(self, tmp_path):
        # Non-robust mode expects violations; a disturbance-free plant
        # cannot produce them, so --check reports a breach.
        body = SMALL_RUN.replace("plant_disturbance: uniform-convex", "plant_disturbance: off")
        scenario = write_scenario(tmp_path, body)
        code = run_command(scenario, tmp_path / "out", mode="non-robust", check=True)
        assert code == EXIT_CHECK

    def test_check_flag_passes_benign_robust(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        assert run_command(scenario, tmp_path / "out", mode="robust", check=True) == EXIT_OK

    def test_empty_duration_run_succeeds_with_header_only(self, tmp_path):
        body = SMALL_RUN.replace("duration: 0.5", "duration: 0.004").replace(
            "iterations: 2", "iterations: 1"
        )
        scenario = write_scenario(tmp_path, body)
        out = tmp_path / "out"
        assert run_command(scenario, out, mode="robust", check=True) == EXIT_OK
        assert (out / "metrics.csv").read_text() == "t,min_h,wct_s,max_alter\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["avg_wct_ms"] is None
        assert summary["violation_time_s"] == 0.0

    def test_seed_override_changes_outputs(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_command(scenario, out_a, mode="robust", seed=1) == EXIT_OK
        assert run_command(scenario, out_b, mode="robust", seed=2) == EXIT_OK
        a = (out_a / "metrics_00.csv").read_text()
        b = (out_b / "metrics_00.csv").read_text()
        assert a != b


class TestTraceCommand:
    def test_trace_writes_two_columns(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "trace.csv"
        assert trace_command(scenario, out) == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,min_h"
        assert len(rows) == 1 + 100

    def test_first_row_matches_the_chord_value(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "trace.csv"
        assert trace_command(scenario, out) == EXIT_OK
        first = out.read_text().strip().splitlines()[1].split(",")
        assert float(first[0]) == 0.0
        chord = 2.0 * (0.6 - 0.03) * math.sin(math.pi / 2.0)
        assert float(first[1]) == pytest.approx(chord**2 - 0.12**2, rel=1e-12)

    def test_empty_duration_gives_header_only(self, tmp_path):
        body = SMALL_RUN.replace("duration: 0.5", "duration: 0.004")
        scenario = write_scenario(tmp_path, body)
        out = tmp_path / "trace.csv"
        assert trace_command(scenario, out) == EXIT_OK
        assert out.read_text() == "t,min_h\n"

    def test_trace_is_byte_identical_across_reruns(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "trace.csv"
        assert trace_command(scenario, out) == EXIT_OK
        first = out.read_bytes()
        assert trace_command(scenario, out) == EXIT_OK
        assert out.read_bytes() == first

    def test_metrics_deterministic_columns_idempotent(self, tmp_path):
        # Wall clock is measured, so only the deterministic columns repeat.
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        run_command(scenario, out, mode="robust")
        first = (out / "metrics_00.csv").read_text().strip().splitlines()
        run_command(scenario, out, mode="robust")
        second = (out / "metrics_00.csv").read_text().strip().splitlines()
        for row_a, row_b in zip(first[1:], second[1:]):
            a = row_a.split(",")
            b = row_b.split(",")
            assert a[0] == b[0]
            assert a[1] == b[1]
            assert a[3] == b[3]

    def test_config_error_exit(self, tmp_path):
        assert trace_command(tmp_path / "missing.yaml", tmp_path / "t.csv") == EXIT_CONFIG

    def test_failed_run_leaves_an_existing_file_intact(self, tmp_path, monkeypatch):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "keep.csv"
        out.write_text("x\n")

        def failing(cfg):
            raise RuntimeError("run failed before any output")

        monkeypatch.setattr(cli, "run_scenario", failing)
        assert trace_command(scenario, out) == EXIT_RUNTIME
        assert out.read_text() == "x\n"


class TestMain:
    def test_run_subcommand(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        code = main(["run", str(scenario), "--out", str(tmp_path / "out"), "--mode", "robust"])
        assert code == EXIT_OK

    def test_trace_subcommand(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        code = main(["trace", str(scenario), "--out", str(tmp_path / "trace.csv")])
        assert code == EXIT_OK

    def test_jobs_flag_accepted(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        code = main(
            ["run", str(scenario), "--out", str(tmp_path / "out"), "--jobs", "2"]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        scenario = write_scenario(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


class TestSummarize:
    def test_empty_runs(self):
        summary = aggregate_metrics([])
        assert summary["avg_wct_ms"] is None
        assert summary["violation_time_s"] == 0.0

