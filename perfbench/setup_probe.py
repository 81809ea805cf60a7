"""Set-up time of a fresh process, for the setup_s metric.

Usage: python3 setup_probe.py SPEC.json

SPEC names the src directory, the scenario file and, for replay, the poses
and nominal commands of one snapshot.  The clock starts before robustcbf is
imported and stops when the first (cold) filter_step has returned.  The
probe samples the host speed of its own vCPU meanwhile (calibrate.py) and
prints {"setup_s", "raw_s", "status", "fallback"} as JSON, setup_s being
raw_s at the reference speed.
"""

import json
import sys
import time
from pathlib import Path

from calibrate import HostSpeed

spec = json.loads(Path(sys.argv[1]).read_text())
sys.path.insert(0, spec["src"])

with HostSpeed() as host:
    start = time.perf_counter()
    from robustcbf import (
        RobotState,
        WheelCommand,
        circle_init,
        filter_step,
        nominal_controller,
        output_point,
    )
    from robustcbf.cli import load_config

    cfg = load_config(spec["scenario"])
    if spec.get("poses") is not None:
        states = [RobotState(*pose) for pose in spec["poses"]]
        commands = [WheelCommand(*cmd) for cmd in spec["commands"]]
    else:
        states = circle_init(cfg.robot_count, cfg.circle_radius, cfg.geometry, cfg.barrier)
        commands = [
            nominal_controller(s, -output_point(s, cfg.geometry), cfg.controller_gain,
                               cfg.geometry, cfg.u_max)
            for s in states
        ]
    result = filter_step(states, commands, cfg.filter_config())
    end = time.perf_counter()

print(json.dumps({
    "setup_s": float(host.scaled(start, end)),
    "raw_s": end - start,
    "status": result.solver.status,
    "fallback": result.fallback_applied,
}))
