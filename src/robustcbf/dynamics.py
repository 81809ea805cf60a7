"""Differential-drive kinematics, wheel-to-body mapping, and the look-ahead output,
batched over (n, 3) pose and (n, 2) wheel-command arrays; a PoseFrame holds
what a step reads of the poses, and the per-robot RobotState, WheelCommand
and functions wrap the batched kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]. Values already in range pass through unchanged."""
    if -math.pi < theta <= math.pi:
        return theta
    wrapped = math.remainder(theta, _TWO_PI)
    if wrapped <= -math.pi:
        wrapped += _TWO_PI
    return wrapped


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RobotState:
    """Planar pose of one robot: position in meters, heading in radians.

    The heading is normalized to (-pi, pi] at construction; integration
    steps construct a new state, so they renormalize automatically.
    """

    x1: float
    x2: float
    theta: float

    def __post_init__(self) -> None:
        _require_finite(x1=self.x1, x2=self.x2, theta=self.theta)
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "x2", float(self.x2))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))


@dataclass(frozen=True)
class WheelCommand:
    """Right/left wheel angular velocities in rad/s."""

    omega_r: float
    omega_l: float

    def __post_init__(self) -> None:
        _require_finite(omega_r=self.omega_r, omega_l=self.omega_l)
        object.__setattr__(self, "omega_r", float(self.omega_r))
        object.__setattr__(self, "omega_l", float(self.omega_l))


def _as_rows(values, fields: attrgetter, width: int, what: str) -> np.ndarray:
    if isinstance(values, np.ndarray):
        rows = np.array(values, dtype=float)
    else:
        rows = np.array([fields(v) for v in values], dtype=float).reshape(-1, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{what} must form an (n, {width}) array, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError(f"{what} must be finite")
    return rows


def as_poses(states) -> np.ndarray:
    """A sequence of RobotState or an (n, 3) array as a new (n, 3) array;
    ValueError on another shape or a non-finite entry."""
    return _as_rows(states, attrgetter("x1", "x2", "theta"), 3, "poses")


def as_commands(commands) -> np.ndarray:
    """A sequence of WheelCommand or an (n, 2) array as a new (n, 2) array;
    ValueError on another shape or a non-finite entry."""
    return _as_rows(commands, attrgetter("omega_r", "omega_l"), 2, "commands")


@dataclass(frozen=True)
class RobotGeometry:
    """Physical constants of one robot, plus two read-only matrices built
    from them: wheel_matrix maps (omega_r, omega_l) to body velocities
    (v, omega), and body_output_matrix = diag(1, look_ahead) @ wheel_matrix
    to the look-ahead point's velocity in the body frame.  Neither is an
    init argument or compared, so dataclasses.replace rebuilds both.

    look_ahead must be strictly positive: the output map is only invertible
    for a point strictly ahead of the wheel axle.
    """

    wheel_radius: float
    base_length: float
    look_ahead: float
    wheel_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    body_output_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("wheel_radius", "base_length", "look_ahead"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, float(value))
        r = self.wheel_radius
        lb = self.base_length
        wheel = np.array([[r / 2.0, r / 2.0], [-r / lb, r / lb]])
        body_output = np.array([[1.0, 0.0], [0.0, self.look_ahead]]) @ wheel
        for matrix in (wheel, body_output):
            matrix.setflags(write=False)
        object.__setattr__(self, "wheel_matrix", wheel)
        object.__setattr__(self, "body_output_matrix", body_output)


@dataclass(frozen=True, eq=False)
class PoseFrame:
    """What one control step reads of n poses, built once by pose_frame:
    the (n, 3) poses, cos and sin of the headings, the (n, 2) output points
    and (n, 2, 2) output Jacobians for `geometry`; all read-only."""

    geometry: RobotGeometry
    poses: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    outputs: np.ndarray
    jacobians: np.ndarray


def pose_frame(states, geom: RobotGeometry) -> PoseFrame:
    """The PoseFrame of a RobotState sequence or an (n, 3) pose array; a
    PoseFrame passes through.  The one entry check of every function that
    takes poses: ValueError on another shape, a non-finite entry, or a
    frame built for another geometry."""
    if isinstance(states, PoseFrame):
        if states.geometry is not geom and states.geometry != geom:
            raise ValueError("the pose frame was built for another RobotGeometry")
        return states
    poses = as_poses(states)
    heading = np.empty((poses.shape[0], 2))
    np.cos(poses[:, 2], out=heading[:, 0])
    np.sin(poses[:, 2], out=heading[:, 1])
    # R(theta) has rows (cos, -sin) and (sin, cos); * -1.0 negates exactly.
    rot = np.empty((poses.shape[0], 2, 2))
    np.multiply(heading, (1.0, -1.0), out=rot[:, 0])
    rot[:, 1] = heading[:, ::-1]
    outputs = poses[:, :2] + geom.look_ahead * heading
    jacobians = rot @ geom.body_output_matrix
    for arr in (poses, heading, outputs, jacobians):
        arr.setflags(write=False)
    return PoseFrame(geom, poses, *heading.T, outputs, jacobians)


def output_point(state: RobotState, geom: RobotGeometry) -> np.ndarray:
    """Point at distance look_ahead ahead of the wheel axle."""
    return pose_frame([state], geom).outputs[0].copy()


def _pose_rates(cos_t, sin_t, gearing: np.ndarray, wheels: np.ndarray) -> np.ndarray:
    """(v cos, v sin, omega) per robot, (v, omega) = gearing @ wheels[k]; the
    stacked matmul rounds exactly as that 2x2 matvec, wheels @ gearing.T not."""
    body = (gearing @ wheels[:, :, None])[:, :, 0]
    rates = np.empty((body.shape[0], 3))
    np.multiply(cos_t, body[:, 0], out=rates[:, 0])
    np.multiply(sin_t, body[:, 0], out=rates[:, 1])
    rates[:, 2] = body[:, 1]
    return rates


def step_ensemble(
    poses: np.ndarray | PoseFrame,
    commands: np.ndarray,
    disturbances: np.ndarray,
    dt: float,
    geom: RobotGeometry,
    method: str = "euler",
) -> np.ndarray:
    """Advance n poses (as pose_frame takes them) one step under (n, 2)
    wheel commands and (n, 2) wheel-speed offsets, a point of the
    disturbance set per robot.

    Returns a new array, headings wrapped to (-pi, pi].  Forward Euler, the
    default, keeps the step exactly affine in (u + d); "rk4" is available
    when integration accuracy matters more than that structure.
    """
    frame = pose_frame(poses, geom)
    poses = frame.poses
    n = poses.shape[0]
    for name, wheels in (("commands", commands), ("disturbance", disturbances)):
        if wheels.shape != (n, 2) or not np.isfinite(wheels).all():
            raise ValueError(f"{name} must be a finite ({n}, 2) array")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    gearing = geom.wheel_matrix
    if method == "euler":
        cos_t, sin_t = frame.cos, frame.sin
        # Keep the u and d contributions as separate terms: the step is then
        # exactly (undisturbed step) + dt * B(theta) @ gearing @ d in floating point.
        stepped = (poses + dt * _pose_rates(cos_t, sin_t, gearing, commands)) + dt * (
            _pose_rates(cos_t, sin_t, gearing, disturbances)
        )
    elif method == "rk4":
        wheels = commands + disturbances

        def rate(x: np.ndarray) -> np.ndarray:
            return _pose_rates(np.cos(x[:, 2]), np.sin(x[:, 2]), gearing, wheels)

        k1 = _pose_rates(frame.cos, frame.sin, gearing, wheels)
        k2 = rate(poses + 0.5 * dt * k1)
        k3 = rate(poses + 0.5 * dt * k2)
        k4 = rate(poses + dt * k3)
        stepped = poses + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        raise ValueError(f"unknown integration method {method!r}")
    if not np.isfinite(stepped).all():
        raise ValueError("integration produced a non-finite pose")
    theta = stepped[:, 2]
    for k in np.flatnonzero((theta <= -math.pi) | (theta > math.pi)):
        theta[k] = wrap_angle(float(theta[k]))
    return stepped


def step_dynamics(
    state: RobotState, u: WheelCommand, d, dt: float, geom: RobotGeometry, method: str = "euler"
) -> RobotState:
    """step_ensemble for one robot; d is its 2-vector wheel-speed offset."""
    d = np.asarray(d, dtype=float).reshape(1, 2)
    stepped = step_ensemble([state], as_commands([u]), d, dt, geom, method)
    return RobotState(*stepped[0])
