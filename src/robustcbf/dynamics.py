"""Differential-drive kinematics, wheel-to-body mapping, and the look-ahead output,
batched over (n, 3) pose and (n, 2) wheel-command arrays; the per-robot
RobotState, WheelCommand and functions wrap the batched kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.theta])


@dataclass(frozen=True)
class WheelCommand:
    """Right/left wheel angular velocities in rad/s."""

    omega_r: float
    omega_l: float

    def __post_init__(self) -> None:
        _require_finite(omega_r=self.omega_r, omega_l=self.omega_l)
        object.__setattr__(self, "omega_r", float(self.omega_r))
        object.__setattr__(self, "omega_l", float(self.omega_l))

    def as_array(self) -> np.ndarray:
        return np.array([self.omega_r, self.omega_l])


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
    """Physical constants of one robot.

    look_ahead must be strictly positive: the output map is only invertible
    for a point strictly ahead of the wheel axle.  The wheel and body-output
    matrices depend on nothing else, so they are built once here, read-only.
    """

    wheel_radius: float
    base_length: float
    look_ahead: float

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
        object.__setattr__(self, "_wheel", wheel)
        object.__setattr__(self, "_body_output", body_output)


def wheel_matrix(geom: RobotGeometry) -> np.ndarray:
    """2x2 map from (omega_r, omega_l) to body velocities (v, omega); read-only."""
    return geom._wheel


def body_output_matrix(geom: RobotGeometry) -> np.ndarray:
    """Map wheel velocities to the look-ahead point's velocity in the body frame.

    Equals diag(1, look_ahead) @ wheel_matrix; invertible because
    look_ahead > 0.  Read-only.
    """
    return geom._body_output


def output_points(poses: np.ndarray, geom: RobotGeometry) -> np.ndarray:
    """Look-ahead points of an (n, 3) pose array, as an (n, 2) array."""
    heading = np.empty((poses.shape[0], 2))
    np.cos(poses[:, 2], out=heading[:, 0])
    np.sin(poses[:, 2], out=heading[:, 1])
    return poses[:, :2] + geom.look_ahead * heading


def output_jacobians(poses: np.ndarray, geom: RobotGeometry) -> np.ndarray:
    """(n, 2, 2) Jacobians R(theta) @ body_output_matrix of an (n, 3) pose array."""
    cos_t, sin_t = np.cos(poses[:, 2]), np.sin(poses[:, 2])
    rot = np.column_stack([cos_t, -sin_t, sin_t, cos_t]).reshape(-1, 2, 2)
    return rot @ body_output_matrix(geom)


def output_point(state: RobotState, geom: RobotGeometry) -> np.ndarray:
    """Point at distance look_ahead ahead of the wheel axle."""
    return output_points(as_poses([state]), geom)[0]


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
    poses: np.ndarray,
    commands: np.ndarray,
    disturbances: np.ndarray,
    dt: float,
    geom: RobotGeometry,
    method: str = "euler",
) -> np.ndarray:
    """Advance (n, 3) poses one step under (n, 2) wheel commands and (n, 2)
    wheel-speed offsets, a point of the disturbance set per robot.

    Returns a new array, headings wrapped to (-pi, pi].  Forward Euler, the
    default, keeps the step exactly affine in (u + d); "rk4" is available
    when integration accuracy matters more than that structure.
    """
    n = poses.shape[0]
    for name, wheels in (("commands", commands), ("disturbance", disturbances)):
        if wheels.shape != (n, 2) or not np.isfinite(wheels).all():
            raise ValueError(f"{name} must be a finite ({n}, 2) array")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    gearing = wheel_matrix(geom)
    if method == "euler":
        cos_t, sin_t = np.cos(poses[:, 2]), np.sin(poses[:, 2])
        # Keep the u and d contributions as separate terms: the step is then
        # exactly (undisturbed step) + dt * B(theta) @ gearing @ d in floating point.
        stepped = (poses + dt * _pose_rates(cos_t, sin_t, gearing, commands)) + dt * (
            _pose_rates(cos_t, sin_t, gearing, disturbances)
        )
    elif method == "rk4":
        wheels = commands + disturbances

        def rate(x: np.ndarray) -> np.ndarray:
            return _pose_rates(np.cos(x[:, 2]), np.sin(x[:, 2]), gearing, wheels)

        k1 = rate(poses)
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
    stepped = step_ensemble(as_poses([state]), as_commands([u]), d, dt, geom, method)
    return RobotState(*stepped[0])
