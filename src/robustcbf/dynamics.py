"""Differential-drive kinematics, wheel-to-body mapping, and the look-ahead output."""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def position(self) -> np.ndarray:
        return np.array([self.x1, self.x2])

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


def rotation_matrix(theta: float) -> np.ndarray:
    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([[c, -s], [s, c]])


def output_point(state: RobotState, geom: RobotGeometry) -> np.ndarray:
    """Point at distance look_ahead ahead of the wheel axle."""
    lp = geom.look_ahead
    return np.array(
        [state.x1 + lp * math.cos(state.theta), state.x2 + lp * math.sin(state.theta)]
    )


def output_jacobian(state: RobotState, geom: RobotGeometry) -> np.ndarray:
    """2x2 Jacobian of the output point with respect to the wheel velocities."""
    return rotation_matrix(state.theta) @ body_output_matrix(geom)


def _body_matrix(theta: float) -> np.ndarray:
    body = np.zeros((3, 2))
    body[0, 0] = math.cos(theta)
    body[1, 0] = math.sin(theta)
    body[2, 1] = 1.0
    return body


def step_dynamics(
    state: RobotState,
    u: WheelCommand,
    d,
    dt: float,
    geom: RobotGeometry,
    method: str = "euler",
) -> RobotState:
    """Advance the pose one step under wheel command u and wheel-speed offset d.

    d is a point of the disturbance set, in rad/s on each wheel.  The default
    integrator is forward Euler, which keeps the step exactly affine in
    (u + d); "rk4" is available when integration accuracy matters more than
    that structure.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (2,):
        raise ValueError(f"disturbance must be a 2-vector, got shape {d.shape}")
    if not (math.isfinite(d[0]) and math.isfinite(d[1])):
        raise ValueError("disturbance must be finite")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")

    gearing = wheel_matrix(geom)
    if method == "euler":
        body = _body_matrix(state.theta)
        x = state.as_array()
        # Keep the u and d contributions as separate terms: the step is then
        # exactly (undisturbed step) + dt * body @ gearing @ d in floating point.
        stepped = (x + dt * (body @ (gearing @ u.as_array()))) + dt * (
            body @ (gearing @ d)
        )
        return RobotState(stepped[0], stepped[1], stepped[2])

    if method == "rk4":
        w = gearing @ (u.as_array() + d)

        def rate(x: np.ndarray) -> np.ndarray:
            return np.array([w[0] * math.cos(x[2]), w[0] * math.sin(x[2]), w[1]])

        x = state.as_array()
        k1 = rate(x)
        k2 = rate(x + 0.5 * dt * k1)
        k3 = rate(x + 0.5 * dt * k2)
        k4 = rate(x + dt * k3)
        stepped = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return RobotState(stepped[0], stepped[1], stepped[2])

    raise ValueError(f"unknown integration method {method!r}")
