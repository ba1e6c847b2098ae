"""Method-of-steps time integration of the nonlinear platoon dynamics.

Two fixed-step schemes are provided:

* ``euler``  -- explicit Euler; each delayed value is read at the grid point
  floor((t - tau)/h), i.e. the newest stored node not later than the delayed
  instant.  This is the workhorse scheme for long sweep studies.
* ``rk4``    -- classical Runge-Kutta; delayed values are reconstructed by
  cubic Hermite interpolation on stored node values and derivatives, so the
  scheme keeps meaningful accuracy in the delayed terms as well.  Stage
  lookups never run ahead of the newest completed node because the step size
  is capped by the smallest positive delay.

Pairs with zero delay read the current (or current-stage) state directly, so
a delay-free configuration reduces to the ordinary ODE schemes.  Pre-history
(t < 0) is the initial perturbation held constant, and the leader is at rest
for t < 0.  Both schemes evaluate the model's one vector field,
:class:`ccfmlab.model.VectorField`; the step size and the delay offsets in
steps belong to the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, NumericalError
from .model import PlatoonConfig, PlatoonState, VectorField

__all__ = [
    "SimConfig",
    "Trajectory",
    "SettlingReport",
    "EnvelopeReport",
    "simulate",
    "settling_time",
    "amplitude_envelope",
    "write_trajectory_csv",
]

_METHODS = ("euler", "rk4")
_BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class SimConfig:
    """Integration settings: step size, horizon, scheme."""

    step: float = 0.01
    horizon: float = 300.0
    method: str = "euler"

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise InvalidConfigError(f"step must be positive, got {self.step}")
        if not (self.horizon >= self.step and math.isfinite(self.horizon)):
            raise InvalidConfigError(f"horizon must be at least one step, got {self.horizon}")
        if self.method not in _METHODS:
            raise InvalidConfigError(f"method must be one of {_METHODS}, got {self.method!r}")


@dataclass
class Trajectory:
    """Integration output on the uniform grid t_k = k*step."""

    t: np.ndarray
    states: np.ndarray  # (len(t), 2n): columns v_1..v_n, y_1..y_n
    config: PlatoonConfig
    sim: SimConfig

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2

    @property
    def v(self) -> np.ndarray:
        return self.states[:, : self.n]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, self.n :]

    def state_at(self, k: int) -> PlatoonState:
        return PlatoonState.from_vector(self.states[k])


def _hermite(sj, sj1, dj, dj1, h: float, th: float):
    """Cubic Hermite value at fraction th of the interval [t_j, t_j+h]."""
    t2 = th * th
    t3 = t2 * th
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * sj
        + (-2.0 * t3 + 3.0 * t2) * sj1
        + h * ((t3 - 2.0 * t2 + th) * dj + (t3 - t2) * dj1)
    )


def simulate(pc: PlatoonConfig, sc: SimConfig, perturbation: PlatoonState | None = None) -> Trajectory:
    """Integrate the platoon from a perturbed equilibrium state.

    The initial state (default: v_i = 0.1, y_i = 0) also serves as the
    constant pre-history.  The horizon is rounded up to a whole number of
    steps.  Raises DomainBreakdownError / NegativeVelocityBaseError if the
    trajectory leaves the model's domain, and NumericalError if it blows up
    beyond any physically meaningful magnitude.
    """
    n = pc.n
    if perturbation is None:
        perturbation = PlatoonState.uniform_perturbation(n)
    if perturbation.n != n:
        raise InvalidConfigError(f"perturbation has {perturbation.n} pairs, config has {n}")
    h = sc.step
    positive_taus = [veh.tau for veh in pc.vehicles if veh.tau > 0]
    if positive_taus and h > min(positive_taus) * (1.0 + 1e-9):
        raise InvalidConfigError(
            f"step {h:g} exceeds the smallest positive delay {min(positive_taus):g}; "
            "the method of steps requires step <= min positive tau"
        )
    steps = int(math.ceil(sc.horizon / h - 1e-9))
    field = VectorField(pc)
    # Delay measured in steps, as a float; constant per pair.
    off = [tau / h for tau in field.tau]
    init = perturbation.as_vector()
    states = np.zeros((steps + 1, 2 * n))
    states[0] = init
    t_grid = np.arange(steps + 1) * h

    run = _run_euler if sc.method == "euler" else _run_rk4
    run(field, h, off, states, init, steps)
    return Trajectory(t=t_grid, states=states, config=pc, sim=sc)


def _run_euler(field: VectorField, h: float, off: list, states: np.ndarray, init: np.ndarray, steps: int) -> None:
    n = field.n
    rows: list = [None] * n
    for k in range(steps):
        for i in range(n):
            j = math.floor(k - off[i] + 1e-9)
            rows[i] = init if j < 0 else states[j]
        dot = field(k * h, states[k], rows)
        np.multiply(dot, h, out=dot)
        np.add(states[k], dot, out=states[k + 1])
        if not np.isfinite(states[k + 1]).all() or np.abs(states[k + 1]).max() > _BLOWUP_LIMIT:
            raise NumericalError(f"trajectory blew up at t = {(k + 1) * h:.6g}")


def _run_rk4(field: VectorField, h: float, off: list, states: np.ndarray, init: np.ndarray, steps: int) -> None:
    n = field.n
    derivs = np.zeros_like(states)
    stage_c = (0.0, 0.5, 0.5, 1.0)

    def lookup(i: int, x: float, stage_state):
        # x is the delayed instant in units of steps; stage_state covers tau = 0.
        if field.tau[i] == 0.0:
            return stage_state
        if x <= 1e-12:
            return init
        j = math.floor(x + 1e-9)
        th = x - j
        if th < 1e-9:
            return states[j]
        return _hermite(states[j], states[j + 1], derivs[j], derivs[j + 1], h, th)

    rows: list = [None] * n
    for k in range(steps):
        t0 = k * h
        yk = states[k]
        # Stage 1 doubles as the stored node derivative (needed by Hermite
        # lookups of later stages that land on the current node).
        for i in range(n):
            rows[i] = lookup(i, k - off[i], yk)
        k1 = field(t0, yk, rows)
        derivs[k] = k1
        ks = [k1]
        prev = k1
        for c in stage_c[1:]:
            ystage = yk + (h * c) * prev
            for i in range(n):
                rows[i] = lookup(i, k + c - off[i], ystage)
            prev = field(t0 + c * h, ystage, rows)
            ks.append(prev)
        states[k + 1] = yk + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
        if not np.isfinite(states[k + 1]).all() or np.abs(states[k + 1]).max() > _BLOWUP_LIMIT:
            raise NumericalError(f"trajectory blew up at t = {(k + 1) * h:.6g}")


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SettlingReport:
    """Per-pair settling times (None = not settled by the horizon) and their max."""

    epsilon: float
    per_pair: tuple[float | None, ...]
    overall: float | None


def settling_time(traj: Trajectory, epsilon: float = 0.05) -> SettlingReport:
    """First time after which max(|v_i|, |y_i|) stays within epsilon, per pair.

    Scanned from the end of the horizon; a pair that re-exceeds epsilon later
    is not settled at the earlier excursion.  The overall time is the maximum
    over pairs, or None if any pair never settles.
    """
    if not epsilon > 0:
        raise InvalidConfigError(f"epsilon must be positive, got {epsilon}")
    n = traj.n
    metric = np.maximum(np.abs(traj.v), np.abs(traj.y))  # (T, n)
    times: list[float | None] = []
    last = metric.shape[0] - 1
    for i in range(n):
        above = np.nonzero(metric[:, i] > epsilon)[0]
        if above.size == 0:
            times.append(0.0)
        elif above[-1] == last:
            times.append(None)
        else:
            times.append(float(traj.t[above[-1] + 1]))
    overall = None if any(t is None for t in times) else max(times)  # type: ignore[type-var]
    return SettlingReport(epsilon=epsilon, per_pair=tuple(times), overall=overall)


@dataclass(frozen=True)
class EnvelopeReport:
    """Half peak-to-peak amplitude of each signal over the trailing window."""

    v: np.ndarray
    y: np.ndarray
    t_start: float
    t_end: float

    @property
    def max_v(self) -> float:
        return float(self.v.max())


def amplitude_envelope(traj: Trajectory, tail_fraction: float = 0.25) -> EnvelopeReport:
    """Amplitudes (max-min)/2 of every v_i and y_i over the final tail_fraction.

    For a settled trajectory this tends to zero; for a limit cycle it
    estimates the cycle amplitude provided the tail spans at least a few
    periods.
    """
    if not 0 < tail_fraction <= 1:
        raise InvalidConfigError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    t_end = float(traj.t[-1])
    t_start = t_end - tail_fraction * (t_end - float(traj.t[0]))
    k0 = int(np.searchsorted(traj.t, t_start - 1e-12))
    window = traj.states[k0:]
    if window.shape[0] < 10:
        raise InvalidConfigError(
            f"amplitude window has only {window.shape[0]} samples; need at least 10"
        )
    amps = 0.5 * (window.max(axis=0) - window.min(axis=0))
    n = traj.n
    return EnvelopeReport(v=amps[:n], y=amps[n:], t_start=float(traj.t[k0]), t_end=t_end)


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write t,v_1..v_N,y_1..y_N rows with full float precision."""
    n = traj.n
    header = "t," + ",".join(f"v_{i}" for i in range(1, n + 1)) + "," + ",".join(
        f"y_{i}" for i in range(1, n + 1)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for k in range(traj.t.size):
            row = [traj.t[k], *traj.states[k]]
            fh.write(",".join("%.17g" % val for val in row) + "\n")
