"""Method-of-steps time integration of the nonlinear platoon dynamics.

:func:`simulate_batch` integrates configs that differ only in kappa, alpha
and b (a gain sweep, say) in one step loop; :func:`simulate` is its batch of
one.  Two fixed-step schemes are provided:

* ``euler``  -- explicit Euler; each delayed value is read at the grid point
  floor((t - tau)/h), i.e. the newest stored node not later than the delayed
  instant.  Its first-order lag shifts the oscillation threshold.
* ``rk4``    -- classical Runge-Kutta; delayed values are reconstructed by
  cubic Hermite interpolation on stored node values and derivatives (Bellen &
  Zennaro, *Numerical Methods for Delay Differential Equations*, 2003).
  Stage lookups never run ahead of the newest completed node because the
  step size is capped by the smallest positive delay.

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
    "simulate_batch",
    "settling_time",
    "amplitude_envelope",
    "write_trajectory_csv",
]

# Per scheme, the stage fractions whose delayed rows are gathered after stage
# 1; the last one's rows are the next step's stage 1 (Euler evaluates no other).
_LATER = {"euler": (1.0,), "rk4": (0.5, 0.5, 1.0)}
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
        if self.method not in _LATER:
            raise InvalidConfigError(f"method must be one of {tuple(_LATER)}, got {self.method!r}")


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


def simulate(pc: PlatoonConfig, sc: SimConfig, perturbation: PlatoonState | None = None) -> Trajectory:
    """Integrate one platoon: the batch of one of :func:`simulate_batch`."""
    return simulate_batch([pc], sc, perturbation)[0]


def simulate_batch(
    pcs: list[PlatoonConfig], sc: SimConfig, perturbation: PlatoonState | None = None
) -> list[Trajectory]:
    """Integrate platoons that share N, the delays, m, l and the leader, each bit-identically to its run alone.

    The initial state (default: v_i = 0.1, y_i = 0) also serves as the
    constant pre-history; the horizon is rounded up to a whole number of
    steps.  A member that leaves the model's domain (DomainBreakdownError /
    NegativeVelocityBaseError) or blows up (NumericalError) is masked while
    the others run on; then the lowest-index failing member's error is raised.
    """
    field = VectorField(*pcs)
    n = field.n
    if perturbation is None:
        perturbation = PlatoonState.uniform_perturbation(n)
    if perturbation.n != n:
        raise InvalidConfigError(f"perturbation has {perturbation.n} pairs, config has {n}")
    h = sc.step
    positive_taus = [tau for tau in field.tau.tolist() if tau > 0]
    if positive_taus and h > min(positive_taus) * (1.0 + 1e-9):
        raise InvalidConfigError(
            f"step {h:g} exceeds the smallest positive delay {min(positive_taus):g}; "
            "the method of steps requires step <= min positive tau"
        )
    steps = int(math.ceil(sc.horizon / h - 1e-9))
    states, errors = _run(field, h, sc.method, perturbation.as_vector(), steps)
    if errors:
        raise errors[min(errors)]
    t_grid = np.arange(steps + 1) * h
    return [Trajectory(t=t_grid, states=rows, config=pc, sim=sc) for rows, pc in zip(states, pcs)]


_NODE = np.array([1.0, 0.0, 0.0, 0.0])[:, None, None, None]  # weights that read node j itself


def _lookup_table(taus: list, h: float, fractions: tuple, hermite: bool):
    """Offsets from step k (all j, then all j + 1) and (4, S, N, 1) weights of the delayed rows.

    At fraction c, pair i's delayed instant lies c - tau_i/h steps from node
    k, between nodes j and j + 1, at the same place in every step.  Euler
    reads node j; rk4 weights the values and h times the derivatives at j and
    j + 1, unless the instant is within 1e-9 steps of node j.
    """
    offsets, weights = [], []
    for c in fractions:
        for tau in taus:
            x = c - tau / h
            j = 0 if tau == 0.0 else math.floor(x + 1e-9)  # zero-delay pairs read the stage state
            th = x - j
            t2 = th * th
            t3 = t2 * th
            offsets.append(j)
            if not hermite or tau == 0.0 or th < 1e-9:
                weights.append(_NODE.ravel())
            else:
                weights.append((2.0 * t3 - 3.0 * t2 + 1.0, -2.0 * t3 + 3.0 * t2, h * (t3 - 2.0 * t2 + th), h * (t3 - t2)))
    offsets = np.array(offsets)
    return np.concatenate((offsets, offsets + 1)), np.array(weights).T.reshape(4, len(fractions), len(taus), 1)


def _run(field: VectorField, h: float, method: str, init: np.ndarray, steps: int):
    n, batch = field.n, field.batch
    # Node values and derivatives side by side, so that one gather reads both.
    hist = np.zeros((batch, 2, steps + 1, 2 * n))
    states, derivs = hist[:, 0], hist[:, 1]
    states[:, 0] = init
    taus = field.tau.tolist()
    later = _LATER[method]
    offsets, weights = _lookup_table(taus, h, later, method == "rk4")
    pre = -int(offsets.min())  # steps whose lookups reach into t < 0
    zero = [i for i, tau in enumerate(taus) if tau == 0.0]
    rows = np.tile(init, (batch, n, 1))  # stage 1 of step 0 reads the pre-history everywhere
    errors: dict = {}
    for k in range(steps):
        yk = states[:, k]
        if zero:
            rows[:, zero] = yk[:, None]
        k1, failures = field(k * h, yk, rows)
        ks = [k1]
        if failures:
            _retire(failures, errors, (hist, rows, k1))
        derivs[:, k] = k1  # node k's derivative, which the later stages' lookups may read
        # One gather reads the rows of every later stage.
        nodes, w = offsets + k, weights
        if k < pre:  # instants before t = 0 read the pre-history, held in node 0
            early = nodes[: nodes.size // 2] < 0
            nodes = np.where(np.tile(early, 2), 0, nodes)
            w = np.where(early.reshape(len(later), n, 1), _NODE, w)
        if method == "euler":
            delayed = states[:, nodes[:n]][:, None]  # Euler reads nodes, with no weights
            states[:, k + 1] = yk + k1 * h
        else:
            delayed = (hist[:, :, nodes].reshape(batch, 4, len(later), n, 2 * n) * w).sum(axis=1)
            for stage, c in enumerate(later):
                ystage = yk + (h * c) * ks[-1]
                rows = delayed[:, stage]
                if zero:
                    rows[:, zero] = ystage[:, None]
                dot, failures = field(k * h + c * h, ystage, rows)
                ks.append(dot)
                if failures:
                    _retire(failures, errors, (hist, delayed, *ks))
            states[:, k + 1] = yk + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
        rows = delayed[:, -1]  # the last stage's instant is the next step's stage 1
        if not abs(states[:, k + 1]).max() <= _BLOWUP_LIMIT:  # NaN fails this test too
            blown = np.flatnonzero(~(abs(states[:, k + 1]).max(axis=1) <= _BLOWUP_LIMIT)).tolist()
            message = f"trajectory blew up at t = {(k + 1) * h:.6g}"
            _retire({b: NumericalError(message) for b in blown}, errors, (hist, rows))
        if 0 in errors:  # no member can fail with a lower index
            break
    return states, errors


def _retire(failures: dict, errors: dict, arrays) -> None:
    """Record each newly failed member's error and zero its rows, an equilibrium of the field."""
    for member, exc in failures.items():
        if member not in errors:
            errors[member] = exc
            for arr in arrays:
                arr[member] = 0.0


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
