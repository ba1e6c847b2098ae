"""Core model definitions for a delayed car-following platoon.

A platoon of N follower vehicles behind a leader is described in relative
coordinates: for each consecutive pair i (1-based), ``v_i`` is the relative
velocity of vehicle i-1 with respect to vehicle i and ``y_i`` is the deviation
of the headway from its desired value ``b_i``.  Each follower accelerates in
proportion to the delayed relative velocity of the pair ahead of it, with a
sensitivity that grows with its own speed (exponent ``m``) and shrinks with
headway (exponent ``l``):

    dv_i/dt = kappa * [beta_{i-1}(t - tau_{i-1}) v_{i-1}(t - tau_{i-1})
                       - beta_i(t - tau_i) v_i(t - tau_i)]
    dy_i/dt = kappa * v_i(t)

with the state-dependent gain

    beta_i(t) = alpha_i * (x0dot(t) - sum_{k<=i} v_k(t))**m / (y_i(t) + b_i)**l.

Index 0 refers to the leader: there is no pair 0, and the ``beta_0 v_0`` term
is structurally absent (treated as identically zero).  The global gain
``kappa`` scales time and acts as the bifurcation parameter; the physical
model has kappa = 1.  :class:`VectorField` is the one implementation of this
right-hand side.  Its one input is the three numbers pair i reads of its
delayed state, S_i = v_1 + ... + v_i, v_i and y_i: the pair observables.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainBreakdownError, InvalidConfigError, NegativeVelocityBaseError, NumericalError

__all__ = [
    "VehicleParams",
    "LeaderProfile",
    "PlatoonConfig",
    "PlatoonState",
    "EquilibriumCoefficients",
    "beta_star",
    "VectorField",
    "config_from_dict",
    "config_to_dict",
    "load_config",
]


def _require(cond: bool, msg: str, *args) -> None:
    """Raise InvalidConfigError with ``msg.format(*args)`` unless cond, formatting the message only then."""
    if not cond:
        raise InvalidConfigError(msg.format(*args))


@dataclass(frozen=True)
class VehicleParams:
    """Per-pair parameters: sensitivity alpha, reaction delay tau, desired headway b."""

    alpha: float
    tau: float
    b: float

    def __post_init__(self):
        _require(math.isfinite(self.alpha) and self.alpha > 0, "alpha must be > 0, got {}", self.alpha)
        _require(math.isfinite(self.tau) and self.tau >= 0, "tau must be >= 0, got {}", self.tau)
        _require(math.isfinite(self.b) and self.b > 0, "b must be > 0, got {}", self.b)


@dataclass(frozen=True)
class LeaderProfile:
    """Leader velocity profile: smooth ramp from rest to the cruise speed v_eq.

    x0dot(t) = v_eq * (1 - exp(-ramp * t)) for t >= 0, and 0 for t < 0.
    """

    v_eq: float
    ramp: float = 10.0

    def __post_init__(self):
        _require(math.isfinite(self.v_eq) and self.v_eq > 0, "v_eq must be > 0, got {}", self.v_eq)
        _require(math.isfinite(self.ramp) and self.ramp > 0, "ramp must be > 0, got {}", self.ramp)

    def velocity(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.v_eq * (1.0 - math.exp(-self.ramp * t))

    def settled_time(self, tol: float = 1e-9) -> float:
        """Time after which |x0dot(t) - v_eq| < tol * v_eq."""
        if not 0 < tol < 1:
            raise InvalidConfigError(f"tol must be in (0, 1), got {tol}")
        return -math.log(tol) / self.ramp


@dataclass(frozen=True)
class PlatoonConfig:
    """Full parameterization of a platoon: per-pair params, exponents, leader, gain."""

    vehicles: tuple[VehicleParams, ...]
    m: float
    l: float
    leader: LeaderProfile
    kappa: float = 1.0

    def __post_init__(self):
        _require(len(self.vehicles) >= 1, "at least one follower vehicle is required")
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        _require(math.isfinite(self.m) and -2.0 <= self.m <= 2.0, "m must lie in [-2, 2], got {}", self.m)
        _require(math.isfinite(self.l) and self.l >= 0.0, "l must be >= 0, got {}", self.l)
        _require(math.isfinite(self.kappa) and self.kappa > 0, "kappa must be > 0, got {}", self.kappa)

    @property
    def n(self) -> int:
        return len(self.vehicles)

    @property
    def taus(self) -> np.ndarray:
        return np.array([veh.tau for veh in self.vehicles])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([veh.alpha for veh in self.vehicles])

    @property
    def headways(self) -> np.ndarray:
        return np.array([veh.b for veh in self.vehicles])

    def with_kappa(self, kappa: float) -> "PlatoonConfig":
        return PlatoonConfig(self.vehicles, self.m, self.l, self.leader, kappa)


@dataclass
class PlatoonState:
    """Instantaneous platoon state: relative velocities v and headway deviations y."""

    v: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.v.shape != self.y.shape or self.v.ndim != 1:
            raise InvalidConfigError(
                f"v and y must be 1-d arrays of equal length, got {self.v.shape} and {self.y.shape}"
            )
        if not (np.isfinite(self.v).all() and np.isfinite(self.y).all()):
            raise InvalidConfigError(f"v and y must be finite, got v = {self.v} and y = {self.y}")

    @property
    def n(self) -> int:
        return self.v.size

    def as_vector(self) -> np.ndarray:
        """Pack as a flat vector [v_1..v_N, y_1..y_N]."""
        return np.concatenate([self.v, self.y])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "PlatoonState":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 2 != 0:
            raise InvalidConfigError(f"state vector must be flat with even length, got shape {vec.shape}")
        n = vec.size // 2
        return cls(v=vec[:n].copy(), y=vec[n:].copy())

    @classmethod
    def uniform_perturbation(cls, n: int, v0: float = 0.1, y0: float = 0.0) -> "PlatoonState":
        return cls(v=np.full(n, v0), y=np.full(n, y0))


def _integer_exponent(exponent: float) -> int | None:
    """The exponent as an int when it is one (to 1e-12), else None."""
    if abs(exponent - round(exponent)) < 1e-12 and abs(exponent) < 1e6:
        return int(round(exponent))
    return None


def beta_star(alpha: float, x0dot: float, m: float, b: float, l: float) -> float:
    """Equilibrium interaction gain beta* = alpha * x0dot**m / b**l.

    Requires 0 < x0dot < inf and 0 < b < inf (the equilibrium has every
    vehicle cruising at the leader speed with headway deviation zero), and
    finite m and l, which a base of 1 or an exponent of 0 would otherwise hide.
    Raises InvalidConfigError, naming the inputs, when x0dot**m or b**l
    overflows, b**l underflows to 0, or x0dot**m / b**l or, for a finite
    alpha > 0, beta* leaves (0, inf).  Where alpha * x0dot**m is no normal
    double, or beta* left the doubles, beta* is alpha * (x0dot**m / b**l).
    """
    if not 0 < x0dot < math.inf:
        raise InvalidConfigError(f"equilibrium speed must be positive and finite, got {x0dot}")
    if not 0 < b < math.inf:
        raise InvalidConfigError(f"desired headway must be positive and finite, got {b}")
    if not (math.isfinite(m) and math.isfinite(l)):
        raise InvalidConfigError(f"exponents m and l must be finite, got m = {m}, l = {l}")
    try:
        power, base = x0dot**m, b**l
        quotient = power / base  # float / gives inf or 0 where ** raises
    except OverflowError:
        what = "x0dot**m or b**l overflows"
    except ZeroDivisionError:
        what = "b**l underflows to 0"
    else:
        if 0.0 < quotient < math.inf:
            beta = alpha * power / base
            if 0.0 < alpha < math.inf and not (sys.float_info.min <= alpha * power < math.inf and 0.0 < beta < math.inf):
                beta = alpha * quotient  # alpha * x0dot**m is no normal double, or beta* left the doubles
                if not 0.0 < beta < math.inf:
                    raise InvalidConfigError(f"beta* {'overflows' if beta else 'underflows to 0'} at alpha = {alpha}, x0dot = {x0dot}, m = {m}, b = {b}, l = {l}")
            return beta  # a bad alpha is left to the callers' beta* > 0 checks
        what = "x0dot**m / b**l underflows to 0" if quotient == 0.0 else "x0dot**m / b**l overflows"
    raise InvalidConfigError(f"{what} at x0dot = {x0dot}, m = {m}, b = {b}, l = {l}")


@dataclass(frozen=True)
class EquilibriumCoefficients:
    """Equilibrium gains beta*_i of each pair at the leader's cruise speed, and the stability products beta*_i tau_i."""

    beta: np.ndarray
    taus: np.ndarray

    @classmethod
    def from_config(cls, pc: PlatoonConfig) -> "EquilibriumCoefficients":
        beta = np.array([beta_star(veh.alpha, pc.leader.v_eq, pc.m, veh.b, pc.l) for veh in pc.vehicles])
        return cls(beta=beta, taus=pc.taus)

    @property
    def products(self) -> np.ndarray:
        return self.beta * self.taus


class VectorField:
    """The platoon's delayed vector field for B configs that share N, the delays, m, l and the leader.

    Its input is the pair observables: pair i's flux reads three numbers of
    its state at its delayed instant t - tau_i, the prefix sum
    S_i = v_1 + ... + v_i, v_i and y_i, and that flux is also pair i+1's
    coupling term.  :meth:`flux_rows` maps the (B, R, N) observables of R
    instants to the v-rows of the derivative, and :meth:`headway_rows` maps
    the current speeds to its y-rows, y_i' = kappa*v_i.  Each row comes from
    its own member's inputs alone, and R rows at once equal R calls, one per
    row, bit for bit.  ``flux_rows`` carries every domain check: it returns
    the error of each member that left the model's domain (a headway <= 0, a
    zero speed base under integer m < 0, or a speed base <= 0 under
    non-integer m) at its first failing row, and a failed member's row is
    finite but void.

    :meth:`pair_observables` reads the observables off whole (N, 2N) rows
    of states, real or complex.  The integrator keeps the observables of its
    nodes, the normal form those of its ring, and :meth:`rest_quotients`,
    which reads the field's linear part at rest, those of its probes.
    """

    def __init__(self, *pcs: PlatoonConfig):
        _require(len(pcs) >= 1, "a batch needs at least one config")
        pc = pcs[0]
        self.tau = pc.taus
        for k, other in enumerate(pcs[1:], start=1):
            _require(
                (other.n, other.m, other.l, other.leader) == (pc.n, pc.m, pc.l, pc.leader)
                and np.array_equal(other.taus, self.tau),
                "batch config {} differs from config 0 in N, the delays, m, l or the leader",
                k,
            )
        self.n = pc.n
        self.batch = len(pcs)
        self.m = pc.m
        self.l = pc.l
        self.m_int = _integer_exponent(pc.m)
        self.leader = pc.leader
        # Per member, shaped to broadcast over the rows of a call, and with the
        # members innermost in memory, as the integrator keeps its rows, so
        # that an operation runs along the members and pairs at once.
        self.kappa = np.array([[[other.kappa]] for other in pcs])
        self.alpha = np.asfortranarray([[veh.alpha for veh in other.vehicles] for other in pcs])[:, None]
        self.b = np.asfortranarray([[veh.b for veh in other.vehicles] for other in pcs])[:, None]
        # Below 2**-54, 1 - exp(-ramp*t) rounds to 1.0: from there the leader is at v_eq exactly.
        self._settled = max(veh.tau for veh in pc.vehicles) + pc.leader.settled_time(2.0**-55)
        self._v_eq = np.array([pc.leader.v_eq] * pc.n)

    def pair_observables(self, delayed: np.ndarray):
        """What pair i's flux reads of its own delayed row: S_i = v_1 + ... + v_i, v_i and y_i, each (..., N).

        ``delayed`` holds (..., N, 2N) real or complex rows, pair i's at
        ``delayed[..., i-1, :]``.  The observables are the diagonals of the
        (N, N) blocks, S_i of the v-block's prefix sums; a sum of one term is
        that term.  The map is linear, and it acts on the real and imaginary
        parts of complex rows apart.
        """
        n = self.n
        own = delayed.diagonal(0, -2, -1)
        sums = np.add.accumulate(delayed[..., :n], axis=-1).diagonal(0, -2, -1) if n > 1 else own
        return sums, own, delayed[..., n:].diagonal(0, -2, -1)

    def flux_rows(self, t: float | np.ndarray, sums: np.ndarray, own: np.ndarray, dev: np.ndarray):
        """The v-rows of the derivative, (B, R, N), and the failures, from each pair's observables at its delayed instant.

        ``sums``, ``own`` and ``dev`` are S_i, v_i and y_i of pair i, each
        (B, R, N), as :meth:`pair_observables` gives them; ``t`` is a scalar
        or an (R,) array of one time per row.  Every domain check is made here.
        """
        n = self.n
        speed = self._lead(t) - sums
        head = dev + self.b
        bad = head <= 0.0
        if self.m_int is None:
            bad |= speed <= 0.0
        elif self.m_int < 0:
            bad |= speed == 0.0
        failures = {}
        if np.count_nonzero(bad):
            times = np.broadcast_to(np.asarray(t, dtype=float).reshape(-1), bad.shape[1:2])
            failed = np.flatnonzero(bad.any(axis=(1, 2))).tolist()
            failures = {b: self._error(times, b, speed, head, bad) for b in failed}
            speed = np.where(bad, 1.0, speed)  # so that no power of a base outside the domain warns
            head = np.where(bad, 1.0, head)
        flux = self.alpha * speed ** (self.m if self.m_int is None else self.m_int)
        if self.l != 0.0:  # else head**l is exactly 1.0
            flux = flux / head**self.l
        flux = flux * own
        dv = -flux
        if n > 1:
            dv[..., 1:] += flux[..., :-1]
        dv *= self.kappa
        return dv, failures

    def headway_rows(self, v: np.ndarray) -> np.ndarray:
        """The y-rows of the derivative, y_i' = kappa*v_i, of (B, ..., N) speeds."""
        return v * self.kappa.reshape((self.batch,) + (1,) * (v.ndim - 1))

    def rest_quotients(self, h: float) -> tuple[tuple[np.ndarray, ...], dict]:
        """The nonzero quotients F(h*e)/h of a batch of one at rest, and the failures.

        e runs over the 2N columns of each slot: slot 0 is the current row,
        slot i pair i's delayed row.  The quotients come as (slot, column,
        row, value) arrays.  Pair i's flux reads pair i's delayed row alone and
        enters the v-rows of pairs i and i+1, and the y-rows read the current
        row alone.  So one call probes the even slots and the odd slots in two
        sweeps, each probe moving one column of every slot of its sweep.  Each
        row then sees one moved slot, and every quotient is the one a probe of
        its slot alone gives, bit for bit.
        """
        n = self.n
        size = 2 * n
        steps = (np.eye(size) * h)[:, None]
        probes = np.zeros((2, size, n + 1, size))  # [sweep, column, slot, column]
        probes[0, :, 0::2] = steps
        probes[1, :, 1::2] = steps
        rows = probes.reshape(1, 2 * size, n + 1, size)  # both sweeps' probes, the rows of a batch of one
        dv, failures = self.flux_rows(math.inf, *self.pair_observables(rows[:, :, 1:]))
        out = np.concatenate((dv, self.headway_rows(rows[:, :, 0, :n])), axis=2).reshape(2, size, size)
        sweep, col, row = np.nonzero(out)  # views of one (3, k) array
        # v-row k reads slots k and k+1, one in each sweep; the y-rows read slot 0.
        slot = (row < n) * (row + (row + sweep) % 2)
        return (slot, col.copy(), row.copy(), out[sweep, col, row] / h), failures  # own arrays, which outlive the sweep row

    def _lead(self, t: float | np.ndarray) -> np.ndarray:
        """The leader's speed at the delayed instants of each time, (R, N), or (N,) when it has settled at all."""
        if isinstance(t, float) and t >= self._settled:
            return self._v_eq
        times = np.asarray(t, dtype=float).reshape(-1)
        if np.minimum.reduce(times, initial=math.inf) >= self._settled:  # every time of the call is past the ramp
            return self._v_eq
        # Past _settled - tau_i, velocity rounds to v_eq itself, so the rows past the ramp need no mask.
        lead = [self.leader.velocity(x) for x in (times[:, None] - self.tau).ravel().tolist()]
        return np.array(lead).reshape(times.size, self.n)

    def _error(self, times: np.ndarray, b: int, speed: np.ndarray, head: np.ndarray, bad: np.ndarray) -> NumericalError:
        r, i = divmod(int(np.argmax(bad[b])), self.n)  # the first failing row, then its lowest pair
        td = float(times[r] - self.tau[i])
        if head[b, r, i] <= 0.0:
            return DomainBreakdownError(td, i + 1, float(head[b, r, i]))
        if self.m_int is not None:
            return DomainBreakdownError(td, i + 1, float(speed[b, r, i]), quantity="speed")
        return NegativeVelocityBaseError(td, i + 1, float(speed[b, r, i]), self.m)


# ---------------------------------------------------------------------------
# JSON configuration interchange
# ---------------------------------------------------------------------------

_VEHICLE_KEYS = {"alpha", "tau", "b"}
_LEADER_KEYS = {"v_eq", "ramp"}
_TOP_KEYS = {"N", "vehicles", "m", "l", "leader", "kappa"}


def _check_number(obj, name: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise InvalidConfigError(f"{name} must be a number, got {obj!r}")
    return float(obj)


def config_from_dict(data: dict) -> PlatoonConfig:
    """Build a PlatoonConfig from a plain dict (the JSON config schema)."""
    if not isinstance(data, dict):
        raise InvalidConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, "unknown config keys: {}", sorted(unknown))
    for key in ("N", "vehicles", "m", "l", "leader"):
        _require(key in data, "config missing required key {!r}", key)
    vehicles_raw = data["vehicles"]
    _require(isinstance(vehicles_raw, list) and vehicles_raw, "vehicles must be a non-empty list")
    n = data["N"]
    _require(isinstance(n, int) and not isinstance(n, bool), "N must be an integer, got {!r}", n)
    _require(n == len(vehicles_raw), "N = {} but {} vehicle entries given", n, len(vehicles_raw))
    vehicles = []
    for k, entry in enumerate(vehicles_raw, start=1):
        _require(isinstance(entry, dict), "vehicles[{}] must be an object", k)
        unknown = set(entry) - _VEHICLE_KEYS
        _require(not unknown, "vehicles[{}] has unknown keys: {}", k, sorted(unknown))
        missing = _VEHICLE_KEYS - set(entry)
        _require(not missing, "vehicles[{}] missing keys: {}", k, sorted(missing))
        vehicles.append(
            VehicleParams(
                alpha=_check_number(entry["alpha"], f"vehicles[{k}].alpha"),
                tau=_check_number(entry["tau"], f"vehicles[{k}].tau"),
                b=_check_number(entry["b"], f"vehicles[{k}].b"),
            )
        )
    leader_raw = data["leader"]
    _require(isinstance(leader_raw, dict), "leader must be an object")
    unknown = set(leader_raw) - _LEADER_KEYS
    _require(not unknown, "leader has unknown keys: {}", sorted(unknown))
    _require("v_eq" in leader_raw, "leader missing required key 'v_eq'")
    leader = LeaderProfile(
        v_eq=_check_number(leader_raw["v_eq"], "leader.v_eq"),
        ramp=_check_number(leader_raw.get("ramp", LeaderProfile.ramp), "leader.ramp"),
    )
    return PlatoonConfig(
        vehicles=tuple(vehicles),
        m=_check_number(data["m"], "m"),
        l=_check_number(data["l"], "l"),
        leader=leader,
        kappa=_check_number(data.get("kappa", PlatoonConfig.kappa), "kappa"),
    )


def config_to_dict(pc: PlatoonConfig) -> dict:
    """Inverse of config_from_dict (round-trips exactly)."""
    return {
        "N": pc.n,
        "vehicles": [{"alpha": veh.alpha, "tau": veh.tau, "b": veh.b} for veh in pc.vehicles],
        "m": pc.m,
        "l": pc.l,
        "leader": {"v_eq": pc.leader.v_eq, "ramp": pc.leader.ramp},
        "kappa": pc.kappa,
    }


def load_config(path: str) -> PlatoonConfig:
    """Load and validate a JSON platoon configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
