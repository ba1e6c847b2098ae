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
right-hand side; the integrator evaluates it on flat state rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainBreakdownError, InvalidConfigError, NegativeVelocityBaseError

__all__ = [
    "VehicleParams",
    "LeaderProfile",
    "PlatoonConfig",
    "PlatoonState",
    "EquilibriumCoefficients",
    "beta_star",
    "power",
    "VectorField",
    "config_from_dict",
    "config_to_dict",
    "load_config",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidConfigError(msg)


@dataclass(frozen=True)
class VehicleParams:
    """Per-pair parameters: sensitivity alpha, reaction delay tau, desired headway b."""

    alpha: float
    tau: float
    b: float

    def __post_init__(self):
        _require(math.isfinite(self.alpha) and self.alpha > 0, f"alpha must be > 0, got {self.alpha}")
        _require(math.isfinite(self.tau) and self.tau >= 0, f"tau must be >= 0, got {self.tau}")
        _require(math.isfinite(self.b) and self.b > 0, f"b must be > 0, got {self.b}")


@dataclass(frozen=True)
class LeaderProfile:
    """Leader velocity profile: smooth ramp from rest to the cruise speed v_eq.

    x0dot(t) = v_eq * (1 - exp(-ramp * t)) for t >= 0, and 0 for t < 0.
    """

    v_eq: float
    ramp: float = 10.0

    def __post_init__(self):
        _require(math.isfinite(self.v_eq) and self.v_eq > 0, f"v_eq must be > 0, got {self.v_eq}")
        _require(math.isfinite(self.ramp) and self.ramp > 0, f"ramp must be > 0, got {self.ramp}")

    def velocity(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.v_eq * (1.0 - math.exp(-self.ramp * t))

    def settled_time(self, tol: float = 1e-9) -> float:
        """Time after which |x0dot(t) - v_eq| < tol * v_eq."""
        _require(0 < tol < 1, f"tol must be in (0, 1), got {tol}")
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
        _require(math.isfinite(self.m) and -2.0 <= self.m <= 2.0, f"m must lie in [-2, 2], got {self.m}")
        _require(math.isfinite(self.l) and self.l >= 0.0, f"l must be >= 0, got {self.l}")
        _require(math.isfinite(self.kappa) and self.kappa > 0, f"kappa must be > 0, got {self.kappa}")

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


def power(base: float, exponent: float, *, t: float = 0.0, pair: int = 0) -> float:
    """base**exponent with the domain rules of the interaction term.

    Integer exponents accept any base (negative bases included); non-integer
    exponents require a positive base and raise NegativeVelocityBaseError
    otherwise.  A zero base with a negative exponent is a domain breakdown.
    """
    if exponent == 0.0:
        return 1.0
    k = _integer_exponent(exponent)
    if k is not None:
        if base == 0.0 and k < 0:
            raise DomainBreakdownError(t, pair, base)
        return base**k
    if base <= 0.0:
        raise NegativeVelocityBaseError(t, pair, base, exponent)
    return base**exponent


def beta_star(alpha: float, x0dot: float, m: float, b: float, l: float) -> float:
    """Equilibrium interaction gain beta* = alpha * x0dot**m / b**l.

    Requires x0dot > 0 and b > 0 (the equilibrium has every vehicle cruising
    at the leader speed with headway deviation zero).
    """
    _require(x0dot > 0, f"equilibrium speed must be > 0, got {x0dot}")
    _require(b > 0, f"desired headway must be > 0, got {b}")
    return alpha * x0dot**m / b**l


@dataclass(frozen=True)
class EquilibriumCoefficients:
    """Equilibrium gains beta*_i of each pair, and the stability products beta*_i tau_i."""

    beta: np.ndarray
    taus: np.ndarray
    x0dot: float

    @classmethod
    def from_config(cls, pc: PlatoonConfig, x0dot: float | None = None) -> "EquilibriumCoefficients":
        x0 = pc.leader.v_eq if x0dot is None else x0dot
        beta = np.array([beta_star(veh.alpha, x0, pc.m, veh.b, pc.l) for veh in pc.vehicles])
        return cls(beta=beta, taus=pc.taus, x0dot=x0)

    @property
    def products(self) -> np.ndarray:
        return self.beta * self.taus


class VectorField:
    """The platoon's delayed vector field on flat [v_1..v_N, y_1..y_N] rows.

    Per-config constants (alpha, tau, b and whether m is an integer) are
    unpacked once.  ``field(t, state, delayed_rows)`` returns the 2N
    derivative, where ``delayed_rows[i-1]`` is the flat state at t - tau_i,
    the delayed instant of pair i.  The coupling term of pair i is the flux
    of pair i-1 at its own delayed instant; for i = 1 it is absent.  Leaving
    the model's domain raises DomainBreakdownError or
    NegativeVelocityBaseError with the same rules as :func:`power`.
    """

    def __init__(self, pc: PlatoonConfig):
        self.n = pc.n
        self.kappa = pc.kappa
        self.m = pc.m
        self.l = pc.l
        self.m_int = _integer_exponent(pc.m)
        self.alpha = [veh.alpha for veh in pc.vehicles]
        self.tau = [veh.tau for veh in pc.vehicles]
        self.b = [veh.b for veh in pc.vehicles]
        self.leader = pc.leader

    def __call__(self, t: float, state, delayed_rows) -> np.ndarray:
        n = self.n
        m, l, m_int = self.m, self.l, self.m_int
        flux = [0.0] * n
        for i in range(n):
            row = delayed_rows[i]
            td = t - self.tau[i]
            cum = 0.0
            for k in range(i + 1):
                cum += row[k]
            speed = self.leader.velocity(td) - cum
            head = row[n + i] + self.b[i]
            if head <= 0.0:
                raise DomainBreakdownError(td, i + 1, head)
            if m_int is not None:
                if m_int < 0 and speed == 0.0:
                    raise DomainBreakdownError(td, i + 1, speed)
                num = speed**m_int if m_int != 0 else 1.0
            elif speed > 0.0:
                num = speed**m
            else:
                raise NegativeVelocityBaseError(td, i + 1, speed, m)
            flux[i] = self.alpha[i] * num / head**l * row[i]
        out = np.empty(2 * n)
        prev = 0.0
        for i in range(n):
            out[i] = self.kappa * (prev - flux[i])
            prev = flux[i]
        for i in range(n):
            out[n + i] = self.kappa * state[i]
        return out


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
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    for key in ("N", "vehicles", "m", "l", "leader"):
        _require(key in data, f"config missing required key {key!r}")
    vehicles_raw = data["vehicles"]
    _require(isinstance(vehicles_raw, list) and vehicles_raw, "vehicles must be a non-empty list")
    n = data["N"]
    _require(isinstance(n, int) and not isinstance(n, bool), f"N must be an integer, got {n!r}")
    _require(n == len(vehicles_raw), f"N = {n} but {len(vehicles_raw)} vehicle entries given")
    vehicles = []
    for k, entry in enumerate(vehicles_raw, start=1):
        _require(isinstance(entry, dict), f"vehicles[{k}] must be an object")
        unknown = set(entry) - _VEHICLE_KEYS
        _require(not unknown, f"vehicles[{k}] has unknown keys: {sorted(unknown)}")
        missing = _VEHICLE_KEYS - set(entry)
        _require(not missing, f"vehicles[{k}] missing keys: {sorted(missing)}")
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
    _require(not unknown, f"leader has unknown keys: {sorted(unknown)}")
    _require("v_eq" in leader_raw, "leader missing required key 'v_eq'")
    leader = LeaderProfile(
        v_eq=_check_number(leader_raw["v_eq"], "leader.v_eq"),
        ramp=_check_number(leader_raw.get("ramp", 10.0), "leader.ramp"),
    )
    return PlatoonConfig(
        vehicles=tuple(vehicles),
        m=_check_number(data["m"], "m"),
        l=_check_number(data["l"], "l"),
        leader=leader,
        kappa=_check_number(data.get("kappa", 1.0), "kappa"),
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
