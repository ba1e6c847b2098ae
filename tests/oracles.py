"""Second routes kept only to cross-check the package.

The package computes each quantity once.  The functions here reach the same
numbers by independent means and share no solver code with it:

* ``branch_rate`` solves the two real branch equations of the decay rate
  (``_sigma2_scaled`` and ``_mu_of_c``) by safeguarded Newton iteration,
  against which ``rates.rate_of_convergence`` (read off the dominant
  characteristic root) is checked;
* ``linear_rhs`` is the linearization about equilibrium with frozen gains
  beta*_i, against which the nonlinear ``model.VectorField`` is checked;
* ``power`` is the scalar domain rule of the interaction term, against
  which the batched field's domain checks are compared;
* ``reference_simulate`` is the scalar method-of-steps engine: one config,
  a per-pair loop over the vector field, and a per-pair history lookup that
  interpolates each delayed row with its own Hermite weights at every stage.
  ``integrate.simulate_batch`` is checked against it.
"""

import math
from typing import Callable

import numpy as np

from ccfmlab.errors import (
    DomainBreakdownError,
    InvalidConfigError,
    NegativeVelocityBaseError,
    NumericalError,
    RootSolveError,
)
from ccfmlab.integrate import Trajectory
from ccfmlab.model import PlatoonState, _integer_exponent

_HALF_PI = 0.5 * math.pi


def _safeguarded_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
    x0: float | None = None,
    tol: float = 1e-15,
    maxit: int = 200,
) -> float:
    """Newton iteration with a bisection fallback on a sign-changing bracket."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RootSolveError(f"no sign change on bracket [{lo:.6g}, {hi:.6g}]")
    x = 0.5 * (lo + hi) if x0 is None else x0
    for _ in range(maxit):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0) == (flo < 0):
            lo = x
        else:
            hi = x
        fp = fprime(x)
        step_ok = fp != 0
        if step_ok:
            xn = x - fx / fp
            step_ok = lo < xn < hi
        if not step_ok:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= tol * (1.0 + abs(xn)):
            return xn
        x = xn
    raise RootSolveError(f"root solve did not converge on [{lo:.6g}, {hi:.6g}]")


def _sigma2_scaled(c: float) -> float:
    """Smaller solution x of x*exp(-x) = c on [0, 1) (real-branch rate times tau)."""

    def f(x: float) -> float:
        return x * math.exp(-x) - c

    def fp(x: float) -> float:
        return math.exp(-x) * (1.0 - x)

    x = _safeguarded_newton(f, fp, 0.0, 1.0, x0=min(c * math.e * 0.9, 0.9))
    if abs(f(x)) > 1e-12:
        raise RootSolveError(f"real-branch residual too large at c = {c!r}")
    return x


def _mu_of_c(c: float) -> float:
    """Solution mu of (mu/sin mu)*exp(-mu/tan mu) = c on (0, pi/2].

    The left side increases from 1/e (mu -> 0) to pi/2 (mu = pi/2), so a
    unique solution exists exactly for c in (1/e, pi/2].
    """

    def g(mu: float) -> float:
        return (mu / math.sin(mu)) * math.exp(-mu / math.tan(mu)) - c

    def gp(mu: float) -> float:
        val = (mu / math.sin(mu)) * math.exp(-mu / math.tan(mu))
        s = math.sin(mu)
        return val * (1.0 / mu - 2.0 / math.tan(mu) + mu / (s * s))

    lo = 1e-8
    if g(lo) >= 0.0:
        # c is within ~1e-16 of 1/e; the series G = (1/e)(1 + mu^2/2) gives mu.
        return math.sqrt(max(2.0 * (c * math.e - 1.0) / math.e, 0.0)) * math.sqrt(math.e)
    mu = _safeguarded_newton(g, gp, lo, _HALF_PI)
    if abs(g(mu)) > 1e-12:
        raise RootSolveError(f"oscillatory-branch residual too large at c = {c!r}")
    return mu


def branch_rate(c: float, tau: float) -> float:
    """Decay rate at product c != 1/e, c < pi/2, from the real branch equations."""
    if c < 1.0 / math.e:
        return _sigma2_scaled(c) / tau
    mu = _mu_of_c(c)
    return mu / (tau * math.tan(mu))


def linear_rhs(pc, eq, v_now, v_self_delayed, v_pred_delayed):
    """Linearization about equilibrium: frozen gains beta*_i, delayed couplings.

    ``v_self_delayed[i-1]`` is v_i(t - tau_i); ``v_pred_delayed[i-1]`` is
    v_{i-1}(t - tau_{i-1}) with the i = 1 entry ignored (no pair 0).
    """
    beta = eq.beta
    vdot = -pc.kappa * beta * np.asarray(v_self_delayed, dtype=float)
    pred = np.asarray(v_pred_delayed, dtype=float)
    vdot[1:] += pc.kappa * beta[:-1] * pred[1:]
    ydot = pc.kappa * np.asarray(v_now, dtype=float)
    return vdot, ydot


# ---------------------------------------------------------------------------
# scalar method-of-steps engine
# ---------------------------------------------------------------------------


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
            raise DomainBreakdownError(t, pair, base, quantity="speed")
        return base**k
    if base <= 0.0:
        raise NegativeVelocityBaseError(t, pair, base, exponent)
    return base**exponent


def _reference_field(pc, t, state, delayed_rows):
    """The vector field of one config on flat rows, pair by pair."""
    n = pc.n
    flux = [0.0] * n
    for i, veh in enumerate(pc.vehicles):
        row = delayed_rows[i]
        td = t - veh.tau
        cum = 0.0
        for k in range(i + 1):
            cum += row[k]
        speed = pc.leader.velocity(td) - cum
        head = row[n + i] + veh.b
        if head <= 0.0:
            raise DomainBreakdownError(td, i + 1, head)
        flux[i] = veh.alpha * power(speed, pc.m, t=td, pair=i + 1) / head**pc.l * row[i]
    out = np.empty(2 * n)
    prev = 0.0
    for i in range(n):
        out[i] = pc.kappa * (prev - flux[i])
        prev = flux[i]
    for i in range(n):
        out[n + i] = pc.kappa * state[i]
    return out


def _hermite(sj, sj1, dj, dj1, h, th):
    """Cubic Hermite value at fraction th of the interval [t_j, t_j+h]."""
    t2 = th * th
    t3 = t2 * th
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * sj
        + (-2.0 * t3 + 3.0 * t2) * sj1
        + h * ((t3 - 2.0 * t2 + th) * dj + (t3 - t2) * dj1)
    )


def _blown_up(row):
    return not np.isfinite(row).all() or np.abs(row).max() > 1e12


def reference_simulate(pc, sc, perturbation=None):
    """Integrate one config with the scalar engine; same contract as ``simulate``."""
    n = pc.n
    if perturbation is None:
        perturbation = PlatoonState.uniform_perturbation(n)
    h = sc.step
    taus = [veh.tau for veh in pc.vehicles]
    positive = [tau for tau in taus if tau > 0]
    if positive and h > min(positive) * (1.0 + 1e-9):
        raise InvalidConfigError(f"step {h:g} exceeds the smallest positive delay {min(positive):g}")
    steps = int(math.ceil(sc.horizon / h - 1e-9))
    off = [tau / h for tau in taus]
    init = perturbation.as_vector()
    states = np.zeros((steps + 1, 2 * n))
    states[0] = init
    rows = [None] * n
    if sc.method == "euler":
        for k in range(steps):
            for i in range(n):
                j = math.floor(k - off[i] + 1e-9)
                rows[i] = init if j < 0 else states[j]
            dot = _reference_field(pc, k * h, states[k], rows)
            states[k + 1] = states[k] + dot * h
            if _blown_up(states[k + 1]):
                raise NumericalError(f"trajectory blew up at t = {(k + 1) * h:.6g}")
    else:
        derivs = np.zeros_like(states)

        def lookup(i, x, stage_state):
            # x is the delayed instant in units of steps
            if taus[i] == 0.0:
                return stage_state
            if x <= 1e-12:
                return init
            j = math.floor(x + 1e-9)
            th = x - j
            if th < 1e-9:
                return states[j]
            return _hermite(states[j], states[j + 1], derivs[j], derivs[j + 1], h, th)

        for k in range(steps):
            t0 = k * h
            yk = states[k]
            for i in range(n):
                rows[i] = lookup(i, k - off[i], yk)
            k1 = _reference_field(pc, t0, yk, rows)
            derivs[k] = k1
            ks = [k1]
            prev = k1
            for c in (0.5, 0.5, 1.0):
                ystage = yk + (h * c) * prev
                for i in range(n):
                    rows[i] = lookup(i, k + c - off[i], ystage)
                prev = _reference_field(pc, t0 + c * h, ystage, rows)
                ks.append(prev)
            states[k + 1] = yk + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
            if _blown_up(states[k + 1]):
                raise NumericalError(f"trajectory blew up at t = {(k + 1) * h:.6g}")
    return Trajectory(t=np.arange(steps + 1) * h, states=states, config=pc, sim=sc)
