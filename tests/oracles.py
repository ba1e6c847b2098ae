"""Second routes kept only to cross-check the package.

The package computes each quantity once.  The functions here reach the same
numbers by independent means and share no solver code with it:

* ``branch_rate`` solves the two real branch equations of the decay rate
  (``_sigma2_scaled`` and ``_mu_of_c``) by safeguarded Newton iteration,
  against which ``rates.rate_of_convergence`` (read off the dominant
  characteristic root) is checked;
* ``linear_rhs`` is the linearization about equilibrium with frozen gains
  beta*_i, against which the nonlinear ``model.VectorField`` is checked.
"""

import math
from typing import Callable

import numpy as np

from ccfmlab.errors import RootSolveError

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
