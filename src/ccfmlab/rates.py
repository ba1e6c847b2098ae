"""Exponential convergence rates of a stable pair, and their dependence on delay.

For a stable pair the asymptotic decay e^{-sigma*t} of perturbations is set by
the rightmost characteristic root, sigma = -Re(lambda).  The rate is read off
:func:`ccfmlab.spectral.dominant_root`; the product c = kappa*beta**tau only
labels the branch it lies on:

* c < 1/e   -- the dominant root is real, lambda = -sigma2, with
               (sigma2*tau) * exp(-sigma2*tau) = c  (smaller solution);
* c = 1/e   -- double real root, sigma1 = 1/tau (the fastest possible decay);
* c > 1/e   -- the dominant roots are a complex pair -sigma3 +/- i*omega with
               omega*tau = mu in (0, pi/2) for a stable pair, where
               (mu/sin mu) * exp(-mu/tan mu) = c  and  sigma3 = mu/(tau*tan mu).

As a function of tau (fixed gain), the rate rises on the real branch, peaks at
tau* = 1/(c'e) -- i.e. kappa*beta**tau = 1/e, where the rate equals
kappa*beta**e -- and falls on the oscillatory branch, reaching zero at the
stability boundary kappa*beta**tau = pi/2.  The test suite solves the two
real branch equations above by Newton iteration and holds this module to
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidConfigError, UnstableRegimeError
from .model import beta_star as _beta_star
from .spectral import dominant_root

__all__ = [
    "RateResult",
    "RateCurvePoint",
    "rate_of_convergence",
    "optimal_delay",
    "peak_rate",
    "rate_curve",
]

_INV_E = 1.0 / math.e
_HALF_PI = 0.5 * math.pi
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class RateResult:
    """Decay rate of a stable pair and the real-equation branches behind it.

    Branch values are None when the branch has no solution at this c;
    ``dominant`` is the actual asymptotic decay rate.  ``tau_star`` is the
    rate-maximizing delay for this gain and ``regime`` records where the
    requested delay sits relative to it ('below' | 'at' | 'above').
    """

    product: float
    sigma1: float | None
    sigma2: float | None
    sigma3: float | None
    dominant: float
    branch: str  # 'real' | 'boundary' | 'complex'
    tau_star: float
    regime: str


def rate_of_convergence(beta_star: float, tau: float, kappa: float = 1.0) -> RateResult:
    """Asymptotic decay rate of one pair (requires a stable pair).

    Raises UnstableRegimeError when kappa*beta**tau >= pi/2: no decay rate
    exists there.
    """
    if beta_star <= 0 or tau < 0 or kappa <= 0:
        raise InvalidConfigError(f"need beta* > 0, tau >= 0, kappa > 0; got {beta_star}, {tau}, {kappa}")
    a = kappa * beta_star
    ts = 1.0 / (a * math.e)
    if tau == 0.0:
        return RateResult(
            product=0.0, sigma1=None, sigma2=a, sigma3=None, dominant=a,
            branch="real", tau_star=ts, regime="below",
        )
    c = a * tau
    if c >= _HALF_PI:
        raise UnstableRegimeError(
            f"kappa*beta**tau = {c:.6g} >= pi/2: the pair is not asymptotically stable"
        )
    if abs(c - _INV_E) <= _BOUNDARY_TOL:
        sigma = 1.0 / tau
        return RateResult(
            product=c, sigma1=sigma, sigma2=sigma, sigma3=sigma, dominant=sigma,
            branch="boundary", tau_star=ts, regime="at",
        )
    # Solved at unit delay (u = lambda*tau) and read back as -Re(u)/tau:
    # dominant_root's absolute residual bound of 1e-12 rejects correct roots
    # once |lambda| exceeds about 1e3.
    dominant = -dominant_root(c, 1.0, verify=False).lam.real / tau
    if c < _INV_E:
        return RateResult(
            product=c, sigma1=1.0 / tau, sigma2=dominant, sigma3=None, dominant=dominant,
            branch="real", tau_star=ts, regime="below",
        )
    return RateResult(
        product=c, sigma1=1.0 / tau, sigma2=None, sigma3=dominant, dominant=dominant,
        branch="complex", tau_star=ts, regime="above",
    )


def optimal_delay(beta_star: float, kappa: float = 1.0) -> float:
    """Delay maximizing the decay rate: tau* = 1/(kappa*beta**e)."""
    if beta_star <= 0 or kappa <= 0:
        raise InvalidConfigError(f"need beta* > 0 and kappa > 0, got {beta_star}, {kappa}")
    return 1.0 / (kappa * beta_star * math.e)


def peak_rate(beta_star: float, kappa: float = 1.0) -> float:
    """Best achievable decay rate over all delays: kappa*beta**e, attained at tau*."""
    if beta_star <= 0 or kappa <= 0:
        raise InvalidConfigError(f"need beta* > 0 and kappa > 0, got {beta_star}, {kappa}")
    return kappa * beta_star * math.e


@dataclass(frozen=True)
class RateCurvePoint:
    l: float
    tau: float
    rate: float  # nan when the pair is unstable at this delay
    branch: str  # 'real' | 'boundary' | 'complex' | 'unstable'


def rate_curve(
    alpha: float,
    x0dot: float,
    m: float,
    b: float,
    l_values: Sequence[float],
    taus: Iterable[float],
    kappa: float = 1.0,
) -> list[RateCurvePoint]:
    """Decay rate versus delay for each headway exponent l in l_values.

    Unstable (l, tau) combinations are flagged with branch 'unstable' and a
    NaN rate rather than raising, so full sweeps always complete.
    """
    taus = list(taus)
    points: list[RateCurvePoint] = []
    for l in l_values:
        bstar = _beta_star(alpha, x0dot, m, b, l)
        for tau in taus:
            try:
                res = rate_of_convergence(bstar, tau, kappa=kappa)
                points.append(RateCurvePoint(l=l, tau=tau, rate=res.dominant, branch=res.branch))
            except UnstableRegimeError:
                points.append(RateCurvePoint(l=l, tau=tau, rate=float("nan"), branch="unstable"))
    return points
