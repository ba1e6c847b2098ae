"""Exponential convergence rates of a stable pair, and their dependence on delay.

For a stable pair the asymptotic decay e^{-sigma*t} of perturbations is set by
the rightmost characteristic root, sigma = -Re(lambda), and the rate is -Re of
the lambda that :func:`ccfmlab.spectral.dominant_root` returns, bit for bit:
both come from one principal-branch solve.  :func:`rate_curve` solves its
whole (l, tau) grid as one array, in one masked Halley iteration, and keeps
the rates and branch codes as arrays, making each point only when it is read;
:func:`rate_of_convergence` is its batch of one, so the two agree bit for
bit.  The product c = kappa*beta**tau only labels the branch the rate lies on:

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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import UnstableRegimeError
from .model import beta_star as _beta_star
from .spectral import _HALF_PI, _INV_E, _require_pair, _require_positive, _rightmost

__all__ = [
    "RateResult",
    "RateCurvePoint",
    "RateCurve",
    "rate_of_convergence",
    "optimal_delay",
    "peak_rate",
    "rate_curve",
]

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class RateResult:
    """Decay rate of a stable pair, the branch it lies on, and the rate-maximizing delay.

    ``dominant`` is the asymptotic decay rate: sigma2 on the real branch,
    sigma3 on the complex one, and both at the boundary.  ``sigma1`` is 1/tau,
    None at tau = 0.  ``tau_star`` is the delay that maximizes the rate at this
    gain, from :func:`optimal_delay`: the requested delay lies below it on the
    real branch, at it on the boundary and above it on the complex branch.
    """

    product: float
    sigma1: float | None
    dominant: float
    branch: str  # 'real' | 'boundary' | 'complex'
    tau_star: float


# Branch labels by code, shared by every point so a sweep makes no new strings.
_LABELS = ("real", "boundary", "complex", "unstable")


def _decay_rates(a: np.ndarray, tau: np.ndarray, describe: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """Decay rates and branch codes (indices into _LABELS) of 1-d arrays a = kappa*beta*, tau.

    Every stable point's rate is -Re(lambda) of its root from one batched
    :func:`ccfmlab.spectral._rightmost` solve, the one behind
    :func:`ccfmlab.spectral.dominant_root`; an unstable point gives nan.  The
    product c = a*tau only labels the branch.
    """
    c = a * tau
    code = np.where(c < _INV_E, 0, 2)
    code[np.abs(c - _INV_E) <= _BOUNDARY_TOL] = 1
    code[c >= _HALF_PI] = 3
    rate = np.full(c.shape, np.nan)
    idx = np.flatnonzero(code != 3)
    lam, _ = _rightmost(a[idx], tau[idx], lambda i: describe(int(idx[i])))
    rate[idx] = -lam.real
    return rate, code


def rate_of_convergence(beta_star: float, tau: float, kappa: float = 1.0) -> RateResult:
    """Asymptotic decay rate of one pair (requires a stable pair).

    A batch of one for the solve behind :func:`rate_curve`, whose branch code
    labels the result.  Raises UnstableRegimeError when kappa*beta**tau >=
    pi/2: no decay rate exists there.
    """
    _require_pair(beta_star, tau, kappa)
    beta_star, tau, kappa = float(beta_star), float(tau), float(kappa)  # so that every field is a Python float
    a = kappa * beta_star
    rate, code = _decay_rates(
        np.array([a], dtype=float),
        np.array([tau], dtype=float),
        lambda i: f"beta*={beta_star}, tau={tau}, kappa={kappa}",
    )
    code = int(code[0])
    c = a * tau
    if code == 3:  # unstable
        raise UnstableRegimeError(
            f"kappa*beta**tau = {c:.6g} >= pi/2: the pair is not asymptotically stable"
        )
    return RateResult(
        product=c,
        sigma1=1.0 / tau if tau else None,
        dominant=float(rate[0]),
        branch=_LABELS[code],
        tau_star=optimal_delay(beta_star, kappa),
    )


def optimal_delay(beta_star: float, kappa: float = 1.0) -> float:
    """Delay maximizing the decay rate: tau* = 1/(kappa*beta**e)."""
    _require_positive("beta* and kappa", beta_star, kappa)
    return 1.0 / (kappa * beta_star * math.e)


def peak_rate(beta_star: float, kappa: float = 1.0) -> float:
    """Best achievable decay rate over all delays: kappa*beta**e, attained at tau*."""
    _require_positive("beta* and kappa", beta_star, kappa)
    return kappa * beta_star * math.e


class RateCurvePoint(NamedTuple):
    l: float
    tau: float
    rate: float  # nan when the pair is unstable at this delay
    branch: str  # 'real' | 'boundary' | 'complex' | 'unstable'


class RateCurve(Sequence):
    """The points of :func:`rate_curve`, l-major, tau-minor, made as they are read.

    It keeps tuples of the caller's l and tau values, the rates as one float64
    array and the branch codes as one int8 array.  Each point holds the
    caller's own l and tau objects, a Python float rate and a shared label;
    ``len``, indexing, slicing (a list), iteration and ``repr`` are the list's.
    """

    __slots__ = ("_l", "_taus", "_rate", "_code")

    def __init__(self, l_values: tuple, taus: tuple, rate: np.ndarray, code: np.ndarray):
        self._l, self._taus, self._rate, self._code = l_values, taus, rate, code

    def __len__(self) -> int:
        return self._rate.size

    def __getitem__(self, i):
        k = range(self._rate.size)[i]
        if isinstance(k, range):
            return [self[j] for j in k]
        l, t = divmod(k, len(self._taus))
        return RateCurvePoint(self._l[l], self._taus[t], float(self._rate[k]), _LABELS[self._code[k]])

    def __repr__(self) -> str:
        return repr(list(self))


def rate_curve(
    alpha: float,
    x0dot: float,
    m: float,
    b: float,
    l_values: Sequence[float],
    taus: Iterable[float],
    kappa: float = 1.0,
) -> RateCurve:
    """Decay rate versus delay for each headway exponent l in l_values.

    The whole (l, tau) grid is one batched principal-branch solve; points come
    out l-major, tau-minor, each equal bit for bit to
    :func:`rate_of_convergence` at that point.  Unstable (l, tau)
    combinations are flagged with branch 'unstable' and a NaN rate rather than
    raising, so full sweeps always complete.
    """
    l_values = tuple(l_values)
    taus = tuple(taus)
    betas = np.array([_beta_star(alpha, x0dot, m, b, l) for l in l_values], dtype=float)
    tau_arr = np.array(taus, dtype=float)
    _require_pair(betas[:, None], tau_arr[None, :], kappa)
    n_tau = len(taus)

    def describe(i: int) -> str:
        k, j = divmod(i, n_tau)
        return f"l={l_values[k]}, beta*={betas[k]}, tau={taus[j]}, kappa={kappa}"

    a = np.repeat(kappa * betas, n_tau)
    rate, code = _decay_rates(a, np.tile(tau_arr, len(l_values)), describe)
    return RateCurve(l_values, taus, rate, code.astype(np.int8))
