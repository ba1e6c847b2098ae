"""Spectral analysis of the linearized pair dynamics.

Each decoupled pair contributes the scalar delayed characteristic equation

    F(lambda) = lambda + kappa * beta* * exp(-lambda * tau) = 0,

whose root structure is governed entirely by the product kappa*beta**tau.
Three regimes follow from classical delay-equation theory:

* product <= 1/e        -- non-oscillatory stable (dominant root real),
* 1/e < product < pi/2  -- oscillatory stable (dominant pair complex, Re < 0),
* product >= pi/2       -- unstable.

The dominant (rightmost) root is lambda = W_0(-kappa*beta**tau)/tau, the
principal Lambert-W branch (Shinozaki & Mori, Automatica 42, 2006; Corless
et al., "On the Lambert W function", 1996).  It is computed by Halley's
iteration on u*exp(u) = -kappa*beta**tau with u = lambda*tau, seeded by a
square-root series at the branch point and by the asymptotic form of W_0
beyond it; lambda, each part of u divided by tau, needs no polish on F
itself, and a product below the smallest normal double has the root
-kappa*beta*.  A root that passes the residual check and lies on the
principal branch (|Im u| < pi, and u >= -1 when real) is rightmost by that
theorem.

The solve is array-first: a masked Halley iteration over a whole array of
arguments, in which each element takes exactly the steps it would take
alone, so a batch never changes a member's bits.  It is the one route from
a pair to its root: :func:`dominant_root` is its batch of one and
``rates.rate_curve``, whose rates are -Re(lambda), a batch of a (l, tau) grid.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidConfigError, RootSolveError
from .model import EquilibriumCoefficients, beta_star

__all__ = [
    "Regime",
    "StabilityVerdict",
    "CharacteristicRoot",
    "HopfPoint",
    "RegionCheck",
    "SmallDelayCheck",
    "classify_pair",
    "classify_platoon",
    "dominant_root",
    "no_delay_spectrum",
    "small_delay_condition",
    "hopf_point",
    "critical_delay",
    "critical_gain",
    "transversality",
    "stability_region_margin",
]

_INV_E = 1.0 / math.e
_HALF_PI = 0.5 * math.pi


class Regime(str, Enum):
    NON_OSCILLATORY_STABLE = "NonOscillatoryStable"
    OSCILLATORY_STABLE = "OscillatoryStable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification of one pair by its stability product kappa*beta**tau."""

    pair: int | None
    beta_star: float
    tau: float
    product: float
    regime: Regime
    margin_nonoscillatory: float  # 1/e - product (positive inside the monotone regime)
    margin_instability: float  # pi/2 - product (positive while stable)

    def to_dict(self) -> dict:
        return {
            "pair": self.pair,
            "beta_star": self.beta_star,
            "tau": self.tau,
            "product": self.product,
            "regime": self.regime.value,
            "margins": {
                "nonoscillatory": self.margin_nonoscillatory,
                "instability": self.margin_instability,
            },
        }


def _require_pair(beta_star, tau, kappa) -> None:
    """Raise InvalidConfigError unless beta* > 0, tau >= 0 and kappa > 0 are finite.

    Takes scalars or arrays that broadcast together, and names the first
    offending point in C order.
    """
    b, t, k = (np.asarray(x, dtype=float) for x in (beta_star, tau, kappa))
    ok = np.isfinite(b) & np.isfinite(t) & np.isfinite(k) & (b > 0) & (t >= 0) & (k > 0)
    if np.count_nonzero(ok) < ok.size:
        i = np.unravel_index(np.argmin(ok), ok.shape)
        b, t, k = (float(np.broadcast_to(x, ok.shape)[i]) for x in (b, t, k))
        raise InvalidConfigError(f"need finite beta* > 0, tau >= 0, kappa > 0; got {b}, {t}, {k}")


def _require_positive(what: str, *values: float) -> None:
    """Raise InvalidConfigError unless every value is finite and > 0; ``what`` names them."""
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise InvalidConfigError(f"need finite {what} > 0, got {', '.join(map(str, values))}")


def _require_branch(n: int) -> None:
    """Raise InvalidConfigError unless n is an even integer >= 0."""
    if not isinstance(n, numbers.Integral) or n < 0 or n % 2 == 1:
        raise InvalidConfigError(f"branch index n must be an even integer >= 0, got {n!r}")


def classify_pair(beta_star: float, tau: float, kappa: float = 1.0, pair: int | None = None) -> StabilityVerdict:
    """Classify one pair from beta* and tau (boundaries: <=1/e, <pi/2)."""
    _require_pair(beta_star, tau, kappa)
    product = kappa * beta_star * tau
    if product <= _INV_E:
        regime = Regime.NON_OSCILLATORY_STABLE
    elif product < _HALF_PI:
        regime = Regime.OSCILLATORY_STABLE
    else:
        regime = Regime.UNSTABLE
    return StabilityVerdict(
        pair=pair,
        beta_star=beta_star,
        tau=tau,
        product=product,
        regime=regime,
        margin_nonoscillatory=_INV_E - product,
        margin_instability=_HALF_PI - product,
    )


def classify_platoon(eq: EquilibriumCoefficients, kappa: float = 1.0) -> list[StabilityVerdict]:
    """Classify every pair of a platoon; pair indices are 1-based."""
    return [
        classify_pair(float(b), float(t), kappa=kappa, pair=i)
        for i, (b, t) in enumerate(zip(eq.beta, eq.taus), start=1)
    ]


# ---------------------------------------------------------------------------
# Dominant root of lambda + a*exp(-lambda*tau) = 0
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # the smallest normal double
# Series for the principal solution of u*exp(u) = p about the branch point
# p = -1/e, in powers of s = sqrt(2*(1 + e*p)).
_BRANCH_SERIES = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0, -221.0 / 8505.0)


def _halley_uexpu(u: np.ndarray, p: np.ndarray, tol: float = 1e-15, maxit: int = 80) -> np.ndarray:
    """Halley iteration on f(u) = u*exp(u) - p, elementwise and in place.

    Each pass takes the step f/(f' - f*f''/(2f')), with f' = exp(u)*(1 + u)
    and f'' = exp(u)*(2 + u) (Corless et al. 1996).  An element stops once
    its step is within tol*(1 + |u|)/min(1, |1 + u0|), u0 its seed, or where
    f' vanishes.  Near the branch point u = -1, f' is small and rounding
    leaves a step of a few eps/|1 + u|, which a tolerance of tol*(1 + |u|)
    alone would not admit.  Only the elements still moving are computed, so
    each takes the same steps in any batch.
    """
    live, ul, pl = np.arange(u.size), u, p
    near = np.minimum(1.0, np.abs(1.0 + u))
    for _ in range(maxit):
        if not live.size:
            break
        eu = np.exp(ul)
        # 1 + u is named, not an inline temporary: once a temporary holds
        # 256 KiB (16384 complex values), numpy computes eu*(1.0 + ul) in it
        # as (1.0 + ul)*eu, and its complex product is not bitwise commutative.
        up1 = 1.0 + ul
        fp = eu * up1
        if np.count_nonzero(fp) < fp.size:
            go = fp != 0
            live, ul, pl, eu, up1, fp, near = live[go], ul[go], pl[go], eu[go], up1[go], fp[go], near[go]
        f = ul * eu - pl
        du = f / (fp - (ul + 2.0) * f / (up1 + up1))
        ul = ul - du
        u[live] = ul
        done = np.abs(du) * near <= tol * (1.0 + np.abs(ul))
        if np.count_nonzero(done):
            go = ~done
            live, ul, pl, near = live[go], ul[go], pl[go], near[go]
    return u


def _principal_uexpu(p: np.ndarray) -> np.ndarray:
    """Principal solutions u of u*exp(u) = p for a 1-d array of real p <= 0.

    Each u has Im(u) in [0, pi) and is real for p in [-1/e, 0].  Within
    floating-point resolution of the branch point p = -1/e the double root
    -1 is returned exactly (f' vanishes there, so Halley's iteration leaves
    that seed), so boundary inputs produce the boundary root.
    """
    ep1 = 1.0 + math.e * p
    # Real zone away from the branch point: f is increasing and convex on
    # (-1, inf), and Halley's iteration from 0 descends monotonically to the
    # root (checked on 20001 products over the zone).
    u = np.zeros(p.shape, dtype=complex)
    near = np.abs(ep1) <= 0.25
    if np.count_nonzero(near):
        # Branch-point series seed (s imaginary when p < -1/e).
        s = np.sqrt(2.0 * ep1[near] + 0j)
        seed = np.zeros(s.shape, dtype=complex)
        for coeff in reversed(_BRANCH_SERIES):
            seed = seed * s + coeff
        u[near] = seed
    beyond = ~near & (p < -_INV_E)
    if np.count_nonzero(beyond):
        # Beyond the branch zone: the asymptotic form of W_0,
        # u = L1 - L2 + L2/L1 with L1 = ln|p| + i*pi and L2 = ln(L1).
        l1 = np.log(-p[beyond]) + 1j * math.pi
        l2 = np.log(l1)
        u[beyond] = l1 - l2 + l2 / l1
    u[np.abs(ep1) <= 64.0 * _EPS] = -1.0
    u = _halley_uexpu(u, p)
    return np.where(u.imag < 0, u.conj(), u)


def _rightmost(a: np.ndarray, tau: np.ndarray, describe: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """Rightmost roots of lambda + a*exp(-lambda*tau) = 0 for 1-d arrays a > 0, tau >= 0.

    Solves u*exp(u) = -c, c = a*tau, on the principal branch and divides the
    real and imaginary parts of u by tau, unpolished: Halley's iteration
    leaves u within a few eps of W_0, and Newton steps on F itself would move
    lambda by no more.  A product below the smallest normal double (a zero
    delay, or a product that underflows or is subnormal) gives the exact root
    -a, as exp(-lambda*tau) rounds to 1 there.  Raises RootSolveError at the
    first element whose residual exceeds 1e-12*max(1, |lambda|) or whose u is
    off the principal branch; ``describe(i)`` names element i in the caller's
    terms.  Returns the roots, each with Im >= 0, and their residuals.
    """
    c = a * tau
    u = _principal_uexpu(-c)
    normal = c >= _TINY
    lam = np.empty(c.shape, dtype=complex)
    lam.real = np.divide(u.real, tau, out=-a, where=normal)
    lam.imag = np.divide(np.abs(u.imag), tau, out=np.zeros(c.shape), where=normal)  # the conjugate with Im >= 0
    residual = np.abs(lam + a * np.exp(-lam * tau))
    # A double-precision lambda carries a residual near |lambda|*eps, so the
    # bound scales with |lambda|.
    solved = residual <= 1e-12 * np.maximum(1.0, np.abs(lam))
    principal = (np.abs(u.imag) < math.pi) & ((u.imag != 0.0) | (u.real >= -1.0))
    bad = np.flatnonzero(~(solved & principal))
    if bad.size:
        i = int(bad[0])
        if not solved[i]:
            what = f"dominant-root residual {residual[i]:.3e} exceeds 1e-12*max(1, |lambda|)"
        else:
            what = f"root lambda*tau = {complex(u[i])!r} is off the principal Lambert-W branch"
        raise RootSolveError(f"{what} for {describe(i)}")
    return lam, residual


@dataclass(frozen=True)
class CharacteristicRoot:
    """Rightmost root of lambda + a*exp(-lambda*tau), with its residual.

    Every returned root has passed the residual check and lies on the
    principal Lambert-W branch, so it is rightmost by the theorem:
    ``verified`` is always True and ``right_count``, the number of roots
    found right of it, is always 0.
    """

    lam: complex
    residual: float
    verified: bool
    right_count: int


def dominant_root(beta_star: float, tau: float, kappa: float = 1.0) -> CharacteristicRoot:
    """Rightmost characteristic root of one pair: a batch of one for the array solver.

    Solves u*exp(u) = -kappa*beta_star*tau (u = lambda*tau) by seeded Halley
    iteration and divides each part of u by tau.  Raises RootSolveError
    unless the residual is below 1e-12 relative to max(1, |lambda|) and u
    lies on the principal branch.  The complex member of a conjugate pair
    with positive imaginary part is returned.  A product below the smallest
    normal double, a zero or subnormal delay among them, gives the exact
    delay-free root -kappa*beta*, with residual 0.
    """
    _require_pair(beta_star, tau, kappa)
    lam, residual = _rightmost(
        np.array([kappa * beta_star], dtype=float),
        np.array([tau], dtype=float),
        lambda i: f"beta*={beta_star}, tau={tau}, kappa={kappa}",
    )
    return CharacteristicRoot(lam=complex(lam[0]), residual=float(residual[0]), verified=True, right_count=0)


# ---------------------------------------------------------------------------
# Delay-free and small-delay checks
# ---------------------------------------------------------------------------


def no_delay_spectrum(eq: EquilibriumCoefficients, kappa: float = 1.0) -> np.ndarray:
    """Eigenvalues of the v-block with all delays set to zero: -kappa*beta*_i.

    The y-block contributes N additional neutral (zero) eigenvalues, which are
    omitted; the returned array is always strictly negative.
    """
    return -kappa * np.asarray(eq.beta, dtype=float)


@dataclass(frozen=True)
class SmallDelayCheck:
    """Per-pair products kappa*beta*_i*tau_i against the small-delay threshold 1."""

    products: np.ndarray
    satisfied: np.ndarray

    @property
    def margins(self) -> np.ndarray:
        return 1.0 - self.products

    @property
    def all_satisfied(self) -> bool:
        return bool(np.all(self.satisfied))


def small_delay_condition(eq: EquilibriumCoefficients, kappa: float = 1.0) -> SmallDelayCheck:
    """First-order-in-delay stability condition kappa*beta*_i*tau_i < 1 per pair.

    Expanding each delayed term to first order turns the pair dynamics into an
    ODE whose poles are -kappa*beta*_i / (1 - kappa*beta*_i*tau_i); these stay
    negative exactly while every product is below one.
    """
    products = kappa * np.asarray(eq.beta, dtype=float) * np.asarray(eq.taus, dtype=float)
    return SmallDelayCheck(products=products, satisfied=products < 1.0)


# ---------------------------------------------------------------------------
# Hopf point, transversality, design margin
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HopfPoint:
    """Imaginary-axis crossing of one pair: frequency, critical gain, residual."""

    omega0: float
    kappa_cr: float
    residual: float


def hopf_point(beta_star: float, tau: float, n: int = 0) -> HopfPoint:
    """Crossing frequency and critical gain of branch n (n even, n >= 0).

    omega0 = (2n+1)*pi/(2*tau) and kappa_cr = (2n+1)*pi/(2*beta**tau); at these
    values exp(-i*omega0*tau) = -i cancels the characteristic equation exactly.
    Odd n would require a negative gain, which has no meaning here, and is
    rejected.
    """
    _require_positive("beta* and tau", beta_star, tau)
    _require_branch(n)
    omega0 = (2 * n + 1) * _HALF_PI / tau
    kappa_cr = (2 * n + 1) * _HALF_PI / (beta_star * tau)
    residual = abs(1j * omega0 + kappa_cr * beta_star * cmath.exp(-1j * omega0 * tau))
    return HopfPoint(omega0=omega0, kappa_cr=kappa_cr, residual=residual)


def critical_delay(beta_star: float, kappa: float = 1.0) -> float:
    """Delay of the first crossing for the given gain: kappa*beta**tau = pi/2."""
    _require_positive("beta* and kappa", beta_star, kappa)
    return _HALF_PI / (kappa * beta_star)


def critical_gain(beta_star: float, tau: float) -> float:
    """Gain of the first crossing for the given delay: kappa*beta**tau = pi/2."""
    return hopf_point(beta_star, tau).kappa_cr


def transversality(beta_star: float, tau: float, n: int = 0) -> float:
    """Crossing speed alpha'(0) = Re[d lambda / d kappa] at the branch-n Hopf point.

    Implicit differentiation of the characteristic equation gives
    d lambda/d kappa = lambda / (kappa * (1 + tau*lambda)); evaluating at
    lambda = i*omega0, kappa = kappa_cr yields the closed form

        2 * beta* * tau**2 * omega0**2 / ((2n+1) * pi * (1 + tau**2 * omega0**2)),

    which is strictly positive: the root pair always crosses rightward.
    """
    omega0 = hopf_point(beta_star, tau, n=n).omega0
    w2 = tau * tau * omega0 * omega0
    return 2.0 * beta_star * w2 / ((2 * n + 1) * math.pi * (1.0 + w2))


@dataclass(frozen=True)
class RegionCheck:
    """Design-rule check (x0dot**m / b**l) < pi/(2c) with c = alpha*tau."""

    lhs: float
    threshold: float
    stable: bool
    margin: float


def stability_region_margin(x0dot: float, m: float, b: float, l: float, c: float) -> RegionCheck:
    """Evaluate the closed-form stability region for one pair.

    c = alpha*tau aggregates sensitivity and delay; the pair is (marginally)
    oscillatory-unstable once x0dot**m / b**l reaches pi/(2c).  The left side
    is :func:`ccfmlab.model.beta_star` at alpha = 1, which checks x0dot, m, b
    and l.
    """
    _require_positive("c", c)
    lhs = beta_star(1.0, x0dot, m, b, l)
    threshold = _HALF_PI / c
    return RegionCheck(lhs=lhs, threshold=threshold, stable=lhs < threshold, margin=threshold - lhs)
