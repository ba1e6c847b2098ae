"""Second routes kept only to cross-check the package.

The package computes each quantity once.  The functions here reach the same
numbers by independent means and share no solver code with it:

* ``branch_rate`` solves the two real branch equations of the decay rate
  (``_sigma2_scaled`` and ``_mu_of_c``) by safeguarded Newton iteration,
  against which ``rates.rate_of_convergence`` (read off the dominant
  characteristic root) is checked;
* ``winding_zero_count`` counts characteristic roots in a rectangle by the
  argument principle, and ``_certify_rightmost`` uses it to confirm that
  the root returned by ``spectral.dominant_root`` (the principal
  Lambert-W branch) has no other root to its right;
* ``linear_rhs`` is the linearization about equilibrium with frozen gains
  beta*_i, against which the nonlinear ``model.VectorField`` is checked;
* ``whole_row_field`` is the field on whole state rows, the composition of
  ``pair_observables``, ``flux_rows`` and ``headway_rows`` that the package
  itself no longer makes: the (B, R, 2N) derivative of (B, R, 2N) current
  rows and (B, R, N, 2N) delayed rows;
* ``power`` is the scalar domain rule of the interaction term, against
  which the batched field's domain checks are compared;
* ``reference_simulate`` is the scalar method-of-steps engine: one config,
  a per-pair loop over the vector field, and a per-pair history lookup that
  interpolates each delayed row with its own Hermite weights at every stage.
  ``integrate.simulate_batch`` is checked against it;
* ``delayed_decay`` is the exact solution of v'(t) = -a v(t - tau) from a
  constant history, by the method of steps in rationals: a single follower
  at m = l = 0 obeys that equation, so the schemes' errors, and rk4's order,
  are read against it;
* ``step_loop_run`` is the batched engine before the block method of steps:
  one field call per Runge-Kutta stage and step.  With its pair lookup,
  ``integrate._run`` must match it bit for bit, error for error; with its
  whole-row lookup, which interpolates every column of each delayed row,
  to rounding;
* ``scalar_dominant_root`` is the principal-branch Newton solve one point at
  a time, in ``cmath``: the same seeds, stop rule, lambda-polish and checks
  as the masked array solve ``spectral._rightmost``, which is held to it;
* ``hand_generator`` types the linearised generator's L(s) and M'(s) by
  hand from beta*, against which ``hopf.PointMasses`` (read off the vector
  field at rest) is checked;
* ``pseudospectral_eigenvalues`` discretises the generator on Chebyshev
  nodes and takes the eigenvalues of the resulting matrix, against which
  the per-pair Lambert-W roots of ``spectral.dominant_root`` and the N
  zeros of the line of equilibria are checked: the platoon's spectrum
  decouples into its pairs';
* ``recursive_corrections`` solves for the Hopf correction vectors e and f
  by forward recursion down the bidiagonal platoon coupling, against which
  ``hopf.manifold_corrections`` (linear solves on the characteristic
  matrix) is checked;
* ``loop_w_residuals`` evaluates the w-operator equations one theta sample
  at a time: dw/dtheta against the theta-ODE of the closed forms w20(theta),
  w11(theta) on the interior, and the generator applied piece by piece to
  each exponential at theta = 0, whose boundary values the report's
  solve residuals must equal;
* ``scalar_taylor_coefficients`` is the closed form of F20, F11 and F21 for
  one follower at l = 0, and ``sympy_taylor_coefficients`` takes them from
  sympy's derivatives of the model's flux for any N, m and l.  The
  normal-form coefficients that ``hopf`` reads off ``model.VectorField`` on
  a ring of states are checked against both.
"""

import cmath
import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from ccfmlab.errors import (
    DomainBreakdownError,
    InvalidConfigError,
    NegativeVelocityBaseError,
    NumericalError,
    RootSolveError,
)
from ccfmlab.integrate import Trajectory
from ccfmlab.model import PlatoonState, VectorField, _integer_exponent

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
# principal Lambert-W branch, one point at a time
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
_BRANCH_SERIES = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0, -221.0 / 8505.0)


def _newton_uexpu(u: complex, p: float, tol: float = 1e-15, maxit: int = 80) -> complex:
    """Newton iteration on f(u) = u*exp(u) - p from the given seed."""
    for _ in range(maxit):
        eu = cmath.exp(u)
        f = u * eu - p
        fp = eu * (1.0 + u)
        if fp == 0:
            break
        du = f / fp
        u -= du
        if abs(du) <= tol * (1.0 + abs(u)):
            return u
    return u


def scalar_principal_uexpu(p: float) -> complex:
    """Principal solution u of u*exp(u) = p for real p <= 0, Im(u) in [0, pi)."""
    if p > 0:
        raise InvalidConfigError(f"argument must be <= 0, got {p}")
    if p == 0.0:
        return 0.0 + 0.0j
    ep1 = 1.0 + math.e * p
    if abs(ep1) <= 64.0 * _EPS:
        return -1.0 + 0.0j
    if abs(ep1) <= 0.25:
        s = cmath.sqrt(2.0 * ep1)
        u = 0.0 + 0.0j
        for coeff in reversed(_BRANCH_SERIES):
            u = u * s + coeff
        u = _newton_uexpu(u, p)
    elif p < -1.0 / math.e:
        l1 = complex(math.log(-p), math.pi)
        l2 = cmath.log(l1)
        u = _newton_uexpu(l1 - l2 + l2 / l1, p)
    else:
        u = _newton_uexpu(0.0 + 0.0j, p)
    if abs(u * cmath.exp(u) - p) > 1e-13 * max(1.0, abs(p)):
        raise RootSolveError(f"principal-branch solve failed for p = {p!r}")
    if u.imag < 0:
        u = u.conjugate()
    return u


def scalar_dominant_root(beta_star: float, tau: float, kappa: float = 1.0) -> tuple[complex, float]:
    """(lambda, residual) of the rightmost root of lambda + kappa*beta*exp(-lambda*tau)."""
    a = kappa * beta_star
    if tau == 0.0:
        return complex(-a, 0.0), 0.0
    lam = scalar_principal_uexpu(-a * tau) / tau
    for _ in range(3):
        ex = cmath.exp(-lam * tau)
        f = lam + a * ex
        fp = 1.0 - a * tau * ex
        if abs(fp) < 1e-6 or abs(f) == 0:
            break
        lam -= f / fp
    residual = abs(lam + a * cmath.exp(-lam * tau))
    if residual > 1e-12 * max(1.0, abs(lam)):
        raise RootSolveError(f"dominant-root residual {residual:.3e} for beta*={beta_star}, tau={tau}")
    u = lam * tau
    if not (abs(u.imag) < math.pi and (u.imag != 0.0 or u.real >= -1.0)):
        raise RootSolveError(f"root lambda*tau = {u!r} is off the principal Lambert-W branch")
    return (lam.conjugate() if lam.imag < 0 else lam), residual


# ---------------------------------------------------------------------------
# rightmost-root certificate
# ---------------------------------------------------------------------------


def _deep_real_root_scaled(c: float) -> float:
    """Larger solution x of x*exp(-x) = c on (1, inf) (the deeper real root)."""
    lo, hi = 1.0, max(3.0, -2.0 * math.log(c) + 5.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) > c:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def _certify_rightmost(a: float, tau: float, lam: complex) -> int:
    """Argument-principle certificate that lam is the rightmost root.

    Counts all zeros of lambda + a*exp(-lambda*tau) in a tall rectangle whose
    left edge sits a root-spacing-scaled distance d below Re(lam), and checks
    the count against the analytically known roots there: lam itself (double
    at the branch point), its conjugate, or its real-branch partner.  The edge
    distance is grown if a known root falls too close to the contour, keeping
    every phase kink resolvable by the sampled winding number.  Roots outside
    the rectangle's height lie far deeper in the left half-plane, so a
    matching count proves nothing else lies to the right of lam.

    Returns the number of unexpected zeros strictly right of the certified
    line (0 on success).
    """
    u = lam * tau
    c = a * tau
    if abs(u + 1.0) < 1e-6:
        known = [(lam, 2)]  # branch-point double root (within float resolution)
    elif abs(lam.imag) > 0.0:
        known = [(lam, 1), (lam.conjugate(), 1)]
    else:
        partner = -_deep_real_root_scaled(c) / tau
        known = [(lam, 1), (partner, 1)]
    margin = 0.07 / tau
    d = 0.3 / tau
    for _ in range(8):
        re_lo = lam.real - d
        if any(abs(root.real - re_lo) < margin for root, _ in known):
            d *= 1.23
            continue
        expected = sum(mult for root, mult in known if root.real > re_lo)
        count = winding_zero_count(
            a, tau, re_lo, lam.real + 50.0 / tau, -100.0 / tau, 100.0 / tau
        )
        return count - expected
    raise RootSolveError("could not place a counting contour clear of the known roots")


def winding_zero_count(
    a: float,
    tau: float,
    re_lo: float,
    re_hi: float,
    im_lo: float,
    im_hi: float,
    samples: int = 4096,
) -> int:
    """Count zeros of lambda + a*exp(-lambda*tau) inside a rectangle.

    Argument-principle winding number of the image of the rectangle boundary,
    computed from dense samples with phase unwrapping.  Sampling is doubled
    until consecutive phase increments are all below pi/2 (so no winding can
    slip between samples) and the count is integer-consistent.
    """
    if not (re_lo < re_hi and im_lo < im_hi):
        raise InvalidConfigError("rectangle must have positive extent")

    def boundary(num: int) -> np.ndarray:
        # Staggered samples (never exactly at edge midpoints or corners), so a
        # zero aligned with an edge's midline cannot coincide with a sample.
        frac = (np.arange(num) + 0.5) / num
        bottom = re_lo + (re_hi - re_lo) * frac
        right = re_hi + 1j * (im_lo + (im_hi - im_lo) * frac)
        top = re_hi - (re_hi - re_lo) * frac
        left = re_lo + 1j * (im_hi - (im_hi - im_lo) * frac)
        return np.concatenate(
            [bottom + 1j * im_lo, right, top + 1j * im_hi, left]
        )

    num = samples
    while True:
        z = boundary(num)
        vals = z + a * np.exp(-tau * z)
        mag = np.abs(vals)
        if mag.min() < 1e-12 * max(1.0, abs(a)):
            raise RootSolveError("a zero lies (numerically) on the counting contour")
        phases = np.unwrap(np.angle(np.append(vals, vals[0])))
        increments = np.abs(np.diff(phases))
        total = (phases[-1] - phases[0]) / (2.0 * math.pi)
        count = round(total)
        if increments.max() < 0.5 * math.pi and abs(total - count) < 1e-6:
            return int(count)
        num *= 2
        if num > 2**20:
            raise RootSolveError("winding count did not stabilize under refinement")


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


def delayed_decay(a: float, tau: float, v0: float, t) -> Fraction:
    """v(t) of v'(t) = -a v(t - tau), v = v0 for t <= 0, at t >= 0, exact in rationals.

    The method of steps gives v0 * sum_j (-a)**j (t - (j - 1) tau)**j / j!,
    summed over the j with t >= (j - 1) tau.  Floats are taken at their exact
    binary values, so the sum is the solution for the doubles given.
    """
    a, tau, v0, t = (Fraction(x) for x in (a, tau, v0, t))
    total, j = Fraction(0), 0
    while t >= (j - 1) * tau:
        total += (-a) ** j * (t - (j - 1) * tau) ** j / math.factorial(j)
        j += 1
    return v0 * total


# ---------------------------------------------------------------------------
# step-loop engine
# ---------------------------------------------------------------------------

_LATER = {"euler": (1.0,), "rk4": (0.5, 0.5, 1.0)}
_BLOWUP_LIMIT = 1e12


_NODE = np.array([1.0, 0.0, 0.0, 0.0])[:, None, None, None]  # weights that read node j itself


def _lookup_table(taus: list, h: float, fractions: tuple, hermite: bool):
    """(S, N) offsets of node j from step k and (4, S, N, 1) weights of nodes j and j + 1.

    At fraction c, pair i's delayed instant lies c - tau_i/h steps from node
    k, between nodes j and j + 1, at the same place in every step.  Euler
    reads node j; rk4 weights the values and h times the derivatives at j and
    j + 1, unless the instant is within 2e-9 steps of node j: more than the
    step check's slack of 1e-9, so no weight falls on node k + 1, not yet made.
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
            if not hermite or tau == 0.0 or th < 2e-9:
                weights.append(_NODE.ravel())
            else:
                weights.append((2.0 * t3 - 3.0 * t2 + 1.0, -2.0 * t3 + 3.0 * t2, h * (t3 - 2.0 * t2 + th), h * (t3 - t2)))
    shape = (len(fractions), len(taus))
    return np.array(offsets).reshape(shape), np.array(weights).T.reshape((4,) + shape + (1,))


def whole_row_field(field: VectorField, t, state: np.ndarray, delayed: np.ndarray):
    """The derivative of whole rows, shaped as ``state``, and the failures.

    ``state`` holds (B, 2N) rows [v_1..v_N, y_1..y_N] at t, or (B, R, 2N)
    rows at R instants, and ``delayed`` the (B, N, 2N) or (B, R, N, 2N) rows
    with ``delayed[:, i-1]`` at t - tau_i; ``t`` is a scalar or an (R,)
    array of one time per row.  The v-rows are ``flux_rows`` of the delayed
    rows' ``pair_observables``, the y-rows ``headway_rows`` of the current v.
    """
    n, batch = field.n, field.batch
    dv, failures = field.flux_rows(t, *field.pair_observables(delayed.reshape(batch, -1, n, 2 * n)))
    v = state.reshape(batch, -1, 2 * n)[..., :n]
    return np.concatenate((dv, field.headway_rows(v)), axis=2).reshape(state.shape), failures


def _observe(rows: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The (..., N, 3) observables S_i = v_1 + ... + v_i, v_i and y_i of each pair of (..., 2N) state rows, into out if given."""
    if out is None:
        out = np.empty(rows.shape[:-1] + (n, 3))
    v = rows[..., :n]
    np.add.accumulate(v, axis=-1, out=out[..., 0])
    out[..., 1] = v
    out[..., 2] = rows[..., n:]
    return out


def step_loop_run(field: VectorField, h: float, method: str, init: np.ndarray, steps: int, lookup: str = "pairs"):
    """The node states and errors of a run with one field call per stage and step.

    ``lookup="pairs"`` keeps each node's pair observables beside its state
    and interpolates pair i's S_i, v_i and y_i at its delayed instant, takes
    rk4's k4 at t_{k+1}, the time of the next step's k1, which reads the same
    rows, and steps rk4's y by the headway rows of the mean stage speed, as
    ``integrate._run`` does, which must match it bit for bit.  ``"rows"``
    interpolates each pair's whole delayed row and calls the field on it,
    the lookup before that one, which sums after interpolating, takes k4 at
    k*h + h, and steps y by the classical average of the four stages' y', so
    it agrees to rounding.
    """
    n, batch = field.n, field.batch
    pairs = lookup == "pairs"
    # Node values and derivatives side by side, so that one gather reads both.
    hist = np.zeros((batch, 2, steps + 1, 2 * n))
    states = hist[:, 0]
    states[:, 0] = init
    seen = np.zeros((batch, 2, steps + 1, n, 3))  # the same nodes' pair observables
    seen[:, 0, 0] = _observe(init, n)
    source = seen if pairs else hist
    taus = field.tau.tolist()
    later = _LATER[method]
    offsets, weights = _lookup_table(taus, h, later, method == "rk4")
    around = np.stack((offsets, offsets + 1))  # nodes j and j + 1 of each pair and later stage, from step 0
    pre = -int(offsets.min())  # steps whose lookups reach into t < 0
    zero = [i for i, tau in enumerate(taus) if tau == 0.0]
    pair = np.arange(n)

    def read(state):  # what pair i reads of a stage state
        return _observe(state, n) if pairs else np.repeat(state[:, None], n, axis=1)

    derivatives = np.empty((len(later) + 1, batch, 2 * n))  # a step's stage derivatives, each filled in place

    def call(t, state, rows, stage):
        if not pairs:
            return whole_row_field(field, t, state, rows)
        dv, failures = field.flux_rows(t, *(rows[:, None, :, q] for q in range(3)))
        dot = derivatives[stage]
        dot[:, :n] = dv[:, 0]
        dot[:, n:] = field.headway_rows(state[:, :n])
        return dot, failures

    def record(slot, r, row):  # slot 0 holds node values, slot 1 derivatives
        hist[:, slot, r] = row
        _observe(row, n, seen[:, slot, r])

    rows = read(np.tile(init, (batch, 1)))  # stage 1 of step 0 reads the pre-history everywhere
    errors: dict = {}
    for k in range(steps):
        yk = states[:, k]
        if zero:
            rows[:, zero] = read(yk)[:, zero]
        k1, failures = call(k * h, yk, rows, 0)
        ks = [k1]
        if failures:
            _retire(failures, errors, (hist, seen, rows, k1))
        record(1, k, k1)  # node k's derivative, which the later stages' lookups may read
        # One gather reads the rows of every later stage: nodes j and j + 1 of each pair.
        nodes, w = around + k, weights
        if k < pre:  # instants before t = 0 read the pre-history, held in node 0
            early = nodes[0] < 0
            nodes = np.where(early, 0, nodes)
            w = np.where(early[..., None], _NODE, w)
        if pairs:
            own = source[:, :, nodes, pair]  # (B, 2, 2, S, N, 3): pair i's observables at its nodes
        else:
            own = source[:, :, nodes]  # (B, 2, 2, S, N, 2N): pair i's whole rows at its nodes
        if method == "euler":
            delayed = own[:, 0, 0]  # Euler reads nodes, with no weights
            new = yk + k1 * h
        else:
            delayed = (own.reshape((batch, 4) + own.shape[3:]) * w).sum(axis=1)
            for stage, c in enumerate(later):
                ystage = yk + (h * c) * ks[-1]
                rows = delayed[:, stage]
                if zero:
                    rows[:, zero] = read(ystage)[:, zero]
                t = (k + 1) * h if pairs and c == 1.0 else k * h + c * h  # the pair lookup takes k4 at t_{k+1}, the next k1's time
                dot, failures = call(t, ystage, rows, stage + 1)
                ks.append(dot)
                if failures:
                    _retire(failures, errors, (hist, seen, delayed, *ks))
            new = yk + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
            if pairs:  # y' = kappa*v is linear: the headway rows of the mean stage speed, as integrate does
                mean = yk[:, :n] + (h / 6.0) * (ks[0][:, :n] + (ks[1][:, :n] + ks[2][:, :n]))
                new[:, n:] = yk[:, n:] + h * field.headway_rows(mean)
        record(0, k + 1, new)
        rows = delayed[:, -1]  # the last stage's instant is the next step's stage 1
        if not abs(states[:, k + 1]).max() <= _BLOWUP_LIMIT:  # NaN fails this test too
            blown = np.flatnonzero(~(abs(states[:, k + 1]).max(axis=1) <= _BLOWUP_LIMIT)).tolist()
            message = f"trajectory blew up at t = {(k + 1) * h:.6g}"
            _retire({b: NumericalError(message) for b in blown}, errors, (hist, seen, rows))
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
# The linearised generator by hand, and its spectrum by pseudospectral collocation
# ---------------------------------------------------------------------------


def hand_generator(beta, taus, kappa, s) -> tuple[np.ndarray, np.ndarray]:
    """L(s) and M'(s) of the generator at rest, typed by hand from beta*.

    Pair i's flux is kappa*beta*_i v_i(t - tau_i): a point mass -kappa*beta*_i
    at (i, i) and +kappa*beta*_i at (i+1, i), both at theta = -tau_i.  The
    y-rows y_i' = kappa*v_i(t) hold a point mass kappa at theta = 0, which
    does not depend on s.  M(s) = s*I - L(s), so M'(s) = I + sum of
    tau*mass*exp(-s*tau).
    """
    n = beta.size
    i = np.arange(n)
    L = np.zeros((2 * n, 2 * n), dtype=complex)
    mass = kappa * beta * np.exp(-s * taus)
    L[i, i] = -mass
    L[i[1:], i[:-1]] = mass[:-1]
    L[n + i, i] = kappa
    Mp = np.eye(2 * n, dtype=complex)
    Mp[i, i] -= taus * mass
    Mp[i[1:], i[:-1]] = (taus * mass)[:-1]
    return L, Mp


def pseudospectral_eigenvalues(masses, degree: int = 40) -> np.ndarray:
    """Eigenvalues of the generator discretised on degree + 1 Chebyshev nodes.

    After Breda, Maset & Vermiglio, "Pseudospectral differencing methods for
    characteristic roots of delay differential equations" (SIAM J. Sci.
    Comput. 27, 2005).  A state is a function on [-tau_max, 0], held by its
    values at the nodes theta_0 = 0 > theta_1 > ... > theta_M = -tau_max.
    Rows 1..M differentiate the interpolant; row 0 applies the measure, each
    point mass (``masses.row``, ``.col``, ``.lag``, ``.mass``, with
    ``.size`` state columns) reading the interpolant at -lag through its
    Lagrange weights.  The rightmost eigenvalues converge spectrally in
    the degree to characteristic roots.
    """
    d = masses.size
    tau_max = float(np.max(masses.lag))
    if tau_max <= 0.0:
        raise InvalidConfigError("the pseudospectral generator needs a positive delay")
    k = np.arange(degree + 1)
    ends = (k == 0) | (k == degree)
    x = np.cos(np.pi * k / degree)  # x = 1 + 2*theta/tau_max
    c = np.where(ends, 2.0, 1.0) * (-1.0) ** k
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(degree + 1))
    D -= np.diag(D.sum(axis=1))
    A = np.zeros(((degree + 1) * d, (degree + 1) * d))
    A[d:] = np.kron(D[1:] * (2.0 / tau_max), np.eye(d))
    weights = np.where(ends, 0.5, 1.0) * (-1.0) ** k  # barycentric weights of the Chebyshev points
    for row, col, lag, mass in zip(masses.row, masses.col, masses.lag, masses.mass):
        gap = (1.0 - 2.0 * lag / tau_max) - x
        if np.any(gap == 0.0):
            ell = (gap == 0.0).astype(float)
        else:
            ell = weights / gap
            ell /= ell.sum()
        A[row, col::d] += mass * ell
    return np.linalg.eigvals(A)


# ---------------------------------------------------------------------------
# Hopf corrections by recursion, and w-residuals one theta sample at a time
# ---------------------------------------------------------------------------


def recursive_corrections(eig, g) -> tuple[np.ndarray, np.ndarray]:
    """e and f by forward recursion down the platoon.

    The v-rows of (2*i*omega0*I - L(2*i*omega0)) e = F20 give a forward
    recursion with denominators 2*i*omega0 + kappa*beta*_i*exp(-2*i*omega0*
    tau_i), and the y-rows e_y = kappa*e_v/(2*i*omega0).  The v-rows of
    -L(0) f = F11 give f_i = (F11_i + kappa*beta*_{i-1} f_{i-1})/(kappa*beta*_i),
    with the free y-components set to zero.
    """
    n = eig.beta.size
    kappa = eig.kappa
    beta = eig.beta
    taus = eig.taus
    s2 = 2j * eig.omega0
    e = np.zeros(2 * n, dtype=complex)
    prev = 0.0 + 0.0j
    prev_mass = 0.0 + 0.0j
    for i in range(n):
        mass_i = kappa * beta[i] * cmath.exp(-s2 * taus[i])
        e[i] = (g.F20[i] + prev_mass * prev) / (s2 + mass_i)
        prev = e[i]
        prev_mass = mass_i
    e[n:] = kappa * e[:n] / s2
    f = np.zeros(2 * n, dtype=complex)
    prev = 0.0 + 0.0j
    for i in range(n):
        numer = g.F11[i] + (kappa * beta[i - 1] * prev if i > 0 else 0.0)
        f[i] = numer / (kappa * beta[i])
        prev = f[i]
    return e, f


class LoopWResiduals(NamedTuple):
    """Interior and theta = 0 residuals of the w-operator equations."""

    w20_interior: float
    w20_boundary: float
    w11_interior: float
    w11_boundary_v: float
    w11_boundary_y: float


def loop_w_residuals(pc, eig, g, corr) -> LoopWResiduals:
    """The w-operator residuals with the interior checked in a loop over theta.

    The interior samples 11 thetas over [-tau_max, 0]; the boundary applies
    the generator to each exponential piece of w20 and w11 at theta = 0.
    """
    n = pc.n
    w0 = eig.omega0
    kappa = eig.kappa
    q0 = eig.q
    qb = q0.conj()
    tau_max = float(np.max(eig.taus))

    interior20 = 0.0
    interior11 = 0.0
    for theta in np.linspace(-tau_max, 0.0, 11):
        ew = cmath.exp(1j * w0 * theta)
        d20 = (
            -(g.g20 / (1j * w0)) * q0 * (1j * w0) * ew
            - (g.g02.conjugate() / (3j * w0)) * qb * (-1j * w0) / ew
            + corr.e * 2j * w0 * cmath.exp(2j * w0 * theta)
        )
        rhs20 = 2j * w0 * corr.w20(theta) + g.g20 * q0 * ew + g.g02.conjugate() * qb / ew
        interior20 = max(interior20, float(np.max(np.abs(d20 - rhs20))))
        d11 = (g.g11 / (1j * w0)) * q0 * (1j * w0) * ew - (g.g11.conjugate() / (1j * w0)) * qb * (-1j * w0) / ew
        rhs11 = g.g11 * q0 * ew + g.g11.conjugate() * qb / ew
        interior11 = max(interior11, float(np.max(np.abs(d11 - rhs11))))

    L2 = hand_generator(eig.beta, eig.taus, kappa, 2j * w0)[0]
    L0 = hand_generator(eig.beta, eig.taus, kappa, 0.0)[0]
    F20_full = np.zeros(2 * n, dtype=complex)
    F20_full[:n] = g.F20
    F11_full = np.zeros(2 * n, dtype=complex)
    F11_full[:n] = g.F11
    w20_0 = corr.w20(0.0)
    A_w20 = -(g.g20 / (1j * w0)) * (1j * w0) * q0 - (g.g02.conjugate() / (3j * w0)) * (-1j * w0) * qb + L2 @ corr.e
    H20_0 = -g.g20 * q0 - g.g02.conjugate() * qb + F20_full
    res20 = 2j * w0 * w20_0 - A_w20 - H20_0
    A_w11 = (g.g11 / (1j * w0)) * (1j * w0) * q0 - (g.g11.conjugate() / (1j * w0)) * (-1j * w0) * qb + L0 @ corr.f
    H11_0 = -g.g11 * q0 - g.g11.conjugate() * qb + F11_full
    res11 = -A_w11 - H11_0
    return LoopWResiduals(
        w20_interior=interior20,
        w20_boundary=float(np.max(np.abs(res20))),
        w11_interior=interior11,
        w11_boundary_v=float(np.max(np.abs(res11[:n]))),
        w11_boundary_y=float(np.max(np.abs(res11[n:]))),
    )


# ---------------------------------------------------------------------------
# Normal-form Taylor coefficients
# ---------------------------------------------------------------------------


def scalar_taylor_coefficients(pc, eig, corr=None):
    """F20, F11 and F21 of one follower at l = 0 in closed form.

    The model reduces to v' = -kappa*g(v(t - tau)) with
    g(u) = beta*(u - (m/x0) u^2 + m(m-1) u^3/(2 x0^2) + ...).  With q_v = 1,
    u(-tau) = z e^{-i w tau} + c.c. + w(-tau), and the z^2/2, z zbar, z^2 zbar/2
    conventions this gives the three coefficients below.  F21 is None
    without the corrections.
    """
    if pc.n != 1 or pc.l != 0.0 or abs(eig.q[0] - 1.0) > 1e-14:
        raise InvalidConfigError("the closed form covers one follower at l = 0 with q_v = 1")
    kb = eig.kappa * eig.beta[0]
    tau = eig.taus[0]
    m, x0 = pc.m, pc.leader.v_eq
    back = cmath.exp(-1j * eig.omega0 * tau)
    F20 = 2.0 * kb * (m / x0) * back * back
    F11 = 2.0 * kb * (m / x0)
    if corr is None:
        return F20, F11, None
    w20 = corr.w20(-tau)[0]
    w11 = corr.w11(-tau)[0]
    F21 = -3.0 * kb * m * (m - 1.0) / x0**2 * back + 2.0 * kb * (m / x0) * (w20 / back + 2.0 * w11 * back)
    return F20, F11, F21


@functools.lru_cache(maxsize=None)
def _sympy_flux_forms(m: float, l: float):
    """The second and third derivatives at rest of the flux alpha (x0 - s - v)^m (b + y)^-l v in (s, y, v).

    sympy differentiates once per pair of exponents, which enter as exact
    rationals; the result is a function of (alpha, x0, b) returning the
    (3, 3) and (3, 3, 3) tensors.
    """
    import sympy

    alpha, x0, b = params = sympy.symbols("alpha x0 b", positive=True)
    s, y, v = args = sympy.symbols("s y v")
    flux = alpha * (x0 - s - v) ** sympy.Rational(m) * (b + y) ** -sympy.Rational(l) * v
    at_rest = {a: 0 for a in args}
    d2 = [[0] * 3 for _ in range(3)]
    d3 = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        expr = sympy.diff(flux, args[i], args[j])
        d2[i][j] = d2[j][i] = expr.xreplace(at_rest)
        for k in range(j, 3):
            val = sympy.diff(expr, args[k]).xreplace(at_rest)
            for a, c, e in set(itertools.permutations((i, j, k))):
                d3[a][c][e] = val
    evaluate = sympy.lambdify(params, (d2, d3), "math")
    return lambda *values: tuple(np.array(t, dtype=float) for t in evaluate(*values))


def sympy_taylor_coefficients(pc, eig, corr=None):
    """F20, F11 and F21 (v-rows) from derivatives of the model equations taken by sympy.

    Pair i's flux alpha_i (x0 - s - v)^m (b_i + y)^-l v depends on its
    delayed row at -tau_i through s = v_1 + ... + v_{i-1}, y = y_i and
    v = v_i.  With B and C its second and third derivative forms at
    equilibrium in (s, y, v), F20 = B(q, q), F11 = B(q, qbar) and
    F21 = C(q, q, qbar) + 2 B(q, w11) + B(qbar, w20), each v-row being kappa
    times the predecessor's form minus the pair's own.  Non-integer and
    negative m are covered.  Call it from tests that first
    ``pytest.importorskip("sympy")``.
    """
    n = pc.n
    w0 = eig.omega0
    forms = _sympy_flux_forms(pc.m, pc.l)

    def delayed(vec, i):
        """Pair i's (s, y, v) of the function theta -> vec(theta) at -tau_i (0-based i)."""
        row = vec(-float(eig.taus[i]))
        return np.array([row[:i].sum(), row[n + i], row[i]])

    def q(theta):
        return eig.q * cmath.exp(1j * w0 * theta)

    def qbar(theta):
        return np.conj(q(theta))

    fluxes = np.zeros((3, n), dtype=complex)
    for i, veh in enumerate(pc.vehicles):
        d2, d3 = forms(veh.alpha, pc.leader.v_eq, veh.b)
        qi, qbi = delayed(q, i), delayed(qbar, i)
        fluxes[0, i] = qi @ d2 @ qi
        fluxes[1, i] = qi @ d2 @ qbi
        if corr is not None:
            w20, w11 = delayed(corr.w20, i), delayed(corr.w11, i)
            fluxes[2, i] = np.einsum("abc,a,b,c", d3, qi, qi, qbi) + 2.0 * qi @ d2 @ w11 + qbi @ d2 @ w20
    F = -eig.kappa * fluxes
    F[:, 1:] += eig.kappa * fluxes[:, :-1]
    return F[0], F[1], F[2] if corr is not None else None
