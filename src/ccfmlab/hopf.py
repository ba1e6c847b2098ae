"""Hopf normal form on the center manifold of the critical pair.

At the first crossing of a chosen pair, kappa_cr*beta*tau = pi/2, the
linearization has a single imaginary eigenvalue pair +/- i*omega0; at the
later ones, (2n+1)*pi/2, the pair's own principal root is already unstable.
Projecting the dynamics onto the corresponding two-dimensional center
manifold gives a scalar complex ODE

    dz/dt = i*omega0*z + g20 z^2/2 + g11 z zbar + g02 zbar^2/2 + g21 z^2 zbar/2 + ...

whose first Lyapunov coefficient

    c1(0) = (i/(2*omega0)) * (g20*g11 - 2|g11|^2 - |g02|^2/3) + g21/2

decides the bifurcation: mu2 = -Re c1 / alpha'(0) > 0 means the limit cycle
exists past the critical gain (supercritical), and beta2 = 2*Re c1 < 0 means
it is orbitally stable.  The emerging cycle amplitude in the critical pair's
relative velocity grows like 2*sqrt((kappa - kappa_cr)/mu2).  When another
pair has a larger product beta*tau, it is already past its own crossing at
this gain, so no cycle born at the chosen pair attracts: orbit is 'unstable'.

Construction notes.  The generator's point masses are read off
``model.VectorField`` at rest (``PointMasses``) by ``rest_quotients``, one
call that probes the even and the odd delay slots in two sweeps, so only the
field knows how the pairs are coupled.  M(i*omega0), M(2*i*omega0), M(0) and
M'(i*omega0) come from one scatter of the masses.  Both null vectors of
M(i*omega0) = i*omega0*I - L(i*omega0) come from its SVD.  q is scaled so its
critical component is one.  No mass sits in a y-column, so the adjoint p has
exactly zero y-components; it is scaled so that <p, q> = pbar.M'(i*omega0).q = 1.

The expansion coefficients are Taylor coefficients of the same field,
after Hassard, Kazarinoff & Wan (1981): g(z, zbar) = pbar.F(z q + zbar qbar + w).
They live in the field's v-rows, ``flux_rows`` of the pair observables, so
those are evaluated on a ring of real states z = rho*exp(i*psi):
each z is paired with -z, which splits odd from even orders; the harmonics in
psi split the powers z^j zbar^k of one order; and a polynomial fit in rho^2
over radii that are powers of two removes the higher orders.  F20 and F11 are
the rho^2 parts of harmonics 2 and 0 on the ring along q*exp(i*omega0*theta);
F21 is the rho^3 part of harmonic 1 once w20 and w11 are added, whose three
waves come from one exponential.  A linear field gives exact zeros.  The
correction vectors are solves on the same generator, both in one call on the
M(2*i*omega0) and the v-block of M(0) that the eigendata keep: e solves
M(2*i*omega0) e = (F20, 0), and f's v-rows solve M(0)[:N, :N] f_v = F11 with
f_y = 0, pinned by identity y-rows.  Their residuals on the full systems, with
M(0) rebuilt from the two blocks, are the health numbers reported.  The
y-rows of M(0) f = (F11, 0) read kappa*f_i = 0, which f cannot meet while F11
drives the v-rows: that defect kappa*f_i is the resonance of the line of
equilibria (v, y) = (0, c), and it is reported as a diagnostic rather than
asserted away.

``hopf_report`` runs the public stages in turn: ``critical_eigendata``,
``g_coefficients``, ``manifold_corrections``, ``g_coefficients`` with the
corrections (the cubic coefficients alone) and ``first_lyapunov``.  The
eigendata build the ring once, so a report makes one SVD, one stacked solve
and three field evaluations: the point masses, then the ring twice.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfigError, NumericalError
from .model import EquilibriumCoefficients, PlatoonConfig, VectorField
from .spectral import _crossing_speed, hopf_point

__all__ = [
    "PointMasses",
    "CriticalEigendata",
    "GCoefficients",
    "ManifoldCorrections",
    "WResiduals",
    "HopfReport",
    "critical_eigendata",
    "g_coefficients",
    "manifold_corrections",
    "first_lyapunov",
    "hopf_report",
    "predicted_amplitude",
]


def _rest_scale(field: VectorField) -> float:
    """min(x0, b): the smallest speed or headway at rest, which a perturbation must stay small against."""
    return min(field.leader.v_eq, *field.b.ravel().tolist())


class PointMasses:
    """The linearised generator: the nonzero point masses of a batch-of-one ``VectorField`` at rest.

    Mass k carries state column ``col[k]`` at theta = -``lag[k]`` into row
    ``row[k]``; lag 0 is the current row, lag tau_i pair i's delayed row.
    """

    def __init__(self, field: VectorField):
        self.size = 2 * field.n
        # The field is 0 at rest, so F(h*e)/h cancels nothing.  h lies below
        # half an ulp of x0 and b, so the speed bases and headways round to
        # their rest values and the quotient holds the linear part alone.
        h = 2.0**-60 * _rest_scale(field)
        (slot, self.col, self.row, self.mass), failures = field.rest_quotients(h)
        if failures:
            raise NumericalError(f"the linearisation left the model's domain: {failures[0]}")
        self.lag = np.concatenate(([0.0], field.tau))[slot]

    def critical(self, s: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M(s); M(2s) and M(0), stacked; and M'(s), from one scatter of the masses.

        M(s) = s*I - L(s), with L(s) u the generator's action on exp(s*theta)*u;
        M'(s) = I + sum of lag*mass*exp(-s*lag); the pairing <p, q> is pbar.M'(i*omega0).q.
        """
        ss = np.array([s, 2 * s, 0.0])
        waves = np.exp(np.multiply.outer(-ss, self.lag))
        L = self._scatter(np.concatenate((self.mass * waves, (self.lag * self.mass * waves[0])[None])))
        eye = np.eye(self.size)
        chars = ss[:, None, None] * eye - L[:3]
        return chars[0], chars[1:], eye + L[3]

    def _scatter(self, terms: np.ndarray) -> np.ndarray:
        """Sum each (..., mass) row of terms into its (row, col) entry of a (..., 2N, 2N) matrix."""
        out = np.zeros(terms.shape[:-1] + (self.size, self.size), dtype=complex)
        np.add.at(out, (..., self.row, self.col), terms)
        return out


@dataclass
class CriticalEigendata:
    """Critical eigenstructure of one pair at its Hopf point."""

    pair: int
    omega0: float
    kappa: float
    beta: np.ndarray
    taus: np.ndarray
    field: VectorField  # the model at kappa
    masses: PointMasses  # its linearisation at rest
    M2: np.ndarray  # M(2*i*omega0), which e solves on
    M0_v: np.ndarray  # M(0)[:N, :N], the v-block that f's v-rows solve on
    q: np.ndarray  # right eigenvector, 2N complex, q[pair-1] = 1
    p: np.ndarray  # adjoint eigenvector scaled so <p, q> = 1; y-components 0
    B: complex  # scale applied to the raw adjoint vector
    inner_raw: complex  # <p_raw, q> before scaling
    residual_q: float
    residual_p: float
    ring: _Ring  # the states that the normal-form coefficients are read off


def _peak(x: np.ndarray) -> np.floating:
    """max |x| over a 1-d array."""
    return np.maximum.reduce(np.abs(x))


def _pick_pair(eq: EquilibriumCoefficients) -> int:
    """Default critical pair: the one whose Hopf gain is reached first."""
    # A pair without delay has product 0, below that of any pair with one.
    products = eq.products
    if not products.max() > 0:
        raise InvalidConfigError("no pair has a positive delay; there is no Hopf point")
    return int(products.argmax()) + 1


def critical_eigendata(pc: PlatoonConfig, pair: int | None = None) -> CriticalEigendata:
    """Eigenvectors and inner-product normalization at criticality.

    The analysis is evaluated at the first crossing of the selected pair
    (default: the pair with the largest beta**tau, which turns critical at the
    smallest gain), regardless of the gain stored in the config.
    """
    eq = EquilibriumCoefficients.from_config(pc)
    n = pc.n
    if pair is None:
        pair = _pick_pair(eq)
    if not 1 <= pair <= n:
        raise InvalidConfigError(f"pair must be in 1..{n}, got {pair}")
    tau_p = float(eq.taus[pair - 1])
    if tau_p <= 0:
        raise InvalidConfigError(f"pair {pair} has zero delay; it has no Hopf point")
    hp = hopf_point(float(eq.beta[pair - 1]), tau_p)
    omega0, kappa = hp.omega0, hp.kappa_cr

    field = VectorField(pc.with_kappa(kappa))
    masses = PointMasses(field)
    M, chars, Mp = masses.critical(1j * omega0)
    U, sing, Vh = np.linalg.svd(M)
    sing = sing.tolist()
    if sing[-1] > 1e-8 * sing[0]:
        raise NumericalError(
            f"smallest singular value {sing[-1]:.3e} is not negligible; "
            f"pair {pair} is not critical at kappa = {kappa:.6g}"
        )
    if sing[-2] < 1e-8 * sing[0]:
        raise NumericalError("critical eigenspace is degenerate (two pairs critical at once)")
    q = Vh[-1].conj()
    if abs(q[pair - 1]) < 1e-12:
        raise NumericalError("critical eigenvector has no weight on the critical pair")
    q = q / q[pair - 1]
    p_raw = U[:, -1]  # null vector of M^H, i.e. adjoint direction
    # At rest y enters the flux only through a gain times v = 0, so no mass
    # sits in a y-column and the adjoint's y-components must vanish; enforce
    # exactly after checking they are numerically zero.
    size = np.abs(p_raw)
    if np.maximum.reduce(size[n:]) > 1e-8 * np.maximum.reduce(size):
        raise NumericalError("adjoint eigenvector has non-zero y-components")
    p_raw = p_raw.copy()
    p_raw[n:] = 0.0
    anchor = p_raw[size[:n].argmax()]
    p_raw = p_raw * (abs(anchor) / anchor)
    pbar_raw = p_raw.conj()

    residual_q = float(_peak(M @ q) / _peak(q))
    residual_p = float(_peak(pbar_raw @ M) / _peak(p_raw))

    # Bilinear pairing <p, q> = pbar . M'(i*omega0) . q.
    inner_raw = complex(pbar_raw @ Mp @ q)
    if abs(inner_raw) < 1e-12:
        raise NumericalError("adjoint and right eigenvectors are numerically orthogonal")
    B = (1.0 / inner_raw).conjugate()
    p = B * p_raw
    check = complex(p.conj() @ Mp @ q)
    if abs(check - 1.0) > 1e-10:
        raise NumericalError(f"inner-product normalization failed: <p, q> = {check!r}")

    return CriticalEigendata(
        pair=pair,
        omega0=omega0,
        kappa=kappa,
        beta=np.asarray(eq.beta, dtype=float),
        taus=np.asarray(eq.taus, dtype=float),
        field=field,
        masses=masses,
        M2=chars[0].copy(),  # own arrays: the eigendata keep these blocks alone
        M0_v=chars[1, :n, :n].copy(),
        q=q,
        p=p,
        B=B,
        inner_raw=inner_raw,
        residual_q=residual_q,
        residual_p=residual_p,
        ring=_Ring(field, q, omega0),
    )


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------

# The ring: angles psi_j in [0, pi), each state paired with its negative, at
# the radii 2**-6 .. 2**-9 times R = min(x0, b)/max|q|, which keeps the
# speed and headway deviations small against x0 and b.
_RING_PSI = np.pi * np.arange(3) / 3
_RING_RADII = 2.0 ** -np.arange(6, 10)
# Row j reads the r**(2j) coefficient off a polynomial in r**2 sampled at the radii.
_RING_FIT = np.linalg.inv(np.vander(_RING_RADII**2, increasing=True))
# exp(-i*n*psi_j)/(2A) for n = 0, 1, 2: harmonic n over the whole ring of a part of n's parity.
_RING_PHASES = np.exp(-1j * np.arange(3)[:, None] * _RING_PSI) / (2 * _RING_PSI.size)
# Weights on the even part, (2, K*A): F20 = 2*(harmonic 2)/rho**2 and
# F11 = (harmonic 0)/rho**2, each at rho -> 0.
_EVEN_FIT = _RING_FIT[0] / _RING_RADII**2
_QUADRATIC_WEIGHTS = np.array(
    [2.0 * np.outer(_EVEN_FIT, _RING_PHASES[2]).ravel(), np.outer(_EVEN_FIT, _RING_PHASES[0]).ravel()]
)
# Weights on the differences odd_k/r_k - odd_0/r_0, k >= 1, of the odd part:
# F21 = 2*(harmonic 1)/rho**3 at rho -> 0.  The r**2 fit row sums to zero, so
# it may take differences, which keep a linear field's zero exact.
_CUBIC_WEIGHTS = 2.0 * np.outer(_RING_FIT[1, 1:], _RING_PHASES[1]).reshape(-1)
# exp(i*psi_j), (A, 1, 1), and its square, (A, 1); the radii with the sign
# of z and of -z, (K, 2, 1, 1); and the radii squared and inverted, to broadcast.
_RING_TURN = np.exp(1j * _RING_PSI)[:, None, None]
_RING_TURN2 = _RING_TURN[..., 0] ** 2
_RING_SIGNED = np.multiply.outer(_RING_RADII, [1.0, -1.0])[..., None, None]
_RING_R2 = (_RING_RADII**2)[:, None, None, None]
_RING_INV_R = (1.0 / _RING_RADII)[:, None, None]
# The rates of the three waves of w20 and w11, per unit omega0.
_WAVE_RATES = np.array([1j, -1j, 2j])


def _waves(omega0: float, theta: float | np.ndarray) -> np.ndarray:
    """exp(i*omega0*theta), exp(-i*omega0*theta) and exp(2*i*omega0*theta), stacked, each with a trailing axis."""
    th = np.asarray(theta, dtype=float)[..., None]
    return np.exp((_WAVE_RATES * omega0).reshape((3,) + th.ndim * (1,)) * th)


class _Ring:
    """The one vector field on a ring of states along the critical mode.

    The states are x = z*q*exp(i*omega0*theta) + c.c., plus
    w20 z^2/2 + w11 z zbar + c.c. for the cubic order, at
    z = R*r_k*exp(i*psi_j) for the K radii r_k and the A angles psi_j, each
    paired with -z.  The coefficients live in the field's v-rows, which read
    each pair's observables S_i, v_i and y_i at theta = -tau_i: 3N numbers a
    state.  They are linear, so the ring takes those of its A states at
    radius R and of the complex w20 and w11, and scales and adds them.
    """

    def __init__(self, field: VectorField, q: np.ndarray, omega0: float):
        self.field = field
        self.n = field.n
        self.q = q
        self.scale = _rest_scale(field) / float(_peak(q))
        self.waves = _waves(omega0, -field.tau)  # (3, N, 1)

    def linear_states(self) -> np.ndarray:
        """The observables S_i, v_i and y_i of z*q*exp(i*omega0*theta) + c.c., stacked: (3, K, 2, A, N).

        Those of the A states at radius R times the signed radii, powers of
        two: the whole-row states' observables bit for bit.  Made at each
        evaluation, as a report keeps its eigendata and so the ring.
        """
        states = self.scale * 2.0 * (_RING_TURN * (self.q * self.waves[0])).real  # (A, N, 2N), at radius R
        return np.array(self.field.pair_observables(states))[:, None, None] * _RING_SIGNED

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """The field's v-rows on the (3, K, 2, A, N) observables x, (K, 2, A, N)."""
        n = self.n
        out, failures = self.field.flux_rows(math.inf, *x.reshape(3, 1, -1, n))
        if failures:
            raise NumericalError(f"the normal-form ring left the model's domain: {failures[0]}")
        return out.reshape(x.shape[1:4] + (n,))

    def quadratic(self) -> tuple[np.ndarray, np.ndarray]:
        """F20 and F11 (v-rows): the rho**2 parts of harmonics 2 and 0 along q."""
        rows = self._rows(self.linear_states())
        even = rows[:, 0] + rows[:, 1]  # F(x(z)) + F(x(-z))
        F20, F11 = _QUADRATIC_WEIGHTS @ even.reshape(-1, self.n) / self.scale**2
        return F20, F11

    def cubic(self, corr: "ManifoldCorrections") -> np.ndarray:
        """F21 (v-rows): the rho**3 part of harmonic 1 once w20 and w11 are added."""
        obs = np.array(self.field.pair_observables(corr._w(self.waves)))  # (3, 2, N): those of w20 and w11
        w = (_RING_TURN2 * obs[:, :1]).real + obs[:, 1:].real  # (3, A, N)
        rows = self._rows(self.linear_states() + (self.scale**2 * w)[:, None, None] * _RING_R2)
        odd = (rows[:, 0] - rows[:, 1]) * _RING_INV_R  # (F(x(z)) - F(x(-z)))/r
        return _CUBIC_WEIGHTS @ (odd[1:] - odd[0]).reshape(-1, self.n) / self.scale**3


@dataclass
class GCoefficients:
    """Normal-form coefficients; g21 and F21 are None in those of the quadratic stage."""

    g20: complex
    g02: complex
    g11: complex
    g21: complex | None
    F20: np.ndarray  # per-pair quadratic coefficients (v-rows), length N; F02 is F20.conj()
    F11: np.ndarray
    F21: np.ndarray | None


def g_coefficients(eig: CriticalEigendata, corrections: "ManifoldCorrections | None" = None) -> GCoefficients:
    """Project the nonlinearity onto the critical mode: g_x = pbar(0) . F_x over the v-rows.

    Without corrections, the quadratic coefficients, with g21 and F21 None.
    With the ManifoldCorrections, which need w20 and w11, the quadratic ones
    are taken from ``corrections.g`` and the cubic coefficients added.  The
    adjoint's y-components are zero, so the v-rows carry the projection.
    """
    pbar_v = eig.p.conj()[: eig.field.n]
    if corrections is None:
        F20, F11 = eig.ring.quadratic()
        return GCoefficients(
            g20=complex(pbar_v @ F20),
            g02=complex(pbar_v @ F20.conj()),
            g11=complex(pbar_v @ F11),
            g21=None,
            F20=F20,
            F11=F11,
            F21=None,
        )
    g = corrections.g
    F21 = eig.ring.cubic(corrections)
    return GCoefficients(g.g20, g.g02, g.g11, g21=complex(pbar_v @ F21), F20=g.F20, F11=g.F11, F21=F21)


# ---------------------------------------------------------------------------
# Center-manifold corrections w20, w11
# ---------------------------------------------------------------------------


@dataclass
class WResiduals:
    """Residuals of the two linear solves behind the w-corrections.

    ``w20_boundary`` and ``w11_boundary_v`` should be at machine level.  The
    y-rows of the w11 system are structurally overdetermined; their defect
    (kappa*f_i) is reported here as a diagnostic and is not an error.
    """

    w20_boundary: float
    w11_boundary_v: float
    w11_boundary_y: float


@dataclass
class ManifoldCorrections:
    """Second-order center-manifold data: correction vectors and w-functions."""

    e: np.ndarray  # 2N complex
    f: np.ndarray  # 2N complex
    g: GCoefficients  # the quadratic stage's, which e and f solve for
    eig: CriticalEigendata
    residuals: WResiduals

    def w20(self, theta: float | np.ndarray) -> np.ndarray:
        """w20 at theta; an array of K thetas gives a (K, 2N) array."""
        return self._w(_waves(self.eig.omega0, theta))[0]

    def w11(self, theta: float | np.ndarray) -> np.ndarray:
        """w11 at theta; an array of K thetas gives a (K, 2N) array."""
        return self._w(_waves(self.eig.omega0, theta))[1]

    def _w(self, waves: np.ndarray) -> np.ndarray:
        """w20 and w11, stacked, from the waves exp(i*omega0*theta), exp(-i*omega0*theta) and exp(2*i*omega0*theta)."""
        w0 = self.eig.omega0
        q0 = self.eig.q
        g = self.g
        # The terms along q*exp(i*omega0*theta), less those along qbar*exp(-i*omega0*theta), of w20 and w11.
        coef = np.array(
            [
                [-(g.g20 / (1j * w0)), g.g02.conjugate() / (3j * w0)],
                [g.g11 / (1j * w0), g.g11.conjugate() / (1j * w0)],
            ]
        )
        modes = (coef[..., None] * np.array((q0, q0.conj()))).reshape((2, 2) + (1,) * (waves.ndim - 2) + q0.shape)
        terms = modes * waves[:2]
        w = terms[:, 0] - terms[:, 1]
        w[0] += self.e * waves[2]
        w[1] += self.f
        return w


def manifold_corrections(eig: CriticalEigendata, g: GCoefficients) -> ManifoldCorrections:
    """Solve the second-order operator systems for e and f and build w20, w11.

    e solves M(2*i*omega0) e = (F20, 0); f's v-rows solve M(0) f = (F11, 0),
    whose free y-components are set to zero.  Both systems are solved in one
    call, on the M(2*i*omega0) and the v-block of M(0) that the eigendata keep:
    no mass sits in a y-column, so M(0)'s y-columns are zero, and the y-rows
    read the current row alone, so their v-columns are M(2*i*omega0)'s.  f's
    y-rows are replaced by the identity, with a zero right-hand side, which
    pins f_y = 0.  The residuals are those of the two full 2N systems.
    """
    n = g.F20.size
    chars = np.zeros((2, 2 * n, 2 * n), dtype=complex)  # M(2*i*omega0) and M(0)
    chars[0], chars[1, :n, :n], chars[1, n:, :n] = eig.M2, eig.M0_v, eig.M2[n:, :n]
    systems = chars.copy()
    systems[1, n:] = np.eye(n, 2 * n, n)
    rhs = np.zeros((2, 2 * n, 1), dtype=complex)
    rhs[0, :n, 0] = g.F20
    rhs[1, :n, 0] = g.F11
    x = np.linalg.solve(systems, rhs)
    e, f = x[0, :, 0].copy(), x[1, :, 0].copy()  # own arrays: a report keeps the two vectors alone
    # The largest |residual| of e's system, and of f's v-rows and y-rows.
    residuals = WResiduals(*np.maximum.reduceat(np.abs(chars @ x - rhs).ravel(), [0, 2 * n, 3 * n]).tolist())
    return ManifoldCorrections(e=e, f=f, g=g, eig=eig, residuals=residuals)


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------


def first_lyapunov(g: GCoefficients, omega0: float) -> complex:
    """c1(0) from the normal-form coefficients."""
    if g.g21 is None:
        raise InvalidConfigError("g21 is missing; supply manifold corrections first")
    return (1j / (2.0 * omega0)) * (
        g.g20 * g.g11 - 2.0 * abs(g.g11) ** 2 - abs(g.g02) ** 2 / 3.0
    ) + g.g21 / 2.0


@dataclass
class HopfReport:
    """Full bifurcation characterization at the critical gain of one pair."""

    pair: int
    omega0: float
    kappa_cr: float
    alpha_prime: float
    c1: complex
    mu2: float
    beta2: float
    kind: str  # 'supercritical' | 'subcritical' | 'degenerate'
    orbit: str  # 'stable' | 'unstable' | 'degenerate'
    eig: CriticalEigendata
    g: GCoefficients
    corrections: ManifoldCorrections

    def to_dict(self) -> dict:
        return {
            "pair": self.pair,
            "omega0": self.omega0,
            "kappa_cr": self.kappa_cr,
            "alpha_prime": self.alpha_prime,
            "c1_re": self.c1.real,
            "c1_im": self.c1.imag,
            "mu2": self.mu2,
            "beta2": self.beta2,
            "type": self.kind,
            "orbit": self.orbit,
            **asdict(self.corrections.residuals),
        }


def hopf_report(pc: PlatoonConfig, pair: int | None = None) -> HopfReport:
    """Run the normal-form pipeline at the first crossing of one pair, its four stages in turn."""
    eig = critical_eigendata(pc, pair)
    corr = manifold_corrections(eig, g_coefficients(eig))
    g = g_coefficients(eig, corr)
    c1 = first_lyapunov(g, eig.omega0)
    bstar = float(eig.beta[eig.pair - 1])
    tau_p = float(eig.taus[eig.pair - 1])
    aprime = _crossing_speed(bstar, tau_p, eig.omega0, 0)
    scale = max(1.0, abs(g.g20), abs(g.g11), abs(c1))
    if abs(c1.real) <= 1e-12 * scale:
        kind = orbit = "degenerate"
        mu2 = 0.0
        beta2 = 0.0
    else:
        mu2 = -c1.real / aprime
        beta2 = 2.0 * c1.real
        kind = "supercritical" if mu2 > 0 else "subcritical"
        orbit = "stable" if beta2 < 0 else "unstable"
    products = eig.beta * eig.taus
    if (products > products[eig.pair - 1]).any():  # another pair is past its crossing: no cycle born here attracts
        orbit = "unstable"
    return HopfReport(
        pair=eig.pair,
        omega0=eig.omega0,
        kappa_cr=eig.kappa,
        alpha_prime=aprime,
        c1=c1,
        mu2=mu2,
        beta2=beta2,
        kind=kind,
        orbit=orbit,
        eig=eig,
        g=g,
        corrections=corr,
    )


def predicted_amplitude(report: HopfReport, kappa: float) -> float | None:
    """Leading-order limit-cycle amplitude of v at the critical pair.

    Returns None when no cycle is predicted at this gain (below the critical
    gain for a supercritical bifurcation, or a degenerate case).
    """
    if not math.isfinite(kappa):
        raise InvalidConfigError(f"need a finite kappa, got {kappa}")
    if report.kind != "supercritical":
        return None
    excess = kappa - report.kappa_cr
    if excess <= 0:
        return None
    return 2.0 * math.sqrt(excess / report.mu2)
