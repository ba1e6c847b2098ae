"""Hopf normal form on the center manifold of the critical pair.

At the critical gain kappa_cr of a chosen pair the linearization has a single
imaginary eigenvalue pair +/- i*omega0.  Projecting the dynamics onto the
corresponding two-dimensional center manifold gives a scalar complex ODE

    dz/dt = i*omega0*z + g20 z^2/2 + g11 z zbar + g02 zbar^2/2 + g21 z^2 zbar/2 + ...

whose first Lyapunov coefficient

    c1(0) = (i/(2*omega0)) * (g20*g11 - 2|g11|^2 - |g02|^2/3) + g21/2

decides the bifurcation: mu2 = -Re c1 / alpha'(0) > 0 means the limit cycle
exists past the critical gain (supercritical), and beta2 = 2*Re c1 < 0 means
it is orbitally stable.  The emerging cycle amplitude in the critical pair's
relative velocity grows like 2*sqrt((kappa - kappa_cr)/mu2).

Construction notes.  The infinitesimal-generator measure places the delayed
point masses -kappa*beta*_i at (i, i) and +kappa*beta*_i at (i+1, i), and
spreads the headway coupling of the y-rows as a uniform density kappa d(theta)
over [-tau_max, 0]; the y-components of the eigenvector therefore carry the
factor Theta = (1 - exp(-i*omega0*tau_max))/(i*omega0).  The adjoint row
vector has exactly zero y-components (the y-columns of the characteristic
matrix are diagonal), which kills the uniform-density term of the inner
product.  Both null vectors are extracted from an SVD of the characteristic
matrix and normalized so the critical component of q equals one and
<p, q> = 1.  The second-order correction vectors e and f solve the operator
systems (2*i*omega0*I - L(2*i*omega0)) e = F20 and -L(0) f = F11; the y-rows
of the latter are overdetermined, leaving an irreducible defect kappa*tau_max*f_i
that is reported as a diagnostic rather than asserted away.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConfigError, NumericalError
from .model import EquilibriumCoefficients, PlatoonConfig
from .spectral import hopf_point, transversality

__all__ = [
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


def _theta_factor(s: complex, tau_max: float) -> complex:
    """Integral of exp(s*theta) over [-tau_max, 0]: (1 - exp(-s*tau_max))/s."""
    if abs(s) < 1e-14:
        return complex(tau_max)
    return (1.0 - cmath.exp(-s * tau_max)) / s


def _lin_matrix(beta: np.ndarray, taus: np.ndarray, kappa: float, s: complex, tau_max: float) -> np.ndarray:
    """Action L(s) of the generator measure on the exponential exp(s*theta)*q."""
    n = beta.size
    L = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        L[i, i] = -kappa * beta[i] * cmath.exp(-s * taus[i])
        if i + 1 < n:
            L[i + 1, i] = kappa * beta[i] * cmath.exp(-s * taus[i])
    theta = _theta_factor(s, tau_max)
    for i in range(n):
        L[n + i, i] = kappa * theta
    return L


def _char_matrix(beta: np.ndarray, taus: np.ndarray, kappa: float, s: complex, tau_max: float) -> np.ndarray:
    return s * np.eye(2 * beta.size, dtype=complex) - _lin_matrix(beta, taus, kappa, s, tau_max)


@dataclass
class CriticalEigendata:
    """Critical eigenstructure of one pair at its Hopf point."""

    pair: int
    n_branch: int
    omega0: float
    kappa: float
    tau_max: float
    beta: np.ndarray
    taus: np.ndarray
    q: np.ndarray  # right eigenvector, 2N complex, q[pair-1] = 1
    p: np.ndarray  # adjoint eigenvector scaled so <p, q> = 1; y-components 0
    B: complex  # scale applied to the raw adjoint vector
    theta: complex  # uniform-density integral at i*omega0
    zetas: tuple[complex, complex, complex, complex]
    inner_raw: complex  # <p_raw, q> before scaling
    residual_q: float
    residual_p: float


def _pick_pair(pc: PlatoonConfig, eq: EquilibriumCoefficients) -> int:
    """Default critical pair: the one whose Hopf gain is reached first."""
    candidates = [(i + 1, eq.beta[i] * eq.taus[i]) for i in range(pc.n) if eq.taus[i] > 0]
    if not candidates:
        raise InvalidConfigError("no pair has a positive delay; there is no Hopf point")
    return max(candidates, key=lambda item: item[1])[0]


def critical_eigendata(pc: PlatoonConfig, pair: int | None = None, n_branch: int = 0) -> CriticalEigendata:
    """Eigenvectors, inner-product normalization and bookkeeping at criticality.

    The analysis is evaluated at the critical gain of the selected pair
    (default: the pair with the largest beta**tau, which turns critical at the
    smallest gain), regardless of the gain stored in the config.
    """
    eq = EquilibriumCoefficients.from_config(pc)
    n = pc.n
    if pair is None:
        pair = _pick_pair(pc, eq)
    if not 1 <= pair <= n:
        raise InvalidConfigError(f"pair must be in 1..{n}, got {pair}")
    tau_p = float(eq.taus[pair - 1])
    if tau_p <= 0:
        raise InvalidConfigError(f"pair {pair} has zero delay; it has no Hopf point")
    hp = hopf_point(float(eq.beta[pair - 1]), tau_p, n=n_branch)
    omega0, kappa = hp.omega0, hp.kappa_cr
    tau_max = float(np.max(eq.taus))
    s = 1j * omega0

    M = _char_matrix(eq.beta, eq.taus, kappa, s, tau_max)
    U, sing, Vh = np.linalg.svd(M)
    if sing[-1] > 1e-8 * sing[0]:
        raise NumericalError(
            f"smallest singular value {sing[-1]:.3e} is not negligible; "
            f"pair {pair} is not critical at kappa = {kappa:.6g}"
        )
    if 2 * n > 1 and sing[-2] < 1e-8 * sing[0]:
        raise NumericalError("critical eigenspace is degenerate (two pairs critical at once)")
    q = Vh[-1].conj()
    if abs(q[pair - 1]) < 1e-12:
        raise NumericalError("critical eigenvector has no weight on the critical pair")
    q = q / q[pair - 1]
    p_raw = U[:, -1]  # null vector of M^H, i.e. adjoint direction
    # The y-columns of M are diagonal (i*omega0), so the adjoint's y-components
    # must vanish; enforce exactly after checking they are numerically zero.
    if np.max(np.abs(p_raw[n:])) > 1e-8 * np.max(np.abs(p_raw)):
        raise NumericalError("adjoint eigenvector has non-zero y-components")
    p_raw = p_raw.copy()
    p_raw[n:] = 0.0
    anchor = p_raw[np.argmax(np.abs(p_raw))]
    p_raw = p_raw * (abs(anchor) / anchor)

    residual_q = float(np.max(np.abs(M @ q)) / np.max(np.abs(q)))
    residual_p = float(np.max(np.abs(p_raw.conj() @ M)) / np.max(np.abs(p_raw)))

    # Bilinear pairing <p, q> = pbar . M'(i*omega0) . q; with zero adjoint
    # y-components only the identity and the point masses survive.
    pbar = p_raw.conj()
    zeta4 = complex(np.dot(pbar, q))
    zeta1 = 0.0 + 0.0j  # uniform-density term, killed by pbar_y = 0
    zeta2 = 0.0 + 0.0j
    for i in range(1, n):  # pairs 1..N-1 (1-based)
        mass = kappa * eq.beta[i - 1] * eq.taus[i - 1] * cmath.exp(-s * eq.taus[i - 1]) * q[i - 1]
        zeta2 += mass * (pbar[i] - pbar[i - 1])
    zeta3 = (
        kappa * eq.beta[n - 1] * eq.taus[n - 1] * cmath.exp(-s * eq.taus[n - 1]) * q[n - 1] * (-pbar[n - 1])
    )
    inner_raw = zeta4 + zeta1 + zeta2 + zeta3
    if abs(inner_raw) < 1e-12:
        raise NumericalError("adjoint and right eigenvectors are numerically orthogonal")
    B = (1.0 / inner_raw).conjugate()
    p = B * p_raw
    check = complex(np.dot(p.conj(), _char_matrix_derivative(eq.beta, eq.taus, kappa, s) @ q))
    if abs(check - 1.0) > 1e-10:
        raise NumericalError(f"inner-product normalization failed: <p, q> = {check!r}")

    return CriticalEigendata(
        pair=pair,
        n_branch=n_branch,
        omega0=omega0,
        kappa=kappa,
        tau_max=tau_max,
        beta=np.asarray(eq.beta, dtype=float),
        taus=np.asarray(eq.taus, dtype=float),
        q=q,
        p=p,
        B=B,
        theta=_theta_factor(s, tau_max),
        zetas=(zeta1, zeta2, zeta3, zeta4),
        inner_raw=inner_raw,
        residual_q=residual_q,
        residual_p=residual_p,
    )


def _char_matrix_derivative(beta: np.ndarray, taus: np.ndarray, kappa: float, s: complex) -> np.ndarray:
    """d/ds of the characteristic matrix; the pairing <p,q> equals pbar.M'(s).q.

    The uniform-density derivative in the y-rows is omitted: it is always
    multiplied by the adjoint's zero y-components.
    """
    n = beta.size
    Mp = np.eye(2 * n, dtype=complex)
    for i in range(n):
        mass = kappa * beta[i] * taus[i] * cmath.exp(-s * taus[i])
        Mp[i, i] -= mass
        if i + 1 < n:
            Mp[i + 1, i] += mass
    return Mp


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------


@dataclass
class GCoefficients:
    """Normal-form coefficients; g21 stays None until corrections are supplied."""

    g20: complex
    g02: complex
    g11: complex
    g21: complex | None
    F20: np.ndarray  # per-pair quadratic coefficients (v-rows), length N
    F02: np.ndarray
    F11: np.ndarray
    F21: np.ndarray | None


def _quadratic_coefficients(pc: PlatoonConfig, eig: CriticalEigendata) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair quadratic coefficients F20, F02, F11 of the critical expansion.

    Each pair couples two delayed interaction terms; the leading factor of the
    speed-expansion accumulates the pair position, giving the (i-2)/(i-1)
    weighted terms for pairs beyond the first.
    """
    n = pc.n
    m, l = pc.m, pc.l
    x0 = pc.leader.v_eq
    kappa = eig.kappa
    beta = eig.beta
    taus = eig.taus
    b = [veh.b for veh in pc.vehicles]
    w0 = eig.omega0
    F20 = np.zeros(n, dtype=complex)
    F11 = np.zeros(n, dtype=complex)
    for i in range(1, n + 1):
        Ei = cmath.exp(-2j * w0 * taus[i - 1])
        F20[i - 1] = 4.0 * (m / x0 + l / b[i - 1]) * beta[i - 1] * Ei + 4.0 * (m / x0) * beta[i - 1] * (i - 1) * Ei
        F11[i - 1] = 2.0 * (m / x0 + l / b[i - 1]) * beta[i - 1]
        if i >= 2:
            Ep = cmath.exp(-2j * w0 * taus[i - 2])
            F20[i - 1] -= (
                4.0 * (m / x0 + l / b[i - 2]) * beta[i - 2] * Ep + 4.0 * (m / x0) * beta[i - 2] * (i - 2) * Ep
            )
            F11[i - 1] -= 2.0 * (m / x0 + l / b[i - 2]) * beta[i - 2]
    F20 *= kappa
    F11 *= kappa
    return F20, F20.conj(), F11


def g_coefficients(
    pc: PlatoonConfig, eig: CriticalEigendata, corrections: "ManifoldCorrections | None" = None
) -> GCoefficients:
    """Project the nonlinearity onto the critical mode: g_x = pbar(0) . F_x.

    Without corrections only the quadratic coefficients are available; pass
    the ManifoldCorrections to fill in g21 (which needs w20 and w11).
    """
    F20, F02, F11 = _quadratic_coefficients(pc, eig)
    pbar_v = eig.p.conj()[: pc.n]
    g20 = complex(np.dot(pbar_v, F20))
    g02 = complex(np.dot(pbar_v, F02))
    g11 = complex(np.dot(pbar_v, F11))
    F21 = None
    g21 = None
    if corrections is not None:
        F21 = _cubic_coefficients(pc, eig, corrections)
        g21 = complex(np.dot(pbar_v, F21))
    return GCoefficients(g20=g20, g02=g02, g11=g11, g21=g21, F20=F20, F02=F02, F11=F11, F21=F21)


def _cubic_coefficients(pc: PlatoonConfig, eig: CriticalEigendata, corr: "ManifoldCorrections") -> np.ndarray:
    """Per-pair cubic coefficients F21, mixing w-corrections and direct cubics."""
    n = pc.n
    m, l = pc.m, pc.l
    x0 = pc.leader.v_eq
    kappa = eig.kappa
    beta = eig.beta
    taus = eig.taus
    b = [veh.b for veh in pc.vehicles]
    w0 = eig.omega0
    w20_at = {}
    w11_at = {}
    for tau in set(float(t) for t in taus):
        w20_at[tau] = corr.w20(-tau)
        w11_at[tau] = corr.w11(-tau)

    def block(idx: int, pos: int) -> complex:
        """Contribution of the interaction of pair idx, occupying position pos.

        idx is the 1-based pair whose delayed term is being expanded; pos is
        idx-1 for the predecessor term of pair i = idx+1 and idx-1 as well for
        the pair's own term -- the caller passes pos = idx - 1 directly as the
        accumulated-speed weight.
        """
        tau = float(taus[idx - 1])
        Ef = cmath.exp(1j * w0 * tau)
        Eb = cmath.exp(-1j * w0 * tau)
        w20d = w20_at[tau]
        w11d = w11_at[tau]
        bracket = w20d[idx - 1] * Ef + 2.0 * w11d[idx - 1] * Eb
        term = 2.0 * (m / x0 + l / b[idx - 1]) * beta[idx - 1] * bracket
        wsum = 0.0 + 0.0j
        for nn in range(1, pos + 1):
            wsum += (w20d[nn - 1] + w20d[idx - 1]) * Ef + 2.0 * (w11d[nn - 1] + w11d[idx - 1]) * Eb
        term += (m / x0) * beta[idx - 1] * wsum
        cubic = (
            m * (m - 1.0) / (2.0 * x0 * x0)
            + m * (m - 1.0) * pos * pos / (x0 * x0)
            + 2.0 * m * (m - 1.0) * pos / (3.0 * x0 * x0)
            + l * m * pos / (3.0 * b[idx - 1] * x0)
            + l * m / (3.0 * b[idx - 1] * x0)
        )
        term -= 2.0 * Eb * beta[idx - 1] * cubic
        return term

    F21 = np.zeros(n, dtype=complex)
    for i in range(1, n + 1):
        val = block(i, i - 1)
        if i >= 2:
            val -= block(i - 1, i - 2)
        F21[i - 1] = kappa * val
    return F21


# ---------------------------------------------------------------------------
# Center-manifold corrections w20, w11
# ---------------------------------------------------------------------------


@dataclass
class WResiduals:
    """Operator-equation residuals of the w-corrections.

    Interior residuals and the full theta = 0 residual of w20 should be at
    machine level.  The y-rows of the w11 boundary equation are structurally
    overdetermined; their defect (kappa*tau_max*f_i) is reported here as a
    diagnostic and is not an error.
    """

    w20_interior: float
    w20_boundary: float
    w11_interior: float
    w11_boundary_v: float
    w11_boundary_y: float


@dataclass
class ManifoldCorrections:
    """Second-order center-manifold data: correction vectors and w-functions."""

    e: np.ndarray  # 2N complex
    f: np.ndarray  # 2N complex
    g20: complex
    g02: complex
    g11: complex
    eig: CriticalEigendata
    residuals: WResiduals | None = None

    def w20(self, theta: float) -> np.ndarray:
        w0 = self.eig.omega0
        q0 = self.eig.q
        return (
            -(self.g20 / (1j * w0)) * q0 * cmath.exp(1j * w0 * theta)
            - (self.g02.conjugate() / (3j * w0)) * q0.conj() * cmath.exp(-1j * w0 * theta)
            + self.e * cmath.exp(2j * w0 * theta)
        )

    def w11(self, theta: float) -> np.ndarray:
        w0 = self.eig.omega0
        q0 = self.eig.q
        return (
            (self.g11 / (1j * w0)) * q0 * cmath.exp(1j * w0 * theta)
            - (self.g11.conjugate() / (1j * w0)) * q0.conj() * cmath.exp(-1j * w0 * theta)
            + self.f
        )


def manifold_corrections(pc: PlatoonConfig, eig: CriticalEigendata, g: GCoefficients) -> ManifoldCorrections:
    """Solve the second-order operator systems for e and f and build w20, w11.

    e solves (2*i*omega0*I - L(2*i*omega0)) e = F20-tilde, whose v-rows give a
    forward recursion with denominators 2*i*omega0 + kappa*beta*_i*exp(-2*i*
    omega0*tau_i); f solves -L(0) f = F11-tilde with free y-components set to
    zero.
    """
    n = pc.n
    kappa = eig.kappa
    beta = eig.beta
    taus = eig.taus
    w0 = eig.omega0
    s2 = 2j * w0
    e = np.zeros(2 * n, dtype=complex)
    prev = 0.0 + 0.0j
    prev_mass = 0.0 + 0.0j
    for i in range(n):
        mass_i = kappa * beta[i] * cmath.exp(-s2 * taus[i])
        e[i] = (g.F20[i] + prev_mass * prev) / (s2 + mass_i)
        prev = e[i]
        prev_mass = mass_i
    theta2 = _theta_factor(s2, eig.tau_max)
    for i in range(n):
        e[n + i] = kappa * e[i] * theta2 / s2
    f = np.zeros(2 * n, dtype=complex)
    prev = 0.0 + 0.0j
    for i in range(n):
        numer = g.F11[i] + (kappa * beta[i - 1] * prev if i > 0 else 0.0)
        f[i] = numer / (kappa * beta[i])
        prev = f[i]
    corr = ManifoldCorrections(e=e, f=f, g20=g.g20, g02=g.g02, g11=g.g11, eig=eig)
    corr.residuals = _w_residuals(pc, eig, g, corr)
    return corr


def _w_residuals(
    pc: PlatoonConfig, eig: CriticalEigendata, g: GCoefficients, corr: ManifoldCorrections
) -> WResiduals:
    """Check the w-operator equations on the interior grid and at theta = 0."""
    n = pc.n
    w0 = eig.omega0
    kappa = eig.kappa
    q0 = eig.q
    qb = q0.conj()
    tau_max = eig.tau_max

    # Interior: dw/dtheta must match the expansion ODEs at sample points.
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

    # Boundary theta = 0: generator action on each exponential piece.
    L2 = _lin_matrix(eig.beta, eig.taus, kappa, 2j * w0, tau_max)
    L0 = _lin_matrix(eig.beta, eig.taus, kappa, 0.0, tau_max)
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
    return WResiduals(
        w20_interior=interior20,
        w20_boundary=float(np.max(np.abs(res20))),
        w11_interior=interior11,
        w11_boundary_v=float(np.max(np.abs(res11[:n]))),
        w11_boundary_y=float(np.max(np.abs(res11[n:]))),
    )


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
        }


def hopf_report(pc: PlatoonConfig, pair: int | None = None, n_branch: int = 0) -> HopfReport:
    """Run the full normal-form pipeline at the critical gain of one pair."""
    eig = critical_eigendata(pc, pair=pair, n_branch=n_branch)
    g_quad = g_coefficients(pc, eig)
    corr = manifold_corrections(pc, eig, g_quad)
    g_full = g_coefficients(pc, eig, corrections=corr)
    c1 = first_lyapunov(g_full, eig.omega0)
    bstar = float(eig.beta[eig.pair - 1])
    tau_p = float(eig.taus[eig.pair - 1])
    aprime = transversality(bstar, tau_p, n=n_branch)
    scale = max(1.0, abs(g_full.g20), abs(g_full.g11), abs(c1))
    if abs(c1.real) <= 1e-12 * scale:
        kind = orbit = "degenerate"
        mu2 = 0.0
        beta2 = 0.0
    else:
        mu2 = -c1.real / aprime
        beta2 = 2.0 * c1.real
        kind = "supercritical" if mu2 > 0 else "subcritical"
        orbit = "stable" if beta2 < 0 else "unstable"
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
        g=g_full,
        corrections=corr,
    )


def predicted_amplitude(report: HopfReport, kappa: float) -> float | None:
    """Leading-order limit-cycle amplitude of v at the critical pair.

    Returns None when no cycle is predicted at this gain (below the critical
    gain for a supercritical bifurcation, or a degenerate case).
    """
    if report.kind != "supercritical":
        return None
    excess = kappa - report.kappa_cr
    if excess <= 0:
        return None
    return 2.0 * math.sqrt(excess / report.mu2)
