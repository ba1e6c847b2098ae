"""Shared builders for the test suite.

Two configurations recur throughout: a single follower held exactly at its
oscillation threshold, and a four-vehicle platoon whose third pair sits on
the instability boundary while the others are damped.

Both builders take the headway exponent ``l`` and rescale alpha by
b**(l - 1), so the equilibrium gains beta* = alpha*x0**m/b**l are the same
for every ``l``.  At the default l = 1 the factor is exactly 1.0, so the
default configurations are bit-for-bit unchanged.  With l = 0 the gain no
longer depends on the headway: the velocity subsystem then has an isolated
equilibrium, and the Hopf theorem applies to it as stated.  With l != 0 the
equilibria (v, y) = (0, c) form a line, and the headway drift feeds back into
the gain.
"""

import math

import numpy as np
import pytest

from ccfmlab.integrate import _MethodOfSteps
from ccfmlab.model import LeaderProfile, PlatoonConfig, VehicleParams


B_REF = 20.0  # desired headway of every builder vehicle


def _alpha_for(alpha_at_l1, l):
    """alpha that keeps the l = 1 equilibrium gain alpha_at_l1*x0**m/B_REF."""
    return alpha_at_l1 * B_REF ** (l - 1.0)


def single_follower(kappa=1.0, tau=math.pi / 7, l=1.0):
    """One vehicle with beta* = 3.5; at tau = pi/7 the product is exactly pi/2."""
    return PlatoonConfig(
        vehicles=(VehicleParams(alpha=_alpha_for(0.7, l), tau=tau, b=B_REF),),
        m=2.0,
        l=l,
        leader=LeaderProfile(v_eq=10.0, ramp=10.0),
        kappa=kappa,
    )


def four_vehicle_platoon(taus=(0.5, 0.4, 0.4488, 0.3), kappa=1.0, l=1.0):
    """Four followers with beta* = (2.5, 3.0, 3.5, 4.0) at the 10 m/s operating point.

    With the default delays the pair products are (1.25, 1.2, 1.5708, 1.2):
    pair 3 is marginally past the oscillation threshold, pairs 1 and 2 are
    inside it.  Pair 4 is downstream of pair 3: its equation contains
    kappa*beta_3*v_3(t - tau_3), so it is forced by pair 3 and oscillates with
    it although its own product is inside the threshold.
    """
    alphas = (0.5, 0.6, 0.7, 0.8)
    vehicles = tuple(
        VehicleParams(alpha=_alpha_for(a, l), tau=t, b=B_REF)
        for a, t in zip(alphas, taus)
    )
    return PlatoonConfig(
        vehicles=vehicles,
        m=2.0,
        l=l,
        leader=LeaderProfile(v_eq=10.0, ramp=10.0),
        kappa=kappa,
    )


def newton_root(beta_star, tau, kappa, seed, iters=80):
    """Solve lam + kappa*beta_star*exp(-lam*tau) = 0 by Newton from a given seed.

    Deliberately independent of the package's own solver: this tracks whichever
    root the seed is closest to, not necessarily the rightmost one.
    """
    lam = complex(seed)
    a = kappa * beta_star
    for _ in range(iters):
        ex = a * np.exp(-lam * tau)
        f = lam + ex
        fp = 1.0 - tau * ex
        step = f / fp
        lam = lam - step
        if abs(step) < 1e-16 * max(1.0, abs(lam)):
            break
    return lam


def numeric_crossing_speed(beta_star, tau, n, rel_h=1e-6):
    """d(Re lambda)/d(kappa) at the Hopf gain, by central-difference continuation.

    The branch-n root is followed with Newton seeded at i*(2n+1)*pi/(2*tau);
    for n > 0 this is not the rightmost root, so root tracking (rather than
    a dominant-root query) is essential.
    """
    kappa_cr = (2 * n + 1) * math.pi / (2.0 * beta_star * tau)
    omega0 = (2 * n + 1) * math.pi / (2.0 * tau)
    h = rel_h * kappa_cr
    lam_hi = newton_root(beta_star, tau, kappa_cr + h, 1j * omega0)
    lam_lo = newton_root(beta_star, tau, kappa_cr - h, 1j * omega0)
    return (lam_hi.real - lam_lo.real) / (2.0 * h)


@pytest.fixture
def critical_config():
    return single_follower()


@pytest.fixture
def platoon_config():
    return four_vehicle_platoon()


def record_slides(monkeypatch) -> list:
    """The first steps of the blocks before which a streamed window slides."""
    slides, reach = [], _MethodOfSteps.reach

    def recording(self, k0, count):
        base = self.base
        reach(self, k0, count)
        if self.base != base:
            slides.append(k0)

    monkeypatch.setattr(_MethodOfSteps, "reach", recording)
    return slides


# Each test file's summed call time, printed after every run, so that the
# suite's cost per file can be compared between changes.
_CALL_SECONDS: dict = {}


def pytest_runtest_logreport(report):
    if report.when == "call":
        path = report.nodeid.split("::", 1)[0]
        _CALL_SECONDS[path] = _CALL_SECONDS.get(path, 0.0) + report.duration


def pytest_terminal_summary(terminalreporter):
    if _CALL_SECONDS:
        terminalreporter.write_sep("=", "call time per test file")
        for path, seconds in sorted(_CALL_SECONDS.items(), key=lambda item: -item[1]):
            terminalreporter.write_line(f"{seconds:7.2f}s {path}")
