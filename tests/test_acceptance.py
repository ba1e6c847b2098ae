"""End-to-end acceptance suite.

Each test prints exactly one line — ``ACCEPTANCE NN <label>: PASS/FAIL — detail``
— through the capture bypass so the verdicts are always visible, then asserts.
Tolerances are fixed here and are not to be loosened: a failing line means the
package genuinely does not reproduce the demanded behavior, and the reasons
are documented in the project notes.
"""

import math

import numpy as np
import pytest
from scipy.special import lambertw

from ccfmlab.integrate import SimConfig, amplitude_envelope, simulate, simulate_batch
from ccfmlab.model import (
    EquilibriumCoefficients,
    LeaderProfile,
    PlatoonConfig,
    PlatoonState,
    VehicleParams,
    beta_star,
)
from ccfmlab.rates import rate_of_convergence
from ccfmlab.spectral import (
    Regime,
    classify_pair,
    critical_delay,
    dominant_root,
    no_delay_spectrum,
    small_delay_condition,
    transversality,
)
from ccfmlab.hopf import hopf_report

from conftest import four_vehicle_platoon, numeric_crossing_speed, single_follower

E_INV = 1.0 / math.e
HALF_PI = math.pi / 2.0


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _window_amp(traj, col, t_lo, t_hi):
    mask = (traj.t >= t_lo) & (traj.t < t_hi)
    seg = traj.states[mask, col]
    return 0.5 * (seg.max() - seg.min())


def test_criterion_01_critical_delay(capsys):
    got = critical_delay(3.5)
    err = abs(got - math.pi / 7.0)
    _verdict(
        capsys, 1, "critical delay",
        err <= 1e-9,
        f"critical_delay(3.5) = {got:.12f}, |err vs pi/7| = {err:.3e} (tol 1e-9)",
    )


def test_criterion_02_classification_consistency(capsys):
    rng = np.random.default_rng(12345)
    mismatches = 0
    total = 500
    for _ in range(total):
        while True:
            c = rng.uniform(1e-3, 2.0)
            if abs(c - E_INV) > 1e-9 and abs(c - HALF_PI) > 1e-9:
                break
        tau = rng.uniform(0.05, 2.0)
        regime = classify_pair(c / tau, tau).regime
        lam = dominant_root(c / tau, tau).lam
        if regime is Regime.NON_OSCILLATORY_STABLE:
            ok = lam.imag == 0.0 and lam.real < 0.0
        elif regime is Regime.OSCILLATORY_STABLE:
            ok = lam.imag > 0.0 and lam.real < 0.0
        else:
            ok = lam.real >= -1e-12
        mismatches += 0 if ok else 1
    _verdict(
        capsys, 2, "regime vs dominant root",
        mismatches == 0,
        f"{total - mismatches}/{total} random products agree "
        f"(boundary bands of 1e-9 excluded)",
    )


def test_criterion_03_transversality(capsys):
    closed = transversality(3.5, math.pi / 7.0, 0)
    # beta*^2 tau / (1 + beta*^2 tau^2) at beta* = 3.5, tau = pi/7; the
    # continuation oracle below agrees with it to 2.3e-10 relative
    pinned = 7.0 * math.pi / (4.0 + math.pi**2)
    err_pinned = abs(closed - pinned)
    ok_pinned = err_pinned <= 1e-5

    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        beta = rng.uniform(0.5, 6.0)
        tau = rng.uniform(0.1, 1.5)
        n = int(rng.choice([0, 2]))
        cf = transversality(beta, tau, n)
        nm = numeric_crossing_speed(beta, tau, n)
        worst = max(worst, abs(cf - nm) / abs(cf))
    ok_numeric = worst <= 1e-6

    _verdict(
        capsys, 3, "crossing speed",
        ok_pinned and ok_numeric,
        f"closed form {closed:.16f} vs pinned {pinned} (diff {err_pinned:.2e}, "
        f"tol 1e-5: {'ok' if ok_pinned else 'FAIL'}); continuation agreement "
        f"max rel {worst:.2e} over 100 triples "
        f"({'ok' if ok_numeric else 'FAIL'})",
    )


def test_criterion_04_branch_point_double_root(capsys):
    ok = True
    details = []
    for tau in (0.25, 0.5, 1.0):
        root = dominant_root(E_INV / tau, tau)
        scaled = root.lam * tau
        # F'(lam) = 1 - tau*a*exp(-lam*tau) vanishes at a genuine double root
        fprime = 1.0 - tau * (E_INV / tau) * np.exp(-root.lam * tau)
        here = (
            scaled.imag == 0.0
            and abs(scaled.real + 1.0) <= 1e-9
            and abs(fprime) <= 1e-9
            and root.verified
        )
        ok = ok and here
        details.append(f"tau={tau}: lam*tau={scaled.real:.12f}")
    _verdict(
        capsys, 4, "double root at 1/e",
        ok,
        "; ".join(details) + " (tol 1e-9, multiplicity witnessed by F' = 0)",
    )


def test_criterion_05_rate_peak_location(capsys):
    beta = 3.5
    tau_star_pinned = 0.105091
    num = 400
    upper = HALF_PI / beta
    step = upper / (num + 1)
    grid = step * np.arange(1, num + 1)
    rates = np.array([rate_of_convergence(beta, t).dominant for t in grid])
    k = int(np.argmax(rates))
    ok_peak = abs(grid[k] - tau_star_pinned) <= step
    lo = rate_of_convergence(beta, tau_star_pinned / 3.0).dominant
    hi = rate_of_convergence(beta, 3.0 * tau_star_pinned).dominant
    ok_asym = lo > hi
    _verdict(
        capsys, 5, "optimal delay",
        ok_peak and ok_asym,
        f"argmax at tau = {grid[k]:.6f} (pinned {tau_star_pinned}, grid step "
        f"{step:.5f}); rate(tau*/3) = {lo:.4f} > rate(3 tau*) = {hi:.4f}",
    )


def test_criterion_06_rate_monotone_in_headway_exponent(capsys):
    # The rate depends on l only through beta*(l) = 70/20**l, and at fixed tau it
    # rises with beta* below tau* = 1/(e beta*) and falls above it.  So the rate
    # falls with l at a delay below every pair's tau*, rises with l at a stable
    # delay above every tau*, and peaks at the middle l at tau = 0.15, which
    # lies between the three tau*.
    ls = (0.8, 1.0, 1.2)
    bstars = [beta_star(0.7, 10.0, 2.0, 20.0, l) for l in ls]
    tau_stars = [1.0 / (math.e * b) for b in bstars]
    below, between, above = 0.05, 0.15, 0.22
    ok_placed = below < min(tau_stars) and max(tau_stars) < above < HALF_PI / max(bstars)

    rates = {}
    worst = 0.0
    for tau in (below, between, above):
        rates[tau] = [rate_of_convergence(b, tau).dominant for b in bstars]
        for b, got in zip(bstars, rates[tau]):
            # the rightmost root of lam + b exp(-lam tau) = 0 is W_0(-b tau)/tau
            oracle = -lambertw(-b * tau, 0).real / tau
            worst = max(worst, abs(got - oracle) / oracle)
    r_lo, r_mid, r_hi = rates[below], rates[between], rates[above]
    ok_falls = r_lo[0] > r_lo[1] > r_lo[2]
    ok_rises = r_hi[0] < r_hi[1] < r_hi[2]
    ok_peak = r_mid[1] > max(r_mid[0], r_mid[2])
    ok_oracle = worst <= 1e-12

    def fmt(vals):
        return ", ".join(f"{r:.4f}" for r in vals)

    _verdict(
        capsys, 6, "rate falls with l below tau*",
        ok_placed and ok_falls and ok_rises and ok_peak and ok_oracle,
        f"tau* for l = 0.8, 1.0, 1.2: {fmt(tau_stars)}; rates at tau={below}: "
        f"{fmt(r_lo)} (strictly decreasing {'ok' if ok_falls else 'FAIL'}); at "
        f"tau={above}: {fmt(r_hi)} (strictly increasing "
        f"{'ok' if ok_rises else 'FAIL'}); at tau={between}: {fmt(r_mid)} "
        f"(l=1.0 largest {'ok' if ok_peak else 'FAIL'}); Lambert-W agreement "
        f"max rel {worst:.1e} (tol 1e-12 {'ok' if ok_oracle else 'FAIL'}); "
        f"delays placed around tau* {'ok' if ok_placed else 'FAIL'}",
    )


def test_criterion_07_sustained_marginal_oscillation(capsys):
    # Posed at l = 0 (beta* unchanged), where the velocity subsystem has an
    # isolated equilibrium; at l != 0 the headway drifts along the line of
    # equilibria (v, y) = (0, c) and the (b + y)**-l factor pushes pair 3 below
    # its threshold.  rk4, because euler at this step shifts the threshold by
    # far more than pair 3's margin (Re lambda = 3.7e-6) and settles on a
    # cycle of its own making.
    pc = four_vehicle_platoon(l=0.0)
    traj = simulate(
        pc,
        SimConfig(step=0.01, horizon=300.0, method="rk4"),
        PlatoonState.uniform_perturbation(4),
    )
    # pair 3 (columns: v_3 is 2, y_3 is 6) over the last two 25 s windows.  So
    # close to the threshold the cycle is approached like t**-1/2, which moves
    # the amplitude by about 4.5% between the windows.
    a1_v = _window_amp(traj, 2, 250.0, 275.0)
    a2_v = _window_amp(traj, 2, 275.0, 300.01)
    var_v = abs(a1_v - a2_v) / max(a1_v, a2_v)
    sustained = a2_v > 1e-3
    ok_pair3 = sustained and var_v < 0.05

    # pairs 1 and 2 are upstream of pair 3 and stay at rest
    worst_quiet = max(_window_amp(traj, col, 225.0, 300.01) for col in (0, 1, 4, 5))
    quiet_ok = worst_quiet < 1e-3

    # pair 4 is forced by kappa*beta_3*v_3(t - tau_3); its linear response at
    # the critical frequency omega0 = pi/(2 tau_3) has the gain below.  The
    # tolerance covers the nonlinear terms at pair 3's amplitude.
    eq = EquilibriumCoefficients.from_config(pc)
    omega0 = HALF_PI / pc.vehicles[2].tau
    resp = 1j * omega0 + pc.kappa * eq.beta[3] * np.exp(-1j * omega0 * pc.vehicles[3].tau)
    forced_gain = pc.kappa * eq.beta[2] / abs(resp)
    ratio = _window_amp(traj, 3, 275.0, 300.01) / a2_v
    forced_ok = abs(ratio / forced_gain - 1.0) <= 0.02
    _verdict(
        capsys, 7, "marginal pair keeps oscillating",
        ok_pair3 and quiet_ok and forced_ok,
        f"v_3 window amplitudes {a1_v:.3e} -> {a2_v:.3e} (variation "
        f"{100 * var_v:.1f}%, need < 5% and amplitude > 1e-3); upstream pairs "
        f"1-2 max amp {worst_quiet:.2e} (< 1e-3 {'ok' if quiet_ok else 'FAIL'}); "
        f"forced pair 4 amplitude ratio v_4/v_3 = {ratio:.4f} vs linear gain "
        f"{forced_gain:.4f} (within 2% {'ok' if forced_ok else 'FAIL'})",
    )


def test_criterion_08_supercritical_onset_scaling(capsys):
    # Posed on the single follower at l = 0 with beta* kept at 3.5, where the
    # 2-D normal form describes the whole flow.  At l = 1 the mean relative
    # velocity (m/x0)<v^2> drifts the headway and the (b + y)**-l factor makes
    # the pair subcritical; the normal form there holds only on the
    # frozen-headway manifold.
    rep = hopf_report(single_follower(l=0.0))
    ok_type = rep.kind == "supercritical" and rep.orbit == "stable"

    kappas = np.array([1.0025, 1.005, 1.01, 1.02])
    amps = []
    worst_drift = 0.0
    # 900 s: at 300 s the kappa = 1.0025 run is still growing
    trajs = simulate_batch(
        [single_follower(kappa=float(kappa), l=0.0) for kappa in kappas],
        SimConfig(step=0.01, horizon=900.0, method="rk4"),
        PlatoonState.uniform_perturbation(1),
    )
    for traj in trajs:
        env = amplitude_envelope(traj)
        amps.append(env.max_v)
        # stationarity guard: the two halves of the tail see the same cycle
        mid = 0.5 * (env.t_start + env.t_end)
        first = _window_amp(traj, 0, env.t_start, mid)
        second = _window_amp(traj, 0, mid, env.t_end + 1.0)
        worst_drift = max(worst_drift, abs(first - second) / max(first, second))
    amps = np.array(amps)
    ok_stationary = worst_drift <= 0.01
    slope, _ = np.polyfit(np.log(kappas - 1.0), np.log(amps), 1)
    ok_fit = 0.4 <= slope <= 0.6
    _verdict(
        capsys, 8, "onset amplitude scaling",
        ok_type and ok_stationary and ok_fit,
        f"normal form: {rep.kind}/{rep.orbit} (mu2 = {rep.mu2:.4f}, beta2 = "
        f"{rep.beta2:.4f}) {'ok' if ok_type else 'FAIL'}; tail halves differ by "
        f"at most {100 * worst_drift:.2f}% (need <= 1% "
        f"{'ok' if ok_stationary else 'FAIL'}); measured tail amplitudes "
        f"{np.array2string(amps, precision=5)} give exponent p = {slope:.3f} "
        f"(need 0.4..0.6)",
    )


def test_criterion_09_amplitude_growth_and_l_ordering(capsys):
    kappas = np.linspace(1.0, 1.05, 51)
    curves = {}
    for l in (0.95, 1.0, 1.05):
        bstar = beta_star(0.7, 10.0, 2.0, 20.0, l)
        tau_cr = HALF_PI / bstar
        pcs = [
            PlatoonConfig(
                vehicles=(VehicleParams(alpha=0.7, tau=tau_cr, b=20.0),),
                m=2.0,
                l=l,
                leader=LeaderProfile(v_eq=10.0, ramp=10.0),
                kappa=float(kappa),
            )
            for kappa in kappas
        ]
        trajs = simulate_batch(
            pcs, SimConfig(step=0.01, horizon=300.0),
            PlatoonState.uniform_perturbation(1),
        )
        curves[l] = np.array([amplitude_envelope(traj).max_v for traj in trajs])

    finals = {l: curves[l][-1] for l in curves}
    ok_positive = all(a > 0.0 for a in finals.values())
    dips = {
        l: int(np.sum(np.diff(curves[l]) < 0.0)) for l in curves
    }
    ok_growth = all(d <= 1 for d in dips.values())
    f = [finals[0.95], finals[1.0], finals[1.05]]
    ok_order = not (f[0] < f[1] < f[2] or f[0] > f[1] > f[2])
    _verdict(
        capsys, 9, "past-threshold amplitude sweep",
        ok_positive and ok_growth and ok_order,
        f"amplitudes at kappa=1.05: {f[0]:.3e}, {f[1]:.3e}, {f[2]:.3e} "
        f"(positive {'ok' if ok_positive else 'FAIL'}); dips per curve "
        f"{dips} (need <= 1: every curve decays with kappa instead of growing) "
        f"{'ok' if ok_growth else 'FAIL'}; l-ordering non-monotone "
        f"{'ok' if ok_order else 'FAIL'}",
    )


def test_criterion_10_no_delay_and_small_delay(capsys):
    rng = np.random.default_rng(777)
    all_negative = True
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        vehicles = tuple(
            VehicleParams(
                alpha=float(rng.uniform(0.05, 3.0)),
                tau=float(rng.uniform(0.0, 1.0)),
                b=float(rng.uniform(0.5, 50.0)),
            )
            for _ in range(n)
        )
        pc = PlatoonConfig(
            vehicles=vehicles,
            m=float(rng.uniform(-2.0, 2.0)),
            l=float(rng.uniform(0.0, 3.0)),
            leader=LeaderProfile(v_eq=float(rng.uniform(0.5, 30.0))),
            kappa=float(rng.uniform(0.1, 4.0)),
        )
        eq = EquilibriumCoefficients.from_config(pc)
        if not np.all(no_delay_spectrum(eq, kappa=pc.kappa) < 0.0):
            all_negative = False

    # first-order-in-delay reduction, assembled and eigen-solved directly
    consistent = True
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 5))
        beta = rng.uniform(0.5, 5.0, size=n)
        tau = rng.uniform(0.05, 0.6, size=n)
        prods = beta * tau
        if np.any(np.abs(prods - 1.0) < 1e-3):
            continue  # conditioning: the reduced system's mass matrix is singular at 1
        m_mat = np.eye(n)
        a_mat = np.zeros((n, n))
        for i in range(n):
            m_mat[i, i] = 1.0 - prods[i]
            a_mat[i, i] = -beta[i]
            if i > 0:
                m_mat[i, i - 1] = prods[i - 1]
                a_mat[i, i - 1] = beta[i - 1]
        eigvals = np.linalg.eigvals(np.linalg.solve(m_mat, a_mat))
        ode_stable = bool(np.all(eigvals.real < 0.0))
        vehicles = tuple(
            VehicleParams(alpha=float(b), tau=float(t), b=1.0)
            for b, t in zip(beta, tau)
        )
        pc = PlatoonConfig(
            vehicles=vehicles, m=0.0, l=0.0, leader=LeaderProfile(v_eq=10.0)
        )
        check = small_delay_condition(EquilibriumCoefficients.from_config(pc))
        if check.all_satisfied != ode_stable:
            consistent = False
        checked += 1

    _verdict(
        capsys, 10, "delay-free and small-delay reductions",
        all_negative and consistent,
        f"no-delay spectrum strictly negative for 1000 random platoons "
        f"({'ok' if all_negative else 'FAIL'}); small-delay criterion matched "
        f"the reduced ODE eigenvalues on 200 random platoons "
        f"({'ok' if consistent else 'FAIL'})",
    )
