"""Normal-form pipeline at the oscillation threshold.

For the single-follower threshold configuration almost every stage has a
closed-form value that can be derived by hand (the critical pair satisfies
kappa*beta* = omega0 and exp(-i*omega0*tau) = -i, which collapses the
algebra), so those stages are pinned exactly.  Later stages are pinned as
full-precision regression anchors, and convention-independent identities
(mu2 * alpha' = -Re c1, beta2 = 2 Re c1, operator residuals) guard the
pipeline as a whole.
"""

import cmath
import math

import numpy as np
import pytest

from ccfmlab.errors import NumericalError
from ccfmlab.hopf import (
    critical_eigendata,
    first_lyapunov,
    g_coefficients,
    hopf_report,
    manifold_corrections,
    predicted_amplitude,
)
from ccfmlab.integrate import SimConfig, amplitude_envelope, simulate
from ccfmlab.model import (
    LeaderProfile,
    PlatoonConfig,
    PlatoonState,
    VehicleParams,
)

from conftest import four_vehicle_platoon, single_follower

TAU = math.pi / 7.0
PAIRING = 1.0 + 1j * math.pi / 2.0  # <p_raw, q> for the threshold config


# ---------------------------------------------------------------------------
# eigendata: exact hand values for the threshold single follower
# ---------------------------------------------------------------------------


def test_eigendata_exact_hand_values(critical_config):
    eig = critical_eigendata(critical_config)
    assert eig.pair == 1 and eig.n_branch == 0
    assert eig.omega0 == pytest.approx(3.5, rel=1e-14)
    assert eig.kappa == pytest.approx(1.0, rel=1e-14)

    # right eigenvector: v-component pinned to 1, y-component -(4/49)(1+i)
    assert eig.q[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert eig.q[1] == pytest.approx(-(4.0 / 49.0) * (1.0 + 1.0j), abs=1e-13)

    # adjoint: y-components exactly zero, v-component conj(1/<p_raw, q>)
    assert eig.p[1] == 0.0
    assert eig.p[0] == pytest.approx((1.0 / PAIRING).conjugate(), abs=1e-13)
    assert eig.inner_raw == pytest.approx(PAIRING, abs=1e-13)
    assert eig.B == pytest.approx((1.0 / PAIRING).conjugate(), abs=1e-13)

    # pairing closed by hand: d/ds[s + beta*exp(-s tau)] at i*omega0 is
    # 1 + i*pi/2, and conj(p_v) times that times q_v must give 1
    assert eig.p[0].conjugate() * PAIRING * eig.q[0] == pytest.approx(1.0, abs=1e-12)

    z1, z2, z3, z4 = eig.zetas
    assert abs(z1) == 0.0 and abs(z2) <= 1e-13
    assert z3 == pytest.approx(1j * math.pi / 2.0, abs=1e-13)
    assert z4 == pytest.approx(1.0 + 0.0j, abs=1e-13)

    assert eig.residual_q <= 1e-12
    assert eig.residual_p <= 1e-12


def test_eigendata_residuals_two_vehicle_platoons():
    for taus in [(0.5, 0.4), (0.4, 0.4488)]:
        alphas = (0.5, 0.6) if taus[0] == 0.5 else (0.6, 0.7)
        vehicles = tuple(
            VehicleParams(alpha=a, tau=t, b=20.0) for a, t in zip(alphas, taus)
        )
        pc = PlatoonConfig(
            vehicles=vehicles, m=2.0, l=1.0, leader=LeaderProfile(v_eq=10.0)
        )
        eig = critical_eigendata(pc)
        assert eig.residual_q <= 1e-10
        assert eig.residual_p <= 1e-10
        assert eig.q[eig.pair - 1] == pytest.approx(1.0 + 0.0j, abs=1e-14)
        assert np.all(eig.p[pc.n :] == 0.0)


def test_default_pair_selection_is_largest_product(platoon_config):
    eig = critical_eigendata(platoon_config)
    assert eig.pair == 3  # product 1.5708 beats 1.25, 1.2, 1.2
    eig1 = critical_eigendata(platoon_config, pair=1)
    assert eig1.pair == 1
    assert eig1.kappa == pytest.approx(math.pi / (2.0 * 2.5 * 0.5), rel=1e-13)


def test_two_simultaneously_critical_pairs_rejected():
    vehicles = (
        VehicleParams(alpha=0.7, tau=0.4, b=20.0),
        VehicleParams(alpha=0.7, tau=0.4, b=20.0),
    )
    pc = PlatoonConfig(vehicles=vehicles, m=2.0, l=1.0, leader=LeaderProfile(v_eq=10.0))
    with pytest.raises(NumericalError):
        critical_eigendata(pc)


# ---------------------------------------------------------------------------
# quadratic and cubic normal-form stages
# ---------------------------------------------------------------------------


def test_quadratic_forcing_exact_values(critical_config):
    eig = critical_eigendata(critical_config)
    g = g_coefficients(critical_config, eig)
    # F20 = -kappa*beta* * 4*(m/x0 + l/b) with E-phases collapsing to -1
    assert g.F20[0] == pytest.approx(-3.5 + 0.0j, abs=1e-12)
    assert g.F11[0] == pytest.approx(1.75 + 0.0j, abs=1e-12)
    assert np.allclose(g.F02, np.conj(g.F20), atol=1e-14)

    assert g.g20 == pytest.approx(-3.5 / PAIRING, abs=1e-12)
    assert g.g11 == pytest.approx(1.75 / PAIRING, abs=1e-12)
    # F20 is real here, so g02 coincides with g20
    assert g.g02 == pytest.approx(g.g20, abs=1e-12)
    assert g.g21 is None  # cubic stage needs the manifold corrections


def test_manifold_corrections_exact_values(critical_config):
    eig = critical_eigendata(critical_config)
    g = g_coefficients(critical_config, eig)
    corr = manifold_corrections(critical_config, eig, g)
    # e_v = F20 / (2i*omega0 + beta*exp(-2i*omega0*tau)) = -3.5/(7i - 3.5)
    assert corr.e[0] == pytest.approx(0.2 + 0.4j, abs=1e-12)
    assert corr.e[1] == pytest.approx(
        -0.008163265306122445 - 0.016326530612244896j, abs=1e-13
    )
    # f_v = F11 / (kappa*beta*) = 1.75/3.5; free y-component fixed at zero
    assert corr.f[0] == pytest.approx(0.5 + 0.0j, abs=1e-13)
    assert corr.f[1] == 0.0

    res = corr.residuals
    assert res.w20_interior <= 1e-12
    assert res.w20_boundary <= 1e-8
    assert res.w11_interior <= 1e-12
    assert res.w11_boundary_v <= 1e-8
    # structural defect of the overdetermined y-row: kappa*tau_max*f_v
    assert res.w11_boundary_y == pytest.approx(math.pi / 14.0, rel=1e-10)


def test_w_functions_frozen_samples(critical_config):
    rep = hopf_report(critical_config)
    corr = rep.corrections
    assert corr.w20(-TAU)[0] == pytest.approx(
        -0.3922669594280006 + 0.20402446726705364j, rel=1e-10
    )
    assert corr.w11(-TAU)[0] == pytest.approx(0.21159956085799914 + 0.0j, rel=1e-10)
    assert corr.w11(-TAU)[0].imag == pytest.approx(0.0, abs=1e-13)


def test_cubic_stage_frozen_regression(critical_config):
    rep = hopf_report(critical_config)
    g = rep.g
    assert g.F21[0] == pytest.approx(
        -0.35704281771734386 - 1.3337323086686648j, rel=1e-10
    )
    assert g.g21 == pytest.approx(
        -0.7071765158375153 - 0.22290203519548293j, rel=1e-10
    )


# ---------------------------------------------------------------------------
# the assembled report
# ---------------------------------------------------------------------------


def test_single_follower_report_reference_values(critical_config):
    rep = hopf_report(critical_config)
    assert rep.pair == 1
    assert rep.omega0 == pytest.approx(3.5, rel=1e-14)
    assert rep.kappa_cr == pytest.approx(1.0, rel=1e-14)
    assert rep.alpha_prime == pytest.approx(1.5855642265760157, rel=1e-12)
    assert rep.c1 == pytest.approx(
        -0.5822269675349427 - 0.4252405303675153j, rel=1e-10
    )
    assert rep.mu2 == pytest.approx(0.3672049090009092, rel=1e-10)
    assert rep.beta2 == pytest.approx(-1.1644539350698855, rel=1e-10)
    assert rep.kind == "supercritical"
    assert rep.orbit == "stable"


def test_report_identities(critical_config, platoon_config):
    for pc in (critical_config, platoon_config):
        rep = hopf_report(pc)
        assert rep.mu2 * rep.alpha_prime == pytest.approx(-rep.c1.real, rel=1e-12)
        assert rep.beta2 == pytest.approx(2.0 * rep.c1.real, rel=1e-14)
        assert (rep.kind == "supercritical") == (rep.mu2 > 0)
        assert (rep.orbit == "stable") == (rep.beta2 < 0)


def test_first_lyapunov_formula_consistency(critical_config):
    rep = hopf_report(critical_config)
    g = rep.g
    w0 = rep.omega0
    by_hand = (1j / (2.0 * w0)) * (
        g.g20 * g.g11 - 2.0 * abs(g.g11) ** 2 - abs(g.g02) ** 2 / 3.0
    ) + g.g21 / 2.0
    assert rep.c1 == pytest.approx(by_hand, rel=1e-14)
    assert first_lyapunov(g, w0) == rep.c1


def test_higher_branch_report(critical_config):
    rep = hopf_report(critical_config, n_branch=2)
    assert rep.omega0 == pytest.approx(17.5, rel=1e-13)
    assert rep.kappa_cr == pytest.approx(5.0, rel=1e-13)
    assert rep.kind == "supercritical"
    assert rep.c1 == pytest.approx(
        -0.6181239965589609 - 0.2549899913415702j, rel=1e-9
    )
    assert rep.mu2 * rep.alpha_prime == pytest.approx(-rep.c1.real, rel=1e-12)


def test_degenerate_exponents_collapse_everything():
    vehicles = (VehicleParams(alpha=0.7, tau=TAU, b=20.0),)
    pc = PlatoonConfig(vehicles=vehicles, m=0.0, l=0.0, leader=LeaderProfile(v_eq=10.0))
    rep = hopf_report(pc)
    # beta* = alpha here, so the critical gain moves accordingly
    assert rep.kappa_cr == pytest.approx(math.pi / (2.0 * 0.7 * TAU), rel=1e-13)
    assert rep.kind == "degenerate" and rep.orbit == "degenerate"
    assert abs(rep.c1) <= 1e-13
    g = rep.g
    assert abs(g.g20) <= 1e-13 and abs(g.g11) <= 1e-13
    assert abs(g.g02) <= 1e-13 and abs(g.g21) <= 1e-13
    corr = rep.corrections
    assert np.allclose(corr.e, 0.0, atol=1e-13)
    assert np.allclose(corr.f, 0.0, atol=1e-13)
    assert rep.mu2 == 0.0 and rep.beta2 == 0.0
    assert predicted_amplitude(rep, 1.1 * rep.kappa_cr) is None


def test_report_deterministic(critical_config):
    a = hopf_report(critical_config)
    b = hopf_report(critical_config)
    assert a.c1 == b.c1
    assert np.array_equal(a.eig.q, b.eig.q)
    assert np.array_equal(a.corrections.e, b.corrections.e)


def test_report_dict_schema(critical_config):
    d = hopf_report(critical_config).to_dict()
    assert set(d) == {
        "pair", "omega0", "kappa_cr", "alpha_prime", "c1_re", "c1_im",
        "mu2", "beta2", "type", "orbit",
    }
    assert d["type"] == "supercritical" and d["orbit"] == "stable"


# ---------------------------------------------------------------------------
# amplitude prediction and simulation cross-check
# ---------------------------------------------------------------------------


def test_predicted_amplitude_values(critical_config):
    rep = hopf_report(critical_config)
    assert predicted_amplitude(rep, 1.0) is None
    assert predicted_amplitude(rep, 0.99) is None
    assert predicted_amplitude(rep, 1.02) == pytest.approx(
        0.46675690804415704, rel=1e-10
    )
    a_small = predicted_amplitude(rep, 1.005)
    a_big = predicted_amplitude(rep, 1.02)
    assert 0.0 < a_small < a_big


def test_post_threshold_sweep_is_reproducible_and_ordered():
    """Just-past-threshold runs: finite, deterministic, and larger gain
    excess gives the larger transient oscillation amplitude.

    Uses the fourth-order scheme: the first-order scheme's numerical damping
    at this step size is comparable to the tiny physical growth rates and
    reverses the ordering.
    """
    amps = {}
    for kappa in (1.0025, 1.01):
        pc = single_follower(kappa=kappa)
        sc = SimConfig(step=0.01, horizon=300.0, method="rk4")
        tr1 = simulate(pc, sc, PlatoonState.uniform_perturbation(1))
        tr2 = simulate(pc, sc, PlatoonState.uniform_perturbation(1))
        assert np.array_equal(tr1.states, tr2.states)
        amp = amplitude_envelope(tr1).max_v
        assert math.isfinite(amp) and amp > 0.0
        amps[kappa] = amp
    assert amps[1.0025] < amps[1.01]
