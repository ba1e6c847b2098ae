"""Characteristic-root machinery: regime classification, dominant roots,
threshold curves, and the crossing-speed formula.

Where an independent oracle exists it is used: the scalar transcendental
lambda + a*exp(-lambda*tau) = 0 has its rightmost root at W_0(-a*tau)/tau
(principal Lambert W branch), and scipy.special.lambertw supplies that
value without sharing any code with the package solver.
"""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from ccfmlab import spectral
from ccfmlab.errors import InvalidConfigError, RootSolveError
from ccfmlab.model import EquilibriumCoefficients
from ccfmlab.rates import optimal_delay, peak_rate
from ccfmlab.spectral import (
    Regime,
    classify_pair,
    classify_platoon,
    critical_delay,
    critical_gain,
    dominant_root,
    hopf_point,
    no_delay_spectrum,
    small_delay_condition,
    stability_region_margin,
    transversality,
)

from conftest import four_vehicle_platoon, numeric_crossing_speed, single_follower
from oracles import _certify_rightmost, scalar_dominant_root, scalar_principal_uexpu, winding_zero_count

E_INV = 1.0 / math.e
HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------


def test_classify_pair_examples():
    v = classify_pair(1.0, 0.30)
    assert v.regime is Regime.NON_OSCILLATORY_STABLE
    assert v.product == pytest.approx(0.30, rel=1e-15)

    v = classify_pair(2.0, 0.5)  # product 1.0, between 1/e and pi/2
    assert v.regime is Regime.OSCILLATORY_STABLE
    assert v.margin_nonoscillatory == pytest.approx(E_INV - 1.0, rel=1e-14)
    assert v.margin_instability == pytest.approx(HALF_PI - 1.0, rel=1e-14)

    v = classify_pair(3.5, math.pi / 7.0)  # product exactly pi/2
    assert v.regime is Regime.UNSTABLE


def test_classify_pair_threshold_sides():
    tau = 0.4
    assert classify_pair(E_INV / tau, tau).regime is Regime.NON_OSCILLATORY_STABLE
    assert classify_pair((E_INV + 1e-9) / tau, tau).regime is Regime.OSCILLATORY_STABLE
    assert classify_pair((HALF_PI - 1e-9) / tau, tau).regime is Regime.OSCILLATORY_STABLE
    assert classify_pair(HALF_PI / tau, tau).regime is Regime.UNSTABLE


def test_classify_pair_gain_scales_product():
    base = classify_pair(1.0, 0.30)
    scaled = classify_pair(1.0, 0.30, kappa=4.0)
    assert scaled.product == pytest.approx(4.0 * base.product, rel=1e-15)
    assert scaled.regime is Regime.OSCILLATORY_STABLE


def test_classify_pair_to_dict_schema():
    d = classify_pair(2.0, 0.5, pair=3).to_dict()
    assert set(d) == {"pair", "beta_star", "tau", "product", "regime", "margins"}
    assert d["pair"] == 3
    assert d["regime"] == "OscillatoryStable"
    assert set(d["margins"]) == {"nonoscillatory", "instability"}


def test_classify_platoon_mixed_regimes(platoon_config):
    eq = EquilibriumCoefficients.from_config(platoon_config)
    verdicts = classify_platoon(eq)
    regimes = [v.regime for v in verdicts]
    assert regimes == [
        Regime.OSCILLATORY_STABLE,
        Regime.OSCILLATORY_STABLE,
        Regime.UNSTABLE,
        Regime.OSCILLATORY_STABLE,
    ]
    assert [v.pair for v in verdicts] == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# dominant root vs. Lambert W oracle
# ---------------------------------------------------------------------------


def test_dominant_root_matches_lambert_w_samples():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 120:
        c = rng.uniform(0.01, 2.8)
        if abs(c - E_INV) < 1e-8:
            continue
        tau = rng.uniform(0.05, 2.0)
        root = dominant_root(c / tau, tau)
        u_ref = complex(lambertw(-c, 0))
        lam_ref = u_ref / tau
        if lam_ref.imag < 0:
            lam_ref = lam_ref.conjugate()
        assert abs(root.lam - lam_ref) <= 1e-10 * max(1.0, abs(lam_ref))
        assert root.verified and root.right_count == 0
        assert root.residual <= 1e-12
        checked += 1


def test_dominant_root_at_branch_point_is_double():
    for tau in (0.2, 0.5, 1.3):
        root = dominant_root(E_INV / tau, tau)
        assert root.lam.imag == 0.0
        assert root.lam.real * tau == pytest.approx(-1.0, abs=1e-12)
        assert root.verified


def test_dominant_root_at_instability_threshold():
    root = dominant_root(3.5, math.pi / 7.0)
    assert abs(root.lam.real) <= 1e-10
    assert root.lam.imag == pytest.approx(3.5, rel=1e-10)  # omega = kappa*beta*


def test_dominant_root_deep_real_zone():
    # product 0.05: two well-separated real roots; the shallow one dominates
    root = dominant_root(0.05 / 0.7, 0.7)
    assert root.lam * 0.7 == pytest.approx(-0.05270598355154635, rel=1e-10)
    assert root.verified


def test_dominant_root_zero_delay_exact():
    root = dominant_root(3.5, 0.0)
    assert root.lam == -3.5 + 0.0j
    root = dominant_root(3.5, 0.0, kappa=1.2)
    assert root.lam == pytest.approx(-4.2, rel=1e-15)


@pytest.mark.parametrize("tau", [5e-324, 1e-320, 1e-310])
def test_a_subnormal_delay_gives_the_delay_free_root(tau):
    """Below the smallest normal double, 1/tau overflows: the root is the tau = 0 one, -kappa*beta*."""
    root = dominant_root(0.3, tau)
    assert root.lam == -0.3 + 0.0j and root.residual == 0.0


def test_a_normal_product_at_a_subnormal_delay_is_solved():
    """1e307 * 2e-308 = 0.2: the delay is below the smallest normal double but the product is not, so the root is W_0(-0.2)/tau."""
    root = dominant_root(1e307, 2e-308)
    ref = lambertw(-(1e307 * 2e-308), 0).real / 2e-308
    assert abs(root.lam - ref) <= 1e-12 * abs(ref)
    assert root.lam.imag == 0.0 and root.residual <= 1e-12 * abs(root.lam)


def test_dominant_root_deterministic():
    a = dominant_root(1.9, 0.61)
    b = dominant_root(1.9, 0.61)
    assert a.lam == b.lam and a.residual == b.residual


def test_dominant_root_of_large_modulus_is_accepted():
    # |lambda| ~ 1.6e4 carries a residual near |lambda|*eps, above an
    # absolute 1e-12; the residual bound is relative to max(1, |lambda|).
    tau = 1e-4
    root = dominant_root(3620.6855332622367, tau)
    ref = complex(lambertw(-3620.6855332622367 * tau, 0)) / tau
    assert abs(root.lam - ref) <= 1e-12 * abs(ref)
    worst = 0.0
    for k in range(1, 2000):
        c = k * HALF_PI / 2000
        lam = dominant_root(c / tau, tau).lam
        ref = complex(lambertw(-c, 0)) / tau
        ref = ref.conjugate() if ref.imag < 0 else ref
        worst = max(worst, abs(lam - ref) / abs(ref))
    assert worst <= 1e-12


def _exact_product_beta(rng, target, tau):
    """(beta*, kappa) whose float product (kappa*beta*)*tau equals target exactly."""
    for _ in range(10_000):
        kappa = float(rng.uniform(0.5, 2.0))
        start = target / (kappa * tau)
        for direction in (math.inf, -math.inf):
            beta = start
            for _ in range(64):
                if kappa * beta * tau == target:
                    return beta, kappa
                beta = math.nextafter(beta, direction)
    raise RuntimeError(f"no exact product {target!r} found")


@pytest.mark.parametrize("tau", [0.05, 0.3, 2.0])
def test_winding_certificate_finds_nothing_right_of_the_dominant_root(tau):
    """The argument-principle oracle confirms the principal-branch theorem."""
    rng = np.random.default_rng(7)
    cases = [(c / tau, 1.0) for lo, hi in ((0.01, E_INV), (E_INV, HALF_PI), (HALF_PI, 3.0))
             for c in np.linspace(lo, hi, 35)[1:-1]]
    cases += [_exact_product_beta(rng, target, tau) for target in (E_INV, HALF_PI)]
    assert len(cases) == 101
    for beta, kappa in cases:
        root = dominant_root(beta, tau, kappa=kappa)
        assert root.verified and root.right_count == 0
        assert _certify_rightmost(kappa * beta, tau, root.lam) == 0


@pytest.mark.parametrize("c, branch", [(0.2, -1), (0.35, -1), (0.2, 1), (1.0, 1), (3.0, 1)])
def test_dominant_root_rejects_a_non_principal_branch(monkeypatch, c, branch):
    # W_{-1} is real and below -1 for c < 1/e; W_1 has |Im| > pi.
    monkeypatch.setattr(spectral, "_principal_uexpu", lambda p: lambertw(p, branch))
    with pytest.raises(RootSolveError, match="principal Lambert-W branch"):
        dominant_root(c / 0.4, 0.4)


def test_dominant_root_accepts_the_conjugate_branch_beyond_1_over_e(monkeypatch):
    # For c > 1/e, W_{-1} is the conjugate of W_0: the same root pair.
    expected = dominant_root(1.0 / 0.4, 0.4).lam
    monkeypatch.setattr(spectral, "_principal_uexpu", lambda p: lambertw(p, -1))
    assert dominant_root(1.0 / 0.4, 0.4).lam == pytest.approx(expected, rel=1e-15)


def _dense_products():
    """Products c = -p over every seed zone and its edges, ascending."""
    branch = E_INV
    edges = [0.75 * E_INV, 1.25 * E_INV]  # |1 + e*p| = 0.25: the series zone's edges
    near = [branch + k * np.finfo(float).eps for k in range(-64, 65, 8)]
    return np.unique(np.concatenate([
        [0.0, branch, 3620.6855332622367 * 1e-4],
        np.linspace(1e-6, 3.0, 1500),
        np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0),
        near,
        np.geomspace(3.0, 1e6, 60),
    ]))


def test_array_solver_matches_the_scalar_oracle_and_lambert_w():
    c = _dense_products()
    u = spectral._principal_uexpu(-c)
    oracle = np.array([scalar_principal_uexpu(-x) for x in c])
    ref = lambertw(-c, 0)
    ref = np.where(ref.imag < 0, ref.conj(), ref)
    assert np.all(u.imag >= 0.0)
    assert u[c == 0.0][0] == 0.0 and u[c == E_INV][0] == -1.0
    # W_0 has a square-root singularity at -1/e, so within 1e-9 of it a last
    # bit of the seed moves u by up to sqrt(eps); there the solver and the
    # oracle agree to 1e-8, and within 64 eps the double root -1 is returned.
    away = np.abs(1.0 - math.e * c) > 1e-9
    scale = np.maximum(1.0, np.abs(oracle))
    assert np.max(np.abs(u - oracle)[away] / scale[away]) <= 1e-14
    assert np.max(np.abs(u - ref)[away] / scale[away]) <= 1e-14
    assert np.max(np.abs(u - oracle)[~away]) <= 1e-8
    assert np.nanmax(np.abs(u - ref)[~away]) <= 1e-6


def test_array_solver_gives_every_member_the_bits_it_has_alone():
    c = _dense_products()
    batch = spectral._principal_uexpu(-c)
    alone = np.array([spectral._principal_uexpu(np.array([-x]))[0] for x in c])
    assert np.array_equal(batch.view(float), alone.view(float))


def test_a_batch_past_numpys_temporary_elision_gives_every_member_its_bits():
    """numpy evaluates a*(b + c) in the temporary once it holds 256 KiB, as
    (b + c)*a, and its complex product is not bitwise commutative; a batch of
    more than 16384 products must still give each member its bits alone."""
    c = np.linspace(1e-6, 3.0, 20011)
    batch = spectral._principal_uexpu(-c)
    sample = np.arange(0, c.size, 37)
    alone = np.array([spectral._principal_uexpu(np.array([-c[i]]))[0] for i in sample])
    assert np.array_equal(batch[sample].view(float), alone.view(float))


def test_newton_settles_next_to_the_branch_point(monkeypatch):
    """Next to u = -1 rounding leaves a Halley step of a few eps/|1 + u|.
    Every product with |1 + e*p| <= 0.02 must settle within 12 passes, on the
    bits 80 passes give, and on W_0 within the dominant root's tolerance."""
    c = np.linspace(E_INV * 0.98, E_INV * 1.02, 4001)
    u80 = spectral._principal_uexpu(-c)
    halley = spectral._halley_uexpu
    monkeypatch.setattr(spectral, "_halley_uexpu", lambda u, p: halley(u, p, maxit=12))
    u12 = spectral._principal_uexpu(-c)
    assert np.array_equal(u12.view(float), u80.view(float))
    ref = lambertw(-c, 0)
    ref = np.where(ref.imag < 0, ref.conj(), ref)
    away = np.abs(1.0 - math.e * c) > 1e-9  # the branch point itself gives -1, as pinned above
    assert np.max(np.abs(u80 - ref)[away] / np.maximum(1.0, np.abs(ref[away]))) <= 1e-10


def test_dominant_root_matches_the_scalar_oracle():
    rng = np.random.default_rng(11)
    products = [c for c in _dense_products() if 0.0 < c < 3.0 and abs(1.0 - math.e * c) > 1e-9]
    cases = [(c / tau, tau, 1.0) for tau in (1e-4, 0.3, 2.0) for c in products]
    cases += [(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.5, 2.0))) for _ in range(300)]
    worst = 0.0
    for beta, tau, kappa in cases:
        lam, _ = scalar_dominant_root(beta, tau, kappa)
        root = dominant_root(beta, tau, kappa)
        worst = max(worst, abs(root.lam - lam) / max(1.0, abs(lam)))
        assert root.residual <= 1e-12 * max(1.0, abs(root.lam))
    assert worst <= 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_are_rejected(bad):
    for args in ((bad, 0.3), (2.0, bad), (2.0, 0.3, bad)):
        with pytest.raises(InvalidConfigError, match="finite"):
            classify_pair(*args)
        with pytest.raises(InvalidConfigError, match="finite"):
            dominant_root(*args)


def test_a_root_with_a_large_residual_is_rejected(monkeypatch):
    """A u on the principal branch that does not solve u*exp(u) = -c leaves a residual the check refuses."""
    solve = spectral._principal_uexpu
    monkeypatch.setattr(spectral, "_principal_uexpu", lambda p: solve(p) + 1e-3)
    with pytest.raises(RootSolveError, match=r"^dominant-root residual \S+ exceeds 1e-12\*max\(1, \|lambda\|\) for beta\*=2\.0, tau=0\.3, kappa=1\.5$"):
        dominant_root(2.0, 0.3, kappa=1.5)


def test_root_solve_error_names_the_callers_point(monkeypatch):
    # W_1 is a root of the same equation, off the principal branch.
    monkeypatch.setattr(spectral, "_principal_uexpu", lambda p: lambertw(p, 1))
    with pytest.raises(RootSolveError, match=r"branch for beta\*=2\.0, tau=0\.3, kappa=1\.5$"):
        dominant_root(2.0, 0.3, kappa=1.5)


@given(
    c=st.floats(0.02, 2.5),
    tau=st.floats(0.05, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_regime_agrees_with_dominant_root(c, tau):
    assume(abs(c - E_INV) > 1e-9 and abs(c - HALF_PI) > 1e-9)
    verdict = classify_pair(c / tau, tau)
    lam = dominant_root(c / tau, tau).lam
    if verdict.regime is Regime.NON_OSCILLATORY_STABLE:
        assert lam.imag == 0.0 and lam.real < 0.0
    elif verdict.regime is Regime.OSCILLATORY_STABLE:
        assert lam.imag > 0.0 and lam.real < 0.0
    else:
        assert lam.real >= -1e-12


# ---------------------------------------------------------------------------
# winding-number zero counter
# ---------------------------------------------------------------------------


def test_winding_count_isolates_known_roots():
    beta, tau = 1.0, 0.3  # product 0.3 < 1/e: two real roots
    lam1 = float(lambertw(-0.3, 0).real) / tau
    lam2 = float(lambertw(-0.3, -1).real) / tau
    assert lam1 > lam2  # -1.63 vs -5.94
    a = beta
    assert winding_zero_count(a, tau, lam1 - 0.5, lam1 + 0.5, -1.0, 1.0) == 1
    assert winding_zero_count(a, tau, lam2 - 0.5, lam2 + 0.5, -1.0, 1.0) == 1
    assert winding_zero_count(a, tau, lam1 + 0.5, lam1 + 2.0, -1.0, 1.0) == 0
    assert winding_zero_count(a, tau, lam2 - 0.5, lam1 + 0.5, -1.0, 1.0) == 2


def test_winding_count_complex_pair():
    beta, tau = 2.0, 0.5  # product 1.0 > 1/e: conjugate dominant pair
    lam = dominant_root(beta, tau).lam
    box = winding_zero_count(
        beta, tau, lam.real - 0.4, lam.real + 0.4, -abs(lam.imag) - 0.6, abs(lam.imag) + 0.6
    )
    assert box == 2


# ---------------------------------------------------------------------------
# instability onset curves
# ---------------------------------------------------------------------------


def test_hopf_point_reference_values():
    hp = hopf_point(3.5, math.pi / 7.0)
    assert hp.omega0 == pytest.approx(3.5, rel=1e-14)
    assert hp.kappa_cr == pytest.approx(1.0, rel=1e-14)
    assert [f.name for f in dataclasses.fields(hp)] == ["omega0", "kappa_cr", "residual"]  # no echo of n
    assert hp.residual <= 1e-12

    hp2 = hopf_point(3.5, math.pi / 7.0, n=2)
    assert hp2.omega0 == pytest.approx(17.5, rel=1e-14)
    assert hp2.kappa_cr == pytest.approx(5.0, rel=1e-14)


@pytest.mark.parametrize("n", [-2, 1, 3, 2.5])
def test_hopf_point_rejects_odd_or_negative_branches(n):
    with pytest.raises(InvalidConfigError):
        hopf_point(3.5, 0.4, n=n)


@pytest.mark.parametrize(
    "helper, args",
    [
        (hopf_point, (math.nan, 1.0)),
        (hopf_point, (1.0, math.inf)),
        (critical_gain, (math.inf, 1.0)),
        (critical_delay, (math.nan,)),
        (critical_delay, (1.0, math.inf)),
        (transversality, (math.nan, 1.0)),
        (optimal_delay, (math.nan,)),
        (peak_rate, (math.inf,)),
        (stability_region_margin, (math.nan, 1.0, 20.0, 1.0, 0.5)),
        (stability_region_margin, (1.0, math.nan, 20.0, 1.0, 0.5)),
        (stability_region_margin, (1.0, 1.0, math.inf, 1.0, 0.5)),
        (stability_region_margin, (1.0, 1.0, 20.0, -math.inf, 0.5)),
        (stability_region_margin, (1.0, 1.0, 20.0, 1.0, math.nan)),
    ],
)
def test_closed_form_helpers_reject_non_finite_arguments(helper, args):
    with pytest.raises(InvalidConfigError, match="finite"):
        helper(*args)


@given(beta=st.floats(0.2, 8.0), tau=st.floats(0.05, 2.0), n=st.sampled_from([0, 2, 4]))
@settings(max_examples=120, deadline=None)
def test_hopf_point_residual_invariant(beta, tau, n):
    hp = hopf_point(beta, tau, n=n)
    lam = 1j * hp.omega0
    res = abs(lam + hp.kappa_cr * beta * np.exp(-lam * tau))
    assert res <= 1e-10 * max(1.0, hp.omega0)


def test_critical_delay_reference_values():
    assert critical_delay(3.5) == pytest.approx(math.pi / 7.0, abs=1e-12)
    assert critical_delay(1.9224809507857061) == pytest.approx(
        0.8170673036593272, rel=1e-12
    )
    # doubling the exogenous gain halves the critical delay
    assert critical_delay(3.5, kappa=2.0) == pytest.approx(math.pi / 14.0, abs=1e-12)


def test_critical_gain_reference_value():
    assert critical_gain(3.5, math.pi / 7.0) == pytest.approx(1.0, rel=1e-14)
    assert critical_gain(3.5, math.pi / 14.0) == pytest.approx(2.0, rel=1e-14)


def test_first_crossing_helpers_take_no_branch_index():
    """critical_delay and critical_gain give the first crossing alone, with the bits of the branch-0 formula."""
    assert list(inspect.signature(critical_delay).parameters) == ["beta_star", "kappa"]
    assert list(inspect.signature(critical_gain).parameters) == ["beta_star", "tau"]
    for beta, tau, kappa in ((3.5, math.pi / 7.0, 1.0), (1.9224809507857061, 0.3, 2.0), (0.1, 7.0, 0.7)):
        assert critical_delay(beta, kappa) == 0.5 * math.pi / (kappa * beta)
        assert critical_gain(beta, tau) == hopf_point(beta, tau, n=0).kappa_cr


@given(
    beta1=st.floats(0.2, 6.0),
    beta2=st.floats(0.2, 6.0),
    tau1=st.floats(0.05, 1.5),
    tau2=st.floats(0.05, 1.5),
)
@settings(max_examples=150, deadline=None)
def test_critical_gain_strictly_decreasing(beta1, beta2, tau1, tau2):
    assume(abs(beta1 - beta2) > 1e-9 and abs(tau1 - tau2) > 1e-9)
    b_lo, b_hi = sorted((beta1, beta2))
    t_lo, t_hi = sorted((tau1, tau2))
    assert critical_gain(b_hi, tau1) < critical_gain(b_lo, tau1)
    assert critical_gain(beta1, t_hi) < critical_gain(beta1, t_lo)


# ---------------------------------------------------------------------------
# crossing speed
# ---------------------------------------------------------------------------


def test_transversality_reference_value():
    assert transversality(3.5, math.pi / 7.0, 0) == pytest.approx(
        1.5855642265760157, rel=1e-12
    )


def test_transversality_matches_root_continuation():
    rng = np.random.default_rng(99)
    for _ in range(25):
        beta = rng.uniform(0.5, 6.0)
        tau = rng.uniform(0.1, 1.5)
        n = int(rng.choice([0, 2]))
        closed = transversality(beta, tau, n)
        numeric = numeric_crossing_speed(beta, tau, n)
        assert abs(closed - numeric) <= 1e-6 * abs(closed)


@given(beta=st.floats(0.1, 8.0), tau=st.floats(0.05, 2.0), n=st.sampled_from([0, 2, 4]))
@settings(max_examples=150, deadline=None)
def test_transversality_always_positive(beta, tau, n):
    assert transversality(beta, tau, n) > 0.0


# ---------------------------------------------------------------------------
# no-delay and small-delay reductions
# ---------------------------------------------------------------------------


def test_no_delay_spectrum_values(platoon_config):
    eq = EquilibriumCoefficients.from_config(platoon_config)
    spec_vals = no_delay_spectrum(eq, kappa=1.3)
    assert np.allclose(spec_vals, -1.3 * np.array([2.5, 3.0, 3.5, 4.0]), rtol=1e-14)
    assert np.all(spec_vals < 0.0)


def test_small_delay_condition_margins(platoon_config):
    eq = EquilibriumCoefficients.from_config(platoon_config)
    check = small_delay_condition(eq)
    assert np.allclose(check.products, [1.25, 1.2, 1.5708, 1.2], rtol=1e-12)
    assert not check.all_satisfied
    assert np.allclose(check.margins, 1.0 - check.products, rtol=1e-15)

    shrunk = four_vehicle_platoon(taus=(0.2, 0.2, 0.2, 0.2))
    eq2 = EquilibriumCoefficients.from_config(shrunk)
    check2 = small_delay_condition(eq2)
    assert check2.all_satisfied
    assert np.all(check2.margins > 0.0)


def test_small_delay_boundary_is_strict():
    cfg = single_follower(tau=1.0 / 3.5)  # product exactly 1
    eq = EquilibriumCoefficients.from_config(cfg)
    check = small_delay_condition(eq)
    assert not bool(check.satisfied[0])
    assert check.margins[0] == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# parameter-plane stability region
# ---------------------------------------------------------------------------


def test_region_margin_boundary_case():
    c = 0.7 * math.pi / 7.0
    rc = stability_region_margin(10.0, 2.0, 20.0, 1.0, c)
    assert rc.lhs == pytest.approx(5.0, rel=1e-14)
    assert rc.threshold == pytest.approx(5.0, rel=1e-14)
    assert not rc.stable  # boundary counts as not stable
    assert rc.margin == pytest.approx(0.0, abs=1e-12)


def test_region_margin_headway_independent_when_l_zero():
    a = stability_region_margin(10.0, 2.0, 5.0, 0.0, 0.3)
    bb = stability_region_margin(10.0, 2.0, 50.0, 0.0, 0.3)
    assert a.lhs == bb.lhs == pytest.approx(100.0, rel=1e-14)
    assert a.margin == bb.margin


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((1.0, 2.0, 1e300, 2.0, 0.3), "x0dot**m or b**l overflows at x0dot = 1.0, m = 2.0, b = 1e+300, l = 2.0"),
        ((1e300, 2.0, 20.0, 1.0, 0.3), "x0dot**m or b**l overflows at x0dot = 1e+300, m = 2.0, b = 20.0, l = 1.0"),
        ((10.0, 2.0, 1e-5, 100.0, 0.3), "b**l underflows to 0 at x0dot = 10.0, m = 2.0, b = 1e-05, l = 100.0"),
        ((1e200, 1.0, 1e-200, 1.0, 0.3), "x0dot**m / b**l overflows at x0dot = 1e+200, m = 1.0, b = 1e-200, l = 1.0"),
    ],
    ids=["b-power-overflows", "x0dot-power-overflows", "b-power-underflows", "quotient-overflows"],
)
def test_region_margin_rejects_a_power_outside_the_doubles(args, message):
    """The left side x0dot**m / b**l is beta_star's at alpha = 1, with its configuration errors."""
    with pytest.raises(InvalidConfigError, match=rf"^{re.escape(message)}$"):
        stability_region_margin(*args)


def test_region_margin_degenerate_exponents():
    # m = l = 0 collapses the criterion to 1 < pi/(2c)
    assert stability_region_margin(10.0, 0.0, 20.0, 0.0, 1.0).stable
    assert not stability_region_margin(10.0, 0.0, 20.0, 0.0, 1.6).stable
