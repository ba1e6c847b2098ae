"""Normal-form pipeline at the oscillation threshold.

For the single-follower threshold configuration almost every stage has a
closed-form value that can be derived by hand (the critical pair satisfies
kappa*beta* = omega0 and exp(-i*omega0*tau) = -i, which collapses the
algebra), so those stages are pinned exactly.  Later stages are pinned as
full-precision anchors computed with the Taylor coefficients of the sympy
oracle, and convention-independent identities (mu2 * alpha' = -Re c1,
beta2 = 2 Re c1, operator residuals) guard the pipeline as a whole.  The
coefficients themselves are checked against the closed form at l = 0 and
against sympy's derivatives of the model's flux.
"""

import cmath
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import re
import types

import numpy as np
import pytest

from ccfmlab import hopf
from ccfmlab.errors import DomainBreakdownError, InvalidConfigError, NumericalError
from ccfmlab.hopf import (
    _RING_FIT,
    _RING_PHASES,
    _RING_PSI,
    _RING_RADII,
    HopfReport,
    PointMasses,
    _Ring,
    critical_eigendata,
    first_lyapunov,
    g_coefficients,
    hopf_report,
    manifold_corrections,
    predicted_amplitude,
)
from ccfmlab.integrate import SimConfig, amplitude_envelope, simulate_batch
from ccfmlab.model import (
    EquilibriumCoefficients,
    LeaderProfile,
    PlatoonConfig,
    PlatoonState,
    VectorField,
    VehicleParams,
)
from ccfmlab.spectral import dominant_root

from conftest import four_vehicle_platoon, single_follower
from oracles import (
    hand_generator,
    loop_w_residuals,
    pseudospectral_eigenvalues,
    recursive_corrections,
    scalar_taylor_coefficients,
    sympy_taylor_coefficients,
    whole_row_field,
)

TAU = math.pi / 7.0
PAIRING = 1.0 + 1j * math.pi / 2.0  # <p_raw, q> for the threshold config


# ---------------------------------------------------------------------------
# eigendata: exact hand values for the threshold single follower
# ---------------------------------------------------------------------------


def test_eigendata_exact_hand_values(critical_config):
    eig = critical_eigendata(critical_config)
    assert eig.pair == 1
    assert eig.omega0 == pytest.approx(3.5, rel=1e-14)
    assert eig.kappa == pytest.approx(1.0, rel=1e-14)

    # right eigenvector: v-component pinned to 1; y' = kappa*v is a point mass
    # at theta = 0, so the y-component is kappa/(i*omega0) = -(2/7)i
    assert eig.q[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert eig.q[1] == pytest.approx(-(2.0 / 7.0) * 1.0j, abs=1e-13)

    # adjoint: y-components exactly zero, v-component conj(1/<p_raw, q>)
    assert eig.p[1] == 0.0
    assert eig.p[0] == pytest.approx((1.0 / PAIRING).conjugate(), abs=1e-13)

    # pairing closed by hand: d/ds[s + beta*exp(-s tau)] at i*omega0 is
    # 1 + i*pi/2, and conj(p_v) times that times q_v must give 1
    assert eig.p[0].conjugate() * PAIRING * eig.q[0] == pytest.approx(1.0, abs=1e-12)

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


def test_a_pair_without_a_hopf_point_is_rejected():
    """Pairs outside 1..N, a pair with no delay, and a platoon with no delay at all have no crossing to report at."""
    pc = four_vehicle_platoon(taus=(0.0, 0.4, 0.4488, 0.3))
    cases = [
        (pc, 0, r"^pair must be in 1\.\.4, got 0$"),
        (pc, 5, r"^pair must be in 1\.\.4, got 5$"),
        (pc, 1, r"^pair 1 has zero delay; it has no Hopf point$"),
        (four_vehicle_platoon(taus=(0.0,) * 4), None, r"^no pair has a positive delay; there is no Hopf point$"),
    ]
    for config, pair, message in cases:
        with pytest.raises(InvalidConfigError, match=message):
            hopf_report(config, pair=pair)


def test_two_simultaneously_critical_pairs_rejected():
    vehicles = (
        VehicleParams(alpha=0.7, tau=0.4, b=20.0),
        VehicleParams(alpha=0.7, tau=0.4, b=20.0),
    )
    pc = PlatoonConfig(vehicles=vehicles, m=2.0, l=1.0, leader=LeaderProfile(v_eq=10.0))
    with pytest.raises(NumericalError):
        critical_eigendata(pc)


@pytest.mark.parametrize("pair", [None, 1, 4])
def test_a_double_hopf_point_at_two_frequencies_is_rejected(pair):
    """Pairs 1 and 4 share the largest product, 1.5: at kappa_cr = pi/3 both are critical, at 2.618 and 4.189 rad/s.

    M(i*omega0) then has a one-dimensional kernel, but the center manifold is
    four-dimensional, so no report of one pair's normal form holds.  A tie
    below the largest product is rejected too: pairs 2 and 4 of the default
    platoon tie at 1.2 behind pair 3
    (test_orbit_is_unstable_where_another_pair_crosses_first).
    """
    pc = four_vehicle_platoon(taus=(0.6, 0.4, 0.3, 0.375))
    products = EquilibriumCoefficients.from_config(pc).products
    assert products[0] == products[3] == 1.5 and products[1:3].max() < 1.5
    for run in (critical_eigendata, hopf_report):
        with pytest.raises(NumericalError, match=r"^critical eigenspace is degenerate \(two pairs critical at once\)$"):
            run(pc, pair=pair)
    assert critical_eigendata(pc, pair=2).pair == 2  # an untied pair keeps its report


_BREAKDOWN = DomainBreakdownError(math.inf, 1, -1.0)
_BREAKDOWN_TEXT = "headway base y_1 + b_1 = -1 <= 0 at t = inf; the interaction term is undefined past this point"


def test_a_linearisation_that_leaves_the_domain_is_a_numerical_error(monkeypatch, critical_config):
    """A probe of the rest state that fails a domain check stops the eigendata with the field's own error."""
    probe = VectorField.rest_quotients
    monkeypatch.setattr(VectorField, "rest_quotients", lambda self, h: (probe(self, h)[0], {0: _BREAKDOWN}))
    with pytest.raises(NumericalError, match=rf"^the linearisation left the model's domain: {re.escape(_BREAKDOWN_TEXT)}$"):
        critical_eigendata(critical_config)


@pytest.mark.parametrize("stage", ["quadratic", "cubic"])
def test_a_ring_that_leaves_the_domain_is_a_numerical_error(critical_config, stage):
    """A ring state that fails a domain check stops the stage that evaluates it with the field's own error."""
    eig = critical_eigendata(critical_config)
    g = g_coefficients(eig)
    evaluate = eig.field.flux_rows
    eig.field.flux_rows = lambda *args: (evaluate(*args)[0], {0: _BREAKDOWN})
    with pytest.raises(NumericalError, match=rf"^the normal-form ring left the model's domain: {re.escape(_BREAKDOWN_TEXT)}$"):
        g_coefficients(eig) if stage == "quadratic" else manifold_corrections(eig, g)


# ---------------------------------------------------------------------------
# quadratic and cubic normal-form stages
# ---------------------------------------------------------------------------


def test_quadratic_forcing_exact_values(critical_config):
    eig = critical_eigendata(critical_config)
    g = g_coefficients(eig)
    # The flux alpha*(x0 - v)^2*v/(b + y) has d2/dv2 = -4*alpha*x0/b = -1.4 and
    # d2/dvdy = -alpha*x0^2/b^2 = -0.175 at rest.  With q(-tau) = (-i, -2/7),
    # F20 = -B(q, q) = -1.4 + 0.1i and F11 = -B(q, qbar) = 1.4.
    assert g.F20[0] == pytest.approx(-1.4 + 0.1j, abs=1e-12)
    assert g.F11[0] == pytest.approx(1.4 + 0.0j, abs=1e-12)

    assert g.g20 == pytest.approx((-1.4 + 0.1j) / PAIRING, abs=1e-12)
    assert g.g11 == pytest.approx(1.4 / PAIRING, abs=1e-12)
    # g02 projects F02 = conj(F20)
    assert g.g02 == pytest.approx((-1.4 - 0.1j) / PAIRING, abs=1e-12)


def test_taylor_coefficients_match_the_closed_form():
    # One follower at l = 0 with beta* = 3.5, over m and the delay.
    for m in (-1.0, 0.5, 1.0, 1.5, 2.0):
        for tau in (0.2, TAU, 0.9):
            vehicles = (VehicleParams(alpha=3.5 / 10.0**m, tau=tau, b=20.0),)
            pc = PlatoonConfig(vehicles=vehicles, m=m, l=0.0, leader=LeaderProfile(v_eq=10.0))
            rep = hopf_report(pc)
            F20, F11, F21 = scalar_taylor_coefficients(pc, rep.corrections.eig, rep.corrections)
            assert rep.corrections.g.F20[0] == pytest.approx(F20, rel=1e-10), (m, tau)
            assert rep.corrections.g.F11[0] == pytest.approx(F11, rel=1e-10), (m, tau)
            assert rep.corrections.F21[0] == pytest.approx(F21, rel=1e-9), (m, tau)


def test_taylor_coefficients_match_sympy(critical_config):
    pytest.importorskip("sympy")
    rng = np.random.default_rng(8)
    configs = [critical_config, single_follower(l=0.0), four_vehicle_platoon()]
    configs += [_random_platoon(rng, 1 + k % 8, *EXPONENTS[k % len(EXPONENTS)]) for k in range(24)]
    for pc in configs:
        rep = hopf_report(pc)
        F20, F11, F21 = sympy_taylor_coefficients(pc, rep.corrections.eig, rep.corrections)
        for got, want in ((rep.corrections.g.F20, F20), (rep.corrections.g.F11, F11), (rep.corrections.F21, F21)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (pc.n, pc.m, pc.l)
        # g02 is the projection of F02 = conj(F20)
        assert rep.corrections.g.g02 == pytest.approx(complex(rep.corrections.eig.p[: pc.n].conj() @ F20.conj()), rel=1e-9)


def test_manifold_corrections_exact_values(critical_config):
    eig = critical_eigendata(critical_config)
    g = g_coefficients(eig)
    corr = manifold_corrections(eig, g)
    # e_v = F20 / (2i*omega0 + beta*exp(-2i*omega0*tau)) = (-1.4 + 0.1i)/(7i - 3.5),
    # and e_y = kappa*e_v/(2i*omega0) = e_v/(7i)
    e_v = (-1.4 + 0.1j) / (-3.5 + 7.0j)
    assert corr.e[0] == pytest.approx(e_v, abs=1e-12)
    assert corr.e[1] == pytest.approx(e_v / 7.0j, abs=1e-13)
    # f_v = F11 / (kappa*beta*) = 1.4/3.5; free y-component fixed at zero
    assert corr.f[0] == pytest.approx(0.4 + 0.0j, abs=1e-13)
    assert corr.f[1] == 0.0

    res = corr.residuals
    assert res.w20_boundary <= 1e-8
    assert res.w11_boundary_v <= 1e-8
    # structural defect of the overdetermined y-row: kappa*f_v
    assert res.w11_boundary_y == pytest.approx(0.4, rel=1e-10)


def _random_platoon(rng, n, m, l):
    """n followers with distinct products in (0.3, 1.5), so one pair is critical first."""
    x0 = float(rng.uniform(5.0, 20.0))
    while True:
        products = rng.uniform(0.3, 1.5, n)
        top = np.sort(products)
        if n == 1 or top[-1] > 1.01 * top[-2]:
            break
    taus = rng.uniform(0.1, 1.0, n)
    bs = rng.uniform(10.0, 30.0, n)
    alphas = products * bs**l / (taus * x0**m)
    vehicles = tuple(VehicleParams(float(a), float(t), float(b)) for a, t, b in zip(alphas, taus, bs))
    return PlatoonConfig(vehicles, m, l, LeaderProfile(x0, 10.0))


EXPONENTS = ((2.0, 1.0), (1.0, 1.0), (0.5, 0.5), (-1.0, 1.5), (2.0, 0.0), (1.5, 2.0))


def _platoon_set(critical_config):
    """The threshold single follower, the four-vehicle platoon, once more with a zero-delay second
    pair, and 48 random platoons of 1-8 vehicles."""
    rng = np.random.default_rng(5)
    configs = [critical_config, four_vehicle_platoon(), four_vehicle_platoon(taus=(0.5, 0.0, 0.4488, 0.3))]
    return configs + [_random_platoon(rng, 1 + k % 8, *EXPONENTS[k % len(EXPONENTS)]) for k in range(48)]


def test_point_masses_match_the_hand_generator(critical_config):
    for pc in _platoon_set(critical_config):
        eig = critical_eigendata(pc)
        s = 1j * eig.omega0
        M, chars, Mp = eig.masses.critical(s)
        eye = np.eye(2 * pc.n)
        # L(x) = x*I - M(x), at s, 2s and 0
        lins = (s * eye - M, 2 * s * eye - chars[0], -chars[1])
        checks = [(L, hand_generator(eig.beta, eig.taus, eig.kappa, x)[0]) for L, x in zip(lins, (s, 2 * s, 0.0))]
        checks.append((Mp, hand_generator(eig.beta, eig.taus, eig.kappa, s)[1]))
        assert np.array_equal(eig.M2, chars[0]) and np.array_equal(eig.M0_v, chars[1, : pc.n, : pc.n])
        for got, want in checks:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), pc.n


def _held_arrays(obj) -> list:
    """Every ndarray reachable from obj through attributes, containers and view bases."""
    seen, stack, arrays = set(), [obj], []
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            arrays.append(o)
            stack.append(o.base)
        else:
            stack.extend(gc.get_referents(o))
    return arrays


def test_a_kept_report_holds_no_full_m0():
    """An N = 8 report keeps M(2*i*omega0) and the N x N v-block of M(0): 5N**2
    complex values in square matrices, and no 2N x 2N M(0)."""
    pc = _random_platoon(np.random.default_rng(3), 8, *EXPONENTS[1])
    report = hopf_report(pc)
    n = pc.n
    M0 = report.corrections.eig.masses.critical(1j * report.omega0)[1][1]
    square = [a for a in _held_arrays(report) if a.ndim >= 2 and a.shape[-1] == a.shape[-2] > 1]
    assert sum(a.size for a in square) == 5 * n * n
    for a in square:
        if a.shape[-1] == 2 * n:
            assert not any(np.array_equal(m, M0) for m in a.reshape(-1, 2 * n, 2 * n))


def _pair_roots(pc):
    """Each pair's dominant root, from the principal Lambert-W branch."""
    eq = EquilibriumCoefficients.from_config(pc)
    return [dominant_root(b, t, pc.kappa).lam for b, t in zip(eq.beta, eq.taus)]


def _roots_apart(pc):
    """No two pair roots or conjugates within 10% of each other, and no product within 0.05 of 1/e."""
    roots = _pair_roots(pc)
    points = roots + [lam.conjugate() for lam in roots if lam.imag != 0.0]
    near = any(abs(a - b) <= 0.1 * max(abs(a), abs(b)) for a, b in itertools.combinations(points, 2))
    products = EquilibriumCoefficients.from_config(pc).products
    return not near and np.min(np.abs(products - 1.0 / math.e)) > 0.05


def test_pseudospectral_spectrum_is_the_union_of_the_pair_roots(critical_config):
    # The delayed platoon's generator is block triangular: its spectrum is
    # each pair's roots of lambda + kappa*beta*_i*exp(-lambda*tau_i) = 0 and
    # N zeros, the line of equilibria (v, y) = (0, c).  Where two roots
    # nearly meet (two pairs' roots, a root and its conjugate, or a pair's two
    # real roots near product 1/e), the coupled matrix's eigenvalue is
    # ill-conditioned and collocation loses digits (8.8e-10 at a gap of 2%),
    # so such draws are replaced.
    rng = np.random.default_rng(12)
    configs = [critical_config, four_vehicle_platoon(taus=(0.5, 0.0, 0.4488, 0.3))]
    while len(configs) < 10:
        n = len(configs) - 1
        pc = _random_platoon(rng, n, *EXPONENTS[n % len(EXPONENTS)])
        if _roots_apart(pc):
            configs.append(pc)
    for pc in configs:
        spectrum = pseudospectral_eigenvalues(PointMasses(VectorField(pc)))
        roots = _pair_roots(pc)
        for lam in roots + [lam.conjugate() for lam in roots]:
            assert np.min(np.abs(spectrum - lam)) <= 1e-10 * abs(lam), (pc.n, lam)
        zero = np.abs(spectrum) < 1e-8
        assert np.count_nonzero(zero) == pc.n
        rightmost = max(lam.real for lam in roots)
        rest = spectrum[~zero]
        assert np.all(rest.real - rightmost <= 1e-9 * np.abs(rest)), pc.n


def test_corrections_match_the_recursion(critical_config):
    for pc in _platoon_set(critical_config):
        rep = hopf_report(pc)
        e, f = recursive_corrections(rep.corrections.eig, rep.corrections.g)
        for got, want in ((rep.corrections.e, e), (rep.corrections.f, f)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), pc.n


def test_broadcast_w_residuals_match_the_theta_loop(critical_config):
    # The closed forms w20(theta), w11(theta) meet their theta-ODE term by
    # term, and at theta = 0 the generator's action on each exponential piece
    # leaves exactly the residuals of the two solves for e and f.
    for pc in _platoon_set(critical_config):
        rep = hopf_report(pc)
        want = loop_w_residuals(pc, rep.corrections.eig, rep.corrections.g, rep.corrections)
        assert want.w20_interior <= 1e-13 and want.w11_interior <= 1e-13, pc.n
        for name, value in vars(rep.corrections.residuals).items():
            assert abs(value - getattr(want, name)) <= 1e-13, (pc.n, name)


def _ring_rows(eig, thetas: np.ndarray) -> np.ndarray:
    """The ring's linear states z*q*exp(i*omega0*theta) + c.c. as whole rows at the given thetas, (K, 2, A, len(thetas), 2N)."""
    qt = eig.q * np.exp(1j * eig.omega0 * thetas)[:, None]
    lin = eig.ring.scale * 2.0 * (np.exp(1j * _RING_PSI)[:, None, None] * qt).real
    return np.stack((lin, -lin)) * _RING_RADII[:, None, None, None, None]


def test_the_ring_holds_the_observables_of_its_whole_row_states(monkeypatch, critical_config):
    """The ring's linear states are pair_observables of the whole-row states, bit for bit.  With w20
    and w11, the ring adds the observables of the two parts, so that v_i and y_i keep their bits
    and S_i, a sum of i terms, moves by rounding: bit for bit at N = 1, and within N ulps of the
    ring's largest |S_i| or |v_i| at N > 1."""
    seen = []
    evaluate = _Ring._rows
    monkeypatch.setattr(_Ring, "_rows", lambda self, x: seen.append(x) or evaluate(self, x))
    for pc in _platoon_set(critical_config):
        eig = critical_eigendata(pc)
        field = eig.field
        g = g_coefficients(eig)
        seen.clear()
        corr = manifold_corrections(eig, g)
        linear, cubic = eig.ring.linear_states(), seen[0]
        assert linear.shape == cubic.shape == (3, _RING_RADII.size, 2, _RING_PSI.size, pc.n)
        rows = _ring_rows(eig, -eig.taus)  # pair i's delayed row at theta = -tau_i
        assert np.array_equal(linear, np.array(field.pair_observables(rows)))
        w = (np.exp(1j * _RING_PSI)[:, None, None] ** 2 * corr.w20(-eig.taus)).real + corr.w11(-eig.taus).real
        rows = rows + (eig.ring.scale**2 * w) * (_RING_RADII**2)[:, None, None, None, None]
        want = np.array(field.pair_observables(rows))
        assert np.array_equal(cubic[1:], want[1:])
        gap = np.abs(cubic[0] - want[0]).max()
        assert gap <= (pc.n > 1) * pc.n * np.spacing(np.abs(want[:2]).max()), pc.n


def test_q_is_an_eigenvector_of_the_vector_field(critical_config):
    # The order-rho part of harmonic 1 on the ring is the field's linear part
    # applied to q*exp(i*omega0*theta): it must be i*omega0*q in every row,
    # the y-rows included, where y' = kappa*v(t) reads q at theta = 0 only.
    # The ring holds the pair observables of its delayed rows alone, so the
    # current row is added here and the whole-row field is evaluated.
    for pc in _platoon_set(critical_config):
        eig = critical_eigendata(pc)
        n = pc.n
        states = _ring_rows(eig, np.concatenate(([0.0], -eig.taus)))  # now, then each pair's delayed row
        rows = states.reshape(-1, n + 1, 2 * n)
        out, failures = whole_row_field(eig.field, math.inf, rows[:, 0], rows[:, 1:])
        assert not failures
        out = out.reshape(states.shape[:3] + (2 * n,))
        odd = out[:, 0] - out[:, 1]
        h1 = (odd * _RING_PHASES[1, :, None]).sum(axis=1) / _RING_RADII[:, None]
        linear = _RING_FIT[0] @ h1 / eig.ring.scale
        want = 1j * eig.omega0 * eig.q
        assert np.max(np.abs(linear - want)) <= 1e-12 * np.max(np.abs(want)), pc.n


# The sha256 of json.dumps(hopf_report(pc).to_dict(), sort_keys=True), pinned
# from the ring that evaluated whole delayed rows.
_PINNED_REPORTS = {
    "single-l1": (single_follower, 1.0, "25a7a79bbd7d5cdf67608841442a733f5164eaa20142c9a730a1d0c8c228cf33"),
    "single-l0.5": (single_follower, 0.5, "6d06731323ccf29be440a33b2ab598ed63c03b7157103683e46f5afe2d5e45dc"),
    "platoon-l1": (four_vehicle_platoon, 1.0, "6de1300840f7edf7eada54687f769e6315e18517e03a9fe49db61129dc1e088d"),
    "platoon-l0": (four_vehicle_platoon, 0.0, "6ddf17a9da9d2d0c72a12638e78465f073df3f00885e62b0c4fc32a0baf86dd9"),
}


@pytest.mark.parametrize("case", list(_PINNED_REPORTS))
def test_pinned_reports_keep_their_bits(case):
    make, l, digest = _PINNED_REPORTS[case]
    report = hopf_report(make(l=l)).to_dict()
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


def test_a_report_makes_three_field_evaluations(monkeypatch, critical_config):
    """One evaluation reads the point masses, and the ring makes one for the
    quadratic and one for the cubic coefficients.  A report also makes one
    SVD, one stacked solve and one ring, and runs each of its four public
    stages once; those stages called one by one do the report's work and no
    more."""
    configs = (critical_config, four_vehicle_platoon())
    want = [hopf_report(pc).to_dict() for pc in configs]
    calls = []

    def count(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs))

    stages = ("critical_eigendata", "g_coefficients", "manifold_corrections", "first_lyapunov")
    for owner, name in ((VectorField, "flux_rows"), (np.linalg, "svd"), (np.linalg, "solve"), (_Ring, "__init__")):
        count(owner, name)
    for name in stages:
        count(hopf, name)
    for pc, report in zip(configs, want):
        calls.clear()
        assert hopf_report(pc).to_dict() == report
        assert sorted(calls) == sorted(["__init__", "flux_rows", "flux_rows", "flux_rows", "solve", "svd", *stages])
        calls.clear()
        eig = critical_eigendata(pc)
        corr = manifold_corrections(eig, g_coefficients(eig))
        assert calls.count("flux_rows") == 3
        assert first_lyapunov(corr) == complex(report["c1_re"], report["c1_im"])


def test_w_functions_take_an_array_of_thetas():
    corr = hopf_report(four_vehicle_platoon()).corrections
    thetas = np.linspace(-0.5, 0.0, 7)
    for w in (corr.w20, corr.w11):
        grid = w(thetas)
        assert grid.shape == (7, 8)
        for row, theta in zip(grid, thetas):
            assert np.array_equal(row, w(float(theta)))


def test_w_functions_frozen_samples(critical_config):
    rep = hopf_report(critical_config)
    corr = rep.corrections
    assert corr.w20(-TAU)[0] == pytest.approx(
        -0.15107751327785587 + 0.09281741431905002j, rel=1e-10
    )
    assert corr.w11(-TAU)[0] == pytest.approx(0.1692796486863991 + 0.0j, rel=1e-10)
    assert corr.w11(-TAU)[0].imag == pytest.approx(0.0, abs=1e-13)


def test_cubic_stage_frozen_regression(critical_config):
    corr = hopf_report(critical_config).corrections
    assert corr.F21[0] == pytest.approx(
        -0.12886341586620353 - 0.512212866248998j, rel=1e-10
    )
    assert corr.g21 == pytest.approx(
        -0.26920609347268765 - 0.08934492347129677j, rel=1e-10
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
        -0.205326417562575 - 0.19383116035589487j, rel=1e-10
    )
    assert rep.mu2 == pytest.approx(0.12949738277456727, rel=1e-10)
    assert rep.beta2 == pytest.approx(-0.41065283512515, rel=1e-10)
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
    g = rep.corrections.g
    w0 = rep.omega0
    by_hand = (1j / (2.0 * w0)) * (
        g.g20 * g.g11 - 2.0 * abs(g.g11) ** 2 - abs(g.g02) ** 2 / 3.0
    ) + rep.corrections.g21 / 2.0
    assert rep.c1 == pytest.approx(by_hand, rel=1e-14)
    assert first_lyapunov(rep.corrections) == rep.c1


def test_orbit_is_unstable_where_another_pair_crosses_first():
    """A report at pair p's kappa_cr calls its orbit unstable when another pair is already past pi/2 there.

    On the platoon, pair 3 has the largest product: at the critical gain of
    pair 1 its rightmost root lies in the right half-plane, so no cycle born
    at pair 1 attracts.  The normal form itself is unchanged: each report
    stays supercritical with beta2 < 0 and predicts an amplitude.  Pairs 2
    and 4 tie at product 1.2, a double Hopf point, and get no report.
    """
    pc = four_vehicle_platoon()
    eq = EquilibriumCoefficients.from_config(pc)
    for pair in (2, 4):
        for run in (critical_eigendata, hopf_report):
            with pytest.raises(NumericalError, match=r"^critical eigenspace is degenerate \(two pairs critical at once\)$"):
                run(pc, pair=pair)
    for pair in (1, 3):
        rep = hopf_report(pc, pair=pair)
        overtaken = any(
            dominant_root(b, t, rep.kappa_cr).lam.real > 0 for i, (b, t) in enumerate(zip(eq.beta, eq.taus)) if i != pair - 1
        )
        assert overtaken == (pair != 3)
        assert rep.orbit == ("unstable" if overtaken else "stable")
        assert rep.kind == "supercritical" and rep.beta2 < 0
        assert predicted_amplitude(rep, 1.01 * rep.kappa_cr) is not None


def test_degenerate_exponents_collapse_everything():
    vehicles = (VehicleParams(alpha=0.7, tau=TAU, b=20.0),)
    pc = PlatoonConfig(vehicles=vehicles, m=0.0, l=0.0, leader=LeaderProfile(v_eq=10.0))
    rep = hopf_report(pc)
    # beta* = alpha here, so the critical gain moves accordingly
    assert rep.kappa_cr == pytest.approx(math.pi / (2.0 * 0.7 * TAU), rel=1e-13)
    assert rep.kind == "degenerate" and rep.orbit == "degenerate"
    assert abs(rep.c1) <= 1e-13
    g = rep.corrections.g
    assert abs(g.g20) <= 1e-13 and abs(g.g11) <= 1e-13
    corr = rep.corrections
    assert abs(g.g02) <= 1e-13 and abs(corr.g21) <= 1e-13
    assert np.allclose(corr.e, 0.0, atol=1e-13)
    assert np.allclose(corr.f, 0.0, atol=1e-13)
    assert rep.mu2 == 0.0 and rep.beta2 == 0.0
    assert predicted_amplitude(rep, 1.1 * rep.kappa_cr) is None


def test_report_deterministic(critical_config):
    a = hopf_report(critical_config)
    b = hopf_report(critical_config)
    assert a.c1 == b.c1
    assert np.array_equal(a.corrections.eig.q, b.corrections.eig.q)
    assert np.array_equal(a.corrections.e, b.corrections.e)


def test_report_dict_schema(critical_config):
    d = hopf_report(critical_config).to_dict()
    assert set(d) == {
        "pair", "omega0", "kappa_cr", "alpha_prime", "c1_re", "c1_im",
        "mu2", "beta2", "type", "orbit",
        "w20_boundary", "w11_boundary_v", "w11_boundary_y",
    }
    assert d["type"] == "supercritical" and d["orbit"] == "stable"
    assert d["w11_boundary_y"] == pytest.approx(0.4, rel=1e-10)


@pytest.mark.parametrize(
    ("pc", "pair"),
    [(four_vehicle_platoon(), 1), (four_vehicle_platoon(), 3), (single_follower(l=0.0), None)],
    ids=["platoon-pair-1", "platoon-pair-3", "single-l0"],
)
def test_a_report_holds_only_what_it_computes(pc, pair):
    """The crossing is the eigendata's, and the eigendata and the quadratic stage are the corrections'."""
    assert [f.name for f in dataclasses.fields(HopfReport)] == [
        "alpha_prime", "c1", "mu2", "beta2", "kind", "orbit", "corrections",
    ]
    rep = hopf_report(pc, pair)
    eig = rep.corrections.eig
    assert (rep.pair, rep.omega0, rep.kappa_cr) == (eig.pair, eig.omega0, eig.kappa)
    assert rep.pair == (pair or 1)
    assert not hasattr(rep, "eig") and not hasattr(rep, "g")


# ---------------------------------------------------------------------------
# amplitude prediction and simulation cross-check
# ---------------------------------------------------------------------------


def test_predicted_amplitude_values(critical_config):
    rep = hopf_report(critical_config)
    assert predicted_amplitude(rep, 1.0) is None
    assert predicted_amplitude(rep, 0.99) is None
    assert predicted_amplitude(rep, 1.02) == pytest.approx(
        0.7859854344071583, rel=1e-10
    )
    a_small = predicted_amplitude(rep, 1.005)
    a_big = predicted_amplitude(rep, 1.02)
    assert 0.0 < a_small < a_big
    for kappa in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidConfigError, match="finite"):
            predicted_amplitude(rep, kappa)


def test_predicted_amplitude_matches_converged_rk4_tails():
    # Tail amplitudes of 900 s rk4 runs at h = 0.01 on the l = 0 single
    # follower (acceptance #8), step-converged to the digits given.
    rep = hopf_report(single_follower(l=0.0))
    for kappa, measured in ((1.0025, 0.281), (1.005, 0.399), (1.01, 0.563), (1.02, 0.794)):
        assert predicted_amplitude(rep, kappa) == pytest.approx(measured, rel=0.01), kappa


def test_post_threshold_sweep_is_reproducible_and_ordered():
    """Just-past-threshold runs: finite, deterministic, and larger gain
    excess gives the larger transient oscillation amplitude.

    Uses the fourth-order scheme: the first-order scheme's numerical damping
    at this step size is comparable to the tiny physical growth rates and
    reverses the ordering.
    """
    kappas = (1.0025, 1.01)
    sc = SimConfig(step=0.01, horizon=300.0, method="rk4")
    # each gain twice in one batch: the copies must agree bit for bit
    trajs = simulate_batch(
        [single_follower(kappa=kappa) for kappa in kappas * 2], sc, PlatoonState.uniform_perturbation(1)
    )
    amps = {}
    for kappa, tr1, tr2 in zip(kappas, trajs[:2], trajs[2:]):
        assert np.array_equal(tr1.states, tr2.states)
        amp = amplitude_envelope(tr1).max_v
        assert math.isfinite(amp) and amp > 0.0
        amps[kappa] = amp
    assert amps[1.0025] < amps[1.01]
