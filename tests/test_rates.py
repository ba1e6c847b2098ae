"""Decay-rate computations.

The rate module reads the decay rate off the dominant root, as -Re(lambda)
of the root that ``dominant_root`` returns, bit for bit.  The oracle in
``oracles.py`` solves the real branch equations by safeguarded Newton
iteration and shares no solver code with the package, so its agreement is
the primary correctness check here, alongside frozen values from the Lambert
W function.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from ccfmlab import spectral
from ccfmlab.errors import InvalidConfigError, RootSolveError, UnstableRegimeError
from ccfmlab.model import beta_star
from ccfmlab.rates import (
    _LABELS,
    RateCurvePoint,
    optimal_delay,
    peak_rate,
    rate_curve,
    rate_of_convergence,
)
from ccfmlab.spectral import dominant_root

from oracles import branch_rate

E_INV = 1.0 / math.e


# ---------------------------------------------------------------------------
# the rate is the dominant root's; the branch equations are its oracle
# ---------------------------------------------------------------------------


@given(c=st.floats(0.01, 1.5), tau=st.floats(0.05, 2.0))
@settings(max_examples=200, deadline=None)
def test_rate_equals_negated_real_part_of_dominant_root(c, tau):
    beta = c / tau
    res = rate_of_convergence(beta, tau)
    assert res.dominant.hex() == (-dominant_root(beta, tau).lam.real).hex()
    if abs(c - E_INV) > 1e-10:
        assert res.dominant == pytest.approx(branch_rate(res.product, tau), rel=1e-8)


@pytest.mark.parametrize(
    "beta, tau, branch",
    [
        ((E_INV + 1e-13) / 0.5, 0.5, "boundary"),
        ((E_INV - 1e-13) / 0.5, 0.5, "boundary"),
        ((E_INV - 9e-13) / 0.5, 0.5, "boundary"),
        (3.5, 0.0, "real"),
        (3.5, 5e-324, "real"),
        (3.5, 1e-310, "real"),
        (1e-300, 1e-10, "real"),
        (1e307, 2e-308, "real"),
    ],
    ids=["1/e+1e-13", "1/e-1e-13", "1/e-9e-13", "tau-0", "tau-5e-324", "tau-1e-310", "product-1e-310", "tau-2e-308"],
)
def test_rate_is_the_dominant_root_bit_for_bit(beta, tau, branch):
    """Next to the boundary 1/e, at zero and subnormal delays and products, and at a normal product over a subnormal delay."""
    res = rate_of_convergence(beta, tau)
    assert res.branch == branch
    assert res.dominant.hex() == (-dominant_root(beta, tau).lam.real).hex()
    c = beta * tau
    # -W_0(-c)/tau = beta*(1 + c + 1.5c^2 + ...); a subnormal c keeps too few bits to pass to lambertw
    ref = beta * (1.0 + c) if c < 1e-8 else -lambertw(-c, 0).real / tau
    assert abs(res.dominant - ref) <= 1e-12 * ref


def test_rate_curve_at_a_subnormal_delay_is_the_gain():
    """At tau = 1e-320 the product is subnormal and exp(-lambda*tau) rounds to 1: the rate is kappa*beta* exactly."""
    assert rate_curve(0.7, 10.0, 2.0, 20.0, [1.2], [1e-320])[0].rate == beta_star(0.7, 10.0, 2.0, 20.0, 1.2)


@pytest.mark.parametrize("tau", [1e-4, 0.3])
def test_rate_matches_branch_equations_on_a_dense_grid(tau):
    """Products k*(pi/2)/2000 for k = 1..1999, away from the boundary 1/e.

    At tau = 1e-4 the roots reach |lambda| ~ 1.6e4 and the rates ~ 1e4; the
    rate is read off the root at unit delay and scaled back, and must still
    agree to 1e-10 relative.
    """
    worst = 0.0
    for k in range(1, 2000):
        c = k * (math.pi / 2.0) / 2000
        if abs(c - E_INV) <= 1e-10:
            continue
        res = rate_of_convergence(c / tau, tau)
        ref = branch_rate(res.product, tau)
        worst = max(worst, abs(res.dominant - ref) / ref)
    assert worst <= 1e-10


def test_rate_branch_values_cross_checked():
    # real branch: product 0.105 (frozen from the Lambert W principal branch)
    res = rate_of_convergence(3.5, 0.03)
    assert res.branch == "real"
    assert res.dominant * 0.03 == pytest.approx(0.11817081536005551, rel=1e-12)

    # oscillatory branch: product 1.0
    res = rate_of_convergence(2.0, 0.5)
    assert res.branch == "complex"
    lam = dominant_root(2.0, 0.5).lam
    assert res.dominant == pytest.approx(-lam.real, rel=1e-10)
    assert res.dominant == pytest.approx(branch_rate(1.0, 0.5), rel=1e-10)


def test_zero_delay_rate_is_the_gain():
    res = rate_of_convergence(3.5, 0.0)
    assert res.dominant == 3.5 and res.branch == "real"
    res = rate_of_convergence(3.5, 0.0, kappa=2.0)
    assert res.dominant == pytest.approx(7.0, rel=1e-15)


@pytest.mark.parametrize(
    "tau, branch", [(0.03, "real"), (1.0 / (5.25 * math.e), "boundary"), (0.2, "complex"), (0.0, "real")], ids=["real", "boundary", "complex", "no-delay"]
)
def test_numpy_scalar_arguments_give_python_floats(tau, branch):
    """Every float field is a Python float with the plain-float call's bits, whatever the arguments' numpy type."""
    want = dataclasses.asdict(rate_of_convergence(3.5, tau, 1.5))
    assert want["branch"] == branch
    for cast in (np.float64, np.array):
        got = dataclasses.asdict(rate_of_convergence(cast(3.5), cast(tau), cast(1.5)))
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, float):
                assert type(got[name]) is float and got[name].hex() == value.hex(), name
            else:
                assert got[name] == value, name


def test_underflowed_product_gives_the_gain():
    # kappa*beta**tau underflows to 0 while tau > 0: the rate's limit is the gain.
    res = rate_of_convergence(1e-200, 1e-200, kappa=2.0)
    assert res.product == 0.0 and res.branch == "real"
    assert res.dominant == 2e-200
    assert rate_curve(1e-200, 1.0, 2.0, 20.0, [0.0], [1e-200])[0].rate == 1e-200


def test_boundary_triple_coincidence():
    # at tau* all three branch equations admit sigma = 1/tau
    beta = 3.5
    ts = optimal_delay(beta)
    res = rate_of_convergence(beta, ts)
    assert res.branch == "boundary"
    assert res.sigma1 == pytest.approx(1.0 / ts, rel=1e-12)
    assert res.sigma1 == res.dominant
    assert res.dominant == pytest.approx(peak_rate(beta), rel=1e-12)


def test_unstable_product_raises():
    with pytest.raises(UnstableRegimeError):
        rate_of_convergence(3.5, math.pi / 7.0)
    with pytest.raises(UnstableRegimeError):
        rate_of_convergence(3.5, 1.0)


def test_invalid_arguments_rejected():
    with pytest.raises(InvalidConfigError):
        rate_of_convergence(-1.0, 0.1)
    with pytest.raises(InvalidConfigError):
        optimal_delay(0.0)
    with pytest.raises(InvalidConfigError):
        peak_rate(3.5, kappa=-1.0)


# ---------------------------------------------------------------------------
# shape of the rate-versus-delay curve
# ---------------------------------------------------------------------------


def test_optimal_delay_reference_value():
    assert optimal_delay(3.5) == pytest.approx(0.10510841176326923, rel=1e-13)
    assert peak_rate(3.5) == pytest.approx(9.513986399606658, rel=1e-13)
    # kappa enters as a pure gain rescale
    assert optimal_delay(3.5, kappa=2.0) == pytest.approx(
        optimal_delay(7.0), rel=1e-14
    )


def test_rate_peaks_at_optimal_delay_on_grid():
    beta = 3.5
    ts = optimal_delay(beta)
    grid = np.linspace(0.005, 0.95 * math.pi / (2 * beta), 300)
    rates = [rate_of_convergence(beta, t).dominant for t in grid]
    k = int(np.argmax(rates))
    step = grid[1] - grid[0]
    assert abs(grid[k] - ts) <= step
    # asymmetry of the curve around the peak
    lo = rate_of_convergence(beta, ts / 3.0).dominant
    hi = rate_of_convergence(beta, 3.0 * ts).dominant
    assert lo == pytest.approx(4.030902150070972, rel=1e-12)
    assert hi == pytest.approx(0.7903247601457378, rel=1e-12)
    assert lo > hi


def test_tau_star_is_the_optimal_delay_and_the_branch_places_the_delay():
    """tau_star is optimal_delay's, bit for bit; a delay below it lies on the real branch, one above on the complex."""
    beta = 3.5
    ts = optimal_delay(beta)
    below, above = rate_of_convergence(beta, 0.5 * ts), rate_of_convergence(beta, 2.0 * ts)
    assert below.tau_star == above.tau_star == ts
    assert rate_of_convergence(beta, 0.5 * ts, kappa=1.7).tau_star == optimal_delay(beta, kappa=1.7)
    assert below.branch == "real" and above.branch == "complex"


# ---------------------------------------------------------------------------
# sweep helper
# ---------------------------------------------------------------------------


def test_rate_curve_flags_unstable_points():
    taus = [0.05, 0.15, 0.5]
    pts = rate_curve(0.7, 10.0, 2.0, 20.0, [1.0], taus)
    assert len(pts) == 3
    assert pts[0].branch in ("real", "complex") and math.isfinite(pts[0].rate)
    assert pts[1].branch == "complex"
    # beta* = 3.5, tau = 0.5: product > pi/2
    assert pts[2].branch == "unstable" and math.isnan(pts[2].rate)


def test_rate_curve_covers_all_exponents():
    taus = np.linspace(0.01, 0.2, 8)
    pts = rate_curve(0.7, 10.0, 2.0, 20.0, [0.8, 1.0, 1.2], taus)
    assert len(pts) == 24
    assert sorted({p.l for p in pts}) == [0.8, 1.0, 1.2]
    fixed = {p.l: p.rate for p in pts if p.tau == taus[4]}
    for l, r in fixed.items():
        single = rate_of_convergence(0.7 * 100.0 / 20.0**l, taus[4]).dominant
        assert r == pytest.approx(single, rel=1e-12)


def test_rate_curve_points_equal_rate_of_convergence_bit_for_bit():
    """tau = 0, the boundary tau*, real, complex and unstable points, three l each."""
    alpha, x0, m, b, kappa = 0.7, 10.0, 2.0, 20.0, 1.3
    ls = [0.9, 1.0, 1.1]
    taus = [0.0, optimal_delay(3.5, kappa=kappa)] + list(np.linspace(0.002, 0.6, 300))
    pts = rate_curve(alpha, x0, m, b, ls, taus, kappa=kappa)
    assert [(p.l, p.tau) for p in pts] == [(l, t) for l in ls for t in taus]
    seen = set()
    for p in pts:
        beta = beta_star(alpha, x0, m, b, p.l)
        try:
            res = rate_of_convergence(beta, p.tau, kappa=kappa)
        except UnstableRegimeError:
            assert p.branch == "unstable" and math.isnan(p.rate)
            seen.add("unstable")
            continue
        assert p.rate.hex() == res.dominant.hex() and p.branch == res.branch
        seen.add("zero" if p.tau == 0.0 else p.branch)
    assert seen == {"zero", "boundary", "real", "complex", "unstable"}


def test_rate_curve_points_hold_the_callers_objects():
    """Each point is a RateCurvePoint of the caller's own l and tau objects, a
    Python float rate and one of the shared branch labels.  The repr of the
    closed-form points (zero delay, the boundary, unstable) is pinned; a
    solved point's last digits follow the root solve, so its repr is held to
    the NamedTuple's format."""
    ls = [0.5, 1.0]
    taus = [0.0, 1.0 / (3.5 * math.e), math.pi / 7, 0.05, 0.2]
    pts = rate_curve(0.7, 10.0, 2.0, 20.0, ls, taus)
    grid = [(l, t) for l in ls for t in taus]
    assert len(pts) == len(grid)
    for p, (l, tau) in zip(pts, grid):
        assert type(p) is RateCurvePoint
        assert p.l is l and p.tau is tau
        assert type(p.rate) is float
        assert any(p.branch is label for label in _LABELS)
        assert repr(p) == f"RateCurvePoint(l={l!r}, tau={tau!r}, rate={p.rate!r}, branch={p.branch!r})"
    closed = "\n".join(repr(p) for p in pts if p.tau in taus[:3])
    assert closed == (
        "RateCurvePoint(l=0.5, tau=0.0, rate=15.652475842498527, branch='real')\n"
        "RateCurvePoint(l=0.5, tau=0.10510841176326924, rate=nan, branch='unstable')\n"
        "RateCurvePoint(l=0.5, tau=0.4487989505128276, rate=nan, branch='unstable')\n"
        "RateCurvePoint(l=1.0, tau=0.0, rate=3.5, branch='real')\n"
        "RateCurvePoint(l=1.0, tau=0.10510841176326924, rate=9.513986399606658, branch='boundary')\n"
        "RateCurvePoint(l=1.0, tau=0.4487989505128276, rate=nan, branch='unstable')"
    )
    assert [p.branch for p in pts if p.tau in taus[3:]] == ["complex", "unstable", "real", "complex"]


def test_rate_curve_behaves_as_the_list_of_its_points():
    ls = [0.5, 1.0]
    taus = [0.0, 1.0 / (3.5 * math.e), math.pi / 7, 0.05, 0.2]
    curve = rate_curve(0.7, 10.0, 2.0, 20.0, ls, taus)
    points = list(curve)

    def key(pts):  # nan rates compare unequal, so points are compared by their objects and bits
        return [(id(p.l), id(p.tau), p.rate.hex(), p.branch) for p in pts]

    assert len(curve) == len(points) == 10
    assert key(curve[i] for i in range(-10, 10)) == key(points + points)
    assert all(type(curve[i]) is RateCurvePoint for i in (0, -1))
    for i in (10, -11):
        with pytest.raises(IndexError):
            curve[i]
    for s in (slice(None), slice(2, 7), slice(None, None, -3), slice(-4, None), slice(20, 30)):
        assert type(curve[s]) is list and key(curve[s]) == key(points[s])
    assert key(curve) == key(points)
    assert repr(curve) == repr(points)


def test_rate_curve_keeps_its_rates_as_arrays():
    """A 3 x 2000 grid keeps at most 16 bytes a point besides the caller's l and
    tau lists: a float64 rate and an int8 branch code, with the l and tau
    values; a list of points kept about 112."""
    ls, taus = [0.9, 1.0, 1.1], np.linspace(0.001, 0.5, 2000).tolist()
    rate_curve(0.7, 10.0, 2.0, 20.0, ls, taus)  # first-call set-up is not kept by the curve
    tracemalloc.start()
    try:
        curve = rate_curve(0.7, 10.0, 2.0, 20.0, ls, taus)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(curve) == 6000
    assert kept <= 16 * len(curve)


def test_rate_curve_matches_lambert_w():
    pts = rate_curve(0.7, 10.0, 2.0, 20.0, [0.8, 1.0, 1.2], np.linspace(0.001, 0.5, 400))
    for p in pts:
        c = 0.7 * 100.0 / 20.0**p.l * p.tau
        if p.branch == "unstable":
            assert c >= math.pi / 2
            continue
        ref = -lambertw(-c, 0).real / p.tau
        assert abs(p.rate - ref) <= 1e-12 * max(ref, 1e-3 / p.tau)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_arguments_are_rejected(bad):
    with pytest.raises(InvalidConfigError, match="finite"):
        rate_of_convergence(2.0, bad)
    with pytest.raises(InvalidConfigError, match="finite"):
        rate_of_convergence(bad, 0.3)
    with pytest.raises(InvalidConfigError, match="finite"):
        rate_of_convergence(2.0, 0.3, kappa=bad)
    with pytest.raises(InvalidConfigError, match="finite"):
        rate_curve(bad, 10.0, 2.0, 20.0, [1.0], [0.1])
    with pytest.raises(InvalidConfigError, match=r"finite.*got 3\.5, " + str(bad)):
        rate_curve(0.7, 10.0, 2.0, 20.0, [1.0], [0.1, bad, 0.2])
    with pytest.raises(InvalidConfigError, match="finite"):
        rate_curve(0.7, 10.0, 2.0, 20.0, [1.0], [0.1], kappa=bad)


def _fail_at(monkeypatch, products):
    """Make the principal-branch solve return W_1, off the principal branch, at these products."""
    original = spectral._principal_uexpu
    targets = -np.array(products)
    monkeypatch.setattr(
        spectral, "_principal_uexpu", lambda p: np.where(np.isin(p, targets), lambertw(p, 1), original(p))
    )


def test_rate_curve_solve_error_names_the_first_failing_point(monkeypatch):
    alpha, x0, m, b, kappa = 0.7, 10.0, 2.0, 20.0, 1.0
    ls, taus = [0.9, 1.0, 1.1], [0.05, 0.1, 0.2]
    # (l=1.1, tau=0.05) precedes (l=1.0, tau=0.2) tau-major, but not l-major.
    late, first = (1.1, 0.05), (1.0, 0.2)
    _fail_at(monkeypatch, [kappa * beta_star(alpha, x0, m, b, l) * t for l, t in (late, first)])
    with pytest.raises(RootSolveError, match=r"principal Lambert-W branch for l=1\.0, beta\*=3\.5, tau=0\.2, kappa=1\.0$"):
        rate_curve(alpha, x0, m, b, ls, taus, kappa=kappa)


def test_rate_of_convergence_solve_error_names_the_callers_point(monkeypatch):
    _fail_at(monkeypatch, [2.0 * 0.3])
    with pytest.raises(RootSolveError, match=r"for beta\*=2\.0, tau=0\.3, kappa=1\.0$"):
        rate_of_convergence(2.0, 0.3)
