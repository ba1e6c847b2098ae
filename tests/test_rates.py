"""Decay-rate computations.

The rate module reads the decay rate off the complex dominant root; the
oracle in ``oracles.py`` solves the real branch equations by safeguarded
Newton iteration.  The two routes share no solver code, so their agreement is
the primary correctness check here, alongside frozen values from the Lambert
W function.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccfmlab.errors import InvalidConfigError, UnstableRegimeError
from ccfmlab.rates import (
    optimal_delay,
    peak_rate,
    rate_curve,
    rate_of_convergence,
)
from ccfmlab.spectral import dominant_root

from oracles import branch_rate

E_INV = 1.0 / math.e


# ---------------------------------------------------------------------------
# equivalence of the two independent routes
# ---------------------------------------------------------------------------


@given(c=st.floats(0.01, 1.5), tau=st.floats(0.05, 2.0))
@settings(max_examples=200, deadline=None)
def test_rate_equals_negated_real_part_of_dominant_root(c, tau):
    assume(abs(c - E_INV) > 1e-10)
    beta = c / tau
    res = rate_of_convergence(beta, tau)
    lam = dominant_root(beta, tau, verify=False).lam
    assert res.dominant == pytest.approx(-lam.real, rel=1e-8)
    assert res.dominant == pytest.approx(branch_rate(res.product, tau), rel=1e-8)


@pytest.mark.parametrize("tau", [1e-4, 0.3])
def test_rate_matches_branch_equations_on_a_dense_grid(tau):
    """Products k*(pi/2)/2000 for k = 1..1999, away from the boundary 1/e.

    At tau = 1e-4 the roots reach |lambda| ~ 1.6e4, beyond what the absolute
    residual bound of 1e-12 in dominant_root admits; the rate must still come
    out.
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
    assert res.branch == "real" and res.regime == "below"
    assert res.sigma2 * 0.03 == pytest.approx(0.11817081536005551, rel=1e-12)
    assert res.dominant == res.sigma2
    assert res.sigma3 is None

    # oscillatory branch: product 1.0
    res = rate_of_convergence(2.0, 0.5)
    assert res.branch == "complex" and res.regime == "above"
    assert res.sigma2 is None
    lam = dominant_root(2.0, 0.5).lam
    assert res.sigma3 == pytest.approx(-lam.real, rel=1e-10)
    assert res.sigma3 == pytest.approx(branch_rate(1.0, 0.5), rel=1e-10)
    assert res.dominant == res.sigma3


def test_zero_delay_rate_is_the_gain():
    res = rate_of_convergence(3.5, 0.0)
    assert res.dominant == 3.5 and res.branch == "real"
    res = rate_of_convergence(3.5, 0.0, kappa=2.0)
    assert res.dominant == pytest.approx(7.0, rel=1e-15)


def test_boundary_triple_coincidence():
    # at tau* all three branch equations admit sigma = 1/tau
    beta = 3.5
    ts = optimal_delay(beta)
    res = rate_of_convergence(beta, ts)
    assert res.branch == "boundary" and res.regime == "at"
    assert res.sigma1 == pytest.approx(1.0 / ts, rel=1e-12)
    assert res.sigma1 == res.sigma2 == res.sigma3 == res.dominant
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


def test_tau_star_and_regime_fields():
    beta = 3.5
    ts = optimal_delay(beta)
    assert rate_of_convergence(beta, 0.5 * ts).tau_star == pytest.approx(ts, rel=1e-14)
    assert rate_of_convergence(beta, 0.5 * ts).regime == "below"
    assert rate_of_convergence(beta, 2.0 * ts).regime == "above"


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
