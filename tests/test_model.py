"""Core model layer: parameter validation, gains, the vector field, config I/O."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfmlab.errors import (
    DomainBreakdownError,
    InvalidConfigError,
    NegativeVelocityBaseError,
)
from ccfmlab.model import (
    EquilibriumCoefficients,
    LeaderProfile,
    PlatoonConfig,
    PlatoonState,
    VectorField,
    VehicleParams,
    beta_star,
    config_from_dict,
    config_to_dict,
    load_config,
)

from conftest import four_vehicle_platoon, single_follower
from oracles import linear_rhs, power, whole_row_field


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


def test_vehicle_params_validation():
    VehicleParams(alpha=0.5, tau=0.0, b=1.0)  # zero delay is legal
    with pytest.raises(InvalidConfigError):
        VehicleParams(alpha=0.0, tau=0.1, b=1.0)
    with pytest.raises(InvalidConfigError):
        VehicleParams(alpha=0.5, tau=-0.1, b=1.0)
    with pytest.raises(InvalidConfigError):
        VehicleParams(alpha=0.5, tau=0.1, b=0.0)
    with pytest.raises(InvalidConfigError):
        VehicleParams(alpha=math.nan, tau=0.1, b=1.0)


def test_leader_profile_ramp():
    lead = LeaderProfile(v_eq=10.0, ramp=10.0)
    assert lead.velocity(-1.0) == 0.0
    assert lead.velocity(0.0) == 0.0
    assert lead.velocity(0.3) == pytest.approx(10.0 * (1.0 - math.exp(-3.0)), rel=1e-15)
    assert lead.velocity(100.0) == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(InvalidConfigError):
        LeaderProfile(v_eq=-1.0)
    with pytest.raises(InvalidConfigError):
        LeaderProfile(v_eq=10.0, ramp=0.0)


def test_leader_settled_time_brackets_tolerance():
    lead = LeaderProfile(v_eq=10.0, ramp=10.0)
    ts = lead.settled_time(tol=1e-9)
    # tolerance is relative to the cruise speed
    assert abs(lead.velocity(ts) - 10.0) <= 1e-9 * 10.0 * (1.0 + 1e-12)
    assert abs(lead.velocity(0.9 * ts) - 10.0) > 1e-9 * 10.0


@pytest.mark.parametrize("tol", [0.0, 1.0])
def test_leader_settled_time_needs_a_tolerance_inside_the_unit_interval(tol):
    with pytest.raises(InvalidConfigError, match=r"tol must be in \(0, 1\)"):
        LeaderProfile(v_eq=10.0).settled_time(tol)


def test_platoon_config_validation_and_props():
    pc = four_vehicle_platoon()
    assert pc.n == 4
    assert np.allclose(pc.alphas, [0.5, 0.6, 0.7, 0.8])
    assert np.allclose(pc.taus, [0.5, 0.4, 0.4488, 0.3])
    assert np.all(pc.headways == 20.0)
    pc2 = pc.with_kappa(1.3)
    assert pc2.kappa == 1.3 and pc2.vehicles == pc.vehicles
    assert pc.kappa == 1.0  # original untouched
    with pytest.raises(InvalidConfigError):
        PlatoonConfig(vehicles=(), m=2.0, l=1.0, leader=pc.leader)
    with pytest.raises(InvalidConfigError):
        PlatoonConfig(vehicles=pc.vehicles, m=2.0, l=1.0, leader=pc.leader, kappa=0.0)


@pytest.mark.parametrize("m,l", [(2.5, 1.0), (-2.1, 1.0), (2.0, -0.5)])
def test_exponent_bounds_enforced(m, l):
    veh = (VehicleParams(alpha=0.7, tau=0.1, b=20.0),)
    lead = LeaderProfile(v_eq=10.0)
    with pytest.raises(InvalidConfigError):
        PlatoonConfig(vehicles=veh, m=m, l=l, leader=lead)


def test_exponent_bounds_edges_allowed():
    veh = (VehicleParams(alpha=0.7, tau=0.1, b=20.0),)
    lead = LeaderProfile(v_eq=10.0)
    PlatoonConfig(vehicles=veh, m=2.0, l=0.0, leader=lead)
    PlatoonConfig(vehicles=veh, m=-2.0, l=3.0, leader=lead)


def test_platoon_state_vector_roundtrip():
    st_ = PlatoonState(v=np.array([1.0, 2.0]), y=np.array([3.0, 4.0]))
    vec = st_.as_vector()
    assert vec.tolist() == [1.0, 2.0, 3.0, 4.0]
    back = PlatoonState.from_vector(vec)
    assert np.array_equal(back.v, st_.v) and np.array_equal(back.y, st_.y)
    with pytest.raises(InvalidConfigError):
        PlatoonState(v=np.zeros(2), y=np.zeros(3))
    with pytest.raises(InvalidConfigError):
        PlatoonState.from_vector(np.zeros(5))  # odd length
    for v, y in (([0.1, np.nan], [0.0, 0.0]), ([0.1, 0.1], [np.inf, 0.0]), ([-np.inf], [0.0])):
        with pytest.raises(InvalidConfigError, match="finite"):
            PlatoonState(v=np.array(v), y=np.array(y))


def test_uniform_perturbation_defaults():
    st_ = PlatoonState.uniform_perturbation(3)
    assert np.all(st_.v == 0.1) and np.all(st_.y == 0.0)
    st_ = PlatoonState.uniform_perturbation(2, v0=-0.2, y0=0.5)
    assert np.all(st_.v == -0.2) and np.all(st_.y == 0.5)


# ---------------------------------------------------------------------------
# the guarded power kernel
# ---------------------------------------------------------------------------


def test_power_integer_exponents_allow_any_base():
    assert power(-2.0, 3.0) == -8.0
    assert power(-2.0, 2.0) == 4.0
    assert power(-1.5, 0.0) == 1.0
    assert power(0.0, 2.0) == 0.0
    assert power(4.0, 0.5) == 2.0


def test_power_zero_base_negative_exponent_is_domain_breakdown():
    with pytest.raises(DomainBreakdownError) as exc:
        power(0.0, -1.0, t=2.5, pair=3)
    assert exc.value.t == 2.5 and exc.value.pair == 3


def test_power_negative_base_fractional_exponent_raises():
    with pytest.raises(NegativeVelocityBaseError) as exc:
        power(-0.3, 1.5, t=1.25, pair=2)
    err = exc.value
    assert err.t == 1.25 and err.pair == 2
    assert err.value == -0.3 and err.m == 1.5


# ---------------------------------------------------------------------------
# equilibrium gains
# ---------------------------------------------------------------------------


def test_beta_star_reference_values():
    # 0.7 * 10^2 / 20^1
    assert beta_star(0.7, 10.0, 2.0, 20.0, 1.0) == pytest.approx(3.5, rel=1e-15)
    # exponents zero: the gain collapses to the sensitivity coefficient alone
    assert beta_star(0.42, 10.0, 0.0, 20.0, 0.0) == 0.42
    # fractional headway exponent (high-precision decimal evaluation, frozen)
    assert beta_star(0.7, 10.0, 2.0, 20.0, 1.2) == pytest.approx(
        1.9224809507857061, rel=1e-12
    )


@pytest.mark.parametrize(
    "args", [(0.5, 10.0, 2.0, 1.0, math.nan), (0.5, 1.0, math.nan, 20.0, 1.0), (0.5, 1.0, math.inf, 20.0, 1.0), (0.5, math.inf, 0.0, 20.0, 1.0), (0.5, 10.0, 2.0, math.inf, 0.0)]
)
def test_beta_star_requires_finite_arguments(args):
    """A base of 1 or an exponent of 0 would hide a non-finite factor: beta_star(0.5, 10, 2, 1, nan) gave 50."""
    with pytest.raises(InvalidConfigError, match="finite"):
        beta_star(*args)
    assert beta_star(0.5, 1.0, 2.0, 1.0, 1.0) == 0.5  # bases of 1 with finite exponents stand


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((0.7, 1e300, 2.0, 20.0, 1.0), "x0dot**m or b**l overflows at x0dot = 1e+300, m = 2.0, b = 20.0, l = 1.0"),
        ((0.7, 10.0, 2.0, 1e300, 2.0), "x0dot**m or b**l overflows at x0dot = 10.0, m = 2.0, b = 1e+300, l = 2.0"),
        ((0.7, 10.0, 2.0, 1e-5, 100.0), "b**l underflows to 0 at x0dot = 10.0, m = 2.0, b = 1e-05, l = 100.0"),
        ((1.0, 1e200, 1.0, 1e-200, 1.0), "x0dot**m / b**l overflows at x0dot = 1e+200, m = 1.0, b = 1e-200, l = 1.0"),
        ((1.0, 1e300, -2.0, 20.0, 1.0), "x0dot**m / b**l underflows to 0 at x0dot = 1e+300, m = -2.0, b = 20.0, l = 1.0"),
        ((1.0, 1e-200, 1.0, 1e200, 1.0), "x0dot**m / b**l underflows to 0 at x0dot = 1e-200, m = 1.0, b = 1e+200, l = 1.0"),
    ],
    ids=["x0dot-power", "b-power", "b-power-underflow", "quotient-overflow", "x0dot-power-underflow", "quotient-underflow"],
)
def test_beta_star_rejects_an_overflowing_power(args, message):
    """Python's float ** raises OverflowError where numpy's gives inf: x0dot**m or b**l past the doubles is a
    configuration error.  A b**l that underflows to 0 would divide by zero, and is one too.  Float / raises
    neither, so a quotient x0dot**m / b**l of inf or 0 is named the same way: it gave beta* = inf or 0."""
    with pytest.raises(InvalidConfigError, match=rf"^{re.escape(message)}$"):
        beta_star(*args)


@given(
    alpha=st.floats(0.01, 5.0),
    x0dot=st.floats(0.5, 40.0),
    m=st.floats(-2.0, 2.0),
    b=st.floats(0.5, 60.0),
    l=st.floats(0.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_beta_star_positive(alpha, x0dot, m, b, l):
    assert beta_star(alpha, x0dot, m, b, l) > 0.0


def test_equilibrium_coefficients_from_config(platoon_config):
    eq = EquilibriumCoefficients.from_config(platoon_config)
    assert np.allclose(eq.beta, [2.5, 3.0, 3.5, 4.0], rtol=1e-14)
    assert np.allclose(eq.products, [1.25, 1.2, 1.5708, 1.2], rtol=1e-12)
    slower = dataclasses.replace(platoon_config, leader=dataclasses.replace(platoon_config.leader, v_eq=5.0))
    eq5 = EquilibriumCoefficients.from_config(slower)
    # halving operating speed quarters each gain (m = 2)
    assert np.allclose(eq5.beta, np.asarray(eq.beta) / 4.0, rtol=1e-13)


# ---------------------------------------------------------------------------
# the vector field
# ---------------------------------------------------------------------------


def _eval(pc, t, state, delayed_rows):
    """One config through the batched field: flat rows in, flat derivative out."""
    out, failures = whole_row_field(VectorField(pc), t, np.asarray(state)[None], np.asarray(delayed_rows)[None])
    return out[0], failures


def test_zero_state_is_equilibrium(platoon_config):
    zero = np.zeros(8)
    for t in (0.0, 0.05, 1.0, 37.2):
        out, failures = _eval(platoon_config, t, zero, [zero] * 4)
        assert out.shape == (8,) and np.all(out == 0.0) and failures == {}


def test_first_pair_has_no_incoming_coupling():
    """Vehicle 1's acceleration depends only on its own delayed state."""
    pc = four_vehicle_platoon(taus=(0.2, 0.3, 0.25, 0.3))
    rng = np.random.default_rng(7)
    now = rng.normal(size=8) * 0.1
    delayed = [rng.normal(size=8) * 0.1 for _ in range(4)]
    t = 8.0
    vdot = _eval(pc, t, now, delayed)[0][:4]
    # hand evaluation of the self term of pair 1 at the delayed instant
    td = t - 0.2
    x0d = 10.0 * (1.0 - math.exp(-10.0 * td))
    speed = x0d - delayed[0][0]
    head = delayed[0][4] + 20.0
    beta1 = 0.5 * speed**2 / head
    assert vdot[0] == pytest.approx(-beta1 * delayed[0][0], rel=1e-13)


def test_rhs_matches_linearization_to_second_order():
    pc = four_vehicle_platoon()
    eq = EquilibriumCoefficients.from_config(pc)
    rng = np.random.default_rng(11)
    dv = rng.normal(size=4)
    dy = rng.normal(size=4)
    t = 12.0  # leader ramp fully settled

    def gap(h):
        row = np.concatenate([h * dv, h * dy])
        vdot_nl = _eval(pc, t, row, [row] * 4)[0][:4]
        vdot_lin, _ = linear_rhs(pc, eq, h * dv, h * dv, np.roll(h * dv, 1))
        return float(np.linalg.norm(vdot_nl - vdot_lin))

    h = 1e-3
    e1, e2 = gap(h), gap(h / 2.0)
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)  # quadratic remainder


@pytest.mark.parametrize("m", [-1.0, 0.0, 1.5, 2.0])
@pytest.mark.parametrize("base", [-0.1, 0.0, 0.1])
def test_field_and_power_share_the_domain_rules(m, base):
    """The field reports an error where power raises, and otherwise uses its value."""
    pc = PlatoonConfig(
        vehicles=(VehicleParams(alpha=0.7, tau=0.3, b=20.0),),
        m=m, l=1.0, leader=LeaderProfile(v_eq=10.0),
    )
    # t - tau < 0: the leader is at rest, so the speed base is -v_1 = base
    row = np.array([0.0 - base, 0.0])
    t, td = 0.1, 0.1 - 0.3
    out, failures = _eval(pc, t, row, [row])
    try:
        expected = power(base, m, t=td, pair=1)
    except (DomainBreakdownError, NegativeVelocityBaseError) as exc:
        got = failures[0]
        assert type(got) is type(exc) and str(got) == str(exc)
        assert got.t == td and got.pair == 1 and got.value == base
        return
    assert failures == {}
    assert out[0] == -(0.7 * expected / 20.0**1.0 * row[0])


def test_field_with_one_time_per_row_equals_one_call_per_row():
    """flux_rows with one time per row gives, for rows before t = 0, on the leader ramp and past it, the
    v-rows of one whole-row call per row, bit for bit, and each member's error at its first failing row."""
    pcs = [four_vehicle_platoon(kappa=k) for k in (1.0, 1.3)]
    field = VectorField(*pcs)
    times = np.array([-0.2, 0.1, 0.35, 1.0, 3.0, field._settled, 50.0])
    assert times[0] < 0.0 < times[3] - field.tau.max() and times[4] < field._settled == times[5]  # rest, ramp, settled
    rng = np.random.default_rng(3)
    state = rng.normal(size=(2, times.size, 8)) * 0.1
    delayed = rng.normal(size=(2, times.size, 4, 8)) * 0.1
    delayed[:, 0, :, :4] = -0.05  # the leader is at rest before t = 0: keep the speed bases positive
    delayed[1, 4, 2, 6] = -25.0  # member 1 leaves the domain at row 4 (pair 3), then at row 5 (pair 1)
    delayed[1, 5, 0, 4] = -21.0
    observed = field.pair_observables(delayed)
    out, failures = field.flux_rows(times, *observed)
    assert out.shape == (2, times.size, 4) and list(failures) == [1]
    for r, t in enumerate(times.tolist()):
        want, want_failures = whole_row_field(field, t, state[:, r], delayed[:, r])
        assert np.array_equal(out[:, r], want[:, :4])
        if r == 4:
            got, exp = failures[1], want_failures[1]
            assert type(got) is type(exp) and str(got) == str(exp) and (got.t, got.pair, got.value) == (exp.t, exp.pair, exp.value)
    scalar, _ = field.flux_rows(50.0, *observed)  # one scalar time serves every row
    assert np.array_equal(scalar[:, -1], out[:, -1])


def test_headway_rows_are_the_fields_y_rows():
    """The headway rows of (B, R, N) speeds equal the y-rows of a (B, R) call, bit for bit, for any further axes."""
    pcs = [four_vehicle_platoon(kappa=k) for k in (0.7, 1.0, 1.3)]
    field = VectorField(*pcs)
    rng = np.random.default_rng(5)
    state = rng.normal(size=(3, 6, 8)) * 0.1
    delayed = rng.normal(size=(3, 6, 4, 8)) * 0.1
    out, failures = whole_row_field(field, np.linspace(0.0, 5.0, 6), state, delayed)
    assert not failures
    rows = field.headway_rows(state[..., :4])
    assert rows.shape == (3, 6, 4) and np.array_equal(rows, out[..., 4:])
    assert np.array_equal(np.signbit(rows), np.signbit(out[..., 4:]))
    stages = field.headway_rows(state[..., :4].reshape(3, 2, 3, 4))  # a block's (B, K, S, N) stages
    assert np.array_equal(stages.reshape(3, 6, 4), out[..., 4:])


def test_flux_rows_are_the_fields_v_rows():
    """flux_rows of the pair observables gives the v-rows and the failures of the whole-row field, bit for bit, on (B, R) rows and a block's (B, K, S) rows."""
    pcs = [four_vehicle_platoon(kappa=k) for k in (0.7, 1.0, 1.3)]
    field = VectorField(*pcs)
    rng = np.random.default_rng(7)
    times = np.array([-0.2, 0.1, 0.35, 1.0, 3.0, 50.0])  # rest, ramp and settled leader
    state = rng.normal(size=(3, 6, 8)) * 0.1
    delayed = rng.normal(size=(3, 6, 4, 8)) * 0.1
    delayed[:, 0, :, :4] = -0.05  # the leader is at rest before t = 0: keep the speed bases positive
    out, failures = whole_row_field(field, times, state, delayed)
    rows, row_failures = field.flux_rows(times, *field.pair_observables(delayed))
    assert not failures and not row_failures
    assert rows.shape == (3, 6, 4) and np.array_equal(rows, out[..., :4])
    assert np.array_equal(np.signbit(rows), np.signbit(out[..., :4]))
    block = delayed.reshape(3, 2, 3, 4, 8)  # a block's (B, K, S, N, 2N) rows
    observed = [x.reshape(3, -1, 4) for x in field.pair_observables(block)]  # (B, K, S, N), as (B, K*S, N)
    rows, _ = field.flux_rows(times, *observed)
    assert np.array_equal(rows.reshape(3, 2, 3, 4), out[..., :4].reshape(3, 2, 3, 4))
    delayed[1, 4, 2, 6] = -25.0  # member 1 leaves the domain at row 4 (pair 3), then at row 5 (pair 1)
    delayed[1, 5, 0, 4] = -21.0
    delayed[2, 2, 1, 5] = -20.0  # member 2 leaves the domain at row 2, pair 2: a headway of exactly 0
    out, failures = whole_row_field(field, times, state, delayed)
    rows, row_failures = field.flux_rows(times, *field.pair_observables(delayed))
    assert list(failures) == list(row_failures) == [1, 2]
    for b, got in row_failures.items():
        want = failures[b]
        assert type(got) is type(want) and str(got) == str(want)
        assert (got.t, got.pair, got.value) == (want.t, want.pair, want.value)
    assert np.array_equal(rows, out[..., :4])


def test_the_pair_observables_are_each_pairs_sum_speed_and_headway():
    """pair_observables reads pair i's S_i = v_1 + ... + v_i (added in turn), v_i and y_i of its own row, and flux_rows of those is the whole-row field's v-rows, bit for bit."""
    pcs = [four_vehicle_platoon(kappa=k) for k in (0.7, 1.0, 1.3)]
    field = VectorField(*pcs)
    rng = np.random.default_rng(11)
    times = np.array([-0.2, 0.1, 0.35, 1.0, 3.0, 50.0])  # rest, ramp and settled leader
    delayed = rng.normal(size=(3, 6, 4, 8)) * 0.1
    delayed[:, 0, :, :4] = -0.05  # the leader is at rest before t = 0: keep the speed bases positive
    state = rng.normal(size=(3, 6, 8)) * 0.1
    sums, own, dev = field.pair_observables(delayed)
    for b, r, i in np.ndindex(3, 6, 4):
        row = delayed[b, r, i].tolist()
        total = row[0]
        for x in row[1 : i + 1]:
            total += x
        assert (sums[b, r, i], own[b, r, i], dev[b, r, i]) == (total, row[i], row[4 + i])
    for t in (times, 50.0):
        got, failures = field.flux_rows(t, sums, own, dev)
        want, want_failures = whole_row_field(field, t, state, delayed)
        assert not failures and not want_failures
        assert np.array_equal(got, want[..., :4]) and np.array_equal(np.signbit(got), np.signbit(want[..., :4]))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_the_observables_of_complex_rows_are_those_of_their_parts(n):
    """pair_observables of complex rows has, as its real and imaginary parts, the observables of
    those parts taken apart, bit for bit, on any leading axes."""
    field = VectorField(PlatoonConfig(tuple(VehicleParams(0.5, 0.3, 20.0) for _ in range(n)), 2.0, 1.0, LeaderProfile(10.0)))
    rng = np.random.default_rng(17 + n)
    for lead in ((), (5,), (3, 2, 4)):
        rows = rng.normal(size=lead + (n, 2 * n)) + 1j * rng.normal(size=lead + (n, 2 * n))
        got = field.pair_observables(rows)
        for part, take in ((rows.real, np.real), (rows.imag, np.imag)):
            for x, want in zip(got, field.pair_observables(part)):
                assert x.shape == lead + (n,) and np.iscomplexobj(x)
                assert np.array_equal(take(x), want) and np.array_equal(np.signbit(take(x)), np.signbit(want))


def test_a_scalar_time_reads_the_leader_as_a_time_per_row():
    field = VectorField(four_vehicle_platoon())
    delayed = np.random.default_rng(3).normal(size=(1, 5, 4, 8)) * 0.1
    observed = field.pair_observables(delayed)
    for t in (0.1, 0.5, 50.0, math.inf):  # ramping, then settled
        rows, failures = field.flux_rows(t, *observed)
        want, _ = field.flux_rows(np.full(5, t), *observed)
        assert not failures and np.array_equal(rows, want)


def _rest_platoons():
    """Platoons of 1-8 vehicles over exponents that drop the speed, the headway or both, and with zero delays."""
    rng = np.random.default_rng(14)
    exponents = ((2.0, 1.0), (0.0, 1.0), (2.0, 0.0), (0.0, 0.0), (-1.0, 1.5), (0.5, 0.5), (1.5, 2.0), (1.0, 1.0))
    configs = [four_vehicle_platoon(taus=(0.5, 0.0, 0.4488, 0.3), kappa=1.7)]
    for k in range(16):
        n = 1 + k % 8
        taus = rng.uniform(0.1, 1.0, n) * (rng.uniform(size=n) > 0.2)
        vehicles = tuple(
            VehicleParams(float(a), float(t), float(b))
            for a, t, b in zip(rng.uniform(0.2, 1.5, n), taus, rng.uniform(10.0, 30.0, n))
        )
        m, l = exponents[k % len(exponents)]
        configs.append(PlatoonConfig(vehicles, m, l, LeaderProfile(float(rng.uniform(5.0, 20.0))), float(rng.uniform(0.5, 2.0))))
    return configs


def test_rest_quotients_are_the_quotients_of_single_probes():
    """rest_quotients sweeps the slots in two probes per column; each quotient
    must be the one a probe of its slot alone gives, bit for bit, and no
    nonzero quotient may be missed."""
    for pc in _rest_platoons():
        field = VectorField(pc)
        n, size = pc.n, 2 * pc.n
        h = 2.0**-60 * min(pc.leader.v_eq, min(veh.b for veh in pc.vehicles))
        slots = (n + 1) * size
        probes = h * np.eye(slots).reshape(slots, n + 1, size)
        out, failures = whole_row_field(field, math.inf, probes[:, 0], probes[:, 1:])
        want = (out / h).reshape(n + 1, size, size)  # [slot, column, row]
        (slot, col, row, value), got_failures = field.rest_quotients(h)
        assert not failures and not got_failures
        got = np.zeros_like(want)
        got[slot, col, row] = value
        assert np.array_equal(got, want), (n, pc.m, pc.l)
        assert np.count_nonzero(value) == value.size == np.count_nonzero(want)


def test_field_rejects_batches_that_do_not_share_the_delays():
    pc = four_vehicle_platoon()
    VectorField(pc, pc.with_kappa(2.0))  # kappa may differ
    with pytest.raises(InvalidConfigError):
        VectorField()
    with pytest.raises(InvalidConfigError):
        VectorField(pc, four_vehicle_platoon(taus=(0.5, 0.4, 0.4488, 0.31)))
    with pytest.raises(InvalidConfigError):
        VectorField(pc, four_vehicle_platoon(l=0.0))
    with pytest.raises(InvalidConfigError):
        VectorField(single_follower(), single_follower(tau=0.2))


def test_linear_rhs_structure():
    pc = four_vehicle_platoon()
    eq = EquilibriumCoefficients.from_config(pc)
    vdot, ydot = linear_rhs(pc, eq, np.zeros(4), np.zeros(4), np.zeros(4))
    assert np.all(vdot == 0.0) and np.all(ydot == 0.0)
    # unit impulse on v_1's delayed value: damps pair 1, feeds pair 2
    v_self = np.array([1.0, 0.0, 0.0, 0.0])
    v_pred = np.array([0.0, 1.0, 0.0, 0.0])
    vdot, _ = linear_rhs(pc, eq, np.zeros(4), v_self, v_pred)
    assert vdot[0] == pytest.approx(-2.5) and vdot[1] == pytest.approx(2.5)
    assert np.all(vdot[2:] == 0.0)


def test_kappa_scales_both_equation_blocks(critical_config):
    pc = critical_config.with_kappa(1.7)
    row = np.array([0.1, 0.05])
    vdot1, ydot1 = _eval(critical_config, 5.0, row, [row])[0]
    vdot2, ydot2 = _eval(pc, 5.0, row, [row])[0]
    assert np.allclose(vdot2, 1.7 * vdot1, rtol=1e-14)
    assert np.allclose(ydot2, 1.7 * ydot1, rtol=1e-14)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _sample_dict():
    return {
        "N": 2,
        "vehicles": [
            {"alpha": 0.5, "tau": 0.2, "b": 15.0},
            {"alpha": 0.8, "tau": 0.35, "b": 25.0},
        ],
        "m": 1.5,
        "l": 0.8,
        "leader": {"v_eq": 12.0, "ramp": 8.0},
        "kappa": 1.1,
    }


def test_config_dict_roundtrip_exact():
    data = _sample_dict()
    assert config_to_dict(config_from_dict(data)) == data


def test_config_dict_defaults():
    data = _sample_dict()
    del data["kappa"]
    del data["leader"]["ramp"]
    pc = config_from_dict(data)
    assert pc.kappa == 1.0 and pc.leader.ramp == 10.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("N"),
        lambda d: d.pop("vehicles"),
        lambda d: d.pop("leader"),
        lambda d: d.update(N=3),
        lambda d: d.update(N=2.0),
        lambda d: d.update(N=True),
        lambda d: d.update(extra=1),
        lambda d: d["vehicles"][0].pop("tau"),
        lambda d: d["vehicles"][1].update(speed=3),
        lambda d: d["leader"].pop("v_eq"),
        lambda d: d["leader"].update(accel=2),
        lambda d: d.update(m="2"),
        lambda d: d.update(l=True),
        lambda d: d.update(vehicles=[]),
    ],
)
def test_config_dict_rejects_malformed(mutate):
    data = _sample_dict()
    mutate(data)
    with pytest.raises(InvalidConfigError):
        config_from_dict(data)


def test_config_from_dict_needs_an_object():
    with pytest.raises(InvalidConfigError, match=r"^config must be a JSON object, got list$"):
        config_from_dict([])


def test_load_config_file(tmp_path):
    path = tmp_path / "platoon.json"
    path.write_text(json.dumps(_sample_dict()))
    pc = load_config(str(path))
    assert pc.n == 2 and pc.vehicles[1].tau == 0.35
    with pytest.raises(InvalidConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidConfigError):
        load_config(str(bad))


def test_single_follower_builder_has_threshold_product(critical_config):
    eq = EquilibriumCoefficients.from_config(critical_config)
    assert eq.products[0] == pytest.approx(math.pi / 2.0, rel=1e-15)
