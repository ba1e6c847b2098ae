"""Core model layer: parameter validation, gains, the vector field, config I/O."""

import json
import math

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
    power,
)

from conftest import four_vehicle_platoon, single_follower
from oracles import linear_rhs


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
    assert eq.x0dot == 10.0
    eq5 = EquilibriumCoefficients.from_config(platoon_config, x0dot=5.0)
    # halving operating speed quarters each gain (m = 2)
    assert np.allclose(eq5.beta, np.asarray(eq.beta) / 4.0, rtol=1e-13)


# ---------------------------------------------------------------------------
# the vector field
# ---------------------------------------------------------------------------


def test_zero_state_is_equilibrium(platoon_config):
    field = VectorField(platoon_config)
    zero = np.zeros(8)
    for t in (0.0, 0.05, 1.0, 37.2):
        out = field(t, zero, [zero] * 4)
        assert out.shape == (8,) and np.all(out == 0.0)


def test_first_pair_has_no_incoming_coupling():
    """Vehicle 1's acceleration depends only on its own delayed state."""
    pc = four_vehicle_platoon(taus=(0.2, 0.3, 0.25, 0.3))
    rng = np.random.default_rng(7)
    now = rng.normal(size=8) * 0.1
    delayed = [rng.normal(size=8) * 0.1 for _ in range(4)]
    t = 8.0
    vdot = VectorField(pc)(t, now, delayed)[:4]
    # hand evaluation of the self term of pair 1 at the delayed instant
    td = t - 0.2
    x0d = 10.0 * (1.0 - math.exp(-10.0 * td))
    speed = x0d - delayed[0][0]
    head = delayed[0][4] + 20.0
    beta1 = 0.5 * speed**2 / head
    assert vdot[0] == pytest.approx(-beta1 * delayed[0][0], rel=1e-13)


def test_rhs_matches_linearization_to_second_order():
    pc = four_vehicle_platoon()
    field = VectorField(pc)
    eq = EquilibriumCoefficients.from_config(pc)
    rng = np.random.default_rng(11)
    dv = rng.normal(size=4)
    dy = rng.normal(size=4)
    t = 12.0  # leader ramp fully settled

    def gap(h):
        row = np.concatenate([h * dv, h * dy])
        vdot_nl = field(t, row, [row] * 4)[:4]
        vdot_lin, _ = linear_rhs(pc, eq, h * dv, h * dv, np.roll(h * dv, 1))
        return float(np.linalg.norm(vdot_nl - vdot_lin))

    h = 1e-3
    e1, e2 = gap(h), gap(h / 2.0)
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)  # quadratic remainder


@pytest.mark.parametrize("m", [-1.0, 0.0, 1.5, 2.0])
@pytest.mark.parametrize("base", [-0.1, 0.0, 0.1])
def test_field_and_power_share_the_domain_rules(m, base):
    """The field raises where power raises, and otherwise uses its value."""
    pc = PlatoonConfig(
        vehicles=(VehicleParams(alpha=0.7, tau=0.3, b=20.0),),
        m=m, l=1.0, leader=LeaderProfile(v_eq=10.0),
    )
    # t - tau < 0: the leader is at rest, so the speed base is -v_1 = base
    row = np.array([0.0 - base, 0.0])
    t, td = 0.1, 0.1 - 0.3
    try:
        expected = power(base, m, t=td, pair=1)
    except (DomainBreakdownError, NegativeVelocityBaseError) as exc:
        with pytest.raises(type(exc)) as got:
            VectorField(pc)(t, row, [row])
        assert got.value.t == td and got.value.pair == 1 and got.value.value == base
        return
    assert VectorField(pc)(t, row, [row])[0] == -(0.7 * expected / 20.0**1.0 * row[0])


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
    vdot1, ydot1 = VectorField(critical_config)(5.0, row, [row])
    vdot2, ydot2 = VectorField(pc)(5.0, row, [row])
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
