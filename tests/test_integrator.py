"""History-aware integration: schemes, convergence orders, settling and
amplitude diagnostics, CSV output.

The matrix-exponential check exploits that m = l = 0 makes the full model
exactly linear and autonomous, so scipy.linalg.expm gives the true solution
of the zero-delay system to machine precision.
"""

import csv
import math

import numpy as np
import pytest
import scipy.linalg

from ccfmlab.errors import DomainBreakdownError, InvalidConfigError, NumericalError
from ccfmlab.integrate import (
    SimConfig,
    Trajectory,
    amplitude_envelope,
    settling_time,
    simulate,
    simulate_batch,
    write_trajectory_csv,
)
from ccfmlab.model import (
    LeaderProfile,
    PlatoonConfig,
    PlatoonState,
    VectorField,
    VehicleParams,
    beta_star,
)

from conftest import four_vehicle_platoon, single_follower
from oracles import reference_simulate


def _perturb(n, v0=0.1, y0=0.0):
    return PlatoonState.uniform_perturbation(n, v0=v0, y0=y0)


# ---------------------------------------------------------------------------
# basic contract
# ---------------------------------------------------------------------------


def test_simulation_grid_and_shapes(critical_config):
    traj = simulate(critical_config, SimConfig(step=0.02, horizon=4.0), _perturb(1))
    assert traj.t[0] == 0.0
    assert traj.states.shape == (len(traj.t), 2)
    assert np.allclose(np.diff(traj.t), 0.02, rtol=1e-12)
    assert traj.t[-1] == pytest.approx(4.0, abs=1e-9)
    st0 = traj.state_at(0)
    assert st0.v[0] == 0.1 and st0.y[0] == 0.0


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_simulation_bit_for_bit_reproducible(platoon_config, method):
    sc = SimConfig(step=0.05, horizon=20.0, method=method)
    a = simulate(platoon_config, sc, _perturb(4))
    b = simulate(platoon_config, sc, _perturb(4))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.t, b.t)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_zero_perturbation_stays_at_equilibrium(platoon_config, method):
    sc = SimConfig(step=0.05, horizon=10.0, method=method)
    traj = simulate(platoon_config, sc, _perturb(4, v0=0.0, y0=0.0))
    assert np.all(traj.states == 0.0)


def test_step_larger_than_smallest_delay_rejected(platoon_config):
    with pytest.raises(InvalidConfigError):
        simulate(platoon_config, SimConfig(step=0.35, horizon=10.0), _perturb(4))
    # exactly the smallest delay is allowed
    simulate(platoon_config, SimConfig(step=0.3, horizon=3.0), _perturb(4))


def test_sim_config_validation():
    with pytest.raises(InvalidConfigError):
        SimConfig(step=0.0)
    with pytest.raises(InvalidConfigError):
        SimConfig(step=0.1, horizon=0.05)
    with pytest.raises(InvalidConfigError):
        SimConfig(method="rk2")


def test_blow_up_raises_numerical_error():
    pc = single_follower(kappa=400.0)
    with pytest.raises(NumericalError):
        simulate(pc, SimConfig(step=0.01, horizon=300.0), _perturb(1))


def test_negative_integer_m_at_zero_speed_is_domain_breakdown():
    """At t = 0 the leader is at rest and v = 0, so the speed base is 0 and 0**-1 is undefined."""
    pc = PlatoonConfig(
        vehicles=(VehicleParams(alpha=0.7, tau=0.3, b=20.0),),
        m=-1.0, l=1.0, leader=LeaderProfile(v_eq=10.0),
    )
    with pytest.raises(DomainBreakdownError) as exc:
        simulate(pc, SimConfig(step=0.01, horizon=1.0), _perturb(1, v0=0.0))
    assert exc.value.pair == 1 and exc.value.t == pytest.approx(-0.3)
    assert exc.value.quantity == "speed" and str(exc.value).startswith("speed base of pair 1 = 0 ")


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_simulate_evaluates_the_model_vector_field(monkeypatch, method):
    """A constant field moves one step by h times that constant."""
    monkeypatch.setattr(VectorField, "__call__", lambda self, t, state, rows: (np.full(state.shape, 3.0), {}))
    pc = four_vehicle_platoon()
    traj = simulate(pc, SimConfig(step=0.01, horizon=0.01, method=method), _perturb(4))
    expected = np.concatenate([np.full(4, 0.1), np.zeros(4)]) + 0.01 * 3.0
    assert np.allclose(traj.states[1], expected, rtol=1e-15, atol=1e-17)


def _zero_delay_pair():
    """A zero-delay pair followed by a delayed one: the first reads its current stage state."""
    vehicles = (VehicleParams(alpha=0.6, tau=0.0, b=20.0), VehicleParams(alpha=0.7, tau=0.3, b=20.0))
    return PlatoonConfig(vehicles=vehicles, m=2.0, l=1.0, leader=LeaderProfile(v_eq=10.0))


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize(
    "pc", [single_follower(kappa=1.01), four_vehicle_platoon(), _zero_delay_pair()], ids=["single", "platoon", "tau0"]
)
def test_simulate_matches_the_scalar_reference_engine(pc, method):
    """The batched engine against the per-pair scalar engine it replaced.

    Its Hermite weights come from c - tau/h once per run, not from
    k + c - tau/h at every step, and numpy's array power may round apart
    from the scalar one, so the two agree to rounding, not bit for bit.
    """
    sc = SimConfig(step=0.01, horizon=20.0, method=method)
    got = simulate(pc, sc, _perturb(pc.n))
    want = reference_simulate(pc, sc, _perturb(pc.n))
    assert np.array_equal(got.t, want.t)
    assert np.max(np.abs(got.states - want.states)) <= 1e-12


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_batch_members_are_bit_identical_to_single_runs(method):
    base = four_vehicle_platoon()
    other = PlatoonConfig(
        vehicles=tuple(VehicleParams(alpha=1.1 * v.alpha, tau=v.tau, b=v.b - 1.0) for v in base.vehicles),
        m=base.m, l=base.l, leader=base.leader, kappa=0.9,
    )
    pcs = [base, base.with_kappa(1.2), other, base.with_kappa(0.7)]
    sc = SimConfig(step=0.02, horizon=30.0, method=method)
    batch = simulate_batch(pcs, sc, _perturb(4, v0=0.2, y0=-0.1))
    assert len(batch) == len(pcs)
    for pc, traj in zip(pcs, batch):
        alone = simulate(pc, sc, _perturb(4, v0=0.2, y0=-0.1))
        assert traj.config is pc and np.array_equal(traj.states, alone.states)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_batch_raises_the_error_of_its_lowest_failing_member(method):
    """Member 1 fails later than member 3; the batch raises member 1's error, as run alone."""
    sc = SimConfig(step=0.01, horizon=20.0, method=method)
    pcs = [single_follower(kappa=k) for k in (1.0, 20.0, 0.5, 400.0)]
    alone = {}
    for i in (1, 3):
        with pytest.raises(NumericalError) as exc:
            simulate(pcs[i], sc)
        alone[i] = exc.value
    assert alone[3].t < alone[1].t
    with pytest.raises(NumericalError) as exc:
        simulate_batch(pcs, sc)
    got, want = exc.value, alone[1]
    assert type(got) is type(want) and str(got) == str(want)
    assert (got.t, got.pair, got.value) == (want.t, want.pair, want.value)


# ---------------------------------------------------------------------------
# convergence orders
# ---------------------------------------------------------------------------


def _endpoint_v(pc, method, h, horizon=4.0):
    traj = simulate(pc, SimConfig(step=h, horizon=horizon, method=method), _perturb(pc.n))
    return traj.v[-1].copy()


def _observed_order(pc, method, h_coarse, h_fine, h_ref=0.0005):
    """Error decay rate against a fine fourth-order reference run."""
    ref = _endpoint_v(pc, "rk4", h_ref)
    e1 = float(np.linalg.norm(_endpoint_v(pc, method, h_coarse) - ref))
    e2 = float(np.linalg.norm(_endpoint_v(pc, method, h_fine) - ref))
    return math.log2(e1 / e2) / math.log2(h_coarse / h_fine)


def test_euler_is_first_order_with_delays():
    pc = single_follower(tau=0.2)  # product 0.7: damped oscillation
    order = _observed_order(pc, "euler", 0.005, 0.0025)
    assert 0.8 <= order <= 1.5


def test_rk4_order_with_delays_at_least_two():
    pc = single_follower(tau=0.2)
    order = _observed_order(pc, "rk4", 0.05, 0.025)
    assert order >= 2.0  # interpolated history; observed ~4 in practice


def test_rk4_order_without_delays_at_least_three_and_half():
    vehicles = tuple(
        VehicleParams(alpha=a, tau=0.0, b=20.0) for a in (0.5, 0.8)
    )
    pc = PlatoonConfig(
        vehicles=vehicles, m=2.0, l=1.0, leader=LeaderProfile(v_eq=10.0), kappa=1.0
    )
    order = _observed_order(pc, "rk4", 0.04, 0.02, h_ref=0.000625)
    assert order >= 3.5


def test_zero_delay_linear_system_matches_matrix_exponential():
    # m = l = 0 freezes every gain at alpha_i: the model is exactly linear.
    alphas = (0.5, 0.7, 0.9)
    vehicles = tuple(VehicleParams(alpha=a, tau=0.0, b=10.0) for a in alphas)
    pc = PlatoonConfig(
        vehicles=vehicles, m=0.0, l=0.0, leader=LeaderProfile(v_eq=10.0), kappa=1.0
    )
    horizon = 10.0
    traj = simulate(pc, SimConfig(step=0.005, horizon=horizon, method="rk4"), _perturb(3))

    n = 3
    a_mat = np.zeros((2 * n, 2 * n))
    for i in range(n):
        a_mat[i, i] = -alphas[i]
        if i > 0:
            a_mat[i, i - 1] = alphas[i - 1]
        a_mat[n + i, i] = 1.0
    x0 = np.concatenate([np.full(n, 0.1), np.zeros(n)])
    exact = scipy.linalg.expm(horizon * a_mat) @ x0
    assert np.linalg.norm(traj.states[-1] - exact) <= 1e-6


# ---------------------------------------------------------------------------
# settling diagnostics
# ---------------------------------------------------------------------------


def _synthetic(v_cols, h=0.01):
    """Single-pair trajectory with prescribed v samples and zero headway."""
    v = np.asarray(v_cols, dtype=float).reshape(-1, 1)
    t = np.arange(v.shape[0]) * h
    states = np.hstack([v, np.zeros_like(v)])
    return Trajectory(
        t=t, states=states, config=single_follower(), sim=SimConfig(step=h, horizon=t[-1] or h)
    )


def test_settling_zero_trajectory_is_immediate(platoon_config):
    traj = simulate(
        platoon_config, SimConfig(step=0.05, horizon=5.0), _perturb(4, v0=0.0)
    )
    rep = settling_time(traj)
    assert rep.per_pair == (0.0, 0.0, 0.0, 0.0)
    assert rep.overall == 0.0


def test_settling_matches_exponential_closed_form():
    h, sigma, amp, eps = 0.01, 0.5, 1.0, 0.05
    t = np.arange(0.0, 12.0 + h / 2, h)
    traj = _synthetic(amp * np.exp(-sigma * t), h=h)
    rep = settling_time(traj, epsilon=eps)
    expected = math.log(amp / eps) / sigma
    assert rep.per_pair[0] == pytest.approx(expected, abs=h + 1e-12)
    assert rep.overall == rep.per_pair[0]


def test_settling_none_when_still_excursioning():
    traj = _synthetic(np.full(200, 0.2))
    rep = settling_time(traj, epsilon=0.05)
    assert rep.per_pair == (None,)
    assert rep.overall is None


def test_settling_counts_the_last_excursion():
    h = 0.01
    v = np.zeros(400)
    v[:100] = 0.5  # early excursion
    v[250] = 0.3  # late spike
    traj = _synthetic(v, h=h)
    rep = settling_time(traj, epsilon=0.05)
    assert rep.per_pair[0] == pytest.approx(251 * h, abs=1e-12)


def test_settling_epsilon_validation(platoon_config):
    traj = simulate(platoon_config, SimConfig(step=0.1, horizon=2.0), _perturb(4))
    with pytest.raises(InvalidConfigError):
        settling_time(traj, epsilon=0.0)


# ---------------------------------------------------------------------------
# amplitude envelope
# ---------------------------------------------------------------------------


def test_envelope_recovers_sinusoid_amplitude():
    h = 0.002
    t = np.arange(0.0, 50.0, h)
    traj = _synthetic(0.37 * np.sin(2.0 * t), h=h)
    rep = amplitude_envelope(traj)
    assert rep.v[0] == pytest.approx(0.37, rel=1e-4)
    assert rep.y[0] == 0.0
    assert rep.max_v == rep.v[0]
    assert rep.t_end - rep.t_start == pytest.approx(12.5, rel=1e-3)


def test_envelope_of_decayed_signal_is_tiny():
    h = 0.01
    t = np.arange(0.0, 40.0, h)
    traj = _synthetic(np.exp(-1.0 * t), h=h)
    rep = amplitude_envelope(traj)
    assert rep.v[0] < 1e-4


def test_envelope_window_validation():
    traj = _synthetic(np.ones(30))
    with pytest.raises(InvalidConfigError):
        amplitude_envelope(traj, tail_fraction=0.1)  # 3-sample window
    with pytest.raises(InvalidConfigError):
        amplitude_envelope(traj, tail_fraction=0.0)
    with pytest.raises(InvalidConfigError):
        amplitude_envelope(traj, tail_fraction=1.5)


# ---------------------------------------------------------------------------
# platoon behavior
# ---------------------------------------------------------------------------


def test_uniform_small_delay_platoon_velocities_decay():
    """With tau = 0.1 everywhere all products are far below the threshold.

    Velocities decay essentially to zero; headway deviations settle on small
    nonzero constants (the equilibrium family is a continuum in y, and the
    leader ramp plus the transient displace the landing point).
    """
    pc = four_vehicle_platoon(taus=(0.1, 0.1, 0.1, 0.1))
    traj = simulate(pc, SimConfig(step=0.01, horizon=60.0), _perturb(4))
    rep = amplitude_envelope(traj)
    assert np.all(rep.v < 1e-10)
    assert np.all(rep.y < 1e-8)  # flat, though not at zero
    final_y = traj.y[-1]
    assert np.all(np.abs(final_y) > 0.01)
    assert np.all(np.abs(final_y) < 0.3)


def test_reference_platoon_two_scheme_amplitude_agreement(platoon_config):
    """Coarse first-order and fine fourth-order runs must tell the same story.

    Tail velocity amplitudes agree within 2% of the larger, or both sit below
    a 1e-4 floor (the marginal pair's oscillation has decayed into the noise
    by the end of this horizon, so the floor clause is what actually binds).
    """
    pert = _perturb(4)
    tr_e = simulate(platoon_config, SimConfig(step=0.01, horizon=300.0), pert)
    tr_r = simulate(
        platoon_config, SimConfig(step=0.001, horizon=300.0, method="rk4"), pert
    )
    amp_e = amplitude_envelope(tr_e).v
    amp_r = amplitude_envelope(tr_r).v
    for ae, ar in zip(amp_e, amp_r):
        big = max(ae, ar)
        assert big < 1e-4 or abs(ae - ar) <= 0.02 * big


def test_settling_comparison_short_versus_long_delays():
    """Delays a factor 9 apart, straddling the rate-optimal value."""
    alphas = (0.5, 0.6, 0.7, 0.8)
    betas = [beta_star(a, 10.0, 2.0, 20.0, 1.0) for a in alphas]
    fast = four_vehicle_platoon(taus=tuple(1.0 / (3.0 * math.e * b) for b in betas))
    slow = four_vehicle_platoon(taus=tuple(3.0 / (math.e * b) for b in betas))
    sc = SimConfig(step=0.01, horizon=60.0)
    rep_fast = settling_time(simulate(fast, sc, _perturb(4)), epsilon=0.2)
    rep_slow = settling_time(simulate(slow, sc, _perturb(4)), epsilon=0.2)
    assert rep_fast.per_pair == (0.0, 0.0, 0.0, 0.0)
    assert rep_slow.overall == pytest.approx(5.75, abs=0.02)
    assert rep_fast.overall < rep_slow.overall


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_trajectory_csv_roundtrip(tmp_path, platoon_config):
    traj = simulate(platoon_config, SimConfig(step=0.1, horizon=2.0), _perturb(4))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t"] + [f"v_{i}" for i in range(1, 5)] + [
        f"y_{i}" for i in range(1, 5)
    ]
    assert len(rows) == 1 + len(traj.t)
    k = len(traj.t) // 2
    parsed = [float(x) for x in rows[1 + k]]
    assert parsed[0] == traj.t[k]
    assert parsed[1:] == traj.states[k].tolist()  # %.17g round-trips exactly
