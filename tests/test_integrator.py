"""History-aware integration: schemes, convergence orders, settling and
amplitude diagnostics, CSV output.

The matrix-exponential check exploits that m = l = 0 makes the full model
exactly linear and autonomous, so scipy.linalg.expm gives the true solution
of the zero-delay system to machine precision.
"""

import csv
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfmlab import _g17
from ccfmlab.errors import DomainBreakdownError, InvalidConfigError, NegativeVelocityBaseError, NumericalError
from ccfmlab.integrate import (
    _CSV_BLOCK_ROWS,
    SimConfig,
    Trajectory,
    amplitude_envelope,
    settling_time,
    settling_times,
    simulate,
    simulate_batch,
    tail_envelopes,
    tail_window,
    write_trajectory_csv,
    _MethodOfSteps,
    _add_sums,
    _observed,
    _run,
)
from ccfmlab.model import (
    LeaderProfile,
    PlatoonConfig,
    PlatoonState,
    VectorField,
    VehicleParams,
    beta_star,
)

from conftest import four_vehicle_platoon, record_slides, single_follower
from oracles import reference_simulate, step_loop_run


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


def test_a_perturbation_of_another_size_is_rejected(platoon_config):
    with pytest.raises(InvalidConfigError, match=r"^perturbation has 3 pairs, config has 4$"):
        simulate(platoon_config, SimConfig(step=0.05, horizon=1.0), _perturb(3))


def test_sim_config_validation():
    with pytest.raises(InvalidConfigError):
        SimConfig(step=0.0)
    with pytest.raises(InvalidConfigError):
        SimConfig(step=0.1, horizon=0.05)
    with pytest.raises(InvalidConfigError):
        SimConfig(method="rk2")


def test_a_step_count_past_the_largest_index_is_rejected():
    """1e302 steps fit no np.intp: the grid and the stored states could not be made."""
    with pytest.raises(InvalidConfigError, match=r"^horizon 1e\+300 is 1e\+302 steps of 0\.01, too many to index$"):
        SimConfig(step=0.01, horizon=1e300)
    with pytest.raises(InvalidConfigError, match="too many to index"):
        SimConfig(step=1e-300, horizon=1e10)  # the ratio overflows to inf


@pytest.mark.parametrize(
    ("horizon", "message"),
    [(1e15, r"^storing 1e\+17 nodes of 8 numbers takes 6\.4e\+18 bytes, too many to allocate$"),
     (1e16, r"^storing 1e\+18 nodes of 8 numbers takes 6\.4e\+19 bytes, too many to allocate$")],
    ids=["past-memory", "past-array-size"],
)
def test_a_run_whose_states_cannot_be_stored_is_rejected(platoon_config, horizon, message):
    """1e17 steps fit an np.intp, but their stored states do not fit memory (1e15) or an array's size (1e16)."""
    with pytest.raises(InvalidConfigError, match=message):
        simulate(platoon_config, SimConfig(step=0.01, horizon=horizon, method="rk4"), _perturb(4))


def test_a_delay_of_more_steps_than_the_largest_index_is_rejected(platoon_config):
    """tau = 0.5 is 5e19 steps of 1e-20, which fit no np.intp.  5e18 steps fit one, but not their history's
    flat offset over rows of 3N - 1 = 11 numbers; 4e17 steps, inside the bound, run."""
    for h, steps in ((1e-20, "5e\\+19"), (1e-19, "5e\\+18")):
        with pytest.raises(InvalidConfigError, match=rf"^the largest delay is {steps} steps of {h:g}, too many to index$"):
            simulate(platoon_config, SimConfig(step=h, horizon=10 * h, method="rk4"), _perturb(4))
    traj = simulate(platoon_config, SimConfig(step=1.25e-18, horizon=1.25e-17, method="rk4"), _perturb(4))
    assert traj.states.shape == (11, 8) and np.all(np.isfinite(traj.states))


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
    monkeypatch.setattr(VectorField, "flux_rows", lambda self, t, sums, own, dev: (np.full(own.shape, 3.0), {}))
    monkeypatch.setattr(VectorField, "headway_rows", lambda self, v: np.full(v.shape, 3.0))
    pc = four_vehicle_platoon()
    traj = simulate(pc, SimConfig(step=0.01, horizon=0.01, method=method), _perturb(4))
    expected = np.concatenate([np.full(4, 0.1), np.zeros(4)]) + 0.01 * 3.0
    assert np.allclose(traj.states[1], expected, rtol=1e-15, atol=1e-17)


def test_zero_speed_base_under_non_integer_m_is_named_as_not_positive():
    """At m = 0.5 with v0 = 0 the pre-history speed base is exactly 0, which the message must not call negative."""
    pc = PlatoonConfig(
        vehicles=(VehicleParams(alpha=0.7, tau=0.3, b=20.0),),
        m=0.5, l=1.0, leader=LeaderProfile(v_eq=10.0),
    )
    with pytest.raises(NegativeVelocityBaseError) as exc:
        simulate(pc, SimConfig(step=0.01, horizon=1.0), _perturb(1, v0=0.0))
    assert exc.value.pair == 1 and exc.value.t == pytest.approx(-0.3) and exc.value.value == 0.0
    assert str(exc.value).startswith("velocity base 0 <= 0 at t = -0.3 ")


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


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_a_trajectory_keeps_no_node_derivatives(method):
    """Each member's states are its own or a view of the batch's states alone, B*(steps + 1)*2N values."""
    pcs = [four_vehicle_platoon(kappa=k) for k in (0.9, 1.0, 1.1)]
    sc = SimConfig(step=0.01, horizon=20.0, method=method)
    for batch in (simulate_batch(pcs, sc), [simulate(pcs[0], sc)]):
        for traj in batch:
            base = traj.states.base
            assert base is None or (base.dtype == np.float64 and base.size == len(batch) * (sc.steps + 1) * 2 * pcs[0].n)


# ---------------------------------------------------------------------------
# block method of steps against the step loop
# ---------------------------------------------------------------------------


def _eight_pairs():
    """Eight pairs with delays in [0.3, 0.6], as in the benchmark's platoon."""
    rng = np.random.default_rng(5)
    taus, bs = rng.uniform(0.3, 0.6, 8), rng.uniform(15.0, 25.0, 8)
    products = rng.uniform(0.1, 1.5, 8)
    vehicles = tuple(
        VehicleParams(alpha=float(c * b / (t * 100.0)), tau=float(t), b=float(b)) for c, t, b in zip(products, taus, bs)
    )
    return PlatoonConfig(vehicles=vehicles, m=2.0, l=1.0, leader=LeaderProfile(v_eq=10.0))


def _slow_start():
    """A 2 s delay and a leader ramp of 50 s: the first blocks read the pre-history and the ramp."""
    vehicles = (VehicleParams(alpha=0.3, tau=2.0, b=20.0), VehicleParams(alpha=0.5, tau=0.3, b=20.0))
    return PlatoonConfig(vehicles=vehicles, m=2.0, l=1.0, leader=LeaderProfile(v_eq=10.0, ramp=0.1))


def _capped():
    """96 gains of the four-pair platoon at h = 0.002: the byte budget, not tau_min/h, sets the block."""
    return [four_vehicle_platoon(kappa=0.85 + 0.0035 * k) for k in range(96)]


_BLOCK_CASES = {
    "single": ([single_follower(kappa=1.01)], 0.01, 20.0),
    "platoon": ([four_vehicle_platoon()], 0.01, 20.0),
    "eight-pairs": ([_eight_pairs()], 0.02, 60.0),
    "tau-over-h-integer": ([single_follower(tau=0.3)], 0.01, 20.0),
    "kappa-batch": ([single_follower(kappa=k) for k in (0.8, 1.0, 1.01, 1.2)], 0.01, 20.0),
    "pre-history-and-ramp": ([_slow_start()], 0.01, 30.0),
    "row-cap": (_capped(), 0.002, 6.0),
    "zero-delay": ([_zero_delay_pair()], 0.01, 20.0),
    "tau-under-two-steps": ([four_vehicle_platoon(taus=(0.5, 0.4, 0.4488, 0.015))], 0.01, 20.0),
    "tau-equals-h": ([four_vehicle_platoon(taus=(0.5, 0.4, 0.4488, 0.01))], 0.01, 20.0),
    "tau-within-slack": ([four_vehicle_platoon(taus=(0.5, 0.4, 0.4488, 0.01 / (1 + 1e-9)))], 0.01, 20.0),
    "zero-delay-and-h": ([four_vehicle_platoon(taus=(0.0, 0.01, 0.4488, 0.3))], 0.01, 20.0),  # rk4's k2 weights node k's derivative, whose v_2 row reads pair 1
}


def _engine(field, h, method, init, steps):
    """An engine whose sink drops what it takes, for its block size and window."""
    return _MethodOfSteps(field, h, method, init, steps, lambda k, rows: None)


def _stored_run(field, h, method, init, steps):
    """``_run`` with every node's state stored through its sink, as simulate_batch stores it: the states and the errors."""
    states = np.full((field.batch, steps + 1, 2 * field.n), np.nan)  # a node the sink never took compares unequal
    errors = _run(field, h, method, init, steps, lambda k, rows: np.copyto(states[:, k : k + rows.shape[1]], rows))
    return states, errors


def _same_errors(got: dict, want: dict) -> bool:
    def key(errors):
        return {b: (type(e), str(e), *(getattr(e, name, None) for name in ("t", "pair", "value"))) for b, e in errors.items()}  # a blow-up has its message alone

    return key(got) == key(want)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_block_engine_is_bit_identical_to_the_step_loop(monkeypatch, case, method):
    pcs, h, horizon = _BLOCK_CASES[case]
    field = VectorField(*pcs)
    init = _perturb(field.n).as_vector()
    steps = int(math.ceil(horizon / h - 1e-9))
    engine = _engine(field, h, method, init, steps)
    size = engine.block_size()
    assert engine.hist.shape[1] < steps + 1  # the window slides, so the gate covers its slides
    if case in ("zero-delay", "zero-delay-and-h"):
        assert size == 1  # rk4's stages read their own states; Euler's reads node k
    elif case == "tau-under-two-steps":
        assert size == (1 if method == "rk4" else 3)  # tau_min/h = 1.5: Euler's stage at node k0 + 2 reads node k0
    elif case in ("tau-equals-h", "tau-within-slack"):
        assert size == (1 if method == "rk4" else 2)  # the last k4 reads node k0 alone
        assert engine.newest <= 0  # no lookup weights a node that is not made yet
    elif case == "tau-over-h-integer":
        assert size == (30 if method == "rk4" else 31)  # tau/h = 30: the last k4 reads node k0 alone
    else:
        assert size >= 2
    if case == "row-cap":
        assert size < 0.3 / h - 2  # the byte budget splits what the delays would allow
    if case == "pre-history-and-ramp":
        assert engine.pre > 3 * size and pcs[0].leader.settled_time() > 3 * size * h
    staged = []
    stages = _MethodOfSteps._stages
    monkeypatch.setattr(_MethodOfSteps, "_stages", lambda self, k: staged.append(k) or stages(self, k))
    got, got_errors = _stored_run(field, h, method, init, steps)
    want, want_errors = step_loop_run(field, h, method, init, steps)
    assert not got_errors and not want_errors
    assert bool(staged) == (case.startswith("zero-delay") and method == "rk4")  # one field call a stage only where stages read their own states
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # the CSV writes -0 and 0 apart


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_a_block_makes_one_field_call(monkeypatch, method):
    """Every block evaluates its stages' v-derivatives in one flux_rows call; y' = kappa*v comes from the headway rows.

    A step's rows are its k1 under Euler, and its k2 = k3 and k4 under rk4,
    whose k4 is the next node's first stage: so an rk4 block of K steps
    evaluates 2K rows.  Its first step's k1 is its first node's stored
    derivative, which under rk4 the engine seeds for node 0 with a call of
    one row when it is built.
    """
    calls = []  # the rows of each call
    flux_rows = VectorField.flux_rows
    monkeypatch.setattr(VectorField, "flux_rows", lambda self, t, sums, *args: calls.append(sums.shape[1]) or flux_rows(self, t, sums, *args))
    field = VectorField(four_vehicle_platoon())
    assert not callable(field) and not hasattr(field, "velocity_rows")  # flux_rows is the field's one v-row entry
    init = _perturb(field.n).as_vector()
    steps = 100  # 1 s at h = 0.01
    size = _engine(field, 0.01, method, init, steps).block_size()
    assert size >= 2
    calls.clear()
    got, errors = _stored_run(field, 0.01, method, init, steps)
    counts = [min(size, steps - k) for k in range(0, steps, size)]
    assert not errors and calls == ([1] + [2 * count for count in counts] if method == "rk4" else counts)
    want, _ = step_loop_run(field, 0.01, method, init, steps)
    assert np.array_equal(got, want)


def test_rk4_platoon_matches_the_whole_row_lookup():
    """Interpolating each pair's S_i, rather than summing its interpolated v_1..v_i, moves rk4 states by rounding only.

    Over 300 s the two lookups stay within 1e-14 (about 20 ulps of the
    largest state, |y| < 2), and they do differ.
    """
    pc = four_vehicle_platoon()
    got = simulate(pc, SimConfig(step=0.02, horizon=300.0, method="rk4")).states
    want, errors = step_loop_run(VectorField(pc), 0.02, "rk4", _perturb(4).as_vector(), 15000, lookup="rows")
    assert not errors
    assert 0.0 < np.abs(got - want[0]).max() <= 1e-14


# The sha256 of simulate_batch's stacked states.  The Euler runs keep their
# bits from the whole-row lookup: Euler reads nodes, whose sums are the
# field's own.  The single-pair rk4 batch, whose row is its state, kept them
# too until its y step became the headway rows of the mean stage speed, which
# moved its states by 1.8e-15 at most.
_KEPT_BITS = {
    "rk4-single-batch": (
        "rk4", [single_follower(kappa=k) for k in (0.9, 1.01, 1.1)], 0.01,
        "4813c3995a94b02d322e493629caa19f24a1600e159cce46fdd70a7f45c3cd34",
    ),
    "euler-single": ("euler", [single_follower(kappa=1.01)], 0.01, "7d755cc60b61bfd8aa396981e3a5d4b34d081f211bbaf9e8564ab1f1e318c81a"),
    "euler-platoon-batch": (
        "euler", [four_vehicle_platoon(kappa=k) for k in (0.9, 1.0)], 0.01,
        "35c3a26893fc5b220ba09253d2c9bd08cef1563b70360b7277f4fb2217443be7",
    ),
    "euler-eight-pairs": ("euler", [_eight_pairs()], 0.02, "4761a435977ee028f43604e7913b2b305bd183d6110e7406e5f0eec71d8eea76"),
}


@pytest.mark.parametrize("case", list(_KEPT_BITS))
def test_euler_and_single_pair_rk4_runs_keep_their_bits(case):
    method, pcs, h, digest = _KEPT_BITS[case]
    trajs = simulate_batch(pcs, SimConfig(step=h, horizon=60.0, method=method))
    assert hashlib.sha256(np.stack([traj.states for traj in trajs]).tobytes()).hexdigest() == digest


def test_the_engines_observable_rows_give_the_velocity_rows():
    """Pair i's columns of an engine row, read through its views, give the v-rows of the whole rows' pair observables bit for bit."""
    pcs = [four_vehicle_platoon(kappa=k) for k in (0.7, 1.0, 1.3)]
    field = VectorField(*pcs)
    rng = np.random.default_rng(13)
    times = np.array([-0.2, 0.1, 0.35, 1.0, 3.0, 50.0])  # rest, ramp and settled leader
    delayed = rng.normal(size=(3, 6, 4, 8)) * 0.1
    delayed[:, 0, :, :4] = -0.05  # the leader is at rest before t = 0: keep the speed bases positive
    delayed[1, 4, 2, 6] = -25.0  # member 1 leaves the domain at row 4 (pair 3)
    want, want_failures = field.flux_rows(times, *field.pair_observables(delayed))
    # Each pair's delayed row as an engine row [S_4..S_2 | v | y], members last; keep pair i's columns.
    whole = np.zeros((6, 4, 11, 3))
    whole[:, :, 3:] = delayed.transpose(1, 2, 3, 0)
    _add_sums(whole, 4)
    pair = np.array([3, 2, 1, 0, 1, 2, 3, 0, 1, 2, 3])  # the pair of each column
    rows = whole[:, pair, np.arange(11)]
    got, failures = field.flux_rows(times, *_observed(rows, 4))
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert list(failures) == list(want_failures) == [1]
    assert str(failures[1]) == str(want_failures[1]) and failures[1].t == want_failures[1].t


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize(
    "gains", [(400.0,), (1.0, 0.5, 400.0, 0.8), (1.0, 20.0, 0.5, 400.0)], ids=["alone", "in-a-batch", "twice-in-a-batch"]
)
def test_mid_block_domain_breakdown_matches_the_step_loop(monkeypatch, gains, method):
    """At kappa = 400 the headway of the single follower reaches zero at about t = 1.0, and at kappa = 20 at about t = 2.4.

    That is step 103 (Euler) or 102 (rk4) at h = 0.01, inside the blocks that
    start at steps 92 and 88, and step 239 or 236, inside those that start
    at 230 and 220.  Each error must be the step loop's, to the value and
    the message, read off the failing block's own call, and the other
    members must run on unharmed: no stage is evaluated alone.
    """
    taken = []
    for name in ("block", "_stages"):
        monkeypatch.setattr(
            _MethodOfSteps, name, lambda self, *args, _orig=getattr(_MethodOfSteps, name), _name=name: taken.append(_name) or _orig(self, *args)
        )
    pcs = [single_follower(kappa=k) for k in gains]
    sc = SimConfig(step=0.01, horizon=20.0, method=method)
    field = VectorField(*pcs)
    init = _perturb(1).as_vector()
    steps = 2000
    got, got_errors = _stored_run(field, sc.step, method, init, steps)
    want, want_errors = step_loop_run(field, sc.step, method, init, steps)
    failed = [b for b, kappa in enumerate(gains) if kappa in (20.0, 400.0)]
    assert sorted(got_errors) == failed and _same_errors(got_errors, want_errors)
    assert "_stages" not in taken and "block" in taken
    size = _engine(field, sc.step, method, init, steps).block_size()
    for b in failed:
        step = math.floor((got_errors[b].t + pcs[0].vehicles[0].tau) / sc.step + 1e-6)
        assert step % size > 0  # not the first step of a block
        assert isinstance(got_errors[b], DomainBreakdownError) and got_errors[b].quantity == "headway"
    ok = [b for b in range(len(gains)) if b not in failed]
    assert np.array_equal(got[ok], want[ok])
    with pytest.raises(DomainBreakdownError) as exc:
        simulate_batch(pcs, sc)
    assert _same_errors({failed[0]: exc.value}, {failed[0]: want_errors[failed[0]]})


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_mid_block_blow_up_matches_the_step_loop(method):
    """At l = 0 and kappa = 5 this follower's speed passes the blow-up limit at t = 2.05 (Euler) or 2.03 (rk4).

    That is inside the blocks that start at steps 184 (Euler, 46 steps) and
    180 (rk4, 45 steps: tau/h = 45 is whole), whose own nodes show it.  At
    kappa = 0.8 the headway reaches zero at t = 2.0 or 1.98 instead.  Each
    error must be the step loop's, and the other members must run on unharmed.
    """
    vehicles = (VehicleParams(alpha=0.7, tau=0.45, b=20.0),)
    pcs = [PlatoonConfig(vehicles=vehicles, m=2.0, l=0.0, leader=LeaderProfile(v_eq=10.0), kappa=k) for k in (0.1, 5.0, 0.05, 0.8)]
    field = VectorField(*pcs)
    init = _perturb(1).as_vector()
    got, got_errors = _stored_run(field, 0.01, method, init, 400)
    want, want_errors = step_loop_run(field, 0.01, method, init, 400)
    assert sorted(got_errors) == sorted(want_errors) == [1, 3]
    assert type(got_errors[1]) is NumericalError and str(got_errors[1]) == str(want_errors[1])
    assert _same_errors({3: got_errors[3]}, {3: want_errors[3]})
    size = _engine(field, 0.01, method, init, 400).block_size()
    assert round(float(str(got_errors[1]).split("= ")[-1]) / 0.01) % size > 1  # the blown-up node is not a block's first
    assert np.array_equal(got[[0, 2]], want[[0, 2]])


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_zero_delay_failures_match_the_step_loop(method):
    """At kappa = 60 and 5 the delayed pair behind the zero-delay pair loses its headway, at t = 0.59 and 2.55 (Euler) or 0.575 and 2.505 (rk4).

    Under rk4 each fails at a k2 stage of a one-step block.  The errors must
    be the step loop's, and members 0 and 3 must run on unharmed.
    """
    pcs = [_zero_delay_pair().with_kappa(k) for k in (0.8, 60.0, 5.0, 1.0)]
    field = VectorField(*pcs)
    init = _perturb(2).as_vector()
    got, got_errors = _stored_run(field, 0.01, method, init, 2000)
    want, want_errors = step_loop_run(field, 0.01, method, init, 2000)
    assert sorted(got_errors) == sorted(want_errors) == [1, 2] and _same_errors(got_errors, want_errors)
    assert all(isinstance(e, DomainBreakdownError) and e.pair == 2 for e in got_errors.values())
    ok = [0, 3]
    assert np.array_equal(got[ok], want[ok]) and np.array_equal(np.signbit(got[ok]), np.signbit(want[ok]))


def _random_batch(rng, h):
    """1-3 pairs, each with a delay of 0, h less a rounding, h, 2h, a whole 3h..12h or any in [h, 12h], and 1-4 gains."""
    taus = [float(rng.choice([0.0, h / (1 + 1e-9), h, 2 * h, h * rng.integers(3, 13), rng.uniform(h, 12 * h)])) for _ in range(rng.integers(1, 4))]
    vehicles = tuple(VehicleParams(alpha=float(rng.uniform(0.2, 1.0)), tau=tau, b=float(rng.uniform(15.0, 25.0))) for tau in taus)
    m, l = float(rng.choice([2.0, 1.0, 0.5, 0.0, -1.0])), float(rng.choice([0.0, 1.0, 2.0]))
    leader = LeaderProfile(v_eq=10.0, ramp=float(rng.choice([0.5, 10.0])))
    return [PlatoonConfig(vehicles=vehicles, m=m, l=l, leader=leader, kappa=float(g)) for g in rng.choice([0.3, 1.0, 5.0, 20.0, 400.0], rng.integers(1, 5))]


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_random_batches_match_the_step_loop(method):
    """Seeded random batches: the block route's states, signs of zero and errors are the step loop's.

    The step loop stops after member 0's failing step, so where member 0
    fails the block route may also name members that fail later in its block.
    """
    rng = np.random.default_rng(2801)
    failed = 0
    for _ in range(16):
        pcs = _random_batch(rng, 0.01)
        field = VectorField(*pcs)
        init = _perturb(field.n, v0=float(rng.uniform(-0.3, 0.3))).as_vector()
        got, got_errors = _stored_run(field, 0.01, method, init, 200)
        want, want_errors = step_loop_run(field, 0.01, method, init, 200)
        assert _same_errors({b: got_errors[b] for b in want_errors if b in got_errors}, want_errors)
        failed += bool(want_errors)
        if 0 in want_errors:
            continue
        assert got_errors.keys() == want_errors.keys()
        ok = [b for b in range(field.batch) if b not in want_errors]
        assert np.array_equal(got[ok], want[ok]) and np.array_equal(np.signbit(got[ok]), np.signbit(want[ok]))
    assert failed >= 4


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


def test_euler_oscillation_threshold_is_its_closed_form():
    """Explicit Euler reads v' = -a*v(t - tau) at the node K = ceil(tau/h) steps
    back, so its characteristic polynomial is z**(K+1) - z**K + h*a and its
    oscillation threshold is h*a_cr = 2*sin(pi/(2*(2K + 1))), not a*tau = pi/2.
    At l = 0 the single follower's linear part is exactly v' = -kappa*beta*v(t - tau):
    Euler decays just below its own kappa_cr,h and grows just above it, while
    rk4, whose threshold lies at kappa = 1 to O(h**4), decays at both gains."""
    pc = single_follower(l=0.0)
    h, tau = 0.01, pc.vehicles[0].tau
    beta = beta_star(pc.vehicles[0].alpha, pc.leader.v_eq, pc.m, pc.vehicles[0].b, pc.l)
    k = math.ceil(tau / h)
    kappa_h = 2.0 * math.sin(math.pi / (2 * (2 * k + 1))) / (h * beta)
    assert k == 45 and abs(kappa_h - 0.98632) < 1e-5
    gains = [kappa_h - 0.002, kappa_h + 0.002]

    def window_amplitudes(traj):  # half peak-to-peak of v over [100, 200], ..., [500, 600]
        v = traj.v[:, 0]
        w = round(100.0 / h)
        return [0.5 * float(np.ptp(v[i * w : (i + 1) * w])) for i in range(1, 6)]

    below, above = (
        window_amplitudes(tr) for tr in simulate_batch([pc.with_kappa(g) for g in gains], SimConfig(h, 600.0, "euler"))
    )
    assert all(b < a for a, b in zip(below, below[1:])) and below[-1] < 0.5 * below[0]
    assert all(b > a for a, b in zip(above, above[1:])) and above[-1] > 1.2 * above[0]
    for traj in simulate_batch([pc.with_kappa(g) for g in gains], SimConfig(h, 600.0, "rk4")):
        amps = window_amplitudes(traj)
        assert all(b < a for a, b in zip(amps, amps[1:])) and amps[-1] < 1e-3 * amps[0]


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
    for epsilon in (0.0, math.inf):
        with pytest.raises(InvalidConfigError):
            settling_time(traj, epsilon=epsilon)


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
# streamed tail envelopes against the stored run
# ---------------------------------------------------------------------------


_STREAM_CASES = {
    "platoon": ([four_vehicle_platoon(kappa=k) for k in (0.2, 1.0, 1.05)], 0.01, 40.0, 0.25),  # 0.2: monotone decay
    "pre-history-and-ramp": ([_slow_start()], 0.01, 30.0, 0.5),
    "zero-delay": ([_zero_delay_pair()], 0.01, 10.0, 0.25),
    "whole-run": ([single_follower(kappa=k) for k in (0.98, 1.02)], 0.01, 30.0, 1.0),
}


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_tail_envelopes_are_the_stored_envelopes(monkeypatch, case, method):
    """Bit for bit, with the window sliding inside the tail window; the zero-delay case's rk4 blocks are one step long.

    Streamed settling times are the stored runs' too, for two thresholds.
    """
    pcs, h, horizon, tail = _STREAM_CASES[case]
    sc = SimConfig(step=h, horizon=horizon, method=method)
    perturbation = _perturb(pcs[0].n, v0=0.1, y0=-0.05)
    slides = record_slides(monkeypatch)
    got = tail_envelopes(pcs, sc, perturbation, tail)
    k0 = tail_window(sc.grid(), tail)
    assert slides and slides[-1] >= k0
    settled = {eps: settling_times(pcs, sc, perturbation, eps) for eps in (0.05, 0.08)}
    trajs = simulate_batch(pcs, sc, perturbation)
    assert len(got) == len(trajs) == len(pcs)
    for eps, reports in settled.items():
        assert reports == [settling_time(traj, eps) for traj in trajs]
    for g, traj in zip(got, trajs):
        w = amplitude_envelope(traj, tail)
        window = traj.states[k0:]
        direct = 0.5 * (window.max(axis=0) - window.min(axis=0))
        for a in (np.concatenate((g.v, g.y)), np.concatenate((w.v, w.y))):
            assert np.array_equal(a, direct) and np.array_equal(np.signbit(a), np.signbit(direct))
        assert (g.t_start, g.t_end) == (w.t_start, w.t_end) == (traj.t[k0], traj.t[-1])


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_tail_envelopes_raise_the_stored_runs_error(monkeypatch, method):
    """Member 3 leaves the domain first; member 1 later, after the window has slid, and its error is raised.

    Streamed settling raises it too.
    """
    pcs = [single_follower(kappa=k) for k in (1.0, 3.0, 0.5, 400.0)]
    sc = SimConfig(step=0.01, horizon=20.0, method=method)
    with pytest.raises(NumericalError) as stored:
        simulate_batch(pcs, sc)
    slides = record_slides(monkeypatch)
    for run in (tail_envelopes, settling_times):
        with pytest.raises(NumericalError) as streamed:
            run(pcs, sc)
        assert _same_errors({1: streamed.value}, {1: stored.value})
    failed_at = stored.value.t + pcs[1].vehicles[0].tau  # the failing step's time, not its delayed instant
    assert stored.value.t > 3.0 and slides[0] * sc.step < failed_at
    for run in (simulate_batch, tail_envelopes, settling_times):  # an empty batch is rejected, not indexed
        with pytest.raises(InvalidConfigError):
            run([], sc)


def test_tail_envelopes_memory_does_not_grow_with_the_horizon():
    """Traced peaks at T and 4T: flat within 10% streamed (envelopes, settling); stored, they grow by the 3T/h more nodes' states alone.

    The stored peak is the returned states plus a window as long at T as at
    4T, so it grows by 3*B*(T/h)*2N float64 values, within 1%.  A run that
    also kept its node derivatives would grow by at least twice that.
    """
    pcs = [four_vehicle_platoon(kappa=0.95 + 0.01 * k) for k in range(8)]

    def peak(run, horizon):
        tracemalloc.start()
        try:
            run(pcs, SimConfig(step=0.01, horizon=horizon, method="euler"))  # fewer allocations to trace than rk4
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for streamed in (tail_envelopes, settling_times):
        short, long = peak(streamed, 25.0), peak(streamed, 100.0)
        assert abs(long / short - 1.0) <= 0.1
    short, long = peak(simulate_batch, 25.0), peak(simulate_batch, 100.0)
    extra = 3 * len(pcs) * SimConfig(step=0.01, horizon=25.0).steps * 2 * pcs[0].n * 8
    assert abs((long - short) / extra - 1.0) <= 0.01


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
    # The whole file, also over a run of several write chunks, is "%.17g" per value.
    long = simulate(platoon_config, SimConfig(step=0.01, horizon=6.0), _perturb(4, v0=-0.05))
    for tr in (traj, long):
        write_trajectory_csv(tr, str(path))
        lines = [",".join(rows[0])]
        for k in range(tr.t.size):
            lines.append(",".join("%.17g" % val for val in [tr.t[k], *tr.states[k]]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _percent_g(block):
    """The oracle of the CSV kernel: "%.17g" per value, ',' between and '\\n' after each row."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in block.tolist()).encode()


def _g17_fallback(values):
    """The indices of values that the kernel hands to "%.17g" itself."""
    return set(_g17._digits(np.abs(np.asarray(values, dtype=float)), _g17._tables())[2].tolist())


_ANY_DOUBLE = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(),
)


@given(cols=st.integers(1, 9), values=st.lists(_ANY_DOUBLE, min_size=1, max_size=120))
@settings(max_examples=300, deadline=None)
def test_g17_kernel_is_percent_g_on_any_double(cols, values):
    values += [0.0] * (-len(values) % cols)
    block = np.array(values).reshape(-1, cols)
    assert _g17.format_rows(block).tobytes() == _percent_g(block)


# (value, its "%.17g", whether the kernel hands it to "%.17g", whether its
# 17 digits carry: the double lies below the power of ten it prints as)
_G17_EDGES = [
    (0.0, "0", False, False),
    (-0.0, "-0", False, False),
    (math.nan, "nan", True, False),
    (math.inf, "inf", True, False),
    (-math.inf, "-inf", True, False),
    (5e-324, "4.9406564584124654e-324", True, False),  # subnormal
    (1.7976931348623157e308, "1.7976931348623157e+308", True, False),  # beyond the table
    (9.9999999999999991e-05, "9.9999999999999991e-05", False, False),  # last exponent form
    (0.0001, "0.0001", False, False),  # first fixed form
    (1e16, "10000000000000000", False, False),  # last fixed form
    (1e17, "1e+17", False, False),
    (9.9999999999999999e22, "9.9999999999999992e+22", False, False),  # the double 1e23, below 10**23
    (1e-14, "1e-14", False, True),  # 17 nines round up: the digits carry into the exponent
    (-1e98, "-1e+98", False, True),  # likewise
    (1000000000000000.25, "1000000000000000.2", False, False),  # exact tie, 10**1 exact: half to even
    (1000000000000000.75, "1000000000000000.8", False, False),
    (3 * 2.0**-24, "1.7881393432617188e-07", True, False),  # exact tie, but 10**23 inexact: a near-tie
    (123.0, "123", False, False),  # a bare '.' drops out
    (-0.00125, "-0.00125", False, False),
]


@pytest.mark.parametrize("value, text, fallback, carry", _G17_EDGES)
def test_g17_kernel_edge_cases(value, text, fallback, carry):
    assert "%.17g" % value == text
    if carry:  # so its 17 digits are 9s before rounding
        assert abs(Fraction(value)) < abs(Fraction(text))
    assert _g17.format_rows(np.array([[value]])).tobytes() == (text + "\n").encode()
    assert _g17_fallback([value]) == ({0} if fallback else set())


def test_g17_exponent_is_exact_and_the_product_within_half_the_tie_band():
    """D is certified where the product's fraction lies farther than _TIE from
    1/2, which needs the double-double product within _TIE of the exact one:
    checked with a margin of 2 against exact rationals over the certified
    range, next to every power of ten in it."""
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{j}") for j in range(-269, 290)])
    a = np.concatenate([10.0 ** rng.uniform(-270, 290, 2000), powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    xo, p, s = _g17._product(a, _g17._tables())
    worst = Fraction(0)
    for ai, x, pi, si in zip(a.tolist(), (xo + _g17._X_LO).tolist(), p.tolist(), s.tolist()):
        exact = Fraction(ai)
        assert Fraction(10) ** x <= exact < Fraction(10) ** (x + 1)
        worst = max(worst, abs(Fraction(pi) + Fraction(si) - exact * Fraction(10) ** (16 - x)))
    assert worst <= _g17._TIE / 2


def test_special_values_on_both_sides_of_a_block_boundary(tmp_path, platoon_config):
    rows = 2 * _CSV_BLOCK_ROWS + 3
    sc = SimConfig(step=0.01, horizon=(rows - 1) * 0.01)
    t = sc.grid()
    assert t.size == rows
    rng = np.random.default_rng(15)
    states = rng.standard_normal((rows, 8)) * 10.0 ** rng.integers(-12, 3, (rows, 8))
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 3 * 2.0**-24, 1e-14]
    for r in (_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS - 1, 2 * _CSV_BLOCK_ROWS):
        states[r] = specials[r % 8 :] + specials[: r % 8]
    traj = Trajectory(t=t, states=states, config=platoon_config, sim=sc)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    header = "t," + ",".join(f"v_{i}" for i in range(1, 5)) + "," + ",".join(f"y_{i}" for i in range(1, 5))
    assert path.read_bytes() == header.encode() + b"\n" + _percent_g(np.column_stack((t, states)))
