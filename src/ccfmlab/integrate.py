"""Method-of-steps time integration of the nonlinear platoon dynamics.

:func:`simulate_batch` integrates configs that differ only in kappa, alpha
and b (a gain sweep, say) together; :func:`simulate` is its batch of
one.  Two fixed-step schemes are provided:

* ``euler``  -- explicit Euler; each delayed value is read at the grid point
  floor((t - tau)/h), i.e. the newest stored node not later than the delayed
  instant.  Its first-order lag shifts the oscillation threshold.
* ``rk4``    -- classical Runge-Kutta, the default; delayed values are
  reconstructed by cubic Hermite interpolation on stored node values and
  derivatives (Bellen & Zennaro, *Numerical Methods for Delay Differential
  Equations*, 2003), fourth order only when every delay is a whole number of
  steps and about second order otherwise.  Stage lookups never run ahead of
  the newest completed node: the step is capped by the smallest positive delay.

Pairs with zero delay read the current (or current-stage) state directly, so
a delay-free configuration reduces to the ordinary ODE schemes.  Pre-history
(t < 0) is the initial perturbation held constant, and the leader is at rest
for t < 0.  Both schemes evaluate the model's one vector field,
:class:`ccfmlab.model.VectorField`; the step size and the delay offsets in
steps belong to the scheme.

Pair i's flux reads three numbers of its delayed state: the prefix sum
S_i = v_1 + ... + v_i, v_i and y_i (``VectorField.pair_observables``).  So
each stored node row holds [S_N..S_2 | v | y], its state with the sums
ahead of it, for the node's values and for its derivatives, and a lookup
reads each pair's three columns at that pair's delayed instant, nothing
else: rk4 interpolates S_i itself.  The field's flux on those
(``VectorField.flux_rows``) gives the v-derivatives.

The steps are taken in blocks (a block method of steps).  Only y' = kappa*v
is instantaneous: every v-derivative reads the state at t - tau_i.  Over a
block of K steps with K about tau_min/h, every stage's delayed instant lies at
or before the block's first node, so one ``flux_rows`` call on one gather of
stored history gives every stage's v-derivative.  Under rk4 each step's k4
is taken at the next node's time on that node's first-stage rows, so it is
that node's first stage: a block evaluates two rows a step, k2 (which k3
repeats) and k4, and reads each step's k1 from the stored node derivatives.
Sequential sums give v at every node, and the field's headway rows give
each node's y' = kappa*v and, under rk4, each step of y: y' is linear in v,
so RK4's weighted average of the stages' y' is the headway rows of the mean
stage speed, v + h*(k1 + k2 + k3)/6.  The sums add in the order of a
step-by-step loop, so a block is bit-identical to taking its steps one at a
time, failures included: a member fails at its first failing row or
blown-up node, whichever such a loop meets first.  A zero-delay pair reads
its stage's own state, so its blocks are one step long, and under rk4 that
step makes one field call a stage, k1 included.

Every run keeps only a window of the newest nodes, as deep as the
deepest lookup plus a few blocks: when the next block would run past the
window's end, the rows its lookups still read are copied to the front.
Before each slide, and at the end, one runner passes the nodes made since
its last call to a sink.  :func:`simulate_batch` stores them, with no node
derivatives.  Each trajectory metric is one reducer, built and checked
before integrating, whose memory does not grow with the horizon:
:func:`tail_envelopes` and :func:`settling_times` stream a run into it, and
:func:`amplitude_envelope` and :func:`settling_time` feed it a stored run.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, NumericalError
from .model import PlatoonConfig, PlatoonState, VectorField

__all__ = [
    "SimConfig",
    "Trajectory",
    "SettlingReport",
    "EnvelopeReport",
    "simulate",
    "simulate_batch",
    "tail_envelopes",
    "settling_times",
    "settling_time",
    "amplitude_envelope",
    "tail_window",
    "write_trajectory_csv",
]

# Per scheme, the distinct stage fractions c whose delayed rows a step
# gathers.  rk4's k2 and k3 read the same rows, at c = 1/2, and k4's at c = 1
# are the next step's k1 rows; Euler's one stage reads those of c = 0.
_FRACTIONS = {"euler": (0.0,), "rk4": (0.5, 1.0)}
_RK4_STAGES = ((0.5, 0), (0.5, 0), (1.0, 1))  # (c, fraction index) of k2, k3 and k4
_BLOWUP_LIMIT = 1e12
_BLOCK_BYTES = 1 << 20  # a block's gathered history, its largest array
_WINDOW_BLOCKS = 8  # blocks the history window holds beyond its deepest lookup: at most one slide per this many
_CSV_BLOCK_ROWS = 256  # rows formatted per write; a block's arrays peak near 0.5 MiB
_INDEX_MAX = np.iinfo(np.intp).max  # a step count or delay in steps past it indexes no array


@dataclass(frozen=True)
class SimConfig:
    """Integration settings: step size, horizon, scheme.  Its defaults are the only ones: the CLI's flags read them."""

    step: float = 0.01
    horizon: float = 300.0
    method: str = "rk4"

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise InvalidConfigError(f"step must be positive, got {self.step}")
        if not (self.horizon >= self.step and math.isfinite(self.horizon)):
            raise InvalidConfigError(f"horizon must be at least one step, got {self.horizon}")
        if not self.horizon / self.step < _INDEX_MAX:
            raise InvalidConfigError(f"horizon {self.horizon:g} is {self.horizon / self.step:.3g} steps of {self.step:g}, too many to index")
        if self.method not in _FRACTIONS:
            raise InvalidConfigError(f"method must be one of {tuple(_FRACTIONS)}, got {self.method!r}")

    @property
    def steps(self) -> int:
        """Steps to the horizon, rounded up to a whole step."""
        return int(math.ceil(self.horizon / self.step - 1e-9))

    def grid(self) -> np.ndarray:
        """The output times t_k = k*step, k = 0 .. steps."""
        return np.arange(self.steps + 1) * self.step


@dataclass
class Trajectory:
    """Integration output on the uniform grid t_k = k*step."""

    t: np.ndarray
    states: np.ndarray  # (len(t), 2n): columns v_1..v_n, y_1..y_n
    config: PlatoonConfig
    sim: SimConfig

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2

    @property
    def v(self) -> np.ndarray:
        return self.states[:, : self.n]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, self.n :]

    def state_at(self, k: int) -> PlatoonState:
        return PlatoonState.from_vector(self.states[k])


def simulate(pc: PlatoonConfig, sc: SimConfig, perturbation: PlatoonState | None = None) -> Trajectory:
    """Integrate one platoon: the batch of one of :func:`simulate_batch`."""
    return simulate_batch([pc], sc, perturbation)[0]


def simulate_batch(
    pcs: list[PlatoonConfig], sc: SimConfig, perturbation: PlatoonState | None = None
) -> list[Trajectory]:
    """Integrate platoons that share N, the delays, m, l and the leader, each bit-identically to its run alone.

    The initial state (default: v_i = 0.1, y_i = 0) also serves as the
    constant pre-history; the horizon is rounded up to a whole number of
    steps.  A member that leaves the model's domain (DomainBreakdownError /
    NegativeVelocityBaseError) or blows up (NumericalError) is masked while
    the others run on; then the lowest-index failing member's error is raised.
    """
    return _stream(pcs, sc, perturbation, _Store(pcs, sc))


def tail_envelopes(
    pcs: list[PlatoonConfig], sc: SimConfig, perturbation: PlatoonState | None = None, tail_fraction: float = 0.25
) -> list[EnvelopeReport]:
    """Each member's :func:`amplitude_envelope` of its :func:`simulate_batch` run, bit for bit, in bounded memory."""
    return _stream(pcs, sc, perturbation, _TailEnvelope(_Times(sc), tail_fraction))


def settling_times(
    pcs: list[PlatoonConfig], sc: SimConfig, perturbation: PlatoonState | None = None, epsilon: float = 0.05
) -> list[SettlingReport]:
    """Each member's :func:`settling_time` of its :func:`simulate_batch` run, in bounded memory."""
    return _stream(pcs, sc, perturbation, _Settling(_Times(sc), epsilon))


def _stream(pcs: list[PlatoonConfig], sc: SimConfig, perturbation: PlatoonState | None, sink):
    """Check the perturbation and step, integrate into ``sink.add``, then raise the lowest-index member's error or return ``sink.reports()``."""
    field = VectorField(*pcs)
    if perturbation is None:
        perturbation = PlatoonState.uniform_perturbation(field.n)
    if perturbation.n != field.n:
        raise InvalidConfigError(f"perturbation has {perturbation.n} pairs, config has {field.n}")
    tau_min = min((tau for tau in field.tau.tolist() if tau > 0), default=math.inf)
    if sc.step > tau_min * (1.0 + 1e-9):
        raise InvalidConfigError(
            f"step {sc.step:g} exceeds the smallest positive delay {tau_min:g}; "
            "the method of steps requires step <= min positive tau"
        )
    deepest = max(field.tau.tolist()) / sc.step
    if not 2 * deepest * (3 * field.n - 1) < _INDEX_MAX:  # its flat offset over rows of 3N - 1 numbers, with as much to spare for the window
        raise InvalidConfigError(f"the largest delay is {deepest:.3g} steps of {sc.step:g}, too many to index")
    errors = _run(field, sc.step, sc.method, perturbation.as_vector(), sc.steps, sink.add)
    if errors:
        raise errors[min(errors)]
    return sink.reports()


class _Store:
    """Every node's state, in the (B, steps + 1, 2N) array that the returned trajectories view."""

    def __init__(self, pcs: list[PlatoonConfig], sc: SimConfig):
        self.pcs, self.sc, self.states = pcs, sc, None

    def add(self, k: int, rows: np.ndarray) -> None:
        if self.states is None:  # sized by the first rows, once the batch has been checked
            shape = (rows.shape[0], self.sc.steps + 1, rows.shape[2])
            try:
                self.states = np.empty(shape)
            except (MemoryError, ValueError):
                nodes, size = shape[0] * shape[1], 8 * math.prod(shape)
                raise InvalidConfigError(
                    f"storing {nodes:.3g} nodes of {shape[2]} numbers takes {size:.3g} bytes, too many to allocate"
                ) from None
        self.states[:, k : k + rows.shape[1]] = rows

    def reports(self) -> list[Trajectory]:
        t_grid = self.sc.grid()
        return [Trajectory(t=t_grid, states=rows, config=pc, sim=self.sc) for rows, pc in zip(self.states, self.pcs)]


_NODE = np.array([1.0, 0.0, 0.0, 0.0])  # weights that read node j itself


def _lookup_table(taus: list, h: float, fractions: tuple, hermite: bool):
    """(S, N) offsets of node j from step k, and (4, S, N) weights of nodes j and j + 1.

    At fraction c, pair i's delayed instant lies c - tau_i/h steps from node
    k, between nodes j and j + 1, at the same place in every step.  Euler
    reads node j; rk4 weights the values and h times the derivatives at j and
    j + 1, unless the instant is within 2e-9 steps of node j: more than the
    step check's slack of 1e-9, so no weight falls on node k + 1, not yet made.
    """
    offsets, weights = [], []
    for c in fractions:
        for tau in taus:
            x = c - tau / h
            j = 0 if tau == 0.0 else math.floor(x + 1e-9)  # zero-delay pairs read the stage state
            th = x - j
            t2 = th * th
            t3 = t2 * th
            offsets.append(j)
            if not hermite or tau == 0.0 or th < 2e-9:
                weights.append(_NODE)
            else:
                weights.append((2.0 * t3 - 3.0 * t2 + 1.0, -2.0 * t3 + 3.0 * t2, h * (t3 - 2.0 * t2 + th), h * (t3 - t2)))
    shape = (len(fractions), len(taus))
    return np.array(offsets).reshape(shape), np.array(weights).T.reshape((4,) + shape)


def _observed(rows: np.ndarray, n: int):
    """S_i, v_i and y_i of each pair in (R, width, B) rows [S_N..S_2 | v | y], as (B, R, N) views.

    S_1..S_N reads back from v_1's column.
    """
    sums, own, dev = rows[:, n - 1 :: -1], rows[:, n - 1 : 2 * n - 1], rows[:, 2 * n - 1 :]
    return sums.transpose(2, 0, 1), own.transpose(2, 0, 1), dev.transpose(2, 0, 1)


def _add_sums(rows: np.ndarray, n: int) -> None:
    """Write S_2..S_N of (..., width, B) rows [S_N..S_2 | v | y] from their v, added in turn as the field adds them."""
    if n > 1:
        rows[..., n - 2 :: -1, :] = np.add.accumulate(rows[..., n - 1 : 2 * n - 1, :], axis=-2)[..., 1:, :]


def _run(field: VectorField, h: float, method: str, init: np.ndarray, steps: int, sink) -> dict:
    """Each failing member's first error; ``sink(k, rows)`` takes the node states.

    rows are the (B, count, 2N) states of nodes k .. k + count - 1: the
    nodes made since its last call, before each slide of the window and at
    the end, unless member 0 has failed.  The run stops after the block in
    which member 0 fails, whose error is raised whatever the others do.
    """
    engine = _MethodOfSteps(field, h, method, init, steps, sink)
    size = engine.block_size()
    k = 0
    while k < steps and 0 not in engine.errors:  # no member can fail with a lower index
        count = min(size, steps - k)
        engine.reach(k, count)
        engine.block(k, count)
        k += count
    if 0 not in engine.errors:
        engine.feed(steps + 1)
    return engine.errors


class _MethodOfSteps:
    """A batch's node history, advanced a block of steps at a time.

    A block evaluates all its stages' velocity derivatives in one
    ``flux_rows`` call, which it can because they read only nodes up to its
    first, and takes y from the headway rows; under rk4 each step's k4 is
    the next node's derivative, which lookups read.  Under rk4 with a zero
    delay a block is one step, whose stages are evaluated in turn.

    A node row is [S_N..S_2 | v | y]: the state, and ahead of it the prefix
    sums S_i = v_1 + ... + v_i that the field's pairs read, so that
    S_1..S_N is one view read back from v_1's column; at N = 1 the row is
    the state.  A lookup reads each column of the row at the delayed instant
    of the pair that the column belongs to: pair i's S_i, v_i and y_i are
    interpolated, and nothing else.  Every array keeps the members last,
    innermost in memory, so that one lookup copies a node's number for every
    member at once and the field's operations run along the members.

    The history is a window of node rows, row r holding node ``base + r``:
    the deepest lookup's ``pre`` nodes and the current one, then room for
    ``_WINDOW_BLOCKS`` blocks or ``pre`` steps, whichever is more, and the
    node after them, or the whole run if that is shorter.  :meth:`reach`
    slides it, copying pre + 1 rows at most once in pre steps, and passes
    the nodes made before a slide to the sink.
    """

    def __init__(self, field: VectorField, h: float, method: str, init: np.ndarray, steps: int, sink):
        n, batch = field.n, field.batch
        self.field, self.h, self.rk4 = field, h, method == "rk4"
        offsets, weights = _lookup_table(field.tau.tolist(), h, _FRACTIONS[method], self.rk4)
        self.pre = -int(offsets.min())  # steps whose lookups reach into t < 0
        self.newest = int((offsets + (weights[1] != 0)).max())  # the newest node a lookup weights, relative to the reading step
        pair = np.concatenate((np.arange(n - 1, 0, -1), np.arange(n), np.arange(n)))  # each column's pair
        self.zero = np.flatnonzero(field.tau[pair] == 0.0)  # the columns that read the stage state
        self.width = width = pair.size
        self.reads = offsets.shape[0] * (4 if self.rk4 else 1)  # numbers a step gathers per column and member
        size = self.block_size()
        # Room for a few blocks, and for pre steps at least, after a slide's pre + 1 rows.
        length = min(steps + 1, self.pre + 2 + max(_WINDOW_BLOCKS * size, self.pre))
        self.sink, self.fed = sink, 0  # fed: the first node not yet passed to the sink
        # Node values and derivatives, so that one gather reads both.
        self.hist = np.zeros((2, length, width, batch))
        self.flat = self.hist.reshape(-1, batch)
        self.states, self.derivs = self.hist
        self.states[0, n - 1 :] = init[:, None]
        _add_sums(self.states[0], n)
        self._rebase(0)
        # Per run, so that a block slices them: counted from a block's first
        # step, each column's node j and the flat indices and weights of what
        # it reads: the values of nodes j and j + 1, then their derivatives
        # (Euler: the value of node j alone).  rk4's weights are full-size.
        self.nodes = np.arange(size)[:, None, None] + offsets[:, pair]  # (K, S, width)
        slot, later = ((0, 0, length, length), (0, 1, 0, 1)) if self.rk4 else ((0,), (0,))
        slot, later = np.array(slot)[:, None, None, None], np.array(later)[:, None, None, None]
        self.origin = slot * width + np.arange(width)  # what a lookup reads of node 0 alone
        self.index = self.origin + (later + self.nodes + self.pre) * width  # counted from node k0 - pre
        self.weights = np.tile(weights[:, None, :, pair, None], (1, size, 1, 1, batch if self.rk4 else 1))
        self.errors: dict = {}
        self.rows = self.states[0].copy()  # a step's k1 rows; step 0's read the pre-history everywhere
        if self.rk4:  # a block reads its first node's derivative, the block before's last k4: seed node 0's
            dot, failures = self._derivative(0.0, self.states[0], self.rows)
            self.derivs[0] = dot
            _retire(failures, self.errors, (self.hist, self.rows))

    def block_size(self) -> int:
        """Steps per block, K = 1 - newest: 1 with a zero delay, whose lookups read node k.

        A block of steps k0 .. k0 + K - 1 computes everything after node k0,
        so its gathers may weight node values up to k0 and, under rk4,
        derivatives up to k0 too: the block before's last k4, or node 0's,
        seeded when the engine is built.  newest is the newest node that a
        step's lookups weight, counted from the step.  With r = tau_min/h, K
        is ceil(r) + 1 under Euler, whose stage at node k reads node
        floor(k - r), and floor(r) under rk4, which weights nodes j and j + 1
        around k + 1 - r, or node j alone where the instant is on it.  A byte
        budget on what a block gathers caps K, at one step at least: per
        step, stage fraction, column and member, four numbers under rk4 and
        one under Euler.
        """
        per_step = 8 * self.field.batch * self.width * self.reads
        return max(1, min(1 - self.newest, _BLOCK_BYTES // per_step))

    def reach(self, k0: int, count: int) -> None:
        """Slide the window, if node k0 + count lies past its end, to start at node k0 - pre.

        Steps k0 .. k0 + count - 1 read no older node.  The window outlasts
        the first pre steps, so node 0 stays while lookups reach t < 0.
        The nodes up to k0 go to the sink first, and rows past node k0 are
        cleared, so that they read zero as on the window's first pass.
        """
        if k0 + count - self.base < self.hist.shape[1]:
            return
        self.feed(k0 + 1)
        keep, first = self.pre + 1, k0 - self.pre - self.base
        self.hist[:, :keep] = self.hist[:, first : first + keep]
        self.hist[:, keep:] = 0.0
        self._rebase(k0 - self.pre)

    def _rebase(self, base: int) -> None:
        """Let row 0 hold node base, and tabulate each row's stage times: Euler's k1 at t_k, rk4's k2 = k3 at t_k + h/2 and k4 at t_{k+1}."""
        self.base = base
        t = np.repeat(np.arange(base, base + len(self.states) + 1) * self.h, 2)[1:-1].reshape(-1, 2)  # rows [t_k, t_{k+1}]
        self.times = np.add(t, (0.5 * self.h, 0.0), out=t) if self.rk4 else t[:, :1]

    def feed(self, stop: int) -> None:
        """Pass the states of the nodes not yet passed, up to node stop - 1, to the sink."""
        rows = self.states[self.fed - self.base : stop - self.base, self.field.n - 1 :]
        self.sink(self.fed, rows.transpose(2, 0, 1))
        self.fed = stop

    def _gather(self, k0: int, count: int) -> np.ndarray:
        """The (count, S, width, B) delayed rows of the gathered stages of steps k0 .. k0 + count - 1."""
        r0 = k0 - self.base
        index, w = self.index, self.weights
        if count < index.shape[1]:  # a short last block
            index, w = index[:, :count], w[:, :count]
        if k0 < self.pre:  # instants before t = 0 read the pre-history, held in node 0 (row 0: the window has not slid)
            early = self.nodes[:count] + r0 < 0
            index = np.where(early, self.origin, index + (r0 - self.pre) * self.width)
            w = np.where(early[..., None], _NODE[:, None, None, None, None], w)
            gathered = self.flat.take(index, axis=0)
        else:  # from row r0 - pre on, which is contiguous
            gathered = self.flat[(r0 - self.pre) * self.width :].take(index, axis=0)
        if not self.rk4:  # Euler reads nodes, with no weights
            return gathered[0]
        gathered *= w
        return np.add.reduce(gathered)

    def _derivative(self, t: float, state: np.ndarray, rows: np.ndarray):
        """The field's (width, B) derivative row at a stage, with its sums, and the failures."""
        n = self.field.n
        dv, failures = self.field.flux_rows(t, *_observed(rows[None], n))
        dot = np.empty_like(state)
        dot[n - 1 : 2 * n - 1] = dv[:, 0].T
        dot[2 * n - 1 :] = self.field.headway_rows(state[n - 1 : 2 * n - 1].T).T
        _add_sums(dot, n)
        return dot, failures

    def _stages(self, k: int):
        """The (1, N, B) v-rows of rk4 step k's k2, k3 and k4, one field call a stage, and each member's first failure.

        The route of rk4 with a zero delay, whose pair reads each stage's own
        state.  k1 is evaluated on the carried rows, the step before's k4
        rows with the node's state, and stored as node k's derivative before
        the later stages' rows are gathered, since their lookups may weight it.
        """
        h, n = self.h, self.field.n
        r = k - self.base
        yk = self.states[r]
        self.rows[self.zero] = yk[self.zero]
        dot, failures = self._derivative(k * h, yk, self.rows)
        self.derivs[r] = dot
        delayed = self._gather(k, 1)[0]
        found = []
        for c, s in _RK4_STAGES:
            ystage = yk + (h * c) * dot
            _add_sums(ystage, n)
            rows = delayed[s]
            rows[self.zero] = ystage[self.zero]
            dot, more = self._derivative(self.times[r, s], ystage, rows)
            found.append(dot[None, n - 1 : 2 * n - 1])
            failures = {**more, **failures}  # a member's first failure wins
        self.rows = delayed[-1]  # k4's rows are the next step's k1 rows, but for the stage state
        return (*found, failures)

    def block(self, k0: int, count: int) -> None:
        """Advance steps k0 .. k0 + count - 1, recording each member's first failure.

        One ``flux_rows`` call evaluates the gathered rows as they are: each
        step's k1 under Euler, and under rk4 its k2 (which k3 repeats) and
        k4, which is stored as the next node's derivative, so that each
        step's k1 is its node's.  Under rk4 with a zero delay, :meth:`_stages`
        gives the one step's k2, k3 and k4 instead, and evaluates the next
        node's derivative afresh as that step's k1, so none is stored here.
        Sequential sums give v at every node, and the headway rows each node's
        y' and, under rk4, each step of y.
        """
        field, h, n = self.field, self.h, self.field.n
        r0 = k0 - self.base
        times = self.times[r0 : r0 + count]
        stored = self.rk4 and not self.zero.size  # whether k4 is stored as the next node's derivative
        if self.rk4 and not stored:  # one step, each stage on its own state
            d2, d3, d4, failures = self._stages(k0)
        else:
            delayed = self._gather(k0, count)
            dv, failures = field.flux_rows(times.reshape(-1), *_observed(delayed.reshape(-1, self.width, field.batch), n))
            dv = dv.transpose(1, 2, 0)  # (count * S, N, B)
            d2 = d3 = dv[0::2]  # rk4's k3 is k2: k2's rows and time
            d4 = dv[1::2]
        span = self.states[r0 : r0 + count + 1]
        v, y = span[:, n - 1 : 2 * n - 1], span[:, 2 * n - 1 :]
        if self.rk4:
            node = self.derivs[r0 : r0 + count + 1]
            if stored:
                node[1:, n - 1 : 2 * n - 1] = d4
            twice = 2.0 * d2
            mean = node[:-1, n - 1 : 2 * n - 1] + twice  # d1 + 2*d2
            np.multiply(mean + (twice if d3 is d2 else 2.0 * d3) + d4, h / 6.0, out=v[1:])
            np.add.accumulate(v, axis=0, out=v)
            # y' = kappa*v is linear, so RK4's weighted average of the stages'
            # headway rows is the headway rows of the mean stage speed,
            # v + h*(k1 + k2 + k3)/6; with k3 = k2, d1 + 2*d2 is
            # d1 + (d2 + d3) bit for bit.
            if d3 is not d2:
                mean = node[:-1, n - 1 : 2 * n - 1] + (d2 + d3)
            mean *= h / 6.0
            mean += v[:-1]
            if stored:
                node[1:, 2 * n - 1 :] = field.headway_rows(v[1:].transpose(2, 0, 1)).transpose(1, 2, 0)
        else:
            np.multiply(dv, h, out=v[1:])
            np.add.accumulate(v, axis=0, out=v)
            mean = v[:-1]  # Euler's one stage is the node
        np.multiply(field.headway_rows(mean.transpose(2, 0, 1)).transpose(1, 2, 0), h, out=y[1:])
        np.add.accumulate(y, axis=0, out=y)
        _add_sums(self.hist[: 1 + stored, r0 + 1 : r0 + count + 1], n)  # the new nodes' values and stored derivatives
        new = span[1:, n - 1 :]
        if not failures and np.maximum.reduce(abs(new), axis=None) <= _BLOWUP_LIMIT:  # NaN fails this test
            return
        # A newly failing member fails at its first failing row, whose time less its pair's delay is the error's t,
        # or its first node past the limit, whichever a step loop meets first: a step's stages come before its node.
        events = {}
        for b, exc in failures.items():
            if b not in self.errors:
                row = int(np.searchsorted(times.reshape(-1) - field.tau[exc.pair - 1], exc.t))
                events[b] = (row // times.shape[1], exc)
        over = ~(abs(new).max(axis=1) <= _BLOWUP_LIMIT)  # (count, B): node k0 + q + 1 is past the limit
        for b in np.flatnonzero(over.any(axis=0)).tolist():
            q = int(over[:, b].argmax())
            if b not in self.errors and q < events.get(b, (count,))[0]:
                events[b] = (q, NumericalError(f"trajectory blew up at t = {(k0 + q + 1) * h:.6g}"))
        _retire({b: exc for b, (q, exc) in events.items()}, self.errors, (self.hist, self.rows))


def _retire(failures: dict, errors: dict, arrays) -> None:
    """Record each newly failed member's error and zero its rows, an equilibrium of the field."""
    for member, exc in failures.items():
        if member not in errors:
            errors[member] = exc
            for arr in arrays:
                arr[..., member] = 0.0


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SettlingReport:
    """Per-pair settling times (None = not settled by the horizon) and their max."""

    epsilon: float
    per_pair: tuple[float | None, ...]
    overall: float | None


def settling_time(traj: Trajectory, epsilon: float = 0.05) -> SettlingReport:
    """First time after which max(|v_i|, |y_i|) stays within epsilon, per pair.

    A pair that re-exceeds epsilon later is not settled at the earlier
    excursion.  The overall time is the maximum over pairs, or None if any
    pair never settles.  epsilon must be positive and finite.
    """
    settling = _Settling(traj.t, epsilon)
    settling.add(0, traj.states[None])  # the stored run, fed whole as a batch of one
    return settling.reports()[0]


@dataclass(frozen=True)
class EnvelopeReport:
    """Half peak-to-peak amplitude of each signal over the trailing window."""

    v: np.ndarray
    y: np.ndarray
    t_start: float
    t_end: float

    @property
    def max_v(self) -> float:
        return float(self.v.max())


def amplitude_envelope(traj: Trajectory, tail_fraction: float = 0.25) -> EnvelopeReport:
    """Amplitudes (max-min)/2 of every v_i and y_i over the final tail_fraction.

    For a settled trajectory this tends to zero; for a limit cycle it
    estimates the cycle amplitude provided the tail spans at least a few
    periods.
    """
    envelope = _TailEnvelope(traj.t, tail_fraction)
    envelope.add(0, traj.states[None])
    return envelope.reports()[0]


# A reducer is built on a run's time grid t, and checks its argument then.  It
# takes node states in order as ``_run``'s sink does and reports per member.


class _Settling:
    """Each member's last node, per pair, at which max(|v_i|, |y_i|) exceeds epsilon."""

    def __init__(self, t, epsilon: float):
        if not 0 < epsilon < math.inf:
            raise InvalidConfigError(f"epsilon must be positive and finite, got {epsilon}")
        self.t, self.epsilon = t, epsilon
        self.last = None  # -1 where no node has exceeded epsilon

    def add(self, k: int, rows: np.ndarray) -> None:
        n = rows.shape[2] // 2
        above = np.maximum(np.abs(rows[..., :n]), np.abs(rows[..., n:])) > self.epsilon  # (B, count, N)
        if self.last is None:
            self.last = np.full((rows.shape[0], n), -1)
        np.copyto(self.last, k + rows.shape[1] - 1 - above[:, ::-1].argmax(axis=1), where=above.any(axis=1))

    def reports(self) -> list[SettlingReport]:
        end = len(self.t) - 1  # a pair above epsilon at the last node has not settled
        times = [tuple(0.0 if j < 0 else None if j == end else float(self.t[j + 1]) for j in last) for last in self.last.tolist()]
        return [SettlingReport(self.epsilon, ts, None if None in ts else max(ts)) for ts in times]


class _TailEnvelope:
    """Each member's running maximum and minimum of every signal over the final tail_fraction of t."""

    def __init__(self, t, tail_fraction: float):
        self.k0 = tail_window(t, tail_fraction)
        self.t_start, self.t_end = float(t[self.k0]), float(t[-1])
        self.hi = self.lo = None

    def add(self, k: int, rows: np.ndarray) -> None:
        rows = rows[:, max(self.k0 - k, 0) :]
        if not rows.shape[1]:
            return
        hi, lo = rows.max(axis=1), rows.min(axis=1)
        if self.hi is None:
            self.hi, self.lo = hi, lo
        else:
            np.maximum(self.hi, hi, out=self.hi)
            np.minimum(self.lo, lo, out=self.lo)

    def reports(self) -> list[EnvelopeReport]:
        n = self.hi.shape[1] // 2
        amps = 0.5 * (self.hi - self.lo)
        return [EnvelopeReport(v=a[:n], y=a[n:], t_start=self.t_start, t_end=self.t_end) for a in amps]


def tail_window(t, tail_fraction: float) -> int:
    """The first index of the final tail_fraction of the time grid t, whose window must hold at least 10 samples.

    t may be any increasing sequence: a stored run's grid, or the grid's
    times computed as they are read (``_Times``), so that the envelope
    reducer checks the window rule before integrating.
    """
    if not 0 < tail_fraction <= 1:
        raise InvalidConfigError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    t_end = float(t[-1])
    t_start = t_end - tail_fraction * (t_end - float(t[0]))
    k0 = bisect.bisect_left(t, t_start - 1e-12)
    if len(t) - k0 < 10:
        raise InvalidConfigError(f"amplitude window has only {len(t) - k0} samples; need at least 10")
    return k0


class _Times:
    """The times of :meth:`SimConfig.grid`, each computed as it is read, so that no array as long as the run is made."""

    def __init__(self, sc: SimConfig):
        self.count, self.h = sc.steps + 1, sc.step

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> float:
        return (k % self.count) * self.h  # the grid's k*h, from the end when k < 0


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write t,v_1..v_N,y_1..y_N rows, each value as ``"%.17g"`` formats it, which round-trips exactly.

    The text comes a block of rows at a time from :func:`ccfmlab._g17.format_rows`,
    a module imported on first use, so that importing ccfmlab does not load it.
    """
    from ._g17 import format_rows

    n = traj.n
    header = "t," + ",".join(f"v_{i}" for i in range(1, n + 1)) + "," + ",".join(
        f"y_{i}" for i in range(1, n + 1)
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for k in range(0, traj.t.size, _CSV_BLOCK_ROWS):
            rows = slice(k, k + _CSV_BLOCK_ROWS)
            fh.write(format_rows(np.column_stack((traj.t[rows], traj.states[rows]))))
