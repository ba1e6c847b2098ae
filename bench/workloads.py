"""The three benchmark workloads: inputs, the timed body, and the checks.

Each workload builds its inputs from a seed (`make_inputs`), runs one round
of operations through ccfmlab's public entry points (`run_round`), and
checks a round's outputs against computations made here, apart from the
program (`check`).  A round always attempts the same operations, so the
share of failed operations does not depend on how many rounds a run fits.

The program is always reached through module attributes (`ccfmlab.cli.main`,
`ccfmlab.dominant_root`, ...) at call time, so that the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

import ccfmlab
import ccfmlab.cli
from ccfmlab import CcfmError, LeaderProfile, PlatoonConfig, VehicleParams

INV_E = 1.0 / math.e
HALF_PI = 0.5 * math.pi


@dataclass
class Verdict:
    """Outcome of checking one round: operations, failures, and broken checks."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _lambertw():
    # scipy is an oracle only; it is imported after the timed rounds so that
    # it adds nothing to the measured resident size.
    from scipy.special import lambertw

    return lambertw


def _root(product: float, tau: float) -> complex:
    """Rightmost root of lambda + a exp(-lambda tau) = 0 with a*tau = product: W_0(-product)/tau."""
    return complex(_lambertw()(-product, 0)) / tau


def _decay_rate(product: float, tau: float) -> float:
    return -_root(product, tau).real


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ccfmlab.cli.main(argv)
    return rc, buf.getvalue()


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _write_config(path: str, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)


def _check_svg(v: Verdict, path: str) -> None:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        v.expect(False, f"{os.path.basename(path)} is not well-formed SVG: {exc}")
        return
    v.expect(root.tag.endswith("svg"), f"{os.path.basename(path)}: root element is {root.tag!r}")


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


# ---------------------------------------------------------------------------
# sweep: `ccfm bifurcation` across the Hopf point of a single follower
# ---------------------------------------------------------------------------


class Sweep:
    """32 gains from clearly damped to clearly oscillating, integrated with rk4.

    Single follower at l = 0 with m = 2, tau = pi/7 and alpha = 0.035, so
    beta* = 3.5 and kappa_cr = pi/(2 beta* tau) = 1.  With l = 0 the gain does
    not depend on the headway, the velocity equation has an isolated
    equilibrium, and the cycle amplitudes have the sqrt(kappa - kappa_cr) law
    as an independent check.  The seed draws the initial speed perturbation.
    """

    name = "sweep"
    TAU = math.pi / 7
    X0 = 10.0
    ALPHA = 0.035
    KAPPA_RANGE = (0.876, 1.124)  # 32 points, step 0.008; none within 0.004 of kappa_cr
    POINTS = 32
    STEP = 0.05
    HORIZON = 80.0
    TAIL = 0.25
    STATIONARY_FROM = 1.065  # these gains reach their cycle well before the tail window
    DECAY_TOL = 0.10
    SQRT_LAW_TOL = 0.03
    PREDICTION_TOL = 0.05

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = out_dir

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.v0 = float(rng.uniform(0.08, 0.12))
        cfg = {
            "N": 1,
            "vehicles": [{"alpha": self.ALPHA, "tau": self.TAU, "b": 20.0}],
            "m": 2.0,
            "l": 0.0,
            "leader": {"v_eq": self.X0, "ramp": 10.0},
            "kappa": 1.0,
        }
        self.config_path = os.path.join(self.out, "single.json")
        _write_config(self.config_path, cfg)
        self.pc = PlatoonConfig(
            vehicles=(VehicleParams(alpha=self.ALPHA, tau=self.TAU, b=20.0),),
            m=2.0,
            l=0.0,
            leader=LeaderProfile(v_eq=self.X0, ramp=10.0),
        )
        lo, hi = self.KAPPA_RANGE
        self.kappas = [lo + k * (hi - lo) / (self.POINTS - 1) for k in range(self.POINTS)]
        self.compared = [k for k in self.kappas if k >= self.STATIONARY_FROM]
        self.argv = [
            "bifurcation", "--config", self.config_path, "--out", os.path.join(self.out, "artifacts"),
            "--kappa-range", f"{lo!r},{hi!r}", "--points", str(self.POINTS),
            "--method", "rk4", "--ts", repr(self.STEP), "--tmax", repr(self.HORIZON),
            "--tail", repr(self.TAIL), "--perturb-v", repr(self.v0), "--workers", "1",
        ]

    @property
    def ops_per_round(self) -> int:
        return self.POINTS + len(self.compared)

    def run_round(self):
        rc, stdout = _run_cli(self.argv)
        report = ccfmlab.hopf_report(self.pc)
        predicted = [ccfmlab.predicted_amplitude(report, k) for k in self.compared]
        return rc, stdout, report, predicted

    def artifacts(self) -> list[str]:
        art = os.path.join(self.out, "artifacts")
        return [os.path.join(art, "bifurcation.csv"), os.path.join(art, "bifurcation.svg")]

    def digest(self, output) -> str:
        rc, _, report, predicted = output
        return _digest_files(self.artifacts()) + repr((rc, report.to_dict(), predicted))

    def check(self, output) -> Verdict:
        rc, _, report, predicted = output
        v = Verdict(attempted=self.ops_per_round, failed=0)
        if rc != 0:
            v.failed = self.ops_per_round
            v.notes.append(f"ccfm bifurcation exited with {rc}")
            return v
        csv_path, svg_path = self.artifacts()
        header, data = _read_csv(csv_path)
        v.expect(header == ["kappa", "amp_v_1"], f"bifurcation.csv header {header}")
        v.expect(data.shape == (self.POINTS, 2), f"bifurcation.csv has shape {data.shape}")
        if v.problems:
            return v
        kappas, amps = data[:, 0], data[:, 1]
        v.expect(np.allclose(kappas, self.kappas, rtol=1e-12, atol=0), "gain grid differs from the requested range")
        _check_svg(v, svg_path)

        beta = self.ALPHA * self.X0**2
        kappa_cr = math.pi / (2.0 * beta * self.TAU)
        t_start = (1.0 - self.TAIL) * self.HORIZON
        worst_decay = -math.inf
        ratios = []
        for kappa, amp in zip(self.kappas, amps):
            lam = _root(kappa * beta * self.TAU, self.TAU)
            rate = -lam.real
            if kappa < kappa_cr:
                # The window's max and min are the first crest and trough
                # after t_start, both within one period: with g the decay over
                # half a period, (max - min)/2 lies between g(1+g)/2 and
                # (1+g)/2 times v0*exp(-sigma*t_start).
                expected = self.v0 * math.exp(-rate * t_start)
                g = math.exp(-rate * math.pi / abs(lam.imag))
                ratio = amp / expected
                lo, hi = g * (1.0 + g) / 2.0, (1.0 + g) / 2.0
                excess = max(lo / ratio - 1.0, ratio / hi - 1.0)
                worst_decay = max(worst_decay, excess)
                v.expect(excess <= self.DECAY_TOL, f"kappa={kappa:.4f}: tail amplitude {amp:.6g} vs linear decay {expected:.6g}")
            elif kappa >= self.STATIONARY_FROM:
                # Growth from v0 at the linear rate, then relaxation onto the
                # cycle at twice that rate: the window must start >= 6 e-folds
                # of relaxation after the growth is done.
                growth = lam.real
                t_grow = math.log(amp / self.v0) / growth
                v.expect(2.0 * growth * (t_start - t_grow) >= 6.0, f"kappa={kappa:.4f}: tail window is not stationary")
                ratios.append(amp / math.sqrt(kappa - kappa_cr))
        spread = (max(ratios) - min(ratios)) / float(np.median(ratios))
        v.expect(
            all(abs(r / np.median(ratios) - 1.0) <= self.SQRT_LAW_TOL for r in ratios),
            f"amplitude/sqrt(kappa - kappa_cr) is not constant: {min(ratios):.4f}..{max(ratios):.4f}",
        )
        v.expect(bool(np.all(np.diff(amps) > 0)), "amplitudes do not rise with kappa")
        v.notes.append(f"damped gains: largest excess of amplitude/(v0*exp(-sigma*t_start)) beyond its phase bounds {worst_decay:+.2%}")
        v.notes.append(f"amplitude/sqrt(kappa-kappa_cr): {min(ratios):.4f}..{max(ratios):.4f} (spread {spread:.2%})")

        # Kept as failed: the normal-form amplitude against the stationary cycles.
        by_kappa = dict(zip(self.kappas, amps))
        worst = []
        for kappa, pred in zip(self.compared, predicted):
            amp = by_kappa[kappa]
            if pred is None or abs(pred / amp - 1.0) > self.PREDICTION_TOL:
                v.failed += 1
            if pred is not None:
                worst.append(amp / pred)
        if worst:
            v.notes.append(f"measured/predicted amplitude: {min(worst):.4f}..{max(worst):.4f} ({report.kind})")
        return v


# ---------------------------------------------------------------------------
# platoon: one long `ccfm simulate` of eight vehicles on the line of equilibria
# ---------------------------------------------------------------------------


class Platoon:
    """One 300 s rk4 run of eight pairs at m = 2, l = 1, with CSV and SVG output.

    The seed draws every pair's delay, headway and stability product: three
    products in the monotone regime (<= 1/e), four in the oscillatory one, and
    one close to pi/2, which sets the slowest decay.  No pair is unstable.
    """

    name = "platoon"
    N = 8
    X0 = 10.0
    STEP = 0.02
    HORIZON = 300.0
    TRAPEZOID_TOL = 1e-4
    RATE_TOL = 1e-4

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = out_dir

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        taus = rng.uniform(0.3, 0.6, self.N)
        bs = rng.uniform(15.0, 25.0, self.N)
        products = np.concatenate(
            [rng.uniform(0.10, 0.33, 3), rng.uniform(0.45, 1.20, 4), rng.uniform(1.46, 1.52, 1)]
        )
        rng.shuffle(products)
        alphas = products * bs / (taus * self.X0**2)
        self.vehicles = [(float(a), float(t), float(b)) for a, t, b in zip(alphas, taus, bs)]
        self.v0 = float(rng.uniform(0.05, 0.15))
        cfg = {
            "N": self.N,
            "vehicles": [{"alpha": a, "tau": t, "b": b} for a, t, b in self.vehicles],
            "m": 2.0,
            "l": 1.0,
            "leader": {"v_eq": self.X0, "ramp": 10.0},
            "kappa": 1.0,
        }
        self.config_path = os.path.join(self.out, "platoon.json")
        _write_config(self.config_path, cfg)
        self.argv = [
            "simulate", "--config", self.config_path, "--out", os.path.join(self.out, "artifacts"),
            "--method", "rk4", "--ts", repr(self.STEP), "--tmax", repr(self.HORIZON),
            "--perturb-v", repr(self.v0),
        ]

    ops_per_round = 1

    def run_round(self):
        return _run_cli(self.argv)

    def artifacts(self) -> list[str]:
        art = os.path.join(self.out, "artifacts")
        return [os.path.join(art, "simulate.csv"), os.path.join(art, "simulate.svg")]

    def digest(self, output) -> str:
        return _digest_files(self.artifacts()) + repr(output)

    def check(self, output) -> Verdict:
        rc, _ = output
        v = Verdict(attempted=self.ops_per_round, failed=0)
        if rc != 0:
            v.failed = self.ops_per_round
            v.notes.append(f"ccfm simulate exited with {rc}")
            return v
        n = self.N
        csv_path, svg_path = self.artifacts()
        header, data = _read_csv(csv_path)
        steps = int(math.ceil(self.HORIZON / self.STEP - 1e-9))
        want = ["t"] + [f"v_{i}" for i in range(1, n + 1)] + [f"y_{i}" for i in range(1, n + 1)]
        v.expect(header == want, f"simulate.csv header {header}")
        v.expect(data.shape == (steps + 1, 2 * n + 1), f"simulate.csv has shape {data.shape}")
        if v.problems:
            return v
        _check_svg(v, svg_path)
        t, vel, y = data[:, 0], data[:, 1 : n + 1], data[:, n + 1 :]
        v.expect(
            bool(np.all(np.abs(t - np.arange(steps + 1) * self.STEP) <= 1e-12 * self.HORIZON)),
            "time column is not the grid t_k = k*h",
        )
        v.expect(bool(np.all(vel[0] == self.v0) and np.all(y[0] == 0.0)), "first row is not the initial state")

        # y_i' = kappa v_i: the headway change is the trapezoid integral of v.
        integral = np.vstack([np.zeros((1, n)), np.cumsum(0.5 * (vel[1:] + vel[:-1]) * np.diff(t)[:, None], axis=0)])
        drift = y - y[0]
        gap = float(np.max(np.abs(drift - integral)))
        v.expect(gap <= self.TRAPEZOID_TOL * max(1.0, float(np.max(np.abs(drift)))), f"y - y(0) vs trapezoid integral of v: {gap:.3g}")
        v.notes.append(f"y - y(0) vs trapezoid integral of v: max gap {gap:.3g}")

        # Tail decay: every pair decays at the rate of the gain it has landed
        # on, beta_i(y) = alpha_i x0^m / (b_i + y)^l at the final headway.
        rates, products = [], []
        for (alpha, tau, b), y_end in zip(self.vehicles, y[-1]):
            product = alpha * self.X0**2 / (b + y_end) * tau
            products.append(product)
            rates.append(_decay_rate(product, tau))
        v.expect(max(products) < HALF_PI, f"a pair is unstable on its landing headway: {max(products):.6g}")
        expected = min(rates)
        fitted = self._tail_rate(t, vel)
        if fitted is None:
            v.expect(False, "too few extrema in the tail to fit a decay rate")
        else:
            rel = abs(fitted / expected - 1.0)
            v.expect(rel <= self.RATE_TOL, f"tail decay rate {fitted:.10g} vs drift-corrected {expected:.10g}")
            v.notes.append(f"tail decay rate {fitted:.6g} vs min_i sigma_i(y_i(T)) {expected:.6g}: rel {rel:.2g}")
        return v

    @staticmethod
    def _tail_rate(t: np.ndarray, vel: np.ndarray) -> float | None:
        """Decay rate over the second half of the pair that is largest at the end.

        Every pair downstream of the slowest one is driven by it, so the
        pair with the largest |v_i| over the last tenth decays at the slowest rate.
        The extrema of a decaying oscillation are evenly spaced and their
        heights fall exactly by exp(-sigma * spacing), so a straight-line
        fit of log peak height against peak time gives sigma.  (Taking the
        envelope max_i |v_i| instead would mix the phases of several pairs.)
        """
        k0 = t.size // 2
        pair = int(np.argmax(np.max(np.abs(vel[-(t.size // 10) :]), axis=0)))
        env = np.abs(vel[k0:, pair])
        tt = t[k0:]
        inner = np.nonzero((env[1:-1] >= env[:-2]) & (env[1:-1] > env[2:]))[0] + 1
        if inner.size < 10:
            return None
        y0, y1, y2 = env[inner - 1], env[inner], env[inner + 1]
        curv = y0 - 2.0 * y1 + y2
        off = np.where(curv != 0.0, 0.5 * (y0 - y2) / np.where(curv != 0.0, curv, 1.0), 0.0)
        heights = y1 - 0.25 * (y0 - y2) * off
        times = tt[inner] + off * (tt[1] - tt[0])
        slope = np.polyfit(times, np.log(heights), 1)[0]
        return float(-slope)


# ---------------------------------------------------------------------------
# analysis: certified roots, rate curves and Hopf reports, no integration
# ---------------------------------------------------------------------------


def _exact_product_beta(rng, target: float) -> tuple[float, float, float]:
    """(beta*, tau, kappa) whose float product (kappa*beta*)*tau equals target exactly."""
    for _ in range(10_000):
        tau = float(rng.uniform(0.05, 2.0))
        kappa = float(rng.uniform(0.5, 2.0))
        start = target / (kappa * tau)
        for direction in (math.inf, -math.inf):
            beta = start
            for _ in range(64):
                if kappa * beta * tau == target:
                    return beta, tau, kappa
                beta = math.nextafter(beta, direction)
    raise RuntimeError(f"no exact product {target!r} found")


class Analysis:
    """Three families of library calls, each sized to take about 0.6 s a round.

    * roots: certified `dominant_root` and `classify_pair` on (beta*, tau,
      kappa) drawn in all three regimes, plus products exactly 1/e and pi/2;
    * rates: `rate_curve` over tau grids reaching past pi/2, three l each;
    * reports: `hopf_report` on platoons of 1-8 vehicles over six (m, l).
    """

    name = "analysis"
    ROOTS_PER_REGIME = 150
    ROOTS_PER_BOUNDARY = 15
    PRODUCT_RANGES = ((0.01, 0.36), (0.38, 1.56), (1.58, 3.0))  # monotone, oscillatory, unstable
    RATE_CURVES = 60
    RATE_TAUS = 360
    REPORTS = 550
    EXPONENTS = ((2.0, 1.0), (1.0, 1.0), (0.5, 0.5), (-1.0, 1.5), (2.0, 0.0), (1.5, 2.0))
    ROOT_TOL = 1e-10
    BRANCH_POINT_TOL = 1e-7  # sqrt(eps): W_0 is not differentiable at -1/e
    RATE_TOL = 1e-10
    REPORT_TOL = 1e-12

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = out_dir

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        roots = []
        for lo, hi in self.PRODUCT_RANGES:
            for _ in range(self.ROOTS_PER_REGIME):
                tau = float(rng.uniform(0.05, 2.0))
                kappa = float(rng.uniform(0.5, 2.0))
                roots.append((float(rng.uniform(lo, hi)) / (kappa * tau), tau, kappa))
        for target in (INV_E, HALF_PI):
            roots.extend(_exact_product_beta(rng, target) for _ in range(self.ROOTS_PER_BOUNDARY))
        self.roots = roots

        curves = []
        for _ in range(self.RATE_CURVES):
            alpha = float(rng.uniform(0.3, 1.5))
            x0 = float(rng.uniform(5.0, 20.0))
            m = float(rng.choice([-1.0, 0.5, 1.0, 2.0]))
            b = float(rng.uniform(18.0, 22.0))
            kappa = float(rng.uniform(0.5, 2.0))
            l_mid = float(rng.uniform(0.8, 1.2))
            ls = [l_mid - 0.1, l_mid, l_mid + 0.1]
            beta_mid = alpha * x0**m / b**l_mid
            tau_hi = 1.9 / (kappa * beta_mid)
            taus = [tau_hi * (k + 1) / self.RATE_TAUS for k in range(self.RATE_TAUS)]
            curves.append((alpha, x0, m, b, ls, taus, kappa))
        self.curves = curves

        platoons = []
        for k in range(self.REPORTS):
            n = 1 + k % 8
            m, l = self.EXPONENTS[k % len(self.EXPONENTS)]
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
            platoons.append(PlatoonConfig(vehicles, m, l, LeaderProfile(x0, 10.0)))
        self.platoons = platoons

    @property
    def ops_per_round(self) -> int:
        return len(self.roots) + sum(len(c[4]) * len(c[5]) for c in self.curves) + len(self.platoons)

    def run_round(self):
        roots = []
        for beta, tau, kappa in self.roots:
            try:
                roots.append((ccfmlab.classify_pair(beta, tau, kappa).regime.value, ccfmlab.dominant_root(beta, tau, kappa)))
            except CcfmError as exc:
                roots.append(exc)
        curves = []
        for alpha, x0, m, b, ls, taus, kappa in self.curves:
            try:
                curves.append(ccfmlab.rate_curve(alpha, x0, m, b, ls, taus, kappa=kappa))
            except CcfmError as exc:
                curves.append(exc)
        reports = []
        for pc in self.platoons:
            try:
                reports.append(ccfmlab.hopf_report(pc))
            except CcfmError as exc:
                reports.append(exc)
        return roots, curves, reports

    def digest(self, output) -> str:
        roots, curves, reports = output
        h = hashlib.sha256()
        h.update(repr(roots).encode())
        h.update(repr(curves).encode())
        h.update(repr([r if isinstance(r, Exception) else r.to_dict() for r in reports]).encode())
        return h.hexdigest()

    def check(self, output) -> Verdict:
        lambertw = _lambertw()
        roots, curves, reports = output
        v = Verdict(attempted=self.ops_per_round, failed=0)

        worst_root = 0.0
        for (beta, tau, kappa), res in zip(self.roots, roots):
            if isinstance(res, Exception):
                v.failed += 1
                continue
            regime, root = res
            product = kappa * beta * tau
            lam = root.lam
            if product == INV_E:
                # Double real root lambda*tau = -1 at the branch point.
                err = abs(lam * tau + 1.0)
                v.expect(err <= self.BRANCH_POINT_TOL, f"branch-point root {lam!r} at tau={tau!r}")
            else:
                ref = complex(lambertw(-product, 0)) / tau
                ref = ref.conjugate() if ref.imag < 0 else ref
                err = abs(lam - ref) / abs(ref)
                worst_root = max(worst_root, err)
                v.expect(err <= self.ROOT_TOL, f"root {lam!r} vs W_0 {ref!r} (product {product!r})")
            v.expect(root.verified and root.right_count == 0, f"root at product {product!r} is not certified")
            re_t, im_t = lam.real * tau, lam.imag * tau
            if regime == "NonOscillatoryStable":
                ok = re_t < 0 and abs(im_t) <= self.BRANCH_POINT_TOL
            elif regime == "OscillatoryStable":
                ok = re_t < 1e-12 and im_t > 0
            else:
                ok = re_t > -1e-12 and im_t > 0
            v.expect(ok, f"regime {regime} disagrees with root {lam!r} (product {product!r})")
        v.notes.append(f"roots vs W_0: worst relative error {worst_root:.2g}")

        worst_rate = 0.0
        for (alpha, x0, m, b, ls, taus, kappa), res in zip(self.curves, curves):
            if isinstance(res, Exception):
                v.failed += len(ls) * len(taus)
                continue
            grid = [(l, tau) for l in ls for tau in taus]
            v.expect(len(res) == len(grid), f"rate_curve returned {len(res)} points")
            v.expect(all(pt.l == l and pt.tau == tau for pt, (l, tau) in zip(res, grid)), "rate points out of order")
            products = np.array([kappa * (alpha * x0**m / b**l) * tau for l, tau in grid])
            tau_arr = np.array([tau for _, tau in grid])
            refs = -lambertw(-products, 0).real / tau_arr
            for pt, product, ref, tau in zip(res, products, refs, tau_arr):
                if product >= HALF_PI:
                    v.expect(pt.branch == "unstable" and math.isnan(pt.rate), f"product {product!r} >= pi/2 not flagged unstable")
                    continue
                v.expect(pt.branch != "unstable", f"product {product!r} < pi/2 flagged unstable")
                # Next to product pi/2 the rate goes to zero and its error is
                # set by the rounding of the product, so small rates are
                # compared on the scale 1e-3/tau.
                err = abs(pt.rate - ref) / max(ref, 1e-3 / tau)
                worst_rate = max(worst_rate, err)
                v.expect(err <= self.RATE_TOL, f"rate {pt.rate!r} vs {ref!r} (product {product!r})")
        v.notes.append(f"rates vs -Re W_0/tau: worst relative error {worst_rate:.2g}")

        kinds: dict[str, int] = {}
        for pc, rep in zip(self.platoons, reports):
            if isinstance(rep, Exception):
                v.failed += 1
                continue
            products = [veh.alpha * pc.leader.v_eq**pc.m / veh.b**pc.l * veh.tau for veh in pc.vehicles]
            pair = int(np.argmax(products)) + 1
            veh = pc.vehicles[pair - 1]
            beta = veh.alpha * pc.leader.v_eq**pc.m / veh.b**pc.l
            omega0 = math.pi / (2.0 * veh.tau)
            kappa_cr = math.pi / (2.0 * beta * veh.tau)
            # d lambda/d kappa = lambda / (kappa (1 + tau lambda)) at lambda = i omega0.
            aprime = (1j * omega0 / (kappa_cr * (1.0 + 1j * omega0 * veh.tau))).real
            v.expect(rep.pair == pair, f"report pair {rep.pair}, argmax of beta*tau is {pair}")
            for label, got, want in (("omega0", rep.omega0, omega0), ("kappa_cr", rep.kappa_cr, kappa_cr), ("alpha'", rep.alpha_prime, aprime)):
                v.expect(abs(got / want - 1.0) <= self.REPORT_TOL, f"{label} {got!r} vs {want!r}")
            if rep.kind != "degenerate":
                v.expect((rep.kind == "supercritical") == (rep.mu2 > 0), f"kind {rep.kind} with mu2 = {rep.mu2!r}")
            kinds[rep.kind] = kinds.get(rep.kind, 0) + 1
        v.notes.append("hopf reports: " + ", ".join(f"{k} {c}" for k, c in sorted(kinds.items())))
        return v


WORKLOADS = {cls.name: cls for cls in (Sweep, Platoon, Analysis)}
