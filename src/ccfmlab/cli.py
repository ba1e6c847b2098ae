"""Command-line front end: ``ccfm <command> ...``.

Every command writes its artifacts (<command>.csv / <command>.svg /
<command>.json, as applicable) into the directory given by --out, creating it
if needed, and prints a one-line summary to stdout.  Artifacts are
byte-deterministic: rerunning a command with identical inputs reproduces
identical files.

Exit codes: 0 on success, 2 for configuration/argument problems, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import CcfmError, InvalidConfigError, NumericalError
from .hopf import hopf_report
from .integrate import SimConfig, settling_times, simulate, tail_envelopes, write_trajectory_csv
from .model import (
    EquilibriumCoefficients,
    PlatoonConfig,
    PlatoonState,
    beta_star,
    load_config,
)
from .rates import optimal_delay, rate_curve
from .spectral import classify_platoon, stability_region_margin
from .svg import LineChart

__all__ = ["main"]


def _parse_float_list(text: str, flag: str, allow_empty: bool = False) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InvalidConfigError(f"{flag} expects finite numbers, got {text!r}")
    if not values and not allow_empty:
        raise InvalidConfigError(f"{flag} must contain at least one value")
    return values


def _ensure_outdir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidConfigError(f"cannot create output directory {path!r}: {exc}") from exc
    return path


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_table(path: str, header: list[str], rows) -> None:
    """Write the header, then one line per row: each number as "%.17g" formats it, each label as it is."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else "%.17g" % cell for cell in row) + "\n")


def _grid(text: str, flag: str, points: int, points_flag: str) -> tuple[float, float, list[float]]:
    """Parse the 'lo,hi' of flag; return lo, hi and the sweep of points evenly spaced values from lo to hi."""
    values = _parse_float_list(text, flag)
    if len(values) != 2 or not values[0] < values[1]:
        raise InvalidConfigError(f"{flag} expects 'lo,hi' with lo < hi, got {text!r}")
    if points < 2:
        raise InvalidConfigError(f"{points_flag} must be at least 2")
    lo, hi = values
    return lo, hi, [lo + k * (hi - lo) / (points - 1) for k in range(points)]


def _add_sim_flags(p: argparse.ArgumentParser, method: str = "euler") -> None:
    p.add_argument("--method", choices=("euler", "rk4"), default=method, help=f"integration scheme (default {method})")
    p.add_argument("--ts", type=float, default=0.01, help="integration step size")
    p.add_argument("--tmax", type=float, default=300.0, help="integration horizon")
    p.add_argument("--perturb-v", type=float, default=0.1, help="initial relative-velocity perturbation")
    p.add_argument("--perturb-y", type=float, default=0.0, help="initial headway-deviation perturbation")


def _sim_config(args) -> SimConfig:
    return SimConfig(step=args.ts, horizon=args.tmax, method=args.method)


def _perturbation(pc: PlatoonConfig, args) -> PlatoonState:
    return PlatoonState.uniform_perturbation(pc.n, v0=args.perturb_v, y0=args.perturb_y)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    pc = load_config(args.config)
    if args.kappa is not None:
        pc = pc.with_kappa(args.kappa)
    traj = simulate(pc, _sim_config(args), _perturbation(pc, args))
    out = _ensure_outdir(args.out)
    write_trajectory_csv(traj, os.path.join(out, "simulate.csv"))
    chart = LineChart(
        title=f"Relative velocities (kappa = {pc.kappa:g}, {args.method})",
        xlabel="t",
        ylabel="v_i(t)",
    )
    step = max(1, traj.t.size // 2000)  # fewer than 4000 points a curve
    for i in range(pc.n):
        chart.add(traj.t[::step], traj.v[::step, i], label=f"v_{i + 1}")
    chart.write(os.path.join(out, "simulate.svg"))
    final = float(np.max(np.abs(traj.states[-1])))
    print(f"simulate: {traj.t.size} samples over [0, {traj.t[-1]:g}], final max |state| = {final:.6g}")
    return 0


def _cmd_classify(args) -> int:
    pc = load_config(args.config)
    eq = EquilibriumCoefficients.from_config(pc)
    verdicts = classify_platoon(eq, kappa=pc.kappa)
    out = _ensure_outdir(args.out)
    payload = {
        "kappa": pc.kappa,
        "pairs": [v.to_dict() for v in verdicts],
        "all_stable": all(v.regime.value != "Unstable" for v in verdicts),
    }
    _write_json(os.path.join(out, "classify.json"), payload)
    for v in verdicts:
        print(f"pair {v.pair}: product = {v.product:.6g} -> {v.regime.value}")
    return 0


def _cmd_stability_chart(args) -> int:
    m_grid = [m for m in _grid(args.m_range, "--m-range", args.m_points, "--m-points")[2] if abs(m) > 1e-9]  # the boundary is undefined at m = 0
    l_values = _parse_float_list(args.l_set, "--l-set")
    # pi/(2c), whatever m and l; read at l = 0, which checks b and c without forming 1/b (inf at a subnormal b)
    threshold = stability_region_margin(1.0, 1.0, args.b, 0.0, args.c).threshold
    rows = []
    for l in l_values:
        try:
            boundary = threshold * args.b**l  # x0dot**m at the boundary
        except OverflowError:
            raise InvalidConfigError(f"b**l overflows at b = {args.b}, l = {l}") from None
        if not 0.0 < boundary < math.inf:
            what = "underflows to 0" if boundary == 0.0 else "overflows"
            raise InvalidConfigError(f"pi/(2c)*b**l {what} at b = {args.b}, l = {l}, c = {args.c}")
        for m in m_grid:
            try:
                x0_boundary = boundary ** (1.0 / m)
            except OverflowError:
                x0_boundary = float("inf")
            rows.append(("neg" if m < 0 else "pos", l, m, x0_boundary))
    out = _ensure_outdir(args.out)
    _write_table(os.path.join(out, "stability-chart.csv"), ["panel", "l", "m", "x0dot_boundary"], rows)
    chart = LineChart(
        title=f"Stability boundary (b = {args.b:g}, c = {args.c:g})",
        xlabel="m",
        ylabel="log10 x0dot at boundary",
    )
    for k, l in enumerate(l_values):  # rows are l-major: each l value has its own slice
        series = rows[k * len(m_grid) : (k + 1) * len(m_grid)]
        xs = [m for (panel, ll, m, x0b) in series]
        ys = [math.log10(x0b) if x0b > 0 and math.isfinite(x0b) else float("nan") for (panel, ll, m, x0b) in series]
        chart.add(xs, ys, label=f"l = {l:g}")
    chart.write(os.path.join(out, "stability-chart.svg"))
    print(f"stability-chart: {len(rows)} boundary points, l in {{{args.l_set}}}")
    return 0


def _cmd_rate(args) -> int:
    tau_min, tau_max, taus = _grid(args.tau_range, "--tau-range", args.tau_points, "--tau-points")
    if tau_min <= 0:
        raise InvalidConfigError("--tau-range must start above 0")
    l_values = _parse_float_list(args.l_set, "--l-set", allow_empty=True)
    points = rate_curve(args.alpha, args.x0, args.m, args.b, l_values, taus, kappa=args.kappa)
    out = _ensure_outdir(args.out)
    _write_table(os.path.join(out, "rate.csv"), ["l", "tau", "rate", "branch"], points)
    chart = LineChart(title="Decay rate vs delay", xlabel="tau", ylabel="rate")
    for k, l in enumerate(l_values):  # points are l-major: each l value has its own slice
        series = points[k * len(taus) : (k + 1) * len(taus)]
        chart.add([pt.tau for pt in series], [pt.rate for pt in series], label=f"l = {l:g}")
        tstar = optimal_delay(beta_star(args.alpha, args.x0, args.m, args.b, l), kappa=args.kappa)
        if tau_min <= tstar <= tau_max and l not in l_values[:k]:  # one tau* line per distinct l
            chart.vlines.append((tstar, f"tau* (l = {l:g})"))
    chart.write(os.path.join(out, "rate.svg"))
    print(f"rate: {len(points)} (l, tau) points over tau in [{tau_min:g}, {tau_max:g}]")
    return 0


def _cmd_bifurcation(args) -> int:
    pc = load_config(args.config)
    kappa_min, kappa_max, kappas = _grid(args.kappa_range, "--kappa-range", args.points, "--points")
    if args.workers < 1:
        raise InvalidConfigError("--workers must be >= 1")
    envelopes = tail_envelopes([pc.with_kappa(kappa) for kappa in kappas], _sim_config(args), _perturbation(pc, args), args.tail)
    rows = [(kappa, *env.v.tolist()) for kappa, env in zip(kappas, envelopes)]
    out = _ensure_outdir(args.out)
    _write_table(os.path.join(out, "bifurcation.csv"), ["kappa"] + [f"amp_v_{i + 1}" for i in range(pc.n)], rows)
    chart = LineChart(title="Limit-cycle amplitude vs gain", xlabel="kappa", ylabel="amplitude")
    for i in range(pc.n):
        chart.add(kappas, [r[i + 1] for r in rows], label=f"v_{i + 1}")
    chart.write(os.path.join(out, "bifurcation.svg"))
    peak = max(max(r[1:]) for r in rows)
    print(f"bifurcation: {len(rows)} gains in [{kappa_min:g}, {kappa_max:g}], largest tail amplitude = {peak:.6g}")
    return 0


def _cmd_hopf(args) -> int:
    pc = load_config(args.config)
    report = hopf_report(pc, pair=args.pair)
    out = _ensure_outdir(args.out)
    _write_json(os.path.join(out, "hopf.json"), report.to_dict())
    print(
        f"hopf: pair {report.pair}, omega0 = {report.omega0:.6g}, kappa_cr = {report.kappa_cr:.6g}, "
        f"{report.kind} / orbit {report.orbit}"
    )
    return 0


def _cmd_settling(args) -> int:
    pc = load_config(args.config)
    report = settling_times([pc], _sim_config(args), _perturbation(pc, args), args.epsilon)[0]
    out = _ensure_outdir(args.out)
    _write_json(os.path.join(out, "settling.json"), dataclasses.asdict(report))
    shown = ", ".join("-" if t is None else f"{t:g}" for t in report.per_pair)
    overall = "-" if report.overall is None else f"{report.overall:g}"
    print(f"settling: per-pair [{shown}], overall {overall}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ccfm",
        description="Analysis and simulation of delayed car-following platoons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the nonlinear dynamics and dump the trajectory")
    p.add_argument("--config", required=True, help="JSON platoon configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kappa", type=float, default=None, help="override the config's gain")
    _add_sim_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="classify each pair's stability regime")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("stability-chart", help="closed-form stability boundary over (m, l)")
    p.add_argument("--out", required=True)
    p.add_argument("--b", type=float, default=20.0, help="desired headway")
    p.add_argument("--c", type=float, required=True, help="alpha*tau aggregate")
    p.add_argument("--m-range", default="-3,3", help="speed-exponent span, as 'lo,hi'")
    p.add_argument("--m-points", type=int, default=121)
    p.add_argument("--l-set", default="0.5,1.0,1.5", help="comma-separated headway exponents")
    p.set_defaults(func=_cmd_stability_chart)

    p = sub.add_parser("rate", help="decay rate versus delay, one curve per l")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x0", type=float, required=True, help="equilibrium leader speed")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--l-set", default="0.8,1.0,1.2")
    p.add_argument("--tau-range", default="0.001,0.6", help="delay span, as 'lo,hi'")
    p.add_argument("--tau-points", type=int, default=400)
    p.add_argument("--kappa", type=float, default=1.0)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("bifurcation", help="sweep the gain and measure limit-cycle amplitudes")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kappa-range", default="1,1.05", help="gain span, as 'lo,hi'")
    p.add_argument("--points", type=int, default=51)
    p.add_argument("--tail", type=float, default=0.25, help="trailing window fraction for amplitudes")
    p.add_argument("--workers", type=int, default=1, help="kept for old command lines (>= 1); starts no processes")
    _add_sim_flags(p, method="rk4")
    p.set_defaults(func=_cmd_bifurcation)

    p = sub.add_parser("hopf", help="normal-form analysis at the critical gain")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pair", type=int, default=None, help="1-based pair (default: first to turn critical)")
    p.set_defaults(func=_cmd_hopf)

    p = sub.add_parser("settling", help="settling times of a simulated trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    _add_sim_flags(p)
    p.set_defaults(func=_cmd_settling)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"ccfm: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"ccfm: numerical failure: {exc}", file=sys.stderr)
        return 3
    except CcfmError as exc:  # pragma: no cover - safety net
        print(f"ccfm: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
