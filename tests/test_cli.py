"""Command-line interface: artifact schemas, byte determinism, exit codes.

All invocations go through main(argv) in-process; the console entry point
wires to the same function.
"""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ccfmlab.cli import _build_parser, main
from ccfmlab.integrate import SimConfig
from ccfmlab.svg import LineChart

from conftest import record_slides

CONFIG = {
    "N": 4,
    "vehicles": [
        {"alpha": 0.5, "tau": 0.5, "b": 20.0},
        {"alpha": 0.6, "tau": 0.4, "b": 20.0},
        {"alpha": 0.7, "tau": 0.4488, "b": 20.0},
        {"alpha": 0.8, "tau": 0.3, "b": 20.0},
    ],
    "m": 2.0,
    "l": 1.0,
    "leader": {"v_eq": 10.0, "ramp": 10.0},
    "kappa": 1.0,
}

SINGLE = {
    "N": 1,
    "vehicles": [{"alpha": 0.7, "tau": math.pi / 7.0, "b": 20.0}],
    "m": 2.0,
    "l": 1.0,
    "leader": {"v_eq": 10.0, "ramp": 10.0},
    "kappa": 1.0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "platoon.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


@pytest.fixture
def single_path(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps(SINGLE))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_artifacts_and_determinism(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--config", config_path, "--ts", "0.05", "--tmax", "20"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    csv1 = (out1 / "simulate.csv").read_bytes()
    assert csv1 == (out2 / "simulate.csv").read_bytes()
    svg1 = (out1 / "simulate.svg").read_bytes()
    assert svg1 == (out2 / "simulate.svg").read_bytes()
    assert svg1.startswith(b"<svg")

    rows = _read_csv(out1 / "simulate.csv")
    assert rows[0] == ["t"] + [f"v_{i}" for i in range(1, 5)] + [
        f"y_{i}" for i in range(1, 5)
    ]
    assert float(rows[1][0]) == 0.0


def test_simulate_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_simulate_blow_up_exit_code(tmp_path, single_path):
    code = main(
        [
            "simulate", "--config", single_path, "--out", str(tmp_path / "o"),
            "--kappa", "400", "--tmax", "300",
        ]
    )
    assert code == 3


def test_zero_delay_rk4_artifact_keeps_its_bytes(tmp_path):
    """The platoon's first three pairs with delays 0, 0.3 and 0.01: rk4 blocks of one step, each stage on its own state."""
    cfg = dict(CONFIG, N=3, vehicles=[dict(v, tau=t) for v, t in zip(CONFIG["vehicles"], (0.0, 0.3, 0.01))])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--method", "rk4", "--tmax", "60"]) == 0
    data = (out / "simulate.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == "7bece2b0d962166db0c9cc0f3d5532cc4f661e8331c71ba01a9690b45661f65b"


def test_simulate_artifacts_keep_their_bytes(tmp_path, config_path):
    """README's ``ccfm simulate`` example: simulate.csv and simulate.svg pinned."""
    out = tmp_path / "o"
    argv = ["simulate", "--config", config_path, "--out", str(out), "--method", "euler", "--ts", "0.01", "--tmax", "300"]
    assert main(argv) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("simulate.csv", "simulate.svg")}
    assert digests == {
        "simulate.csv": "352fb37e05a0680bf819e2f03edbeb412261b0ddc89acc017bae57208e4ee9b4",
        "simulate.svg": "63f1f2ad1f832ce72fae95ecafde2bef8e668847c4bafb3c2f0d2fcdcd5d4480",
    }


@pytest.mark.parametrize("flags", [["--perturb-v", "nan"], ["--perturb-y", "inf"]])
def test_simulate_rejects_a_non_finite_perturbation(tmp_path, config_path, capsys, flags):
    """A configuration error (exit 2), not a blow-up of the integration (exit 3)."""
    assert main(["simulate", "--config", config_path, "--out", str(tmp_path / "o"), "--tmax", "10"] + flags) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_json_schema(tmp_path, config_path, capsys):
    out = tmp_path / "o"
    assert main(["classify", "--config", config_path, "--out", str(out)]) == 0
    data = json.loads((out / "classify.json").read_text())
    assert set(data) == {"kappa", "pairs", "all_stable"}
    assert data["kappa"] == 1.0
    regimes = [p["regime"] for p in data["pairs"]]
    assert regimes == [
        "OscillatoryStable",
        "OscillatoryStable",
        "Unstable",
        "OscillatoryStable",
    ]
    assert data["all_stable"] is False
    products = [p["product"] for p in data["pairs"]]
    assert products[0] == pytest.approx(1.25, rel=1e-12)
    assert products[2] == pytest.approx(1.5708, rel=1e-10)
    shown = capsys.readouterr().out
    assert "pair 3" in shown and "Unstable" in shown
    # README's ``ccfm classify`` example: its bytes are pinned
    assert hashlib.sha256((out / "classify.json").read_bytes()).hexdigest() == "6152e45b94d44dadc538ec7200deb169fb380c0fda2fb367b813b457ae9a2e32"


def test_classify_honors_config_gain(tmp_path):
    # halving the exogenous gain in the config pulls every product inside pi/2
    softened = dict(CONFIG, kappa=0.5)
    path = tmp_path / "soft.json"
    path.write_text(json.dumps(softened))
    out = tmp_path / "o"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == 0
    data = json.loads((out / "classify.json").read_text())
    assert data["kappa"] == 0.5
    assert data["all_stable"] is True


# ---------------------------------------------------------------------------
# stability-chart
# ---------------------------------------------------------------------------


def test_stability_chart_csv(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "stability-chart", "--out", str(out), "--c", "0.3",
            "--m-range=-2,2", "--m-points", "41", "--l-set", "0.0,1.0",
        ]
    )
    assert code == 0
    rows = _read_csv(out / "stability-chart.csv")
    assert rows[0] == ["panel", "l", "m", "x0dot_boundary"]
    assert (out / "stability-chart.svg").exists()
    # spot-check the closed form x0dot = (pi b^l / (2 c))^(1/m) at m=2, l=1
    # (the sensitivity coefficient is folded into the aggregate --c)
    by_key = {(r[1], r[2]): float(r[3]) for r in rows[1:]}
    want = (math.pi * 20.0 / (2.0 * 0.3)) ** 0.5
    got = by_key[("1", "2")]
    assert got == pytest.approx(want, rel=1e-9)


def test_stability_chart_artifacts_keep_their_bytes(tmp_path):
    """README's ``ccfm stability-chart`` example: stability-chart.csv and stability-chart.svg pinned."""
    out = tmp_path / "o"
    argv = ["stability-chart", "--out", str(out), "--c", "0.3", "--b", "20", "--m-range=-3,3", "--l-set", "0.5,1.0,1.5"]
    assert main(argv) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("stability-chart.csv", "stability-chart.svg")}
    assert digests == {
        "stability-chart.csv": "4c76fc45bfe2b15ca7b0dad4b7a0fab9293bfba21e6fb7b1b1690970064c4b36",
        "stability-chart.svg": "633c9318b849b9510714efe1753f897199cc8bf446b6f1671f1cf3c78b0e5f1d",
    }


def test_stability_chart_bad_range_exit_code(tmp_path):
    out = tmp_path / "o"
    assert main(["stability-chart", "--out", str(out), "--c", "0.3", "--m-range", "2,1"]) == 2


@pytest.mark.parametrize(
    "flags",
    [["--c", "nan"], ["--c", "0.3", "--b", "inf"], ["--c", "0.3", "--l-set", "nan"], ["--c", "0.3", "--m-range=-inf,2"]],
)
def test_stability_chart_rejects_non_finite_values(tmp_path, capsys, flags):
    assert main(["stability-chart", "--out", str(tmp_path / "o")] + flags) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_stability_chart_writes_an_overflowing_boundary_as_inf(tmp_path):
    """Near m = 0 the boundary (threshold * b**l)**(1/m) leaves the doubles: inf at m = 0.01 once l >= 1, and 0 at m = -0.01."""
    out = tmp_path / "o"
    assert main(["stability-chart", "--out", str(out), "--c", "0.01", "--m-range=-0.02,0.02", "--m-points", "5"]) == 0
    rows = _read_csv(out / "stability-chart.csv")
    assert [r for r in rows if r[3] == "inf"] == [["pos", "1", "0.0099999999999999985", "inf"], ["pos", "1.5", "0.0099999999999999985", "inf"]]
    assert len(rows) == 13  # m = 0 is left out of each l's four points
    data = (out / "stability-chart.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == "7efb4261de858fac5e6392330b7b61c59b8e31341f711f4e108e8f28cf7df7ee"


def test_stability_chart_takes_a_subnormal_headway(tmp_path):
    """pi/(2c) is read at l = 0, so 1/b, which overflows at b = 1e-310, is never formed: only pi/(2c)*b**l is."""
    out = tmp_path / "o"
    assert main(["stability-chart", "--out", str(out), "--c", "0.3", "--b", "1e-310", "--l-set", "0.5", "--m-range", "1,2", "--m-points", "2"]) == 0
    assert _read_csv(out / "stability-chart.csv")[1:] == [["pos", "0.5", "1", "5.2359877559829816e-155"], ["pos", "0.5", "2", "7.2360125455826718e-78"]]


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_rate_artifacts(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "rate", "--out", str(out), "--alpha", "0.7", "--x0", "10",
            "--m", "2", "--b", "20", "--l-set", "1.0", "--tau-range",
            "0.01,0.6", "--tau-points", "50",
        ]
    )
    assert code == 0
    rows = _read_csv(out / "rate.csv")
    assert rows[0] == ["l", "tau", "rate", "branch"]
    assert len(rows) == 51
    branches = {r[3] for r in rows[1:]}
    assert branches <= {"real", "boundary", "complex", "unstable"}
    assert "unstable" in branches  # tau = 0.6 is past pi/(2*3.5) = 0.4488
    # unstable rows carry nan rates
    for r in rows[1:]:
        if r[3] == "unstable":
            assert math.isnan(float(r[2]))


@pytest.mark.parametrize(
    "flags",
    [["--x0", "1", "--m", "nan"], ["--x0", "inf", "--m", "0"], ["--x0", "10", "--m", "2", "--b", "inf", "--l-set", "0"]],
    ids=["m-nan-at-x0-1", "x0-inf", "b-inf-at-l-0"],
)
def test_rate_rejects_non_finite_speeds_headways_and_exponents(tmp_path, capsys, flags):
    """A base of 1 (x0 = 1) or an exponent of 0 once hid a non-finite factor of beta*: the run wrote a curve."""
    out = tmp_path / "o"
    assert main(["rate", "--out", str(out), "--alpha", "0.5", "--b", "20", "--l-set", "1"] + flags) == 2
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def test_rate_artifacts_keep_their_bytes(tmp_path):
    """README's ``ccfm rate`` example: rate.csv and rate.svg pinned."""
    out = tmp_path / "o"
    argv = ["rate", "--out", str(out), "--alpha", "0.7", "--x0", "10", "--m", "2", "--b", "20", "--l-set", "0.8,1.0,1.2"]
    assert main(argv) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("rate.csv", "rate.svg")}
    assert digests == {
        "rate.csv": "06da833f73238cc82e00ff35e4ff15108567a93e80ff8b89a2bfa58464c3bfa6",
        "rate.svg": "4aafed8879b66dea1d787bf72750b68d0275b6d90e95523492222036de13067b",
    }


@pytest.mark.parametrize(
    ("flags", "branch", "rate"),
    [
        (["--alpha", "1e10", "--x0", "1e300", "--b", "1e10"], "unstable", math.nan),  # beta* tau >= 1e297
        (["--alpha", "1e-200", "--x0", "1e-200", "--b", "1e-200"], "real", 1e-200),
    ],
    ids=["beta-1e300", "beta-1e-200"],
)
def test_rate_takes_a_beta_star_whose_alpha_product_leaves_the_doubles(tmp_path, flags, branch, rate):
    """alpha * x0**m is 1e310 or 1e-400 where beta* is 1e300 or 1e-200: the run exited 2 with beta* = inf or 0.
    At 1e-200 the rates differ in their last bits, a span on which the chart's tick loop never ended."""
    out = tmp_path / "o"
    assert main(["rate", "--out", str(out), "--m", "1", "--l-set", "1"] + flags) == 0
    rows = _read_csv(out / "rate.csv")[1:]
    assert len(rows) == 400 and {r[3] for r in rows} == {branch}
    assert [float(r[2]) for r in rows] == pytest.approx([rate] * 400, rel=1e-15, nan_ok=True)


def test_rate_empty_l_set_writes_header_only(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "rate", "--out", str(out), "--alpha", "0.7", "--x0", "10",
            "--m", "2", "--b", "20", "--l-set", "",
        ]
    )
    assert code == 0
    rows = _read_csv(out / "rate.csv")
    assert rows == [["l", "tau", "rate", "branch"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--alpha", "0.7", "--x0", "10", "--m", "2", "--b", "20", "--tau-range", "0.01,0.4", "--tau-points", "7"],
        ["stability-chart", "--c", "0.3", "--m-range", "0.5,2", "--m-points", "7"],
    ],
)
def test_a_repeated_l_value_draws_one_curve_per_series(tmp_path, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out), "--l-set", "1,1"]) == 0
    (svg,) = out.glob("*.svg")
    polylines = re.findall(r'<polyline points="([^"]*)"', svg.read_text())
    assert [len(points.split()) for points in polylines] == [7, 7]


def test_a_repeated_l_value_draws_one_tau_star_line(tmp_path):
    out = tmp_path / "o"
    argv = ["rate", "--out", str(out), "--alpha", "0.7", "--x0", "10", "--m", "2", "--b", "20",
            "--tau-range", "0.01,0.4", "--tau-points", "7", "--l-set", "1,0.8,1"]
    assert main(argv) == 0
    svg = (out / "rate.svg").read_text()
    assert svg.count('stroke-dasharray="5,4"') == 2
    assert svg.count("tau* (l = 1)") == svg.count("tau* (l = 0.8)") == 1


# ---------------------------------------------------------------------------
# bifurcation
# ---------------------------------------------------------------------------


def test_bifurcation_csv_and_worker_determinism(tmp_path, single_path):
    base = [
        "bifurcation", "--config", single_path, "--kappa-range", "1.0,1.01",
        "--points", "3", "--ts", "0.02", "--tmax", "40",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--out", str(out1)]) == 0
    # --workers is still accepted; rk4 is the sweep's default scheme
    assert main(base + ["--out", str(out2), "--workers", "2", "--method", "rk4"]) == 0
    assert main(base + ["--out", str(tmp_path / "c"), "--workers", "0"]) == 2
    b1 = (out1 / "bifurcation.csv").read_bytes()
    assert b1 == (out2 / "bifurcation.csv").read_bytes()
    rows = _read_csv(out1 / "bifurcation.csv")
    assert rows[0] == ["kappa", "amp_v_1"]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([1.0, 1.005, 1.01])
    assert (out1 / "bifurcation.svg").exists()


def test_bifurcation_artifacts_keep_their_bytes(tmp_path, single_path):
    """The SVG is pinned from the sweep that stored every member's whole history, and the CSV since rk4's y step takes the mean stage speed; this sweep's window slides inside the tail."""
    out = tmp_path / "o"
    argv = ["bifurcation", "--config", single_path, "--out", str(out), "--kappa-range", "0.98,1.04", "--points", "4", "--tmax", "60"]
    assert main(argv) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("bifurcation.csv", "bifurcation.svg")}
    assert digests == {
        "bifurcation.csv": "2e9b3a7484ee28503c6af3475f4ce162345a0d7c5c8b1ca2e07047242318ad92",
        "bifurcation.svg": "430f001991a0bd6ddbd3f3d7738ca5816772f70fc1d81827f475d8d3f636ad62",
    }


def test_bifurcation_blow_up_reports_the_gain_as_run_alone(tmp_path, single_path, capsys):
    sweep = main([
        "bifurcation", "--config", single_path, "--out", str(tmp_path / "s"),
        "--kappa-range", "1,400", "--points", "2", "--tmax", "20",
    ])
    sweep_err = capsys.readouterr().err
    alone = main([
        "simulate", "--config", single_path, "--out", str(tmp_path / "a"),
        "--kappa", "400", "--method", "rk4", "--tmax", "20",
    ])
    alone_err = capsys.readouterr().err
    assert sweep == alone == 3
    assert sweep_err == alone_err and "headway base y_1 + b_1" in sweep_err


def test_bifurcation_summary_reports_the_sweep_maximum(tmp_path, capsys):
    # products kappa*beta**tau = 0.0875 .. 0.35 stay below 1/e: every gain
    # decays on the real branch, faster as kappa rises, so the largest tail
    # amplitude is at the first gain, not the last
    cfg = dict(SINGLE, vehicles=[{"alpha": 0.7, "tau": 0.05, "b": 20.0}])
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    argv = [
        "bifurcation", "--config", str(path), "--out", str(out),
        "--kappa-range", "0.5,2", "--points", "4", "--ts", "0.01", "--tmax", "4",
    ]
    assert main(argv) == 0
    rows = _read_csv(out / "bifurcation.csv")[1:]
    amps = [max(float(a) for a in r[1:]) for r in rows]
    assert max(amps) > amps[-1] > 0.0
    shown = capsys.readouterr().out
    assert shown.endswith(f"largest tail amplitude = {max(amps):.6g}\n")


# ---------------------------------------------------------------------------
# hopf
# ---------------------------------------------------------------------------


def test_hopf_json_schema(tmp_path, single_path):
    out = tmp_path / "o"
    assert main(["hopf", "--config", single_path, "--out", str(out)]) == 0
    data = json.loads((out / "hopf.json").read_text())
    assert set(data) == {
        "pair", "omega0", "kappa_cr", "alpha_prime", "c1_re", "c1_im",
        "mu2", "beta2", "type", "orbit",
        "w20_boundary", "w11_boundary_v", "w11_boundary_y",
    }
    assert data["pair"] == 1
    assert data["omega0"] == pytest.approx(3.5, rel=1e-12)
    assert data["type"] == "supercritical" and data["orbit"] == "stable"


def test_hopf_artifact_keeps_its_bytes(tmp_path, single_path):
    """README's ``ccfm hopf --config single.json``: hopf.json pinned from the ring that evaluated whole delayed rows."""
    out = tmp_path / "o"
    assert main(["hopf", "--config", single_path, "--out", str(out)]) == 0
    data = (out / "hopf.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == "11af32f114ad937e345cb279eb77625044b2ed84e5475ee7423a5db050993ec5"


def test_hopf_pair_override(tmp_path, config_path):
    out = tmp_path / "o"
    assert main(["hopf", "--config", config_path, "--out", str(out), "--pair", "1"]) == 0
    data = json.loads((out / "hopf.json").read_text())
    assert data["pair"] == 1
    assert data["kappa_cr"] == pytest.approx(math.pi / (2.0 * 2.5 * 0.5), rel=1e-12)


@pytest.mark.parametrize("pair", ["2", "4"])
def test_hopf_at_a_tie_below_the_onset_exits_3(tmp_path, config_path, capsys, pair):
    """Pairs 2 and 4 share the product 1.2, behind pair 3's onset: a double Hopf point, so no report is written."""
    out = tmp_path / "o"
    assert main(["hopf", "--config", config_path, "--out", str(out), "--pair", pair]) == 3
    assert capsys.readouterr().err == "ccfm: numerical failure: critical eigenspace is degenerate (two pairs critical at once)\n"
    assert not (out / "hopf.json").exists()


def test_hopf_at_a_double_hopf_point_exits_3(tmp_path, capsys):
    """Pairs 1 and 4 share the product 1.5, so both are critical at one gain: no report is written."""
    cfg = dict(CONFIG, vehicles=[dict(v, tau=t) for v, t in zip(CONFIG["vehicles"], (0.6, 0.4, 0.3, 0.375))])
    path = tmp_path / "double.json"
    path.write_text(json.dumps(cfg))
    for extra in ([], ["--pair", "4"]):
        assert main(["hopf", "--config", str(path), "--out", str(tmp_path / "o")] + extra) == 3
        assert capsys.readouterr().err == "ccfm: numerical failure: critical eigenspace is degenerate (two pairs critical at once)\n"
    assert not (tmp_path / "o" / "hopf.json").exists()


# ---------------------------------------------------------------------------
# settling
# ---------------------------------------------------------------------------


def test_settling_json_schema(tmp_path, config_path):
    out = tmp_path / "o"
    code = main(
        [
            "settling", "--config", config_path, "--out", str(out),
            "--epsilon", "0.2", "--tmax", "30", "--ts", "0.01",
        ]
    )
    assert code == 0
    data = json.loads((out / "settling.json").read_text())
    assert set(data) == {"epsilon", "per_pair", "overall"}
    assert data["epsilon"] == 0.2
    assert len(data["per_pair"]) == 4
    for entry in data["per_pair"]:
        assert entry is None or entry >= 0.0


def test_settling_rejects_bad_epsilon(tmp_path, config_path):
    out = tmp_path / "o"
    code = main(
        ["settling", "--config", config_path, "--out", str(out), "--epsilon", "-1"]
    )
    assert code == 2


def test_settling_artifact_keeps_its_bytes(tmp_path, config_path, monkeypatch):
    """Pinned from the scan of the whole stored run; pair 2 settles at 8.08 s, long before the window's last slide."""
    slides = record_slides(monkeypatch)
    out = tmp_path / "o"
    argv = ["settling", "--config", config_path, "--out", str(out), "--epsilon", "0.1", "--tmax", "60", "--method", "euler"]
    assert main(argv) == 0
    data = (out / "settling.json").read_bytes()
    assert json.loads(data)["per_pair"] == [0.0, 8.08, None, None] and slides[-1] * 0.01 > 8.08
    assert hashlib.sha256(data).hexdigest() == "18eced5f8d3a36ba99de8b373089b49f21d33fa537982b0ea5466e9dc5ce2f05"


def _no_integration(*args, **kwargs):
    raise AssertionError("integrated before checking the post-processing arguments")


@pytest.mark.parametrize(
    "argv",
    [
        ["bifurcation", "--tail", "0"],
        ["bifurcation", "--tail", "1.5"],
        ["bifurcation", "--tail", "nan"],
        ["bifurcation", "--tail", "0.01", "--tmax", "5", "--ts", "0.01"],  # a window of 6 samples
        ["settling", "--epsilon", "0"],
        ["settling", "--epsilon", "nan"],
        ["settling", "--epsilon", "inf"],
    ],
    ids=["tail-0", "tail-above-1", "tail-nan", "tail-window-too-short", "epsilon-0", "epsilon-nan", "epsilon-inf"],
)
def test_post_processing_arguments_are_rejected_before_integrating(tmp_path, config_path, monkeypatch, capsys, argv):
    """Nothing is integrated, whichever entry point the command calls."""
    monkeypatch.setattr("ccfmlab.integrate._run", _no_integration)
    out = tmp_path / "o"
    assert main([argv[0], "--config", config_path, "--out", str(out)] + argv[1:]) == 2
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


def test_shortest_tail_window_still_runs(tmp_path, single_path):
    """The window rule is the envelope's: 10 samples at --tail 0.02 over 4.5 s at h = 0.01 are enough."""
    out = tmp_path / "o"
    argv = ["bifurcation", "--config", single_path, "--out", str(out), "--points", "2", "--tmax", "4.5", "--tail", "0.02"]
    assert main(argv) == 0 and (out / "bifurcation.csv").exists()


# ---------------------------------------------------------------------------
# argument errors
# ---------------------------------------------------------------------------

RATE = ["rate", "--alpha", "0.7", "--x0", "10", "--m", "2", "--b", "20"]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["stability-chart", "--c", "0.3", "--l-set", "a,b"], "--l-set expects comma-separated numbers, got 'a,b'"),
        (["stability-chart", "--c", "0.3", "--l-set", ","], "--l-set must contain at least one value"),
        (["stability-chart", "--c", "0.3", "--m-points", "1"], "--m-points must be at least 2"),
        (RATE + ["--tau-range", "0,0.6"], "--tau-range must start above 0"),
        (RATE + ["--tau-points", "1"], "--tau-points must be at least 2"),
        (["bifurcation", "--config", "<config>", "--points", "1"], "--points must be at least 2"),
        (["simulate", "--config", "<config>", "--method", "rk4", "--tmax", "1e15"],
         "storing 1e+17 nodes of 8 numbers takes 6.4e+18 bytes, too many to allocate"),
        (["simulate", "--config", "<config>", "--method", "rk4", "--tmax", "1e16"],
         "storing 1e+18 nodes of 8 numbers takes 6.4e+19 bytes, too many to allocate"),
        (["classify", "--config", "<fast config>"], "x0dot**m or b**l overflows at x0dot = 1e+300, m = 2.0, b = 20.0, l = 1.0"),
        (["hopf", "--config", "<fast config>"], "x0dot**m or b**l overflows at x0dot = 1e+300, m = 2.0, b = 20.0, l = 1.0"),
        (["rate", "--alpha", "0.7", "--x0", "1e300", "--m", "2", "--b", "20"],
         "x0dot**m or b**l overflows at x0dot = 1e+300, m = 2.0, b = 20.0, l = 0.8"),
        (["stability-chart", "--c", "0.3", "--b", "1e300", "--l-set", "2"], "b**l overflows at b = 1e+300, l = 2.0"),
        (["rate", "--alpha", "0.7", "--x0", "10", "--m", "2", "--b", "1e-5", "--l-set", "100"],
         "b**l underflows to 0 at x0dot = 10.0, m = 2.0, b = 1e-05, l = 100.0"),
        (["classify", "--config", "<close config>"], "b**l underflows to 0 at x0dot = 10.0, m = 2.0, b = 1e-05, l = 100.0"),
        (["hopf", "--config", "<close config>"], "b**l underflows to 0 at x0dot = 10.0, m = 2.0, b = 1e-05, l = 100.0"),
        (["stability-chart", "--c", "0.3", "--b", "1e-5", "--l-set", "100"],
         "pi/(2c)*b**l underflows to 0 at b = 1e-05, l = 100.0, c = 0.3"),
        (["stability-chart", "--c", "0.3", "--b", "1e-5", "--l-set", "100", "--m-range", "0.5,3"],
         "pi/(2c)*b**l underflows to 0 at b = 1e-05, l = 100.0, c = 0.3"),
        (["stability-chart", "--c", "1e-300", "--b", "1e300", "--l-set", "1", "--m-range=-3,-1", "--m-points", "3"],
         "pi/(2c)*b**l overflows at b = 1e+300, l = 1.0, c = 1e-300"),
        (["simulate", "--config", "<config>", "--method", "midpoint"], "method must be one of ('euler', 'rk4'), got 'midpoint'"),
        (["settling", "--config", "<config>", "--method", "midpoint"], "method must be one of ('euler', 'rk4'), got 'midpoint'"),
        (["bifurcation", "--config", "<config>", "--method", "midpoint"], "method must be one of ('euler', 'rk4'), got 'midpoint'"),
    ],
    ids=[
        "l-set-not-numbers", "l-set-empty", "m-points-1", "tau-range-from-0", "tau-points-1", "points-1",
        "tmax-1e15-unallocatable", "tmax-1e16-too-big", "classify-x0dot-power-overflows", "hopf-x0dot-power-overflows",
        "rate-x0dot-power-overflows", "stability-chart-b-power-overflows", "rate-b-power-underflows",
        "classify-b-power-underflows", "hopf-b-power-underflows", "stability-chart-b-power-underflows",
        "stability-chart-b-power-underflows-positive-m", "stability-chart-boundary-overflows",
        "simulate-method-midpoint", "settling-method-midpoint", "bifurcation-method-midpoint",
    ],
)
def test_an_invalid_argument_exits_2_with_its_message(tmp_path, config_path, capsys, argv, message):
    out = tmp_path / "o"
    fast = tmp_path / "fast.json"  # the four-vehicle platoon led at 1e300, whose x0dot**m leaves the doubles
    fast.write_text(json.dumps(dict(CONFIG, leader={"v_eq": 1e300, "ramp": 10.0})))
    close = tmp_path / "close.json"  # one follower at b = 1e-5 under l = 100, whose b**l underflows to 0
    close.write_text(json.dumps(dict(SINGLE, vehicles=[{"alpha": 0.7, "tau": math.pi / 7.0, "b": 1e-5}], l=100.0)))
    paths = {"<config>": config_path, "<fast config>": str(fast), "<close config>": str(close)}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ccfm: configuration error: {message}\n"
    assert not out.exists()


def test_an_out_under_a_regular_file_exits_2(tmp_path, config_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "o")
    assert main(["classify", "--config", config_path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"ccfm: configuration error: cannot create output directory {out!r}: ")


@pytest.mark.parametrize("command", ["simulate", "settling", "bifurcation"])
def test_every_integrating_command_takes_sim_configs_defaults(command):
    """SimConfig declares the scheme, step and horizon once, and the scheme is rk4: no entry point defaults to euler."""
    assert SimConfig().method == "rk4"
    args = _build_parser().parse_args([command, "--config", "platoon.json", "--out", "o"])
    assert (args.method, args.ts, args.tmax) == ("rk4", SimConfig.step, SimConfig.horizon)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_a_failed_parse_leaves_the_next_command_as_in_a_fresh_process(tmp_path, config_path, capsys):
    """main reuses one parser; after a parse that exits 2, a valid command
    prints and writes what it does in a fresh interpreter."""
    with pytest.raises(SystemExit) as failed:
        main(["hopf", "--config", config_path, "--pair", "two"])
    assert failed.value.code == 2
    capsys.readouterr()
    argv = ["hopf", "--config", config_path, "--pair", "1"]
    assert main(argv + ["--out", str(tmp_path / "here")]) == 0
    here = capsys.readouterr()
    script = "import sys; from ccfmlab.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    fresh = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "fresh")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert here.out and (here.out, here.err) == (fresh.stdout, fresh.stderr)
    assert (tmp_path / "here" / "hopf.json").read_bytes() == (tmp_path / "fresh" / "hopf.json").read_bytes()


# The bytes of a small chart, rendered before LineChart kept its series as
# float64 arrays: a NaN gap, an inf gap, a leading gap, two lone finite points
# (circles), an unlabelled series, a vline and a legend.
PINNED_CHART = """\
<svg xmlns="http://www.w3.org/2000/svg" width="320" height="200" viewBox="0 0 320 200">
<rect width="320" height="200" fill="#ffffff"/>
<line x1="64" y1="34" x2="64" y2="154" stroke="#dddddd" stroke-width="1"/>
<text x="64" y="170" text-anchor="middle" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">0</text>
<line x1="104" y1="34" x2="104" y2="154" stroke="#dddddd" stroke-width="1"/>
<text x="104" y="170" text-anchor="middle" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">0.5</text>
<line x1="144" y1="34" x2="144" y2="154" stroke="#dddddd" stroke-width="1"/>
<text x="144" y="170" text-anchor="middle" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">1</text>
<line x1="184" y1="34" x2="184" y2="154" stroke="#dddddd" stroke-width="1"/>
<text x="184" y="170" text-anchor="middle" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">1.5</text>
<line x1="224" y1="34" x2="224" y2="154" stroke="#dddddd" stroke-width="1"/>
<text x="224" y="170" text-anchor="middle" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">2</text>
<line x1="264" y1="34" x2="264" y2="154" stroke="#dddddd" stroke-width="1"/>
<text x="264" y="170" text-anchor="middle" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">2.5</text>
<line x1="304" y1="34" x2="304" y2="154" stroke="#dddddd" stroke-width="1"/>
<text x="304" y="170" text-anchor="middle" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">3</text>
<line x1="64" y1="121.273" x2="304" y2="121.273" stroke="#dddddd" stroke-width="1"/>
<text x="58" y="124.773" text-anchor="end" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">0</text>
<line x1="64" y1="80.3636" x2="304" y2="80.3636" stroke="#dddddd" stroke-width="1"/>
<text x="58" y="83.8636" text-anchor="end" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">0.5</text>
<line x1="64" y1="39.4545" x2="304" y2="39.4545" stroke="#dddddd" stroke-width="1"/>
<text x="58" y="42.9545" text-anchor="end" font-size="11" fill="#444444" style="font-family:Helvetica,Arial,sans-serif">1</text>
<rect x="64" y="34" width="240" height="120" fill="none" stroke="#333333" stroke-width="1"/>
<line x1="164" y1="34" x2="164" y2="154" stroke="#888888" stroke-width="1" stroke-dasharray="5,4"/>
<text x="168" y="48" font-size="11" fill="#555555" style="font-family:Helvetica,Arial,sans-serif">mark</text>
<polyline points="64,113.091 104,92.6364" fill="none" stroke="#1f77b4" stroke-width="1.6"/>
<circle cx="184" cy="55.8182" r="2" fill="#1f77b4"/>
<polyline points="264,137.636 304,117.182" fill="none" stroke="#1f77b4" stroke-width="1.6"/>
<polyline points="64,39.4545 144,66.7273 224,121.273 304,148.545" fill="none" stroke="#d62728" stroke-width="1.6"/>
<circle cx="284" cy="80.3636" r="2" fill="#2ca02c"/>
<text x="160" y="20" text-anchor="middle" font-size="14" fill="#111111" style="font-family:Helvetica,Arial,sans-serif">pinned</text>
<text x="184" y="190" text-anchor="middle" font-size="12" fill="#111111" style="font-family:Helvetica,Arial,sans-serif">x</text>
<text x="16" y="94" text-anchor="middle" font-size="12" fill="#111111" style="font-family:Helvetica,Arial,sans-serif" transform="rotate(-90 16 94)">y</text>
<rect x="146" y="40" width="150" height="40" fill="#ffffff" opacity="0.85" stroke="#cccccc"/>
<line x1="154" y1="48" x2="176" y2="48" stroke="#1f77b4" stroke-width="1.6"/>
<text x="182" y="52" font-size="11" fill="#222222" style="font-family:Helvetica,Arial,sans-serif">a</text>
<line x1="154" y1="64" x2="176" y2="64" stroke="#2ca02c" stroke-width="1.6"/>
<text x="182" y="68" font-size="11" fill="#222222" style="font-family:Helvetica,Arial,sans-serif">c</text>
</svg>
"""


def test_line_chart_bytes_are_pinned():
    chart = LineChart(title="pinned", xlabel="x", ylabel="y", width=320, height=200)
    chart.add([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], [0.1, 0.35, math.nan, 0.8, math.inf, -0.2, 0.05], label="a")
    chart.add(range(4), [1.0, 2.0 / 3.0, 1e-7, -1.0 / 3.0])
    chart.add([math.nan, 2.75], [0.5, 0.5], label="c")
    chart.vlines.append((1.25, "mark"))
    assert chart.render() == PINNED_CHART


def test_a_one_point_line_chart_spans_one_unit_from_its_point():
    """A lone point has no span: each axis runs one unit up from it, so the point sits at the plot's lower left, inside the y padding."""
    chart = LineChart(width=320, height=200)
    chart.add([2.0], [3.0])
    svg = chart.render()
    assert '<circle cx="64" cy="148.545" r="2" fill="#1f77b4"/>' in svg
    assert "polyline" not in svg


def test_line_chart_rejects_series_of_unequal_length():
    with pytest.raises(ValueError, match="one length"):
        LineChart().add([0.0, 1.0], [1.0])
