"""Command-line interface: artifact schemas, byte determinism, exit codes.

All invocations go through main(argv) in-process; the console entry point
wires to the same function.
"""

import csv
import json
import math

import pytest

from ccfmlab.cli import main

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


def test_stability_chart_bad_range_exit_code(tmp_path):
    out = tmp_path / "o"
    assert main(["stability-chart", "--out", str(out), "--c", "0.3", "--m-range", "2,1"]) == 2


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
    assert main(base + ["--out", str(out2), "--workers", "2"]) == 0
    b1 = (out1 / "bifurcation.csv").read_bytes()
    assert b1 == (out2 / "bifurcation.csv").read_bytes()
    rows = _read_csv(out1 / "bifurcation.csv")
    assert rows[0] == ["kappa", "amp_v_1"]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([1.0, 1.005, 1.01])
    assert (out1 / "bifurcation.svg").exists()


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
    }
    assert data["pair"] == 1
    assert data["omega0"] == pytest.approx(3.5, rel=1e-12)
    assert data["type"] == "supercritical" and data["orbit"] == "stable"


def test_hopf_pair_override(tmp_path, config_path):
    out = tmp_path / "o"
    assert main(["hopf", "--config", config_path, "--out", str(out), "--pair", "2"]) == 0
    data = json.loads((out / "hopf.json").read_text())
    assert data["pair"] == 2
    assert data["kappa_cr"] == pytest.approx(math.pi / (2.0 * 3.0 * 0.4), rel=1e-12)


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
