"""ccfmlab benchmark: run one workload and print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sweep|platoon|analysis --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # each workload, untraced then traced

A run builds the workload's inputs from the seed, then repeats whole rounds
of the workload until `--seconds` have passed, and checks the last round's
outputs (every round must produce the same outputs).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

With `--trace 0` the metrics are the end-to-end ones: set-up time, the
median time of a round, and the peak resident size.  With `--trace 1` half
the time runs untraced and half traced, and the metrics are the per-layer
ones derived from the spans (see spans.py); the spans are written to
bench/out/<workload>-<seed>-trace.json.  Every time is in reference seconds (see
refclock.py), which do not move with the machine's changing speed; the
plain wall times of the rounds are printed alongside, and a traced run
reports their median as clock.wall_s.

The program is imported from ./src, so the run needs no installed copy; it
exits with status 2 if ./src/ccfmlab is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sweep", "platoon", "analysis")

# One thread per process: the workloads are single-threaded by design, and
# a BLAS thread pool would only add noise to the timings.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# Imports ccfmlab in a fresh interpreter and prints the reference seconds it
# took.  numpy is already loaded by refclock, so this times ccfmlab's own
# modules.
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; from refclock import RefClock; "
    "c = RefClock(); c.start(); t0 = time.perf_counter(); import ccfmlab, ccfmlab.cli; "
    "t1 = time.perf_counter(); c.stop(); print(repr(c.seconds(t0, t1)))"
)


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description="ccfmlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds() -> float:
    """Reference seconds to import ccfmlab (and its cli module) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC, BENCH_DIR],
        cwd=ROOT,
        env={**os.environ, **THREAD_ENV},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _rounds(wl, seconds: float, digests: list) -> tuple[list[tuple[float, float]], object]:
    """Run whole rounds until `seconds` have passed; return their (start, end) and the last output."""
    spans = []
    start = time.perf_counter()
    while True:
        output = None  # so that a round's peak memory does not include the previous round's output
        t0 = time.perf_counter()
        output = wl.run_round()
        t1 = time.perf_counter()
        spans.append((t0, t1))
        digests.append(wl.digest(output))
        if t1 - start >= seconds:
            return spans, output


def _named_metrics(values: dict[str, float], kind: str) -> dict:
    """The metrics of one kind ("end_to_end" or "per_layer") listed in BENCHMARK.json, with their units."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    names = [m["name"] for m in listed]
    if set(names) != set(values):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def run_workload(args) -> dict:
    """Measure and check one workload in a scratch directory of its own under bench/out."""
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, work_dir: str) -> dict:
    from refclock import RefClock
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, work_dir)

    clock = RefClock()
    imports, inputs = [], []
    digests: list[str] = []
    clock.start()
    try:
        for _ in range(SETUP_REPEATS):
            imports.append(_import_seconds())
            t0 = time.perf_counter()
            wl.make_inputs()
            inputs.append((t0, time.perf_counter()))
        if args.trace:
            plain, _ = _rounds(wl, args.seconds / 2, digests)
            tracer = Tracer()
            tracer.install()
            try:
                traced, output = _rounds(wl, args.seconds / 2, digests)
            finally:
                tracer.uninstall()
        else:
            plain, output = _rounds(wl, args.seconds, digests)
            traced = []
    finally:
        clock.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [imp + clock.seconds(t0, t1) for imp, (t0, t1) in zip(imports, inputs)]
    round_spans = plain + traced
    times = [clock.seconds(t0, t1) for t0, t1 in round_spans]
    walls = [t1 - t0 for t0, t1 in round_spans]

    if args.trace:
        overhead = statistics.median(times[len(plain):]) - statistics.median(times[: len(plain)])
        layer = tracer.metrics(len(traced), overhead, clock.seconds)
        # The plain wall time next to the reference time, so that every traced run cross-checks the clock.
        layer["clock.wall_s"] = statistics.median(walls[: len(plain)])
        metrics = _named_metrics(layer, "per_layer")
        tracer.write(
            os.path.join(OUT, f"{args.workload}-{args.seed}-trace.json"),
            {"workload": args.workload, "seed": args.seed, "untraced_rounds": len(plain), "traced_rounds": len(traced)},
            [t0 for t0, _ in traced],
        )
    else:
        metrics = _named_metrics(
            {
                "setup_s": statistics.median(setups),
                "wall_ref_s": statistics.median(times),
                "peak_rss_mib": peak_kib / 1024.0,
            },
            "end_to_end",
        )

    verdict = wl.check(output)
    if len(set(digests)) != 1:
        verdict.problems.append(f"rounds produced {len(set(digests))} different outputs")
    rounds = len(times)
    print(f"workload {args.workload}: seed {args.seed}, {rounds} rounds, {clock.probes} probes")
    print("  round wall times: " + ", ".join(f"{t:.3f}" for t in walls) + " s")
    print("  round reference times: " + ", ".join(f"{t:.3f}" for t in times) + " s")
    print(f"  median round: {statistics.median(walls[: len(plain)]):.6g} s wall, "
          f"{statistics.median(times[: len(plain)]):.6g} s reference (untraced rounds)")
    for note in verdict.notes:
        print(f"  check: {note}")
    for problem in verdict.problems:
        print(f"  FAILED CHECK: {problem}")
    print(f"  operations per round: {verdict.attempted} attempted, {verdict.failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not verdict.problems,
        "attempted": verdict.attempted * rounds,
        "failed": verdict.failed * rounds,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run every workload untraced and then traced, each in its own process, and print each result.

    Together the six runs print every metric in BENCHMARK.json; `--trace` is ignored.
    """
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"workload {name}, trace {trace}: exit status {proc.returncode}")
                status = 1
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ccfmlab", "__init__.py")):
        print(f"bench: no ccfmlab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [SRC, BENCH_DIR]
    import ccfmlab

    if os.path.dirname(os.path.dirname(os.path.abspath(ccfmlab.__file__))) != SRC:
        print(f"bench: imported ccfmlab from {ccfmlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
