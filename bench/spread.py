"""Run one workload on several seeds and report each end-to-end metric's spread.

Usage, from the root of a source checkout:

    python3 bench/spread.py --workload sweep --seeds 1-10

Each run lasts run_seconds from BENCHMARK.json.

For every metric it prints the median of the per-run values and the
distance between their first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.  It also prints the share of failed
operations of every run, which must be the same in all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, as 'lo-hi'")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in _seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit status {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {med:.6g}, IQR/median {(q3 - q1) / med:.2%} (bound {bounds[name]:.0%})")
    print(f"{args.workload} failed share and correctness: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
