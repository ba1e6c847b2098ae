"""In-memory spans around the public functions of ccfmlab, and the per-layer
metrics derived from them.

The spans are recorded from the benchmark's own code: `Tracer.install`
replaces each traced function, wherever a ccfmlab module holds a reference
to it, with a wrapper that records (name, start, end, parent, round).  The
program itself is not changed.  Private functions (`_Engine.rhs`,
`_hermite`) are not traced; per-call costs inside the integrator need spans
inside the program.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import statistics
import sys
import time

# (module, attribute, span name).  The span name's first component is the
# layer; it is the module that defines the function.
TRACED = (
    ("ccfmlab.cli", "main", "cli.main"),
    ("ccfmlab.model", "load_config", "model.load_config"),
    ("ccfmlab.model", "config_from_dict", "model.config_from_dict"),
    ("ccfmlab.model", "config_to_dict", "model.config_to_dict"),
    ("ccfmlab.spectral", "classify_pair", "spectral.classify_pair"),
    ("ccfmlab.spectral", "dominant_root", "spectral.dominant_root"),
    ("ccfmlab.rates", "rate_curve", "rates.rate_curve"),
    ("ccfmlab.rates", "rate_of_convergence", "rates.rate_of_convergence"),
    ("ccfmlab.hopf", "hopf_report", "hopf.hopf_report"),
    ("ccfmlab.hopf", "predicted_amplitude", "hopf.predicted_amplitude"),
    ("ccfmlab.integrate", "simulate", "integrate.simulate"),
    ("ccfmlab.integrate", "amplitude_envelope", "integrate.amplitude_envelope"),
    ("ccfmlab.integrate", "write_trajectory_csv", "integrate.write_trajectory_csv"),
)
LAYERS = ("cli", "model", "spectral", "rates", "hopf", "integrate", "svg")

def _simulate_steps(args, kwargs) -> int:
    sc = args[1] if len(args) > 1 else kwargs["sc"]
    return int(math.ceil(sc.horizon / sc.step - 1e-9))


def _written_bytes(path_index: int):
    def count(args, kwargs) -> int:
        return os.path.getsize(args[path_index])

    return count


# Quantities read from a traced call's arguments after it returns.
_TALLIES = {
    "integrate.simulate": ("integrate.config_steps", _simulate_steps),
    "integrate.write_trajectory_csv": ("integrate.write_trajectory_csv.bytes", _written_bytes(1)),
    "svg.write": ("svg.write.bytes", _written_bytes(1)),
}


class Tracer:
    """Records nested spans around ccfmlab's public functions while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.tallies: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, fn, name: str):
        spans, stack, tallies = self.spans, self._stack, self.tallies
        tally = _TALLIES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[1] = start
                span[2] = end
                if tally is not None:
                    key, measure = tally
                    tallies[key] = tallies.get(key, 0) + measure(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "ccfmlab" or k.startswith("ccfmlab.")]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        chart = sys.modules["ccfmlab.svg"].LineChart
        self._patches.append((chart, "write", chart.write))
        chart.write = self._wrap(chart.write, "svg.write")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def metrics(self, rounds: int, overhead_s: float, seconds) -> dict[str, float]:
        """Per-layer metrics, per traced round, derived from the recorded spans.

        The keys are the names of BENCHMARK.json's per-layer metrics; the
        caller checks that the two lists agree.

        `seconds(start, end)` converts a span's wall interval into the
        seconds that are reported (reference seconds, see refclock.py).
        """
        spans = self.spans
        length = [seconds(start, end) for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for idx, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += length[idx]
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        durations: dict[str, list[float]] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        config_io = 0.0
        for idx, (name, _, _, parent) in enumerate(spans):
            dur = length[idx]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(dur)
            layer = name.split(".", 1)[0]
            self_s[layer] += dur - child_time[idx]
            if layer == "model" and not (parent >= 0 and spans[parent][0].startswith("model.")):
                config_io += dur

        def per_round(x: float) -> float:
            return x / rounds

        def pct_us(name: str, q: int) -> float:
            d = durations.get(name)
            if not d:
                return 0.0
            if len(d) == 1:
                return d[0] * 1e6
            return statistics.quantiles(d, n=100, method="inclusive")[q - 1] * 1e6

        steps = self.tallies.get("integrate.config_steps", 0)
        sim_s = total.get("integrate.simulate", 0.0)
        out = {
            "integrate.simulate.calls": per_round(calls.get("integrate.simulate", 0)),
            "integrate.simulate.s": per_round(sim_s),
            "integrate.config_steps": per_round(steps),
            "integrate.simulate.us_per_config_step": sim_s / steps * 1e6 if steps else 0.0,
            "integrate.amplitude_envelope.s": per_round(total.get("integrate.amplitude_envelope", 0.0)),
            "integrate.write_trajectory_csv.s": per_round(total.get("integrate.write_trajectory_csv", 0.0)),
            "integrate.write_trajectory_csv.bytes": per_round(
                self.tallies.get("integrate.write_trajectory_csv.bytes", 0)
            ),
            "model.config_io.s": per_round(config_io),
            "spectral.dominant_root.calls": per_round(calls.get("spectral.dominant_root", 0)),
            "spectral.dominant_root.s": per_round(total.get("spectral.dominant_root", 0.0)),
            "spectral.dominant_root.p50_us": pct_us("spectral.dominant_root", 50),
            "spectral.dominant_root.p99_us": pct_us("spectral.dominant_root", 99),
            "rates.rate_curve.s": per_round(total.get("rates.rate_curve", 0.0)),
            "rates.rate_of_convergence.calls": per_round(calls.get("rates.rate_of_convergence", 0)),
            "rates.rate_of_convergence.p50_us": pct_us("rates.rate_of_convergence", 50),
            "hopf.hopf_report.calls": per_round(calls.get("hopf.hopf_report", 0)),
            "hopf.hopf_report.s": per_round(total.get("hopf.hopf_report", 0.0)),
            "hopf.hopf_report.p50_us": pct_us("hopf.hopf_report", 50),
            "svg.write.s": per_round(total.get("svg.write", 0.0)),
            "svg.write.bytes": per_round(self.tallies.get("svg.write.bytes", 0)),
            **{f"{layer}.self_s": per_round(self_s[layer]) for layer in LAYERS},
            "trace.overhead_s": overhead_s,
        }
        return out

    def write(self, path: str, header: dict, round_starts: list[float]) -> None:
        """Write every span with the round it belongs to, times relative to the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        rows = [
            [n, round(s - origin, 9), round(e - origin, 9), p, bisect.bisect_right(round_starts, s) - 1]
            for n, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start_s", "end_s", "parent", "round"], "spans": rows}, fh)
            fh.write("\n")
