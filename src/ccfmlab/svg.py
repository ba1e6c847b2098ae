"""Minimal deterministic SVG line charts (no plotting dependencies).

Produces self-contained SVG documents with axes, nice-number ticks, polyline
series, optional vertical markers, and a simple legend.
Output is byte-deterministic for identical inputs: floats are formatted with
a fixed precision and nothing depends on time, locale, or ambient state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "LineChart"]

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]
_FONT = "font-family:Helvetica,Arial,sans-serif"


def _fmt(x: float) -> str:
    return "%.6g" % x


def _line(x1, y1, x2, y2, stroke: str, width: float, extra: str = "") -> str:
    """One <line> from (x1, y1) to (x2, y2); ``extra`` holds any further attributes, space-led."""
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{_fmt(width)}"{extra}/>'


def _text(x, y, body: str, size: int, fill: str, anchor: str = "", extra: str = "") -> str:
    """One <text> of ``body`` at (x, y) in the charts' one font; ``extra`` holds any further attributes, space-led."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor} font-size="{size}" fill="{fill}" style="{_FONT}"{extra}>{body}</text>'


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 spacing."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span and t not in ticks[-1:]:  # a step below half an ulp of t leaves t where it was
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


@dataclass
class Series:
    x: np.ndarray  # float64, the same length as y
    y: np.ndarray
    label: str
    color: str

    def finite(self) -> np.ndarray:
        """Mask of the points whose x and y are both finite."""
        return np.isfinite(self.x) & np.isfinite(self.y)


@dataclass
class LineChart:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    width: int = 720
    height: int = 480
    series: list[Series] = field(default_factory=list)
    vlines: list[tuple[float, str]] = field(default_factory=list)  # (x, label)

    def add(self, x, y, label: str = "") -> None:
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError(f"need x and y of one length, got shapes {x.shape} and {y.shape}")
        self.series.append(Series(x, y, label, _PALETTE[len(self.series) % len(_PALETTE)]))

    def _limits(self) -> tuple[float, float, float, float]:
        xs, ys = [np.array([xv for xv, _ in self.vlines], dtype=float)], [np.empty(0)]
        for s in self.series:
            ok = s.finite()
            xs.append(s.x[ok])
            ys.append(s.y[ok])
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        x0, x1 = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 1.0)
        y0, y1 = (float(ys.min()), float(ys.max())) if ys.size else (0.0, 1.0)
        if x1 <= x0:
            x1 = x0 + 1.0
        if y1 <= y0:
            y1 = y0 + 1.0
        pad = 0.05 * (y1 - y0)
        return x0, x1, y0 - pad, y1 + pad

    def render(self) -> str:
        x0, x1, y0, y1 = self._limits()
        ml, mr, mt, mb = 64, 16, 34, 46
        pw = self.width - ml - mr
        ph = self.height - mt - mb

        # Scalars or float64 arrays: the same float operations either way.
        def sx(x):
            return ml + (x - x0) / (x1 - x0) * pw

        def sy(y):
            return mt + ph - (y - y0) / (y1 - y0) * ph

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">',
            f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>',
        ]
        for t in _nice_ticks(x0, x1):
            parts += [_line(sx(t), mt, sx(t), mt + ph, "#dddddd", 1), _text(sx(t), mt + ph + 16, _fmt(t), 11, "#444444", "middle")]
        for t in _nice_ticks(y0, y1):
            parts += [_line(ml, sy(t), ml + pw, sy(t), "#dddddd", 1), _text(ml - 6, sy(t) + 3.5, _fmt(t), 11, "#444444", "end")]
        parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333333" stroke-width="1"/>')
        for xv, label in self.vlines:
            parts.append(_line(sx(xv), mt, sx(xv), mt + ph, "#888888", 1, ' stroke-dasharray="5,4"'))
            if label:
                parts.append(_text(sx(xv) + 4, mt + 14, label, 11, "#555555"))
        for s in self.series:
            # Break polylines at non-finite points so gaps stay gaps: each run
            # of finite points is [start, stop) between two mask edges.
            ok = s.finite()
            edges = np.flatnonzero(np.diff(ok, prepend=False, append=False)).tolist()
            px, py = sx(s.x).tolist(), sy(s.y).tolist()
            for start, stop in zip(edges[::2], edges[1::2]):
                if stop - start == 1:
                    parts.append(f'<circle cx="{_fmt(px[start])}" cy="{_fmt(py[start])}" r="2" fill="{s.color}"/>')
                else:
                    points = " ".join(map("%.6g,%.6g".__mod__, zip(px[start:stop], py[start:stop])))
                    parts.append(f'<polyline points="{points}" fill="none" stroke="{s.color}" stroke-width="1.6"/>')
        if self.title:
            parts.append(_text(self.width / 2, 20, self.title, 14, "#111111", "middle"))
        if self.xlabel:
            parts.append(_text(ml + pw / 2, self.height - 10, self.xlabel, 12, "#111111", "middle"))
        if self.ylabel:
            ycx, ycy = 16, mt + ph / 2
            parts.append(_text(ycx, ycy, self.ylabel, 12, "#111111", "middle", f' transform="rotate(-90 {ycx} {_fmt(ycy)})"'))
        labeled = [s for s in self.series if s.label]
        if labeled:
            lx, ly = ml + pw - 150, mt + 10
            parts.append(
                f'<rect x="{lx - 8}" y="{ly - 4}" width="150" height="{16 * len(labeled) + 8}" '
                'fill="#ffffff" opacity="0.85" stroke="#cccccc"/>'
            )
            for k, s in enumerate(labeled):
                yk = ly + 16 * k + 8
                parts += [_line(lx, yk - 4, lx + 22, yk - 4, s.color, 1.6), _text(lx + 28, yk, s.label, 11, "#222222")]
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.render())
