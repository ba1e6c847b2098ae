"""Minimal deterministic SVG line charts (no plotting dependencies).

Produces self-contained SVG documents with axes, nice-number ticks, polyline
series, optional vertical markers, and a simple legend.
Output is byte-deterministic for identical inputs: floats are formatted with
a fixed precision and nothing depends on time, locale, or ambient state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _fmt(x: float) -> str:
    return "%.6g" % x


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
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


@dataclass
class Series:
    x: list[float]
    y: list[float]
    label: str = ""
    color: str | None = None


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
        color = _PALETTE[len([s for s in self.series]) % len(_PALETTE)]
        self.series.append(Series(list(map(float, x)), list(map(float, y)), label, color))

    def _limits(self) -> tuple[float, float, float, float]:
        xs: list[float] = []
        ys: list[float] = []
        for s in self.series:
            for xv, yv in zip(s.x, s.y):
                if math.isfinite(xv) and math.isfinite(yv):
                    xs.append(xv)
                    ys.append(yv)
        for xv, _ in self.vlines:
            xs.append(xv)
        if not xs:
            xs = [0.0, 1.0]
        if not ys:
            ys = [0.0, 1.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
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

        def sx(x: float) -> float:
            return ml + (x - x0) / (x1 - x0) * pw

        def sy(y: float) -> float:
            return mt + ph - (y - y0) / (y1 - y0) * ph

        parts: list[str] = []
        parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">'
        )
        parts.append(f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>')
        style = "font-family:Helvetica,Arial,sans-serif"
        for t in _nice_ticks(x0, x1):
            parts.append(
                f'<line x1="{_fmt(sx(t))}" y1="{mt}" x2="{_fmt(sx(t))}" y2="{mt + ph}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(sx(t))}" y="{mt + ph + 16}" text-anchor="middle" '
                f'font-size="11" fill="#444444" style="{style}">{_fmt(t)}</text>'
            )
        for t in _nice_ticks(y0, y1):
            parts.append(
                f'<line x1="{ml}" y1="{_fmt(sy(t))}" x2="{ml + pw}" y2="{_fmt(sy(t))}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{ml - 6}" y="{_fmt(sy(t) + 3.5)}" text-anchor="end" '
                f'font-size="11" fill="#444444" style="{style}">{_fmt(t)}</text>'
            )
        parts.append(
            f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333333" stroke-width="1"/>'
        )
        for xv, label in self.vlines:
            parts.append(
                f'<line x1="{_fmt(sx(xv))}" y1="{mt}" x2="{_fmt(sx(xv))}" y2="{mt + ph}" '
                'stroke="#888888" stroke-width="1" stroke-dasharray="5,4"/>'
            )
            if label:
                parts.append(
                    f'<text x="{_fmt(sx(xv) + 4)}" y="{mt + 14}" font-size="11" '
                    f'fill="#555555" style="{style}">{label}</text>'
                )
        for s in self.series:
            color = s.color or _PALETTE[0]
            # Break polylines at non-finite points so gaps stay gaps.
            run: list[str] = []
            chunks: list[list[str]] = []
            for xv, yv in zip(s.x, s.y):
                if math.isfinite(xv) and math.isfinite(yv):
                    run.append(f"{_fmt(sx(xv))},{_fmt(sy(yv))}")
                elif run:
                    chunks.append(run)
                    run = []
            if run:
                chunks.append(run)
            for chunk in chunks:
                if len(chunk) == 1:
                    cx, cy = chunk[0].split(",")
                    parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
                else:
                    parts.append(
                        f'<polyline points="{" ".join(chunk)}" fill="none" stroke="{color}" '
                        'stroke-width="1.6"/>'
                    )
        if self.title:
            parts.append(
                f'<text x="{self.width / 2:g}" y="20" text-anchor="middle" font-size="14" '
                f'fill="#111111" style="{style}">{self.title}</text>'
            )
        if self.xlabel:
            parts.append(
                f'<text x="{ml + pw / 2:g}" y="{self.height - 10}" text-anchor="middle" '
                f'font-size="12" fill="#111111" style="{style}">{self.xlabel}</text>'
            )
        if self.ylabel:
            ycx = 16
            ycy = mt + ph / 2
            parts.append(
                f'<text x="{ycx}" y="{ycy:g}" text-anchor="middle" font-size="12" fill="#111111" '
                f'style="{style}" transform="rotate(-90 {ycx} {ycy:g})">{self.ylabel}</text>'
            )
        labeled = [s for s in self.series if s.label]
        if labeled:
            lx = ml + pw - 150
            ly = mt + 10
            parts.append(
                f'<rect x="{lx - 8}" y="{ly - 4}" width="150" height="{16 * len(labeled) + 8}" '
                'fill="#ffffff" opacity="0.85" stroke="#cccccc"/>'
            )
            for k, s in enumerate(labeled):
                yk = ly + 16 * k + 8
                parts.append(
                    f'<line x1="{lx}" y1="{yk - 4}" x2="{lx + 22}" y2="{yk - 4}" '
                    f'stroke="{s.color}" stroke-width="1.6"/>'
                )
                parts.append(
                    f'<text x="{lx + 28}" y="{yk}" font-size="11" fill="#222222" style="{style}">{s.label}</text>'
                )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.render())
