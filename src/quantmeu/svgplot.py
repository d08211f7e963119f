"""Minimal SVG 1.1 line plots, written directly without a plotting library.

Fixed 800x600 viewport with margins, axes, tick labels, polyline series,
optional vertical marker lines, and a legend. Enough to reproduce the
package's figures at the data level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN = {"left": 70, "right": 30, "top": 50, "bottom": 55}

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _escape(s: str) -> str:
    """Text escaped for XML, as `xml.sax.saxutils.escape` does it: `&`, then
    `>`, then `<`. That module imports `urllib.request`, which cost 23-36 ms
    of `import quantmeu` on a 2-vCPU host."""
    return s.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    dashed: bool = False

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64).reshape(-1)
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        if self.x.shape != self.y.shape:
            raise ValueError("series x and y must have equal length")
        if self.x.size < 2:
            raise ValueError("series needs at least two points")


@dataclass
class VLine:
    x: float
    label: str = ""
    color: str = "#555555"


def _nice_ticks(lo: float, hi: float, n: int = 6):
    """Round tick positions covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("axis bounds must be finite")
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e4:
        s = f"{v:.6g}"
    else:
        s = f"{v:.2e}"
    return s


class _Doc:
    def __init__(self):
        self.parts = [
            f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        ]

    def add(self, fragment: str):
        self.parts.append(fragment)

    def text(self, x, y, s, size=13, anchor="middle", color="#000000", rotate=None):
        transform = f' transform="rotate(-90 {x:.1f} {y:.1f})"' if rotate else ""
        self.add(f'<text x="{x:.1f}" y="{y:.1f}" font-family="sans-serif" '
                 f'font-size="{size}" fill="{color}" text-anchor="{anchor}"'
                 f'{transform}>{_escape(s)}</text>\n')

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0, dashed=False):
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self.add(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                 f'stroke="{color}" stroke-width="{width}"{dash}/>\n')

    def polyline(self, points, color, width=1.8, dashed=False):
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self.add(f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
                 f'{dash} points="{pts}"/>\n')

    def render(self) -> str:
        return "".join(self.parts) + "</svg>\n"


def line_plot(path, series: Sequence[Series], title: str = "",
              xlabel: str = "", ylabel: str = "",
              vlines: Sequence[VLine] = ()) -> None:
    """Write an SVG line chart of the given series to `path`."""
    if not series:
        raise ValueError("at least one series is required")
    xs = np.concatenate([s.x for s in series] +
                        ([np.array([v.x for v in vlines])] if vlines else []))
    ys = np.concatenate([s.y for s in series])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("plot data must be finite")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px0, px1 = MARGIN["left"], WIDTH - MARGIN["right"]
    py0, py1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]

    def to_px(x, y):
        fx = (x - x_lo) / (x_hi - x_lo)
        fy = (y - y_lo) / (y_hi - y_lo)
        return px0 + fx * (px1 - px0), py0 + fy * (py1 - py0)

    doc = _Doc()
    if title:
        doc.text(WIDTH / 2, MARGIN["top"] - 20, title, size=16)

    for t in _nice_ticks(x_lo, x_hi):
        px, _ = to_px(t, y_lo)
        doc.line(px, py0, px, py0 + 5, color="#333333")
        doc.line(px, py0, px, py1, color="#eeeeee")
        doc.text(px, py0 + 20, _fmt_tick(t), size=11)
    for t in _nice_ticks(y_lo, y_hi):
        _, py = to_px(x_lo, t)
        doc.line(px0 - 5, py, px0, py, color="#333333")
        doc.line(px0, py, px1, py, color="#eeeeee")
        doc.text(px0 - 9, py + 4, _fmt_tick(t), size=11, anchor="end")

    doc.line(px0, py0, px1, py0, color="#000000", width=1.2)
    doc.line(px0, py0, px0, py1, color="#000000", width=1.2)
    if xlabel:
        doc.text((px0 + px1) / 2, HEIGHT - 12, xlabel, size=13)
    if ylabel:
        doc.text(18, (py0 + py1) / 2, ylabel, size=13, rotate=True)

    for v in vlines:
        px, _ = to_px(v.x, y_lo)
        doc.line(px, py0, px, py1, color=v.color, width=1.4, dashed=True)
        if v.label:
            doc.text(px + 4, py1 + 14, v.label, size=11, anchor="start",
                     color=v.color)

    legend_y = MARGIN["top"] + 8
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [to_px(x, y) for x, y in zip(s.x, s.y)]
        doc.polyline(pts, color=color, dashed=s.dashed)
        if s.label:
            lx = px1 - 150
            doc.line(lx, legend_y, lx + 24, legend_y, color=color, width=2.4,
                     dashed=s.dashed)
            doc.text(lx + 30, legend_y + 4, s.label, size=12, anchor="start")
            legend_y += 18

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc.render())
