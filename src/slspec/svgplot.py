"""Minimal standalone SVG line plots (no plotting dependency)."""
from __future__ import annotations

import math
from typing import Sequence

_COLORS = ("#1965b0", "#dc050c", "#4eb265", "#f7a035", "#882e72")


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(t)
        t += step
    return out


def line_plot(path: str, xs: Sequence, series: dict, title: str = "",
              xlabel: str = "x", ylabel: str = "") -> None:
    """Write a single-panel 720x480 SVG line plot; series maps label -> y-array."""
    width, height = 720, 480
    xs = [float(v) for v in xs]
    data = {}
    for name, ys in series.items():
        pts = [(x, float(y)) for x, y in zip(xs, ys) if math.isfinite(float(y))]
        if pts:
            data[name] = pts
    if not data:
        raise ValueError("nothing plottable")
    all_y = [y for pts in data.values() for _, y in pts]
    all_x = [x for pts in data.values() for x, _ in pts]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    ml, mr, mt, mb = 70, 20, 34, 48
    pw, ph = width - ml - mr, height - mt - mb

    def px(x):
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y):
        return mt + ph * (1 - (y - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(f'<text x="{width/2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for t in _ticks(x0, x1):
        X = px(t)
        parts.append(f'<line x1="{X:.1f}" y1="{mt+ph}" x2="{X:.1f}" y2="{mt+ph+4}" stroke="#444"/>')
        parts.append(f'<text x="{X:.1f}" y="{mt+ph+18}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y0, y1):
        Y = py(t)
        parts.append(f'<line x1="{ml-4}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{ml-8}" y="{Y+4:.1f}" text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{ml+pw/2:.1f}" y="{height-10}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {mt+ph/2:.1f})">{ylabel}</text>')
    for ci, (name, pts) in enumerate(data.items()):
        color = _COLORS[ci % len(_COLORS)]
        d = " ".join(f"{'M' if i == 0 else 'L'}{px(x):.2f},{py(y):.2f}"
                     for i, (x, y) in enumerate(pts))
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{ml+10}" y="{mt+16+14*ci}" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
