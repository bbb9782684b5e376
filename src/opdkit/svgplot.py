"""Minimal deterministic SVG line plots, no plotting library required.

Output is plain SVG text with fixed canvas geometry and fixed-precision
coordinates, so identical data always produces identical bytes.  Non-finite
y values break the polyline instead of being drawn.
"""

import math
import os

__all__ = ["Series", "line_plot", "write_plot"]

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48

class Series:
    def __init__(self, label: str, xs, ys, color: str,
                 width: float = 2.0, opacity: float = 1.0):
        self.label = label
        self.xs = [float(v) for v in xs]
        self.ys = [float(v) for v in ys]
        self.color = color
        self.width = width
        self.opacity = opacity


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _data_range(values) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def line_plot(title: str, x_label: str, y_label: str, series: list[Series]) -> str:
    x_lo, x_hi = _data_range([x for s in series for x in s.xs])
    y_lo, y_hi = _data_range([y for s in series for y in s.ys])
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.3f}" y1="{MARGIN_T}" x2="{x:.3f}" '
                     f'y2="{MARGIN_T + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.3f}" y="{MARGIN_T + plot_h + 16}" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{MARGIN_L}" y1="{y:.3f}" x2="{MARGIN_L + plot_w}" '
                     f'y2="{y:.3f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{y + 4:.3f}" '
                     f'text-anchor="end">{t:g}</text>')
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{y_label}</text>')

    legend_y = MARGIN_T + 8
    for s in series:
        segment: list[str] = []
        segments = [segment]
        for x, y in zip(s.xs, s.ys):
            if math.isfinite(y):
                segment.append(f"{sx(x):.3f},{sy(y):.3f}")
            elif segment:
                segment = []
                segments.append(segment)
        for points in segments:
            if len(points) >= 2:
                parts.append(f'<polyline points="{" ".join(points)}" fill="none" '
                             f'stroke="{s.color}" stroke-width="{s.width:g}" '
                             f'stroke-opacity="{s.opacity:g}"/>')
        if s.label:
            parts.append(f'<line x1="{MARGIN_L + plot_w - 150}" y1="{legend_y}" '
                         f'x2="{MARGIN_L + plot_w - 126}" y2="{legend_y}" '
                         f'stroke="{s.color}" stroke-width="{s.width:g}"/>')
            parts.append(f'<text x="{MARGIN_L + plot_w - 120}" y="{legend_y + 4}">'
                         f'{s.label}</text>')
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(path: str | os.PathLike, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg_text)
