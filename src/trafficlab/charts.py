"""Self-contained SVG line charts: axes, ticks, legend, one polyline per
series. No plotting dependency; output is a single static file."""

from __future__ import annotations

from dataclasses import dataclass


class ChartError(ValueError):
    """Nothing drawable was supplied."""


PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
DASHES = ["", "6,3", "2,2", "8,3,2,3", "4,4", "1,3"]


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]

    def points(self):
        return [(x, y) for x, y in zip(self.xs, self.ys) if y is not None]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """``n`` evenly spaced ticks from ``lo`` to ``hi`` (``hi > lo``)."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def line_chart(series: list[Series], title: str = "", x_label: str = "",
               y_label: str = "", width: int = 720, height: int = 440) -> str:
    """Render series as one SVG document string."""
    drawable = [s for s in series if s.points()]
    if not drawable:
        raise ChartError("refusing to draw a chart with no data points")
    margin_l, margin_r, margin_t, margin_b = 70, 160, 46, 56
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    all_pts = [p for s in drawable for p in s.points()]
    x_lo = min(p[0] for p in all_pts)
    x_hi = max(p[0] for p in all_pts)
    y_lo = min(p[1] for p in all_pts)
    y_hi = max(p[1] for p in all_pts)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{_escape(title)}</text>')
    # axes
    x0, y0 = margin_l, margin_t + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
        f'stroke="black"/>')
    parts.append(
        f'<line x1="{x0}" y1="{margin_t}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.1f}" y1="{y0}" x2="{tx:.1f}" y2="{y0 + 5}" '
            f'stroke="black"/>')
        parts.append(
            f'<text x="{tx:.1f}" y="{y0 + 18}" text-anchor="middle">'
            f'{_fmt(tick)}</text>')
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{ty:.1f}" x2="{x0}" y2="{ty:.1f}" '
            f'stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{ty + 4:.1f}" text-anchor="end">'
            f'{_fmt(tick)}</text>')
    if x_label:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 14}" '
            f'text-anchor="middle">{_escape(x_label)}</text>')
    if y_label:
        cy = margin_t + plot_h / 2
        parts.append(
            f'<text x="18" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {cy:.1f})">{_escape(y_label)}</text>')
    # series, each drawn with the stroke of its legend line
    strokes = []
    for idx, s in enumerate(drawable):
        dash = DASHES[idx % len(DASHES)]
        strokes.append(f'stroke="{PALETTE[idx % len(PALETTE)]}" '
                       f'stroke-width="1.8"'
                       + (f' stroke-dasharray="{dash}"' if dash else ""))
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in s.points())
        parts.append(f'<polyline fill="none" {strokes[-1]} points="{pts}"/>')
    # legend
    lx = margin_l + plot_w + 14
    for idx, (s, stroke) in enumerate(zip(drawable, strokes)):
        ly = margin_t + 10 + idx * 20
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" {stroke}/>')
        parts.append(
            f'<text x="{lx + 32}" y="{ly + 4}">{_escape(s.label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def write_chart(path, series: list[Series], **kwargs) -> None:
    svg = line_chart(series, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
