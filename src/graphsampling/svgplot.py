"""Hand-rolled SVG line charts, so plotting needs no external dependency."""

from __future__ import annotations

import math
from typing import Sequence

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 150.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 55.0


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without its extra entities, so the module imports no XML or network stack."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _finite_points(xs, ys, log_y):
    pts = []
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        bad = not (math.isfinite(x) and math.isfinite(y)) or (log_y and y <= 0)
        pts.append(None if bad else (x, math.log10(y) if log_y else y))
    return pts


def _ticks(lo: float, hi: float, count: int = 5):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> str:
    """Render labelled polylines as a standalone SVG document.

    Non-finite values (and non-positive values on a log axis) break the
    polyline instead of being drawn. Output is a pure function of the
    inputs, so charts regenerate byte-identically.
    """
    prepared = [(label, _finite_points(xs, ys, log_y)) for label, xs, ys in series]
    all_pts = [p for _, pts in prepared for p in pts if p is not None]

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" font-size="15" text-anchor="middle" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]

    if all_pts:
        x_lo = min(p[0] for p in all_pts)
        x_hi = max(p[0] for p in all_pts)
        y_lo = min(p[1] for p in all_pts)
        y_hi = max(p[1] for p in all_pts)
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(x):
            return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y):
            return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

        axis_y = _MARGIN_TOP + plot_h
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{axis_y:.1f}" x2="{_MARGIN_LEFT + plot_w:.1f}" '
            f'y2="{axis_y:.1f}" stroke="black"/>'
        )
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
            f'y2="{axis_y:.1f}" stroke="black"/>'
        )
        for t in _ticks(x_lo, x_hi):
            out.append(
                f'<text x="{sx(t):.1f}" y="{axis_y + 18:.1f}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">{t:.4g}</text>'
            )
            out.append(
                f'<line x1="{sx(t):.1f}" y1="{axis_y:.1f}" x2="{sx(t):.1f}" '
                f'y2="{axis_y + 4:.1f}" stroke="black"/>'
            )
        for t in _ticks(y_lo, y_hi):
            label = f"1e{t:.2f}" if log_y else f"{t:.4g}"
            out.append(
                f'<text x="{_MARGIN_LEFT - 8:.1f}" y="{sy(t) + 4:.1f}" font-size="11" '
                f'text-anchor="end" font-family="sans-serif">{label}</text>'
            )
            out.append(
                f'<line x1="{_MARGIN_LEFT - 4:.1f}" y1="{sy(t):.1f}" x2="{_MARGIN_LEFT}" '
                f'y2="{sy(t):.1f}" stroke="black"/>'
            )

        for si, (label, pts) in enumerate(prepared):
            color = PALETTE[si % len(PALETTE)]
            segment: list[str] = []
            segments = [segment]
            for p in pts:
                if p is None:
                    segment = []
                    segments.append(segment)
                else:
                    segment.append(f"{sx(p[0]):.2f},{sy(p[1]):.2f}")
            for seg in segments:
                if len(seg) >= 2:
                    out.append(
                        f'<polyline points="{" ".join(seg)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.8"/>'
                    )
                elif len(seg) == 1:
                    x, y = seg[0].split(",")
                    out.append(f'<circle cx="{x}" cy="{y}" r="2.2" fill="{color}"/>')
            ly = _MARGIN_TOP + 16 + 18 * si
            lx = _MARGIN_LEFT + plot_w + 12
            out.append(
                f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" y2="{ly - 4:.1f}" '
                f'stroke="{color}" stroke-width="1.8"/>'
            )
            out.append(
                f'<text x="{lx + 28:.1f}" y="{ly:.1f}" font-size="12" '
                f'font-family="sans-serif">{_escape(label)}</text>'
            )
    else:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT / 2:.1f}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">no finite data</text>'
        )

    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12:.1f}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f"{_escape(y_label + (' (log scale)' if log_y else ''))}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
