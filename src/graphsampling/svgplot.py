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


def _text(x, y, size, body, anchor="", extra="") -> str:
    """One sans-serif ``<text>`` element; ``x`` and ``y`` come formatted."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}" font-size="{size}"{anchor} font-family="sans-serif"{extra}>{body}</text>'


def _line(x1, y1, x2, y2, stroke="black", extra="") -> str:
    """One ``<line>`` element; the coordinates come formatted."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{extra}/>'


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
        _text(f"{_WIDTH / 2:.1f}", 22, 15, _escape(title), "middle"),
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
        ay = f"{axis_y:.1f}"
        out.append(_line(_MARGIN_LEFT, ay, f"{_MARGIN_LEFT + plot_w:.1f}", ay))
        out.append(_line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, ay))
        for t in _ticks(x_lo, x_hi):
            out.append(_text(f"{sx(t):.1f}", f"{axis_y + 18:.1f}", 11, f"{t:.4g}", "middle"))
            out.append(_line(f"{sx(t):.1f}", ay, f"{sx(t):.1f}", f"{axis_y + 4:.1f}"))
        for t in _ticks(y_lo, y_hi):
            label = f"1e{t:.2f}" if log_y else f"{t:.4g}"
            out.append(_text(f"{_MARGIN_LEFT - 8:.1f}", f"{sy(t) + 4:.1f}", 11, label, "end"))
            out.append(_line(f"{_MARGIN_LEFT - 4:.1f}", f"{sy(t):.1f}", _MARGIN_LEFT, f"{sy(t):.1f}"))

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
            key_y = f"{ly - 4:.1f}"
            out.append(_line(f"{lx:.1f}", key_y, f"{lx + 22:.1f}", key_y, color, ' stroke-width="1.8"'))
            out.append(_text(f"{lx + 28:.1f}", f"{ly:.1f}", 12, _escape(label)))
    else:
        out.append(_text(f"{_WIDTH / 2:.1f}", f"{_HEIGHT / 2:.1f}", 13, "no finite data", "middle"))

    mid_y = f"{_MARGIN_TOP + plot_h / 2:.1f}"
    out.append(_text(f"{_MARGIN_LEFT + plot_w / 2:.1f}", f"{_HEIGHT - 12:.1f}", 13, _escape(x_label), "middle"))
    y_title = _escape(y_label + (" (log scale)" if log_y else ""))
    out.append(_text(18, mid_y, 13, y_title, "middle", f' transform="rotate(-90 18 {mid_y})"'))
    out.append("</svg>")
    return "\n".join(out) + "\n"
