"""Self-contained SVG scatter/line plots with no rendering dependency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIDTH = 760
HEIGHT = 520
MARGIN_LEFT = 78
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 58


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape``
    writes them; that module would load ``urllib.request`` and ``ssl``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class Series:
    x: tuple[float, ...]
    y: tuple[float, ...]
    label: str
    kind: str = "line"          # "line" or "scatter"
    color: str = "#1f77b4"
    css_class: str = ""


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5.0               # about six ticks
    mag = 10.0 ** np.floor(np.log10(raw))
    step = next((mult * mag for mult in (1.0, 2.0, 5.0, 10.0) if raw <= mult * mag), 0.0)
    if step <= np.spacing(max(abs(lo), abs(hi))):
        return [lo]                 # a range a few ulps wide: t + step would not move t
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        v = float(t)
        if abs(v) < 1e-9 * step:
            v = 0.0
        ticks.append(v)
        t += step
    return ticks


def _bounds(series) -> tuple[float, float, float, float]:
    xs = np.concatenate([np.empty(0)] + [np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.empty(0)] + [np.asarray(s.y, dtype=float) for s in series])
    xs = xs[np.isfinite(xs)]
    ys = ys[np.isfinite(ys)]
    if xs.size == 0 or ys.size == 0:
        return 0.0, 1.0, 0.0, 1.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 <= 0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 <= 0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    xpad = 0.04 * (x1 - x0)
    ypad = 0.06 * (y1 - y0)
    return x0 - xpad, x1 + xpad, y0 - ypad, y1 + ypad


def render_plot(series, *, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render line/scatter series into a standalone SVG document string."""
    series = list(series)
    x0, x1, y0, y1 = _bounds(series)
    pw = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    ph = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return MARGIN_TOP + ph - (y - y0) / (y1 - y0) * ph

    def f(v: float) -> str:
        return format(v, ".2f")

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-size="15">{escape(title)}</text>'
        )

    for t in _nice_ticks(x0, x1):
        x = px(t)
        parts.append(
            f'<line x1="{f(x)}" y1="{MARGIN_TOP}" x2="{f(x)}" '
            f'y2="{MARGIN_TOP + ph}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{f(x)}" y="{MARGIN_TOP + ph + 18}" '
            f'text-anchor="middle">{format(t, ".4g")}</text>'
        )
    for t in _nice_ticks(y0, y1):
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{f(y)}" x2="{MARGIN_LEFT + pw}" '
            f'y2="{f(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{f(y + 4)}" '
            f'text-anchor="end">{format(t, ".4g")}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_LEFT + pw / 2:.1f}" y="{HEIGHT - 14}" '
            f'text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        cx, cy = 20, MARGIN_TOP + ph / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{escape(ylabel)}</text>'
        )

    for s in series:
        cls = f' class="{escape(s.css_class)}"' if s.css_class else ""
        pts = [
            (px(float(xv)), py(float(yv)))
            for xv, yv in zip(s.x, s.y)
            if np.isfinite(xv) and np.isfinite(yv)
        ]
        if s.kind == "scatter":
            dots = "".join(
                f'<circle cx="{f(x)}" cy="{f(y)}" r="2.2" fill="{s.color}" '
                f'fill-opacity="0.5"/>' for x, y in pts
            )
            parts.append(f"<g{cls}>{dots}</g>")
        else:
            coords = " ".join(f"{f(x)},{f(y)}" for x, y in pts)
            parts.append(
                f'<polyline{cls} points="{coords}" fill="none" '
                f'stroke="{s.color}" stroke-width="1.6"/>'
            )

    # legend, top-left inside the plot area
    lx, ly = MARGIN_LEFT + 12, MARGIN_TOP + 16
    for i, s in enumerate(series):
        y = ly + i * 18
        if s.kind == "scatter":
            parts.append(f'<circle cx="{lx + 9}" cy="{y - 4}" r="3" fill="{s.color}"/>')
        else:
            parts.append(
                f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 18}" y2="{y - 4}" '
                f'stroke="{s.color}" stroke-width="2"/>'
            )
        parts.append(f'<text x="{lx + 24}" y="{y}">{escape(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
