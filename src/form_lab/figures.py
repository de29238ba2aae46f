"""Dependency-free SVG scatter figures.

One figure shows a dataset (or a sampling run) as two point clouds - source
points in blue, endpoints in pink - with optional grey trajectory polylines
underneath.  Every data point is exactly one ``<circle>`` element (legend
swatches are ``<rect>``), so tests can count elements against point counts.
Output depends only on the inputs: same data, same bytes.
"""

from __future__ import annotations

import numpy as np

from . import formats

SOURCE_COLOR = "#1f77b4"  # blue
TARGET_COLOR = "#e377c2"  # pink
TRAJECTORY_COLOR = "#999999"

_WIDTH = _HEIGHT = 540.0
_POINT_RADIUS = 2.5
_MARGIN = 56.0
_TICKS = 5


def _fmt(x: float) -> str:
    """Coordinate formatting for SVG attributes: short and deterministic."""
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


def scatter_svg(
    source: np.ndarray,
    target: np.ndarray,
    trajectories: list[np.ndarray] | None = None,
    title: str = "",
) -> str:
    """Render source/target point clouds (and optional paths) as SVG text."""
    source = np.atleast_2d(np.asarray(source, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    trajectories = trajectories or []
    everything = [source, target] + [np.atleast_2d(np.asarray(t, dtype=np.float64)) for t in trajectories]
    everything = [a for a in everything if a.size]
    if not everything:
        raise ValueError("nothing to draw: both point sets are empty")
    allpts = np.concatenate(everything, axis=0)
    if allpts.shape[-1] != 2 or not np.all(np.isfinite(allpts)):
        raise ValueError("figure data must be finite 2-D points")

    # square data window (equal aspect), padded 8%
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    center = 0.5 * (lo + hi)
    span = float(max(np.max(hi - lo), 1e-9)) * 1.16
    x_min, y_min = center - 0.5 * span
    plot = min(_WIDTH, _HEIGHT) - 2.0 * _MARGIN
    scale = plot / span

    def sx(x: float) -> float:
        return _MARGIN + (x - x_min) * scale

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_min) * scale  # SVG y grows downward

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">'
    )
    parts.append(f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>')
    parts.append(
        f'<rect x="{_fmt(_MARGIN)}" y="{_fmt(_HEIGHT - _MARGIN - plot)}" width="{_fmt(plot)}" '
        f'height="{_fmt(plot)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    if title:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_MARGIN * 0.55)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )

    # ticks and labels
    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        data_x = x_min + frac * span
        data_y = y_min + frac * span
        px, py = sx(data_x), sy(data_y)
        bottom = _HEIGHT - _MARGIN
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(bottom)}" x2="{_fmt(px)}" y2="{_fmt(bottom + 5)}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(bottom + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(data_x)}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(_MARGIN - 5)}" y1="{_fmt(py)}" x2="{_fmt(_MARGIN)}" y2="{_fmt(py)}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(data_y)}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_HEIGHT - 12)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">x (du)</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(_HEIGHT / 2)}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {_fmt(_HEIGHT / 2)})">y (du)</text>'
    )

    for traj in trajectories:
        pts = np.atleast_2d(np.asarray(traj, dtype=np.float64))
        coords = " ".join(f"{_fmt(sx(p[0]))},{_fmt(sy(p[1]))}" for p in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{TRAJECTORY_COLOR}" '
            f'stroke-width="0.7" stroke-opacity="0.6"/>'
        )

    for pts, color in ((source, SOURCE_COLOR), (target, TARGET_COLOR)):
        for p in pts:
            parts.append(
                f'<circle cx="{_fmt(sx(p[0]))}" cy="{_fmt(sy(p[1]))}" r="{_fmt(_POINT_RADIUS)}" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )

    # legend: rect swatches so circles stay reserved for data points
    lx, ly = _MARGIN + 10.0, _HEIGHT - _MARGIN - plot + 14.0
    for row, (label, color) in enumerate((("source", SOURCE_COLOR), ("target", TARGET_COLOR))):
        y = ly + 16.0 * row
        parts.append(f'<rect x="{_fmt(lx)}" y="{_fmt(y - 8)}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{_fmt(lx + 15)}" y="{_fmt(y + 1)}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(path, svg_text: str) -> None:
    """Write ``svg_text`` to ``path`` with :func:`~form_lab.formats.write_text`: a failed write keeps the old file."""
    formats.write_text(path, [svg_text])
