"""Minimal dependency-free SVG line/scatter rendering.

Deliberately tiny: results are data files first (CSV); these static
renderings exist so a run can be eyeballed without extra tooling.
"""

import numpy as np

from .data import open_output

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]
WIDTH, HEIGHT = 720, 400
MARGIN = 48


def _limits(groups):
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in groups])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in groups])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    return x0, x1, y0 - pad, y1 + pad


def _project(x, y, lims):
    x0, x1, y0, y1 = lims
    px = MARGIN + (x - x0) / (x1 - x0) * (WIDTH - 2 * MARGIN)
    py = HEIGHT - MARGIN - (y - y0) / (y1 - y0) * (HEIGHT - 2 * MARGIN)
    return px, py


def _frame(title, lims):
    x0, x1, y0, y1 = lims
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
        f'<text x="{MARGIN}" y="{HEIGHT - 12}" font-family="sans-serif" font-size="10">'
        f"x: [{x0:.4g}, {x1:.4g}]  y: [{y0:.4g}, {y1:.4g}]</text>",
    ]
    return parts


def _legend(parts, labels):
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        y = MARGIN + 14 + 14 * i
        parts.append(
            f'<rect x="{WIDTH - MARGIN - 130}" y="{y - 9}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN - 115}" y="{y}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )


def line_plot(path, groups, title=""):
    """groups: list of (label, xs, ys) rendered as polylines."""
    lims = _limits(groups)
    parts = _frame(title, lims)
    for i, (label, xs, ys) in enumerate(groups):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            f"{px:.2f},{py:.2f}"
            for px, py in (_project(float(x), float(y), lims) for x, y in zip(xs, ys))
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    _legend(parts, [g[0] for g in groups])
    parts.append("</svg>")
    with open_output(path, "w", "plot") as fh:
        fh.write("\n".join(parts) + "\n")


def scatter_plot(path, groups, title=""):
    """groups: list of (label, xs, ys) rendered as dot clouds."""
    lims = _limits(groups)
    parts = _frame(title, lims)
    for i, (label, xs, ys) in enumerate(groups):
        color = PALETTE[i % len(PALETTE)]
        for x, y in zip(xs, ys):
            px, py = _project(float(x), float(y), lims)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{color}"/>')
    _legend(parts, [g[0] for g in groups])
    parts.append("</svg>")
    with open_output(path, "w", "plot") as fh:
        fh.write("\n".join(parts) + "\n")
