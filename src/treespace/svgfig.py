"""Small SVG writers for scatter plots, histograms and pair grids.

No plotting dependency: figures are assembled as strings with fixed float
formatting, so identical inputs give byte-identical files.  A timestamp
comment is only written when the caller passes one in.  Titles and labels
are XML-escaped.
"""

from __future__ import annotations

from html import escape  # xml.sax.saxutils pulls in urllib.request

import numpy as np

__all__ = ["svg_scatter", "svg_histogram", "svg_pair_grid"]

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd",
            "#17becf", "#8c564b", "#e377c2")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _open_svg(width, height, timestamp):
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
    ]
    if timestamp:
        lines.insert(0, f"<!-- generated {timestamp} -->")
    lines.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    return lines


def _spans(values):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _color_key(labels):
    order = []
    for lab in labels:
        if lab not in order:
            order.append(lab)
    order = sorted(order, key=str)
    return {lab: _PALETTE[i % len(_PALETTE)] for i, lab in enumerate(order)}


def svg_scatter(points, labels=None, title: str = "",
                timestamp: str | None = None) -> str:
    """Colored scatter of (n, 2) points; one color per distinct label."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    labels = list(labels) if labels is not None else ["all"] * n
    colors = _color_key(labels)
    size, margin = 480, 40
    span = size - 2 * margin
    x0, x1 = _spans(pts[:, 0])
    y0, y1 = _spans(pts[:, 1])

    def sx(v):
        return margin + (v - x0) / (x1 - x0) * span

    def sy(v):
        return size - margin - (v - y0) / (y1 - y0) * span

    out = _open_svg(size, size, timestamp)
    out.append(f'<rect x="{margin}" y="{margin}" width="{span}" '
               f'height="{span}" fill="none" stroke="#888"/>')
    if title:
        out.append(f'<text x="{size // 2}" y="24" text-anchor="middle" '
                   f'font-size="14">{escape(title)}</text>')
    for (x, y), lab in zip(pts, labels):
        out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" '
                   f'r="3" fill="{colors[lab]}" fill-opacity="0.7"/>')
    for i, (lab, col) in enumerate(sorted(colors.items(),
                                          key=lambda kv: str(kv[0]))):
        y = margin + 14 + 16 * i
        out.append(f'<circle cx="{margin + 10}" cy="{y - 4}" r="4" '
                   f'fill="{col}"/>')
        out.append(f'<text x="{margin + 20}" y="{y}" '
                   f'font-size="12">{escape(str(lab))}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def svg_histogram(counts, edges, title: str = "",
                  timestamp: str | None = None) -> str:
    """Bar chart of pre-binned counts over the given bin edges."""
    counts = np.asarray(counts, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if len(edges) != len(counts) + 1:
        raise ValueError("need len(edges) == len(counts) + 1")
    width, height, margin = 480, 320, 40
    wspan = width - 2 * margin
    hspan = height - 2 * margin
    top = max(float(counts.max()), 1.0)
    x0, x1 = float(edges[0]), float(edges[-1])
    if x1 == x0:
        x1 = x0 + 1.0

    out = _open_svg(width, height, timestamp)
    if title:
        out.append(f'<text x="{width // 2}" y="24" text-anchor="middle" '
                   f'font-size="14">{escape(title)}</text>')
    for i, c in enumerate(counts):
        bx0 = margin + (edges[i] - x0) / (x1 - x0) * wspan
        bx1 = margin + (edges[i + 1] - x0) / (x1 - x0) * wspan
        bh = c / top * hspan
        out.append(
            f'<rect x="{_fmt(bx0)}" y="{_fmt(height - margin - bh)}" '
            f'width="{_fmt(max(bx1 - bx0 - 1.0, 0.5))}" '
            f'height="{_fmt(bh)}" fill="#1f77b4"/>')
    out.append(f'<line x1="{margin}" y1="{height - margin}" '
               f'x2="{width - margin}" y2="{height - margin}" '
               f'stroke="#444"/>')
    out.append(f'<text x="{margin}" y="{height - margin + 16}" '
               f'font-size="11">{edges[0]:.3g}</text>')
    out.append(f'<text x="{width - margin}" y="{height - margin + 16}" '
               f'text-anchor="end" font-size="11">{edges[-1]:.3g}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def svg_pair_grid(values, names, timestamp: str | None = None) -> str:
    """Matrix of small scatters: column j against column k for all pairs.

    Diagonal cells show the column histogram instead.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    names = list(names)
    m = len(names)
    if vals.shape[1] != m:
        raise ValueError("names do not match column count")
    pad, cell = 26, 140
    size = pad + m * cell
    out = _open_svg(size, size, timestamp)
    spans = [_spans(vals[:, j]) for j in range(m)]
    for row in range(m):
        for col in range(m):
            ox = pad + col * cell
            oy = pad + row * cell
            out.append(f'<rect x="{ox}" y="{oy}" width="{cell}" '
                       f'height="{cell}" fill="none" stroke="#ccc"/>')
            (cx0, cx1) = spans[col]
            if row == col:
                counts, edges = np.histogram(vals[:, col], bins=10)
                top = max(int(counts.max()), 1)
                for i, c in enumerate(counts):
                    bx0 = ox + (edges[i] - cx0) / (cx1 - cx0) * cell
                    bx1 = ox + (edges[i + 1] - cx0) / (cx1 - cx0) * cell
                    bh = c / top * (cell - 8)
                    out.append(
                        f'<rect x="{_fmt(bx0)}" y="{_fmt(oy + cell - bh)}" '
                        f'width="{_fmt(max(bx1 - bx0 - 1.0, 0.5))}" '
                        f'height="{_fmt(bh)}" fill="#1f77b4"/>')
            else:
                (cy0, cy1) = spans[row]
                for x, y in zip(vals[:, col], vals[:, row]):
                    px = ox + (x - cx0) / (cx1 - cx0) * cell
                    py = oy + cell - (y - cy0) / (cy1 - cy0) * cell
                    out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                               f'r="2" fill="#d62728" '
                               f'fill-opacity="0.6"/>')
    for j, name in enumerate(names):
        name = escape(str(name))
        out.append(f'<text x="{pad + j * cell + cell // 2}" y="16" '
                   f'text-anchor="middle" font-size="11">{name}</text>')
        out.append(f'<text x="12" y="{pad + j * cell + cell // 2}" '
                   f'font-size="11" transform="rotate(-90 12 '
                   f'{pad + j * cell + cell // 2})" '
                   f'text-anchor="middle">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
