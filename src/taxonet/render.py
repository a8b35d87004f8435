"""Static SVG renderings: network plots, per-threshold panels, and the
method-distance heatmap.

Everything is written as plain SVG text with fixed number formatting, so a
given (network, seed) pair produces byte-identical files on every run and
platform.  Layout is a classic force-directed embedding run for a fixed
number of iterations from a seeded start.

One layout per distinct network: a run and the ``render`` verb each pass
one ``layouts`` dict to all their drawings, so a network is laid out once
however often it is drawn.  The union is drawn both as ``network_t0.svg``
and as ``consensus_network.svg``, and consecutive thresholds often keep the
same edges.  A run records the dict in ``layouts.json``; ``render`` starts
from that record.
"""

from __future__ import annotations

import os
from html import escape

import numpy as np

from .consensus import SweepRow, WeightedConsensus, threshold_network, threshold_sweep
from .errors import RenderError
from .exports import write_text
from .network import BinaryNetwork

LAYOUT_ITERATIONS = 500
CANVAS = 600
MARGIN = 50
HEADER = 40


def fr_layout(adj: np.ndarray, seed: int) -> np.ndarray:
    """Fruchterman-Reingold embedding in the unit square.

    Runs a fixed iteration count with linear cooling; the only randomness
    is the seeded initial placement, so the result is reproducible.

    The coordinates are kept as two vectors and every pairwise array is
    laid out ``[j, i]`` (neighbour, node), so each node's displacement is a
    sum over the outer axis.  numpy adds such rows one after another, in
    neighbour order, which fixes the rounding of the returned positions.
    """
    p = adj.shape[0]
    rng = np.random.default_rng(seed)
    pos = rng.random((p, 2))
    if p == 1:
        return np.array([[0.5, 0.5]])
    a = np.ascontiguousarray(np.asarray(adj, dtype=float).T)
    k = np.sqrt(1.0 / p)
    t = 0.1
    dt = t / (LAYOUT_ITERATIONS + 1)
    edges = np.flatnonzero(a)
    weights = a.ravel()[edges]
    x = pos[:, 0].copy()
    y = pos[:, 1].copy()
    dx, dy, dist, force, work = (np.empty((p, p)) for _ in range(5))
    for _ in range(LAYOUT_ITERATIONS):
        # dx[j, i] = x[i] - x[j]
        np.subtract(x, x[:, None], out=dx)
        np.subtract(y, y[:, None], out=dy)
        np.multiply(dx, dx, out=dist)
        np.multiply(dy, dy, out=work)
        np.add(dist, work, out=dist)
        np.sqrt(dist, out=dist)
        np.clip(dist, 0.01, None, out=dist)
        # repulsion between all pairs, attraction along edges:
        # force = k * k / dist**2 - a * dist / k, where a is 0 off the edges
        np.multiply(dist, dist, out=force)
        np.divide(k * k, force, out=force)
        force.ravel()[edges] -= weights * dist.ravel()[edges] / k
        np.multiply(dx, force, out=work)
        disp_x = work.sum(axis=0)
        np.multiply(dy, force, out=work)
        disp_y = work.sum(axis=0)
        length = np.sqrt(disp_x * disp_x + disp_y * disp_y)
        np.clip(length, 1e-9, None, out=length)
        step = np.minimum(length, t)
        x = x + disp_x / length * step
        y = y + disp_y / length * step
        t -= dt
    return np.column_stack((x, y))


def _layout(sub: np.ndarray, seed: int, layouts: dict | None) -> np.ndarray:
    """``fr_layout(sub, seed)``, taken from ``layouts`` when it holds a
    finite ``(k, 2)`` array under the sha256 hex of all that the layout
    depends on: the adjacency's shape, dtype and bytes, and the seed."""
    if layouts is None:
        return fr_layout(sub, seed)
    import hashlib  # here, so that importing the CLI does not load OpenSSL
    head = f"{sub.shape} {sub.dtype.str} {seed}\n".encode()
    key = hashlib.sha256(head + sub.tobytes()).hexdigest()
    pos = layouts.get(key)
    if pos is None or pos.shape != (len(sub), 2) or not np.isfinite(pos).all():
        layouts[key] = pos = fr_layout(sub, seed)
    return pos


def _scaled(pos: np.ndarray) -> np.ndarray:
    lo = pos.min(axis=0)
    span = pos.max(axis=0) - lo
    span[span < 1e-12] = 1.0
    unit = (pos - lo) / span
    return MARGIN + unit * (CANVAS - 2 * MARGIN)


def _svg_open(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{MARGIN}" y="24" font-family="sans-serif" font-size="14" '
        f'fill="#333333">{escape(title, quote=False)}</text>',
    ]


def render_network_svg(
    net: BinaryNetwork,
    layout_seed: int,
    path,
    title: str | None = None,
    layouts: dict | None = None,
) -> None:
    """Draw the connected part of a network; isolated taxa are left out.

    A network with no edges at all becomes a captioned empty frame.  A
    ``layouts`` dict shared between calls keeps each layout, so a network
    drawn again with the same seed is not laid out again.
    """
    height = CANVAS + HEADER
    label = title if title is not None else f"{net.n_edges} edges"
    lines = _svg_open(CANVAS, height, label)
    degrees = net.adj.sum(axis=0)
    keep = np.flatnonzero(degrees > 0)
    if keep.size == 0:
        lines.append(
            f'<text x="{CANVAS // 2}" y="{height // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16" fill="#777777">'
            "no edges above threshold</text>"
        )
        lines.append("</svg>")
        write_text(path, "\n".join(lines) + "\n")
        return
    sub = net.adj[np.ix_(keep, keep)]
    pos = _scaled(_layout(sub, layout_seed, layouts))
    iu, ju = np.triu_indices(len(keep), k=1)
    for i, j in zip(iu.tolist(), ju.tolist()):
        if sub[i, j]:
            lines.append(
                f'<line x1="{pos[i, 0]:.2f}" y1="{pos[i, 1] + HEADER:.2f}" '
                f'x2="{pos[j, 0]:.2f}" y2="{pos[j, 1] + HEADER:.2f}" '
                'stroke="#8899aa" stroke-width="1.2"/>'
            )
    for idx, node in enumerate(keep.tolist()):
        x, y = pos[idx, 0], pos[idx, 1] + HEADER
        lines.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="7" fill="#4c78a8" stroke="#ffffff" '
            'stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{y - 10:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" fill="#222222">'
            f"{escape(net.taxa[node], quote=False)}</text>"
        )
    lines.append("</svg>")
    write_text(path, "\n".join(lines) + "\n")


def render_threshold_panel(
    c: WeightedConsensus, out_dir, layout_seed: int = 0, layouts: dict | None = None
) -> tuple[list[str], list[SweepRow]]:
    """One SVG per threshold t = 0 .. M-1, each annotated with the node and
    edge counts of its thresholded network.  Returns the file paths and the
    matching sweep table.  With a ``layouts`` dict, thresholds that keep the
    same network share one layout, and so do other drawings given the dict."""
    rows = threshold_sweep(c)
    paths = []
    for row in rows:
        net = threshold_network(c, row.t)
        name = os.path.join(out_dir, f"network_t{row.t}.svg")
        render_network_svg(
            net,
            layout_seed,
            name,
            title=f"t={row.t}: {row.connected_node_count} nodes, {row.edge_count} edges",
            layouts=layouts,
        )
        paths.append(name)
    return paths, rows


def _cell_color(v: float, vmax: float) -> str:
    if vmax <= 0:
        return "rgb(255,255,255)"
    frac = min(max(v / vmax, 0.0), 1.0)
    r = round(255 + (43 - 255) * frac)
    g = round(255 + (93 - 255) * frac)
    b = round(255 + (138 - 255) * frac)
    return f"rgb({r},{g},{b})"


def render_hamming_heatmap(h: np.ndarray, labels: list[str], path) -> None:
    """Annotated distance heatmap with method labels on both axes."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise RenderError("distance matrix must be square")
    if h.shape[0] != len(labels):
        raise RenderError("label count does not match the matrix")
    if not np.array_equal(h, h.T):
        raise RenderError("distance matrix must be symmetric")
    if np.diag(h).any():
        raise RenderError("distance matrix diagonal must be zero")
    m = h.shape[0]
    cell = 46
    left, top = 150, 120
    width = left + m * cell + MARGIN
    height = top + m * cell + MARGIN
    lines = _svg_open(width, height, "pairwise edge disagreements")
    vmax = float(h.max())
    for i in range(m):
        for j in range(m):
            x, y = left + j * cell, top + i * cell
            v = float(h[i, j])
            lines.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_cell_color(v, vmax)}" stroke="#dddddd"/>'
            )
            text_fill = "#ffffff" if vmax > 0 and v / vmax > 0.6 else "#222222"
            lines.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11" fill="{text_fill}">{int(v)}</text>'
            )
    for i, lab in enumerate(labels):
        y = top + i * cell + cell // 2 + 4
        lines.append(
            f'<text x="{left - 8}" y="{y}" text-anchor="end" font-family="sans-serif" '
            f'font-size="11" fill="#222222">{escape(lab, quote=False)}</text>'
        )
        x = left + i * cell + cell // 2
        lines.append(
            f'<text x="{x}" y="{top - 8}" text-anchor="start" font-family="sans-serif" '
            f'font-size="11" fill="#222222" transform="rotate(-60 {x} {top - 8})">'
            f"{escape(lab, quote=False)}</text>"
        )
    lines.append("</svg>")
    write_text(path, "\n".join(lines) + "\n")
