"""Static SVG rendering of a floorplan: outline, macros with orientation
markers, cluster centers, optional dataflow edges and congestion heat."""

from __future__ import annotations

from .metrics import CongestionGrid
from .placer import ORIENT_FLAGS, Floorplan


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_svg(
    fp: Floorplan,
    graph=None,
    show_edges: bool = False,
    congestion_grid: CongestionGrid | None = None,
    scale: float = 8.0,
    names: dict[int, str] | None = None,
) -> str:
    """Draw the floorplan as an SVG document string.

    Macros are rectangles with a corner triangle that mirrors with the
    orientation (lower-left for N); cell clusters are dots, IO anchors are
    squares on the boundary.  ``show_edges`` overlays dataflow edges with
    stroke width scaled by weight; ``congestion_grid`` adds a heat layer
    under everything else.  Y axis is flipped so the origin is bottom-left.
    """
    W, H = fp.outline
    names = names or {}

    def px(x):
        return _fmt(x * scale)

    def py(y):
        return _fmt((H - y) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(W * scale)}" '
        f'height="{_fmt(H * scale)}" viewBox="0 0 {_fmt(W * scale)} {_fmt(H * scale)}">',
    ]

    if congestion_grid is not None:
        parts.append('<g class="congestion">')
        g = congestion_grid
        peak = max(float(g.demand.max()), 1e-12)
        for yi in range(g.demand.shape[0]):
            for xi in range(g.demand.shape[1]):
                level = float(g.demand[yi, xi]) / peak
                if level <= 0.0:
                    continue
                x0, x1 = g.x_edges[xi], g.x_edges[xi + 1]
                y0, y1 = g.y_edges[yi], g.y_edges[yi + 1]
                parts.append(
                    f'<rect x="{px(x0)}" y="{py(y1)}" width="{_fmt((x1 - x0) * scale)}" '
                    f'height="{_fmt((y1 - y0) * scale)}" fill="#d33" '
                    f'fill-opacity="{level * 0.6:.3f}"/>'
                )
        parts.append("</g>")

    parts.append(
        f'<rect class="outline" x="0" y="0" width="{_fmt(W * scale)}" '
        f'height="{_fmt(H * scale)}" fill="none" stroke="#333" stroke-width="1"/>'
    )

    if show_edges and graph is not None:
        peak_w = max((e.weight for e in graph.edges), default=1.0) or 1.0
        parts.append('<g class="edges">')
        for e, (x1, y1, x2, y2) in zip(graph.edges, fp.edge_endpoints(graph).tolist()):
            sw = 0.3 + 2.2 * (e.weight / peak_w)
            parts.append(
                f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" '
                f'y2="{py(y2)}" stroke="#69c" stroke-width="{sw:.3f}" '
                f'stroke-opacity="0.5"/>'
            )
        parts.append("</g>")

    for cid in sorted(fp.macro_placements):
        mp = fp.macro_placements[cid]
        label = names.get(cid, f"macro{cid}")
        cx, cy = ORIENT_FLAGS[mp.orientation]
        tx = mp.x + cx * mp.width
        ty = mp.y + cy * mp.height
        s = min(mp.width, mp.height) * 0.25
        dxs = -s if cx else s
        dys = -s if cy else s
        parts.append(f'<g class="macro" id="macro-{cid}">')
        parts.append(f"<title>{label}</title>")
        parts.append(
            f'<rect x="{px(mp.x)}" y="{py(mp.y + mp.height)}" '
            f'width="{_fmt(mp.width * scale)}" height="{_fmt(mp.height * scale)}" '
            f'fill="#adf" stroke="#248" stroke-width="1"/>'
        )
        parts.append(
            f'<polygon class="marker" points="{px(tx)},{py(ty)} '
            f'{px(tx + dxs)},{py(ty)} {px(tx)},{py(ty + dys)}" fill="#d22"/>'
        )
        parts.append("</g>")

    for cid in sorted(fp.cluster_positions):
        x, y = fp.cluster_positions[cid]
        label = names.get(cid, f"cluster{cid}")
        parts.append(f'<g class="cluster" id="cluster-{cid}">')
        parts.append(f"<title>{label}</title>")
        parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="#2a2"/>')
        parts.append("</g>")

    for cid in sorted(fp.io_anchors):
        x, y = fp.io_anchors[cid]
        parts.append(
            f'<rect class="io" x="{_fmt(x * scale - 4)}" y="{_fmt((H - y) * scale - 4)}" '
            f'width="8" height="8" fill="#fa0" stroke="#840"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
