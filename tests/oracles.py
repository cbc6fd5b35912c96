"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the code paths they check: plain loops, no shared
helpers, so a bug in the implementation cannot hide in its own oracle.
"""


def hpwl_brute(points):
    min_x = min(p[0] for p in points)
    max_x = max(p[0] for p in points)
    min_y = min(p[1] for p in points)
    max_y = max(p[1] for p in points)
    return (max_x - min_x) + (max_y - min_y)


def rects_overlap(a, b):
    """Strict interior overlap of (x, y, w, h) rectangles."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return ax < bx + bw and bx < ax + aw and ay < by + bh and by < ay + ah


def any_overlap(rects):
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rects_overlap(rects[i], rects[j]):
                return True
    return False


def indirect_pairs_brute(cn, netlist, fanout_limit, name_filters):
    """Expected MM_indirect pair -> weight map, enumerated the slow way."""
    import fnmatch

    kind = {c.id: c.kind for c in cn.clusters}
    pair_w = {}

    # cluster level: macro<->cell bit widths summed over both directions
    bw = {}
    for src, dst, w in cn.edges:
        if kind[src] == "macro_cluster" and kind[dst] == "cell_cluster":
            bw[(src, dst)] = bw.get((src, dst), 0) + w
        elif kind[src] == "cell_cluster" and kind[dst] == "macro_cluster":
            bw[(dst, src)] = bw.get((dst, src), 0) + w
    for cell in [c.id for c in cn.clusters if c.kind == "cell_cluster"]:
        macros = sorted({m for (m, c) in bw if c == cell})
        for i in range(len(macros)):
            for j in range(i + 1, len(macros)):
                key = (macros[i], macros[j])
                pair_w[key] = pair_w.get(key, 0.0) + bw[(macros[i], cell)] + bw[(macros[j], cell)]

    # instance level
    for net in netlist.nets:
        drv = netlist.instances[net.driver[0]]
        if drv.master.kind != "cell":
            continue
        if len(net.sinks) > fanout_limit:
            continue
        if any(fnmatch.fnmatchcase(net.base_name, p) for p in name_filters):
            continue
        touched = sorted({
            cn.instance_to_cluster[i]
            for i, _ in net.sinks
            if kind[cn.instance_to_cluster[i]] == "macro_cluster"
        })
        for i in range(len(touched)):
            for j in range(i + 1, len(touched)):
                key = (touched[i], touched[j])
                pair_w[key] = pair_w.get(key, 0.0) + net.bit_width
    return pair_w


def two_hop_triples_brute(cn, k):
    """Expected MCC (macro, via, dst) -> (first_hop, second_hop) map from all 2-edge paths."""
    kind = {c.id: c.kind for c in cn.clusters}
    cell_areas = [c.area for c in cn.clusters if c.kind == "cell_cluster"]
    mean_area = sum(cell_areas) / len(cell_areas) if cell_areas else 0.0

    mc = {}
    for src, dst, w in cn.edges:
        if kind[src] == "macro_cluster" and kind[dst] == "cell_cluster":
            mc[(src, dst)] = mc.get((src, dst), 0) + w
    cc = {}
    for src, dst, w in cn.edges:
        if kind[src] == "cell_cluster" and kind[dst] == "cell_cluster":
            cc[(src, dst)] = cc.get((src, dst), 0) + w

    triples = {}
    for (m, c1), first_hop in mc.items():
        for (s, c2), wbits in cc.items():
            if s != c1 or c2 == m:
                continue
            dst = cn.clusters[c2]
            second_hop = k * wbits * (dst.area / mean_area) * dst.instance_count
            key = (m, c1, c2)
            assert key not in triples  # merged inputs make each path unique
            triples[key] = (float(first_hop), second_hop)
    return triples


def congestion_deposit_brute(fp, graph, x_edges, y_edges):
    """Per-bin demand from naive per-edge rectangle integration."""
    ny, nx = len(y_edges) - 1, len(x_edges) - 1
    demand = [[0.0] * nx for _ in range(ny)]
    for e in graph.edges:
        p1 = fp.reference_point(e.src)
        p2 = fp.reference_point(e.dst)
        lo_x, hi_x = min(p1[0], p2[0]), max(p1[0], p2[0])
        lo_y, hi_y = min(p1[1], p2[1]), max(p1[1], p2[1])
        h = (hi_x - lo_x) + (hi_y - lo_y)
        if h <= 0 or e.weight <= 0:
            continue
        total = e.weight * h
        for yi in range(ny):
            for xi in range(nx):
                ox = min(x_edges[xi + 1], hi_x) - max(x_edges[xi], lo_x)
                oy = min(y_edges[yi + 1], hi_y) - max(y_edges[yi], lo_y)
                bin_area = (x_edges[xi + 1] - x_edges[xi]) * (y_edges[yi + 1] - y_edges[yi])
                if bin_area <= 0:
                    continue
                if hi_x > lo_x and hi_y > lo_y:
                    if ox <= 0 or oy <= 0:
                        continue
                    share = (ox * oy) / ((hi_x - lo_x) * (hi_y - lo_y))
                elif hi_x > lo_x:
                    if ox <= 0 or not (y_edges[yi] <= lo_y < y_edges[yi + 1]
                                       or (yi == ny - 1 and lo_y == y_edges[ny])):
                        continue
                    share = ox / (hi_x - lo_x)
                else:
                    if oy <= 0 or not (x_edges[xi] <= lo_x < x_edges[xi + 1]
                                       or (xi == nx - 1 and lo_x == x_edges[nx])):
                        continue
                    share = oy / (hi_y - lo_y)
                demand[yi][xi] += total * share / bin_area
    return demand


def global_place_reference(
    graph,
    cn,
    outline: tuple[float, float],
    iterations: int = 20,
    seed: int = 0,
    macro_refs: dict[int, tuple[float, float]] | None = None,
) -> dict[int, tuple[float, float]]:
    """The dict-based global placement that ``placer.global_place_clusters``
    must reproduce bit for bit: weighted barycenter plus density spreading.

    Every iteration moves each cluster to the edge-weighted mean of its
    connected positions (IO anchors, already-placed macros when
    ``macro_refs`` is given, and other cell clusters), then relocates
    clusters out of over-full grid bins.  Deterministic for a given seed.
    Only one-hop MC and CC edges exert pull; derived edges would double count.
    """
    import math

    import numpy as np

    from dfplace.dataflow import CC, MC
    from dfplace.errors import EmptyGraph
    from dfplace.placer import io_anchor_positions

    if not cn.clusters:
        raise EmptyGraph("clustered netlist has no clusters")
    cells = sorted(cn.cell_cluster_ids())
    if not cells:
        return {}
    width, height = outline
    fixed = dict(io_anchor_positions(cn, outline))
    if macro_refs:
        fixed.update(macro_refs)
    cellset = set(cells)

    nbrs: dict[int, list[tuple[int, float]]] = {c: [] for c in cells}
    for e in graph.edges:
        if e.kind == MC:
            cell, other = (e.src, e.dst) if e.src in cellset else (e.dst, e.src)
            nbrs[cell].append((other, e.weight))
        elif e.kind == CC:
            nbrs[e.src].append((e.dst, e.weight))
            nbrs[e.dst].append((e.src, e.weight))

    rng = np.random.default_rng(seed)
    pos = {c: (width / 2.0, height / 2.0) for c in cells}
    grid = 8
    bw, bh = width / grid, height / grid
    cap = max(1, math.ceil(len(cells) / (grid * grid)))

    for _ in range(iterations):
        new = {}
        for c in cells:
            sw = sx = sy = 0.0
            for other, w in nbrs[c]:
                p = fixed.get(other)
                if p is None:
                    p = pos.get(other)
                if p is None:
                    continue  # unplaced macro during the first pass
                sw += w
                sx += w * p[0]
                sy += w * p[1]
            new[c] = (sx / sw, sy / sw) if sw > 0 else pos[c]
        pos = new

        bins: dict[tuple[int, int], list[int]] = {}
        for c in cells:
            bx = max(0, min(grid - 1, int(pos[c][0] / width * grid)))
            by = max(0, min(grid - 1, int(pos[c][1] / height * grid)))
            bins.setdefault((bx, by), []).append(c)
        occupancy = {b: len(v) for b, v in bins.items()}
        for b in sorted(bins):
            members = bins[b]
            if len(members) <= cap:
                continue
            for c in members[cap:]:
                target = min(
                    (
                        (bx, by)
                        for bx in range(grid)
                        for by in range(grid)
                        if occupancy.get((bx, by), 0) < cap
                    ),
                    key=lambda t: ((t[0] - b[0]) ** 2 + (t[1] - b[1]) ** 2, t),
                    default=None,
                )
                if target is None:
                    break
                occupancy[b] -= 1
                occupancy[target] = occupancy.get(target, 0) + 1
                cx = (target[0] + 0.5) * bw + rng.uniform(-bw / 4, bw / 4)
                cy = (target[1] + 0.5) * bh + rng.uniform(-bh / 4, bh / 4)
                pos[c] = (cx, cy)
        pos = {
            c: (min(max(p[0], 0.0), width), min(max(p[1], 0.0), height))
            for c, p in pos.items()
        }
    return pos


def loss_reference(fp, graph, area_scale, config):
    """The dataflow loss of a placed floorplan, one edge at a time: a dict of
    the ``placer.LossBreakdown`` fields.

    Pin centers are the mean pin offset (the footprint center when pinless),
    mirrored across the footprint per orientation: FS mirrors x, FN mirrors
    y, S both.  Sums run in edge order and macros in id order, so the result
    is the implementation's bit for bit.
    """
    from dfplace.placer import two_hop_coefficient

    mirror = {"N": (False, False), "FS": (True, False), "FN": (False, True), "S": (True, True)}

    def point(cid):
        mp = fp.macro_placements.get(cid)
        if mp is None:
            if cid in fp.cluster_positions:
                return fp.cluster_positions[cid]
            return fp.io_anchors[cid]
        if mp.pins:
            cx = sum(p[0] for p in mp.pins) / len(mp.pins)
            cy = sum(p[1] for p in mp.pins) / len(mp.pins)
        else:
            cx, cy = mp.width / 2.0, mp.height / 2.0
        fx, fy = mirror[mp.orientation]
        return (mp.x + (mp.width - cx if fx else cx), mp.y + (mp.height - cy if fy else cy))

    wl = {"mm": 0.0, "mc": 0.0, "mcc": 0.0}
    loss = {"mm": 0.0, "mc": 0.0, "mcc": 0.0}
    for e in graph.edges:
        if e.kind == "MM_direct":
            cat, coef = "mm", e.weight
        elif e.kind == "MM_indirect":
            cat, coef = "mm", e.weight * config.mm_indirect_scale
        elif e.kind == "MC":
            cat, coef = "mc", e.weight * config.mc_scale
        elif e.kind == "MCC":
            cat = "mcc"
            coef = config.mcc_scale * two_hop_coefficient(
                e.first_hop, e.weight, area_scale.get(e.src, 1.0), config.loss_variant
            )
        else:
            continue
        (x1, y1), (x2, y2) = point(e.src), point(e.dst)
        h = abs(x1 - x2) + abs(y1 - y2)
        wl[cat] += h
        loss[cat] += coef * h

    W, H = fp.outline
    overhang = boundary = 0.0
    for cid in sorted(fp.macro_placements):
        mp = fp.macro_placements[cid]
        x, y, w, h = mp.x, mp.y, mp.width, mp.height
        ox = max(0.0, -x) + max(0.0, x + w - W)
        oy = max(0.0, -y) + max(0.0, y + h - H)
        overhang += ox * ox + oy * oy
        if config.push_boundary_weight:
            boundary += max(0.0, min(x, y, W - x - w, H - y - h))
    overhang *= config.outline_weight
    boundary *= config.push_boundary_weight
    return {
        "wl_mm": wl["mm"], "wl_mc": wl["mc"], "wl_mcc": wl["mcc"],
        "loss_mm": loss["mm"], "loss_mc": loss["mc"], "loss_mcc": loss["mcc"],
        "loss_outline": overhang, "loss_boundary": boundary,
        "total": loss["mm"] + loss["mc"] + loss["mcc"] + overhang + boundary,
    }
