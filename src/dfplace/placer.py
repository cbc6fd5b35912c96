"""Cluster global placement and sequence-pair macro annealing.

Cell clusters get coarse positions from weighted-barycenter iterations with a
grid density spreading step.  Macro clusters are packed by decoding a
sequence pair (longest-path evaluation, overlap-free by construction) and the
packing is optimized with Metropolis annealing against the dataflow loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusteredNetlist
from .dataflow import CC, MC, MCC, MM_DIRECT, MM_INDIRECT, DataflowGraph
from .errors import BadPermutation, EmptyGraph, UnplacedCluster

ORIENT_FLAGS = {"N": (False, False), "FS": (True, False), "FN": (False, True), "S": (True, True)}
LOSS_VARIANTS = ("eq5", "eq6", "eq8")


@dataclass(frozen=True)
class SequencePair:
    pos: tuple[int, ...]
    neg: tuple[int, ...]


@dataclass(frozen=True)
class MacroShape:
    """Rectangle footprint of a macro cluster with pin offsets (N orientation)."""

    width: float
    height: float
    pins: tuple[tuple[float, float], ...]

    def pin_offset(self, orientation: str = "N") -> tuple[float, float]:
        """Pin center relative to the lower-left corner, mirrored per
        ``ORIENT_FLAGS[orientation]``; the footprint center when pinless."""
        if not self.pins:
            cx, cy = self.width / 2.0, self.height / 2.0
        else:
            cx = sum(p[0] for p in self.pins) / len(self.pins)
            cy = sum(p[1] for p in self.pins) / len(self.pins)
        mx, my = ORIENT_FLAGS[orientation]
        return (self.width - cx if mx else cx, self.height - cy if my else cy)


@dataclass
class MacroPlacement:
    x: float
    y: float
    width: float
    height: float
    orientation: str = "N"
    pins: tuple[tuple[float, float], ...] = ()

    def pin_center(self) -> tuple[float, float]:
        """Absolute pin center under the current orientation."""
        cx, cy = MacroShape(self.width, self.height, self.pins).pin_offset(self.orientation)
        return (self.x + cx, self.y + cy)

    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)


@dataclass
class Floorplan:
    outline: tuple[float, float]
    macro_placements: dict[int, MacroPlacement] = field(default_factory=dict)
    cluster_positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    io_anchors: dict[int, tuple[float, float]] = field(default_factory=dict)

    def reference_point(self, cid: int) -> tuple[float, float]:
        """Macro pin center, cell cluster position or IO anchor for ``cid``."""
        mp = self.macro_placements.get(cid)
        if mp is not None:
            return mp.pin_center()
        p = self.cluster_positions.get(cid)
        if p is not None:
            return p
        p = self.io_anchors.get(cid)
        if p is not None:
            return p
        raise UnplacedCluster(f"cluster {cid} has no position in the floorplan")

    def edge_endpoints(self, graph: DataflowGraph) -> np.ndarray:
        """``[E, 4]`` array of (x1, y1, x2, y2): the reference points of each
        edge's src and dst, in edge order; each cluster is resolved once."""
        ids = dict.fromkeys(cid for e in graph.edges for cid in (e.src, e.dst))
        at = {cid: self.reference_point(cid) for cid in ids}
        rows = [(*at[e.src], *at[e.dst]) for e in graph.edges]
        return np.array(rows, dtype=float).reshape(len(rows), 4)


def io_anchor_positions(cn: ClusteredNetlist, outline: tuple[float, float]) -> dict[int, tuple[float, float]]:
    width, height = outline
    at = {
        "N": (width / 2.0, height),
        "S": (width / 2.0, 0.0),
        "E": (width, height / 2.0),
        "W": (0.0, height / 2.0),
    }
    return {c.id: at[c.hierarchy_root[1]] for c in cn.clusters if c.is_io}


def macro_shapes(cn: ClusteredNetlist) -> dict[int, MacroShape]:
    """Footprints for the real (non-IO) macro clusters.

    Multi-macro clusters are laid out on a near-square grid in canonical
    member order; the cluster is one rigid rectangle from then on.
    """
    netlist = cn.netlist
    shapes: dict[int, MacroShape] = {}
    for c in cn.clusters:
        if c.kind != "macro_cluster" or c.is_io:
            continue
        masters = [netlist.instances[i].master for i in c.members]
        if len(masters) == 1:
            m = masters[0]
            shapes[c.id] = MacroShape(m.width, m.height, tuple((dx, dy) for _, dx, dy in m.pin_offsets))
            continue
        cols = math.ceil(math.sqrt(len(masters)))
        rows = math.ceil(len(masters) / cols)
        cell_w = max(m.width for m in masters)
        cell_h = max(m.height for m in masters)
        pins = []
        for k, m in enumerate(masters):
            ox = (k % cols) * cell_w
            oy = (k // cols) * cell_h
            if m.pin_offsets:
                pins.extend((ox + dx, oy + dy) for _, dx, dy in m.pin_offsets)
            else:
                pins.append((ox + m.width / 2.0, oy + m.height / 2.0))
        shapes[c.id] = MacroShape(cols * cell_w, rows * cell_h, tuple(pins))
    return shapes


# ---------------------------------------------------------------------------
# Sequence-pair decoding
# ---------------------------------------------------------------------------

def _decode_sp(pos, neg, widths, heights) -> tuple[list[float], list[float], float, float]:
    """Lower-left coordinates of each macro plus the packing's bounding box
    (width, height).

    Macros are visited in ``pos`` order for x (reverse order for y); of those
    already visited, the ones earlier in ``neg`` are exactly the ones to the
    left (below).  ``right[r + 1]`` (``top[r + 1]``) holds the right (top)
    edge of the visited macro at ``neg`` rank r and 0 otherwise, so each
    coordinate is the largest edge up to the macro's own rank.
    """
    n = len(pos)
    rank = [0] * n
    for r, v in enumerate(neg):
        rank[v] = r
    xs = [0.0] * n
    right = [0.0] * (n + 1)
    for b in pos:
        r = rank[b]
        xs[b] = x = max(right[:r + 1])
        right[r + 1] = x + widths[b]
    ys = [0.0] * n
    top = [0.0] * (n + 1)
    for a in reversed(pos):
        r = rank[a]
        ys[a] = y = max(top[:r + 1])
        top[r + 1] = y + heights[a]
    return xs, ys, max(right), max(top)


def evaluate_sequence_pair(sp: SequencePair, sizes) -> tuple[list[float], list[float]]:
    """Decode a sequence pair into packed lower-left coordinates.

    A before B in both sequences places A left of B; A before B in ``pos``
    but after B in ``neg`` places A above B.  Coordinates come from the
    longest paths in the implied horizontal/vertical constraint graphs, so no
    two rectangles overlap.
    """
    n = len(sizes)
    if sorted(sp.pos) != list(range(n)) or sorted(sp.neg) != list(range(n)):
        raise BadPermutation(f"pos/neg must both permute 0..{n - 1}")
    xs, ys, _, _ = _decode_sp(sp.pos, sp.neg, [w for w, _ in sizes], [h for _, h in sizes])
    return xs, ys


def normalize_macro_area(areas) -> list[float]:
    """Map areas affinely onto [1, 2]; all-equal inputs map to 1."""
    areas = list(areas)
    if not areas:
        return []
    lo, hi = min(areas), max(areas)
    if hi == lo:
        return [1.0] * len(areas)
    return [1.0 + (a - lo) / (hi - lo) for a in areas]


def two_hop_coefficient(first_hop: float, second_hop: float, area_scale: float, variant: str) -> float:
    """Weight applied to a two-hop edge's wirelength under each loss variant."""
    if variant == "eq5":
        return second_hop
    if variant == "eq6":
        return first_hop * second_hop
    if variant == "eq8":
        return math.sqrt(first_hop * second_hop) / area_scale
    raise ValueError(f"unknown loss variant '{variant}'")


@dataclass
class PlacerConfig:
    loss_variant: str = "eq8"
    mc_scale: float = 1.0
    mcc_scale: float = 1.0
    mm_indirect_scale: float = 1.0  # 0 gives a direct-connections-only baseline
    outline_weight: float = 1.0
    push_boundary_weight: float = 0.0


@dataclass
class LossBreakdown:
    wl_mm: float = 0.0
    wl_mc: float = 0.0
    wl_mcc: float = 0.0
    loss_mm: float = 0.0
    loss_mc: float = 0.0
    loss_mcc: float = 0.0
    loss_outline: float = 0.0
    loss_boundary: float = 0.0
    total: float = 0.0


_MM_CAT, _MC_CAT, _MCC_CAT = 0, 1, 2


class _LossEvaluator:
    """Precompiled edge terms for fast repeated loss evaluation.

    Macro endpoints (the keys of ``shapes``) are symbolic indices resolved
    against the candidate positions; every other endpoint is folded into a
    fixed point at build time through ``fp.reference_point``.  ``terms`` feeds
    the per-category ``breakdown``; ``total`` reads the same terms as one flat
    table with a row per term and axis: ``ia``/``ib`` index
    ``ext = [mx..., my..., fixed coords...]``, ``d`` is the pin-offset
    difference and ``coef`` the term's weight.
    """

    def __init__(self, graph, shapes, fp, area_scale, config):
        self.outline = fp.outline
        self.config = config
        self.ids = sorted(shapes)
        self.index = {cid: i for i, cid in enumerate(self.ids)}
        self.widths = [shapes[c].width for c in self.ids]
        self.heights = [shapes[c].height for c in self.ids]
        self.pcx = [shapes[c].pin_offset()[0] for c in self.ids]
        self.pcy = [shapes[c].pin_offset()[1] for c in self.ids]

        self.terms = []  # (category, coef, i1, fx1, fy1, i2, fx2, fy2)
        for e in graph.edges:
            if e.kind == MM_DIRECT:
                cat, coef = _MM_CAT, e.weight
            elif e.kind == MM_INDIRECT:
                cat, coef = _MM_CAT, e.weight * config.mm_indirect_scale
            elif e.kind == MC:
                cat, coef = _MC_CAT, e.weight * config.mc_scale
            elif e.kind == MCC:
                cat = _MCC_CAT
                coef = config.mcc_scale * two_hop_coefficient(
                    e.first_hop, e.weight, area_scale.get(e.src, 1.0), config.loss_variant
                )
            else:
                continue
            ends = []
            for cid in (e.src, e.dst):
                i = self.index.get(cid)
                ends += (i, 0.0, 0.0) if i is not None else (-1, *fp.reference_point(cid))
            self.terms.append((cat, coef, *ends))
        self.const_loss = sum(
            t[1] * (abs(t[3] - t[6]) + abs(t[4] - t[7]))
            for t in self.terms
            if t[1] != 0.0 and t[2] < 0 and t[5] < 0
        )

        n = len(self.ids)
        fixed: list[float] = []
        rows = []  # (ia, ib, d, coef)

        def end(i, f, axis, pin):
            if i >= 0:
                return axis * n + i, pin[i]
            fixed.append(f)
            return 2 * n + len(fixed) - 1, 0.0

        for _, coef, i1, fx1, fy1, i2, fx2, fy2 in self.terms:
            if coef == 0.0 or (i1 < 0 and i2 < 0):
                continue
            for axis, pin, f1, f2 in ((0, self.pcx, fx1, fx2), (1, self.pcy, fy1, fy2)):
                a, da = end(i1, f1, axis, pin)
                b, db = end(i2, f2, axis, pin)
                rows.append((a, b, da - db, coef))
        ia, ib, d, coef = zip(*rows) if rows else ((), (), (), ())
        self.ia = np.array(ia, dtype=np.intp)
        self.ib = np.array(ib, dtype=np.intp)
        self.d = np.array(d, dtype=float)
        self.coef = np.array(coef, dtype=float)
        self._ext = np.array([0.0] * (2 * n) + fixed)

    def _geometry_terms(self, mx, my):
        """Outline overhang penalty (quadratic) and optional boundary pull."""
        W, H = self.outline
        cfg = self.config
        outline = 0.0
        boundary = 0.0
        for i in range(len(self.ids)):
            x, y, w, h = mx[i], my[i], self.widths[i], self.heights[i]
            ox = max(0.0, -x) + max(0.0, x + w - W)
            oy = max(0.0, -y) + max(0.0, y + h - H)
            outline += ox * ox + oy * oy
            if cfg.push_boundary_weight:
                boundary += max(0.0, min(x, y, W - x - w, H - y - h))
        return cfg.outline_weight * outline, cfg.push_boundary_weight * boundary

    def total(self, mx, my, fits: bool = False) -> float:
        """Loss at lower-left corners ``mx``/``my``.  ``fits`` says every macro
        lies inside the outline, so without a boundary pull the geometry
        terms are zero and are skipped."""
        n = len(mx)
        ext = self._ext
        ext[:n] = mx
        ext[n:2 * n] = my
        t = self.const_loss + float(self.coef @ np.abs(ext[self.ia] - ext[self.ib] + self.d))
        if fits and not self.config.push_boundary_weight:
            return t
        o, b = self._geometry_terms(mx, my)
        return t + o + b

    def breakdown(self, mx, my, pcx=None, pcy=None) -> LossBreakdown:
        pcx = self.pcx if pcx is None else pcx
        pcy = self.pcy if pcy is None else pcy
        wl = [0.0, 0.0, 0.0]
        loss = [0.0, 0.0, 0.0]
        for cat, coef, i1, fx1, fy1, i2, fx2, fy2 in self.terms:
            if i1 >= 0:
                fx1 = mx[i1] + pcx[i1]
                fy1 = my[i1] + pcy[i1]
            if i2 >= 0:
                fx2 = mx[i2] + pcx[i2]
                fy2 = my[i2] + pcy[i2]
            h = abs(fx1 - fx2) + abs(fy1 - fy2)
            wl[cat] += h
            loss[cat] += coef * h
        o, b = self._geometry_terms(mx, my)
        return LossBreakdown(
            wl_mm=wl[0], wl_mc=wl[1], wl_mcc=wl[2],
            loss_mm=loss[0], loss_mc=loss[1], loss_mcc=loss[2],
            loss_outline=o, loss_boundary=b,
            total=loss[0] + loss[1] + loss[2] + o + b,
        )


def macro_area_scales(cn: ClusteredNetlist) -> dict[int, float]:
    """Normalized area per real macro cluster (IO bundles stay neutral at 1)."""
    ids = [c.id for c in cn.clusters if c.kind == "macro_cluster" and not c.is_io]
    values = normalize_macro_area([cn.clusters[i].area for i in ids])
    return dict(zip(ids, values))


def compute_loss(fp: Floorplan, graph: DataflowGraph, area_scale: dict[int, float],
                 config: PlacerConfig = PlacerConfig()) -> LossBreakdown:
    """Dataflow-weighted loss of a placed floorplan (see LossBreakdown fields)."""
    shapes = {
        cid: MacroShape(mp.width, mp.height, mp.pins)
        for cid, mp in fp.macro_placements.items()
    }
    ev = _LossEvaluator(graph, shapes, fp, area_scale, config)
    placed = [fp.macro_placements[c] for c in ev.ids]
    offsets = [shapes[c].pin_offset(mp.orientation) for c, mp in zip(ev.ids, placed)]
    return ev.breakdown(
        [mp.x for mp in placed], [mp.y for mp in placed],
        [o[0] for o in offsets], [o[1] for o in offsets],
    )


# ---------------------------------------------------------------------------
# Global placement of cell clusters
# ---------------------------------------------------------------------------

def global_place_clusters(
    graph: DataflowGraph,
    cn: ClusteredNetlist,
    outline: tuple[float, float],
    iterations: int = 20,
    seed: int = 0,
    macro_refs: dict[int, tuple[float, float]] | None = None,
) -> dict[int, tuple[float, float]]:
    """Position cell clusters by weighted barycenter plus density spreading.

    Every iteration moves each cluster to the edge-weighted mean of its
    connected positions (IO anchors, already-placed macros when
    ``macro_refs`` is given, and other cell clusters), then relocates
    clusters out of over-full grid bins.  Deterministic for a given seed.
    Only one-hop MC and CC edges exert pull; derived edges would double count.
    """
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
            bx = min(grid - 1, int(pos[c][0] / width * grid))
            by = min(grid - 1, int(pos[c][1] / height * grid))
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


# ---------------------------------------------------------------------------
# Simulated annealing over sequence pairs
# ---------------------------------------------------------------------------

@dataclass
class SaSchedule:
    """Annealing knobs: T0 = t0_factor * mean |probe delta|, geometric cooling
    down to t_min_ratio * T0, moves_per_temp proposals per level."""

    t0_factor: float = 1.0
    cooling: float = 0.97
    moves_per_temp: int = 200
    t_min_ratio: float = 1e-4


def run_sa(
    initial_sp: SequencePair,
    graph: DataflowGraph,
    cn: ClusteredNetlist,
    outline: tuple[float, float],
    schedule: SaSchedule,
    seed: int,
    cluster_positions: dict[int, tuple[float, float]],
    config: PlacerConfig = PlacerConfig(),
) -> tuple[SequencePair, Floorplan, LossBreakdown]:
    """Anneal the macro sequence pair; returns the best state ever seen.

    Moves swap two entries of pos, of neg, or of both.  Acceptance is
    Metropolis with geometric cooling; the returned loss is never above the
    initial one.  Deterministic per (seed, inputs).
    """
    shapes = macro_shapes(cn)
    ids = sorted(shapes)
    n = len(ids)
    area_scale = macro_area_scales(cn)
    anchors = io_anchor_positions(cn, outline)
    fixed = Floorplan(outline, {}, cluster_positions, anchors)
    ev = _LossEvaluator(graph, shapes, fixed, area_scale, config)

    if sorted(initial_sp.pos) != list(range(n)) or sorted(initial_sp.neg) != list(range(n)):
        raise BadPermutation(f"pos/neg must both permute 0..{n - 1}")

    W, H = outline

    def place(pos, neg):
        """Packing centered in the outline, and whether it fits inside."""
        xs, ys, bw, bh = _decode_sp(pos, neg, ev.widths, ev.heights)
        ox, oy = (W - bw) / 2.0, (H - bh) / 2.0
        return [x + ox for x in xs], [y + oy for y in ys], bw <= W and bh <= H

    def build_fp(pos, neg):
        mx, my, _ = place(pos, neg)
        placements = {
            cid: MacroPlacement(mx[i], my[i], ev.widths[i], ev.heights[i], "N", shapes[cid].pins)
            for i, cid in enumerate(ids)
        }
        return Floorplan(outline, placements, dict(cluster_positions), anchors), mx, my

    cur_pos, cur_neg = list(initial_sp.pos), list(initial_sp.neg)
    cur_loss = ev.total(*place(cur_pos, cur_neg))
    best_pos, best_neg, best_loss = list(cur_pos), list(cur_neg), cur_loss

    if schedule.moves_per_temp > 0 and n >= 2:
        rng = np.random.default_rng(seed)

        def propose():
            kind = int(rng.integers(0, 3))
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            return kind, i, j

        def apply(kind, i, j):
            if kind in (0, 2):
                cur_pos[i], cur_pos[j] = cur_pos[j], cur_pos[i]
            if kind in (1, 2):
                cur_neg[i], cur_neg[j] = cur_neg[j], cur_neg[i]

        deltas = []
        for _ in range(100):
            kind, i, j = propose()
            apply(kind, i, j)
            deltas.append(abs(ev.total(*place(cur_pos, cur_neg)) - cur_loss))
            apply(kind, i, j)  # revert
        t0 = max(schedule.t0_factor * (sum(deltas) / len(deltas)), 1e-12)
        t = t0
        t_min = schedule.t_min_ratio * t0
        while t > t_min:
            for _ in range(schedule.moves_per_temp):
                kind, i, j = propose()
                apply(kind, i, j)
                new_loss = ev.total(*place(cur_pos, cur_neg))
                dl = new_loss - cur_loss
                if dl <= 0 or rng.random() < math.exp(-dl / t):
                    cur_loss = new_loss
                    if new_loss < best_loss:
                        best_loss = new_loss
                        best_pos, best_neg = list(cur_pos), list(cur_neg)
                else:
                    apply(kind, i, j)  # revert
            t *= schedule.cooling

    fp, mx, my = build_fp(best_pos, best_neg)
    breakdown = ev.breakdown(mx, my)
    return SequencePair(tuple(best_pos), tuple(best_neg)), fp, breakdown
