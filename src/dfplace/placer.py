"""Cluster global placement and sequence-pair macro annealing.

Cell clusters get coarse positions from weighted-barycenter iterations with a
grid density spreading step.  Macro clusters are packed by decoding a
sequence pair (longest-path evaluation, overlap-free by construction) and the
packing is optimized with Metropolis annealing against the dataflow loss.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import ClusteredNetlist
from .dataflow import CATEGORY, CC, MC, MCC, MM_DIRECT, MM_INDIRECT, DataflowGraph
from .errors import BadPermutation, EmptyGraph, UnplacedCluster

ORIENT_FLAGS = {"N": (False, False), "FS": (True, False), "FN": (False, True), "S": (True, True)}
ORIENT_BY_FLAGS = {flags: name for name, flags in ORIENT_FLAGS.items()}
LOSS_VARIANTS = ("eq5", "eq6", "eq8")


@dataclass(frozen=True)
class SequencePair:
    pos: tuple[int, ...]
    neg: tuple[int, ...]


@dataclass
class MacroPlacement:
    """A macro cluster's rectangle at lower-left (x, y), with its pin offsets
    as seen in orientation N."""

    x: float
    y: float
    width: float
    height: float
    orientation: str = "N"
    pins: tuple[tuple[float, float], ...] = ()

    def pin_offset(self, orientation: str | None = None) -> tuple[float, float]:
        """Pin center relative to the lower-left corner, mirrored per
        ``ORIENT_FLAGS[orientation]`` (this macro's own orientation when
        None); the footprint center when pinless."""
        if not self.pins:
            cx, cy = self.width / 2.0, self.height / 2.0
        else:
            cx = sum(p[0] for p in self.pins) / len(self.pins)
            cy = sum(p[1] for p in self.pins) / len(self.pins)
        mx, my = ORIENT_FLAGS[self.orientation if orientation is None else orientation]
        return (self.width - cx if mx else cx, self.height - cy if my else cy)

    def pin_center(self) -> tuple[float, float]:
        """Absolute pin center under the current orientation."""
        cx, cy = self.pin_offset()
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

    def edge_hpwl(self, graph: DataflowGraph) -> np.ndarray:
        """``|dx| + |dy|`` between each edge's endpoints, in edge order."""
        ends = self.edge_endpoints(graph)
        return np.abs(ends[:, 0] - ends[:, 2]) + np.abs(ends[:, 1] - ends[:, 3])


def io_anchor_positions(cn: ClusteredNetlist, outline: tuple[float, float]) -> dict[int, tuple[float, float]]:
    width, height = outline
    at = {
        "N": (width / 2.0, height),
        "S": (width / 2.0, 0.0),
        "E": (width, height / 2.0),
        "W": (0.0, height / 2.0),
    }
    return {c.id: at[c.hierarchy_root[1]] for c in cn.clusters if c.is_io}


def macro_shapes(cn: ClusteredNetlist) -> dict[int, MacroPlacement]:
    """Footprints for the real (non-IO) macro clusters, at the origin in N.

    Multi-macro clusters are laid out on a near-square grid in canonical
    member order; the cluster is one rigid rectangle from then on.
    """
    netlist = cn.netlist
    shapes: dict[int, MacroPlacement] = {}
    for cid in cn.macro_cluster_ids():
        masters = [netlist.instances[i].master for i in cn.clusters[cid].members]
        if len(masters) == 1:
            m = masters[0]
            pins = tuple((dx, dy) for _, dx, dy in m.pin_offsets)
            shapes[cid] = MacroPlacement(0.0, 0.0, m.width, m.height, "N", pins)
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
        shapes[cid] = MacroPlacement(0.0, 0.0, cols * cell_w, rows * cell_h, "N", tuple(pins))
    return shapes


# ---------------------------------------------------------------------------
# Sequence-pair decoding
# ---------------------------------------------------------------------------

def _decode_sp(at, neg, widths, heights) -> tuple[list[float], list[float], float, float]:
    """Lower-left coordinates of each macro plus the packing's bounding box
    (width, height); ``at[v]`` is macro v's index in ``pos``.

    Macros are visited in ``neg`` order; of those already visited, the ones
    earlier in ``pos`` are exactly the ones to the left, and the later ones
    the ones below.  ``left[p]`` is the largest right edge of a visited macro
    at a ``pos`` index below p, and ``below[m]`` the largest top edge of one
    at a ``pos`` index above n - 1 - m (0 when there is none).  Neither list
    falls as its index grows, so a new edge raises one run of entries, found
    by bisection.  Each coordinate is the maximum over the same edges as the
    quadratic longest-path pass, so it is the same float.
    """
    n = len(neg)
    xs = [0.0] * n
    ys = [0.0] * n
    left = [0.0] * (n + 1)
    below = [0.0] * (n + 1)
    for v in neg:
        p = at[v]
        xs[v] = x = left[p]
        x += widths[v]
        p += 1
        q = bisect_left(left, x, p)
        left[p:q] = [x] * (q - p)
        m = n - p  # n - 1 - at[v]
        ys[v] = y = below[m]
        y += heights[v]
        m += 1
        q = bisect_left(below, y, m)
        below[m:q] = [y] * (q - m)
    return xs, ys, left[n], below[n]


def _index_of(seq) -> list[int]:
    """``at[v]`` = the index of v in the permutation ``seq``."""
    at = [0] * len(seq)
    for i, v in enumerate(seq):
        at[v] = i
    return at


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
    xs, ys, _, _ = _decode_sp(_index_of(sp.pos), sp.neg, [w for w, _ in sizes], [h for _, h in sizes])
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
    """The loss's knobs; the pipeline config's ``loss`` section."""

    variant: str = "eq8"  # one of LOSS_VARIANTS
    mc_scale: float = 1.0
    mcc_scale: float = 1.0
    mm_indirect_scale: float = 1.0  # 0 gives a direct-connections-only baseline
    outline_weight: float = 1.0
    push_boundary: float = 0.0


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


def _loss_terms(graph: DataflowGraph, area_scale: dict[int, float], config: PlacerConfig):
    """``(edge, coefficient)`` for each edge the loss reads (MM, MC and MCC),
    in edge order.  CC edges carry no loss."""
    for e in graph.edges:
        if e.kind == MM_DIRECT:
            yield e, e.weight
        elif e.kind == MM_INDIRECT:
            yield e, e.weight * config.mm_indirect_scale
        elif e.kind == MC:
            yield e, e.weight * config.mc_scale
        elif e.kind == MCC:
            yield e, config.mcc_scale * two_hop_coefficient(
                e.first_hop, e.weight, area_scale.get(e.src, 1.0), config.variant
            )


def _geometry_terms(corners, sizes, outline, config: PlacerConfig) -> tuple[float, float]:
    """Outline overhang penalty (quadratic) and optional boundary pull of the
    rectangles with lower-left ``corners`` and ``sizes``."""
    W, H = outline
    overhang = 0.0
    boundary = 0.0
    for (x, y), (w, h) in zip(corners, sizes):
        ox = max(0.0, -x) + max(0.0, x + w - W)
        oy = max(0.0, -y) + max(0.0, y + h - H)
        overhang += ox * ox + oy * oy
        if config.push_boundary:
            boundary += max(0.0, min(x, y, W - x - w, H - y - h))
    return config.outline_weight * overhang, config.push_boundary * boundary


class _LossEvaluator:
    """The SA loss compiled into a flat table for fast repeated evaluation.

    Macro endpoints (the keys of ``shapes``) are symbolic indices resolved
    against the candidate positions; every other endpoint is folded into a
    fixed point at build time through ``fp.reference_point``.  ``total``
    reads one row per term and axis: ``ia``/``ib`` index
    ``ext = [mx..., my..., fixed coords...]``, ``d`` is the pin-offset
    difference and ``coef`` the term's weight; terms between two fixed points
    are summed once into ``const_loss``.
    """

    def __init__(self, graph, shapes, fp, area_scale, config):
        self.outline = fp.outline
        self.config = config
        self.ids = sorted(shapes)
        self.index = {cid: i for i, cid in enumerate(self.ids)}
        self.widths = [shapes[c].width for c in self.ids]
        self.heights = [shapes[c].height for c in self.ids]
        pins = ([shapes[c].pin_offset()[0] for c in self.ids],
                [shapes[c].pin_offset()[1] for c in self.ids])

        n = len(self.ids)
        fixed: list[float] = []
        rows = []  # (ia, ib, d, coef)
        const = []

        def end(i, p, axis):
            """Column of ``ext`` and pin offset of one endpoint on one axis."""
            if i >= 0:
                return axis * n + i, pins[axis][i]
            fixed.append(p[axis])
            return 2 * n + len(fixed) - 1, 0.0

        for e, coef in _loss_terms(graph, area_scale, config):
            # every fixed endpoint is resolved, so an unplaced one raises
            # even on a zero-weight term
            (i1, p1), (i2, p2) = (
                (self.index[c], None) if c in self.index else (-1, fp.reference_point(c))
                for c in (e.src, e.dst)
            )
            if coef == 0.0:
                continue
            if i1 < 0 and i2 < 0:
                const.append(coef * (abs(p1[0] - p2[0]) + abs(p1[1] - p2[1])))
                continue
            for axis in (0, 1):
                a, da = end(i1, p1, axis)
                b, db = end(i2, p2, axis)
                rows.append((a, b, da - db, coef))
        self.const_loss = sum(const)
        ia, ib, d, coef = zip(*rows) if rows else ((), (), (), ())
        self.ia = np.array(ia, dtype=np.intp)
        self.ib = np.array(ib, dtype=np.intp)
        self.d = np.array(d, dtype=float)
        self.coef = np.array(coef, dtype=float)
        self._ext = np.array([0.0] * (2 * n) + fixed)

    def total(self, mx, my, fits: bool = False) -> float:
        """Loss at lower-left corners ``mx``/``my``.  ``fits`` says every macro
        lies inside the outline, so without a boundary pull the geometry
        terms are zero and are skipped."""
        n = len(mx)
        ext = self._ext
        ext[:n] = mx
        ext[n:2 * n] = my
        t = self.const_loss + float(self.coef @ np.abs(ext[self.ia] - ext[self.ib] + self.d))
        if fits and not self.config.push_boundary:
            return t
        o, b = _geometry_terms(zip(mx, my), zip(self.widths, self.heights), self.outline, self.config)
        return t + o + b


def macro_area_scales(cn: ClusteredNetlist) -> dict[int, float]:
    """Normalized area per real macro cluster (IO bundles stay neutral at 1)."""
    ids = cn.macro_cluster_ids()
    values = normalize_macro_area([cn.clusters[i].area for i in ids])
    return dict(zip(ids, values))


def compute_loss(fp: Floorplan, graph: DataflowGraph, area_scale: dict[int, float],
                 config: PlacerConfig = PlacerConfig()) -> LossBreakdown:
    """Dataflow-weighted loss of a placed floorplan (see LossBreakdown fields).

    Each category (``CATEGORY``) sums its edges in edge order (``np.bincount``),
    as the report's ``metrics.category_hpwl`` does."""
    terms = list(_loss_terms(graph, area_scale, config))
    h = fp.edge_hpwl(DataflowGraph(tuple(e for e, _ in terms)))
    cat = np.array([CATEGORY[e.kind] for e, _ in terms], dtype=np.intp)
    coef = np.array([k for _, k in terms], dtype=float)
    wl = np.bincount(cat, weights=h, minlength=3).tolist()
    loss = np.bincount(cat, weights=coef * h, minlength=3).tolist()
    placed = [fp.macro_placements[c] for c in sorted(fp.macro_placements)]
    o, b = _geometry_terms(
        ((mp.x, mp.y) for mp in placed), ((mp.width, mp.height) for mp in placed), fp.outline, config
    )
    return LossBreakdown(
        wl_mm=wl[0], wl_mc=wl[1], wl_mcc=wl[2],
        loss_mm=loss[0], loss_mc=loss[1], loss_mcc=loss[2],
        loss_outline=o, loss_boundary=b,
        total=loss[0] + loss[1] + loss[2] + o + b,
    )


# run_sa reports through this name: perfbench's tracer wraps the module
# attribute ``compute_loss`` as the flip stage's span and sums every call
_breakdown = compute_loss


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
    ``np.bincount`` adds each cell's (neighbour, weight) rows in edge order,
    so the barycenters are the sums a per-cell loop forms.
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
    n = len(cells)
    index = {c: i for i, c in enumerate(cells)}
    slot = {**index, **{c: n + k for k, c in enumerate(fixed)}}  # rows of P; fixed wins

    rows = []  # (cell, neighbour slot, weight); an unplaced neighbour never pulls
    for e in graph.edges:
        if e.kind == CC:
            pairs = ((e.src, e.dst), (e.dst, e.src))
        elif e.kind == MC:
            pairs = ((e.src, e.dst) if e.src in index else (e.dst, e.src),)
        else:
            continue
        rows += [(index[c], slot[o], e.weight) for c, o in pairs if o in slot]
    table = np.array(rows, dtype=float).reshape(-1, 3)
    (owner, nb), w = table[:, :2].astype(np.intp).T, table[:, 2]
    sw = np.bincount(owner, weights=w, minlength=n)
    pulled = sw > 0
    P = np.array([(width / 2.0, height / 2.0)] * n + list(fixed.values()), dtype=float)
    xy = P[:n]

    rng = np.random.default_rng(seed)
    grid = 8
    bw, bh = width / grid, height / grid
    cap = max(1, math.ceil(n / (grid * grid)))

    for _ in range(iterations):
        for axis in (0, 1):
            s = np.bincount(owner, weights=w * P[nb, axis], minlength=n)
            xy[pulled, axis] = s[pulled] / sw[pulled]
        cols = np.clip((xy / (width, height) * grid).astype(np.intp), 0, grid - 1)
        key = cols[:, 0] * grid + cols[:, 1]
        count = np.bincount(key, minlength=grid * grid)
        occupancy = count.tolist()
        order = np.argsort(key, kind="stable").tolist()
        ends = np.cumsum(count).tolist()
        for k in np.flatnonzero(count > cap).tolist():
            # targets only fill up and a source never drops below ``cap``,
            # so the walk over the nearest-first bins never steps back
            ranked = _bins_by_distance(k // grid, k % grid, grid)
            p = 0
            for c in order[ends[k] - int(count[k]) + cap:ends[k]]:
                while occupancy[ranked[p]] >= cap:
                    p += 1
                occupancy[ranked[p]] += 1
                tx, ty = divmod(ranked[p], grid)
                xy[c] = ((tx + 0.5) * bw + rng.uniform(-bw / 4, bw / 4),
                         (ty + 0.5) * bh + rng.uniform(-bh / 4, bh / 4))
        np.clip(xy, 0.0, (width, height), out=xy)
    return dict(zip(cells, map(tuple, xy.tolist())))


@functools.lru_cache(maxsize=256)
def _bins_by_distance(bx: int, by: int, grid: int) -> tuple[int, ...]:
    """Grid bins ``tx * grid + ty``, nearest to bin (bx, by) first, then by (tx, ty)."""
    return tuple(sorted(range(grid * grid), key=lambda t: ((t // grid - bx) ** 2 + (t % grid - by) ** 2, t)))


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

    def place(at, neg):
        """Packing centered in the outline, and whether it fits inside."""
        xs, ys, bw, bh = _decode_sp(at, neg, ev.widths, ev.heights)
        ox, oy = (W - bw) / 2.0, (H - bh) / 2.0
        return [x + ox for x in xs], [y + oy for y in ys], bw <= W and bh <= H

    cur_pos, cur_neg = list(initial_sp.pos), list(initial_sp.neg)
    cur_at = _index_of(cur_pos)  # kept equal to _index_of(cur_pos) by apply
    cur_loss = ev.total(*place(cur_at, cur_neg))
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
                a, b = cur_pos[j], cur_pos[i]
                cur_pos[i], cur_pos[j] = a, b
                cur_at[a], cur_at[b] = i, j
            if kind in (1, 2):
                cur_neg[i], cur_neg[j] = cur_neg[j], cur_neg[i]

        deltas = []
        for _ in range(100):
            kind, i, j = propose()
            apply(kind, i, j)
            deltas.append(abs(ev.total(*place(cur_at, cur_neg)) - cur_loss))
            apply(kind, i, j)  # revert
        t0 = max(schedule.t0_factor * (sum(deltas) / len(deltas)), 1e-12)
        t = t0
        t_min = schedule.t_min_ratio * t0
        while t > t_min:
            for _ in range(schedule.moves_per_temp):
                kind, i, j = propose()
                apply(kind, i, j)
                new_loss = ev.total(*place(cur_at, cur_neg))
                dl = new_loss - cur_loss
                if dl <= 0 or rng.random() < math.exp(-dl / t):
                    cur_loss = new_loss
                    if new_loss < best_loss:
                        best_loss = new_loss
                        best_pos, best_neg = list(cur_pos), list(cur_neg)
                else:
                    apply(kind, i, j)  # revert
            t *= schedule.cooling

    mx, my, _ = place(_index_of(best_pos), best_neg)
    placements = {cid: replace(shapes[cid], x=mx[i], y=my[i]) for i, cid in enumerate(ids)}
    fp = Floorplan(outline, placements, dict(cluster_positions), anchors)
    return SequencePair(tuple(best_pos), tuple(best_neg)), fp, _breakdown(fp, graph, area_scale, config)
