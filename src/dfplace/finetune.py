"""Post-placement macro orientation optimization.

Each macro's incident dataflow is decomposed into axis-aligned vectors
(macro-macro, macro-cell, two-hop), blended into a total vector, and the
macro is mirrored so its pin center leans toward the dominant flow.  Macros
are visited breadth-first from the IO boundary; a flip that would raise HPWL
is reverted when the guard is on.  A flip moves only the macro's pin center,
so each macro is decided from its incident edges alone, indexed once.

Orientation naming: FN mirrors across the horizontal axis (pins move
up/down), FS across the vertical axis (pins move left/right).  This follows
the flow's own convention and intentionally differs from the DEF orientation
letters; convert at serialization time if a DEF writer is ever attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataflow import MC, MCC, MM_DIRECT, MM_INDIRECT, DataflowEdge, DataflowGraph
from .errors import EmptyCluster
from .metrics import total_hpwl
from .placer import ORIENT_FLAGS, Floorplan

DEFAULT_ALPHA = 0.55
DEFAULT_BETA = 0.30
DEFAULT_GAMMA = 0.15
# the guard reverts a flip only when it raises the HPWL by more than this
# share, so a zero change is a tie that keeps the flip, whatever the roundoff
TIE_TOLERANCE = 1e-9


def compose_orientation(current: str, flip: str) -> str:
    """Orientation after applying ``flip``: the mirror flags XOR, so a double
    flip restores the original exactly."""
    a, b = ORIENT_FLAGS[current], ORIENT_FLAGS[flip]
    flags = (a[0] ^ b[0], a[1] ^ b[1])
    return next(name for name, f in ORIENT_FLAGS.items() if f == flags)


@dataclass(frozen=True)
class FlipVector:
    v_mm: tuple[float, float]
    v_mc: tuple[float, float]
    v_mcc: tuple[float, float]
    v_t: tuple[float, float]


@dataclass
class FlipDecision:
    macro_id: int
    mode: str
    x_vt: float
    y_vt: float
    pre_hpwl: float
    post_hpwl: float
    applied: bool
    name: str = ""


def geometric_center(points) -> tuple[float, float]:
    """Arithmetic mean of member coordinates."""
    points = list(points)
    if not points:
        raise EmptyCluster("geometric center of zero members")
    return (
        sum(p[0] for p in points) / len(points),
        sum(p[1] for p in points) / len(points),
    )


def decompose_dataflow_vectors(
    macro_id: int,
    graph: DataflowGraph,
    fp: Floorplan,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
) -> FlipVector:
    """Axis decomposition of the macro's incident dataflow.

    v_mm sums weight * (peer pin center - own pin center) over macro-macro
    edges (direct and indirect); v_mc does the same toward connected cell
    cluster centers; v_mcc aims at the midpoint of the two hop clusters.  The
    total is the (alpha, beta, gamma) blend.
    """
    pc = fp.reference_point(macro_id)
    v_mm, v_mc, v_mcc = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    peer_sums = {MM_DIRECT: v_mm, MM_INDIRECT: v_mm, MC: v_mc}
    for e in graph.edges:
        if e.kind in peer_sums and macro_id in (e.src, e.dst):
            v, p = peer_sums[e.kind], fp.reference_point(e.dst if e.src == macro_id else e.src)
        elif e.kind == MCC and e.src == macro_id:
            p1, p2 = fp.reference_point(e.via), fp.reference_point(e.dst)
            v, p = v_mcc, (0.5 * (p1[0] + p2[0]), 0.5 * (p1[1] + p2[1]))
        else:
            continue
        v[0] += e.weight * (p[0] - pc[0])
        v[1] += e.weight * (p[1] - pc[1])
    v_t = (
        alpha * v_mm[0] + beta * v_mc[0] + gamma * v_mcc[0],
        alpha * v_mm[1] + beta * v_mc[1] + gamma * v_mcc[1],
    )
    return FlipVector(tuple(v_mm), tuple(v_mc), tuple(v_mcc), v_t)


def _incidence(graph: DataflowGraph) -> dict[int, list[DataflowEdge]]:
    """The edges touching each cluster, in graph order."""
    incident: dict[int, list[DataflowEdge]] = {}
    for e in graph.edges:
        incident.setdefault(e.src, []).append(e)
        if e.dst != e.src:
            incident.setdefault(e.dst, []).append(e)
    return incident


def order_macros_for_flipping(graph: DataflowGraph, fp: Floorplan) -> list[int]:
    """Breadth-first macro order starting from the IO-adjacent frontier.

    Within a BFS level, heavier total incident weight goes first, then lower
    id; macros unreachable from any IO cluster are appended by ascending id.
    """
    return _flip_order(_incidence(graph), fp)


def _flip_order(incident: dict[int, list[DataflowEdge]], fp: Floorplan) -> list[int]:
    macros = set(fp.macro_placements)
    ios = set(fp.io_anchors)

    def peers(c):
        return {e.dst if e.src == c else e.src for e in incident.get(c, ())}

    def rank(m):
        return (-sum(e.weight for e in incident.get(m, ())), m)

    frontier = sorted((m for m in macros if peers(m) & ios), key=rank)
    order: list[int] = list(frontier)
    visited = set(frontier) | ios
    level = list(frontier)
    while level:
        reached = set()
        for node in level:
            reached |= peers(node) - visited
        visited |= reached
        order.extend(sorted((m for m in reached if m in macros), key=rank))
        level = sorted(reached)
    order.extend(sorted(m for m in macros if m not in order))
    return order


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def _flip_mode(macro_id: int, fv: FlipVector, fp: Floorplan) -> str:
    """The mirror that leans the macro's pin center along the total vector.

    An axis counts as misaligned when the vector component and the
    pin-center offset have strictly opposite signs, so zero components or
    centered pins never flip.
    Mode S mirrors both axes, FS only left/right, FN only up/down, N none.
    """
    mp = fp.macro_placements[macro_id]
    pcx, pcy = mp.pin_center()
    ccx, ccy = mp.center()
    xvt, yvt = fv.v_t
    misaligned = (_sign(xvt) * _sign(pcx - ccx) < 0, _sign(yvt) * _sign(pcy - ccy) < 0)
    return {(True, True): "S", (True, False): "FS", (False, True): "FN"}.get(misaligned, "N")


def decide_and_apply_flip(
    macro_id: int,
    fv: FlipVector,
    fp: Floorplan,
    graph: DataflowGraph,
    guard: bool = True,
) -> FlipDecision:
    """Mirror the macro by ``_flip_mode``.  With the guard on, a flip that
    raises the HPWL of ``graph`` by more than ``TIE_TOLERANCE`` of it is
    reverted (applied=False)."""
    mp = fp.macro_placements[macro_id]
    xvt, yvt = fv.v_t
    mode = _flip_mode(macro_id, fv, fp)
    pre = total_hpwl(fp, graph)
    if mode == "N":
        return FlipDecision(macro_id, "N", xvt, yvt, pre, pre, False)

    old_orientation = mp.orientation
    mp.orientation = compose_orientation(old_orientation, mode)
    post = total_hpwl(fp, graph)
    applied = not (guard and post - pre > TIE_TOLERANCE * pre)
    if not applied:
        mp.orientation = old_orientation
    return FlipDecision(macro_id, mode, xvt, yvt, pre, post, applied)


def run_flipping_pass(
    fp: Floorplan,
    graph: DataflowGraph,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
    guard: bool = True,
    names: dict[int, str] | None = None,
) -> list[FlipDecision]:
    """One ordered flipping pass; vectors see the already-flipped predecessors.

    Each macro is decided on the graph of its incident edges.  The log's
    ``pre_hpwl``/``post_hpwl`` are design totals: one whole-graph
    ``total_hpwl`` carried forward by each applied flip's incident delta.
    A macro whose mode is N moves nothing, so it costs no HPWL sum.
    """
    incident = _incidence(graph)
    total = total_hpwl(fp, graph)
    decisions = []
    for macro_id in _flip_order(incident, fp):
        local = DataflowGraph(tuple(incident.get(macro_id, ())))
        fv = decompose_dataflow_vectors(macro_id, local, fp, alpha, beta, gamma)
        if _flip_mode(macro_id, fv, fp) == "N":
            d = FlipDecision(macro_id, "N", *fv.v_t, total, total, False)
        else:
            d = decide_and_apply_flip(macro_id, fv, fp, local, guard)
            delta = d.post_hpwl - d.pre_hpwl
            d.pre_hpwl, d.post_hpwl = total, total + delta
            if d.applied:
                total += delta
        d.name = names.get(macro_id, str(macro_id)) if names else str(macro_id)
        decisions.append(d)
    return decisions
