"""Post-placement macro orientation optimization.

Each macro's incident dataflow is decomposed into axis-aligned vectors
(macro-macro, macro-cell, two-hop), blended into a total vector, and the
macro is mirrored so its pin center leans toward the dominant flow.  Macros
are visited breadth-first from the IO boundary; a flip that would raise total
HPWL is reverted when the guard is on.

Orientation naming: FN mirrors across the horizontal axis (pins move
up/down), FS across the vertical axis (pins move left/right).  This follows
the flow's own convention and intentionally differs from the DEF orientation
letters; convert at serialization time if a DEF writer is ever attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataflow import MC, MCC, MM_DIRECT, MM_INDIRECT, DataflowGraph
from .errors import EmptyCluster
from .metrics import total_hpwl
from .placer import ORIENT_FLAGS, Floorplan

DEFAULT_ALPHA = 0.55
DEFAULT_BETA = 0.30
DEFAULT_GAMMA = 0.15


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
    v_mm = [0.0, 0.0]
    v_mc = [0.0, 0.0]
    v_mcc = [0.0, 0.0]
    for e in graph.edges:
        if e.kind in (MM_DIRECT, MM_INDIRECT):
            if e.src == macro_id or e.dst == macro_id:
                peer = e.dst if e.src == macro_id else e.src
                p = fp.reference_point(peer)
                v_mm[0] += e.weight * (p[0] - pc[0])
                v_mm[1] += e.weight * (p[1] - pc[1])
        elif e.kind == MC:
            if e.src == macro_id or e.dst == macro_id:
                cell = e.dst if e.src == macro_id else e.src
                p = fp.reference_point(cell)
                v_mc[0] += e.weight * (p[0] - pc[0])
                v_mc[1] += e.weight * (p[1] - pc[1])
        elif e.kind == MCC and e.src == macro_id:
            p1 = fp.reference_point(e.via)
            p2 = fp.reference_point(e.dst)
            mid = (0.5 * (p1[0] + p2[0]), 0.5 * (p1[1] + p2[1]))
            v_mcc[0] += e.weight * (mid[0] - pc[0])
            v_mcc[1] += e.weight * (mid[1] - pc[1])
    v_t = (
        alpha * v_mm[0] + beta * v_mc[0] + gamma * v_mcc[0],
        alpha * v_mm[1] + beta * v_mc[1] + gamma * v_mcc[1],
    )
    return FlipVector(tuple(v_mm), tuple(v_mc), tuple(v_mcc), v_t)


def order_macros_for_flipping(graph: DataflowGraph, fp: Floorplan) -> list[int]:
    """Breadth-first macro order starting from the IO-adjacent frontier.

    Within a BFS level, heavier total incident weight goes first, then lower
    id; macros unreachable from any IO cluster are appended by ascending id.
    """
    macros = set(fp.macro_placements)
    ios = set(fp.io_anchors)
    adj: dict[int, set[int]] = {}
    weight: dict[int, float] = {m: 0.0 for m in macros}
    for e in graph.edges:
        adj.setdefault(e.src, set()).add(e.dst)
        adj.setdefault(e.dst, set()).add(e.src)
        for end in (e.src, e.dst):
            if end in macros:
                weight[end] += e.weight

    def rank(m):
        return (-weight[m], m)

    frontier = sorted(
        (m for m in macros if adj.get(m, set()) & ios), key=rank
    )
    order: list[int] = list(frontier)
    visited = set(frontier) | ios
    level = list(frontier)
    while level:
        reached = set()
        for node in level:
            reached |= adj.get(node, set()) - visited
        visited |= reached
        order.extend(sorted((m for m in reached if m in macros), key=rank))
        level = sorted(reached)
    order.extend(sorted(m for m in macros if m not in order))
    return order


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def decide_and_apply_flip(
    macro_id: int,
    fv: FlipVector,
    fp: Floorplan,
    graph: DataflowGraph,
    guard: bool = True,
) -> FlipDecision:
    """Mirror the macro so its pin center leans along the total vector.

    The axis with the larger |component| is tested first; an axis counts as
    misaligned when the vector component and the pin-center offset have
    strictly opposite signs, so zero components or centered pins never flip.
    Mode S mirrors both axes, FS only left/right, FN only up/down.  With the
    guard on, a flip that increases total HPWL is reverted (applied=False).
    """
    mp = fp.macro_placements[macro_id]
    pcx, pcy = mp.pin_center()
    ccx, ccy = mp.center()
    dx, dy = pcx - ccx, pcy - ccy
    xvt, yvt = fv.v_t

    # an axis is misaligned only when both signs are nonzero and opposite, so
    # a zero component or a centered pin never triggers; the dominant axis is
    # just the first one inspected, the mode table below is order-free
    mis_h = _sign(xvt) * _sign(dx) < 0
    mis_v = _sign(yvt) * _sign(dy) < 0
    if mis_h and mis_v:
        mode = "S"
    elif mis_h:
        mode = "FS"
    elif mis_v:
        mode = "FN"
    else:
        mode = "N"

    pre = total_hpwl(fp, graph)
    if mode == "N":
        return FlipDecision(macro_id, "N", xvt, yvt, pre, pre, False)

    old_orientation = mp.orientation
    mp.orientation = compose_orientation(mp.orientation, mode)
    post = total_hpwl(fp, graph)
    applied = True
    if guard and post > pre:
        mp.orientation = old_orientation
        applied = False
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
    """One ordered flipping pass; vectors see the already-flipped predecessors."""
    decisions = []
    for macro_id in order_macros_for_flipping(graph, fp):
        fv = decompose_dataflow_vectors(macro_id, graph, fp, alpha, beta, gamma)
        d = decide_and_apply_flip(macro_id, fv, fp, graph, guard)
        if names:
            d.name = names.get(macro_id, str(macro_id))
        else:
            d.name = str(macro_id)
        decisions.append(d)
    return decisions
