"""Extraction of the five dataflow connection classes from the clustered netlist.

Edge kinds:

* ``MM_direct``   undirected macro-macro, weight = summed bit width
* ``MM_indirect`` undirected macro-macro via a shared cell cluster or a shared
  driving cell, weight = sum of the two macro-to-cell bit widths (cluster
  level) or the driving net's bit width (instance level)
* ``MC``          directed macro-cell, weight = summed bit width
* ``CC``          directed cell-cell, weight = size-scaled pull (see
  :func:`cell_hop_weight`)
* ``MCC``         directed two-hop macro -> cell -> cell virtual edge carrying
  both hop weights
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .clustering import CELL_CLUSTER, MACRO_CLUSTER, Cluster, ClusteredNetlist
from .errors import DegenerateCluster
from .netlist import CELL, Netlist

MM_DIRECT = "MM_direct"
MM_INDIRECT = "MM_indirect"
MC = "MC"
CC = "CC"
MCC = "MCC"
KIND_ORDER = (MM_DIRECT, MM_INDIRECT, MC, CC, MCC)
# wirelength category of each kind: 0 mm (direct and indirect), 1 mc, 2 mcc,
# 3 cc; the loss, the report's split and the flip vectors all read this
CATEGORY = {MM_DIRECT: 0, MM_INDIRECT: 0, MC: 1, MCC: 2, CC: 3}

DEFAULT_FANOUT_LIMIT = 32
DEFAULT_NAME_FILTERS = ("clk*", "rst*", "reset*")


@dataclass(frozen=True)
class DataflowEdge:
    kind: str
    src: int
    dst: int
    weight: float
    bit_width: int
    via: int | None = None  # MCC only: first-hop cell cluster
    first_hop: float | None = None  # MCC only: macro -> via hop weight


@dataclass(frozen=True)
class DataflowGraph:
    edges: tuple[DataflowEdge, ...]

    def by_kind(self, kind: str) -> list[DataflowEdge]:
        return [e for e in self.edges if e.kind == kind]

    def counts(self) -> dict[str, int]:
        out = {k: 0 for k in KIND_ORDER}
        for e in self.edges:
            out[e.kind] += 1
        return out


def _sorted_edges(edges) -> tuple[DataflowEdge, ...]:
    order = {k: i for i, k in enumerate(KIND_ORDER)}
    return tuple(
        sorted(edges, key=lambda e: (order[e.kind], e.src, -1 if e.via is None else e.via, e.dst))
    )


def classify_direct_edges(cn: ClusteredNetlist) -> DataflowGraph:
    """Turn inter-cluster edges into MM_direct / MC / CC dataflow edges.

    Macro-macro pairs drop direction (both orientations summed, endpoints
    stored in canonical order); macro-cell and cell-cell keep direction.
    """
    kind = {c.id: c.kind for c in cn.clusters}
    mm: dict[tuple[int, int], int] = {}
    rest: list[DataflowEdge] = []
    for src, dst, w in cn.edges:
        if kind[src] == MACRO_CLUSTER and kind[dst] == MACRO_CLUSTER:
            key = (min(src, dst), max(src, dst))
            mm[key] = mm.get(key, 0) + w
        elif kind[src] == CELL_CLUSTER and kind[dst] == CELL_CLUSTER:
            rest.append(DataflowEdge(CC, src, dst, float(w), w))
        else:
            rest.append(DataflowEdge(MC, src, dst, float(w), w))
    for (a, b), w in sorted(mm.items()):
        rest.append(DataflowEdge(MM_DIRECT, a, b, float(w), w))
    return DataflowGraph(_sorted_edges(rest))


def compile_name_filters(patterns) -> re.Pattern:
    """One regex whose ``match`` agrees with ``fnmatch.fnmatchcase`` against
    any of ``patterns``; no pattern matches nothing."""
    if not patterns:
        return re.compile(r"(?!)")
    return re.compile("|".join(fnmatch.translate(p) for p in patterns))


def extract_indirect_mm(
    graph: DataflowGraph,
    cn: ClusteredNetlist,
    netlist: Netlist,
    fanout_limit: int = DEFAULT_FANOUT_LIMIT,
    name_filters=DEFAULT_NAME_FILTERS,
) -> DataflowGraph:
    """Add virtual MM_indirect edges between macro clusters.

    Cluster level: every cell cluster touched by two or more macro clusters
    links each unordered macro pair with weight = sum of the two macro-cell
    bit widths.  Instance level: every cell-driven net fanning out into two or
    more macro clusters links each pair with the net's bit width; nets wider
    than ``fanout_limit`` in fanout or whose base name matches a filter
    pattern (clock/reset style) are excluded at this level only.
    """
    pair_w: dict[tuple[int, int], float] = {}

    # cluster level: incidence from direct MC edges (both directions)
    incident: dict[int, dict[int, float]] = {}
    kinds = {c.id: c.kind for c in cn.clusters}
    for e in graph.by_kind(MC):
        macro, cell = (e.src, e.dst) if kinds[e.src] == MACRO_CLUSTER else (e.dst, e.src)
        per_cell = incident.setdefault(cell, {})
        per_cell[macro] = per_cell.get(macro, 0.0) + e.weight
    for cell in sorted(incident):
        macros = sorted(incident[cell])
        for i in range(len(macros)):
            for j in range(i + 1, len(macros)):
                key = (macros[i], macros[j])
                pair_w[key] = pair_w.get(key, 0.0) + incident[cell][macros[i]] + incident[cell][macros[j]]

    # instance level: single cells driving pins inside several macro clusters
    nets = netlist.nets
    cluster_of = np.fromiter(cn.instance_to_cluster, dtype=np.int64, count=len(cn.instance_to_cluster))
    is_macro = np.array([c.kind == MACRO_CLUSTER for c in cn.clusters], dtype=bool)
    master_kinds = map(attrgetter("master.kind"), netlist.instances)
    is_cell = np.fromiter(map(CELL.__eq__, master_kinds), dtype=bool, count=len(netlist.instances))
    live = is_cell[nets.driver] & (nets.fanout() <= fanout_limit)
    keep = live[nets.sink_net()] & is_macro[cluster_of[nets.sink_inst]]
    net, touched = nets.sink_groups(cluster_of, keep)  # by net, then cluster
    start = np.flatnonzero(np.diff(net, prepend=-1))
    stop = np.append(start[1:], len(net))
    many = stop - start >= 2
    filtered = compile_name_filters(name_filters).match
    touched = touched.tolist()
    for a, b in zip(start[many].tolist(), stop[many].tolist()):
        k = int(net[a])
        if filtered(nets.base_names[k]):
            continue
        width = int(nets.bit_widths[k])
        for i in range(a, b):
            for j in range(i + 1, b):
                key = (touched[i], touched[j])
                pair_w[key] = pair_w.get(key, 0.0) + width

    new_edges = list(graph.edges)
    for (a, b), w in sorted(pair_w.items()):
        new_edges.append(DataflowEdge(MM_INDIRECT, a, b, w, int(round(w))))
    return DataflowGraph(_sorted_edges(new_edges))


def cell_hop_weight(cc_edge: DataflowEdge, dst_cluster: Cluster, k: float, mean_cell_area: float) -> float:
    """Size-scaled weight of a cell-cell hop: k * bit_width * area' * count.

    ``area'`` is the destination cluster's area divided by the mean cell
    cluster area, which keeps ``k`` unit-free.
    """
    if dst_cluster.area <= 0 or dst_cluster.instance_count <= 0:
        raise DegenerateCluster(
            f"cluster {dst_cluster.id} has area {dst_cluster.area} and "
            f"{dst_cluster.instance_count} instances"
        )
    if mean_cell_area <= 0:
        raise DegenerateCluster("mean cell cluster area must be positive")
    return k * cc_edge.bit_width * (dst_cluster.area / mean_cell_area) * dst_cluster.instance_count


def extract_two_hop(graph: DataflowGraph, cn: ClusteredNetlist, k: float = 1.0) -> DataflowGraph:
    """Add MCC edges: one per (macro -> cell1, cell1 -> cell2) edge pair.

    The new edge stores the macro-cell bit width in ``first_hop`` and takes
    the second hop's size-scaled value from :func:`cell_hop_weight` as its own
    weight.  CC edge weights are rewritten to the same scaled value so the
    graph carries one consistent cell-cell strength.
    """
    kinds = {c.id: c.kind for c in cn.clusters}
    cell_areas = [c.area for c in cn.clusters if c.kind == CELL_CLUSTER]
    mean_area = sum(cell_areas) / len(cell_areas) if cell_areas else 0.0

    mc_into: dict[int, list[DataflowEdge]] = {}
    for e in graph.by_kind(MC):
        if kinds[e.src] == MACRO_CLUSTER:  # only macro -> cell direction feeds 2-hop
            mc_into.setdefault(e.dst, []).append(e)

    out: list[DataflowEdge] = []
    triples: dict[tuple[int, int, int], list[float]] = {}
    for e in graph.edges:
        if e.kind == CC:
            scaled = cell_hop_weight(e, cn.clusters[e.dst], k, mean_area)
            out.append(DataflowEdge(CC, e.src, e.dst, scaled, e.bit_width))
            for first in mc_into.get(e.src, ()):
                if e.dst == first.src:
                    continue
                key = (first.src, e.src, e.dst)
                if key in triples:
                    triples[key][0] += first.weight
                    triples[key][1] += scaled
                    triples[key][2] += e.bit_width
                else:
                    triples[key] = [first.weight, scaled, e.bit_width]
        else:
            out.append(e)
    for (m, c1, c2), (first_hop, second_hop, bw) in sorted(triples.items()):
        out.append(DataflowEdge(MCC, m, c2, second_hop, int(bw), via=c1, first_hop=first_hop))
    return DataflowGraph(_sorted_edges(out))


def extract_dataflow(
    cn: ClusteredNetlist,
    netlist: Netlist,
    k: float = 1.0,
    fanout_limit: int = DEFAULT_FANOUT_LIMIT,
    name_filters=DEFAULT_NAME_FILTERS,
) -> DataflowGraph:
    """Run the full extraction: direct classes, indirect MM, then two-hop."""
    graph = classify_direct_edges(cn)
    graph = extract_indirect_mm(graph, cn, netlist, fanout_limit, name_filters)
    return extract_two_hop(graph, cn, k)


def export_graph(graph: DataflowGraph) -> str:
    """One edge per line: ``kind srcId [viaId] dstId bitWidth weight``."""
    lines = []
    for e in graph.edges:
        via = f" {e.via}" if e.via is not None else ""
        lines.append(f"{e.kind} {e.src}{via} {e.dst} {e.bit_width} {e.weight:.12g}")
    return "\n".join(lines) + "\n"
