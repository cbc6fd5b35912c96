"""Threshold-limited hierarchical clustering of the flat netlist.

Instances are grouped by their hierarchy leaf and split by kind, so every
cluster holds only macros or only cells.  Oversized clusters are chopped into
balanced chunks; undersized siblings under the same parent are merged.  IO
pads are bundled into one macro cluster per outline side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ThresholdConflict
from .netlist import Netlist, group_keys

MACRO_CLUSTER = "macro_cluster"
CELL_CLUSTER = "cell_cluster"
IO_ROOT = "__io__"


@dataclass(frozen=True)
class Cluster:
    id: int
    kind: str
    members: tuple[int, ...]  # instance ids, canonical order
    hierarchy_root: tuple[str, ...]
    area: float
    instance_count: int

    @property
    def is_io(self) -> bool:
        return len(self.hierarchy_root) == 2 and self.hierarchy_root[0] == IO_ROOT


@dataclass(frozen=True)
class ClusteredNetlist:
    netlist: Netlist
    clusters: tuple[Cluster, ...]
    instance_to_cluster: tuple[int, ...]  # indexed by instance id
    edges: tuple[tuple[int, int, int], ...]  # (src, dst, summed bit width)

    def cluster_of(self, inst_id: int) -> int:
        return self.instance_to_cluster[inst_id]

    def cell_cluster_ids(self) -> list[int]:
        return [c.id for c in self.clusters if c.kind == CELL_CLUSTER]

    def macro_cluster_ids(self) -> list[int]:
        """The real macro clusters: IO bundles are macro clusters too."""
        return [c.id for c in self.clusters if c.kind == MACRO_CLUSTER and not c.is_io]

    def label(self, cid: int) -> str:
        """Stable human-readable cluster name for output files."""
        c = self.clusters[cid]
        if c.is_io:
            return f"io_{c.hierarchy_root[1]}"
        if len(c.members) == 1:
            return self.netlist.instances[c.members[0]].name
        return "/".join(c.hierarchy_root) + f":{cid}"


def _canonical_order(netlist: Netlist, ids) -> list[int]:
    return sorted(ids, key=lambda i: (netlist.instances[i].hierarchy_path, netlist.instances[i].name))


def _chunks(members: list[int], limit: int) -> list[list[int]]:
    """Split into ceil(n/limit) near-equal parts, preserving order."""
    n = len(members)
    if n <= limit:
        return [members]
    k = math.ceil(n / limit)
    base, extra = divmod(n, k)
    out, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        out.append(members[start : start + size])
        start += size
    return out


def build_clusters(
    netlist: Netlist,
    min_cells: int = 50,
    max_cells: int = 500,
    min_macros: int = 1,
    max_macros: int = 16,
) -> ClusteredNetlist:
    """Build homogeneous clusters under the size thresholds (edges left empty).

    Seed clusters are the hierarchy leaves split by kind.  A cluster above its
    max threshold is split into balanced canonical-order chunks; clusters below
    their min threshold are merged with same-parent, same-kind siblings,
    greedily largest-first, as long as the merge stays at or under max.  IO
    pads bypass the thresholds and form one macro cluster per outline side.
    """
    for lo, hi, what in ((min_cells, max_cells, "cell"), (min_macros, max_macros, "macro")):
        if lo <= 0 or hi <= 0 or lo >= hi:
            raise ThresholdConflict(f"{what} thresholds must satisfy 0 < min < max, got ({lo}, {hi})")

    side_members: dict[str, list[int]] = {}
    for inst_id, side in netlist.io_side:
        side_members.setdefault(side, []).append(inst_id)

    groups: dict[tuple, list[int]] = {}
    for inst in netlist.instances:
        if inst.is_io:
            continue
        kind = MACRO_CLUSTER if inst.is_macro else CELL_CLUSTER
        groups.setdefault((inst.hierarchy_path, kind), []).append(inst.id)

    # (hierarchy_root, kind, members) work list
    proto: list[tuple[tuple[str, ...], str, list[int]]] = []
    for (path, kind), ids in sorted(groups.items()):
        members = _canonical_order(netlist, ids)
        limit = max_macros if kind == MACRO_CLUSTER else max_cells
        for chunk in _chunks(members, limit):
            proto.append((path, kind, chunk))

    # merge undersized siblings (same parent path, same kind)
    by_parent: dict[tuple, list[int]] = {}
    for idx, (path, kind, _) in enumerate(proto):
        by_parent.setdefault((path[:-1], kind), []).append(idx)
    merged_out: list[tuple[tuple[str, ...], str, list[int]]] = []
    for (parent, kind), idxs in sorted(by_parent.items()):
        lo = min_macros if kind == MACRO_CLUSTER else min_cells
        hi = max_macros if kind == MACRO_CLUSTER else max_cells
        small = [i for i in idxs if len(proto[i][2]) < lo]
        for i in idxs:
            if i not in small:
                merged_out.append(proto[i])
        small.sort(key=lambda i: (-len(proto[i][2]), proto[i][0], proto[i][2]))
        while small:
            acc = list(proto[small[0]][2])
            rest = []
            for i in small[1:]:
                if len(acc) + len(proto[i][2]) <= hi:
                    acc.extend(proto[i][2])
                else:
                    rest.append(i)
            root = proto[small[0]][0] if len(acc) == len(proto[small[0]][2]) else parent
            merged_out.append((root, kind, _canonical_order(netlist, acc)))
            small = rest

    for side in sorted(side_members):
        members = _canonical_order(netlist, side_members[side])
        merged_out.append(((IO_ROOT, side), MACRO_CLUSTER, members))

    def area_of(ids):
        return sum(netlist.instances[i].master.area for i in ids)

    merged_out.sort(key=lambda t: (t[0], min(netlist.instances[i].name for i in t[2])))
    clusters = tuple(
        Cluster(cid, kind, tuple(ids), root, area_of(ids), len(ids))
        for cid, (root, kind, ids) in enumerate(merged_out)
    )
    mapping = [-1] * len(netlist.instances)
    for c in clusters:
        for i in c.members:
            mapping[i] = c.id
    return ClusteredNetlist(netlist, clusters, tuple(mapping), ())


def compute_cluster_edges(netlist: Netlist, cn: ClusteredNetlist) -> ClusteredNetlist:
    """Populate directed inter-cluster edges weighted by summed bit widths.

    Each net contributes its bit width once per distinct external sink
    cluster; connections inside one cluster produce no edge.  Edges come
    sorted by (src, dst).
    """
    nets = netlist.nets
    n = len(cn.clusters)
    cluster_of = np.fromiter(cn.instance_to_cluster, dtype=np.int64, count=len(cn.instance_to_cluster))
    net, dst = nets.sink_groups(cluster_of)
    src = cluster_of[nets.driver[net]]
    external = src != dst
    net, pair = net[external], src[external] * n + dst[external]
    pair, inverse = group_keys(pair)
    # widths are at most MAX_WIDTH bits, so float64 sums of them stay exact
    width = np.bincount(inverse, weights=nets.bit_widths[net], minlength=len(pair))
    src, dst = np.divmod(pair, n)
    edges = tuple(zip(src.tolist(), dst.tolist(), width.astype(np.int64).tolist()))
    return replace(cn, edges=edges)


def dump_clusters(cn: ClusteredNetlist) -> str:
    """One line per cluster: ``id kind size area hierarchy_root``."""
    lines = []
    for c in cn.clusters:
        root = "/".join(c.hierarchy_root)
        lines.append(f"{c.id} {c.kind} {c.instance_count} {c.area:.6g} {root}")
    return "\n".join(lines) + "\n"
