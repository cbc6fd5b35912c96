"""Floorplan evaluation: HPWL, RUDY-style congestion, run reports.

Congestion is estimated at cluster granularity: every dataflow edge smears a
uniform demand density (weight * HPWL / bbox area) over its bounding box, so
absolute overflow values are only comparable between runs that share a
capacity; use :func:`calibrate_capacity` to pin one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .dataflow import CC, MC, MCC, MM_DIRECT, MM_INDIRECT, DataflowGraph
from .errors import EmptyPointSet
from .placer import Floorplan, LossBreakdown

# edges deposited per matrix product; bounds the [block, bins] share arrays
EDGE_BLOCK = 256


def hpwl(points) -> float:
    """Half-perimeter wirelength of a point set's bounding box."""
    points = list(points)
    if not points:
        raise EmptyPointSet("hpwl of an empty point set")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def total_hpwl(fp: Floorplan, graph: DataflowGraph) -> float:
    """Unweighted sum of edge HPWLs over every evaluated dataflow edge."""
    return category_hpwl(fp, graph)["total"]


def category_hpwl(fp: Floorplan, graph: DataflowGraph) -> dict[str, float]:
    """HPWL sums keyed by category: mm (direct+indirect), mc, cc, mcc, total."""
    sums = {MM_DIRECT: 0.0, MM_INDIRECT: 0.0, MC: 0.0, CC: 0.0, MCC: 0.0}
    ends = fp.edge_endpoints(graph)
    lengths = np.abs(ends[:, 0] - ends[:, 2]) + np.abs(ends[:, 1] - ends[:, 3])
    for e, h in zip(graph.edges, lengths.tolist()):
        sums[e.kind] += h
    return {
        "mm": sums[MM_DIRECT] + sums[MM_INDIRECT],
        "mc": sums[MC],
        "cc": sums[CC],
        "mcc": sums[MCC],
        "total": sum(sums.values()),
    }


# ---------------------------------------------------------------------------
# Congestion grid
# ---------------------------------------------------------------------------

@dataclass
class CongestionGrid:
    demand: np.ndarray  # [ny, nx] density units
    capacity: np.ndarray  # same shape, all > 0
    bin_size: float
    x_edges: np.ndarray
    y_edges: np.ndarray

    def overflow(self) -> float:
        return float(np.maximum(self.demand - self.capacity, 0.0).sum())


def _axis_edges(extent: float, bin_size: float) -> np.ndarray:
    n = max(1, int(np.ceil(extent / bin_size - 1e-12)))
    edges = np.minimum(np.arange(n + 1) * bin_size, extent)
    edges[-1] = extent  # last bin may be partial
    return edges


def _axis_share(edges: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``[B, bins]`` share of each span [lo, hi] per bin; a zero-length span is
    one-hot on the bin holding it (the last bin for a point on the far edge)."""
    span = hi - lo
    overlap = np.minimum(edges[1:], hi[:, None]) - np.maximum(edges[:-1], lo[:, None])
    share = np.clip(overlap, 0.0, None) / np.where(span > 0, span, 1.0)[:, None]
    point = np.flatnonzero(span == 0)
    held = np.searchsorted(edges, lo[point], side="right") - 1
    share[point, np.clip(held, 0, len(edges) - 2)] = 1.0
    return share


def congestion(
    fp: Floorplan,
    graph: DataflowGraph,
    bin_size: float,
    capacity_per_bin: float,
) -> tuple[CongestionGrid, float]:
    """Deposit per-edge demand over the grid and report total overflow.

    Each edge spreads weight * HPWL uniformly over its bounding box; a bin
    receives the overlapped share divided by its own area, so demand is a
    density.  Degenerate boxes (zero width or height) spread along their
    segment; zero-extent edges deposit nothing (their HPWL is zero).  The
    density is separable per axis, so a block of edges deposits
    ``(share_y * weight * hpwl)^T @ share_x`` in one product.
    """
    if bin_size <= 0:
        raise ValueError(f"bin_size must be positive, got {bin_size}")
    if capacity_per_bin <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_per_bin}")
    W, H = fp.outline
    xe = _axis_edges(W, bin_size)
    ye = _axis_edges(H, bin_size)
    nx, ny = len(xe) - 1, len(ye) - 1
    demand = np.zeros((ny, nx))
    bin_area = np.maximum(
        np.outer(np.diff(ye), np.diff(xe)), 1e-300
    )

    ends = fp.edge_endpoints(graph)
    lo = np.minimum(ends[:, :2], ends[:, 2:])
    hi = np.maximum(ends[:, :2], ends[:, 2:])
    total = np.array([e.weight for e in graph.edges], dtype=float) * (hi - lo).sum(axis=1)
    keep = total > 0.0
    lo, hi, total = lo[keep], hi[keep], total[keep]
    for start in range(0, len(total), EDGE_BLOCK):
        b = slice(start, start + EDGE_BLOCK)
        share_x = _axis_share(xe, lo[b, 0], hi[b, 0])
        share_y = _axis_share(ye, lo[b, 1], hi[b, 1])
        demand += (share_y * total[b, None]).T @ share_x
    demand /= bin_area

    capacity = np.full((ny, nx), float(capacity_per_bin))
    grid = CongestionGrid(demand, capacity, bin_size, xe, ye)
    return grid, grid.overflow()


def calibrate_capacity(grid: CongestionGrid, overflow_bin_fraction: float = 0.10) -> float:
    """Capacity at which the given fraction of this grid's bins would overflow."""
    q = float(np.quantile(grid.demand, 1.0 - overflow_bin_fraction))
    return max(q, 1e-12)


def demand_csv(grid: CongestionGrid) -> str:
    """Bin demands as CSV, one row per grid row, bottom row first."""
    lines = [",".join(f"{v:.9g}" for v in row) for row in grid.demand]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run report
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    hpwl_total: float
    wl_mm: float
    wl_mc: float
    wl_mcc: float
    congestion_overflow: float
    congestion_capacity: float
    loss: LossBreakdown
    timings: dict[str, float] = field(default_factory=dict)
    flip_log: tuple = ()
    # the grid behind congestion_overflow, capacity set; not serialized
    congestion_grid: CongestionGrid | None = field(default=None, repr=False, compare=False)

    def to_dict(self, include_timings: bool = True) -> dict:
        d = {
            "hpwl_total": self.hpwl_total,
            "wl_mm": self.wl_mm,
            "wl_mc": self.wl_mc,
            "wl_mcc": self.wl_mcc,
            "congestion_overflow": self.congestion_overflow,
            "congestion_capacity": self.congestion_capacity,
            "loss": {
                "wl_mm": self.loss.wl_mm,
                "wl_mc": self.loss.wl_mc,
                "wl_mcc": self.loss.wl_mcc,
                "loss_mm": self.loss.loss_mm,
                "loss_mc": self.loss.loss_mc,
                "loss_mcc": self.loss.loss_mcc,
                "loss_outline": self.loss.loss_outline,
                "loss_boundary": self.loss.loss_boundary,
                "total": self.loss.total,
            },
            "flip_log": [
                {
                    "macro": d_.macro_id,
                    "name": d_.name,
                    "mode": d_.mode,
                    "x_vt": d_.x_vt,
                    "y_vt": d_.y_vt,
                    "pre_hpwl": d_.pre_hpwl,
                    "post_hpwl": d_.post_hpwl,
                    "applied": d_.applied,
                }
                for d_ in self.flip_log
            ],
        }
        if include_timings:
            d["timings"] = dict(self.timings)
        return d

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            "run report",
            f"  hpwl_total          {self.hpwl_total:.6f}",
            f"  wl_mm               {self.wl_mm:.6f}",
            f"  wl_mc               {self.wl_mc:.6f}",
            f"  wl_mcc              {self.wl_mcc:.6f}",
            f"  congestion_overflow {self.congestion_overflow:.6f}",
            f"  congestion_capacity {self.congestion_capacity:.6g}",
            f"  loss_total          {self.loss.total:.6f}",
            f"    mm / mc / mcc     {self.loss.loss_mm:.6f} / {self.loss.loss_mc:.6f} / {self.loss.loss_mcc:.6f}",
            f"    outline/boundary  {self.loss.loss_outline:.6f} / {self.loss.loss_boundary:.6f}",
            "  flip log (name mode xVt yVt dHPWL applied)",
        ]
        for d in self.flip_log:
            lines.append(
                f"    {d.name} {d.mode} {d.x_vt:.6f} {d.y_vt:.6f} "
                f"{d.post_hpwl - d.pre_hpwl:.6f} {int(d.applied)}"
            )
        return "\n".join(lines) + "\n"


def emit_report(
    fp: Floorplan,
    graph: DataflowGraph,
    timings: dict[str, float] | None = None,
    flip_log: tuple = (),
    loss: LossBreakdown | None = None,
    bin_size: float | None = None,
    capacity: float | str = "auto",
) -> RunReport:
    """Assemble a RunReport; pure function of its inputs.

    ``capacity="auto"`` calibrates on this run's own grid so roughly 10% of
    bins overflow; pass a number to compare runs against a fixed budget.
    """
    if capacity != "auto" and not (
        isinstance(capacity, Real) and not isinstance(capacity, bool) and capacity > 0
    ):
        raise ValueError(f"capacity must be 'auto' or a number > 0, got {capacity!r}")
    cats = category_hpwl(fp, graph)
    if bin_size is None:
        bin_size = max(fp.outline) / 32.0
    grid, _ = congestion(fp, graph, bin_size, 1.0)
    cap = calibrate_capacity(grid) if capacity == "auto" else float(capacity)
    grid.capacity[:] = cap
    return RunReport(
        hpwl_total=cats["total"],
        wl_mm=cats["mm"],
        wl_mc=cats["mc"],
        wl_mcc=cats["mcc"],
        congestion_overflow=grid.overflow(),
        congestion_capacity=cap,
        loss=loss if loss is not None else LossBreakdown(),
        timings=dict(timings or {}),
        flip_log=tuple(flip_log),
        congestion_grid=grid,
    )
