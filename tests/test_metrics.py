import json
import re

import numpy as np
import pytest

from dfplace import calibrate_capacity, congestion, emit_report, hpwl
from dfplace.dataflow import CC, MC, MM_DIRECT, DataflowEdge, DataflowGraph
from dfplace.errors import EmptyPointSet
from dfplace.placer import Floorplan, LossBreakdown, MacroPlacement
from oracles import congestion_deposit_brute, hpwl_brute


def test_hpwl_examples():
    assert hpwl([(0, 0), (2, 3)]) == 5
    assert hpwl([(1, 1)]) == 0
    assert hpwl([(0, 0), (1, 1), (3, 0)]) == 4
    with pytest.raises(EmptyPointSet):
        hpwl([])


@pytest.mark.parametrize("seed", range(30))
def test_hpwl_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    pts = [(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
           for _ in range(int(rng.integers(1, 51)))]
    assert hpwl(pts) == pytest.approx(hpwl_brute(pts), abs=0)


def test_hpwl_translation_and_scale_invariance():
    rng = np.random.default_rng(7)
    pts = [(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))) for _ in range(9)]
    base = hpwl(pts)
    shifted = hpwl([(x + 13.5, y - 2.25) for x, y in pts])
    scaled = hpwl([(x * 4, y * 4) for x, y in pts])
    assert shifted == pytest.approx(base)
    assert scaled == pytest.approx(4 * base)


# ---------------------------------------------------------------------------
# congestion
# ---------------------------------------------------------------------------

def random_scene(seed, n_cells=8, n_edges=14):
    rng = np.random.default_rng(seed)
    W = float(rng.uniform(20, 60))
    H = float(rng.uniform(20, 60))
    positions = {
        c: (float(rng.uniform(0, W)), float(rng.uniform(0, H)))
        for c in range(n_cells)
    }
    edges = []
    for _ in range(n_edges):
        a, b = rng.choice(n_cells, size=2, replace=False)
        edges.append(DataflowEdge(CC, int(a), int(b), float(rng.uniform(0.5, 8)), 1))
    return Floorplan((W, H), {}, positions, {}), DataflowGraph(tuple(edges))


def test_single_bin_deposit():
    # edge bbox is exactly the single 5x5 bin: demand = weight*hpwl / bin area
    fp = Floorplan((5.0, 5.0), {}, {0: (0.0, 0.0), 1: (5.0, 5.0)}, {})
    g = DataflowGraph((DataflowEdge(CC, 0, 1, 0.5, 1),))
    grid, overflow = congestion(fp, g, bin_size=5.0, capacity_per_bin=1.0)
    assert grid.demand.shape == (1, 1)
    assert grid.demand[0, 0] == pytest.approx(0.5 * 10 / 25)  # = 0.2
    assert overflow == 0.0


def test_overflow_definition():
    fp = Floorplan((5.0, 5.0), {}, {0: (0.0, 0.0), 1: (5.0, 5.0)}, {})
    g = DataflowGraph((DataflowEdge(CC, 0, 1, 3.25, 1),))  # demand 1.3
    grid, overflow = congestion(fp, g, bin_size=5.0, capacity_per_bin=1.0)
    assert grid.demand[0, 0] == pytest.approx(1.3)
    assert overflow == pytest.approx(0.3)


@pytest.mark.parametrize("seed", range(20))
def test_demand_matches_per_edge_integration(seed):
    fp, g = random_scene(seed)
    bin_size = max(fp.outline) / 7
    grid, _ = congestion(fp, g, bin_size, capacity_per_bin=1.0)
    want = congestion_deposit_brute(fp, g, grid.x_edges.tolist(), grid.y_edges.tolist())
    got = grid.demand
    total_want = sum(sum(row) for row in want)
    assert float(got.sum()) == pytest.approx(total_want, rel=1e-9)
    assert np.allclose(got, np.array(want), rtol=1e-9, atol=1e-12)


def test_degenerate_segments_deposit_along_line():
    fp = Floorplan((10.0, 10.0), {}, {0: (0.0, 2.5), 1: (10.0, 2.5)}, {})
    g = DataflowGraph((DataflowEdge(CC, 0, 1, 2.0, 2),))
    grid, _ = congestion(fp, g, bin_size=5.0, capacity_per_bin=1.0)
    # horizontal line y=2.5 crosses the bottom row only; total demand
    # integrates back to weight * hpwl / bin_area summed over covered bins
    assert grid.demand[1].sum() == 0.0
    assert grid.demand[0].sum() == pytest.approx(2.0 * 10.0 / 25.0)
    assert grid.demand[0, 0] == pytest.approx(grid.demand[0, 1])


@pytest.mark.parametrize("ends", [
    ((7.5, 1.0), (7.5, 9.0)),    # vertical, inside the right column
    ((1.0, 10.0), (9.0, 10.0)),  # on the outline's top edge: last row
    ((10.0, 1.0), (10.0, 9.0)),  # on the outline's right edge: last column
], ids=["vertical", "top_edge", "right_edge"])
def test_degenerate_segments_match_brute_force(ends):
    fp = Floorplan((10.0, 10.0), {}, dict(enumerate(ends)), {})
    g = DataflowGraph((DataflowEdge(CC, 0, 1, 2.0, 2),))
    grid, _ = congestion(fp, g, bin_size=5.0, capacity_per_bin=1.0)
    want = congestion_deposit_brute(fp, g, grid.x_edges.tolist(), grid.y_edges.tolist())
    assert np.allclose(grid.demand, np.array(want), rtol=1e-12, atol=0.0)
    assert float(grid.demand.sum()) * 25.0 == pytest.approx(2.0 * 8.0)


def test_zero_length_edge_deposits_nothing():
    fp = Floorplan((10.0, 10.0), {}, {0: (3.0, 3.0), 1: (3.0, 3.0)}, {})
    g = DataflowGraph((DataflowEdge(CC, 0, 1, 9.0, 9),))
    grid, overflow = congestion(fp, g, bin_size=5.0, capacity_per_bin=1.0)
    assert float(grid.demand.sum()) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_overflow_monotone_in_capacity(seed):
    fp, g = random_scene(seed + 100)
    bin_size = max(fp.outline) / 6
    grid, _ = congestion(fp, g, bin_size, 1.0)
    caps = np.linspace(0.0, float(grid.demand.max()) * 1.1, 5)
    prev = None
    for cap in caps:
        _, ov = congestion(fp, g, bin_size, max(cap, 1e-9))
        if prev is not None:
            assert ov <= prev + 1e-12
        prev = ov


def test_calibrated_capacity_overflows_ten_percent():
    fp, g = random_scene(42, n_cells=12, n_edges=40)
    grid, _ = congestion(fp, g, max(fp.outline) / 10, 1.0)
    cap = calibrate_capacity(grid, overflow_bin_fraction=0.10)
    frac = float((grid.demand > cap).mean())
    assert frac <= 0.15  # quantile can only under-shoot on ties


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def report_scene():
    fp = Floorplan(
        (30.0, 30.0),
        {
            0: MacroPlacement(2, 2, 6, 6, "N", ((1.0, 1.0),)),
            1: MacroPlacement(12, 12, 6, 6, "N", ((1.0, 1.0),)),
        },
        {5: (22.0, 22.0), 6: (25.0, 8.0)},
        {9: (0.0, 15.0)},
    )
    g = DataflowGraph((
        DataflowEdge(MM_DIRECT, 0, 1, 2.0, 2),
        DataflowEdge(MC, 0, 5, 3.0, 3),
        DataflowEdge(CC, 5, 6, 1.0, 1),
    ))
    return fp, g


def test_report_componentwise_hpwl():
    fp, g = report_scene()
    rep = emit_report(fp, g, loss=LossBreakdown())
    assert rep.hpwl_total >= max(rep.wl_mm, rep.wl_mc, rep.wl_mcc)
    assert rep.hpwl_total == pytest.approx(rep.wl_mm + rep.wl_mc + rep.wl_mcc +
                                           (rep.hpwl_total - rep.wl_mm - rep.wl_mc - rep.wl_mcc))


def test_report_empty_graph():
    fp, _ = report_scene()
    rep = emit_report(fp, DataflowGraph(()), loss=LossBreakdown())
    assert rep.hpwl_total == 0.0
    assert rep.congestion_overflow == 0.0


@pytest.mark.parametrize("capacity", [0, -1.0, "none", None, True])
def test_report_rejects_bad_capacity(capacity):
    fp, g = report_scene()
    with pytest.raises(ValueError, match=re.escape(repr(capacity))):
        emit_report(fp, g, capacity=capacity)


def test_report_json_round_trip_and_determinism():
    fp, g = report_scene()
    rep1 = emit_report(fp, g, timings={"sa": 1.0}, loss=LossBreakdown(total=5.0))
    rep2 = emit_report(fp, g, timings={"sa": 1.0}, loss=LossBreakdown(total=5.0))
    assert rep1.to_json() == rep2.to_json()
    parsed = json.loads(rep1.to_json())
    assert json.dumps(parsed, indent=2, sort_keys=True) == rep1.to_json()
    assert parsed["hpwl_total"] == rep1.hpwl_total


def test_report_flip_log_lines():
    from dfplace.finetune import FlipDecision
    fp, g = report_scene()
    log = (
        FlipDecision(0, "FS", 1.0, 0.0, 10.0, 9.0, True, name="m0"),
        FlipDecision(1, "N", 0.0, 0.0, 9.0, 9.0, False, name="m1"),
    )
    rep = emit_report(fp, g, flip_log=log, loss=LossBreakdown())
    text = rep.to_text()
    header = text.index("flip log")
    flip_lines = [l for l in text[header:].split("\n")[1:] if l.strip()]
    assert len(flip_lines) == 2
    assert len(json.loads(rep.to_json())["flip_log"]) == 2
