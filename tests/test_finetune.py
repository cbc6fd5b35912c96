import copy

import numpy as np
import pytest

import dfplace.finetune as finetune
from dfplace import (
    decide_and_apply_flip,
    decompose_dataflow_vectors,
    order_macros_for_flipping,
    run_flipping_pass,
    total_hpwl,
)
from dfplace.dataflow import CC, MC, MCC, MM_DIRECT, MM_INDIRECT, DataflowEdge, DataflowGraph
from dfplace.finetune import FlipVector, compose_orientation
from dfplace.metrics import category_hpwl
from dfplace.placer import Floorplan, MacroPlacement, compute_loss


def test_compose_orientation_group():
    assert compose_orientation("N", "FS") == "FS"
    assert compose_orientation("FS", "FS") == "N"
    assert compose_orientation("FN", "FS") == "S"
    assert compose_orientation("S", "FN") == "FS"


# ---------------------------------------------------------------------------
# vector decomposition
# ---------------------------------------------------------------------------

def test_vector_single_mm_edge():
    fp = Floorplan(
        (50.0, 50.0),
        {
            0: MacroPlacement(0, 0, 2, 2, "N", ((0.0, 0.0),)),  # pin center (0,0)
            1: MacroPlacement(2, 2, 2, 2, "N", ((1.0, 2.0),)),  # pin center (3,4)
        },
    )
    g = DataflowGraph((DataflowEdge(MM_DIRECT, 0, 1, 2.0, 2),))
    fv = decompose_dataflow_vectors(0, g, fp)
    assert fv.v_mm == pytest.approx((6.0, 8.0))


def test_vector_superposition():
    fp = Floorplan(
        (50.0, 50.0),
        {
            0: MacroPlacement(0, 0, 2, 2, "N", ((0.0, 0.0),)),
            1: MacroPlacement(2, 2, 2, 2, "N", ((1.0, 2.0),)),  # (3,4) -> (6,8)*1
            2: MacroPlacement(0, 0, 2, 2, "N", ((0.0, 0.0),)),
        },
    )
    fp.macro_placements[2] = MacroPlacement(-6, 0, 2, 2, "N", ((0.0, 0.0),))
    g = DataflowGraph((
        DataflowEdge(MM_DIRECT, 0, 1, 2.0, 2),
        DataflowEdge(MM_DIRECT, 0, 2, 1.0, 1),
    ))
    fv = decompose_dataflow_vectors(0, g, fp)
    assert fv.v_mm == pytest.approx((0.0, 8.0))


def test_vector_blend_weights():
    fp = Floorplan((50.0, 50.0), {0: MacroPlacement(0, 0, 2, 2, "N", ((0.0, 0.0),))})
    fv = FlipVector((10.0, 0.0), (0.0, 10.0), (10.0, 10.0), (0.0, 0.0))
    # recompute v_t the way decompose does
    alpha, beta, gamma = 0.55, 0.30, 0.15
    vt = (
        alpha * fv.v_mm[0] + beta * fv.v_mc[0] + gamma * fv.v_mcc[0],
        alpha * fv.v_mm[1] + beta * fv.v_mc[1] + gamma * fv.v_mcc[1],
    )
    assert vt == pytest.approx((7.0, 4.5))


def test_vector_mcc_uses_hop_midpoint():
    fp = Floorplan(
        (50.0, 50.0),
        {0: MacroPlacement(0, 0, 2, 2, "N", ((0.0, 0.0),))},
        {5: (2.0, 0.0), 6: (6.0, 4.0)},
    )
    g = DataflowGraph((DataflowEdge(MCC, 0, 6, 3.0, 3, via=5, first_hop=1.0),))
    fv = decompose_dataflow_vectors(0, g, fp)
    # midpoint of (2,0) and (6,4) is (4,2); weight 3
    assert fv.v_mcc == pytest.approx((12.0, 6.0))
    assert fv.v_t == pytest.approx((0.15 * 12.0, 0.15 * 6.0))


# ---------------------------------------------------------------------------
# flipping order
# ---------------------------------------------------------------------------

def chain_floorplan():
    fp = Floorplan(
        (60.0, 60.0),
        {
            0: MacroPlacement(10, 10, 4, 4, "N", ((1.0, 1.0),)),
            1: MacroPlacement(20, 10, 4, 4, "N", ((1.0, 1.0),)),
            2: MacroPlacement(30, 10, 4, 4, "N", ((1.0, 1.0),)),
        },
        {},
        {9: (0.0, 30.0)},
    )
    return fp


def test_order_bfs_from_io():
    fp = chain_floorplan()
    g = DataflowGraph((
        DataflowEdge(MM_DIRECT, 0, 9, 4.0, 4),   # macro 0 touches IO
        DataflowEdge(MM_DIRECT, 0, 1, 2.0, 2),
        DataflowEdge(MM_DIRECT, 1, 2, 2.0, 2),
    ))
    assert order_macros_for_flipping(g, fp) == [0, 1, 2]


def test_order_heavier_io_macro_first():
    fp = chain_floorplan()
    g = DataflowGraph((
        DataflowEdge(MM_DIRECT, 0, 9, 8.0, 8),
        DataflowEdge(MM_DIRECT, 1, 9, 12.0, 12),
    ))
    order = order_macros_for_flipping(g, fp)
    assert order[:2] == [1, 0]
    assert order[-1] == 2  # isolated macro appended last


def test_order_reaches_through_cell_clusters():
    fp = chain_floorplan()
    fp.cluster_positions[5] = (25.0, 30.0)
    g = DataflowGraph((
        DataflowEdge(MM_DIRECT, 0, 9, 4.0, 4),
        DataflowEdge(MC, 0, 5, 2.0, 2),
        DataflowEdge(MC, 1, 5, 2.0, 2),   # macro 1 reachable only via cluster 5
    ))
    order = order_macros_for_flipping(g, fp)
    assert order[0] == 0
    assert order[1] == 1


# ---------------------------------------------------------------------------
# flip decisions
# ---------------------------------------------------------------------------

def lone_macro(pin_dx=1.0, pin_dy=5.0):
    # 10x10 macro at origin; pin center offset (pin_dx, pin_dy) from corner
    return Floorplan(
        (100.0, 50.0),
        {0: MacroPlacement(5, 20, 10, 10, "N", ((pin_dx, pin_dy),))},
        {1: (90.0, 25.0)},
    )


def test_flip_fs_when_flow_right_pins_left():
    fp = lone_macro()
    g = DataflowGraph((DataflowEdge(MC, 0, 1, 8.0, 8),))
    fv = decompose_dataflow_vectors(0, g, fp)
    assert fv.v_t[0] > 0
    d = decide_and_apply_flip(0, fv, fp, g, guard=False)
    assert d.mode == "FS"
    assert d.applied
    # pins moved to the right half
    assert fp.macro_placements[0].pin_center()[0] > fp.macro_placements[0].center()[0]


def test_flip_skips_centered_pins():
    fp = lone_macro(pin_dx=5.0, pin_dy=5.0)
    g = DataflowGraph((DataflowEdge(MC, 0, 1, 8.0, 8),))
    fv = decompose_dataflow_vectors(0, g, fp)
    d = decide_and_apply_flip(0, fv, fp, g, guard=False)
    assert d.mode == "N"
    assert not d.applied


def test_flip_guard_reverts_worse_hpwl():
    # cells just right of the pin: flipping overshoots, guard must revert
    fp = lone_macro()
    fp.cluster_positions[1] = (7.0, 25.0)
    g = DataflowGraph((DataflowEdge(MC, 0, 1, 8.0, 8),))
    fv = decompose_dataflow_vectors(0, g, fp)
    assert fv.v_t[0] > 0  # flow still points right of the pin center
    d = decide_and_apply_flip(0, fv, fp, g, guard=True)
    assert d.mode == "FS"
    assert not d.applied
    assert fp.macro_placements[0].orientation == "N"
    assert d.post_hpwl > d.pre_hpwl


def test_flip_s_mode_both_axes():
    fp = Floorplan(
        (100.0, 100.0),
        {0: MacroPlacement(40, 40, 10, 10, "N", ((1.0, 1.0),))},
        {1: (95.0, 95.0)},
    )
    g = DataflowGraph((DataflowEdge(MC, 0, 1, 8.0, 8),))
    fv = decompose_dataflow_vectors(0, g, fp)
    d = decide_and_apply_flip(0, fv, fp, g, guard=False)
    assert d.mode == "S"
    assert fp.macro_placements[0].orientation == "S"


def test_double_flip_restores_pin_center_exactly():
    fp = lone_macro(pin_dx=1.25, pin_dy=3.5)
    before = fp.macro_placements[0].pin_center()
    mp = fp.macro_placements[0]
    mp.orientation = compose_orientation(mp.orientation, "FS")
    mp.orientation = compose_orientation(mp.orientation, "FS")
    assert fp.macro_placements[0].pin_center() == before
    mp.orientation = compose_orientation(mp.orientation, "FN")
    mp.orientation = compose_orientation(mp.orientation, "FN")
    assert fp.macro_placements[0].pin_center() == before


def test_footprint_preserved_by_flip():
    fp = lone_macro()
    g = DataflowGraph((DataflowEdge(MC, 0, 1, 8.0, 8),))
    mp = fp.macro_placements[0]
    geom = (mp.x, mp.y, mp.width, mp.height)
    run_flipping_pass(fp, g, guard=False)
    mp2 = fp.macro_placements[0]
    assert (mp2.x, mp2.y, mp2.width, mp2.height) == geom


def random_flip_scene(seed):
    rng = np.random.default_rng(seed)
    n_macros = int(rng.integers(2, 6))
    n_cells = int(rng.integers(1, 5))
    W, H = 120.0, 100.0
    placements = {}
    x_cursor = 2.0
    for m in range(n_macros):
        w, h = float(rng.uniform(6, 14)), float(rng.uniform(6, 14))
        pins = tuple(
            (float(rng.uniform(0, w)), float(rng.uniform(0, h)))
            for _ in range(int(rng.integers(1, 4)))
        )
        placements[m] = MacroPlacement(x_cursor, float(rng.uniform(0, H - h)), w, h, "N", pins)
        x_cursor += w + 2.0
    positions = {100 + c: (float(rng.uniform(0, W)), float(rng.uniform(0, H)))
                 for c in range(n_cells)}
    anchors = {200: (0.0, H / 2)}
    fp = Floorplan((W, H), placements, positions, anchors)
    edges = [DataflowEdge(MM_DIRECT, 0, 200, float(rng.integers(1, 9)), 1)]
    for m in range(n_macros):
        for c in positions:
            if rng.random() < 0.6:
                edges.append(DataflowEdge(MC, m, c, float(rng.integers(1, 9)), 1))
        for m2 in range(m + 1, n_macros):
            if rng.random() < 0.4:
                edges.append(DataflowEdge(MM_DIRECT, m, m2, float(rng.integers(1, 9)), 1))
    return fp, DataflowGraph(tuple(edges))


@pytest.mark.parametrize("seed", range(15))
def test_guarded_pass_never_raises_hpwl(seed):
    fp, g = random_flip_scene(seed)
    before = total_hpwl(fp, g)
    log = run_flipping_pass(fp, g, guard=True)
    after = total_hpwl(fp, g)
    assert after <= before + 1e-9
    assert len(log) == len(fp.macro_placements)


@pytest.mark.parametrize("seed", range(10))
def test_loss_wirelength_matches_hpwl_after_flips(seed):
    # loss and report read one pin-center rule, mirrored pins included, and
    # sum each category in edge order, MM_direct and MM_indirect together
    fp, g = random_flip_scene(seed + 900)
    rng = np.random.default_rng(seed)
    ends = sorted(fp.macro_placements) + sorted(fp.io_anchors)
    g = DataflowGraph(g.edges + tuple(
        DataflowEdge(MM_INDIRECT, a, b, float(rng.integers(1, 9)), 1)
        for i, a in enumerate(ends) for b in ends[i + 1:]
    ))
    log = run_flipping_pass(fp, g, guard=False)
    assert any(d.applied for d in log)
    loss = compute_loss(fp, g, {})
    cats = category_hpwl(fp, g)
    assert (loss.wl_mm, loss.wl_mc, loss.wl_mcc) == (cats["mm"], cats["mc"], cats["mcc"])


@pytest.mark.parametrize("seed", range(15))
def test_alignment_postcondition_on_applied_flips(seed):
    fp, g = random_flip_scene(seed + 500)
    for macro_id in order_macros_for_flipping(g, fp):
        fv = decompose_dataflow_vectors(macro_id, g, fp)
        d = decide_and_apply_flip(macro_id, fv, fp, g, guard=False)
        if not d.applied:
            continue
        mp = fp.macro_placements[macro_id]
        pcx, pcy = mp.pin_center()
        ccx, ccy = mp.center()
        sgn = lambda v: (v > 0) - (v < 0)
        assert sgn(d.x_vt) * sgn(pcx - ccx) >= 0
        assert sgn(d.y_vt) * sgn(pcy - ccy) >= 0


def test_guard_keeps_a_flip_that_ties():
    # pin at x=0.2 left of the center 0.6; cells at 0.6 -+ 1.7, the right
    # one heavier: FS moves the pin to 1.0 and both HPWLs read 3.4, but the
    # float sums differ by one ulp (4.4e-16), which must not count as a rise
    fp = Floorplan(
        (10.0, 10.0),
        {0: MacroPlacement(0.1, 2.0, 1.0, 1.0, "N", ((0.1, 0.5),))},
        {1: (0.6 - 1.7, 2.5), 2: (0.6 + 1.7, 2.5)},
    )
    g = DataflowGraph((DataflowEdge(MC, 0, 1, 1.0, 1), DataflowEdge(MC, 0, 2, 3.0, 3)))
    (d,) = run_flipping_pass(fp, g, guard=True)
    assert d.mode == "FS"
    assert d.post_hpwl != d.pre_hpwl  # the roundoff is there
    assert d.applied
    assert fp.macro_placements[0].orientation == "FS"


def with_two_hop_edges(seed):
    """A random flip scene plus MM_indirect, CC and MCC edges."""
    fp, g = random_flip_scene(seed)
    rng = np.random.default_rng(seed + 7000)
    macros, cells = sorted(fp.macro_placements), sorted(fp.cluster_positions)
    extra = []
    for m in macros:
        for c1 in cells:
            for c2 in cells:
                if c1 != c2 and rng.random() < 0.3:
                    extra.append(DataflowEdge(MCC, m, c2, float(rng.integers(1, 9)), 1,
                                              via=c1, first_hop=1.0))
        if rng.random() < 0.5:
            m2 = int(rng.choice(macros))
            if m2 != m:
                extra.append(DataflowEdge(MM_INDIRECT, min(m, m2), max(m, m2), 2.0, 1))
    extra += [DataflowEdge(CC, c1, c2, 1.0, 1) for c1 in cells for c2 in cells if c1 < c2]
    return fp, DataflowGraph(g.edges + tuple(extra))


@pytest.mark.parametrize("guard", [True, False])
@pytest.mark.parametrize("seed", range(15))
def test_pass_matches_whole_graph_reference(seed, guard):
    for fp, g in (random_flip_scene(seed), with_two_hop_edges(seed)):
        ref_fp = copy.deepcopy(fp)
        ref = []
        for macro_id in order_macros_for_flipping(g, ref_fp):
            fv = decompose_dataflow_vectors(macro_id, g, ref_fp)
            ref.append(decide_and_apply_flip(macro_id, fv, ref_fp, g, guard))
        log = run_flipping_pass(fp, g, guard=guard)
        assert [d.macro_id for d in log] == [d.macro_id for d in ref]
        for d, r in zip(log, ref):
            assert (d.mode, d.applied, d.x_vt, d.y_vt) == (r.mode, r.applied, r.x_vt, r.y_vt)
            assert d.post_hpwl - d.pre_hpwl == pytest.approx(r.post_hpwl - r.pre_hpwl, abs=1e-9)
            assert d.pre_hpwl == pytest.approx(r.pre_hpwl, abs=1e-9)
        assert {m: p.orientation for m, p in fp.macro_placements.items()} == {
            m: p.orientation for m, p in ref_fp.macro_placements.items()}


def test_pass_sums_the_whole_graph_once(monkeypatch):
    fp, g = with_two_hop_edges(3)
    graphs = []

    def counting(fp_, graph):
        graphs.append(graph)
        return total_hpwl(fp_, graph)

    monkeypatch.setattr(finetune, "total_hpwl", counting)
    log = run_flipping_pass(fp, g)
    assert sum(graph is g for graph in graphs) == 1
    assert len(graphs) > 1  # the guard reads incident graphs through the same name
    last = log[-1]  # the running total ends at the design's HPWL
    end = last.post_hpwl if last.applied else last.pre_hpwl
    assert end == pytest.approx(total_hpwl(fp, g), abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_pass_sums_nothing_for_mode_n(monkeypatch, seed):
    fp, g = with_two_hop_edges(seed)
    m0 = fp.macro_placements[0]
    m0.pins = ((m0.width / 2, m0.height / 2),)  # a centered pin never flips
    calls = []

    def counting(fp_, graph):
        calls.append(graph)
        return total_hpwl(fp_, graph)

    monkeypatch.setattr(finetune, "total_hpwl", counting)
    log = run_flipping_pass(fp, g)
    modes = [d.mode for d in log]
    assert "N" in modes and len(set(modes)) > 1
    # one whole-graph sum, then the guard's pre and post sums per macro that
    # has a flip to try
    assert len(calls) == 1 + 2 * sum(m != "N" for m in modes)
