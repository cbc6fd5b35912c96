import dataclasses
import itertools
import math

import numpy as np
import pytest

from dfplace import (
    build_clusters,
    bundle_buses,
    compute_cluster_edges,
    compute_loss,
    evaluate_sequence_pair,
    extract_dataflow,
    generate_design,
    global_place_clusters,
    normalize_macro_area,
    run_sa,
)
from dfplace.dataflow import CC, MC, MCC, MM_DIRECT, MM_INDIRECT, DataflowEdge, DataflowGraph
from dfplace.errors import BadPermutation, EmptyGraph, UnplacedCluster
from dfplace.placer import (
    ORIENT_FLAGS,
    Floorplan,
    MacroPlacement,
    MacroShape,
    PlacerConfig,
    SaSchedule,
    SequencePair,
    macro_area_scales,
    macro_shapes,
    two_hop_coefficient,
    _decode_sp,
    _LossEvaluator,
)
from dfplace.synth import random_netlist
from oracles import any_overlap, global_place_reference, loss_reference


def prepared(seed=0, **kwargs):
    params = dict(n_modules=3, cells_per_module=12, macro_bus_width=6,
                  io_bus_width=6, cc_bus_width=2, seed=seed)
    params.update(kwargs)
    nl = bundle_buses(generate_design(**params))
    cn = compute_cluster_edges(nl, build_clusters(nl, 4, 40))
    graph = extract_dataflow(cn, nl)
    return nl, cn, graph


# ---------------------------------------------------------------------------
# sequence-pair decoding
# ---------------------------------------------------------------------------

def test_sp_left_of():
    sp = SequencePair((0, 1), (0, 1))
    xs, ys = evaluate_sequence_pair(sp, [(2, 1), (3, 2)])
    assert (xs[0], ys[0]) == (0, 0)
    assert (xs[1], ys[1]) == (2, 0)


def test_sp_above():
    sp = SequencePair((0, 1), (1, 0))
    xs, ys = evaluate_sequence_pair(sp, [(2, 1), (3, 2)])
    assert (xs[1], ys[1]) == (0, 0)
    assert (xs[0], ys[0]) == (0, 2)


def test_sp_bad_permutation():
    with pytest.raises(BadPermutation):
        evaluate_sequence_pair(SequencePair((0, 1), (0, 2)), [(1, 1), (1, 1)])
    with pytest.raises(BadPermutation):
        evaluate_sequence_pair(SequencePair((0, 0), (0, 1)), [(1, 1), (1, 1)])


@pytest.mark.parametrize("seed", range(20))
def test_sp_never_overlaps(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    sizes = [(float(rng.uniform(1, 9)), float(rng.uniform(1, 9))) for _ in range(n)]
    sp = SequencePair(tuple(rng.permutation(n).tolist()), tuple(rng.permutation(n).tolist()))
    xs, ys = evaluate_sequence_pair(sp, sizes)
    rects = [(xs[i], ys[i], sizes[i][0], sizes[i][1]) for i in range(n)]
    assert not any_overlap(rects)


def decode_reference(pos, neg, sizes):
    """Longest paths straight from the relations: a is left of b when it
    precedes b in both sequences, below b when it follows b in pos only."""
    rank = {v: r for r, v in enumerate(neg)}
    xs, ys = {}, {}
    for b in pos:  # every macro left of b comes earlier in pos
        xs[b] = max((xs[a] + sizes[a][0] for a in xs if rank[a] < rank[b]), default=0.0)
    for a in reversed(pos):  # every macro below a comes later in pos
        ys[a] = max((ys[b] + sizes[b][1] for b in ys if rank[b] < rank[a]), default=0.0)
    return [xs[i] for i in range(len(pos))], [ys[i] for i in range(len(pos))]


def test_decode_returns_bounding_box():
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 16, 24):
        for _ in range(10):
            pos, neg = rng.permutation(n).tolist(), rng.permutation(n).tolist()
            sizes = [(float(rng.uniform(1, 9)), float(rng.uniform(1, 9))) for _ in range(n)]
            xs, ys, bw, bh = _decode_sp(pos, neg, [w for w, _ in sizes], [h for _, h in sizes])
            assert (xs, ys) == evaluate_sequence_pair(SequencePair(tuple(pos), tuple(neg)), sizes)
            assert (xs, ys) == decode_reference(pos, neg, sizes)
            assert bw == max((x + w for x, (w, _) in zip(xs, sizes)), default=0)
            assert bh == max((y + h for y, (_, h) in zip(ys, sizes)), default=0)


# ---------------------------------------------------------------------------
# area normalization and loss arithmetic
# ---------------------------------------------------------------------------

def test_normalize_endpoints():
    out = normalize_macro_area([4.0, 10.0, 7.0])
    assert out[0] == 1.0
    assert out[1] == 2.0
    assert 1.0 <= out[2] <= 2.0


def test_normalize_degenerate_equal_areas():
    assert normalize_macro_area([5.0, 5.0, 5.0]) == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("seed", range(10))
def test_normalize_range_property(seed):
    rng = np.random.default_rng(seed)
    areas = rng.uniform(0.5, 50.0, size=int(rng.integers(1, 12)))
    out = normalize_macro_area(areas)
    assert all(1.0 <= v <= 2.0 for v in out)


def test_two_hop_coefficient_decreasing_in_aprime():
    prev = None
    for ap in (1.0, 1.2, 1.5, 1.8, 2.0):
        v = two_hop_coefficient(4.0, 9.0, ap, "eq8")
        if prev is not None:
            assert v < prev
        prev = v


def mm_pair_floorplan():
    # pin centers at (1,1) and (7,5): HPWL 10
    fp = Floorplan(
        (20.0, 20.0),
        {
            0: MacroPlacement(0, 0, 2, 2, "N", ((1.0, 1.0),)),
            1: MacroPlacement(6, 4, 2, 2, "N", ((1.0, 1.0),)),
        },
    )
    return fp


def test_loss_single_mm_edge():
    fp = mm_pair_floorplan()
    graph = DataflowGraph((DataflowEdge(MM_DIRECT, 0, 1, 3.0, 3),))
    out = compute_loss(fp, graph, {0: 1.0, 1: 1.0})
    assert out.loss_mm == pytest.approx(30.0)
    assert out.total == pytest.approx(30.0)
    assert out.wl_mm == pytest.approx(10.0)


def test_loss_single_mcc_edge_area_feedback():
    fp = Floorplan(
        (40.0, 40.0),
        {0: MacroPlacement(0, 0, 2, 2, "N", ((1.0, 1.0),))},
        {5: (4.0, 4.0), 6: (7.0, 5.0)},  # via and second hop clusters
    )
    graph = DataflowGraph((DataflowEdge(MCC, 0, 6, 9.0, 3, via=5, first_hop=4.0),))
    out = compute_loss(fp, graph, {0: 2.0})
    # sqrt(4*9)/2 * hpwl((1,1),(7,5)) = 3 * 10
    assert out.loss_mcc == pytest.approx(30.0)
    assert out.total == pytest.approx(30.0)


def test_loss_empty_graph():
    fp = mm_pair_floorplan()
    out = compute_loss(fp, DataflowGraph(()), {})
    assert out.total == 0.0
    assert out.loss_mm == out.loss_mc == out.loss_mcc == 0.0


def test_loss_unplaced_cluster():
    fp = mm_pair_floorplan()
    graph = DataflowGraph((DataflowEdge(MC, 0, 99, 1.0, 1),))
    with pytest.raises(UnplacedCluster):
        compute_loss(fp, graph, {})


def test_outline_penalty_quadratic_in_overhang():
    # 4x4 macro at (8, -1): sticks out 2 right and 1 below a 10x10 outline
    fp = Floorplan(
        (10.0, 10.0),
        {0: MacroPlacement(8, -1, 4, 4, "N", ((2.0, 2.0),))},
    )
    out = compute_loss(fp, DataflowGraph(()), {0: 1.0},
                       PlacerConfig(outline_weight=2.0))
    assert out.loss_outline == pytest.approx(2.0 * (2.0 ** 2 + 1.0 ** 2))
    assert out.total == out.loss_outline


def test_boundary_pull_is_distance_to_nearest_edge():
    # 4x4 macro with edges 3 away from the left and 2 from the bottom
    fp = Floorplan(
        (20.0, 20.0),
        {0: MacroPlacement(3, 2, 4, 4, "N", ((2.0, 2.0),))},
    )
    cfg = PlacerConfig(push_boundary_weight=0.5)
    out = compute_loss(fp, DataflowGraph(()), {0: 1.0}, cfg)
    assert out.loss_boundary == pytest.approx(0.5 * 2.0)
    off = compute_loss(fp, DataflowGraph(()), {0: 1.0}, PlacerConfig())
    assert off.loss_boundary == 0.0


def test_loss_variants_single_edge():
    fp = Floorplan(
        (40.0, 40.0),
        {0: MacroPlacement(0, 0, 2, 2, "N", ((1.0, 1.0),))},
        {5: (4.0, 4.0), 6: (7.0, 5.0)},
    )
    graph = DataflowGraph((DataflowEdge(MCC, 0, 6, 9.0, 3, via=5, first_hop=4.0),))
    eq5 = compute_loss(fp, graph, {0: 2.0}, PlacerConfig(loss_variant="eq5"))
    eq6 = compute_loss(fp, graph, {0: 2.0}, PlacerConfig(loss_variant="eq6"))
    eq8 = compute_loss(fp, graph, {0: 2.0}, PlacerConfig(loss_variant="eq8"))
    assert eq5.loss_mcc == pytest.approx(9.0 * 10.0)
    assert eq6.loss_mcc == pytest.approx(36.0 * 10.0)
    assert eq8.loss_mcc == pytest.approx(3.0 * 10.0)


def random_loss_scene(seed):
    """Macros (every third one pinless), cell clusters and IO anchors joined by
    edges of every kind between random endpoints, in an outline that is
    sometimes too small for the packing.  Returns the loss inputs (the
    floorplan holds no macros yet) and the scene's generator."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    shapes = {}
    for cid in range(n):
        w, h = (float(v) for v in rng.uniform(1, 8, 2))
        k = 0 if cid % 3 == 0 else int(rng.integers(1, 4))
        pins = tuple((float(rng.uniform(0, w)), float(rng.uniform(0, h))) for _ in range(k))
        shapes[cid] = MacroShape(w, h, pins)
    side = math.sqrt(sum(s.width * s.height for s in shapes.values())) * rng.choice([0.8, 1.5, 3.0])
    outline = (float(side), float(side * rng.uniform(0.7, 1.3)))
    cells = {n + k: tuple(float(v) for v in rng.uniform(0, side, 2)) for k in range(4)}
    ios = {n + 4: (0.0, outline[1] / 2.0), n + 5: (outline[0], outline[1] / 2.0)}
    fp = Floorplan(outline, {}, cells, ios)
    ids = list(shapes) + list(cells) + list(ios)
    edges = []
    for _ in range(30):
        src, dst = (int(v) for v in rng.choice(ids, 2, replace=False))
        kind = str(rng.choice([MM_DIRECT, MM_INDIRECT, MC, MCC, CC]))
        weight = float(rng.uniform(0.5, 4))
        first_hop = float(rng.uniform(0.5, 4)) if kind == MCC else None
        edges.append(DataflowEdge(kind, src, dst, weight, 1, first_hop=first_hop))
    config = PlacerConfig(
        loss_variant=str(rng.choice(["eq5", "eq6", "eq8"])),
        mc_scale=float(rng.uniform(0, 2)),
        mm_indirect_scale=float(rng.choice([0.0, 1.0, 2.5])),
        push_boundary_weight=float(rng.choice([0.0, 0.5])),
    )
    area_scale = dict(zip(shapes, normalize_macro_area([s.width * s.height for s in shapes.values()])))
    return DataflowGraph(tuple(edges)), shapes, fp, area_scale, config, rng


def with_macros(fp, shapes, mx, my, orientations=None):
    """``fp`` with each macro of ``shapes`` (in id order) at corner (mx, my)."""
    ids = sorted(shapes)
    orientations = orientations or ["N"] * len(ids)
    placements = {
        cid: MacroPlacement(x, y, shapes[cid].width, shapes[cid].height, o, shapes[cid].pins)
        for cid, x, y, o in zip(ids, mx, my, orientations)
    }
    return Floorplan(fp.outline, placements, fp.cluster_positions, fp.io_anchors)


def test_loss_evaluator_total_matches_breakdown():
    seen = {"fits": 0, "overhangs": 0, "boundary": 0}
    for seed in range(40):
        graph, shapes, fp, area_scale, config, rng = random_loss_scene(seed)
        ev = _LossEvaluator(graph, shapes, fp, area_scale, config)
        n = len(ev.ids)
        W, H = ev.outline
        seen["boundary"] += config.push_boundary_weight > 0

        def reference(mx, my):
            return loss_reference(with_macros(fp, shapes, mx, my), graph, area_scale, config)

        for _ in range(10):
            # arbitrary corners, some outside the outline: full geometry pass
            mx = rng.uniform(-0.2 * W, W, n).tolist()
            my = rng.uniform(-0.2 * H, H, n).tolist()
            assert ev.total(mx, my) == pytest.approx(reference(mx, my)["total"], rel=1e-12)
            # a centered packing, as run_sa evaluates it
            pos, neg = rng.permutation(n).tolist(), rng.permutation(n).tolist()
            xs, ys, bw, bh = _decode_sp(pos, neg, ev.widths, ev.heights)
            mx = [x + (W - bw) / 2.0 for x in xs]
            my = [y + (H - bh) / 2.0 for y in ys]
            fits = bw <= W and bh <= H
            seen["fits" if fits else "overhangs"] += 1
            ref = reference(mx, my)
            if fits:
                assert ref["loss_outline"] == 0.0
            assert ev.total(mx, my, fits) == pytest.approx(ref["total"], rel=1e-12)
            assert ev.total(mx, my) == pytest.approx(ref["total"], rel=1e-12)
    assert min(seen.values()) > 0, seen


def test_compute_loss_equals_reference_exactly():
    seen = {"flipped": 0, "overhangs": 0, "boundary": 0}
    for seed in range(40):
        graph, shapes, fp, area_scale, config, rng = random_loss_scene(seed)
        n = len(shapes)
        W, H = fp.outline
        seen["boundary"] += config.push_boundary_weight > 0
        for _ in range(10):
            mx = rng.uniform(-0.2 * W, W, n).tolist()
            my = rng.uniform(-0.2 * H, H, n).tolist()
            orientations = [str(o) for o in rng.choice(list(ORIENT_FLAGS), n)]
            placed = with_macros(fp, shapes, mx, my, orientations)
            got = compute_loss(placed, graph, area_scale, config)
            assert dataclasses.asdict(got) == loss_reference(placed, graph, area_scale, config)
            seen["flipped"] += any(o != "N" for o in orientations)
            seen["overhangs"] += got.loss_outline > 0
    assert min(seen.values()) > 0, seen


def scaled_graph(graph, c):
    return DataflowGraph(tuple(
        DataflowEdge(e.kind, e.src, e.dst, e.weight * c, e.bit_width, e.via,
                     None if e.first_hop is None else e.first_hop * c)
        for e in graph.edges
    ))


@pytest.mark.parametrize("variant", ["eq5", "eq8"])
def test_weight_scaling_scales_dataflow_loss(variant):
    nl, cn, graph = prepared(seed=2)
    pos = global_place_clusters(graph, cn, nl.outline, iterations=5, seed=1)
    shapes = macro_shapes(cn)
    ids = sorted(shapes)
    sp = SequencePair(tuple(range(len(ids))), tuple(range(len(ids))))
    cfg = PlacerConfig(loss_variant=variant, outline_weight=0.0)
    _, fp, _ = run_sa(sp, graph, cn, nl.outline, SaSchedule(moves_per_temp=0),
                      seed=0, cluster_positions=pos, config=cfg)
    ap = macro_area_scales(cn)
    base = compute_loss(fp, graph, ap, cfg)
    scaled = compute_loss(fp, scaled_graph(graph, 3.0), ap, cfg)
    dataflow_base = base.loss_mm + base.loss_mc + base.loss_mcc
    dataflow_scaled = scaled.loss_mm + scaled.loss_mc + scaled.loss_mcc
    assert dataflow_scaled == pytest.approx(3.0 * dataflow_base, rel=1e-12)


# ---------------------------------------------------------------------------
# global placement
# ---------------------------------------------------------------------------

def single_cluster_cn():
    import json
    from dfplace.netlist import parse_netlist
    doc = {
        "outline": {"width": 30, "height": 20},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
            {"name": "PAD", "width": 0, "height": 0, "kind": "io_pad",
             "pin_offsets": [["p", 0.0, 0.0]]},
        ],
        "instances": [
            {"name": "c0", "master": "INV", "hierarchy_path": ["top", "a"]},
            {"name": "pw", "master": "PAD", "hierarchy_path": ["top"]},
            {"name": "pe", "master": "PAD", "hierarchy_path": ["top"]},
        ],
        "nets": [],
        "io_side": {"pw": "W", "pe": "E"},
    }
    nl = parse_netlist(json.dumps(doc))
    return nl, compute_cluster_edges(nl, build_clusters(nl, 1, 10))


def test_gp_lone_cluster_at_center():
    nl, cn = single_cluster_cn()
    pos = global_place_clusters(DataflowGraph(()), cn, nl.outline, 5, seed=0)
    cid = cn.cell_cluster_ids()[0]
    assert pos[cid] == (15.0, 10.0)


def test_gp_symmetric_anchors_converge_to_middle():
    nl, cn = single_cluster_cn()
    cid = cn.cell_cluster_ids()[0]
    west = next(c.id for c in cn.clusters if c.is_io and c.hierarchy_root[1] == "W")
    east = next(c.id for c in cn.clusters if c.is_io and c.hierarchy_root[1] == "E")
    graph = DataflowGraph((
        DataflowEdge(MC, west, cid, 4.0, 4),
        DataflowEdge(MC, east, cid, 4.0, 4),
    ))
    pos = global_place_clusters(graph, cn, nl.outline, 10, seed=0)
    assert pos[cid][0] == pytest.approx(15.0)
    assert pos[cid][1] == pytest.approx(10.0)


def test_gp_deterministic():
    nl, cn, graph = prepared(seed=4)
    a = global_place_clusters(graph, cn, nl.outline, 12, seed=9)
    b = global_place_clusters(graph, cn, nl.outline, 12, seed=9)
    assert a == b


def test_gp_positions_inside_outline():
    nl, cn, graph = prepared(seed=5, n_modules=5, cells_per_module=30)
    pos = global_place_clusters(graph, cn, nl.outline, 15, seed=2)
    for x, y in pos.values():
        assert 0.0 <= x <= nl.outline[0]
        assert 0.0 <= y <= nl.outline[1]


def test_gp_empty_graph_error():
    from dfplace.clustering import ClusteredNetlist
    empty = ClusteredNetlist(None, (), (), ())
    with pytest.raises(EmptyGraph):
        global_place_clusters(DataflowGraph(()), empty, (10.0, 10.0), 3, 0)


def gp_scene(seed):
    """A random design whose dataflow graph is edited so every GP path runs.

    The first cell cluster has only zero-weight MC and CC edges, so nothing
    pulls it.  Groups of ``cap + 2`` cells are tied to one IO anchor each,
    so several bins overflow in the first iteration, and one group to a
    macro whose ``macro_refs`` point lies below and left of the outline,
    so its cells fall into the corner bin (without the refs nothing pulls
    them).
    """
    nl = bundle_buses(random_netlist(seed, n_cells=90 + 30 * (seed % 7), n_macros=5,
                                     n_nets=120, n_pads=8))
    cn = compute_cluster_edges(nl, build_clusters(nl, 1, 2 + seed % 3))
    graph = extract_dataflow(cn, nl)
    cells = sorted(cn.cell_cluster_ids())
    ios = [c.id for c in cn.clusters if c.is_io]
    macros = [c.id for c in cn.clusters if c.kind == "macro_cluster" and not c.is_io]
    cap = math.ceil(len(cells) / 64)
    anchors = ios + macros[:1]
    groups = [cells[3 + k * (cap + 2):3 + (k + 1) * (cap + 2)] for k in range(len(anchors))]
    assert len(ios) >= 2 and all(len(g) == cap + 2 for g in groups)
    tied = {c: a for a, g in zip(anchors, groups) for c in g}
    edges = [e for e in graph.edges if not {e.src, e.dst} & (set(tied) | {cells[0]})]
    edges += [DataflowEdge(MC, tied[c], c, 50.0, 50) for c in tied]
    edges += [DataflowEdge(CC, cells[0], cells[1], 0.0, 0),
              DataflowEdge(MC, macros[-1], cells[0], 0.0, 0),
              DataflowEdge(CC, cells[1], cells[2], 0.0, 0)]
    W, H = nl.outline
    rng = np.random.default_rng(seed)
    refs = {m: (float(rng.uniform(0, W)), float(rng.uniform(0, H))) for m in macros}
    refs[macros[0]] = (-0.6 * W, -0.3 * H)
    return nl, cn, DataflowGraph(tuple(edges)), refs


@pytest.mark.parametrize("seed", range(20))
def test_gp_equals_reference_bit_for_bit(seed):
    nl, cn, graph, refs = gp_scene(seed)
    for iterations in (0, 1, 8):
        for macro_refs in (None, refs):
            got = global_place_clusters(graph, cn, nl.outline, iterations, seed, macro_refs)
            want = global_place_reference(graph, cn, nl.outline, iterations, seed, macro_refs)
            assert list(got) == list(want)
            assert got == want
            if iterations:
                cap = max(1, math.ceil(len(got) / 64))
                assert max(bin_counts(got, nl.outline).values()) <= cap


def bin_counts(pos, outline, grid=8):
    counts = {}
    for x, y in pos.values():
        b = (min(grid - 1, int(x / outline[0] * grid)), min(grid - 1, int(y / outline[1] * grid)))
        counts[b] = counts.get(b, 0) + 1
    return counts


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("iterations", [1, 2, 20])
def test_gp_bins_hold_at_most_cap(seed, iterations):
    nl = bundle_buses(generate_design(n_modules=6, cells_per_module=60, seed=seed))
    cn = compute_cluster_edges(nl, build_clusters(nl, 2, 4))
    graph = extract_dataflow(cn, nl)
    pos = global_place_clusters(graph, cn, nl.outline, iterations, seed)
    cap = math.ceil(len(pos) / 64)
    assert len(pos) > 64 and max(bin_counts(pos, nl.outline).values()) <= cap


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------

def test_sa_zero_moves_returns_initial():
    nl, cn, graph = prepared(seed=1)
    pos = global_place_clusters(graph, cn, nl.outline, 5, seed=1)
    ids = sorted(macro_shapes(cn))
    sp = SequencePair(tuple(range(len(ids))), tuple(reversed(range(len(ids)))))
    out_sp, fp, loss = run_sa(sp, graph, cn, nl.outline,
                              SaSchedule(moves_per_temp=0), 3, pos)
    assert out_sp == sp
    assert len(fp.macro_placements) == len(ids)


@pytest.mark.parametrize("seed", range(3))
def test_sa_never_worse_than_initial(seed):
    nl, cn, graph = prepared(seed=seed)
    pos = global_place_clusters(graph, cn, nl.outline, 5, seed=seed)
    ids = sorted(macro_shapes(cn))
    sp = SequencePair(tuple(range(len(ids))), tuple(range(len(ids))))
    _, _, loss0 = run_sa(sp, graph, cn, nl.outline, SaSchedule(moves_per_temp=0),
                         seed, pos)
    _, _, loss1 = run_sa(sp, graph, cn, nl.outline,
                         SaSchedule(cooling=0.9, moves_per_temp=30), seed, pos)
    assert loss1.total <= loss0.total + 1e-9


def test_sa_deterministic():
    nl, cn, graph = prepared(seed=6)
    pos = global_place_clusters(graph, cn, nl.outline, 5, seed=6)
    ids = sorted(macro_shapes(cn))
    sp = SequencePair(tuple(range(len(ids))), tuple(range(len(ids))))
    sched = SaSchedule(cooling=0.9, moves_per_temp=25)
    a = run_sa(sp, graph, cn, nl.outline, sched, 11, pos)
    b = run_sa(sp, graph, cn, nl.outline, sched, 11, pos)
    assert a[0] == b[0]
    assert a[2].total == b[2].total
    assert {k: (v.x, v.y) for k, v in a[1].macro_placements.items()} == \
           {k: (v.x, v.y) for k, v in b[1].macro_placements.items()}


def exhaustive_best(graph, cn, outline, pos, cfg=PlacerConfig()):
    ids = sorted(macro_shapes(cn))
    n = len(ids)
    best = None
    for p in itertools.permutations(range(n)):
        for q in itertools.permutations(range(n)):
            sp = SequencePair(p, q)
            _, _, loss = run_sa(sp, graph, cn, outline,
                                SaSchedule(moves_per_temp=0), 0, pos, cfg)
            if best is None or loss.total < best[1]:
                best = (sp, loss.total)
    return best


@pytest.mark.parametrize("seed", range(3))
def test_sa_finds_three_macro_optimum(seed):
    nl, cn, graph = prepared(seed=seed, n_modules=3, cells_per_module=10,
                             macro_bus_width=12, io_bus_width=10)
    pos = global_place_clusters(graph, cn, nl.outline, 8, seed=seed)
    assert len(macro_shapes(cn)) == 3
    _, best_loss = exhaustive_best(graph, cn, nl.outline, pos)
    sp0 = SequencePair((0, 1, 2), (0, 1, 2))
    _, _, loss = run_sa(sp0, graph, cn, nl.outline, SaSchedule(), seed, pos)
    assert loss.total == pytest.approx(best_loss, rel=1e-9)


def test_scaling_preserves_exhaustive_argmin():
    nl, cn, graph = prepared(seed=7, n_modules=3, cells_per_module=10)
    pos = global_place_clusters(graph, cn, nl.outline, 8, seed=7)
    cfg = PlacerConfig(outline_weight=0.0)
    sp_a, _ = exhaustive_best(graph, cn, nl.outline, pos, cfg)
    sp_b, _ = exhaustive_best(scaled_graph(graph, 5.0), cn, nl.outline, pos, cfg)
    assert sp_a == sp_b
