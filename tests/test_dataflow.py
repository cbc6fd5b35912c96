import fnmatch
import json

import numpy as np
import pytest

from dfplace import (
    build_clusters,
    bundle_buses,
    classify_direct_edges,
    compute_cluster_edges,
    cell_hop_weight,
    extract_dataflow,
    extract_indirect_mm,
    extract_two_hop,
)
from dfplace.clustering import Cluster
from dfplace.dataflow import (
    CC,
    MC,
    MCC,
    MM_DIRECT,
    MM_INDIRECT,
    DataflowEdge,
    compile_name_filters,
    export_graph,
)
from dfplace.errors import DegenerateCluster
from dfplace.netlist import parse_netlist
from dfplace.synth import random_netlist
from oracles import indirect_pairs_brute, two_hop_triples_brute


def star_design(n_macros, bus_width=2):
    """n macro clusters all driving one shared cell cluster."""
    masters = [
        {"name": "INV", "width": 1, "height": 1, "kind": "cell",
         "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
        {"name": "MAC", "width": 4, "height": 4, "kind": "macro",
         "pin_offsets": [["d", 0.0, 2.0], ["q", 4.0, 2.0]]},
    ]
    instances = [{"name": "hub", "master": "INV", "hierarchy_path": ["top", "hub"]}]
    nets = []
    for m in range(n_macros):
        instances.append({"name": f"mac{m}", "master": "MAC",
                          "hierarchy_path": ["top", f"m{m}"]})
        nets.append({"base_name": f"s{m}", "driver": [f"mac{m}", "q"],
                     "sinks": [["hub", "a"]], "bit_width": bus_width})
    doc = {"outline": {"width": 50, "height": 50}, "masters": masters,
           "instances": instances, "nets": nets, "io_side": {}}
    nl = parse_netlist(json.dumps(doc))
    return nl, compute_cluster_edges(nl, build_clusters(nl, 1, 100, 1, 100))


def clustered(netlist, min_c=2, max_c=12):
    return compute_cluster_edges(netlist, build_clusters(netlist, min_c, max_c))


# ---------------------------------------------------------------------------
# direct classification
# ---------------------------------------------------------------------------

def test_classify_merges_mm_orientations():
    doc = {
        "outline": {"width": 40, "height": 40},
        "masters": [
            {"name": "MAC", "width": 4, "height": 4, "kind": "macro",
             "pin_offsets": [["d", 0.0, 2.0], ["q", 4.0, 2.0]]},
        ],
        "instances": [
            {"name": "mA", "master": "MAC", "hierarchy_path": ["top", "a"]},
            {"name": "mB", "master": "MAC", "hierarchy_path": ["top", "b"]},
        ],
        "nets": [
            {"base_name": "f", "driver": ["mA", "q"], "sinks": [["mB", "d"]],
             "bit_width": 8},
            {"base_name": "r", "driver": ["mB", "q"], "sinks": [["mA", "d"]],
             "bit_width": 4},
        ],
        "io_side": {},
    }
    nl = parse_netlist(json.dumps(doc))
    cn = compute_cluster_edges(nl, build_clusters(nl, 1, 10))
    g = classify_direct_edges(cn)
    mm = g.by_kind(MM_DIRECT)
    assert len(mm) == 1
    assert mm[0].weight == 12
    assert mm[0].src < mm[0].dst


def test_classify_keeps_mc_and_cc_direction():
    nl, cn = star_design(1, bus_width=8)
    g = classify_direct_edges(cn)
    mc = g.by_kind(MC)
    assert len(mc) == 1
    assert cn.clusters[mc[0].src].kind == "macro_cluster"
    assert mc[0].weight == 8


def test_classify_cc_direction():
    doc = {
        "outline": {"width": 40, "height": 40},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
        ],
        "instances": [
            {"name": "c1", "master": "INV", "hierarchy_path": ["top", "a"]},
            {"name": "c2", "master": "INV", "hierarchy_path": ["top", "b"]},
        ],
        "nets": [
            {"base_name": "w", "driver": ["c1", "y"], "sinks": [["c2", "a"]],
             "bit_width": 4},
        ],
        "io_side": {},
    }
    nl = parse_netlist(json.dumps(doc))
    cn = compute_cluster_edges(nl, build_clusters(nl, 1, 10))
    cc = classify_direct_edges(cn).by_kind(CC)
    assert len(cc) == 1
    assert cc[0].src == cn.cluster_of(0)  # direction kept: driver side first
    assert cc[0].dst == cn.cluster_of(1)
    assert cc[0].directed


# ---------------------------------------------------------------------------
# indirect macro-macro
# ---------------------------------------------------------------------------

def test_indirect_weight_is_sum_of_hops():
    doc = {
        "outline": {"width": 40, "height": 40},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
            {"name": "MAC", "width": 4, "height": 4, "kind": "macro",
             "pin_offsets": [["d", 0.0, 2.0], ["q", 4.0, 2.0]]},
        ],
        "instances": [
            {"name": "m1", "master": "MAC", "hierarchy_path": ["top", "a"]},
            {"name": "m2", "master": "MAC", "hierarchy_path": ["top", "b"]},
            {"name": "c", "master": "INV", "hierarchy_path": ["top", "c"]},
        ],
        "nets": [
            {"base_name": "x", "driver": ["m1", "q"], "sinks": [["c", "a"]],
             "bit_width": 8},
            {"base_name": "y", "driver": ["m2", "q"], "sinks": [["c", "a"]],
             "bit_width": 4},
        ],
        "io_side": {},
    }
    nl = parse_netlist(json.dumps(doc))
    cn = compute_cluster_edges(nl, build_clusters(nl, 1, 10))
    g = extract_indirect_mm(classify_direct_edges(cn), cn, nl)
    ind = g.by_kind(MM_INDIRECT)
    assert len(ind) == 1
    assert ind[0].weight == 12.0


@pytest.mark.parametrize("n", range(2, 9))
def test_star_pair_count(n):
    nl, cn = star_design(n)
    g = extract_indirect_mm(classify_direct_edges(cn), cn, nl)
    assert len(g.by_kind(MM_INDIRECT)) == n * (n - 1) // 2


def test_name_filter_blocks_instance_level():
    doc = {
        "outline": {"width": 40, "height": 40},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
            {"name": "MAC", "width": 4, "height": 4, "kind": "macro",
             "pin_offsets": [["d", 0.0, 2.0], ["q", 4.0, 2.0]]},
        ],
        "instances": [
            {"name": "drv", "master": "INV", "hierarchy_path": ["top", "c"]},
            {"name": "m1", "master": "MAC", "hierarchy_path": ["top", "a"]},
            {"name": "m2", "master": "MAC", "hierarchy_path": ["top", "b"]},
        ],
        "nets": [
            {"base_name": "clk", "driver": ["drv", "y"],
             "sinks": [["m1", "d"], ["m2", "d"]], "bit_width": 1},
        ],
        "io_side": {},
    }
    nl = parse_netlist(json.dumps(doc))
    cn = compute_cluster_edges(nl, build_clusters(nl, 1, 10))
    base = classify_direct_edges(cn)
    filtered = extract_indirect_mm(base, cn, nl, name_filters=("clk*",))

    # the cell cluster still *links* the macros at cluster level (it has MC
    # edges to both), so compare against the unfiltered instance-level result
    unfiltered = extract_indirect_mm(base, cn, nl, name_filters=())
    w_f = sum(e.weight for e in filtered.by_kind(MM_INDIRECT))
    w_u = sum(e.weight for e in unfiltered.by_kind(MM_INDIRECT))
    assert w_u == w_f + 1  # instance-level contribution gone


FILTER_NAMES = ("", "clk", "clk_a", "CLK", "rst", "reset_n", "a", "b", "c",
                "ab", "a.b", "axb", "a+b", "aab", "(x)", "x", "data[3]", "d3",
                "!", "clk\nx", "ba", "zclk")
FILTER_PATTERNS = ((), ("*",), ("?",), ("[ab]",), ("[!a]",), ("a.b",),
                   ("a+b",), ("(x)",), ("clk*", "rst*", "reset*"), ("*clk",),
                   ("a?b", "[ab]*"), ("data[[]3]",), ("",), ("[!ab]*", "x"))


@pytest.mark.parametrize("patterns", FILTER_PATTERNS)
def test_compiled_name_filter_matches_fnmatch(patterns):
    match = compile_name_filters(patterns).match
    for name in FILTER_NAMES:
        expected = any(fnmatch.fnmatchcase(name, p) for p in patterns)
        assert bool(match(name)) == expected, (name, patterns)


def test_fanout_limit_blocks_instance_level():
    nl, cn = star_design(3)
    g_lo = extract_indirect_mm(classify_direct_edges(cn), cn, nl, fanout_limit=0)
    g_hi = extract_indirect_mm(classify_direct_edges(cn), cn, nl, fanout_limit=32)
    # star nets have fanout 1 and are macro-driven anyway; totals match
    assert sorted(e.weight for e in g_lo.by_kind(MM_INDIRECT)) == \
           sorted(e.weight for e in g_hi.by_kind(MM_INDIRECT))


def cell_drives_two_macros():
    doc = {
        "outline": {"width": 40, "height": 40},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
            {"name": "MAC", "width": 4, "height": 4, "kind": "macro",
             "pin_offsets": [["d", 0.0, 2.0]]},
        ],
        "instances": [
            {"name": "drv", "master": "INV", "hierarchy_path": ["top", "c"]},
            {"name": "m1", "master": "MAC", "hierarchy_path": ["top", "a"]},
            {"name": "m2", "master": "MAC", "hierarchy_path": ["top", "b"]},
        ],
        "nets": [
            {"base_name": "s", "driver": ["drv", "y"],
             "sinks": [["m1", "d"], ["m2", "d"]], "bit_width": 1},
        ],
        "io_side": {},
    }
    nl = parse_netlist(json.dumps(doc))
    return nl, compute_cluster_edges(nl, build_clusters(nl, 1, 10))


def test_fanout_limit_boundary():
    nl, cn = cell_drives_two_macros()
    base = classify_direct_edges(cn)

    def instance_weight(fanout_limit):
        full = extract_indirect_mm(base, cn, nl, fanout_limit=fanout_limit)
        none = extract_indirect_mm(base, cn, nl, fanout_limit=0)
        return (sum(e.weight for e in full.by_kind(MM_INDIRECT))
                - sum(e.weight for e in none.by_kind(MM_INDIRECT)))

    assert instance_weight(2) == 1.0   # fanout 2 allowed at limit 2
    assert instance_weight(1) == 0.0   # excluded when it exceeds the limit


# ---------------------------------------------------------------------------
# two-hop extraction and the cell-cell weight
# ---------------------------------------------------------------------------

def two_hop_design():
    doc = {
        "outline": {"width": 40, "height": 40},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
            {"name": "MAC", "width": 4, "height": 4, "kind": "macro",
             "pin_offsets": [["d", 0.0, 2.0], ["q", 4.0, 2.0]]},
        ],
        "instances": [
            {"name": "mac", "master": "MAC", "hierarchy_path": ["top", "m"]},
            {"name": "c1a", "master": "INV", "hierarchy_path": ["top", "c1"]},
            {"name": "c2a", "master": "INV", "hierarchy_path": ["top", "c2"]},
            {"name": "c2b", "master": "INV", "hierarchy_path": ["top", "c2"]},
        ],
        "nets": [
            {"base_name": "h1", "driver": ["mac", "q"], "sinks": [["c1a", "a"]],
             "bit_width": 8},
            {"base_name": "h2", "driver": ["c1a", "y"], "sinks": [["c2a", "a"]],
             "bit_width": 4},
        ],
        "io_side": {},
    }
    nl = parse_netlist(json.dumps(doc))
    return nl, compute_cluster_edges(nl, build_clusters(nl, 1, 10))


def test_two_hop_edge_created():
    nl, cn = two_hop_design()
    g = extract_two_hop(classify_direct_edges(cn), cn, k=1.0)
    mcc = g.by_kind(MCC)
    assert len(mcc) == 1
    e = mcc[0]
    assert cn.clusters[e.src].kind == "macro_cluster"
    assert cn.clusters[e.via].kind == "cell_cluster"
    assert cn.clusters[e.dst].kind == "cell_cluster"
    assert e.first_hop == 8.0
    # destination cluster: 2 cells of area 1, mean cell-cluster area 1.5
    assert e.weight == pytest.approx(1.0 * 4 * (2.0 / 1.5) * 2)


def test_no_two_hop_without_macro_precursor():
    nl, cn = two_hop_design()
    # drop the macro-cell net: only the cell-cell hop remains
    nets = tuple(n for n in nl.nets if n.base_name != "h1")
    nl2 = type(nl)(nl.masters, nl.instances, nets, nl.outline, nl.io_side)
    cn2 = compute_cluster_edges(nl2, build_clusters(nl2, 1, 10))
    g = extract_two_hop(classify_direct_edges(cn2), cn2, k=1.0)
    assert g.by_kind(MCC) == []


def test_cell_hop_weight_arithmetic():
    edge = DataflowEdge(CC, 0, 1, 4.0, 4)
    dst = Cluster(1, "cell_cluster", (0,) * 10, ("top",), 2.0, 10)
    # normalized area 2.0 when the mean cell-cluster area is 1.0
    assert cell_hop_weight(edge, dst, k=1.0, mean_cell_area=1.0) == pytest.approx(80.0)
    assert cell_hop_weight(edge, dst, k=0.0, mean_cell_area=1.0) == 0.0
    with pytest.raises(DegenerateCluster):
        cell_hop_weight(edge, Cluster(1, "cell_cluster", (0,), ("top",), 0.0, 1), 1.0, 1.0)


# ---------------------------------------------------------------------------
# oracle equivalence and properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_indirect_matches_brute_force(seed):
    nl = bundle_buses(random_netlist(seed, n_cells=24, n_macros=4, n_nets=45))
    cn = clustered(nl)
    g = extract_indirect_mm(classify_direct_edges(cn), cn, nl)
    got = {(e.src, e.dst): e.weight for e in g.by_kind(MM_INDIRECT)}
    want = indirect_pairs_brute(cn, nl, 32, ("clk*", "rst*", "reset*"))
    assert got == pytest.approx(want)


@pytest.mark.parametrize("seed", range(12))
def test_two_hop_matches_brute_force(seed):
    nl = bundle_buses(random_netlist(seed, n_cells=24, n_macros=4, n_nets=45))
    cn = clustered(nl)
    g = extract_two_hop(classify_direct_edges(cn), cn, k=1.0)
    got = {(e.src, e.via, e.dst): (e.first_hop, e.weight) for e in g.by_kind(MCC)}
    want = two_hop_triples_brute(cn, k=1.0)
    assert set(got) == set(want)
    for key in want:
        assert got[key][0] == pytest.approx(want[key][0])
        assert got[key][1] == pytest.approx(want[key][1])


@pytest.mark.parametrize("seed", range(4))
def test_order_independence(seed):
    nl = bundle_buses(random_netlist(seed, n_cells=20, n_macros=4, n_nets=40))
    rng = np.random.default_rng(seed + 1000)
    perm = rng.permutation(len(nl.nets))
    shuffled_nets = tuple(
        type(nl.nets[0])(i, nl.nets[p].base_name, nl.nets[p].driver,
                         nl.nets[p].sinks, nl.nets[p].bit_width)
        for i, p in enumerate(perm)
    )
    nl2 = type(nl)(nl.masters, nl.instances, shuffled_nets, nl.outline, nl.io_side)
    g1 = extract_dataflow(clustered(nl), nl)
    g2 = extract_dataflow(clustered(nl2), nl2)
    assert g1.edges == g2.edges


@pytest.mark.parametrize("seed", range(4))
def test_monotonicity_adding_a_net(seed):
    nl = bundle_buses(random_netlist(seed, n_cells=20, n_macros=4, n_nets=30))
    g1 = extract_dataflow(clustered(nl), nl)

    cells = [i.id for i in nl.instances if i.is_cell]
    macros = [i.id for i in nl.instances if i.is_macro]
    extra = type(nl.nets[0])(len(nl.nets), "extra", (cells[0], "y"),
                             ((macros[0], "din"), (macros[-1], "din")), 1)
    nl2 = type(nl)(nl.masters, nl.instances, nl.nets + (extra,), nl.outline, nl.io_side)
    g2 = extract_dataflow(clustered(nl2), nl2)

    def keyed(g):
        return {(e.kind, e.src, e.via, e.dst): e.weight for e in g.edges}

    k1, k2 = keyed(g1), keyed(g2)
    assert set(k1) <= set(k2)
    for key in k1:
        assert k2[key] >= k1[key] - 1e-12


def test_export_format():
    nl, cn = two_hop_design()
    g = extract_dataflow(cn, nl)
    text = export_graph(g)
    lines = text.strip().split("\n")
    assert len(lines) == len(g.edges)
    mcc_lines = [l for l in lines if l.startswith("MCC")]
    assert len(mcc_lines) == 1
    parts = mcc_lines[0].split()
    assert len(parts) == 6  # kind src via dst bitWidth weight
