import json

import pytest

from dfplace import build_clusters, bundle_buses, compute_cluster_edges, generate_design
from dfplace.clustering import CELL_CLUSTER, MACRO_CLUSTER, dump_clusters
from dfplace.errors import ThresholdConflict
from dfplace.netlist import parse_netlist
from dfplace.synth import random_netlist
from oracles import cluster_edges_reference
from scenes import oracle_scenes


def flat_design(cells_per_leaf, leaves, macros_per_leaf=0, pads=None):
    """Hand-built JSON design: `leaves` sibling modules under top."""
    masters = [
        {"name": "INV", "width": 1, "height": 1, "kind": "cell",
         "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
        {"name": "MAC", "width": 4, "height": 4, "kind": "macro",
         "pin_offsets": [["d", 0.0, 2.0]]},
        {"name": "PAD", "width": 0, "height": 0, "kind": "io_pad",
         "pin_offsets": [["p", 0.0, 0.0]]},
    ]
    instances = []
    for leaf in range(leaves):
        for i in range(cells_per_leaf):
            instances.append({"name": f"l{leaf}_c{i}", "master": "INV",
                              "hierarchy_path": ["top", f"leaf{leaf}"]})
        for j in range(macros_per_leaf):
            instances.append({"name": f"l{leaf}_m{j}", "master": "MAC",
                              "hierarchy_path": ["top", f"leaf{leaf}"]})
    io_side = {}
    for idx, side in enumerate(pads or []):
        instances.append({"name": f"pad{idx}", "master": "PAD",
                          "hierarchy_path": ["top"]})
        io_side[f"pad{idx}"] = side
    doc = {"outline": {"width": 60, "height": 60}, "masters": masters,
           "instances": instances, "nets": [], "io_side": io_side}
    return parse_netlist(json.dumps(doc))


def test_threshold_conflict():
    nl = flat_design(4, 1)
    with pytest.raises(ThresholdConflict):
        build_clusters(nl, min_cells=10, max_cells=10)


def test_small_siblings_merge():
    nl = flat_design(10, 2)
    cn = build_clusters(nl, min_cells=15, max_cells=100)
    cell_clusters = [c for c in cn.clusters if c.kind == CELL_CLUSTER]
    assert len(cell_clusters) == 1
    assert cell_clusters[0].instance_count == 20
    assert cell_clusters[0].hierarchy_root == ("top",)


def test_merge_is_greedy_largest_first_within_max():
    # four sibling leaves: 40 is healthy, 8/7/3 are below min and merge
    import json
    from dfplace.netlist import parse_netlist
    masters = [{"name": "INV", "width": 1, "height": 1, "kind": "cell",
                "pin_offsets": [["a", 0.0, 0.5]]}]
    instances = []
    for leaf, count in enumerate((40, 8, 7, 3)):
        for i in range(count):
            instances.append({"name": f"l{leaf}_c{i}", "master": "INV",
                              "hierarchy_path": ["top", f"leaf{leaf}"]})
    doc = {"outline": {"width": 50, "height": 50}, "masters": masters,
           "instances": instances, "nets": [], "io_side": {}}
    nl = parse_netlist(json.dumps(doc))
    cn = build_clusters(nl, min_cells=10, max_cells=50)
    sizes = sorted(c.instance_count for c in cn.clusters)
    assert sizes == [18, 40]


def test_lone_small_cluster_stays_put():
    nl = flat_design(8, 1)
    cn = build_clusters(nl, min_cells=10, max_cells=50)
    only = [c for c in cn.clusters if c.kind == CELL_CLUSTER]
    assert len(only) == 1
    assert only[0].instance_count == 8
    assert only[0].hierarchy_root == ("top", "leaf0")


def test_merge_respects_max():
    # two below-min siblings whose union would exceed max stay separate
    import json
    from dfplace.netlist import parse_netlist
    masters = [{"name": "INV", "width": 1, "height": 1, "kind": "cell",
                "pin_offsets": [["a", 0.0, 0.5]]}]
    instances = []
    for leaf, count in enumerate((30, 28)):
        for i in range(count):
            instances.append({"name": f"l{leaf}_c{i}", "master": "INV",
                              "hierarchy_path": ["top", f"leaf{leaf}"]})
    doc = {"outline": {"width": 50, "height": 50}, "masters": masters,
           "instances": instances, "nets": [], "io_side": {}}
    nl = parse_netlist(json.dumps(doc))
    cn = build_clusters(nl, min_cells=40, max_cells=50)
    sizes = sorted(c.instance_count for c in cn.clusters)
    assert sizes == [28, 30]


def test_oversized_leaf_splits_into_three():
    nl = flat_design(250, 1)
    cn = build_clusters(nl, min_cells=50, max_cells=100)
    cell_clusters = [c for c in cn.clusters if c.kind == CELL_CLUSTER]
    assert len(cell_clusters) == 3
    assert all(c.instance_count <= 100 for c in cell_clusters)
    assert sum(c.instance_count for c in cell_clusters) == 250


def test_io_pads_bundle_per_side():
    nl = flat_design(5, 1, pads=["N", "S", "E", "W", "N"])
    cn = build_clusters(nl, min_cells=1, max_cells=100)
    io = [c for c in cn.clusters if c.is_io]
    assert len(io) == 4
    assert all(c.kind == MACRO_CLUSTER for c in io)
    north = [c for c in io if c.hierarchy_root[1] == "N"]
    assert north[0].instance_count == 2


def test_homogeneity_and_partition():
    nl = generate_design(n_modules=4, cells_per_module=30, macros_per_module=2,
                         mm_bus_width=2, seed=3)
    cn = build_clusters(nl, min_cells=10, max_cells=25, min_macros=1, max_macros=4)
    covered = sorted(i for c in cn.clusters for i in c.members)
    assert covered == list(range(len(nl.instances)))
    assert sum(c.instance_count for c in cn.clusters) == len(nl.instances)
    for c in cn.clusters:
        kinds = {nl.instances[i].master.kind for i in c.members}
        if c.kind == CELL_CLUSTER:
            assert kinds == {"cell"}
        else:
            assert kinds <= {"macro", "io_pad"}
    assert all(cn.instance_to_cluster[i] >= 0 for i in range(len(nl.instances)))
    assert all(c.instance_count == len(c.members) for c in cn.clusters)
    assert all(c.area >= 0 for c in cn.clusters)


@pytest.mark.parametrize("seed", range(4))
def test_deterministic_ids_and_edges(seed):
    nl = bundle_buses(generate_design(n_modules=3, cells_per_module=12, seed=seed))
    a = compute_cluster_edges(nl, build_clusters(nl, 5, 30))
    b = compute_cluster_edges(nl, build_clusters(nl, 5, 30))
    assert [(c.id, c.kind, c.members) for c in a.clusters] == \
           [(c.id, c.kind, c.members) for c in b.clusters]
    assert a.edges == b.edges


def test_edges_basic_rules():
    doc = {
        "outline": {"width": 40, "height": 40},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
            {"name": "MAC", "width": 4, "height": 4, "kind": "macro",
             "pin_offsets": [["d", 0.0, 2.0], ["q", 4.0, 2.0]]},
        ],
        "instances": [
            {"name": "mA", "master": "MAC", "hierarchy_path": ["top", "a"]},
            {"name": "c1", "master": "INV", "hierarchy_path": ["top", "c"]},
            {"name": "c2", "master": "INV", "hierarchy_path": ["top", "c"]},
        ],
        "nets": [
            # macro drives cell cluster with an 8-bit bus
            {"base_name": "d", "driver": ["mA", "q"], "sinks": [["c1", "a"]],
             "bit_width": 8},
            # two more bits on a second net: weights accumulate
            {"base_name": "e", "driver": ["mA", "q"], "sinks": [["c1", "a"]],
             "bit_width": 4},
            # intra-cluster net: no edge
            {"base_name": "w", "driver": ["c1", "y"], "sinks": [["c2", "a"]],
             "bit_width": 1},
        ],
        "io_side": {},
    }
    nl = parse_netlist(json.dumps(doc))
    cn = compute_cluster_edges(nl, build_clusters(nl, 1, 10))
    macro = next(c.id for c in cn.clusters if c.kind == MACRO_CLUSTER)
    cell = next(c.id for c in cn.clusters if c.kind == CELL_CLUSTER)
    assert cn.edges == ((macro, cell, 12),)


def test_multi_sink_cluster_counts_once_per_cluster():
    doc = {
        "outline": {"width": 40, "height": 40},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
        ],
        "instances": [
            {"name": "c0", "master": "INV", "hierarchy_path": ["top", "a"]},
            {"name": "c1", "master": "INV", "hierarchy_path": ["top", "b"]},
            {"name": "c2", "master": "INV", "hierarchy_path": ["top", "b"]},
        ],
        "nets": [
            {"base_name": "n", "driver": ["c0", "y"],
             "sinks": [["c1", "a"], ["c2", "a"]], "bit_width": 3},
        ],
        "io_side": {},
    }
    nl = parse_netlist(json.dumps(doc))
    cn = compute_cluster_edges(nl, build_clusters(nl, 1, 10))
    # two sinks in the same cluster: bit width deposited once
    assert len(cn.edges) == 1
    assert cn.edges[0][2] == 3


@pytest.mark.parametrize("seed", range(6))
def test_edge_weight_conservation(seed):
    nl = random_netlist(seed, n_cells=30, n_macros=5, n_nets=50)
    cn = compute_cluster_edges(nl, build_clusters(nl, 2, 12))
    expected = 0
    for net in nl.nets:
        src = cn.cluster_of(net.driver[0])
        externals = {cn.cluster_of(i) for i, _ in net.sinks} - {src}
        expected += net.bit_width * len(externals)
    assert sum(w for _, _, w in cn.edges) == expected
    assert all(s != d for s, d, _ in cn.edges)


@pytest.mark.parametrize("seed", range(8))
def test_cluster_edges_equal_reference(seed):
    for scene in oracle_scenes(seed):
        for nl in (scene, bundle_buses(scene)):
            cn = compute_cluster_edges(nl, build_clusters(nl, 2, 12))
            assert cn.edges == cluster_edges_reference(nl, cn)
            assert all(type(v) is int for edge in cn.edges for v in edge)


def test_dump_format():
    nl = flat_design(5, 2, macros_per_leaf=1, pads=["N"])
    cn = build_clusters(nl, min_cells=2, max_cells=10)
    text = dump_clusters(cn)
    lines = text.strip().split("\n")
    assert len(lines) == len(cn.clusters)
    first = lines[0].split()
    assert first[0] == "0"
    assert first[1] in (MACRO_CLUSTER, CELL_CLUSTER)
