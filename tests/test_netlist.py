import json
import re

import numpy as np
import pytest

from dfplace import bundle_buses, generate_design, parse_netlist, serialize_netlist
from dfplace.cli import main as cli_main
from dfplace.errors import (
    BadOutline,
    DanglingPin,
    DuplicateName,
    MalformedDocument,
    MissingInstances,
    UnknownMaster,
    UnsupportedConstruct,
)
from dfplace.netlist import MAX_WIDTH, Net, Nets
from dfplace.verilog import parse_verilog_subset
from oracles import bundle_buses_reference
from scenes import edge_case_netlist, oracle_scenes


def make_doc(**overrides):
    doc = {
        "outline": {"width": 100.0, "height": 80.0},
        "masters": [
            {"name": "RAM", "width": 10, "height": 8, "kind": "macro",
             "pin_offsets": [["d", 0.5, 4.0], ["q", 9.5, 4.0]]},
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]]},
            {"name": "PAD", "width": 0, "height": 0, "kind": "io_pad",
             "pin_offsets": [["p", 0.0, 0.0]]},
        ],
        "instances": [
            {"name": "u_ram", "master": "RAM", "hierarchy_path": ["top", "mem"]},
            {"name": "u1", "master": "INV", "hierarchy_path": ["top", "logic"]},
        ],
        "nets": [
            {"base_name": "n1", "driver": ["u_ram", "q"], "sinks": [["u1", "a"]],
             "bit_width": 1},
        ],
        "io_side": {},
    }
    doc.update(overrides)
    return doc


def test_minimal_document():
    nl = parse_netlist(json.dumps(make_doc()))
    assert len(nl.instances) == 2
    assert len(nl.nets) == 1
    assert nl.outline == (100.0, 80.0)


def test_empty_instances_rejected():
    with pytest.raises(MissingInstances):
        parse_netlist(json.dumps(make_doc(instances=[], nets=[])))


def test_unknown_sink_instance_rejected():
    doc = make_doc()
    doc["nets"][0]["sinks"] = [["u99", "a"]]
    with pytest.raises(DanglingPin):
        parse_netlist(json.dumps(doc))


def test_unknown_pin_rejected():
    doc = make_doc()
    doc["nets"][0]["sinks"] = [["u1", "nope"]]
    with pytest.raises(DanglingPin):
        parse_netlist(json.dumps(doc))


def test_duplicate_instance_name_rejected():
    doc = make_doc()
    doc["instances"].append(
        {"name": "u1", "master": "INV", "hierarchy_path": ["top"]}
    )
    with pytest.raises(DuplicateName):
        parse_netlist(json.dumps(doc))


BAD_OUTLINES = [
    {"width": 0, "height": 10},
    {"width": 10, "height": -1},
    {},
    {"width": "x", "height": 10},
    {"width": None, "height": 10},
    {"width": "10", "height": 10},
    {"width": True, "height": 10},
    {"width": float("inf"), "height": 10},
    {"width": 10 ** 400, "height": 10},
    None,
]


@pytest.mark.parametrize("outline", BAD_OUTLINES)
def test_bad_outline_rejected(outline):
    with pytest.raises(BadOutline):
        parse_netlist(json.dumps(make_doc(outline=outline)))


def test_unknown_master_rejected():
    doc = make_doc()
    doc["instances"][0]["master"] = "GHOST"
    with pytest.raises(UnknownMaster):
        parse_netlist(json.dumps(doc))


def test_instance_ids_dense_from_zero():
    nl = parse_netlist(json.dumps(make_doc()))
    assert [i.id for i in nl.instances] == list(range(len(nl.instances)))


def _driver_on(doc, inst, pin):
    doc["nets"][0]["driver"] = [inst, pin]


def _sink_on(doc, inst, pin):
    doc["nets"][0]["sinks"] = [["u1", "a"], [inst, pin]]


def _pad(doc, sides):
    doc["instances"].append({"name": "pad0", "master": "PAD", "hierarchy_path": ["top"]})
    doc["io_side"] = sides


@pytest.mark.parametrize("edit,error,message", [
    (lambda d: _driver_on(d, "ghost", "q"), DanglingPin,
     "net 'n1': unknown instance 'ghost'"),
    (lambda d: _driver_on(d, "u_ram", "zz"), DanglingPin,
     "net 'n1': instance 'u_ram' has no pin 'zz'"),
    (lambda d: _sink_on(d, "u99", "a"), DanglingPin,
     "net 'n1': unknown instance 'u99'"),
    (lambda d: _sink_on(d, "u1", "nope"), DanglingPin,
     "net 'n1': instance 'u1' has no pin 'nope'"),
    (lambda d: _pad(d, {"pad0": "N", "ghost": "E"}), DanglingPin,
     "io_side references unknown instance 'ghost'"),
    (lambda d: _pad(d, {"pad0": "X"}), MalformedDocument,
     "io_side for 'pad0': bad side 'X'"),
    (lambda d: _pad(d, {"pad0": "N", "u1": "S"}), MalformedDocument,
     "io_side given for non-IO instance 'u1'"),
    (lambda d: _pad(d, {}), MalformedDocument,
     "IO instance 'pad0' has no io_side entry"),
])
def test_pin_and_io_side_error_messages(edit, error, message):
    doc = make_doc()
    edit(doc)
    with pytest.raises(error) as err:
        parse_netlist(json.dumps(doc))
    assert str(err.value) == message


def test_document_as_text_or_path(tmp_path):
    text = json.dumps(make_doc())
    path = tmp_path / "design.json"
    path.write_text(text)
    assert parse_netlist(path) == parse_netlist(text)
    path.write_bytes(text.replace("u_ram", "u_r\u00e4m").encode("latin-1"))
    with pytest.raises(MalformedDocument):
        parse_netlist(path)  # not in a JSON encoding


def test_instances_of_one_leaf_share_one_path():
    nl = generate_design(n_modules=3, cells_per_module=8, seed=0)
    again = parse_netlist(serialize_netlist(nl))
    by_path: dict = {}
    for inst in again.instances:
        assert by_path.setdefault(inst.hierarchy_path, inst.hierarchy_path) is inst.hierarchy_path
    assert len(by_path) < len(again.instances)


def test_instances_and_nets_are_slotted():
    nl = parse_netlist(json.dumps(make_doc()))
    for obj in (nl.instances[0], nl.nets[0]):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.id = 5


def test_net_table_rows():
    nl = parse_netlist(json.dumps(make_doc()))
    rows = [("n1", (0, "q"), ((1, "a"), (1, "a")), 3), ("n2", (1, "y"), (), 1)]
    nets = Nets.from_rows(nl.instances, rows)
    assert len(nets) == 2
    assert list(nets) == [Net(0, "n1", (0, "q"), ((1, "a"), (1, "a")), 3),
                          Net(1, "n2", (1, "y"), (), 1)]
    assert nets[-1] == nets[1]
    with pytest.raises(IndexError):
        nets[2]
    assert nets.sink_start.tolist() == [0, 2, 2]
    assert nets.driver_pin.tolist() == [1, 1]  # index into the master's pin_offsets
    with pytest.raises(ValueError):
        nets.driver[0] = 1  # the columns are read-only
    assert nets == Nets.from_rows(nl.instances, rows)
    assert nets != Nets.from_rows(nl.instances, rows[:1])


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_identity(seed):
    nl = generate_design(n_modules=3, cells_per_module=8, seed=seed,
                         mm_bus_width=2, shared_driver_nets=1, include_clock=True)
    again = parse_netlist(serialize_netlist(nl))
    assert again == nl
    third = parse_netlist(serialize_netlist(again))
    assert third == again


# ---------------------------------------------------------------------------
# bus bundling
# ---------------------------------------------------------------------------

def doc_with_nets(nets):
    doc = make_doc()
    doc["instances"].append(
        {"name": "u2", "master": "INV", "hierarchy_path": ["top", "logic"]}
    )
    doc["nets"] = nets
    return parse_netlist(json.dumps(doc))


def test_bundle_eight_bit_bus():
    nets = [
        {"base_name": f"data[{i}]", "driver": ["u_ram", "q"],
         "sinks": [["u1", "a"]], "bit_width": 1}
        for i in range(8)
    ]
    out = bundle_buses(doc_with_nets(nets))
    assert len(out.nets) == 1
    assert out.nets[0].bit_width == 8
    assert out.nets[0].base_name == "data"


def test_bundle_passes_unindexed_through():
    nets = [
        {"base_name": "rst", "driver": ["u_ram", "q"], "sinks": [["u1", "a"]],
         "bit_width": 1},
    ]
    out = bundle_buses(doc_with_nets(nets))
    assert len(out.nets) == 1
    assert out.nets[0].base_name == "rst"
    assert out.nets[0].bit_width == 1


def test_bundle_counts_members_not_index_span():
    nets = [
        {"base_name": "data[0]", "driver": ["u_ram", "q"], "sinks": [["u1", "a"]]},
        {"base_name": "data[2]", "driver": ["u_ram", "q"], "sinks": [["u1", "a"]]},
    ]
    out = bundle_buses(doc_with_nets(nets))
    assert len(out.nets) == 1
    assert out.nets[0].bit_width == 2


def test_bundle_split_by_endpoints():
    # same base name, different sink instance -> two separate buses
    nets = [
        {"base_name": "d[0]", "driver": ["u_ram", "q"], "sinks": [["u1", "a"]]},
        {"base_name": "d[1]", "driver": ["u_ram", "q"], "sinks": [["u1", "a"]]},
        {"base_name": "d[2]", "driver": ["u_ram", "q"], "sinks": [["u2", "a"]]},
    ]
    out = bundle_buses(doc_with_nets(nets))
    assert sorted(n.bit_width for n in out.nets) == [1, 2]


@pytest.mark.parametrize("seed", range(5))
def test_bundle_conserves_scalar_connectivity(seed):
    nl = generate_design(n_modules=3, cells_per_module=10, seed=seed, mm_bus_width=3)
    assert all(n.bit_width == 1 for n in nl.nets)
    out = bundle_buses(nl)
    assert sum(n.bit_width for n in out.nets) == len(nl.nets)
    assert [n.id for n in out.nets] == list(range(len(out.nets)))


@pytest.mark.parametrize("seed", range(8))
def test_bundle_equals_reference(seed):
    for nl in oracle_scenes(seed):
        assert tuple(bundle_buses(nl).nets) == bundle_buses_reference(nl)


def test_bundle_edge_cases():
    widths: dict = {}
    for net in bundle_buses(edge_case_netlist(0)).nets:
        widths.setdefault(net.base_name, []).append(net.bit_width)
    # g[0], g[00], g[2], g[5], g[007] and the past-int64 index share
    # endpoints; g[0] of another driver and g[9] of other sinks stand alone
    assert sorted(widths["g"]) == [1, 1, 6]
    assert widths["nl"] == [2] and widths["a[1]"] == [1]
    assert widths["g[6]"] == [2] and widths["wide[3]"] == [4]  # already wide


# ---------------------------------------------------------------------------
# structural Verilog subset
# ---------------------------------------------------------------------------

GEOMETRY = {
    "outline": {"width": 40.0, "height": 40.0},
    "masters": [
        {"name": "INV", "width": 1, "height": 1, "kind": "cell",
         "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]], "out_pins": ["y"]},
        {"name": "RAM", "width": 8, "height": 6, "kind": "macro",
         "pin_offsets": [["d", 0.0, 3.0], ["q", 8.0, 3.0]], "out_pins": ["q"]},
    ],
    "io_side": {"clk_in": "W"},
}


def test_verilog_two_leaves_one_wire():
    src = """
    module top;
      wire w;
      INV u1 (.y(w));
      INV u2 (.a(w));
    endmodule
    """
    nl = parse_verilog_subset(src, GEOMETRY)
    assert len(nl.instances) == 2
    assert len(nl.nets) == 1
    net = nl.nets[0]
    # u1.y is an out pin, so it drives
    assert nl.instances[net.driver[0]].name.endswith("u1")
    assert net.driver[1] == "y"


def test_verilog_behavioral_rejected_with_line():
    src = "module top;\n  wire w;\n  always @(w) w = 1;\nendmodule\n"
    with pytest.raises(UnsupportedConstruct) as err:
        parse_verilog_subset(src, GEOMETRY)
    assert "line 3" in str(err.value)


def test_verilog_unknown_master():
    src = "module top;\n  wire w;\n  MYSTERY u1 (.a(w));\nendmodule\n"
    with pytest.raises(UnknownMaster):
        parse_verilog_subset(src, GEOMETRY)


@pytest.mark.parametrize("outline", BAD_OUTLINES)
def test_verilog_bad_outline_rejected(outline):
    src = "module top;\n  wire w;\n  INV u1 (.y(w));\nendmodule\n"
    with pytest.raises(BadOutline):
        parse_verilog_subset(src, {**GEOMETRY, "outline": outline})


@pytest.mark.parametrize("geometry", ["[]", "3", "null", [], 3, None])
def test_verilog_sidecar_must_be_an_object(geometry):
    src = "module top;\n  wire w;\n  INV u1 (.y(w));\nendmodule\n"
    with pytest.raises(MalformedDocument):
        parse_verilog_subset(src, geometry)


def test_verilog_unknown_pin_message():
    src = "module top;\n  wire w;\n  INV u1 (.zz(w));\nendmodule\n"
    with pytest.raises(DanglingPin) as err:
        parse_verilog_subset(src, GEOMETRY)
    assert str(err.value) == "line 3: master 'INV' has no pin 'zz'"


HIERARCHY_SRC = """
    module leafpair(input i, output o);
      wire mid;
      INV g1 (.a(i), .y(mid));
      INV g2 (.a(mid), .y(o));
    endmodule

    module top(input clk_in, output [1:0] dout);
      wire t;
      leafpair u_a (.i(clk_in), .o(t));
      RAM u_mem (.d(t), .q(dout[0]));
      INV u_top (.a(t), .y(dout[1]));
    endmodule
    """

# The same design spelled another valid way.
HIERARCHY_VARIANTS = {
    "direction_then_range_in_header": HIERARCHY_SRC.replace("output [1:0]", "output[1:0]"),
    "direction_then_range_in_body": HIERARCHY_SRC.replace(
        "module top(input clk_in, output [1:0] dout);",
        "module top(clk_in, dout);\n  input clk_in;\n  output[1:0] dout;",
    ),
    "wire_then_range": HIERARCHY_SRC.replace("wire t;", "wire[0:0] t;"),
}


def test_verilog_hierarchy_and_ports():
    nl = parse_verilog_subset(HIERARCHY_SRC, GEOMETRY)
    names = {i.name: i for i in nl.instances}
    # 2 gates in leafpair + RAM + INV + 2 IO pads (clk_in, dout)
    assert len(nl.instances) == 6
    g1 = names["top/u_a/g1"]
    assert g1.hierarchy_path == ("top", "u_a")
    assert names["top/u_mem"].hierarchy_path == ("top",)
    assert names["clk_in"].master.kind == "io_pad"
    assert dict(nl.io_side)[names["clk_in"].id] == "W"
    # the pad drives the clk_in net because the port is an input
    clk_nets = [n for n in nl.nets if n.driver == (names["clk_in"].id, "p")]
    assert len(clk_nets) == 1
    # equivalent JSON path round-trips
    assert parse_netlist(serialize_netlist(nl)) == nl


def test_verilog_vector_wire_and_bus_naming():
    src = """
    module top(input [3:0] din);
      RAM u_mem (.d(din));
    endmodule
    """
    nl = parse_verilog_subset(src, GEOMETRY)
    bases = sorted(n.base_name for n in nl.nets)
    assert bases == [f"din[{i}]" for i in range(4)]
    bundled = bundle_buses(nl)
    assert len(bundled.nets) == 1
    assert bundled.nets[0].bit_width == 4


@pytest.mark.parametrize("variant", sorted(HIERARCHY_VARIANTS))
def test_verilog_keyword_then_range(variant):
    """``output[1:0] dout`` declares a two-bit port, as ``output [1:0] dout`` does."""
    expected = parse_verilog_subset(HIERARCHY_SRC, GEOMETRY)
    assert parse_verilog_subset(HIERARCHY_VARIANTS[variant], GEOMETRY) == expected


@pytest.mark.parametrize("old,new,line", [
    ("INV u_top (.a(t), .y(dout[1]))", "INV u_top (.a(t), .y(dout[7]))", 12),  # master pin
    ("leafpair u_a (.i(clk_in), .o(t))", "leafpair u_a (.i(clk_in), .o(dout[2]))", 10),  # module port
], ids=["master_pin", "module_port"])
def test_verilog_bit_select_past_width(old, new, line):
    with pytest.raises(MalformedDocument) as err:
        parse_verilog_subset(HIERARCHY_SRC.replace(old, new), GEOMETRY)
    assert str(err.value).startswith(f"line {line}: ")
    assert "'dout'" in str(err.value)


WIDE_SOURCES = {
    "port": "module top (din);\n  input [{hi}:0] din;\n  wire w;\n"
            "  INV u1 (.a(din[0]), .y(w));\n  INV u2 (.a(w));\nendmodule\n",
    "wire": "module top;\n  wire [{hi}:0] bus;\n  wire w;\n"
            "  INV u1 (.a(bus[1]), .y(w));\n  INV u2 (.a(w));\nendmodule\n",
}


@pytest.mark.parametrize("kind", list(WIDE_SOURCES))
@pytest.mark.parametrize("width,code", [(MAX_WIDTH, 0), (MAX_WIDTH + 1, 4)])
def test_verilog_width_bound(tmp_path, capsys, kind, width, code):
    src = WIDE_SOURCES[kind].format(hi=width - 1)
    assert place_verilog(tmp_path, src) == code
    if code:
        name = "din" if kind == "port" else "bus"
        assert f"line 2: {kind} '{name}' is {width} bits wide" in capsys.readouterr().err


@pytest.mark.parametrize("src", [
    WIDE_SOURCES["port"].format(hi="9" * 5000),
    WIDE_SOURCES["wire"].format(hi="9" * 5000),
    WIDE_SOURCES["wire"].format(hi=3).replace("bus[1]", "bus[" + "9" * 5000 + "]"),
], ids=["port_bound", "wire_bound", "bit_index"])
def test_verilog_overlong_number(tmp_path, src):
    """A bound or bit index too long for int() is not parsed as a number."""
    assert place_verilog(tmp_path, src) == 4


def test_verilog_deep_hierarchy(tmp_path, capsys):
    """A 1,200-level chain of modules elaborates without recursing per level."""
    depth = 1200
    src = ["module top;\n  m0 u ();\nendmodule\n"]
    src += [f"module m{i};\n  m{i + 1} u ();\nendmodule\n" for i in range(depth - 1)]
    src.append(f"module m{depth - 1};\n  wire w;\n  INV a (.y(w));\n  INV b (.a(w));\n"
               f"  RAM r (.d(w));\nendmodule\n")
    assert place_verilog(tmp_path, "".join(src)) == 0, capsys.readouterr().err
    nl = parse_verilog_subset("".join(src), GEOMETRY)
    assert [len(i.hierarchy_path) for i in nl.instances] == [depth + 1] * 3
    assert nl.instances[0].name == "/".join(["top"] + ["u"] * depth + ["a"])


# ---------------------------------------------------------------------------
# mutated Verilog through the CLI: a documented exit code, never 7
# ---------------------------------------------------------------------------

VERILOG_FUZZ_BASES = {
    "hierarchy": (HIERARCHY_SRC, 0),
    "direction_then_range_in_header": (HIERARCHY_VARIANTS["direction_then_range_in_header"], 0),
    "direction_then_range_in_body": (HIERARCHY_VARIANTS["direction_then_range_in_body"], 0),
    "bit_select_past_width": (HIERARCHY_SRC.replace("dout[1]", "dout[7]"), 4),
}


def place_verilog(tmp_path, src):
    """Exit code of ``dfplace place`` on ``src`` through the extract stage."""
    (tmp_path / "top.v").write_text(src)
    (tmp_path / "geo.json").write_text(json.dumps(GEOMETRY))
    cfg = {"verilog": str(tmp_path / "top.v"), "geometry": str(tmp_path / "geo.json"),
           "out_dir": str(tmp_path / "out"), "stop_stage": "extract",
           "clustering": {"min_cells": 1, "max_cells": 40}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return cli_main(["place", str(tmp_path / "config.json")])


def mutate_tokens(tokens, rng):
    """``tokens`` joined after one of them is dropped, inserted, replaced or
    duplicated; inserted and replacing tokens are drawn from ``tokens``."""
    tokens = list(tokens)
    k = int(rng.integers(len(tokens)))
    other = tokens[int(rng.integers(len(tokens)))]
    op = int(rng.integers(4))
    if op == 0:
        del tokens[k]
    elif op == 1:
        tokens.insert(k, other)
    elif op == 2:
        tokens[k] = other
    else:
        tokens.insert(k, tokens[k])
    return "".join(tokens)


@pytest.mark.parametrize("base", list(VERILOG_FUZZ_BASES))
def test_cli_fuzzed_verilog_never_exits_7(tmp_path, capsys, base):
    src, code = VERILOG_FUZZ_BASES[base]
    assert place_verilog(tmp_path, src) == code, capsys.readouterr().err
    tokens = re.findall(r"\s*(?:\w+|\S)", src)  # each with its leading blanks
    rng = np.random.default_rng(list(VERILOG_FUZZ_BASES).index(base))
    codes = {}
    for _ in range(75):
        mutated = mutate_tokens(tokens, rng)
        code = place_verilog(tmp_path, mutated)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4, 5, 6), (mutated, err)
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(4, 0) > 25, codes  # most mutations do break the source


# an instantiation cycle below the top module, which still leaves a top
CYCLE_SOURCES = {
    "two_module_cycle": (
        "module top;\n  a u_a ();\nendmodule\n"
        "module a;\n  b u_b ();\nendmodule\n"
        "module b;\n  a u_a ();\nendmodule\n",
        "a",
    ),
    "self_instance": (
        "module top;\n  c u_c ();\nendmodule\n"
        "module c;\n  wire w;\n  INV g (.y(w));\n  c u_c ();\nendmodule\n",
        "c",
    ),
}


@pytest.mark.parametrize("name", list(CYCLE_SOURCES))
def test_verilog_instantiation_cycle_below_top(tmp_path, capsys, name):
    src, module = CYCLE_SOURCES[name]
    with pytest.raises(MalformedDocument) as err:
        parse_verilog_subset(src, GEOMETRY)
    assert f"module '{module}'" in str(err.value)
    assert "instantiation cycle" in str(err.value)
    assert place_verilog(tmp_path, src) == 4
    assert f"module '{module}'" in capsys.readouterr().err
