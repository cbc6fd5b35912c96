import json

import pytest

from dfplace import generate_design, render_svg, run_pipeline, serialize_netlist
from dfplace.cli import main as cli_main
from dfplace.dataflow import DataflowGraph
from dfplace.errors import ConfigError
from dfplace.pipeline import PipelineConfig, StageTiming, load_config, stage_seeds
from dfplace.placer import Floorplan, MacroPlacement


def write_design(tmp_path, seed=0, **kwargs):
    params = dict(n_modules=3, cells_per_module=14, macro_bus_width=6,
                  io_bus_width=6, seed=seed)
    params.update(kwargs)
    nl = generate_design(**params)
    path = tmp_path / "design.json"
    path.write_text(serialize_netlist(nl))
    return path


def fast_config(tmp_path, **overrides):
    cfg = {
        "netlist": str(write_design(tmp_path)),
        "out_dir": str(tmp_path / "out"),
        "seed": 1,
        "clustering": {"min_cells": 4, "max_cells": 40},
        "gp": {"iterations": 6},
        "sa": {"cooling": 0.85, "moves_per_temp": 15, "rounds": 1},
    }
    cfg.update(overrides)
    return cfg


def test_config_defaults_are_faithful():
    cfg = PipelineConfig()
    assert cfg.loss.variant == "eq8"
    assert cfg.flip.enabled is True
    assert cfg.flip.guard is True
    assert cfg.loss.push_boundary == 0.0
    assert (cfg.flip.alpha, cfg.flip.beta, cfg.flip.gamma) == (0.55, 0.30, 0.15)


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"netlist": "x.json", "typo_key": 1})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"netlist": "x.json", "sa": {"cool": 0.9}})


def test_config_requires_input():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"seed": 3})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"verilog": "a.v"})  # geometry missing


def test_config_rejects_bad_variant():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"netlist": "x.json", "loss": {"variant": "eq7"}})


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"netlist": "design.json", "seed": 9,
                                "sa": {"cooling": 0.5}}))
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.sa.cooling == 0.5
    assert cfg.sa.moves_per_temp == 200  # untouched default
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_stage_seeds_are_stable_and_distinct():
    a = stage_seeds(42)
    b = stage_seeds(42)
    c = stage_seeds(43)
    assert a == b
    assert a != c
    assert len(set(a.values())) == len(a)


def test_stage_gating_extract(tmp_path):
    cfg = PipelineConfig.from_dict(fast_config(tmp_path, stop_stage="extract"))
    res = run_pipeline(cfg)
    names = set(res.files)
    assert "run.graph.txt" in names
    assert "run.clusters.txt" in names
    assert not any("placement" in n for n in names)
    assert not any(n.endswith(".svg") for n in names)
    assert res.graph is not None
    assert res.floorplan is None


def test_full_run_writes_everything(tmp_path):
    cfg = PipelineConfig.from_dict(fast_config(tmp_path))
    res = run_pipeline(cfg)
    expected = {
        "run.clusters.txt", "run.graph.txt", "run.placement.txt",
        "run.placement.json", "run.report.txt", "run.report.json",
        "run.svg", "run.timings.json",
    }
    assert expected <= set(res.files)
    assert res.report is not None
    # flip log covers every real macro cluster
    n_macros = len(res.floorplan.macro_placements)
    assert len(res.flip_log) == n_macros
    timings = json.loads((tmp_path / "out" / "run.timings.json").read_text())
    assert abs(sum(timings["shares"].values()) - 1.0) < 1e-6


def test_determinism_byte_identical(tmp_path):
    cfg_dict = fast_config(tmp_path)
    watched = ("run.placement.txt", "run.placement.json", "run.report.txt",
               "run.report.json", "run.svg", "run.graph.txt", "run.clusters.txt")

    cfg_dict["out_dir"] = str(tmp_path / "out1")
    run_pipeline(PipelineConfig.from_dict(cfg_dict))
    cfg_dict["out_dir"] = str(tmp_path / "out2")
    run_pipeline(PipelineConfig.from_dict(cfg_dict))
    for name in watched:
        a = (tmp_path / "out1" / name).read_bytes()
        b = (tmp_path / "out2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_different_seed_changes_placement(tmp_path):
    cfg_dict = fast_config(tmp_path)
    cfg_dict["out_dir"] = str(tmp_path / "o1")
    r1 = run_pipeline(PipelineConfig.from_dict(cfg_dict))
    cfg_dict["out_dir"] = str(tmp_path / "o2")
    cfg_dict["seed"] = 99
    r2 = run_pipeline(PipelineConfig.from_dict(cfg_dict))
    # not guaranteed in general, but these seeds diverge
    assert (r1.cluster_positions != r2.cluster_positions
            or r1.sequence_pair != r2.sequence_pair)


def test_no_finetune_skips_flip(tmp_path):
    cfg = PipelineConfig.from_dict(fast_config(tmp_path))
    cfg.flip.enabled = False
    res = run_pipeline(cfg)
    assert res.flip_log == ()
    assert all(mp.orientation == "N" for mp in res.floorplan.macro_placements.values())


def test_verilog_input_path(tmp_path):
    src = """
    module top(input a, output b);
      wire w;
      INV u1 (.a(a), .y(w));
      INV u2 (.a(w), .y(b));
    endmodule
    """
    geometry = {
        "outline": {"width": 30.0, "height": 30.0},
        "masters": [
            {"name": "INV", "width": 1, "height": 1, "kind": "cell",
             "pin_offsets": [["a", 0.0, 0.5], ["y", 1.0, 0.5]], "out_pins": ["y"]},
        ],
        "io_side": {"a": "W", "b": "E"},
    }
    (tmp_path / "top.v").write_text(src)
    (tmp_path / "geo.json").write_text(json.dumps(geometry))
    cfg = PipelineConfig.from_dict({
        "verilog": str(tmp_path / "top.v"),
        "geometry": str(tmp_path / "geo.json"),
        "out_dir": str(tmp_path / "out"),
        "clustering": {"min_cells": 1, "max_cells": 10},
        "sa": {"moves_per_temp": 0, "rounds": 1},
    })
    res = run_pipeline(cfg)
    assert res.report is not None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_cli_config(tmp_path, **overrides):
    cfg = fast_config(tmp_path, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_full_run(tmp_path, capsys):
    path = write_cli_config(tmp_path)
    assert cli_main(["place", str(path)]) == 0
    out = capsys.readouterr().out
    assert "hpwl_total=" in out
    assert (tmp_path / "out" / "run.svg").exists()


def test_cli_stage_flag(tmp_path):
    path = write_cli_config(tmp_path)
    assert cli_main(["place", str(path), "--stage", "extract",
                     "--out", str(tmp_path / "ex")]) == 0
    assert (tmp_path / "ex" / "run.graph.txt").exists()
    assert not (tmp_path / "ex" / "run.placement.txt").exists()


def test_cli_missing_input_exit_code(tmp_path, capsys):
    cfg = {"netlist": str(tmp_path / "absent.json"), "out_dir": str(tmp_path / "o")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = cli_main(["place", str(path)])
    assert code == 3
    assert "absent.json" in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"netlist": "x.json", "bogus": True}))
    assert cli_main(["place", str(path)]) == 2


@pytest.mark.parametrize("section,values", [
    ("sa", {"cooling": 1.0}),  # never cools below t_min
    ("sa", {"cooling": "0.9"}),
    ("sa", {"t_min_ratio": 0.0}),
    ("sa", {"moves_per_temp": -1}),
    ("sa", {"rounds": 1.5}),
    ("metrics", {"bins": "x"}),
    ("metrics", {"bins": 0}),
    ("metrics", {"capacity": -1}),
    ("metrics", {"capacity": "none"}),
    ("sa", {"t0_factor": "1"}),
    ("sa", {"t0_factor": -1}),
    ("gp", {"iterations": "x"}),
    ("gp", {"iterations": -3}),
    ("gp", {"iterations": 2.5}),
    ("flip", {"alpha": "a"}),
    ("flip", {"enabled": "yes"}),
    ("loss", {"mc_scale": "x"}),
    ("loss", {"outline_weight": "x"}),
    ("loss", {"push_boundary": "x"}),
    ("loss", {"mm_indirect_scale": None}),
    ("loss", {"mcc_scale": -1}),
    ("clustering", {"min_cells": "x"}),
    ("extraction", {"fanout_limit": "x"}),
    ("extraction", {"k": "x"}),
    ("metrics", {"dump_grid": "x"}),
])
def test_cli_bad_config_value_exit_code(tmp_path, section, values):
    cfg = fast_config(tmp_path)
    cfg[section] = {**cfg.get(section, {}), **values}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["place", str(path)]) == 2


def test_cli_missing_config_exit_code(tmp_path):
    assert cli_main(["place", str(tmp_path / "nope.json")]) == 3


def test_cli_loss_and_boundary_flags(tmp_path):
    path = write_cli_config(tmp_path)
    assert cli_main(["place", str(path), "--loss", "eq5",
                     "--push-boundary", "0.5", "--no-finetune",
                     "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "run.report.json").read_text())
    assert report["flip_log"] == []
    assert report["loss"]["loss_boundary"] > 0.0


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def small_fp():
    return Floorplan(
        (20.0, 20.0),
        {
            0: MacroPlacement(2, 2, 5, 4, "N", ((1.0, 1.0),)),
            1: MacroPlacement(10, 10, 4, 5, "FS", ((1.0, 1.0),)),
        },
        {5: (15.0, 5.0)},
        {9: (0.0, 10.0)},
    )


def test_svg_group_counts():
    svg = render_svg(small_fp(), DataflowGraph(()))
    assert svg.count('<g class="macro"') == 2
    assert svg.count('<g class="cluster"') == 1
    assert svg.count('class="outline"') == 1
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")


def test_svg_marker_mirrors_with_orientation():
    fp = small_fp()
    svg_n = render_svg(fp)
    fp.macro_placements[0].orientation = "FS"
    svg_fs = render_svg(fp)
    # the marker polygon of macro 0 must move to the mirrored corner
    def marker_of(svg, macro_id):
        start = svg.index(f'id="macro-{macro_id}"')
        chunk = svg[start:]
        p = chunk.index('<polygon class="marker" points="')
        return chunk[p:p + 120]
    assert marker_of(svg_n, 0) != marker_of(svg_fs, 0)


def test_svg_congestion_layer_gating():
    from dfplace.metrics import congestion
    fp = small_fp()
    from dfplace.dataflow import CC, DataflowEdge
    g = DataflowGraph((DataflowEdge(CC, 5, 9, 2.0, 2),))
    grid, _ = congestion(fp, g, 5.0, 1.0)
    without = render_svg(fp, g)
    with_heat = render_svg(fp, g, congestion_grid=grid)
    assert '<g class="congestion">' not in without
    assert '<g class="congestion">' in with_heat


def test_svg_edges_layer():
    from dfplace.dataflow import CC, DataflowEdge
    g = DataflowGraph((DataflowEdge(CC, 5, 9, 2.0, 2),))
    svg = render_svg(small_fp(), g, show_edges=True)
    assert '<g class="edges">' in svg
    assert "<line" in svg


def test_stage_timing_shares():
    t = StageTiming({"parse": 1.0, "extract": 3.0})
    assert abs(sum(t.shares.values()) - 1.0) < 1e-9
    assert t.extraction_share == pytest.approx(0.75)


def test_congestion_csv_dump(tmp_path):
    cfg = PipelineConfig.from_dict(fast_config(tmp_path, metrics={"dump_grid": True}))
    res = run_pipeline(cfg)
    csv_path = tmp_path / "out" / "run.congestion.csv"
    assert csv_path.exists()
    rows = csv_path.read_text().strip().split("\n")
    assert len(rows) == 32
    assert all(len(r.split(",")) == 32 for r in rows)


def test_svg_is_valid_xml(tmp_path):
    import xml.etree.ElementTree as ET
    cfg = PipelineConfig.from_dict(fast_config(tmp_path))
    run_pipeline(cfg)
    tree = ET.fromstring((tmp_path / "out" / "run.svg").read_text())
    assert tree.tag.endswith("svg")


def test_pipeline_without_macros(tmp_path):
    # a design with zero macro clusters still places, reports and renders
    path = write_design(tmp_path, macros_per_module=0, macro_bus_width=0)
    cfg = PipelineConfig.from_dict({
        "netlist": str(path),
        "out_dir": str(tmp_path / "out"),
        "clustering": {"min_cells": 4, "max_cells": 40},
        "sa": {"moves_per_temp": 10, "rounds": 1, "cooling": 0.8},
    })
    res = run_pipeline(cfg)
    assert res.floorplan.macro_placements == {}
    assert res.flip_log == ()
    assert res.report.hpwl_total >= 0.0


def test_loss_components_sum_to_total(tmp_path):
    cfg = PipelineConfig.from_dict(fast_config(tmp_path))
    res = run_pipeline(cfg)
    b = res.loss
    assert b.total == pytest.approx(
        b.loss_mm + b.loss_mc + b.loss_mcc + b.loss_outline + b.loss_boundary
    )
    for part in (b.loss_mm, b.loss_mc, b.loss_mcc, b.loss_outline, b.loss_boundary):
        assert part >= 0.0
