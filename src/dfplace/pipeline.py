"""Pipeline driver: config loading, stage orchestration, output files.

Stage order: parse -> cluster -> extract -> gp -> sa -> flip -> report.  A
``stop_stage`` truncates the run after that stage.  All outputs except
``run.timings.json`` are byte-identical for identical (config, seed); the
wall-clock numbers live in their own file so the primary artifacts stay
reproducible.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import clustering, dataflow, finetune, metrics, placer, render
from .errors import ConfigError, PipelineStageError
from .netlist import Netlist, bundle_buses, parse_netlist, parse_verilog_subset

STAGES = ("parse", "cluster", "extract", "gp", "sa", "flip", "report")


def _from_dict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return cls(**data)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number that is neither NaN nor infinite and fits in a float."""
    return _is_number(v) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(isinstance(p, str) for p in v)


def _check(ok: bool, message: str, value) -> None:
    if not ok:
        raise ConfigError(f"{message}, got {value!r}")


# annotation as written (annotations are postponed here) -> (test, what the
# value must be)
_FIELD_TYPES = {
    "int": (_is_int, "an int"),
    "float": (_is_finite, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string"),
    "tuple[str, ...]": (_is_str_list, "a list of strings"),
}


def _check_types(obj, where: str) -> None:
    """Check every field of a config dataclass whose annotation has a rule."""
    for f in fields(obj):
        rule = _FIELD_TYPES.get(f.type)
        if rule is not None:
            v = getattr(obj, f.name)
            _check(rule[0](v), f"{where}{f.name} must be {rule[1]}", v)


@dataclass
class ClusteringConfig:
    min_cells: int = 50
    max_cells: int = 500
    min_macros: int = 1
    max_macros: int = 16


@dataclass
class ExtractionConfig:
    k: float = 1.0
    fanout_limit: int = 32
    name_filters: tuple[str, ...] = dataflow.DEFAULT_NAME_FILTERS


@dataclass
class GpConfig:
    iterations: int = 20


@dataclass
class SaConfig(placer.SaSchedule):
    rounds: int = 2  # GP <-> macro placement refinement rounds


@dataclass
class LossConfig:
    variant: str = "eq8"
    mc_scale: float = 1.0
    mcc_scale: float = 1.0
    mm_indirect_scale: float = 1.0
    outline_weight: float = 1.0
    push_boundary: float = 0.0

    def placer_config(self) -> placer.PlacerConfig:
        if self.variant not in placer.LOSS_VARIANTS:
            raise ConfigError(f"loss variant must be one of {placer.LOSS_VARIANTS}")
        return placer.PlacerConfig(
            loss_variant=self.variant,
            mc_scale=self.mc_scale,
            mcc_scale=self.mcc_scale,
            mm_indirect_scale=self.mm_indirect_scale,
            outline_weight=self.outline_weight,
            push_boundary_weight=self.push_boundary,
        )


@dataclass
class FlipConfig:
    enabled: bool = True
    alpha: float = finetune.DEFAULT_ALPHA
    beta: float = finetune.DEFAULT_BETA
    gamma: float = finetune.DEFAULT_GAMMA
    guard: bool = True


@dataclass
class MetricsConfig:
    bins: int = 32  # per axis; bin_size = max outline extent / bins
    capacity: float | str = "auto"
    dump_grid: bool = False  # write bin demands as run.congestion.csv


@dataclass
class PipelineConfig:
    netlist: str | None = None
    verilog: str | None = None
    geometry: str | None = None
    seed: int = 0
    out_dir: str = "out"
    stop_stage: str = "report"
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    gp: GpConfig = field(default_factory=GpConfig)
    sa: SaConfig = field(default_factory=SaConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    flip: FlipConfig = field(default_factory=FlipConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        data = dict(data)
        sections = {
            "clustering": ClusteringConfig,
            "extraction": ExtractionConfig,
            "gp": GpConfig,
            "sa": SaConfig,
            "loss": LossConfig,
            "flip": FlipConfig,
            "metrics": MetricsConfig,
        }
        kwargs = {}
        for name, cls in sections.items():
            if name in data:
                kwargs[name] = _from_dict(cls, data.pop(name), name)
        cfg = _from_dict(PipelineConfig, {**data, **kwargs}, "config")
        _check_types(cfg, "")
        for name in sections:
            _check_types(getattr(cfg, name), f"{name}.")
        if cfg.stop_stage not in STAGES:
            raise ConfigError(f"stop_stage must be one of {STAGES}")
        if cfg.netlist is None and cfg.verilog is None:
            raise ConfigError("config needs 'netlist' or 'verilog' input")
        if cfg.verilog is not None and cfg.geometry is None:
            raise ConfigError("verilog input needs a 'geometry' sidecar")
        cfg.loss.placer_config()  # validate variant early
        _check(cfg.seed >= 0, "seed must be >= 0", cfg.seed)
        _check(cfg.extraction.k >= 0, "extraction.k must be >= 0", cfg.extraction.k)
        sa, m = cfg.sa, cfg.metrics
        # an unbounded schedule (cooling or t_min_ratio outside (0, 1)) would
        # anneal forever, so every value is checked before any stage runs
        for name in ("cooling", "t_min_ratio"):
            v = getattr(sa, name)
            _check(0 < v < 1, f"sa.{name} must be in (0, 1)", v)
        for name in ("moves_per_temp", "rounds"):
            v = getattr(sa, name)
            _check(v >= 0, f"sa.{name} must be >= 0", v)
        _check(sa.t0_factor > 0, "sa.t0_factor must be > 0", sa.t0_factor)
        _check(cfg.gp.iterations >= 0, "gp.iterations must be >= 0", cfg.gp.iterations)
        # the loss scales and weights become the SA evaluator's coefficients
        for f in fields(cfg.loss):
            if f.type == "float":
                v = getattr(cfg.loss, f.name)
                _check(v >= 0, f"loss.{f.name} must be >= 0", v)
        _check(m.bins >= 1, "metrics.bins must be >= 1", m.bins)
        _check(m.capacity == "auto" or (_is_finite(m.capacity) and m.capacity > 0),
               "metrics.capacity must be 'auto' or a finite number > 0", m.capacity)
        return cfg


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read a config file; ``overrides`` (same layout, e.g. from command-line
    flags) replace its values before any of them is checked."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config must be an object, got {data!r}")
    for key, value in (overrides or {}).items():
        section = data.get(key)
        if isinstance(value, dict) and section is not None:
            if not isinstance(section, dict):
                continue  # from_dict reports the file's bad section
            value = {**section, **value}
        data[key] = value
    return PipelineConfig.from_dict(data)


@dataclass
class StageTiming:
    seconds: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def shares(self) -> dict[str, float]:
        t = self.total
        if t <= 0:
            return {k: 0.0 for k in self.seconds}
        return {k: v / t for k, v in self.seconds.items()}

    @property
    def extraction_share(self) -> float:
        return self.shares.get("extract", 0.0)

    def to_dict(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "shares": self.shares,
            "extraction_share": self.extraction_share,
            "total": self.total,
        }


def stage_seeds(seed: int) -> dict[str, int]:
    """Independent per-stage seeds so toggling one stage leaves others alone."""
    children = np.random.SeedSequence(seed).spawn(3)
    names = ("gp", "sa", "synth")
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}


@dataclass
class PipelineResult:
    netlist: Netlist | None = None
    clustered: clustering.ClusteredNetlist | None = None
    graph: dataflow.DataflowGraph | None = None
    cluster_positions: dict | None = None
    floorplan: placer.Floorplan | None = None
    sequence_pair: placer.SequencePair | None = None
    loss: placer.LossBreakdown | None = None
    flip_log: tuple = ()
    report: metrics.RunReport | None = None
    timing: StageTiming | None = None
    files: dict[str, Path] = field(default_factory=dict)


def _placement_text(cn, fp) -> str:
    lines = []
    for cid in sorted(fp.macro_placements):
        mp = fp.macro_placements[cid]
        lines.append(
            f"macro {cn.label(cid)} {mp.x:.6f} {mp.y:.6f} {mp.width:.6f} "
            f"{mp.height:.6f} {mp.orientation}"
        )
    for cid in sorted(fp.cluster_positions):
        x, y = fp.cluster_positions[cid]
        lines.append(f"cluster {cn.label(cid)} {x:.6f} {y:.6f}")
    return "\n".join(lines) + "\n"


def _placement_json(cn, fp) -> str:
    doc = {
        "outline": {"width": fp.outline[0], "height": fp.outline[1]},
        "macros": [
            {
                "name": cn.label(cid),
                "x": mp.x, "y": mp.y,
                "w": mp.width, "h": mp.height,
                "orientation": mp.orientation,
            }
            for cid, mp in sorted(fp.macro_placements.items())
        ],
        "clusters": [
            {"name": cn.label(cid), "cx": p[0], "cy": p[1]}
            for cid, p in sorted(fp.cluster_positions.items())
        ],
        "io_anchors": [
            {"name": cn.label(cid), "x": p[0], "y": p[1]}
            for cid, p in sorted(fp.io_anchors.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def run_pipeline(config: PipelineConfig, write_files: bool = True) -> PipelineResult:
    """Execute the pipeline up to ``config.stop_stage`` and emit output files."""
    res = PipelineResult()
    seconds: dict[str, float] = {}
    seeds = stage_seeds(config.seed)
    out = Path(config.out_dir)
    if write_files:
        out.mkdir(parents=True, exist_ok=True)
    stop = STAGES.index(config.stop_stage)

    def run_stage(name, fn):
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc
        seconds[name] = seconds.get(name, 0.0) + (time.perf_counter() - t0)

    def write(name, text):
        if write_files:
            path = out / name
            path.write_text(text)
            res.files[name] = path

    def parse_stage():
        if config.netlist is not None:
            nl = parse_netlist(Path(config.netlist))
        else:
            text = Path(config.verilog).read_text()
            geo = Path(config.geometry).read_text()
            nl = parse_verilog_subset(text, geo)
        res.netlist = bundle_buses(nl)

    def cluster_stage():
        c = config.clustering
        cn = clustering.build_clusters(
            res.netlist, c.min_cells, c.max_cells, c.min_macros, c.max_macros
        )
        res.clustered = clustering.compute_cluster_edges(res.netlist, cn)
        write("run.clusters.txt", clustering.dump_clusters(res.clustered))

    def extract_stage():
        e = config.extraction
        res.graph = dataflow.extract_dataflow(
            res.clustered, res.netlist, e.k, e.fanout_limit, tuple(e.name_filters)
        )
        write("run.graph.txt", dataflow.export_graph(res.graph))

    def gp_stage():
        res.cluster_positions = placer.global_place_clusters(
            res.graph, res.clustered, res.netlist.outline,
            config.gp.iterations, seeds["gp"],
        )

    def sa_stage():
        cn = res.clustered
        outline = res.netlist.outline
        shapes = placer.macro_shapes(cn)
        ids = sorted(shapes)
        sp = placer.SequencePair(tuple(range(len(ids))), tuple(range(len(ids))))
        pcfg = config.loss.placer_config()
        positions = res.cluster_positions
        sa_seed = seeds["sa"]
        for r in range(max(1, config.sa.rounds)):
            sp, fp, loss = placer.run_sa(
                sp, res.graph, cn, outline, config.sa,
                sa_seed + r, positions, pcfg,
            )
            if r + 1 < config.sa.rounds:
                refs = {cid: fp.macro_placements[cid].pin_center() for cid in fp.macro_placements}
                positions = placer.global_place_clusters(
                    res.graph, cn, outline, config.gp.iterations,
                    seeds["gp"] + r + 1, macro_refs=refs,
                )
                fp.cluster_positions = dict(positions)
        res.cluster_positions = positions
        res.sequence_pair = sp
        res.floorplan = fp
        res.loss = loss

    def flip_stage():
        if not config.flip.enabled:
            res.flip_log = ()
            return
        f = config.flip
        names = {cid: res.clustered.label(cid) for cid in res.floorplan.macro_placements}
        res.flip_log = tuple(
            finetune.run_flipping_pass(
                res.floorplan, res.graph, f.alpha, f.beta, f.gamma, f.guard, names
            )
        )
        res.loss = placer.compute_loss(
            res.floorplan, res.graph, placer.macro_area_scales(res.clustered),
            config.loss.placer_config(),
        )

    def report_stage():
        fp = res.floorplan
        bin_size = max(fp.outline) / max(1, config.metrics.bins)
        res.report = metrics.emit_report(
            fp, res.graph, timings=seconds, flip_log=res.flip_log,
            loss=res.loss, bin_size=bin_size, capacity=config.metrics.capacity,
        )
        write("run.report.txt", res.report.to_text())
        write("run.report.json", res.report.to_json(include_timings=False))
        if config.metrics.dump_grid:
            write("run.congestion.csv", metrics.demand_csv(res.report.congestion_grid))

    stage_fns = {
        "parse": parse_stage,
        "cluster": cluster_stage,
        "extract": extract_stage,
        "gp": gp_stage,
        "sa": sa_stage,
        "flip": flip_stage,
        "report": report_stage,
    }
    for i, name in enumerate(STAGES):
        if i > stop:
            break
        run_stage(name, stage_fns[name])

    if res.floorplan is not None:
        write("run.placement.txt", _placement_text(res.clustered, res.floorplan))
        write("run.placement.json", _placement_json(res.clustered, res.floorplan))
        names = {cid: res.clustered.label(cid) for cid in range(len(res.clustered.clusters))}
        write("run.svg", render.render_svg(res.floorplan, res.graph, names=names))

    res.timing = StageTiming(seconds)
    if write_files:
        (out / "run.timings.json").write_text(
            json.dumps(res.timing.to_dict(), indent=2, sort_keys=True)
        )
        res.files["run.timings.json"] = out / "run.timings.json"
    return res
