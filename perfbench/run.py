"""Placement benchmark for dfplace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload anneal|ingest|fine_grain \\
        --seed N --seconds S --trace 0|1

Closed loop, one caller: a flow engineer's sweep placing one design at a time.
The workload seed makes the designs (``workloads.py``); each placement runs
in a fresh process like one ``dfplace place config.json`` invocation and gets
only the generated JSON netlist and config files.  Placements repeat over the
designs until ``--seconds`` have passed (every design is placed at least
once, the first one twice for the determinism check).  Before the
placements, ``SETUP_PROBES`` processes only set up (import and config load),
so ``setup_s`` is a median over many samples even when placements are few.

Times are rescaled to a fixed machine speed.  Every worker times a fixed
reference kernel just before and after its measured work (``worker.py``);
``place_s`` and ``setup_s`` are the measured seconds times
``REFERENCE_S / reference seconds``, i.e. the seconds they would take on a
machine that runs the kernel in ``REFERENCE_S``.  On a shared machine whose
speed drifts by tens of percent over minutes this keeps the drift out of the
comparison between two commits; the raw wall-clock medians are printed too.

Every placement's outputs are checked (``check.py``) and compared byte for
byte, ``run.timings.json`` excepted, with the first placement of the same
design.  A placement that raises, fails a check or differs counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced placements (``tracer.py``) and prints the per-layer
metrics; ``trace.overhead_s`` is the traced minus the untraced placement
time.  Human-readable lines come first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_outputs
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170  # a run ends within 180 s even if a worker hangs
SETUP_PROBES = 8
REFERENCE_S = 0.1  # nominal seconds of worker.reference_seconds()
VOLATILE = {"run.timings.json"}

END_TO_END = {
    "place_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hpwl_total": "length",
    "loss_total": "loss",
    "overflow": "demand",
    "success_rate": "ratio",
}

LAYERS = ("netlist", "clustering", "dataflow", "gp", "sa", "finetune", "metrics",
          "render", "pipeline")

PER_LAYER = {
    "netlist.parse_s": "s", "netlist.bundle_s": "s", "netlist.input_mb": "MB",
    "netlist.parse_mb_per_s": "MB/s", "netlist.instances": "count",
    "netlist.nets_bundled": "count",
    "clustering.build_s": "s", "clustering.edges_s": "s",
    "clustering.clusters": "count", "clustering.cluster_edges": "count",
    "dataflow.extract_s": "s", "dataflow.edges": "count",
    "dataflow.edges_MM_direct": "count", "dataflow.edges_MM_indirect": "count",
    "dataflow.edges_MC": "count", "dataflow.edges_CC": "count",
    "dataflow.edges_MCC": "count",
    "gp.s": "s", "gp.calls": "count", "gp.cell_clusters": "count",
    "sa.s": "s", "sa.calls": "count", "sa.macros": "count", "sa.moves": "count",
    "sa.moves_per_s": "1/s", "sa.loss_terms": "count", "sa.loss_ratio": "ratio",
    "finetune.s": "s", "finetune.flips_proposed": "count",
    "finetune.flips_applied": "count", "finetune.apply_ratio": "ratio",
    "finetune.hpwl_evals": "count", "finetune.hpwl_s": "s",
    "metrics.report_s": "s", "metrics.congestion_s": "s", "metrics.bins": "count",
    "render.svg_s": "s", "render.svg_kb": "kB",
    "pipeline.loss_s": "s", "pipeline.write_s": "s", "pipeline.out_kb": "kB",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.place_s": "s",
    "trace.overhead_s": "s",
    "trace.stages_disagreeing": "count",
}

# pipeline stage in run.timings.json -> spans covering it ("gp" is the first
# gp call; later ones run inside the "sa" stage between annealing rounds, as
# does the tracer's own initial-loss probe before each annealing span)
STAGE_SPANS = {
    "parse": ("netlist.parse", "netlist.bundle"),
    "cluster": ("clustering.build", "clustering.edges"),
    "extract": ("dataflow.extract",),
    "gp": ("gp:first",),
    "sa": ("sa", "gp:rest", "sa:probe"),
    "flip": ("finetune", "pipeline.loss"),
    "report": ("metrics.report",),
}


class Runner:
    """Generates a workload's designs, places them and keeps every result."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.designs: list[Path] = []
        self.input_mb: list[float] = []  # size of each design's JSON netlist
        self.first_outputs: dict[int, Path] = {}  # design -> its first placement's outputs
        self.placements: list[dict] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.setup_probes: list[dict] = []  # set-up and reference seconds

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def _child(self, *argv) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *map(str, argv)],
            env=self.env, capture_output=True, text=True, timeout=max(1.0, self.time_left()),
        )

    def generate(self) -> None:
        for i in range(WORKLOADS[self.workload]["designs"]):
            out = WORK / f"design{i}"
            proc = self._child("generate", self.workload, self.seed, i, out)
            if proc.returncode != 0:
                raise RuntimeError(f"generating design {i} failed:\n{proc.stderr}")
            self.designs.append(out)
            self.input_mb.append((out / "design.json").stat().st_size / 1e6)

    def probe_setup(self, design: int) -> None:
        result_path = WORK / "setup.json"
        proc = self._child("setup", self.designs[design] / "config.json", result_path)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        self.setup_probes.append(json.loads(result_path.read_text()))

    def place(self, design: int, trace: bool) -> dict:
        n = len(self.placements)
        out = WORK / f"out{n}"
        result_path = WORK / f"result{n}.json"
        rec = {"design": design, "trace": trace, "problems": []}
        self.placements.append(rec)
        try:
            proc = self._child("place", self.designs[design] / "config.json", out,
                               result_path, *(["--trace"] if trace else []))
        except subprocess.TimeoutExpired:
            rec["problems"].append(f"placement still running at the {RUN_BUDGET_S} s run budget")
            return rec
        if result_path.exists():
            rec.update(json.loads(result_path.read_text()))
        if proc.returncode != 0 or "error" in rec:
            rec["problems"].append(
                rec.get("error") or f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
            return rec
        try:
            rec["problems"] += check_outputs(out, self.designs[design] / "macros.json")
            report = json.loads((out / "run.report.json").read_text())
            rec["quality"] = {
                "hpwl_total": report["hpwl_total"],
                "loss_total": report["loss"]["total"],
                "overflow": report["congestion_overflow"],
            }
            rec["timings"] = json.loads((out / "run.timings.json").read_text())["seconds"]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            rec["problems"].append(f"unreadable outputs: {type(exc).__name__}: {exc}")
            return rec
        rec["out_kb"] = sum(p.stat().st_size for p in out.iterdir()) / 1024.0
        first = self.first_outputs.get(design)
        if first is None:
            self.first_outputs[design] = out
        else:
            rec["problems"] += compare_outputs(first, out)
            shutil.rmtree(out)
        return rec

    @property
    def failed(self) -> int:
        return sum(1 for r in self.placements if r["problems"])


def compare_outputs(a: Path, b: Path) -> list[str]:
    """Byte differences between two output directories, volatile files aside."""
    names_a = {p.name for p in a.iterdir()} - VOLATILE
    names_b = {p.name for p in b.iterdir()} - VOLATILE
    if names_a != names_b:
        return [f"output files differ: {sorted(names_a ^ names_b)}"]
    return [f"{name} differs from the first placement of this design"
            for name in sorted(names_a)
            if (a / name).read_bytes() != (b / name).read_bytes()]


def drive(runner: Runner, seconds: float, trace: bool) -> None:
    """Place design 0 twice (the determinism check), then keep cycling over
    the designs until ``seconds`` have passed.  Untraced, every design is
    placed at least once.  Traced, each step is an untraced and a traced
    placement of one design, starting with design 0."""
    k = len(runner.designs)
    modes = (False, True) if trace else (False,)
    if not trace:
        for i in range(SETUP_PROBES):
            runner.probe_setup(i % k)
    start = time.perf_counter()
    runner.place(0, False)
    runner.place(0, False)
    if trace:
        runner.place(0, True)
    pending = 0 if trace else k - 1  # designs still to place once
    d = 1 % k
    while (pending > 0 or time.perf_counter() - start < seconds) and runner.time_left() > 0:
        for traced in modes:
            runner.place(d, traced)
        pending -= 1
        d = (d + 1) % k


def scaled(rec: dict, key: str):
    """``rec[key]`` seconds at the nominal machine speed (see the module
    docstring); None when the worker did not report them."""
    if key not in rec or "ref_s" not in rec:
        return None
    return rec[key] * REFERENCE_S / rec["ref_s"]


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(runner: Runner) -> tuple[dict, list[str]]:
    ok = [r for r in runner.placements if not r["problems"]]
    notes = []
    place = [x for x in (scaled(r, "place_s") for r in ok) if x is not None]
    n = len(place)
    # highest percentile with at least ten samples beyond it
    p = math.floor(100 * (1 - 10 / n)) if n >= 20 else None
    if p is not None:
        tail = statistics.quantiles(place, n=100)[p - 1]
        notes.append(f"place_s.p{p} {tail:.6f} s (n={n})")
    else:
        notes.append(f"place_s: n={n} placements, too few for a percentile above "
                     "the median with ten samples beyond it")
    firsts = {}
    for r in ok:
        firsts.setdefault(r["design"], r["quality"])
    quality = {key: (statistics.fmean(q[key] for q in firsts.values()) if firsts else None)
               for key in ("hpwl_total", "loss_total", "overflow")}
    notes.append(f"quality: mean over {len(firsts)} designs (deterministic per design)")
    attempted = len(runner.placements)
    fail_rate = runner.failed / attempted
    notes.append(f"fail_rate {fail_rate:.6f} ratio ({runner.failed}/{attempted})")
    setups = [*runner.setup_probes, *runner.placements]
    raw = {key: median_of(r.get(key) for r in rows) for key, rows in
           (("place_s", ok), ("setup_s", setups), ("ref_s", setups))}
    notes.append("wall clock, not rescaled: " + ", ".join(
        f"{key} median {'MISSING' if v is None else f'{v:.6f}'} s" for key, v in raw.items())
        + f" (ref_s is the reference kernel, nominal {REFERENCE_S} s)")
    values = {
        "place_s": median_of(place),
        "setup_s": median_of(scaled(r, "setup_s") for r in setups),
        "peak_rss_mb": median_of(r["peak_rss_mb"] for r in ok),
        **quality,
        "success_rate": 1.0 - fail_rate,
    }
    return values, notes


def _layer_values(rec: dict, input_mb: float) -> dict:
    """Per-layer values of one traced placement; None marks a missing span."""
    spans = rec["spans"]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(name):
        found = by_name.get(name)
        return sum(s["end"] - s["start"] for s in found) if found else None

    def total(name, key):
        found = by_name.get(name)
        if not found or any(key not in s for s in found):
            return None
        return sum(s[key] for s in found)

    def last(name, key):
        found = by_name.get(name)
        return found[-1].get(key) if found else None

    def ratio(a, b):
        return a / b if a is not None and b else None

    def add(*parts):
        return None if any(p is None for p in parts) else sum(parts)

    roots = [i for i, s in enumerate(spans) if s["name"] == "pipeline"]
    root = roots[0] if roots else None
    place = dur("pipeline")
    child_s = (sum(s["end"] - s["start"] for s in spans if s["parent"] == root)
               if root is not None else None)
    write = None if place is None else place - child_s
    gp_spans = by_name.get("gp", [])
    sa_calls = len(by_name.get("sa", [])) or None
    v = {
        "netlist.parse_s": dur("netlist.parse"),
        "netlist.bundle_s": dur("netlist.bundle"),
        "netlist.input_mb": input_mb,
        "netlist.parse_mb_per_s": ratio(input_mb, dur("netlist.parse")),
        "netlist.instances": last("netlist.parse", "instances"),
        "netlist.nets_bundled": last("netlist.bundle", "nets_bundled"),
        "clustering.build_s": dur("clustering.build"),
        "clustering.edges_s": dur("clustering.edges"),
        "clustering.clusters": last("clustering.build", "clusters"),
        "clustering.cluster_edges": last("clustering.edges", "cluster_edges"),
        "dataflow.extract_s": dur("dataflow.extract"),
        "dataflow.edges": last("dataflow.extract", "edges"),
        **{f"dataflow.edges_{k}": last("dataflow.extract", f"edges_{k}")
           for k in ("MM_direct", "MM_indirect", "MC", "CC", "MCC")},
        "gp.s": dur("gp"),
        "gp.calls": len(gp_spans) or None,
        "gp.cell_clusters": last("gp", "cell_clusters"),
        "sa.s": dur("sa"),
        "sa.calls": sa_calls,
        "sa.macros": last("sa", "macros"),
        "sa.moves": total("sa", "moves"),
        "sa.moves_per_s": ratio(total("sa", "moves"), dur("sa")),
        "sa.loss_terms": total("sa", "loss_terms"),
        "sa.loss_ratio": ratio(total("sa", "final_loss"), total("sa", "initial_loss")),
        "finetune.s": dur("finetune"),
        "finetune.flips_proposed": total("finetune", "flips_proposed"),
        "finetune.flips_applied": total("finetune", "flips_applied"),
        "finetune.apply_ratio": ratio(total("finetune", "flips_applied"),
                                      total("finetune", "flips_proposed")),
        "finetune.hpwl_evals": len(by_name.get("finetune.hpwl", [])) or None,
        "finetune.hpwl_s": dur("finetune.hpwl"),
        "metrics.report_s": dur("metrics.report"),
        "metrics.congestion_s": dur("metrics.congestion"),
        "metrics.bins": last("metrics.congestion", "bins"),
        "render.svg_s": dur("render.svg"),
        "render.svg_kb": total("render.svg", "svg_kb"),
        "pipeline.loss_s": dur("pipeline.loss"),
        "pipeline.write_s": write,
        "pipeline.out_kb": rec.get("out_kb"),
        "trace.place_s": place,
    }
    layer_s = {
        "netlist": add(v["netlist.parse_s"], v["netlist.bundle_s"]),
        "clustering": add(v["clustering.build_s"], v["clustering.edges_s"]),
        "dataflow": v["dataflow.extract_s"],
        "gp": v["gp.s"],
        "sa": v["sa.s"],
        "finetune": v["finetune.s"],
        "metrics": v["metrics.report_s"],
        "render": v["render.svg_s"],
        "pipeline": add(v["pipeline.loss_s"], write),
    }
    for layer, s in layer_s.items():
        v[f"share.{layer}"] = ratio(s, place)

    span_s = {"gp:first": gp_spans[0]["end"] - gp_spans[0]["start"] if gp_spans else None,
              "gp:rest": sum(s["end"] - s["start"] for s in gp_spans[1:]),
              "sa:probe": total("sa", "probe_s")}
    gaps = {}
    for stage, names in STAGE_SPANS.items():
        if stage in rec.get("timings", {}):
            covered = add(*(span_s[n] if n in span_s else dur(n) for n in names))
            if covered is not None:
                gaps[stage] = rec["timings"][stage] - covered
    return v, gaps


def per_layer(runner: Runner) -> tuple[dict, list[str]]:
    ok = [r for r in runner.placements if not r["problems"]]
    traced = [r for r in ok if r["trace"]]
    untraced = [r for r in ok if not r["trace"]]
    values: dict[str, list] = {}
    gaps: dict[str, list] = {}
    for r in traced:
        v, g = _layer_values(r, runner.input_mb[r["design"]])
        for k, x in v.items():
            values.setdefault(k, []).append(x)
        for k, x in g.items():
            gaps.setdefault(k, []).append(x)
    out = {k: (None if any(x is None for x in xs) else statistics.median(xs))
           for k, xs in values.items()}

    overheads = []
    for r in traced:
        base = median_of(scaled(u, "place_s") for u in untraced if u["design"] == r["design"])
        if base is not None:
            overheads.append(scaled(r, "place_s") - base)
    overhead = median_of(overheads)
    out["trace.overhead_s"] = overhead

    notes = [f"per-layer values: median over {len(traced)} traced placements; "
             f"overhead from {len(overheads)} traced/untraced pairs"]
    disagree = 0
    for stage, xs in gaps.items():
        gap = statistics.median(xs)
        flag = overhead is not None and abs(gap) > abs(overhead)
        disagree += flag
        notes.append(f"crosscheck {stage}: run.timings.json minus spans = {gap:.6f} s"
                     + (" (exceeds the tracing overhead)" if flag else ""))
    out["trace.stages_disagreeing"] = disagree if overhead is not None else None
    return out, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dfplace" / "__init__.py").is_file():
        print(f"run.py: no dfplace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        runner = Runner(args.workload, args.seed)
        t0 = time.perf_counter()
        runner.generate()
        print(f"generated {len(runner.designs)} {args.workload} designs "
              f"in {time.perf_counter() - t0:.2f} s")
        drive(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for i, r in enumerate(runner.placements):
        for problem in r["problems"]:
            print(f"FAILED placement {i} (design {r['design']}): {problem}")
    if args.trace:
        values, notes = per_layer(runner)
        units = PER_LAYER
    else:
        values, notes = end_to_end(runner)
        units = END_TO_END
    for note in notes:
        print(note)
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        print(f"metric {name} {'MISSING' if value is None else f'{value:.6g}'} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": len(runner.placements),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
