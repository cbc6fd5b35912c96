"""Span recording around the public functions ``run_pipeline`` calls.

:meth:`Tracer.install` replaces module attributes (``dfplace.placer.run_sa`` and so
on) with wrappers that record a span -- name, start, end, parent span -- and
a few counts taken from the call's arguments and result, then call the
original.  The pipeline itself runs unmodified.  Spans stay in memory
(``Tracer.spans``) until the worker writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time

# (module, attribute, span name); the module is the one whose global the
# caller looks up, e.g. finetune calls its own imported ``total_hpwl``
TARGETS = (
    ("dfplace.pipeline", "run_pipeline", "pipeline"),
    ("dfplace.pipeline", "parse_netlist", "netlist.parse"),
    ("dfplace.pipeline", "bundle_buses", "netlist.bundle"),
    ("dfplace.clustering", "build_clusters", "clustering.build"),
    ("dfplace.clustering", "compute_cluster_edges", "clustering.edges"),
    ("dfplace.dataflow", "extract_dataflow", "dataflow.extract"),
    ("dfplace.placer", "global_place_clusters", "gp"),
    ("dfplace.placer", "run_sa", "sa"),
    ("dfplace.finetune", "run_flipping_pass", "finetune"),
    ("dfplace.finetune", "total_hpwl", "finetune.hpwl"),
    ("dfplace.placer", "compute_loss", "pipeline.loss"),
    ("dfplace.metrics", "emit_report", "metrics.report"),
    ("dfplace.metrics", "congestion", "metrics.congestion"),
    ("dfplace.render", "render_svg", "render.svg"),
)

_LOSS_KINDS = ("MM_direct", "MM_indirect", "MC", "MCC")


def sa_levels(schedule) -> int:
    """Temperature levels of one annealing run, replaying the cooling loop."""
    t, t_min, levels = 1.0, schedule.t_min_ratio, 0
    while t > t_min:
        levels += 1
        t *= schedule.cooling
    return levels


def _count(name, args, result) -> dict:
    """Counts derived from one call's inputs (bound by parameter name) and result."""
    if name == "netlist.parse":
        return {"instances": len(result.instances)}
    if name == "netlist.bundle":
        return {"nets_bundled": len(result.nets)}
    if name == "clustering.build":
        return {"clusters": len(result.clusters)}
    if name == "clustering.edges":
        return {"cluster_edges": len(result.edges)}
    if name == "dataflow.extract":
        counts = {f"edges_{k}": v for k, v in result.counts().items()}
        return {"edges": len(result.edges), **counts}
    if name == "gp":
        return {"cell_clusters": len(result)}
    if name == "sa":
        graph, cn, schedule = args["graph"], args["cn"], args["schedule"]
        n = len(args["initial_sp"].pos)
        moves = 0
        if schedule.moves_per_temp > 0 and n >= 2:
            moves = 100 + sa_levels(schedule) * schedule.moves_per_temp
        macros = {c.id for c in cn.clusters if c.kind == "macro_cluster" and not c.is_io}
        terms = sum(
            1 for e in graph.edges
            if e.kind in _LOSS_KINDS and (e.src in macros or e.dst in macros)
        )
        return {"macros": n, "moves": moves, "loss_terms": moves * terms,
                "final_loss": result[2].total}
    if name == "finetune":
        return {"flips_proposed": sum(1 for d in result if d.mode != "N"),
                "flips_applied": sum(1 for d in result if d.applied)}
    if name == "metrics.congestion":
        return {"bins": int(result[0].demand.size)}
    if name == "render.svg":
        return {"svg_kb": len(result.encode()) / 1024.0}
    return {}


_COUNT_ERRORS = (KeyError, AttributeError, TypeError, IndexError)


class Tracer:
    """Spans of one process; a span is a dict with name, parent index, start,
    end and the counts of its call.  A count that cannot be taken is left out
    and the reason kept under ``count_error``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = {}
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if name == "sa":
                    # loss of the starting sequence pair, taken outside the
                    # span: the same call with zero moves returns the start
                    start = signature.bind(*args, **kwargs)
                    start.arguments["schedule"] = dataclasses.replace(
                        bound.arguments["schedule"], moves_per_temp=0)
                    t0 = time.perf_counter()
                    extra["initial_loss"] = fn(*start.args, **start.kwargs)[2].total
                    extra["probe_s"] = time.perf_counter() - t0
            except _COUNT_ERRORS as exc:
                extra["count_error"] = f"{type(exc).__name__}: {exc}"
            idx = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(extra)
            if "count_error" not in extra:
                try:
                    span.update(_count(name, bound.arguments, result))
                except _COUNT_ERRORS as exc:
                    span["count_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; the wrappers stay for the life of the process."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(name, getattr(module, attr)))
