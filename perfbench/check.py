"""Output checks that do not use ``dfplace``.

:func:`check_outputs` reads ``run.clusters.txt``, ``run.placement.json``,
``run.graph.txt`` and ``run.report.json`` from one output directory plus the
design's ``macros.json`` and checks that

* every cluster is placed: each macro, cell and IO cluster listed in
  ``run.clusters.txt`` has a position, and every graph endpoint resolves;
* every macro lies inside the outline with its master's footprint;
* no two macros overlap;
* ``hpwl_total`` recomputed from the files equals the report's value.

The placement file lists macros, cell clusters and IO anchors each in
ascending cluster id, which is how positions map to graph ids.  Pin centers
come from the macro's master (each benchmark macro cluster holds one macro),
mirrored by orientation: FS mirrors x, FN mirrors y, S both.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EPS = 1e-6
MIRROR = {"N": (False, False), "FS": (True, False), "FN": (False, True), "S": (True, True)}
IO_PREFIX = "__io__/"


def _clusters(path: Path) -> list[tuple[int, str, int, str]]:
    rows = []
    for line in path.read_text().splitlines():
        cid, kind, size, _area, root = line.split(" ", 4)
        rows.append((int(cid), kind, int(size), root))
    return rows


def _edges(path: Path) -> list[tuple[int, ...]]:
    edges = []
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(parts) == 5:
            edges.append((int(parts[1]), int(parts[2])))
        elif len(parts) == 6:
            edges.append((int(parts[1]), int(parts[3]), int(parts[2])))
        else:
            raise ValueError(f"bad graph line: {line!r}")
    return edges


def _pin_center(macro: dict, master: dict) -> tuple[float, float]:
    w, h = macro["w"], macro["h"]
    pins = master["pins"]
    if pins:
        cx = sum(p[0] for p in pins) / len(pins)
        cy = sum(p[1] for p in pins) / len(pins)
    else:
        cx, cy = w / 2.0, h / 2.0
    mx, my = MIRROR[macro["orientation"]]
    if mx:
        cx = w - cx
    if my:
        cy = h - cy
    return macro["x"] + cx, macro["y"] + cy


def _overlap(a: dict, b: dict) -> bool:
    return (a["x"] < b["x"] + b["w"] - EPS and b["x"] < a["x"] + a["w"] - EPS
            and a["y"] < b["y"] + b["h"] - EPS and b["y"] < a["y"] + a["h"] - EPS)


def check_outputs(out_dir: Path, macros_path: Path) -> list[str]:
    """Problems found in one placement's outputs; empty when all checks pass."""
    design = json.loads(macros_path.read_text())
    masters = design["macros"]
    placement = json.loads((out_dir / "run.placement.json").read_text())
    report = json.loads((out_dir / "run.report.json").read_text())
    clusters = _clusters(out_dir / "run.clusters.txt")
    problems = []

    W, H = placement["outline"]["width"], placement["outline"]["height"]
    if [W, H] != design["outline"]:
        problems.append(f"outline {W}x{H} differs from the design's {design['outline']}")

    io_ids = sorted(c for c, _, _, root in clusters if root.startswith(IO_PREFIX))
    macro_ids = sorted(c for c, kind, _, root in clusters
                       if kind == "macro_cluster" and not root.startswith(IO_PREFIX))
    cell_ids = sorted(c for c, kind, _, _ in clusters if kind == "cell_cluster")
    sizes = {c: size for c, _, size, _ in clusters}
    listed = (("macros", macro_ids), ("clusters", cell_ids), ("io_anchors", io_ids))
    for key, ids in listed:
        if len(placement[key]) != len(ids):
            problems.append(f"{len(placement[key])} {key} placed, {len(ids)} clusters listed")
    if problems:
        return problems

    points: dict[int, tuple[float, float]] = {}
    for cid, m in zip(macro_ids, placement["macros"]):
        master = masters.get(m["name"])
        if sizes[cid] != 1 or master is None:
            problems.append(f"macro cluster {cid} ({m['name']}) is not a single design macro")
            continue
        if m["orientation"] not in MIRROR:
            problems.append(f"macro {m['name']}: unknown orientation {m['orientation']!r}")
            continue
        if not (math.isclose(m["w"], master["w"]) and math.isclose(m["h"], master["h"])):
            problems.append(f"macro {m['name']}: footprint {m['w']}x{m['h']} is not its master's")
        if (m["x"] < -EPS or m["y"] < -EPS
                or m["x"] + m["w"] > W + EPS or m["y"] + m["h"] > H + EPS):
            problems.append(f"macro {m['name']} lies outside the {W}x{H} outline")
        points[cid] = _pin_center(m, master)
    for cid, c in zip(cell_ids, placement["clusters"]):
        points[cid] = (c["cx"], c["cy"])
    for cid, a in zip(io_ids, placement["io_anchors"]):
        points[cid] = (a["x"], a["y"])

    macros = placement["macros"]
    for i in range(len(macros)):
        for j in range(i + 1, len(macros)):
            if _overlap(macros[i], macros[j]):
                problems.append(f"macros {macros[i]['name']} and {macros[j]['name']} overlap")

    hpwl = 0.0
    for edge in _edges(out_dir / "run.graph.txt"):
        missing = [c for c in edge if c not in points]
        if missing:
            problems.append(f"graph endpoints {missing} have no position")
            continue
        (ax, ay), (bx, by) = points[edge[0]], points[edge[1]]
        hpwl += abs(ax - bx) + abs(ay - by)
    if not math.isclose(hpwl, report["hpwl_total"], rel_tol=1e-9, abs_tol=1e-6):
        problems.append(f"hpwl_total {report['hpwl_total']!r} but the files give {hpwl!r}")
    return problems
