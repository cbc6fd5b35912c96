"""One benchmark step in its own process.

``worker.py generate WORKLOAD SEED INDEX DIR`` writes design ``INDEX`` of
the workload as ``DIR/design.json`` (the JSON netlist), ``DIR/config.json``
and ``DIR/macros.json`` (outline and macro masters, for the output checker).

``worker.py place CONFIG OUT_DIR RESULT [--trace]`` places one design the way
``dfplace place CONFIG --out OUT_DIR`` does and writes ``RESULT``: set-up
seconds (``import dfplace`` plus ``load_config``), placement seconds (the
``run_pipeline`` call), peak resident memory, the reference seconds (below)
and, with ``--trace``, the spans.

``worker.py setup CONFIG RESULT`` only sets up (``import dfplace`` plus
``load_config``) and writes the set-up and reference seconds to ``RESULT``.

The reference seconds are the mean time of a fixed interpreter-bound kernel
run just before and just after the measured work, in the same process.  The
runner divides by them to take out how fast the shared machine happens to
run at that moment.

``dfplace`` must be importable (the runner puts the repository's ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def generate(workload: str, seed: int, index: int, out: Path) -> None:
    from dfplace import generate_design, serialize_netlist

    from workloads import WORKLOADS, design_seed

    spec = WORKLOADS[workload]
    dseed = design_seed(seed, index)
    netlist = generate_design(seed=dseed, **spec["generator"])
    out.mkdir(parents=True, exist_ok=True)
    design = out / "design.json"
    design.write_text(serialize_netlist(netlist))
    config = {"netlist": str(design.resolve()), "seed": dseed, **spec["config"]}
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    macros = {
        inst.name: {
            "w": inst.master.width,
            "h": inst.master.height,
            "pins": [[dx, dy] for _, dx, dy in inst.master.pin_offsets],
        }
        for inst in netlist.instances
        if inst.is_macro
    }
    doc = {"outline": list(netlist.outline), "macros": macros}
    (out / "macros.json").write_text(json.dumps(doc, sort_keys=True))


def reference_seconds() -> float:
    """Seconds of a fixed kernel: integer and float arithmetic, tuple and
    string building, a sort, dict grouping and a JSON round trip, the kinds
    of work the pipeline does.  Its working set stays near 1 MB so that it
    does not raise the process's peak memory, and the garbage collector is
    off while it runs so that its time does not depend on how many objects
    the process holds."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = 1
        for _ in range(8):
            rows = []
            for _ in range(5000):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                rows.append((x % 997, x / 7.0, f"n{x % 251}"))
            rows.sort()
            groups: dict[str, list[float]] = {}
            for _, value, name in rows:
                groups.setdefault(name, []).append(value)
            json.loads(json.dumps(rows))
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def setup(config_path: str):
    """What every ``dfplace place`` invocation pays before placing: the import
    and the config load.  Returns the module, the config and the seconds."""
    t0 = time.perf_counter()
    import dfplace

    config = dfplace.load_config(config_path)
    return dfplace, config, time.perf_counter() - t0


def place(config_path: str, out_dir: str, result_path: str, trace: bool) -> int:
    dfplace, config, setup_s = setup(config_path)
    config.out_dir = out_dir

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result = {"setup_s": setup_s}
    code = 0
    ref_before = reference_seconds()
    t1 = time.perf_counter()
    try:
        dfplace.pipeline.run_pipeline(config)
    except Exception:  # noqa: BLE001 - reported to the runner as a failure
        result["error"] = traceback.format_exc(limit=-3)
        code = 1
    result["place_s"] = time.perf_counter() - t1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ref_s"] = (ref_before + reference_seconds()) / 2.0
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 5 and argv[0] == "generate":
        generate(argv[1], int(argv[2]), int(argv[3]), Path(argv[4]))
        return 0
    if len(argv) == 3 and argv[0] == "setup":
        ref_before = reference_seconds()
        setup_s = setup(argv[1])[2]
        ref_s = (ref_before + reference_seconds()) / 2.0
        Path(argv[2]).write_text(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
        return 0
    if len(argv) in (4, 5) and argv[0] == "place":
        trace = argv[4:] == ["--trace"]
        if len(argv) == 5 and not trace:
            print(__doc__, file=sys.stderr)
            return 2
        return place(argv[1], argv[2], argv[3], trace)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
