"""Derive each workload's pinned congestion capacity.

Usage (from the repository root)::

    python3 perfbench/calibrate.py [SEED ...]    # default seeds 1 2 3 4 5

Places design 0 of each workload seed, calibrates on its congestion grid the
capacity at which a share of the bins overflow (``dfplace.calibrate_capacity``)
and prints the median over the seeds rounded to two significant digits.  The
share is three quarters, so that ``overflow`` sums congestion over most of the
grid and does not hinge on a few bins near the threshold; ``anneal``'s sparse
grid leaves more than a quarter of its bins without demand, so it uses half.
The pipeline's ``"auto"`` uses 0.1, whose overflow sums only the hottest bins
and varied far more between seeds.  The numbers in ``workloads.py`` came from
running this once on the commit that added the benchmark; rerunning it on
later commits is for inspection only, because changing a pinned capacity
changes ``overflow``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work" / "calibrate"
OVERFLOW_BIN_FRACTION = {"anneal": 0.5, "ingest": 0.75, "fine_grain": 0.75}
sys.path.insert(0, str(ROOT / "src"))

from dfplace import PipelineConfig, calibrate_capacity, congestion, run_pipeline  # noqa: E402

from worker import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [1, 2, 3, 4, 5]
    try:
        for name in WORKLOADS:
            caps = []
            for seed in seeds:
                d = WORK / f"{name}{seed}"
                generate(name, seed, 0, d)
                cfg = json.loads((d / "config.json").read_text())
                res = run_pipeline(PipelineConfig.from_dict(cfg), write_files=False)
                bin_size = max(res.floorplan.outline) / cfg["metrics"]["bins"]
                grid, _ = congestion(res.floorplan, res.graph, bin_size, 1.0)
                caps.append(calibrate_capacity(grid, OVERFLOW_BIN_FRACTION[name]))
            pinned = float(f"{statistics.median(caps):.2g}")
            print(f"{name}: capacities {[round(c, 2) for c in caps]} -> pin {pinned}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
