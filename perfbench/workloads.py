"""Workload definitions: generator parameters and pipeline config per workload.

Each workload places ``designs`` distinct synthetic designs.  Design ``i`` of a
run with workload seed ``s`` is generated with ``design_seed(s, i)``, which is
also its pipeline seed, so the same workload seed always gives the same
inputs.  Every macro cluster holds exactly one macro (one macro per module,
``max_macros`` above one), which lets the output checker recover pin centers
from the design's own masters.

Congestion capacities are pinned numbers, calibrated once on the seed
commit with ``calibrate.py`` (see README.md); ``"auto"`` capacity is not
comparable across runs.
"""

from __future__ import annotations

WORKLOADS = {
    # SA-bound: 16 single-macro clusters, ~200 dataflow edges.  The schedule
    # keeps the paper's cooling (0.97), t_min ratio (1e-4) and 2 rounds; moves
    # per level are cut from 200 to 50 so one placement takes seconds.
    "anneal": {
        "designs": 6,
        "generator": {
            "n_modules": 16, "cells_per_module": 60, "macro_bus_width": 8,
            "io_bus_width": 8, "cc_bus_width": 4, "internal_nets": 20,
            "mm_bus_width": 4, "shared_driver_nets": 2,
        },
        "config": {
            "sa": {"cooling": 0.97, "moves_per_temp": 50, "rounds": 2},
            "metrics": {"bins": 32, "capacity": 18.0},
        },
    },
    # Ingestion-bound: ~50k instances, ~16 MB of JSON, ~200 coarse clusters,
    # a short SA over 20 macros.  At ~100k instances a run held only 4
    # placements, too few for a steady median.
    "ingest": {
        "designs": 4,
        "generator": {
            "n_modules": 20, "cells_per_module": 2500, "macro_bus_width": 16,
            "io_bus_width": 32, "cc_bus_width": 8, "internal_nets": 2400,
        },
        "config": {
            "clustering": {"min_cells": 150, "max_cells": 300},
            "sa": {"cooling": 0.85, "moves_per_temp": 20, "rounds": 1},
            "metrics": {"bins": 32, "capacity": 320.0},
        },
    },
    # Spread-out cost: ~12k instances with a clock net and tiny cluster
    # thresholds give ~1,000 clusters and ~4.4k edges; 64 congestion bins
    # and a short SA over 24 macros whose moves each evaluate ~800 terms.
    "fine_grain": {
        "designs": 6,
        "generator": {
            "n_modules": 24, "cells_per_module": 500, "macro_bus_width": 8,
            "io_bus_width": 16, "cc_bus_width": 4, "internal_nets": 200,
            "mm_bus_width": 4, "shared_driver_nets": 2, "include_clock": True,
        },
        "config": {
            "clustering": {"min_cells": 6, "max_cells": 12},
            "sa": {"cooling": 0.8, "moves_per_temp": 20, "rounds": 1},
            "metrics": {"bins": 64, "capacity": 45.0},
        },
    },
}


def design_seed(seed: int, index: int) -> int:
    """Generator and pipeline seed of design ``index`` in a run seeded ``seed``."""
    return seed * 1000 + index
