"""Synthetic design generation for experiments, demos and the test suite.

:func:`generate_design` builds a structured design: per-module cell groups
with their own macro, wide IO buses anchoring each module to an outline side,
macro-cell buses, inter-module cell-cell buses and a few macro-macro links.
That layout gives dataflow-aware placement something real to exploit.
:func:`random_netlist` produces unstructured connectivity for oracle tests.
"""

from __future__ import annotations

import math

import numpy as np

from .netlist import CELL, IO_PAD, MACRO, SIDES, Instance, Master, Netlist, Nets


def _cell_master() -> Master:
    return Master(
        "LUT", 1.0, 1.0, CELL,
        (("a", 0.0, 0.5), ("b", 0.0, 0.8), ("y", 1.0, 0.5)),
        frozenset({"y"}),
    )


def _pad_master() -> Master:
    return Master("PAD", 0.0, 0.0, IO_PAD, (("p", 0.0, 0.0),), frozenset({"p"}))


def _macro_master(idx: int, rng) -> Master:
    w = float(round(rng.uniform(8.0, 14.0), 2))
    h = float(round(rng.uniform(6.0, 12.0), 2))
    # pins bunched near the left edge so the pin center is off the footprint
    # center and orientation actually matters
    pins = (
        ("din", round(0.1 * w, 3), round(0.25 * h, 3)),
        ("dout", round(0.1 * w, 3), round(0.75 * h, 3)),
    )
    return Master(f"MAC{idx}", w, h, MACRO, pins, frozenset({"dout"}))


def generate_design(
    n_modules: int = 4,
    cells_per_module: int = 40,
    macros_per_module: int = 1,
    macro_bus_width: int = 8,
    io_bus_width: int = 16,
    cc_bus_width: int = 4,
    internal_nets: int = 10,
    mm_bus_width: int = 0,
    shared_driver_nets: int = 0,
    include_clock: bool = False,
    outline: tuple[float, float] | None = None,
    seed: int = 0,
) -> Netlist:
    """Build a hierarchical synthetic design with tunable coupling strength.

    All nets are emitted as scalar ``base[i]`` members so downstream bus
    bundling gets exercised on every run.
    """
    rng = np.random.default_rng(seed)
    cell = _cell_master()
    pad = _pad_master()
    macro_masters = [_macro_master(t, rng) for t in range(max(1, n_modules))]
    masters = {m.name: m for m in [cell, pad] + macro_masters}

    instances: list[Instance] = []
    io_side: list[tuple[int, str]] = []

    def add(name, master, path, side=None):
        inst = Instance(len(instances), name, master, path)
        instances.append(inst)
        if side is not None:
            io_side.append((inst.id, side))
        return inst.id

    cells: list[list[int]] = []
    macros: list[list[int]] = []
    pads_in, pads_out = [], []
    for m in range(n_modules):
        path = ("top", f"m{m}")
        cells.append([add(f"m{m}_c{i}", cell, path) for i in range(cells_per_module)])
        macros.append(
            [add(f"m{m}_mac{j}", macro_masters[m % len(macro_masters)], path)
             for j in range(macros_per_module)]
        )
        side = SIDES[m % len(SIDES)]
        pads_in.append(add(f"pad_in{m}", pad, ("top",), side))
        pads_out.append(add(f"pad_out{m}", pad, ("top",), side))
    clk_pad = add("pad_clk", pad, ("top",), "N") if include_clock else None

    rows = []  # (base name, driver, sinks, bit width)

    def net(base, driver, sinks):
        rows.append((base, driver, sinks, 1))

    for m in range(n_modules):
        mc = cells[m]
        for b in range(io_bus_width):
            net(f"in{m}[{b}]", (pads_in[m], "p"), [(mc[b % len(mc)], "a")])
        for b in range(io_bus_width):
            net(f"out{m}[{b}]", (mc[(b + 1) % len(mc)], "y"), [(pads_out[m], "p")])
        for j, mac in enumerate(macros[m]):
            for b in range(macro_bus_width):
                net(f"m{m}_q{j}[{b}]", (mac, "dout"), [(mc[(2 + b) % len(mc)], "a")])
            for b in range(macro_bus_width):
                net(f"m{m}_d{j}[{b}]", (mc[(5 + b) % len(mc)], "y"), [(mac, "din")])
        nxt = cells[(m + 1) % n_modules]
        if n_modules > 1:
            for b in range(cc_bus_width):
                net(f"cc{m}[{b}]", (mc[(7 + b) % len(mc)], "y"), [(nxt[b % len(nxt)], "b")])
        for i in range(internal_nets):
            a = mc[(3 * i) % len(mc)]
            b_ = mc[(3 * i + 1) % len(mc)]
            if a != b_:
                net(f"m{m}_w{i}", (a, "y"), [(b_, "b")])
        has_pair = n_modules > 1 and macros[m] and macros[(m + 1) % n_modules]
        if mm_bus_width and has_pair:
            for b in range(mm_bus_width):
                net(
                    f"mm{m}[{b}]",
                    (macros[m][0], "dout"),
                    [(macros[(m + 1) % n_modules][0], "din")],
                )
        if has_pair:
            for s in range(shared_driver_nets):
                net(
                    f"m{m}_sh{s}",
                    (mc[(11 + s) % len(mc)], "y"),
                    [(macros[m][0], "din"), (macros[(m + 1) % n_modules][0], "din")],
                )

    if include_clock:
        sinks = [(c, "b") for group in cells for c in group]
        sinks += [(mac, "din") for group in macros for mac in group]
        net("clk", (clk_pad, "p"), sinks)

    if outline is None:
        total_area = sum(i.master.area for i in instances)
        side_len = max(24.0, float(round(math.sqrt(total_area * 4.0), 1)))
        outline = (side_len, side_len)

    instances = tuple(instances)
    return Netlist(
        masters=tuple(masters[k] for k in sorted(masters)),
        instances=instances,
        nets=Nets.from_rows(instances, rows),
        outline=outline,
        io_side=tuple(sorted(io_side)),
    )


def random_netlist(
    seed: int,
    n_modules: int = 3,
    n_cells: int = 24,
    n_macros: int = 4,
    n_nets: int = 40,
    max_fanout: int = 4,
    n_pads: int = 2,
) -> Netlist:
    """Unstructured random design for extraction oracles and property tests."""
    rng = np.random.default_rng(seed)
    cell = _cell_master()
    pad = _pad_master()
    macs = [_macro_master(t, rng) for t in range(2)]
    masters = {m.name: m for m in [cell, pad] + macs}

    instances: list[Instance] = []
    io_side: list[tuple[int, str]] = []
    for i in range(n_cells):
        path = ("top", f"m{int(rng.integers(0, n_modules))}")
        instances.append(Instance(len(instances), f"c{i}", cell, path))
    for i in range(n_macros):
        path = ("top", f"m{int(rng.integers(0, n_modules))}")
        master = macs[int(rng.integers(0, len(macs)))]
        instances.append(Instance(len(instances), f"x{i}", master, path))
    for i in range(n_pads):
        inst = Instance(len(instances), f"p{i}", pad, ("top",))
        instances.append(inst)
        io_side.append((inst.id, SIDES[int(rng.integers(0, 4))]))

    def drive_pin(inst):
        return {"LUT": "y", "PAD": "p"}.get(inst.master.name, "dout")

    def sink_pin(inst):
        return {"LUT": "a", "PAD": "p"}.get(inst.master.name, "din")

    rows = []  # (base name, driver, sinks, bit width)
    for i in range(n_nets):
        d = instances[int(rng.integers(0, len(instances)))]
        fanout = int(rng.integers(1, max_fanout + 1))
        sink_ids = rng.choice(len(instances), size=min(fanout, len(instances)), replace=False)
        sinks = [(int(s), sink_pin(instances[int(s)])) for s in sink_ids if int(s) != d.id]
        if not sinks:
            continue
        if rng.random() < 0.5:
            base = f"b{int(rng.integers(0, 12))}[{int(rng.integers(0, 8))}]"
        else:
            base = f"n{i}"
        rows.append((base, (d.id, drive_pin(d)), sinks, 1))

    total_area = sum(i.master.area for i in instances)
    side_len = max(20.0, float(round(math.sqrt(total_area * 4.0), 1)))
    instances = tuple(instances)
    return Netlist(
        masters=tuple(masters[k] for k in sorted(masters)),
        instances=instances,
        nets=Nets.from_rows(instances, rows),
        outline=(side_len, side_len),
        io_side=tuple(sorted(io_side)),
    )
