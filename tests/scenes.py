"""Netlists that reach every branch of the net passes, for the oracle tests.

:func:`edge_case_netlist` is ``random_netlist`` plus nets that hit the cases
a per-net loop handles one at a time and an array pass must handle in bulk:
repeated sinks, sinks inside the driver's own cluster, nets with no external
sink (or no sink at all), multi-bit nets, ``base[i]`` groups with gaps, ties,
leading zeros and indices past int64, fanouts at and just above the
extraction limit, and names the extraction filters out.  The rows are
shuffled, so each seed puts the cases at other places in net order.
"""

import numpy as np

from dfplace import generate_design
from dfplace.dataflow import DEFAULT_FANOUT_LIMIT
from dfplace.netlist import Netlist, Nets
from dfplace.synth import random_netlist


def edge_case_netlist(seed: int, **random_kw) -> Netlist:
    nl = random_netlist(seed, **random_kw)
    cells = [i.id for i in nl.instances if i.is_cell]
    macros = [i for i in nl.instances if i.is_macro]
    pad = next(i.id for i in nl.instances if i.is_io)
    m0 = macros[0]
    # a second macro in another hierarchy leaf, so in another macro cluster
    m1 = next((m for m in macros if m.hierarchy_path != m0.hierarchy_path), macros[-1])
    m0, m1 = m0.id, m1.id
    c0, c1 = cells[0], cells[1]
    both = ((m0, "din"), (m1, "din"))

    def fanout(n):  # both macros, then cells (repeated as needed) up to n sinks
        return both + tuple((cells[k % len(cells)], "a") for k in range(n - 2))

    extra = [
        ("rep", (c0, "y"), ((m0, "din"), (m0, "din"), (c1, "a"), (c1, "b")), 1),
        ("self", (c0, "y"), ((c0, "a"), (c0, "b")), 1),
        ("nosink", (c1, "y"), (), 1),
        ("nosink[1]", (c1, "y"), (), 1),
        ("nosink[4]", (c1, "y"), (), 1),
        ("wide", (c0, "y"), both, 3),
        ("wide[3]", (c1, "y"), both, 4),
        ("bus", (m0, "dout"), ((c1, "a"),), 8),
        ("frommacro", (m0, "dout"), ((m1, "din"), (c0, "a")), 1),
        ("frompad", (pad, "p"), both, 2),
        # one group with gaps, a tie, leading zeros and a huge index; its
        # members list the same sinks in other orders
        ("g[5]", (c0, "y"), both, 1),
        ("g[0]", (c0, "y"), both[::-1], 1),
        ("g[2]", (c0, "y"), both, 1),
        ("g[007]", (c0, "y"), both[::-1], 1),
        ("g[0]", (c1, "y"), both, 1),  # another driver: another group
        ("g[00]", (c0, "y"), both, 1),
        ("g[123456789012345678901234]", (c0, "y"), both, 1),
        ("g[9]", (c0, "y"), both + ((m0, "din"),), 1),  # another multiset
        ("h[1]", (c0, "y"), both, 1),  # another base
        # 9 < 10 as numbers, not as strings: the bus keeps k[9]'s pins
        ("k[10]", (c1, "y"), ((m0, "din"), (c0, "a")), 1),
        ("k[9]", (c1, "y"), ((c0, "b"), (m0, "din")), 1),
        ("g[6]", (c0, "y"), both, 2),  # already wide: passes through
        ("nl[3]\n", (c0, "y"), ((m0, "din"),), 1),  # "$" matches before a final newline
        ("nl[1]\n", (c0, "y"), ((m0, "din"),), 1),
        ("a[1][2]", (c1, "y"), ((m1, "din"),), 1),
        ("at_limit", (c1, "y"), fanout(DEFAULT_FANOUT_LIMIT), 1),
        ("above_limit", (c1, "y"), fanout(DEFAULT_FANOUT_LIMIT + 1), 1),
        ("clk_gate", (c0, "y"), both, 1),
        ("rst[2]", (c0, "y"), both, 1),
        ("reset_n", (c1, "y"), both, 1),
    ]
    rows = [(n.base_name, n.driver, n.sinks, n.bit_width) for n in nl.nets] + extra
    order = np.random.default_rng(seed).permutation(len(rows))
    nets = Nets.from_rows(nl.instances, [rows[k] for k in order])
    return Netlist(nl.masters, nl.instances, nets, nl.outline, nl.io_side)


def oracle_scenes(seed: int) -> list[Netlist]:
    """The netlists an array net pass is checked on for ``seed``: a plain
    random one, an edge-case one, and a structured design with a clock,
    shared drivers and macro-macro buses."""
    return [
        random_netlist(seed, n_cells=24, n_macros=4, n_nets=45),
        edge_case_netlist(seed, n_cells=24, n_macros=4, n_nets=45),
        generate_design(n_modules=3, cells_per_module=10, seed=seed, mm_bus_width=2,
                        shared_driver_nets=2, include_clock=True),
    ]
