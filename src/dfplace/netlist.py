"""Structural netlist data model, JSON ingestion, bus bundling.

The JSON document format is described in ``docs/netlist_schema.json``.  Both
parsers (this one and :mod:`dfplace.verilog`) produce the same validated
:class:`Netlist`; instance ids are dense integers assigned in document order.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from pathlib import Path

import numpy as np

from .errors import (
    BadOutline,
    DanglingPin,
    DuplicateName,
    MalformedDocument,
    MissingInstances,
    UnknownMaster,
)

MACRO = "macro"
CELL = "cell"
IO_PAD = "io_pad"
KINDS = (MACRO, CELL, IO_PAD)
SIDES = ("N", "E", "S", "W")
# widest port, wire or net in bits: a Verilog signal is elaborated one bit at
# a time, and a JSON ``bit_width`` is kept in an int64 column, where sums of
# widths this narrow stay exact even as float64
MAX_WIDTH = 65_536


@dataclass(frozen=True)
class Master:
    """Library element: footprint plus pin offsets from the lower-left corner."""

    name: str
    width: float
    height: float
    kind: str
    pin_offsets: tuple[tuple[str, float, float], ...]
    out_pins: frozenset[str] = frozenset()

    @property
    def area(self) -> float:
        return self.width * self.height

    @cached_property
    def pin_index(self) -> dict[str, int]:
        """Pin name -> index into ``pin_offsets``; the one membership rule for
        connections, and how the net table stores a pin."""
        return {p: k for k, (p, _, _) in enumerate(self.pin_offsets)}


@dataclass(frozen=True, slots=True)
class Instance:
    id: int
    name: str
    master: Master
    hierarchy_path: tuple[str, ...]

    @property
    def is_macro(self) -> bool:
        return self.master.kind == MACRO

    @property
    def is_cell(self) -> bool:
        return self.master.kind == CELL

    @property
    def is_io(self) -> bool:
        return self.master.kind == IO_PAD


@dataclass(frozen=True, slots=True)
class Net:
    """Directed (possibly bundled) connection: one driver pin, many sink pins.

    The row type of :class:`Nets`, built on demand when the table is indexed
    or iterated.
    """

    id: int
    base_name: str
    driver: tuple[int, str]
    sinks: tuple[tuple[int, str], ...]
    bit_width: int = 1


_COLUMNS = ("bit_widths", "driver", "driver_pin", "sink_start", "sink_inst", "sink_pin")


def _csr_take(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets of the rows ``rows`` of a CSR array with offsets ``start``,
    in that order, and the indices of their entries in the original array."""
    first = start[rows]
    count = start[rows + 1] - first
    new_start = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(count, out=new_start[1:])
    take = np.repeat(first - new_start[:-1], count) + np.arange(new_start[-1])
    return new_start, take


def group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys`` (all >= 0), ascending, and the index of
    each key's value among them.

    Sorts with the stable argsort that the placer runs too.  ``np.unique``
    would hash first, several times slower here, and it and ``np.sort``
    would page in more of numpy's sort code, which shows in peak memory.
    """
    order = np.argsort(keys, kind="stable")
    first = np.diff(keys[order], prepend=-1) != 0
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return keys[order[first]], inverse


class Nets:
    """The nets of a netlist as columns, one entry per net.

    Net ``k`` is named ``base_names[k]``, ``bit_widths[k]`` bits wide and
    driven by pin ``driver_pin[k]`` of instance ``driver[k]``; its sinks are
    entries ``sink_start[k]:sink_start[k + 1]`` of ``sink_inst`` and
    ``sink_pin`` (CSR form).  A pin is its index into the instance master's
    ``pin_offsets``.  The integer columns are read-only int64 arrays.
    Indexing or iterating the table builds :class:`Net` rows on demand.
    """

    __slots__ = ("instances", "base_names", *_COLUMNS)
    __hash__ = None

    def __init__(self, instances, base_names, bit_widths, driver, driver_pin,
                 sink_start, sink_inst, sink_pin):
        self.instances = instances  # resolves pin indices to names
        self.base_names = tuple(base_names)
        columns = (bit_widths, driver, driver_pin, sink_start, sink_inst, sink_pin)
        for name, values in zip(_COLUMNS, columns):
            array = np.array(values, dtype=np.int64)
            array.flags.writeable = False
            setattr(self, name, array)

    @classmethod
    def from_rows(cls, instances, rows) -> Nets:
        """The table of ``rows``: (base name, driver, sinks, bit width) tuples
        whose driver and sinks are (instance id, pin name) pairs."""
        names, widths, driver, driver_pin, start, sink_inst, sink_pin = [], [], [], [], [0], [], []
        for base, (d, pin), sinks, bw in rows:
            names.append(base)
            widths.append(bw)
            driver.append(d)
            driver_pin.append(instances[d].master.pin_index[pin])
            for i, p in sinks:
                sink_inst.append(i)
                sink_pin.append(instances[i].master.pin_index[p])
            start.append(len(sink_inst))
        return cls(instances, names, widths, driver, driver_pin, start, sink_inst, sink_pin)

    def select(self, rows, base_names, bit_widths) -> Nets:
        """The table of nets ``rows``, in that order, under new names and widths."""
        rows = np.asarray(rows, dtype=np.int64)
        start, take = _csr_take(self.sink_start, rows)
        return Nets(self.instances, base_names, bit_widths, self.driver[rows],
                    self.driver_pin[rows], start, self.sink_inst[take], self.sink_pin[take])

    def fanout(self) -> np.ndarray:
        """Sink count of each net, repeated sinks included."""
        return np.diff(self.sink_start)

    def sink_net(self) -> np.ndarray:
        """The net of each sink entry."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.fanout())

    def sink_groups(self, group_of: np.ndarray, keep: np.ndarray | None = None):
        """Each distinct (net, group of a sink instance) pair once, ordered by
        net, then group, as two arrays.  ``group_of`` maps an instance id to a
        group id >= 0; ``keep`` selects the sink entries that count."""
        n = int(group_of.max()) + 1 if len(group_of) else 1
        key = self.sink_net() * n + group_of[self.sink_inst]
        if keep is not None:
            key = key[keep]
        return np.divmod(group_keys(key)[0], n)

    def __len__(self) -> int:
        return len(self.base_names)

    def __getitem__(self, k: int) -> Net:
        k = range(len(self))[k]
        instances = self.instances

        def pin(i, p):
            return (i, instances[i].master.pin_offsets[p][0])

        lo, hi = self.sink_start[k : k + 2].tolist()
        sinks = map(pin, self.sink_inst[lo:hi].tolist(), self.sink_pin[lo:hi].tolist())
        return Net(k, self.base_names[k], pin(int(self.driver[k]), int(self.driver_pin[k])),
                   tuple(sinks), int(self.bit_widths[k]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Nets):
            return NotImplemented
        return (
            self.base_names == other.base_names
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)
            and self.instances == other.instances
        )

    def __repr__(self) -> str:
        return f"Nets({len(self)} nets, {len(self.sink_inst)} sinks)"


@dataclass(frozen=True)
class Netlist:
    masters: tuple[Master, ...]
    instances: tuple[Instance, ...]
    nets: Nets
    outline: tuple[float, float]
    io_side: tuple[tuple[int, str], ...]  # (instance id, side), sorted by id


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector while a parse builds its model.

    A decoded document and the netlist model built from it are acyclic
    (dicts, lists, tuples, frozen dataclasses, arrays): reference counting
    frees them, so collector passes during a parse find nothing and only walk
    the growing heap.  The caller's setting is restored in a ``finally``.
    When the collector was on and the block ends normally, one pass over the
    two young generations then moves the model to the old one at once,
    inside the parse, rather than in two later passes wherever an allocation
    happens to trigger them.  ``gc.freeze()`` would instead act on the whole
    process and keep a caller's cycles alive for good.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
    if was_enabled:
        gc.collect(1)


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------

_TOP_KEYS = {"outline", "masters", "instances", "nets", "io_side"}
# what a value of the wrong type or shape raises where it is read
_SHAPE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _number(v) -> float:
    """A finite JSON number; bools and numeric strings are not numbers."""
    if type(v) is not int and type(v) is not float:
        raise TypeError(f"{v!r} is not a number")
    if not math.isfinite(v):
        raise ValueError(f"{v!r} is not finite")
    return float(v)


def _string(v) -> str:
    if type(v) is not str:
        raise TypeError(f"{v!r} is not a string")
    return v


def _parse_outline(doc: dict) -> tuple[float, float]:
    """The one outline rule of both parsers: positive finite width and height."""
    raw = doc.get("outline")
    if not isinstance(raw, dict):
        raise BadOutline(f"missing or malformed 'outline': {raw!r}")
    try:
        outline = (_number(raw["width"]), _number(raw["height"]))
    except _SHAPE_ERRORS as exc:
        raise BadOutline(f"outline needs numeric width/height, got {raw!r} ({exc})") from exc
    if outline[0] <= 0 or outline[1] <= 0:
        raise BadOutline(f"outline must be positive, got {outline}")
    return outline


def _parse_master(entry: dict) -> Master:
    try:
        name = _string(entry["name"])
        width = _number(entry["width"])
        height = _number(entry["height"])
        kind = entry["kind"]
        pins = [(_string(p), _number(dx), _number(dy)) for p, dx, dy in entry["pin_offsets"]]
        out_pins = entry.get("out_pins", [])
        if not isinstance(out_pins, (list, tuple)):
            raise TypeError(f"out_pins {out_pins!r} is not a list")
        out_pins = frozenset(map(_string, out_pins))
    except _SHAPE_ERRORS as exc:
        raise MalformedDocument(f"bad master entry: {entry!r} ({exc})") from exc
    if kind not in KINDS:
        raise MalformedDocument(f"master '{name}': unknown kind '{kind}'")
    if kind == IO_PAD:
        if width != 0 or height != 0:
            raise MalformedDocument(f"io_pad master '{name}' must have zero area")
    elif width <= 0 or height <= 0:
        raise MalformedDocument(f"master '{name}' must have positive width and height")
    seen = set()
    for pname, dx, dy in pins:
        if pname in seen:
            raise DuplicateName(f"master '{name}': duplicate pin '{pname}'")
        seen.add(pname)
        if not (0.0 <= dx <= width and 0.0 <= dy <= height):
            raise MalformedDocument(
                f"master '{name}': pin '{pname}' offset ({dx}, {dy}) outside footprint"
            )
    for op in sorted(out_pins):
        if op not in seen:
            raise MalformedDocument(f"master '{name}': out_pin '{op}' is not a pin")
    return Master(name, width, height, kind, tuple(pins), out_pins)


def _parse_masters(doc: dict) -> dict[str, Master]:
    """The ``masters`` list of a document or geometry sidecar, by name."""
    masters: dict[str, Master] = {}
    for entry in _object(doc, "masters", list):
        m = _parse_master(entry)
        if m.name in masters:
            raise DuplicateName(f"duplicate master '{m.name}'")
        masters[m.name] = m
    return masters


def _object(doc: dict, key: str, kind: type):
    """``doc[key]`` (empty when absent), which must be a ``kind``."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        raise MalformedDocument(f"'{key}' must be a {kind.__name__}, got {value!r}")
    return value


def _intern_path(paths: dict, raw, inst_name: str) -> tuple[str, ...]:
    """Check a hierarchy path the first time it is seen and keep one tuple of it."""
    if not isinstance(raw, (list, tuple)) or not all(type(p) is str for p in raw):
        raise MalformedDocument(
            f"instance '{inst_name}': hierarchy_path must be a list of strings, got {raw!r}"
        )
    if not raw:
        raise MalformedDocument(f"instance '{inst_name}': empty hierarchy_path")
    paths[tuple(raw)] = path = tuple(raw)
    return path


@collector_paused()
def parse_netlist(source: str | os.PathLike) -> Netlist:
    """Parse and validate the JSON netlist document format.

    ``source`` is the document text or the path of a file holding it; a file
    is read as bytes and decoded by the JSON decoder (UTF-8, -16 or -32).

    Raises MissingInstances, DanglingPin, DuplicateName, BadOutline or
    MalformedDocument on invalid input, including a value of the wrong type
    or shape.
    """
    if isinstance(source, os.PathLike):
        source = Path(source).read_bytes()
    try:
        doc = json.loads(source)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise MalformedDocument(f"unknown top-level keys: {sorted(unknown)}")

    outline = _parse_outline(doc)
    masters = _parse_masters(doc)

    raw_instances = _object(doc, "instances", list)
    if not raw_instances:
        raise MissingInstances("netlist has no instances")
    instances: list[Instance] = []
    by_name: dict[str, int] = {}  # instance name -> id
    pin_maps: list[dict[str, int]] = []  # per instance id, its master's pin_index
    paths: dict[tuple[str, ...], tuple[str, ...]] = {}  # one tuple per distinct path
    for idx, entry in enumerate(raw_instances):
        try:
            name = entry["name"]
            master_name = entry["master"]
            master = masters.get(master_name)
            raw_path = entry["hierarchy_path"]
            # a string would match the cached tuple of its characters
            path = paths.get(tuple(raw_path)) if type(raw_path) is list else None
        except (KeyError, TypeError) as exc:
            raise MalformedDocument(f"bad instance entry: {entry!r} ({exc})") from exc
        if type(name) is not str:
            raise MalformedDocument(f"instance name must be a string, got {name!r}")
        if name in by_name:
            raise DuplicateName(f"duplicate instance '{name}'")
        if master is None:
            raise UnknownMaster(f"instance '{name}': unknown master '{master_name}'")
        path = path or _intern_path(paths, raw_path, name)
        instances.append(Instance(idx, name, master, path))
        by_name[name] = idx
        pin_maps.append(master.pin_index)
    instances = tuple(instances)

    # the net columns, filled in document order; each net's endpoints are its
    # driver, then its sinks
    base_names: list[str] = []
    bit_widths: list[int] = []
    ends = [0]  # endpoint offsets, one past each net's last
    ep_inst: list[int] = []
    ep_pin: list[int] = []
    for entry in _object(doc, "nets", list):
        try:
            base = entry["base_name"]
            driver_raw = entry["driver"]
            sinks_raw = entry["sinks"]
            bw = entry.get("bit_width", 1)
            if type(base) is not str:
                raise MalformedDocument(f"net base_name must be a string, got {base!r}")
            if type(bw) is not int or bw < 1:
                raise MalformedDocument(f"net '{base}': bit_width must be an integer >= 1")
            if bw > MAX_WIDTH:
                raise MalformedDocument(f"net '{base}': bit_width {bw} is above {MAX_WIDTH}")
            for ep in chain((driver_raw,), sinks_raw):
                if type(ep) is not list:  # a two-character string would unpack too
                    raise TypeError(f"endpoint {ep!r} is not a list")
                inst_name, pin = ep
                iid = by_name.get(inst_name)
                if iid is None:
                    raise DanglingPin(f"net '{base}': unknown instance '{inst_name}'")
                k = pin_maps[iid].get(pin)
                if k is None:
                    raise DanglingPin(f"net '{base}': instance '{inst_name}' has no pin '{pin}'")
                ep_inst.append(iid)
                ep_pin.append(k)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocument(f"bad net entry: {entry!r} ({exc})") from exc
        base_names.append(base)
        bit_widths.append(bw)
        ends.append(len(ep_inst))
    ends = np.array(ends, dtype=np.int64)
    ep_inst = np.array(ep_inst, dtype=np.int64)
    ep_pin = np.array(ep_pin, dtype=np.int64)
    first = ends[:-1]  # each net's driver
    nets = Nets(
        instances, base_names, bit_widths, ep_inst[first], ep_pin[first],
        ends - np.arange(len(ends)),  # each earlier net drops its driver
        np.delete(ep_inst, first), np.delete(ep_pin, first),
    )

    io_side = []
    raw_sides = _object(doc, "io_side", dict)
    for name in sorted(raw_sides):
        iid = by_name.get(name)
        if iid is None:
            raise DanglingPin(f"io_side references unknown instance '{name}'")
        side = raw_sides[name]
        if side not in SIDES:
            raise MalformedDocument(f"io_side for '{name}': bad side '{side}'")
        if not instances[iid].is_io:
            raise MalformedDocument(f"io_side given for non-IO instance '{name}'")
        io_side.append((iid, side))
    sided = {iid for iid, _ in io_side}
    for inst in instances:
        if inst.is_io and inst.id not in sided:
            raise MalformedDocument(f"IO instance '{inst.name}' has no io_side entry")

    return Netlist(
        masters=tuple(masters[k] for k in sorted(masters)),
        instances=instances,
        nets=nets,
        outline=outline,
        io_side=tuple(sorted(io_side)),
    )


def serialize_netlist(netlist: Netlist) -> str:
    """Serialize to the JSON document format; parse(serialize(n)) == n."""
    inst_name = {i.id: i.name for i in netlist.instances}
    doc = {
        "outline": {"width": netlist.outline[0], "height": netlist.outline[1]},
        "masters": [
            {
                "name": m.name,
                "width": m.width,
                "height": m.height,
                "kind": m.kind,
                "pin_offsets": [[p, dx, dy] for p, dx, dy in m.pin_offsets],
                **({"out_pins": sorted(m.out_pins)} if m.out_pins else {}),
            }
            for m in netlist.masters
        ],
        "instances": [
            {
                "name": i.name,
                "master": i.master.name,
                "hierarchy_path": list(i.hierarchy_path),
            }
            for i in netlist.instances
        ],
        "nets": [
            {
                "base_name": n.base_name,
                "driver": [inst_name[n.driver[0]], n.driver[1]],
                "sinks": [[inst_name[i], p] for i, p in n.sinks],
                "bit_width": n.bit_width,
            }
            for n in netlist.nets
        ],
        "io_side": {inst_name[i]: side for i, side in netlist.io_side},
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Bus bundling
# ---------------------------------------------------------------------------

# a leading zero of the index is not captured, so (length, digits) orders
# the indices as numbers
_INDEXED = re.compile(r"^(?P<base>.+)\[0*(?P<idx>\d+)\]$")


def bundle_buses(netlist: Netlist) -> Netlist:
    """Merge indexed scalar nets ``base[i]`` that share endpoints into one bus net.

    Grouping key is (base name, driver instance, sink instance multiset); pins
    and index gaps are ignored, so ``d[0]`` and ``d[2]`` with the same endpoints
    still form a 2-bit bus.  Unindexed or already-wide nets pass through.  The
    merged net keeps the pins of its lowest-indexed member and takes the place
    of its first member in net order.
    """
    nets = netlist.nets
    names = nets.base_names
    # only a name ending in "]" (or in "]\n", which "$" allows) can match;
    # testing that first skips most of the regex work
    closed = np.fromiter(map(str.endswith, names, repeat(("]", "]\n"))), dtype=bool, count=len(names))
    tried = np.flatnonzero(closed & (nets.bit_widths == 1))
    found = [_INDEXED.match(names[k]) for k in tried.tolist()]
    hit = np.fromiter(map(bool, found), dtype=bool, count=len(found))
    cand = tried[hit]  # the nets to group
    found = list(compress(found, hit))
    bases = [m["base"] for m in found]
    vocab = {b: i for i, b in enumerate(dict.fromkeys(bases))}
    base_id = np.fromiter(map(vocab.__getitem__, bases), dtype=np.int64, count=len(bases))

    # each candidate's sink instances, sorted, one fanout at a time: a group
    # is one distinct row of (base, driver, sinks)
    start, take = _csr_take(nets.sink_start, cand)
    owner = np.repeat(np.arange(len(cand)), np.diff(start))
    sinks = nets.sink_inst[take]
    sinks = sinks[np.lexsort((sinks, owner))]
    fanout = np.diff(start)
    group = np.empty(len(cand), dtype=np.int64)
    n_groups = 0
    for f in np.flatnonzero(np.bincount(fanout)).tolist():
        members = np.flatnonzero(fanout == f)
        rows = np.column_stack((
            base_id[members], nets.driver[cand[members]],
            sinks[start[members][:, None] + np.arange(f)],
        ))
        _, inverse = np.unique(rows, axis=0, return_inverse=True)
        group[members] = n_groups + inverse.reshape(-1)
        n_groups += int(inverse.max()) + 1

    # members by group, then index as a number, then (the sort is stable)
    # net order: each group's first is the lowest-indexed member, whose pins
    # the bus keeps
    digits = [m["idx"] for m in found]
    order = np.lexsort((
        np.array(digits, dtype=str),
        np.fromiter(map(len, digits), dtype=np.int64, count=len(digits)), group,
    ))
    head = np.flatnonzero(np.diff(group[order], prepend=-1))
    _, first = np.unique(group, return_index=True)  # candidates ascend
    slot = cand[first]  # where each bus goes: its first member's place

    src = np.arange(len(nets))
    src[slot] = cand[order[head]]
    widths = nets.bit_widths.copy()
    widths[slot] = np.diff(head, append=len(order))
    renamed = np.array(names, dtype=object)
    renamed[slot] = [bases[k] for k in order[head].tolist()]
    keep = np.ones(len(nets), dtype=bool)
    keep[cand] = False
    keep[slot] = True
    out = nets.select(src[keep], renamed[keep].tolist(), widths[keep])
    return Netlist(netlist.masters, netlist.instances, out, netlist.outline, netlist.io_side)
