"""Structural netlist data model, JSON and structural-Verilog ingestion, bus bundling.

The JSON document format is described in ``docs/netlist_schema.json``.  All
parsers produce the same validated :class:`Netlist`; instance ids are dense
integers assigned in document order.
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
from pathlib import Path

from .errors import (
    BadOutline,
    DanglingPin,
    DuplicateName,
    MalformedDocument,
    MissingInstances,
    UnknownMaster,
    UnsupportedConstruct,
)

MACRO = "macro"
CELL = "cell"
IO_PAD = "io_pad"
KINDS = (MACRO, CELL, IO_PAD)
SIDES = ("N", "E", "S", "W")


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
    def pin_names(self) -> frozenset[str]:
        """Names of the pins; the one membership rule for connections."""
        return frozenset(p for p, _, _ in self.pin_offsets)


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
    """Directed (possibly bundled) connection: one driver pin, many sink pins."""

    id: int
    base_name: str
    driver: tuple[int, str]
    sinks: tuple[tuple[int, str], ...]
    bit_width: int = 1


@dataclass(frozen=True)
class Netlist:
    masters: tuple[Master, ...]
    instances: tuple[Instance, ...]
    nets: tuple[Net, ...]
    outline: tuple[float, float]
    io_side: tuple[tuple[int, str], ...]  # (instance id, side), sorted by id

    def io_side_of(self, inst_id: int) -> str | None:
        for iid, side in self.io_side:
            if iid == inst_id:
                return side
        return None


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector while a parse builds its model.

    A decoded document and the netlist model built from it are acyclic
    (dicts, lists, tuples, frozen dataclasses): reference counting frees
    them, so collector passes during a parse find nothing and only walk the
    growing heap.  The caller's setting is restored in a ``finally``.  When
    the collector was on and the block ends normally, one pass over the two
    young generations then moves the model to the old one at once, inside
    the parse, rather than in two later passes wherever an allocation
    happens to trigger them; it also frees the Verilog elaborator's
    self-referencing closure.  ``gc.freeze()`` would instead act on the
    whole process and keep a caller's cycles alive for good.
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


def _resolve_endpoint(ep, by_name: dict[str, Instance], net_name: str) -> tuple[int, str]:
    if type(ep) is not list:  # a two-character string would unpack too
        raise TypeError(f"endpoint {ep!r} is not a list")
    inst_name, pin = ep
    inst = by_name.get(inst_name)
    if inst is None:
        raise DanglingPin(f"net '{net_name}': unknown instance '{inst_name}'")
    if pin not in inst.master.pin_names:
        raise DanglingPin(
            f"net '{net_name}': instance '{inst_name}' has no pin '{pin}'"
        )
    return inst.id, pin


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
    by_name: dict[str, Instance] = {}
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
        inst = Instance(idx, name, master, path)
        instances.append(inst)
        by_name[name] = inst

    nets: list[Net] = []
    for idx, entry in enumerate(_object(doc, "nets", list)):
        try:
            base = entry["base_name"]
            driver_raw = entry["driver"]
            sinks_raw = entry["sinks"]
            bw = entry.get("bit_width", 1)
            if type(base) is not str:
                raise MalformedDocument(f"net base_name must be a string, got {base!r}")
            if type(bw) is not int or bw < 1:
                raise MalformedDocument(f"net '{base}': bit_width must be an integer >= 1")
            driver = _resolve_endpoint(driver_raw, by_name, base)
            sinks = tuple([_resolve_endpoint(s, by_name, base) for s in sinks_raw])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocument(f"bad net entry: {entry!r} ({exc})") from exc
        nets.append(Net(idx, base, driver, sinks, bw))

    io_side = []
    raw_sides = _object(doc, "io_side", dict)
    for name in sorted(raw_sides):
        inst = by_name.get(name)
        if inst is None:
            raise DanglingPin(f"io_side references unknown instance '{name}'")
        side = raw_sides[name]
        if side not in SIDES:
            raise MalformedDocument(f"io_side for '{name}': bad side '{side}'")
        if not inst.is_io:
            raise MalformedDocument(f"io_side given for non-IO instance '{name}'")
        io_side.append((inst.id, side))
    sided = {iid for iid, _ in io_side}
    for inst in instances:
        if inst.is_io and inst.id not in sided:
            raise MalformedDocument(f"IO instance '{inst.name}' has no io_side entry")

    return Netlist(
        masters=tuple(masters[k] for k in sorted(masters)),
        instances=tuple(instances),
        nets=tuple(nets),
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

_INDEXED = re.compile(r"^(?P<base>.+)\[(?P<idx>\d+)\]$")


def bundle_buses(netlist: Netlist) -> Netlist:
    """Merge indexed scalar nets ``base[i]`` that share endpoints into one bus net.

    Grouping key is (base name, driver instance, sink instance multiset); pins
    and index gaps are ignored, so ``d[0]`` and ``d[2]`` with the same endpoints
    still form a 2-bit bus.  Unindexed or already-wide nets pass through.  The
    merged net keeps the pins of its lowest-indexed member.
    """
    slots: list = []  # pass-through Net, or group key (first occurrence order)
    groups: dict[tuple, list[tuple[int, Net]]] = {}
    for net in netlist.nets:
        m = _INDEXED.match(net.base_name)
        if net.bit_width != 1 or not m:
            slots.append(net)
            continue
        key = (
            m.group("base"),
            net.driver[0],
            tuple(sorted(i for i, _ in net.sinks)),
        )
        if key not in groups:
            groups[key] = []
            slots.append(key)
        groups[key].append((int(m.group("idx")), net))

    out: list[Net] = []
    for slot in slots:
        if isinstance(slot, Net):
            if slot.id != len(out):
                slot = Net(len(out), slot.base_name, slot.driver, slot.sinks, slot.bit_width)
            out.append(slot)
        else:
            members = sorted(groups[slot], key=lambda t: t[0])
            first = members[0][1]
            out.append(
                Net(len(out), slot[0], first.driver, first.sinks, len(members))
            )
    return Netlist(netlist.masters, netlist.instances, tuple(out), netlist.outline, netlist.io_side)


# ---------------------------------------------------------------------------
# Structural Verilog subset
# ---------------------------------------------------------------------------

_BEHAVIORAL = {
    "always", "initial", "assign", "reg", "if", "else", "case", "casez",
    "casex", "for", "while", "repeat", "function", "task", "specify",
    "generate", "genvar", "parameter", "localparam",
}

_ID = r"[A-Za-z_][A-Za-z0-9_$]*"
_DIRECTION = re.compile(r"(input|output|inout)\b")  # a range may follow directly
_RANGE = re.compile(r"\[\s*(\d+)\s*:\s*(\d+)\s*\]")


@dataclass
class _ModuleDef:
    name: str
    ports: list  # (name, direction, width) in declaration order
    wires: dict  # name -> width
    insts: list  # (target, inst name, {port: (sig, bit|None)}, line)


def _strip_comments(text: str) -> str:
    # keep newlines so reported line numbers stay correct
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def _split_statements(text: str):
    """Yield (statement, line number) pairs, line counted at statement start."""
    line = 1
    buf = []
    start = 1
    started = False
    for ch in text:
        if ch == "\n":
            line += 1
        if ch == ";":
            stmt = "".join(buf).strip()
            if stmt:
                yield stmt, start
            buf = []
            started = False
            continue
        if not started and not ch.isspace():
            start = line
            started = True
        buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        yield tail, start


def _parse_width(decl: str) -> tuple[int, str]:
    m = _RANGE.search(decl)
    if not m:
        return 1, decl
    hi, lo = int(m.group(1)), int(m.group(2))
    return abs(hi - lo) + 1, decl[: m.start()] + decl[m.end():]


def _parse_port_decl(stmt: str, ports: dict, order: list) -> tuple[str, int]:
    """Record the ports that ``stmt`` declares; returns (direction, width)."""
    m = _DIRECTION.match(stmt)
    direction = m.group(1)
    width, rest = _parse_width(stmt[m.end():])
    for name in [n.strip() for n in rest.split(",") if n.strip()]:
        if not re.fullmatch(_ID, name):
            raise UnsupportedConstruct(f"bad port name '{name}'")
        if name not in ports:
            order.append(name)
        ports[name] = (direction, width)
    return direction, width


def _parse_modules(text: str) -> dict[str, _ModuleDef]:
    modules: dict[str, _ModuleDef] = {}
    current: _ModuleDef | None = None
    port_info: dict = {}
    port_order: list = []
    for stmt, line in _split_statements(text):
        head = stmt.split(None, 1)[0] if stmt.split() else ""
        if re.match(r"endmodule\b", stmt):
            if current is None:
                raise UnsupportedConstruct(f"line {line}: endmodule outside module")
            current.ports = [(n, *port_info[n]) for n in port_order]
            modules[current.name] = current
            current = None
            stmt = stmt[len("endmodule"):].strip()
            if not stmt:
                continue
            head = stmt.split(None, 1)[0]
        if head == "module":
            m = re.match(rf"module\s+({_ID})\s*(\((?P<plist>.*)\))?\s*$", stmt, re.S)
            if not m:
                raise UnsupportedConstruct(f"line {line}: malformed module header")
            if current is not None:
                raise UnsupportedConstruct(f"line {line}: nested module")
            current = _ModuleDef(m.group(1), [], {}, [])
            port_info, port_order = {}, []
            plist = m.group("plist")
            if plist:
                carry = None  # (direction, width) continues over bare names
                for chunk in _split_port_list(plist):
                    if _DIRECTION.match(chunk.strip()):
                        carry = _parse_port_decl(chunk.strip(), port_info, port_order)
                    else:
                        name = chunk.strip()
                        if re.fullmatch(_ID, name):
                            if name not in port_info:
                                port_order.append(name)
                                port_info[name] = carry or ("inout", 1)
                        else:
                            raise UnsupportedConstruct(
                                f"line {line}: unsupported port expression '{name}'"
                            )
            continue
        if current is None:
            raise UnsupportedConstruct(f"line {line}: statement outside module")
        if _DIRECTION.match(stmt):
            _parse_port_decl(stmt, port_info, port_order)
            continue
        if re.match(r"wire\b", stmt):
            width, rest = _parse_width(stmt[len("wire"):])
            for name in [n.strip() for n in rest.split(",") if n.strip()]:
                if not re.fullmatch(_ID, name):
                    raise UnsupportedConstruct(f"line {line}: bad wire name '{name}'")
                current.wires[name] = width
            continue
        if head in _BEHAVIORAL:
            raise UnsupportedConstruct(f"line {line}: behavioral construct '{head}'")
        im = re.match(
            rf"({_ID})\s+({_ID})\s*\((?P<conns>.*)\)\s*$", stmt, re.S
        )
        if not im:
            raise UnsupportedConstruct(f"line {line}: cannot parse statement '{stmt[:40]}'")
        conns = {}
        body = im.group("conns").strip()
        if body:
            for chunk in _split_port_list(body):
                cm = re.match(
                    rf"\.\s*({_ID})\s*\(\s*({_ID})\s*(\[\s*(\d+)\s*\])?\s*\)$",
                    chunk.strip(),
                )
                if not cm:
                    raise UnsupportedConstruct(
                        f"line {line}: only named scalar/bit-select connections "
                        f"are supported, got '{chunk.strip()}'"
                    )
                bit = int(cm.group(4)) if cm.group(4) is not None else None
                conns[cm.group(1)] = (cm.group(2), bit)
        current.insts.append((im.group(1), im.group(2), conns, line))
    if current is not None:
        raise UnsupportedConstruct(f"module '{current.name}' missing endmodule")
    return modules


def _split_port_list(body: str) -> list[str]:
    # split on commas that are not inside parentheses
    out, depth, buf = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if "".join(buf).strip():
        out.append("".join(buf))
    return out


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@collector_paused()
def parse_verilog_subset(text: str, geometry: str | dict) -> Netlist:
    """Parse structural Verilog (modules, wires, named-port instantiations).

    ``geometry`` is the sidecar document (JSON text or dict) carrying the
    ``outline``, the ``masters`` list (optionally with ``out_pins`` to resolve
    net direction) and an optional ``io_side`` map from top-level port name to
    outline side.  Top-level ports become zero-area IO pad instances; ports
    without an io_side entry are assigned sides round-robin N/E/S/W.

    Net direction resolution: a pin listed in its master's ``out_pins`` drives;
    otherwise a top-level input port drives; otherwise the first-connected pin
    drives (documented fallback for direction-less libraries).
    """
    if isinstance(geometry, str):
        try:
            geometry = json.loads(geometry)
        except (ValueError, RecursionError) as exc:
            raise MalformedDocument(f"geometry sidecar is not valid JSON: {exc}") from exc
    if not isinstance(geometry, dict):
        raise MalformedDocument(f"geometry sidecar must be an object, got {geometry!r}")
    outline = _parse_outline(geometry)
    masters = _parse_masters(geometry)
    io_master = next(
        (masters[k] for k in sorted(masters) if masters[k].kind == IO_PAD), None
    )
    if io_master is None:
        io_master = Master("__io__", 0.0, 0.0, IO_PAD, (("p", 0.0, 0.0),))

    modules = _parse_modules(_strip_comments(text))
    if not modules:
        raise MalformedDocument("no module definitions found")
    instantiated = {t for md in modules.values() for t, _, _, _ in md.insts}
    tops = [name for name in modules if name not in instantiated]
    if not tops:
        raise MalformedDocument("no top module (instantiation cycle?)")
    top = modules[sorted(tops)[0]]

    uf = _UnionFind()
    instances: list[Instance] = []
    # signal bit key -> list of (inst id, pin, order); merged by final root later
    taps: dict = {}
    order_counter = [0]

    declared: dict = {}  # (scope, signal) -> declared width

    def tap(key, inst_id, pin):
        uf.find(key)  # register the key even if never unioned
        taps.setdefault(key, []).append((inst_id, pin, order_counter[0]))
        order_counter[0] += 1

    def sig_bits(scope, md, name, bit, line):
        """The bits of signal ``name``, or only bit ``bit`` of them when given."""
        width = md.wires.get(name)
        if width is None:
            width = next((w for pname, _, w in md.ports if pname == name), None)
        if width is None:
            raise DanglingPin(f"line {line}: undeclared signal '{name}'")
        declared[(scope, name)] = width
        if bit is None:
            return [(scope, name, b) for b in range(width)]
        if bit >= width:
            raise MalformedDocument(f"line {line}: bit {bit} of '{name}' is past its width {width}")
        return [(scope, name, bit)]

    active: set[str] = set()  # the modules on the current instantiation chain

    def elaborate(scope: tuple[str, ...], md: _ModuleDef, path: tuple[str, ...]):
        active.add(md.name)
        for target, iname, conns, line in md.insts:
            child_scope = scope + (iname,)
            if target in active:
                raise MalformedDocument(
                    f"line {line}: module '{target}' is instantiated inside itself "
                    f"(instantiation cycle through '{md.name}')"
                )
            if target in modules:
                child = modules[target]
                port_widths = {p: w for p, _, w in child.ports}
                for port, (sig, bit) in sorted(conns.items()):
                    if port not in port_widths:
                        raise DanglingPin(
                            f"line {line}: module '{target}' has no port '{port}'"
                        )
                    bits = sig_bits(scope, md, sig, bit, line)
                    pw = port_widths[port]
                    if len(bits) != pw:
                        raise MalformedDocument(
                            f"line {line}: width mismatch on '{iname}.{port}'"
                        )
                    declared[(child_scope, port)] = pw
                    for b in range(pw):
                        uf.union(bits[b], (child_scope, port, b))
                elaborate(child_scope, child, path + (iname,))
            elif target in masters:
                master = masters[target]
                inst = Instance(len(instances), "/".join(child_scope), master, path)
                instances.append(inst)
                for port, (sig, bit) in sorted(conns.items()):
                    if port not in master.pin_names:
                        raise DanglingPin(
                            f"line {line}: master '{target}' has no pin '{port}'"
                        )
                    bits = sig_bits(scope, md, sig, bit, line)
                    for key in bits:
                        tap(key, inst.id, port)
            else:
                raise UnknownMaster(
                    f"line {line}: '{target}' is neither a module nor a master"
                )
        active.discard(md.name)

    root_scope = (top.name,)
    side_map = _object(geometry, "io_side", dict)
    io_dirs: dict[int, str] = {}
    io_side: list[tuple[int, str]] = []
    for pidx, (pname, direction, width) in enumerate(top.ports):
        inst = Instance(len(instances), pname, io_master, (top.name,))
        instances.append(inst)
        io_dirs[inst.id] = direction
        side = side_map.get(pname, SIDES[pidx % len(SIDES)])
        if side not in SIDES:
            raise MalformedDocument(f"io_side for port '{pname}': bad side '{side}'")
        io_side.append((inst.id, side))
        declared[(root_scope, pname)] = width
        pin = io_master.pin_offsets[0][0]
        for b in range(width):
            tap((root_scope, pname, b), inst.id, pin)

    elaborate(root_scope, top, (top.name,))
    if not instances:
        raise MissingInstances("no leaf instances elaborated")

    # regroup taps and aliases by final union-find root
    merged: dict = {}
    aliases: dict = {}
    for key in list(uf.parent):
        aliases.setdefault(uf.find(key), []).append(key)
    for key in taps:
        merged.setdefault(uf.find(key), []).extend(taps[key])
    nets: list[Net] = []
    net_items = []
    for root, conns in merged.items():
        if not conns:
            continue
        conns = sorted(conns, key=lambda t: t[2])
        # representative name: shallowest scope, then lexicographic
        names = aliases[root]
        scope, name, bit = min(names, key=lambda k: (len(k[0]), k[0], k[1], k[2]))
        base = f"{name}[{bit}]" if declared.get((scope, name), 1) > 1 else name
        net_items.append((scope, name, bit, base, conns))
    net_items.sort(key=lambda t: (t[0], t[1], t[2]))
    for _, _, _, base, conns in net_items:
        driver = None
        for inst_id, pin, _ in conns:
            if pin in instances[inst_id].master.out_pins:
                driver = (inst_id, pin)
                break
        if driver is None:
            for inst_id, pin, _ in conns:
                if io_dirs.get(inst_id) == "input":
                    driver = (inst_id, pin)
                    break
        if driver is None:
            driver = (conns[0][0], conns[0][1])
        # all taps except the one chosen as driver (first matching occurrence)
        sinks = []
        skipped = False
        for i, p, _ in conns:
            if not skipped and (i, p) == driver:
                skipped = True
                continue
            sinks.append((i, p))
        nets.append(Net(len(nets), base, driver, tuple(sinks), 1))

    return Netlist(
        masters=tuple(
            sorted(set(masters.values()) | {io_master}, key=lambda m: m.name)
        ),
        instances=tuple(instances),
        nets=tuple(nets),
        outline=outline,
        io_side=tuple(sorted(io_side)),
    )
