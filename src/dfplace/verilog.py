"""Structural Verilog subset: modules, wires and named-port instantiations.

Kept apart from :mod:`dfplace.netlist` and imported only when used: without
cached bytecode every import compiles a module, which would cost each JSON
run the time, and the JSON parser's module the compiler's peak memory.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import (
    DanglingPin,
    MalformedDocument,
    MissingInstances,
    UnknownMaster,
    UnsupportedConstruct,
)
from .netlist import (
    IO_PAD,
    MAX_WIDTH,
    SIDES,
    Instance,
    Master,
    Netlist,
    Nets,
    _object,
    _parse_masters,
    _parse_outline,
    collector_paused,
)

_BEHAVIORAL = {
    "always", "initial", "assign", "reg", "if", "else", "case", "casez",
    "casex", "for", "while", "repeat", "function", "task", "specify",
    "generate", "genvar", "parameter", "localparam",
}

_ID = r"[A-Za-z_][A-Za-z0-9_$]*"
_DIRECTION = re.compile(r"(input|output|inout)\b")  # a range may follow directly
# a range bound or bit index has at most 18 digits, which int() always
# converts; longer digit runs fail the statement's pattern (exit 4)
_INDEX = r"\d{1,18}"
_RANGE = re.compile(rf"\[\s*({_INDEX})\s*:\s*({_INDEX})\s*\]")


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


def _check_width(width: int, what: str, name: str, line: int) -> None:
    """Reject a signal wider than ``MAX_WIDTH`` before any of its bits exists."""
    if width > MAX_WIDTH:
        raise MalformedDocument(
            f"line {line}: {what} '{name}' is {width} bits wide, above {MAX_WIDTH}"
        )


def _parse_port_decl(stmt: str, ports: dict, order: list, line: int) -> tuple[str, int]:
    """Record the ports that ``stmt`` declares; returns (direction, width)."""
    m = _DIRECTION.match(stmt)
    direction = m.group(1)
    width, rest = _parse_width(stmt[m.end():])
    for name in [n.strip() for n in rest.split(",") if n.strip()]:
        if not re.fullmatch(_ID, name):
            raise UnsupportedConstruct(f"bad port name '{name}'")
        _check_width(width, "port", name, line)
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
                        carry = _parse_port_decl(chunk.strip(), port_info, port_order, line)
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
            _parse_port_decl(stmt, port_info, port_order, line)
            continue
        if re.match(r"wire\b", stmt):
            width, rest = _parse_width(stmt[len("wire"):])
            for name in [n.strip() for n in rest.split(",") if n.strip()]:
                if not re.fullmatch(_ID, name):
                    raise UnsupportedConstruct(f"line {line}: bad wire name '{name}'")
                _check_width(width, "wire", name, line)
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
                    rf"\.\s*({_ID})\s*\(\s*({_ID})\s*(\[\s*({_INDEX})\s*\])?\s*\)$",
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

    def elaborate(top: _ModuleDef) -> None:
        """Walk the hierarchy depth-first, instances in source order, with an
        explicit stack of (scope, module, hierarchy path, instances left)."""
        active = {top.name}  # the modules on the current instantiation chain
        stack = [((top.name,), top, (top.name,), iter(top.insts))]
        while stack:
            scope, md, path, todo = stack[-1]
            item = next(todo, None)
            if item is None:
                stack.pop()
                active.discard(md.name)
                continue
            target, iname, conns, line = item
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
                active.add(target)
                stack.append((child_scope, child, path + (iname,), iter(child.insts)))
            elif target in masters:
                master = masters[target]
                inst = Instance(len(instances), "/".join(child_scope), master, path)
                instances.append(inst)
                for port, (sig, bit) in sorted(conns.items()):
                    if port not in master.pin_index:
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

    elaborate(top)
    if not instances:
        raise MissingInstances("no leaf instances elaborated")

    # regroup taps and aliases by final union-find root
    merged: dict = {}
    aliases: dict = {}
    for key in list(uf.parent):
        aliases.setdefault(uf.find(key), []).append(key)
    for key in taps:
        merged.setdefault(uf.find(key), []).extend(taps[key])
    rows = []  # (base name, driver, sinks, bit width)
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
        rows.append((base, driver, sinks, 1))

    instances = tuple(instances)
    return Netlist(
        masters=tuple(
            sorted(set(masters.values()) | {io_master}, key=lambda m: m.name)
        ),
        instances=instances,
        nets=Nets.from_rows(instances, rows),
        outline=outline,
        io_side=tuple(sorted(io_side)),
    )
