"""AST for the automotive network description language (ANDL).

Durations, byte counts, and rates are normalized at parse time (ticks,
bytes, bits per second); device parameters stay raw strings since their
meaning depends on the device kind.  ``print_file`` renders a canonical
text form that reparses to a structurally equal tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel import fmt_duration


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int  # 0: a fact with no single source line, rendered without a position
    col: int
    message: str

    def __str__(self) -> str:
        if not self.line:
            return f"{self.severity}: {self.message}"
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)


@dataclass
class DeviceDecl:  # a device, or a type in a types block
    kind: str
    name: str
    extends: str | None = None
    params: dict[str, str] = field(default_factory=dict)
    pools: list[str] = field(default_factory=list)
    line: int = field(default=0, compare=False)


@dataclass
class TypesBlock:
    name: str
    decls: list[DeviceDecl] = field(default_factory=list)
    line: int = field(default=0, compare=False)


@dataclass
class ConnDecl:
    a: str
    b: str
    link: str | None = None      # named link device
    new_type: str | None = None  # anonymous instance of a link type
    line: int = field(default=0, compare=False)


@dataclass
class SegmentDecl:
    name: str
    conns: list[ConnDecl] = field(default_factory=list)
    line: int = field(default=0, compare=False)


@dataclass
class PoolBind:
    pool: str
    holdup: int


@dataclass
class MapEntry:
    target: str
    # A segment's binding, the document's record (a config.CanBinding or EthBinding,
    # e.g. {"kind": "avb", "stream": 3, "class": "B"}); a gateway's PoolBind; or
    # None, a bare entry: a gateway on the message path.
    binding: dict | PoolBind | None = None
    line: int = field(default=0, compare=False)


@dataclass
class MessageDecl:
    name: str
    sender: str
    receivers: list[str] = field(default_factory=list)
    payload: int = 0  # bytes
    period: int = 0   # ticks
    offset: int = 0   # ticks
    multicast: bool = False
    entries: list[MapEntry] = field(default_factory=list)
    line: int = field(default=0, compare=False)


@dataclass
class NetworkDecl:
    name: str
    inline_ini: list[str] = field(default_factory=list)  # verbatim fenced blocks
    inline_ini_lines: list[int] = field(default_factory=list, compare=False)  # their `inline` keywords
    devices: list[DeviceDecl] = field(default_factory=list)
    segments: list[SegmentDecl] = field(default_factory=list)
    messages: list[MessageDecl] = field(default_factory=list)
    line: int = field(default=0, compare=False)


@dataclass
class AndlFile:
    types: list[TypesBlock] = field(default_factory=list)
    networks: list[NetworkDecl] = field(default_factory=list)


# --------------------------------------------------------------------------
# Canonical printer
# --------------------------------------------------------------------------

def _print_body(params: dict[str, str], pools: list[str], indent: str) -> list[str]:
    lines = []
    for pool in pools:
        lines.append(f"{indent}pool {pool};")
    for key, value in params.items():
        lines.append(f"{indent}{key} {value};")
    return lines


def _print_decl(decl, indent: str) -> list[str]:
    head = f"{indent}{decl.kind} {decl.name}"
    if decl.extends:
        head += f" extends {decl.extends}"
    body = _print_body(decl.params, decl.pools, indent + "  ")
    if body:
        return [head + " {"] + body + [indent + "}"]
    return [head + ";"]


def _print_binding(binding: dict | PoolBind) -> str:
    if isinstance(binding, PoolBind):
        return f"pool {binding.pool}{{holdUp {fmt_duration(binding.holdup)};}}"
    kind = binding["kind"]
    if kind == "can":
        return f"can{{id {binding['id']};}}"
    if kind == "tt":
        return f"tt{{ctID {binding['ct']};}}"
    if kind == "avb":
        return f"avb{{id {binding['stream']}; class {binding['class']};}}"
    if kind == "rc":
        return f"rc{{vlID {binding['vl']}; bag {fmt_duration(binding['bag'])};}}"
    return f"be{{priority {binding['priority']};}}"


def print_file(ast: AndlFile) -> str:
    out: list[str] = []
    for block in ast.types:
        out.append(f"types {block.name} {{")
        for decl in block.decls:
            out.extend(_print_decl(decl, "  "))
        out.append("}")
    for net in ast.networks:
        out.append(f"network {net.name} {{")
        for ini in net.inline_ini:
            out.append("  inline ini {")
            out.append("```")
            out.append(ini)
            out.append("```")
            out.append("  }")
        out.append("  devices {")
        for dev in net.devices:
            out.extend(_print_decl(dev, "    "))
        out.append("  }")
        out.append("  connections {")
        for seg in net.segments:
            out.append(f"    segment {seg.name} {{")
            for conn in seg.conns:
                if conn.link:
                    out.append(f"      {conn.a} <--> {conn.link} <--> {conn.b};")
                elif conn.new_type:
                    out.append(f"      {conn.a} <--> {{new {conn.new_type}}} <--> {conn.b};")
                else:
                    out.append(f"      {conn.a} <--> {conn.b};")
            out.append("    }")
        out.append("  }")
        out.append("  communication {")
        for msg in net.messages:
            out.append(f"    message {msg.name} {{")
            out.append(f"      sender {msg.sender};")
            out.append(f"      receivers {', '.join(msg.receivers)};")
            out.append(f"      payload {msg.payload}B;")
            out.append(f"      period {fmt_duration(msg.period)};")
            if msg.offset:
                out.append(f"      offset {fmt_duration(msg.offset)};")
            if msg.multicast:
                out.append("      multicast;")
            out.append("      mapping {")
            for entry in msg.entries:
                if entry.binding is None:
                    out.append(f"        {entry.target};")
                else:
                    out.append(f"        {entry.target}: {_print_binding(entry.binding)};")
            out.append("      }")
            out.append("    }")
        out.append("  }")
        out.append("}")
    return "\n".join(out) + "\n"
