"""Lexer and recursive-descent parser for ANDL.

Syntax errors are collected as diagnostics with source positions rather
than aborting at the first fault: the parser re-synchronizes at the next
``;`` or block boundary and keeps going.  Inline-ini bodies are captured
verbatim between triple-backtick fences.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from itertools import accumulate, compress

from ..config import CAN_ID, PRIORITY
from ..kernel import POSITIVE, TICKS, Range, parse_byte_count, parse_duration
from .nodes import (
    AndlFile, ConnDecl, DeviceDecl, Diagnostic, MapEntry, MessageDecl,
    NetworkDecl, PoolBind, SegmentDecl, TypesBlock,
)

DEVICE_KINDS = ("ethernetLink", "canLink", "node", "gateway", "switch")

# Token kinds that keywords and punctuation can have.
_WORD_KINDS = frozenset(("ident", "punct", "arrow"))

# Every character belongs to exactly one lexeme: newlines are whitespace and the
# last alternative takes any other single character.  So a lexeme starts where
# the lengths of those before it add up to.  A fence is one lexeme; a bare ```
# is an opening fence that is never closed.
_LEXEME_RE = re.compile(
    r"""
    [ \t\r\n]+
  | [A-Za-z_][A-Za-z0-9_]*
  | \d+(?:\.\d+)?[A-Za-z/%]*
  | //[^\n]*
  | <-->
  | ```(?s:.*?)```
  | ```
  | .
    """,
    re.VERBOSE,
)

# A lexeme's kind by its first character; "" marks whitespace, which is dropped.
# A first character missing here starts a comment, an arrow, a fence, a scalar
# with a non-ASCII digit or a stray character, which ``tokenize`` sorts out.
_KIND_OF_FIRST = {
    **dict.fromkeys(string.ascii_letters + "_", "ident"),
    **dict.fromkeys(string.digits, "scalar"),
    **dict.fromkeys("{}();:,.=", "punct"),
    **dict.fromkeys(" \t\r\n", ""),
}

_NEWLINE_RE = re.compile("\n")


def line_starts(text: str) -> list[int]:
    """Offsets at which the lines of ``text`` start."""
    return [0, *(m.end() for m in _NEWLINE_RE.finditer(text))]


def position(lines: list[int], offset: int) -> tuple[int, int]:
    """Line and column of ``offset`` from ``line_starts``; the column counts from
    the last newline before it, also one inside a fence."""
    line = bisect_right(lines, offset)
    return line, offset - lines[line - 1] + 1


def tokenize(text: str, lines: list[int]) -> tuple[list[str], list[str], list[int], list[Diagnostic]]:
    """The kinds, values and start offsets of the tokens of ``text``, each list ending
    at 'eof', and the lexer's diagnostics, placed by ``lines`` (``line_starts(text)``).

    Kinds are ident | scalar | punct | arrow | fenced | eof.  A fenced token's value
    is the text between its fences without the newlines next to them.
    """
    values = _LEXEME_RE.findall(text)
    kinds = [_KIND_OF_FIRST.get(value[0]) for value in values]
    starts = list(accumulate(map(len, values), initial=0))  # the last one is len(text)
    kinds.append("eof")
    values.append("")
    diags: list[Diagnostic] = []
    i = 0
    while True:
        try:
            i = kinds.index(None, i)
        except ValueError:
            break
        value = values[i]
        if value.startswith("//"):
            kinds[i] = ""
        elif value == "<-->":
            kinds[i] = "arrow"
        elif value == "```":
            diags.append(Diagnostic("error", *position(lines, starts[i]), "unterminated ``` fence"))
            kinds[i:] = ["eof"]
            values[i:] = [""]
            del starts[i + 1:]
        elif value.startswith("```"):
            kinds[i] = "fenced"
            values[i] = value[3:-3].strip("\n")
        elif value[0].isdecimal():  # \d takes any Unicode decimal digit
            kinds[i] = "scalar"
        else:
            diags.append(Diagnostic("error", *position(lines, starts[i]),
                                    f"unexpected character {value!r}"))
            kinds[i] = ""
    return list(compress(kinds, kinds)), list(compress(values, kinds)), list(compress(starts, kinds)), diags


class _ParseError(Exception):
    pass


class Parser:
    def __init__(self, text: str):
        self.lines = line_starts(text)
        self.kinds, self.values, self.starts, self.diags = tokenize(text, self.lines)
        self.pos = 0

    # -- primitives ---------------------------------------------------------

    # The token lists end at 'eof' and ``advance`` never moves past it, so
    # index ``pos`` is always valid.
    def peek(self) -> str:
        return self.values[self.pos]

    def at_eof(self) -> bool:
        return self.kinds[self.pos] == "eof"

    def line(self, i: int) -> int:
        """Source line of token ``i``."""
        return bisect_right(self.lines, self.starts[i])

    def advance(self) -> str:
        pos = self.pos
        if self.kinds[pos] != "eof":
            self.pos = pos + 1
        return self.values[pos]

    def at(self, value: str) -> bool:
        pos = self.pos
        return self.values[pos] == value and self.kinds[pos] in _WORD_KINDS

    def accept(self, value: str) -> bool:
        pos = self.pos
        if self.values[pos] == value and self.kinds[pos] in _WORD_KINDS:
            self.pos = pos + 1
            return True
        return False

    def report(self, message: str, at: int) -> None:
        """Record an error at token ``at`` without leaving the item."""
        self.diags.append(Diagnostic("error", *position(self.lines, self.starts[at]), message))

    def error(self, message: str, at: int | None = None):
        self.report(message, self.pos if at is None else at)
        raise _ParseError()

    def expect(self, value: str) -> None:
        pos = self.pos
        if self.values[pos] == value and self.kinds[pos] in _WORD_KINDS:
            self.pos = pos + 1
            return
        self.error(f"expected {value!r}, found {self.values[pos]!r}")

    def expect_ident(self, what: str = "identifier") -> str:
        pos = self.pos
        if self.kinds[pos] != "ident":
            self.error(f"expected {what}, found {self.values[pos]!r}")
        self.pos = pos + 1
        return self.values[pos]

    def expect_scalar(self, what: str = "value") -> str:
        pos = self.pos
        if self.kinds[pos] != "scalar":
            self.error(f"expected {what}, found {self.values[pos]!r}")
        self.pos = pos + 1
        return self.values[pos]

    def qname(self) -> str:
        parts = [self.expect_ident("type name")]
        while self.accept("."):
            parts.append(self.expect_ident("type name"))
        return ".".join(parts)

    def sync(self, depth: int = 0) -> None:
        """Skip past the next ';', or to a block boundary ``depth`` levels out (the braces
        the faulty item opened), or past the '}' closing them when the next item follows.
        Only punctuation counts: a fence whose body is '{' is no brace."""
        while True:
            if self.at_eof():
                return
            value = self.peek() if self.kinds[self.pos] == "punct" else None
            if value == ";" and depth == 0:
                self.advance()
                return
            if value == "{":
                depth += 1
            elif value == "}":
                if depth == 0:
                    return
                depth -= 1
                if depth == 0 and self.kinds[self.pos + 1] == "ident":
                    self.advance()
                    return
            self.advance()

    def item(self, into: list, parse_one, *args) -> None:
        """Append one block item; on a fault, skip the rest of it."""
        start = self.pos
        try:
            into.append(parse_one(*args))
        except _ParseError:
            self.recover(start)

    def recover(self, start: int) -> None:
        """Skip the rest of a faulty item that began at token ``start``, at the item's
        own brace depth, so a '}' inside the item does not close the enclosing block."""
        braces = [v for k, v in zip(self.kinds[start:self.pos], self.values[start:self.pos])
                  if k == "punct"]
        self.sync(braces.count("{") - braces.count("}"))

    def bounded(self, value: int, bound: Range, at: int, unit: str = "") -> int:
        """``value``, read at token ``at``; an error there when it leaves ``bound``,
        named by the keyword before it.  The item is well-formed, so parsing goes on."""
        try:
            return bound.check(value)
        except ValueError as exc:
            self.report(f"{self.values[at - 1]} must be {exc.args[0]}, not {value}{unit}", at)
            return value

    def duration(self, what: str, bound: Range = TICKS) -> int:
        at = self.pos
        value = self.expect_scalar(what)
        try:
            ticks = parse_duration(value)
        except ValueError as exc:
            self.error(str(exc), at)
        return self.bounded(ticks, bound, at, " ps")

    def byte_count(self, what: str) -> int:
        at = self.pos
        value = self.expect_scalar(what)
        try:
            return parse_byte_count(value)
        except ValueError as exc:
            self.error(str(exc), at)

    def integer(self, what: str, bound: Range | None = None) -> int:
        at = self.pos
        value = self.expect_scalar(what)
        if not value.isdigit():
            self.error(f"expected integer {what}, found {value!r}", at)
        return int(value) if bound is None else self.bounded(int(value), bound, at)

    # -- grammar ------------------------------------------------------------

    def file(self) -> AndlFile:
        ast = AndlFile()
        while not self.at_eof():
            try:
                if self.at("types"):
                    ast.types.append(self.types_block())
                elif self.at("network"):
                    ast.networks.append(self.network())
                else:
                    self.error(f"expected 'types' or 'network', found {self.peek()!r}")
            except _ParseError:
                self.sync()
                if self.at("}"):
                    self.advance()
        return ast

    def types_block(self) -> TypesBlock:
        start = self.pos
        self.expect("types")
        block = TypesBlock(self.expect_ident("types block name"), line=self.line(start))
        self.expect("{")
        while not self.accept("}"):
            if self.at_eof():
                self.error("unterminated types block")
            self.item(block.decls, self.typed_decl)
        return block

    def typed_decl(self) -> DeviceDecl:
        start = self.pos
        if self.kinds[start] != "ident" or self.peek() not in DEVICE_KINDS:
            self.error(f"expected a device kind, found {self.peek()!r}")
        kind = self.advance()
        name = self.expect_ident("device name")
        decl = DeviceDecl(kind, name, line=self.line(start))
        if self.accept("extends"):
            decl.extends = self.qname()
        if self.accept("{"):
            while not self.accept("}"):
                if self.at_eof():
                    self.error("unterminated device body")
                if self.at("pool"):
                    self.advance()
                    decl.pools.append(self.expect_ident("pool name"))
                    self.expect(";")
                else:
                    key = self.expect_ident("parameter name")
                    at = self.pos
                    value = self.advance()
                    if self.kinds[at] not in ("scalar", "ident"):
                        self.error(f"expected parameter value, found {value!r}", at)
                    decl.params[key] = value
                    self.expect(";")
            self.accept(";")
        else:
            self.expect(";")
        return decl

    def network(self) -> NetworkDecl:
        start = self.pos
        self.expect("network")
        net = NetworkDecl(self.expect_ident("network name"), line=self.line(start))
        self.expect("{")
        while not self.accept("}"):
            if self.at_eof():
                self.error("unterminated network block")
            start = self.pos
            try:
                if self.at("inline"):
                    self.advance()
                    self.expect("ini")
                    self.expect("{")
                    if self.kinds[self.pos] != "fenced":
                        self.error("inline ini payload must be fenced with ```")
                    net.inline_ini.append(self.advance())
                    net.inline_ini_lines.append(self.line(start))
                    self.expect("}")
                elif self.at("devices"):
                    self.advance()
                    self.expect("{")
                    while not self.accept("}"):
                        if self.at_eof():
                            self.error("unterminated devices block")
                        self.item(net.devices, self.typed_decl)
                elif self.at("connections"):
                    self.advance()
                    self.expect("{")
                    while not self.accept("}"):
                        if self.at_eof():
                            self.error("unterminated connections block")
                        self.item(net.segments, self.segment)
                elif self.at("communication"):
                    self.advance()
                    self.expect("{")
                    while not self.accept("}"):
                        if self.at_eof():
                            self.error("unterminated communication block")
                        self.item(net.messages, self.message)
                else:
                    self.error(
                        "expected 'inline', 'devices', 'connections' or "
                        f"'communication', found {self.peek()!r}"
                    )
            except _ParseError:
                self.recover(start)
        return net

    def segment(self) -> SegmentDecl:
        start = self.pos
        self.expect("segment")
        seg = SegmentDecl(self.expect_ident("segment name"), line=self.line(start))
        self.expect("{")
        while not self.accept("}"):
            if self.at_eof():
                self.error("unterminated segment block")
            self.item(seg.conns, self.connection)
        return seg

    def connection(self) -> ConnDecl:
        start = self.pos
        a = self.expect_ident("endpoint")
        self.expect("<-->")
        link = None
        new_type = None
        if self.at("{"):
            self.advance()
            self.expect("new")
            new_type = self.qname()
            self.expect("}")
            self.expect("<-->")
            b = self.expect_ident("endpoint")
        else:
            middle = self.expect_ident("endpoint or link")
            if self.accept("<-->"):
                link = middle
                b = self.expect_ident("endpoint")
            else:
                b = middle
        self.expect(";")
        return ConnDecl(a=a, b=b, link=link, new_type=new_type, line=self.line(start))

    def message(self) -> MessageDecl:
        start = self.pos
        self.expect("message")
        msg = MessageDecl(self.expect_ident("message name"), sender="", line=self.line(start))
        self.expect("{")
        while not self.accept("}"):
            if self.at_eof():
                self.error("unterminated message block")
            if self.accept("sender"):
                msg.sender = self.expect_ident("sender")
                self.expect(";")
            elif self.accept("receivers"):
                msg.receivers.append(self.expect_ident("receiver"))
                while self.accept(","):
                    msg.receivers.append(self.expect_ident("receiver"))
                self.expect(";")
            elif self.accept("payload"):
                msg.payload = self.byte_count("payload (e.g. 6B)")
                self.expect(";")
            elif self.accept("period"):
                msg.period = self.duration("period (e.g. 1ms)")
                self.expect(";")
            elif self.accept("offset"):
                msg.offset = self.duration("offset")
                self.expect(";")
            elif self.accept("multicast"):
                msg.multicast = True
                self.expect(";")
            elif self.accept("mapping"):
                self.expect("{")
                while not self.accept("}"):
                    if self.at_eof():
                        self.error("unterminated mapping block")
                    self.item(msg.entries, self.map_entry)
            else:
                self.error(f"unexpected token {self.peek()!r} in message")
        return msg

    def map_entry(self) -> MapEntry:
        start = self.pos
        target = self.expect_ident("mapping target")
        entry = MapEntry(target=target, line=self.line(start))
        if self.accept(":"):
            entry.binding = self.class_binding()
        self.expect(";")
        return entry

    def class_binding(self) -> dict | PoolBind:
        """A segment's binding, the document's record (see ``MapEntry``), or a gateway's pool."""
        kind = self.expect_ident("traffic class")
        if kind == "can":
            self.expect("{")
            self.expect("id")
            binding = {"kind": "can", "id": self.integer("CAN id", CAN_ID)}
            self.expect(";")
        elif kind == "tt":
            self.expect("{")
            self.expect("ctID")
            binding = {"kind": "tt", "ct": self.integer("ctID")}
            self.expect(";")
        elif kind == "avb":
            self.expect("{")
            self.expect("id")
            binding = {"kind": "avb", "stream": self.integer("stream id"), "class": "A"}
            self.expect(";")
            if self.accept("class"):
                at = self.pos
                binding["class"] = self.expect_ident("AVB class")
                if binding["class"] not in ("A", "B"):
                    self.error("AVB class must be A or B", at)
                self.expect(";")
        elif kind == "rc":
            self.expect("{")
            self.expect("vlID")
            binding = {"kind": "rc", "vl": self.integer("vlID")}
            self.expect(";")
            self.expect("bag")
            binding["bag"] = self.duration("bag", POSITIVE)
            self.expect(";")
        elif kind == "be":
            self.expect("{")
            self.expect("priority")
            binding = {"kind": "be", "priority": self.integer("priority", PRIORITY)}
            self.expect(";")
        elif kind == "pool":
            pool = self.expect_ident("pool name")
            self.expect("{")
            self.expect("holdUp")
            binding = PoolBind(pool, self.duration("holdUp"))
            self.expect(";")
        else:
            self.error(f"unknown traffic class {kind!r}")
        self.expect("}")
        return binding


def parse(text: str) -> tuple[AndlFile, list[Diagnostic]]:
    """Parse ANDL source; diagnostics carry line/column positions."""
    parser = Parser(text)
    return parser.file(), parser.diags
