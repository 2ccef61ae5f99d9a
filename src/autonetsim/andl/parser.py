"""Lexer and recursive-descent parser for ANDL.

Syntax errors are collected as diagnostics with source positions rather
than aborting at the first fault: the parser re-synchronizes at the next
``;`` or block boundary and keeps going.  Inline-ini bodies are captured
verbatim between triple-backtick fences.
"""

from __future__ import annotations

import re

from ..ethernet import BE
from ..kernel import parse_byte_count, parse_duration
from .nodes import (
    AndlFile, AvbBind, BeBind, CanBind, ConnDecl, DeviceDecl, Diagnostic,
    MapEntry, MessageDecl, NetworkDecl, PoolBind, RcBind, SegmentDecl,
    TtBind, TypeDecl, TypesBlock,
)

DEVICE_KINDS = ("ethernetLink", "canLink", "node", "gateway", "switch")

# Token kinds that keywords and punctuation can have.
_WORD_KINDS = frozenset(("ident", "punct", "arrow"))

# Whitespace and comments are unnamed groups, so ``lastgroup`` is None for them.
# A fence is one lexeme; a bare ``` is an opening fence that is never closed.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]+
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}();:,.=])
  | (?P<newline>\n)
  | (?P<scalar>\d+(?:\.\d+)?[A-Za-z/%]*)
  | //[^\n]*
  | (?P<arrow><-->)
  | (?P<fenced>```(?s:.*?)```)
  | (?P<unterminated>```)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # ident | scalar | punct | arrow | fenced | eof
        self.value = value
        self.line = line
        self.col = col


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0  # line_start: index of the current line's first character
    end = len(text)
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        start = m.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "fenced":
            lexeme = m.group()
            tokens.append(Token("fenced", lexeme[3:-3].strip("\n"), line, start - line_start + 1))
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = start + lexeme.rindex("\n") + 1
        elif kind == "bad":
            diags.append(Diagnostic("error", line, start - line_start + 1,
                                    f"unexpected character {m.group()!r}"))
        elif kind == "unterminated":
            diags.append(Diagnostic("error", line, start - line_start + 1, "unterminated ``` fence"))
            end = start
            break
        else:
            tokens.append(Token(kind, m.group(), line, start - line_start + 1))
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens, diags


class _ParseError(Exception):
    pass


class Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.diags = diags
        self.pos = 0

    # -- primitives ---------------------------------------------------------

    # The token list ends at 'eof' and ``advance`` never moves past it, so
    # ``tokens[pos]`` is always valid.
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.value == value and tok.kind in _WORD_KINDS

    def accept(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.value == value and tok.kind in _WORD_KINDS:
            self.pos += 1
            return True
        return False

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.tokens[self.pos]
        self.diags.append(Diagnostic("error", tok.line, tok.col, message))
        raise _ParseError()

    def expect(self, value: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.value == value and tok.kind in _WORD_KINDS:
            self.pos += 1
            return tok
        self.error(f"expected {value!r}, found {tok.value!r}")

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            self.error(f"expected {what}, found {tok.value!r}")
        self.pos += 1
        return tok

    def expect_scalar(self, what: str = "value") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "scalar":
            self.error(f"expected {what}, found {tok.value!r}")
        self.pos += 1
        return tok

    def qname(self) -> str:
        parts = [self.expect_ident("type name").value]
        while self.accept("."):
            parts.append(self.expect_ident("type name").value)
        return ".".join(parts)

    def sync(self, depth: int = 0) -> None:
        """Skip past the next ';', or to a block boundary ``depth`` levels out (the braces
        the faulty item opened), or past the '}' closing them when the next item follows."""
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.value == ";" and depth == 0:
                self.advance()
                return
            if tok.value == "{":
                depth += 1
            elif tok.value == "}":
                if depth == 0:
                    return
                depth -= 1
                if depth == 0 and self.tokens[self.pos + 1].kind == "ident":
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
        self.sync(sum((t.value == "{") - (t.value == "}") for t in self.tokens[start:self.pos]))

    def duration(self, what: str) -> int:
        tok = self.expect_scalar(what)
        try:
            return parse_duration(tok.value)
        except ValueError as exc:
            self.error(str(exc), tok)

    def byte_count(self, what: str) -> int:
        tok = self.expect_scalar(what)
        try:
            return parse_byte_count(tok.value)
        except ValueError as exc:
            self.error(str(exc), tok)

    def integer(self, what: str) -> int:
        tok = self.expect_scalar(what)
        if not tok.value.isdigit():
            self.error(f"expected integer {what}, found {tok.value!r}", tok)
        return int(tok.value)

    # -- grammar ------------------------------------------------------------

    def file(self) -> AndlFile:
        ast = AndlFile()
        while self.peek().kind != "eof":
            try:
                if self.at("types"):
                    ast.types.append(self.types_block())
                elif self.at("network"):
                    ast.networks.append(self.network())
                else:
                    self.error(f"expected 'types' or 'network', found {self.peek().value!r}")
            except _ParseError:
                self.sync()
                if self.at("}"):
                    self.advance()
        return ast

    def types_block(self) -> TypesBlock:
        tok = self.expect("types")
        block = TypesBlock(self.expect_ident("types block name").value, line=tok.line)
        self.expect("{")
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unterminated types block")
            self.item(block.decls, self.typed_decl, TypeDecl)
        return block

    def typed_decl(self, ctor):
        tok = self.peek()
        if tok.value not in DEVICE_KINDS:
            self.error(f"expected a device kind, found {tok.value!r}")
        kind = self.advance().value
        name = self.expect_ident("device name").value
        decl = ctor(kind=kind, name=name, line=tok.line)
        if self.accept("extends"):
            decl.extends = self.qname()
        if self.accept("{"):
            while not self.accept("}"):
                if self.peek().kind == "eof":
                    self.error("unterminated device body")
                if self.at("pool"):
                    self.advance()
                    decl.pools.append(self.expect_ident("pool name").value)
                    self.expect(";")
                else:
                    key = self.expect_ident("parameter name").value
                    val = self.advance()
                    if val.kind not in ("scalar", "ident"):
                        self.error(f"expected parameter value, found {val.value!r}", val)
                    decl.params[key] = val.value
                    self.expect(";")
            self.accept(";")
        else:
            self.expect(";")
        return decl

    def network(self) -> NetworkDecl:
        tok = self.expect("network")
        net = NetworkDecl(self.expect_ident("network name").value, line=tok.line)
        self.expect("{")
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unterminated network block")
            start = self.pos
            try:
                if self.at("inline"):
                    line = self.advance().line
                    self.expect("ini")
                    self.expect("{")
                    body = self.peek()
                    if body.kind != "fenced":
                        self.error("inline ini payload must be fenced with ```")
                    net.inline_ini.append(self.advance().value)
                    net.inline_ini_lines.append(line)
                    self.expect("}")
                elif self.at("devices"):
                    self.advance()
                    self.expect("{")
                    while not self.accept("}"):
                        if self.peek().kind == "eof":
                            self.error("unterminated devices block")
                        self.item(net.devices, self.typed_decl, DeviceDecl)
                elif self.at("connections"):
                    self.advance()
                    self.expect("{")
                    while not self.accept("}"):
                        if self.peek().kind == "eof":
                            self.error("unterminated connections block")
                        self.item(net.segments, self.segment)
                elif self.at("communication"):
                    self.advance()
                    self.expect("{")
                    while not self.accept("}"):
                        if self.peek().kind == "eof":
                            self.error("unterminated communication block")
                        self.item(net.messages, self.message)
                else:
                    self.error(
                        "expected 'inline', 'devices', 'connections' or "
                        f"'communication', found {self.peek().value!r}"
                    )
            except _ParseError:
                self.recover(start)
        return net

    def segment(self) -> SegmentDecl:
        tok = self.expect("segment")
        seg = SegmentDecl(self.expect_ident("segment name").value, line=tok.line)
        self.expect("{")
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unterminated segment block")
            self.item(seg.conns, self.connection)
        return seg

    def connection(self) -> ConnDecl:
        tok = self.peek()
        a = self.expect_ident("endpoint").value
        self.expect("<-->")
        link = None
        new_type = None
        if self.at("{"):
            self.advance()
            self.expect("new")
            new_type = self.qname()
            self.expect("}")
            self.expect("<-->")
            b = self.expect_ident("endpoint").value
        else:
            middle = self.expect_ident("endpoint or link").value
            if self.accept("<-->"):
                link = middle
                b = self.expect_ident("endpoint").value
            else:
                b = middle
        self.expect(";")
        return ConnDecl(a=a, b=b, link=link, new_type=new_type, line=tok.line)

    def message(self) -> MessageDecl:
        tok = self.expect("message")
        msg = MessageDecl(self.expect_ident("message name").value, sender="", line=tok.line)
        self.expect("{")
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unterminated message block")
            if self.accept("sender"):
                msg.sender = self.expect_ident("sender").value
                self.expect(";")
            elif self.accept("receivers"):
                msg.receivers.append(self.expect_ident("receiver").value)
                while self.accept(","):
                    msg.receivers.append(self.expect_ident("receiver").value)
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
                    if self.peek().kind == "eof":
                        self.error("unterminated mapping block")
                    self.item(msg.entries, self.map_entry)
            else:
                self.error(f"unexpected token {self.peek().value!r} in message")
        return msg

    def map_entry(self) -> MapEntry:
        tok = self.peek()
        target = self.expect_ident("mapping target").value
        entry = MapEntry(target=target, line=tok.line)
        if self.accept(":"):
            entry.binding = self.class_binding()
        self.expect(";")
        return entry

    def class_binding(self):
        kind = self.expect_ident("traffic class").value
        if kind == "can":
            self.expect("{")
            self.expect("id")
            can_id = self.integer("CAN id")
            self.expect(";")
            self.expect("}")
            return CanBind(can_id)
        if kind == "tt":
            self.expect("{")
            self.expect("ctID")
            ct = self.integer("ctID")
            self.expect(";")
            self.expect("}")
            return TtBind(ct)
        if kind == "avb":
            self.expect("{")
            self.expect("id")
            stream = self.integer("stream id")
            self.expect(";")
            cls = "A"
            if self.accept("class"):
                cls_tok = self.expect_ident("AVB class")
                if cls_tok.value not in ("A", "B"):
                    self.error("AVB class must be A or B", cls_tok)
                cls = cls_tok.value
                self.expect(";")
            self.expect("}")
            return AvbBind(stream, cls)
        if kind == "rc":
            self.expect("{")
            self.expect("vlID")
            vl = self.integer("vlID")
            self.expect(";")
            self.expect("bag")
            bag = self.duration("bag")
            self.expect(";")
            self.expect("}")
            return RcBind(vl, bag)
        if kind == "be":
            self.expect("{")
            self.expect("priority")
            prio_tok = self.peek()
            prio = self.integer("priority")
            try:
                BE(prio)
            except ValueError as exc:  # well-formed, so parsing goes on
                self.diags.append(Diagnostic("error", prio_tok.line, prio_tok.col, str(exc)))
            self.expect(";")
            self.expect("}")
            return BeBind(prio)
        if kind == "pool":
            pool = self.expect_ident("pool name").value
            self.expect("{")
            self.expect("holdUp")
            holdup = self.duration("holdUp")
            self.expect(";")
            self.expect("}")
            return PoolBind(pool, holdup)
        self.error(f"unknown traffic class {kind!r}")


def parse(text: str) -> tuple[AndlFile, list[Diagnostic]]:
    """Parse ANDL source; diagnostics carry line/column positions."""
    tokens, diags = tokenize(text)
    parser = Parser(tokens, diags)
    ast = parser.file()
    return ast, diags
