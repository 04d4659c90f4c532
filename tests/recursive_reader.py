"""The recursive term reader that ``treelens.text.parse_term`` replaced.

Kept as a reference oracle for the differential tests in ``test_text.py``:
its tokenizer makes one ``Token`` per match, whitespace included, decodes
every path body with ``int`` per index, and reads terms by recursion.  Its
cursor serves the interface of ``treelens.text.TokenCursor`` (token texts,
``kind``, ``positioned``, ``extend``) from those ``Token``s, so that a module
of the package can read through ``token_lines`` and ``parse_term`` of this
file.  Errors are ``treelens.text.LensSyntaxError``, so both readers'
failures compare by their text.  An integer or a path whose digits are more
than ``int`` reads is an error at its token, as it is in ``treelens.text``:
such a path still lexes as one PATH token.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from treelens.text import LensSyntaxError, unescape_string
from treelens.trees import WILDCARD, IntLeaf, Link, Node, Region, StrLeaf, Var


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    value: tuple | None = None


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>--[^\n]*)
  | (?P<STR>"(?:\\.|[^"\\])*")
  | (?P<REL><--->)
  | (?P<ARROW><->)
  | (?P<INT>-?\d+)
  | (?P<UIDENT>[A-Z][A-Za-z0-9']*)
  | (?P<LIDENT>[a-z][A-Za-z0-9']*)
  | (?P<UNDER>_)
  | (?P<PATH>\[[-\d,\s]*\])
  | (?P<LPAR>\()
  | (?P<RPAR>\))
  | (?P<LBRACK>\[)
  | (?P<RBRACK>\])
  | (?P<COMMA>,)
  | (?P<EQ>=)
  | (?P<PIPE>\|)
  | (?P<TILDE>~)
  | (?P<AT>@)
    """,
    re.VERBOSE,
)


def decode_path(body: str) -> tuple:
    """A path body's indices; raises ``ValueError`` when it is malformed."""
    return tuple(map(int, body.split(","))) if body.strip() else ()


def _too_long(tok: Token) -> LensSyntaxError:
    return LensSyntaxError(f"integer of more than {sys.get_int_max_str_digits()} digits", tok.line, tok.col)


def read_int(tok: Token) -> int:
    """An INT token's value; an error at the token if ``int`` refuses it for its length."""
    try:
        return int(tok.text)
    except ValueError:
        raise _too_long(tok) from None


def tokenize(text: str, line: int = 1) -> list[Token]:
    out: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LensSyntaxError(f"unexpected character {text[pos]!r}", line, pos + 1)
        kind = m.lastgroup or ""
        if kind == "COMMENT":
            break
        if kind == "PATH":
            body = m.group()[1:-1]
            try:
                value = decode_path(body)
            except ValueError:
                try:  # a path whose indices are too long for ``int`` is still a path
                    decode_path(re.sub(r"\d+", "0", body))
                    value = None
                except ValueError:
                    out.append(Token("LBRACK", "[", line, pos + 1))
                    pos += 1
                    continue
            out.append(Token(kind, m.group(), line, pos + 1, value))
        elif kind != "WS":
            out.append(Token(kind, m.group(), line, pos + 1))
        pos = m.end()
    return out


class TokenCursor:
    """Reads ``toks[pos:end]``, as ``treelens.text.TokenCursor`` reads its texts; an
    error at ``end`` names the token there, or ``''`` at the end of the list."""

    def __init__(self, toks: list[Token], line: int = 0, pos: int = 0, end: int | None = None):
        self.toks = toks
        self.tokens = [t.text for t in toks]
        self.pos = pos
        self.line = line
        self.end = len(toks) if end is None else end

    def extend(self, other: TokenCursor) -> None:
        self.toks = self.toks + other.toks
        self.tokens = self.tokens + other.tokens
        self.end = len(self.toks)

    def positioned(self) -> list[tuple[int, int]]:
        return [(t.line, t.col) for t in self.toks]

    def kind(self, i: int) -> str | None:
        return self.toks[i].kind if i < self.end else None

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < self.end else None

    def stop(self) -> Token:
        return self.toks[self.pos] if self.pos < len(self.toks) else Token("EOF", "", self.line, 0)

    def error(self, message: str, i: int | None = None) -> LensSyntaxError:
        if i is not None and i < len(self.toks):
            tok = self.toks[i]
            return LensSyntaxError(message.format(tok.text), tok.line, tok.col)
        return LensSyntaxError(message.format(""), self.line, 0)

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise LensSyntaxError("unexpected end of input", self.line, 0)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> str:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            where = tok or self.stop()
            raise LensSyntaxError(
                f"expected {kind}, found {where.text!r}", where.line, where.col
            )
        return self.next().text

    def require_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise LensSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)


def token_lines(text: str):
    """A reference cursor over each line of ``text`` that holds a token."""
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = tokenize(raw, no)
        if toks:
            yield TokenCursor(toks, no)


def parse_pattern_tokens(cur: TokenCursor, allow_vars: bool, top: bool = True):
    tok = cur.peek()
    if tok is None:
        if cur.pos == len(cur.tokens):
            raise LensSyntaxError("expected a term", cur.line, 0)
        tok = cur.stop()  # the token that ended a bounded cursor starts no term
        raise LensSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)
    if tok.kind == "UIDENT" and top:
        cur.next()
        args = []
        while True:
            nxt = cur.peek()
            if nxt is None or nxt.kind in ("RPAR", "TILDE", "AT", "RBRACK", "ARROW"):
                break
            args.append(parse_pattern_tokens(cur, allow_vars, top=False))
        return Node(tok.text, tuple(args))
    if tok.kind == "UIDENT":
        cur.next()
        return Node(tok.text, ())
    if tok.kind == "INT":
        cur.next()
        return IntLeaf(read_int(tok))
    if tok.kind == "STR":
        cur.next()
        return StrLeaf(unescape_string(tok.text, tok.line, tok.col))
    if tok.kind == "UNDER":
        if not allow_vars:
            raise LensSyntaxError("wildcard not allowed in a tree", tok.line, tok.col)
        cur.next()
        return WILDCARD
    if tok.kind == "LIDENT":
        if not allow_vars:
            raise LensSyntaxError("variable not allowed in a tree", tok.line, tok.col)
        cur.next()
        return Var(tok.text)
    if tok.kind == "LPAR":
        cur.next()
        inner = parse_pattern_tokens(cur, allow_vars, top=True)
        cur.expect("RPAR")
        return inner
    raise LensSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_path_tokens(cur: TokenCursor) -> tuple:
    tok = cur.peek()
    if tok is not None and tok.kind == "PATH":
        if tok.value is None:
            raise _too_long(tok)
        return cur.next().value
    cur.expect("LBRACK")
    out: list[int] = []
    tok = cur.peek()
    if tok is not None and tok.kind == "INT":
        out.append(read_int(cur.next()))
        while (nxt := cur.peek()) is not None and nxt.kind == "COMMA":
            cur.next()
            cur.expect("INT")
            out.append(read_int(cur.toks[cur.pos - 1]))
    cur.expect("RBRACK")
    return tuple(out)


def parse_term(cur, allow_vars: bool):
    """``parse_pattern_tokens`` on any cursor's tokens, for patching into a module."""
    mine = TokenCursor(cur.toks, cur.line, cur.pos, cur.end)
    try:
        return parse_pattern_tokens(mine, allow_vars)
    finally:
        cur.pos = mine.pos


def _parse_region(cur: TokenCursor) -> Region:
    cur.expect("LPAR")
    pat = parse_pattern_tokens(cur, allow_vars=True)
    cur.expect("AT")
    path = parse_path_tokens(cur)
    cur.expect("RPAR")
    return Region(pat, path)


def parse_links(text: str) -> frozenset:
    out = set()
    for cur in token_lines(text):
        src = _parse_region(cur)
        cur.expect("ARROW")
        view = _parse_region(cur)
        cur.require_end()
        out.add(Link(src, view))
    return frozenset(out)


def read_tree_file(text: str):
    if not text.endswith("\n"):
        raise LensSyntaxError("tree file must end with a newline", 1, 1)
    lines = list(token_lines(text))
    if len(lines) != 1:
        raise LensSyntaxError("tree file must contain exactly one term", 1, 1)
    cur = lines[0]
    t = parse_pattern_tokens(cur, allow_vars=False)
    cur.require_end()
    return t
