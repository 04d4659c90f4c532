"""The recursive term reader that ``treelens.text.parse_term`` replaced.

Kept as a reference oracle for the differential tests in ``test_text.py``:
its tokenizer makes one ``Token`` per match, whitespace included, decodes
every path body with ``int`` per index, and reads terms by recursion.
Errors are ``treelens.text.LensSyntaxError``, so both readers' failures
compare by their text.
"""

from __future__ import annotations

import re
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
            try:
                value = decode_path(m.group()[1:-1])
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
    def __init__(self, tokens: list[Token], line: int = 0):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise LensSyntaxError("unexpected end of input", self.line, 0)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            where = tok or Token("EOF", "", self.line, 0)
            raise LensSyntaxError(
                f"expected {kind}, found {where.text!r}", where.line, where.col
            )
        return self.next()

    def require_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise LensSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)


def parse_pattern_tokens(cur: TokenCursor, allow_vars: bool, top: bool = True):
    tok = cur.peek()
    if tok is None:
        raise LensSyntaxError("expected a term", cur.line, 0)
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
        return IntLeaf(int(tok.text))
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


def parse_path_tokens(cur) -> tuple:
    tok = cur.peek()
    if tok is not None and tok.kind == "PATH":
        return cur.next().value
    cur.expect("LBRACK")
    out: list[int] = []
    tok = cur.peek()
    if tok is not None and tok.kind == "INT":
        out.append(int(cur.next().text))
        while (nxt := cur.peek()) is not None and nxt.kind == "COMMA":
            cur.next()
            out.append(int(cur.expect("INT").text))
    cur.expect("RBRACK")
    return tuple(out)


def parse_term(cur, allow_vars: bool):
    """``parse_pattern_tokens`` on any cursor's tokens, for patching into a module."""
    mine = TokenCursor(cur.tokens, cur.line)
    mine.pos = cur.pos
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize(raw, lineno)
        if not tokens:
            continue
        cur = TokenCursor(tokens, lineno)
        src = _parse_region(cur)
        cur.expect("ARROW")
        view = _parse_region(cur)
        cur.require_end()
        out.add(Link(src, view))
    return frozenset(out)


def read_tree_file(text: str):
    if not text.endswith("\n"):
        raise LensSyntaxError("tree file must end with a newline", 1, 1)
    lines = [(no, tokenize(raw, no)) for no, raw in enumerate(text.splitlines(), start=1)]
    lines = [(no, toks) for no, toks in lines if toks]
    if len(lines) != 1:
        raise LensSyntaxError("tree file must contain exactly one term", 1, 1)
    no, toks = lines[0]
    cur = TokenCursor(toks, no)
    t = parse_pattern_tokens(cur, allow_vars=False)
    cur.require_end()
    return t
