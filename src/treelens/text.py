"""Textual grammar shared by all file formats.

Terms print as ``Ctor arg1 .. argN`` with parentheses around nested
applications, text leaves as double-quoted strings with ``\\"`` and ``\\\\``
escapes, integer leaves as optionally-signed decimals, and ``_`` for
wildcards; a tree is a term without ``_`` or variables.  Paths print as
``[i,j,...]`` and links as ``(<pattern> @ [path]) <-> (<pattern> @ [path])``,
one per line in canonical order.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .trees import (
    IntLeaf,
    Link,
    Node,
    Path,
    Pattern,
    Region,
    StrLeaf,
    Tree,
    Var,
    WILDCARD,
    Wildcard,
    canonical_links,
)


class LensSyntaxError(Exception):
    """Concrete-syntax error with position information."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    value: Path | None = None  # the indices of a PATH token


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


def tokenize(text: str, line: int = 1) -> list[Token]:
    """Tokenize one logical line; comments and whitespace are dropped."""
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
                value = tuple(map(int, body.split(","))) if body.strip() else ()
            except ValueError:
                # Not a well-formed path: read it piece by piece, so that the
                # parser's error points inside it.
                out.append(Token("LBRACK", "[", line, pos + 1))
                pos += 1
                continue
            out.append(Token(kind, m.group(), line, pos + 1, value))
        elif kind != "WS":
            out.append(Token(kind, m.group(), line, pos + 1))
        pos = m.end()
    return out


def unescape_string(raw: str, line: int = 0, col: int = 0) -> str:
    body = raw[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                raise LensSyntaxError("only \\\" and \\\\ escapes are allowed", line, col)
            out.append(body[i + 1])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def escape_string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


class TokenCursor:
    """Sequential reader over a token list."""

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


def parse_pattern_tokens(cur: TokenCursor, allow_vars: bool, top: bool = True) -> Pattern:
    """Pattern parser; with ``allow_vars`` off it accepts exactly ground trees."""
    tok = cur.peek()
    if tok is None:
        raise LensSyntaxError("expected a term", cur.line, 0)
    if tok.kind == "UIDENT" and top:
        cur.next()
        args: list[Pattern] = []
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


def _pattern_from_text(text: str, allow_vars: bool) -> Pattern:
    cur = TokenCursor(tokenize(text), 1)
    p = parse_pattern_tokens(cur, allow_vars)
    cur.require_end()
    return p


def parse_pattern(text: str) -> Pattern:
    return _pattern_from_text(text, allow_vars=True)


def parse_tree(text: str) -> Tree:
    return _pattern_from_text(text, allow_vars=False)


def render_pattern(p: Pattern, parenthesize: bool = False) -> str:
    """Text of a term; a tree renders exactly as the ground pattern it is."""
    if isinstance(p, Wildcard):
        return "_"
    if isinstance(p, Var):
        return p.name
    if isinstance(p, IntLeaf):
        return str(p.value)
    if isinstance(p, StrLeaf):
        return escape_string(p.value)
    if not p.children:
        return p.ctor
    body = p.ctor + " " + " ".join(render_pattern(a, parenthesize=True) for a in p.children)
    return f"({body})" if parenthesize else body


def render_path(p: Path) -> str:
    return "[" + ",".join(str(i) for i in p) + "]"


def parse_path_tokens(cur: TokenCursor) -> Path:
    tok = cur.peek()
    if tok is not None and tok.kind == "PATH":
        return cur.next().value  # type: ignore[return-value]
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


def parse_path(text: str) -> Path:
    cur = TokenCursor(tokenize(text), 1)
    p = parse_path_tokens(cur)
    cur.require_end()
    return p


def render_link(l: Link) -> str:
    return (
        f"({render_pattern(l.source.pattern)} @ {render_path(l.source.path)})"
        f" <-> "
        f"({render_pattern(l.view.pattern)} @ {render_path(l.view.path)})"
    )


def render_links(ls) -> str:
    """Canonical link-set text: sorted, one link per line, trailing newline."""
    return "".join(render_link(l) + "\n" for l in canonical_links(ls))


def _parse_region(cur: TokenCursor) -> Region:
    cur.expect("LPAR")
    pat = parse_pattern_tokens(cur, allow_vars=True)
    cur.expect("AT")
    path = parse_path_tokens(cur)
    cur.expect("RPAR")
    return Region(pat, path)


def parse_link_line(tokens: list[Token], line: int) -> Link:
    cur = TokenCursor(tokens, line)
    src = _parse_region(cur)
    cur.expect("ARROW")
    view = _parse_region(cur)
    cur.require_end()
    return Link(src, view)


def parse_links(text: str) -> frozenset:
    """Parse a link file; blank lines and ``--`` comments are ignored."""
    out = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize(raw, lineno)
        if not tokens:
            continue
        out.add(parse_link_line(tokens, lineno))
    return frozenset(out)


def read_tree_file(text: str) -> Tree:
    """Tree files hold exactly one term and require a trailing newline."""
    if not text.endswith("\n"):
        raise LensSyntaxError("tree file must end with a newline", 1, 1)
    lines = [
        (no, tokenize(raw, no))
        for no, raw in enumerate(text.splitlines(), start=1)
    ]
    lines = [(no, toks) for no, toks in lines if toks]
    if len(lines) != 1:
        raise LensSyntaxError("tree file must contain exactly one term", 1, 1)
    no, toks = lines[0]
    cur = TokenCursor(toks, no)
    t = parse_pattern_tokens(cur, allow_vars=False)
    cur.require_end()
    return t


def write_tree_file(t: Tree) -> str:
    return render_pattern(t) + "\n"
