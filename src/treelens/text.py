"""Textual grammar shared by all file formats.

Terms print as ``Ctor arg1 .. argN`` with parentheses around nested
applications, text leaves as double-quoted strings with ``\\"`` and ``\\\\``
escapes, integer leaves as optionally-signed decimals, and ``_`` for
wildcards; a tree is a term without ``_`` or variables.  Paths print as
``[i,j,...]`` and links as ``(<pattern> @ [path]) <-> (<pattern> @ [path])``,
one per line in canonical order.

One reader, ``parse_term``, reads every term: tree files, link regions, the
rule patterns of a program and the trees of an edit script.  It keeps an
explicit stack of open applications, so nesting depth is bounded by memory,
not by the recursion limit; ``render_pattern`` is a loop for the same reason.
The scanner folds leading whitespace into each token.  A well-formed path is
one token, decoded through a cache of path bodies shared by one file: a body
whose text up to its last comma was decoded before costs one ``int``.  The
writer renders a path from its parent's text when that is at hand, and each
distinct region pattern once.  So the Python work of a link file is per
link, while the bytes stay O(depth) per link: the format is unchanged,
because a file in it is self-describing line by line and the benchmark's
independent parser reads it.
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


# Each match is one token after any leading whitespace.  The most frequent
# tokens of link and tree files come first; of two alternatives that can
# start alike, the longer one comes first (``--`` before INT, REL before
# ARROW, PATH before LBRACK).
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<LPAR>\()
    | (?P<RPAR>\))
    | (?P<UNDER>_)
    | (?P<UIDENT>[A-Z][A-Za-z0-9']*)
    | (?P<STR>"(?:\\.|[^"\\])*")
    | (?P<PATH>\[[-\d,\s]*\])
    | (?P<AT>@)
    | (?P<COMMENT>--)
    | (?P<REL><--->)
    | (?P<ARROW><->)
    | (?P<INT>-?\d+)
    | (?P<LIDENT>[a-z][A-Za-z0-9']*)
    | (?P<LBRACK>\[)
    | (?P<RBRACK>\])
    | (?P<COMMA>,)
    | (?P<EQ>=)
    | (?P<PIPE>\|)
    | (?P<TILDE>~)
    )
    """,
    re.VERBOSE,
)
_SPACE_RE = re.compile(r"\s*")


def _decode_path(body: str, paths: dict[str, Path]) -> Path | None:
    """The indices of a path body, or None when it is not well formed.

    Equals ``tuple(map(int, body.split(",")))`` (``()`` for a blank body).
    ``paths`` caches the bodies decoded so far.  A body whose parent, the
    text before its last comma, is cached as a non-empty path costs one
    ``int``; an empty parent would let ``" ,5"`` through.
    """
    value = paths.get(body)
    if value is not None:
        return value
    k = body.rfind(",")
    parent = paths.get(body[:k]) if k > 0 else None
    try:
        if parent:
            value = parent + (int(body[k + 1 :]),)
        else:
            value = tuple(map(int, body.split(","))) if body.strip() else ()
    except ValueError:
        return None
    paths[body] = value
    return value


def _scan(text: str, line: int, paths: dict[str, Path]) -> list[tuple]:
    """Tokens of one line as plain ``Token``-shaped tuples; ``--`` ends the line."""
    out: list[tuple] = []
    match = _TOKEN_RE.match
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:
            pos = _SPACE_RE.match(text, pos).end()
            if pos == len(text):
                return out
            raise LensSyntaxError(f"unexpected character {text[pos]!r}", line, pos + 1)
        kind = m.lastgroup
        if kind == "COMMENT":
            return out
        start = m.start(kind)
        pos = m.end()
        tok = text[start:pos]
        if kind == "PATH":
            value = _decode_path(tok[1:-1], paths)
            if value is None:
                # Not a well-formed path: read it piece by piece, so that the
                # parser's error points inside it.
                out.append(("LBRACK", "[", line, start + 1, None))
                pos = start + 1
                continue
            out.append((kind, tok, line, start + 1, value))
        else:
            out.append((kind, tok, line, start + 1, None))


def tokenize(text: str, line: int = 1) -> list[Token]:
    """Tokenize one logical line; comments and whitespace are dropped."""
    return list(map(Token._make, _scan(text, line, {})))


def unescape_string(raw: str, line: int = 0, col: int = 0) -> str:
    body = raw[1:-1]
    if "\\" not in body:
        return body
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
    """Sequential reader over a list of tokens (``Token``s or tuples of its shape).

    It reads ``tokens[pos:end]``; an error at ``end`` names the token there,
    the one that ended the reading, or ``''`` at the end of the list.
    """

    def __init__(self, tokens: list, line: int = 0, pos: int = 0, end: int | None = None):
        self.tokens = tokens
        self.pos = pos
        self.line = line
        self.end = len(tokens) if end is None else end

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < self.end else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise LensSyntaxError("unexpected end of input", self.line, 0)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        pos = self.pos
        if pos < self.end and self.tokens[pos][0] == kind:
            self.pos = pos + 1
            return self.tokens[pos]
        stop = self.tokens[pos] if pos < len(self.tokens) else ("EOF", "", self.line, 0, None)
        _, text, line, col, _ = stop
        raise LensSyntaxError(f"expected {kind}, found {text!r}", line, col)

    def require_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise LensSyntaxError(f"trailing input {tok[1]!r}", tok[2], tok[3])


# Tokens that end an application's argument list.
_ARGS_END = frozenset(("RPAR", "TILDE", "AT", "RBRACK", "ARROW"))


def parse_term(cur: TokenCursor, allow_vars: bool) -> Pattern:
    """Read one term; with ``allow_vars`` off it accepts exactly ground trees.

    A term is an application ``Ctor arg ..`` whose arguments are atoms or
    parenthesized terms; it ends before ``) ~ @ ] <->`` or the end of the
    line.  ``stack`` holds the open applications, as ``(ctor, args)``, and
    the open parentheses, as ``None``.
    """
    toks, pos, end = cur.tokens, cur.pos, cur.end
    stack: list = []
    top = True  # at the start of a whole term, where an application may begin
    while True:
        if pos == end:
            if end == len(toks):
                raise LensSyntaxError("expected a term", cur.line, 0)
            _, text, line, col, _ = toks[end]  # the token that ended the cursor
            raise LensSyntaxError(f"unexpected token {text!r}", line, col)
        kind, text, line, col, _ = toks[pos]
        pos += 1
        if kind == "LPAR":
            stack.append(None)
            top = True
            continue
        if kind == "UIDENT":
            if top:
                stack.append((text, []))
                value = None
            else:
                value = Node(text)
        elif kind == "INT":
            value = IntLeaf(int(text))
        elif kind == "STR":
            value = StrLeaf(unescape_string(text, line, col))
        elif kind == "UNDER":
            if not allow_vars:
                raise LensSyntaxError("wildcard not allowed in a tree", line, col)
            value = WILDCARD
        elif kind == "LIDENT":
            if not allow_vars:
                raise LensSyntaxError("variable not allowed in a tree", line, col)
            value = Var(text)
        else:
            raise LensSyntaxError(f"unexpected token {text!r}", line, col)
        # Hand the finished term to the innermost open frame, closing frames
        # until one wants another argument or the whole term is done.
        while stack:
            frame = stack[-1]
            if frame is None:
                cur.pos = pos
                cur.expect("RPAR")
                pos += 1
                stack.pop()
                continue
            if value is not None:
                frame[1].append(value)
            if pos < end and toks[pos][0] not in _ARGS_END:
                top = False
                break
            stack.pop()
            value = Node(frame[0], tuple(frame[1]))
        else:
            cur.pos = pos
            return value


def _pattern_from_text(text: str, allow_vars: bool) -> Pattern:
    cur = TokenCursor(_scan(text, 1, {}), 1)
    p = parse_term(cur, allow_vars)
    cur.require_end()
    return p


def parse_pattern(text: str) -> Pattern:
    return _pattern_from_text(text, allow_vars=True)


def parse_tree(text: str) -> Tree:
    return _pattern_from_text(text, allow_vars=False)


def render_pattern(p: Pattern) -> str:
    """Text of a term; a tree renders exactly as the ground pattern it is."""
    out: list[str] = []
    todo: list = [p]  # terms still to render, and the text between them
    root = True  # only the outermost application goes without parentheses
    while todo:
        q = todo.pop()
        if q.__class__ is str:
            out.append(q)
        elif isinstance(q, Node):
            if root or not q.children:
                out.append(q.ctor)
            else:
                out.append("(" + q.ctor)
                todo.append(")")
            for c in reversed(q.children):
                todo.append(c)
                todo.append(" ")
        elif isinstance(q, StrLeaf):
            out.append(escape_string(q.value))
        elif isinstance(q, IntLeaf):
            out.append(str(q.value))
        elif isinstance(q, Var):
            out.append(q.name)
        else:  # the wildcard
            out.append("_")
        root = False
    return "".join(out)


def render_path(p: Path) -> str:
    return "[" + ",".join(map(str, p)) + "]"


def parse_path_tokens(cur: TokenCursor) -> Path:
    tok = cur.peek()
    if tok is not None and tok[0] == "PATH":
        cur.pos += 1
        return tok[4]
    cur.expect("LBRACK")
    out: list[int] = []
    tok = cur.peek()
    if tok is not None and tok[0] == "INT":
        out.append(int(cur.next()[1]))
        while (nxt := cur.peek()) is not None and nxt[0] == "COMMA":
            cur.next()
            out.append(int(cur.expect("INT")[1]))
    cur.expect("RBRACK")
    return tuple(out)


def parse_path(text: str) -> Path:
    cur = TokenCursor(_scan(text, 1, {}), 1)
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
    """Canonical link-set text: sorted, one link per line, trailing newline.

    Each distinct pattern renders once, and a path whose parent path was
    rendered before is its parent's text with one index appended.
    """
    patterns: dict[Pattern, str] = {}
    paths: dict[Path, str] = {(): "[]"}

    def region(r: Region) -> str:
        pat = patterns.get(r.pattern)
        if pat is None:
            pat = patterns[r.pattern] = render_pattern(r.pattern)
        p = r.path
        text = paths.get(p)
        if text is None:
            up = paths.get(p[:-1])
            if up is None:
                text = render_path(p)
            else:
                text = up[:-1] + ("," if len(p) > 1 else "") + str(p[-1]) + "]"
            paths[p] = text
        return f"({pat} @ {text})"

    return "".join(
        f"{region(l.source)} <-> {region(l.view)}\n" for l in canonical_links(ls)
    )


def _parse_region(cur: TokenCursor) -> Region:
    cur.expect("LPAR")
    pat = parse_term(cur, allow_vars=True)
    cur.expect("AT")
    path = parse_path_tokens(cur)
    cur.expect("RPAR")
    return Region(pat, path)


def parse_links(text: str) -> frozenset:
    """Parse a link file; blank lines and ``--`` comments are ignored."""
    out = set()
    paths: dict[str, Path] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _scan(raw, lineno, paths)
        if not tokens:
            continue
        cur = TokenCursor(tokens, lineno)
        src = _parse_region(cur)
        cur.expect("ARROW")
        view = _parse_region(cur)
        cur.require_end()
        out.add(Link(src, view))
    return frozenset(out)


def read_tree_file(text: str) -> Tree:
    """Tree files hold exactly one term and require a trailing newline."""
    if not text.endswith("\n"):
        raise LensSyntaxError("tree file must end with a newline", 1, 1)
    paths: dict[str, Path] = {}
    lines = [
        (no, tokens)
        for no, raw in enumerate(text.splitlines(), start=1)
        if (tokens := _scan(raw, no, paths))
    ]
    if len(lines) != 1:
        raise LensSyntaxError("tree file must contain exactly one term", 1, 1)
    no, tokens = lines[0]
    cur = TokenCursor(tokens, no)
    t = parse_term(cur, allow_vars=False)
    cur.require_end()
    return t


def write_tree_file(t: Tree) -> str:
    return render_pattern(t) + "\n"
