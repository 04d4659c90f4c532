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

Tokens.  One ``findall`` per line returns its token texts, in C, up to a
``--`` token; a catch-all alternative makes any other non-blank character a
token, so only blanks lie between texts.  A token's kind comes from its
first character.  Tree and link files are read from bare texts, and a
position is found only for an error, by ``tokenize`` reading the line again:
it reports the line's first stray character ahead of any other error, and
splits a path token that does not decode, so that the error points inside
it.  Programs and scripts are read from ``tokenize``'s ``Token``s.

A link file's path is decoded from its parent's, and a region pattern read
once; the writer renders a path from its parent's text, and each distinct
pattern once.  So the Python work of a link file is per link, while the bytes
stay O(depth) per link: the format is unchanged, because a file in it is
self-describing line by line and the benchmark's independent parser reads it.
"""

from __future__ import annotations

import re
import string

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


# One token per match; ``findall`` skips the blanks between them.  Of two alternatives
# that can start alike the longer comes first (``--`` before INT, PATH before ``\S``).
_TOKEN_RE = re.compile(
    r"""
      [()_@\],=|~]            # one-character tokens
    | [A-Za-z][A-Za-z0-9']*   # UIDENT, LIDENT
    | "(?:\\.|[^"\\])*"       # STR
    | \[[0-9,]*\]            # PATH, which may still be malformed: its
    | \[[-\d,\s]*\]          #   usual form first, as that is faster
    | <--->
    | <->
    | --                      # a comment to the line's end
    | -?\d+                   # INT
    | \S                      # LBRACK, or a stray character
    """,
    re.VERBOSE,
)
_findall = _TOKEN_RE.findall
_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)

_FIXED = {
    "(": "LPAR", ")": "RPAR", "_": "UNDER", "@": "AT", "[": "LBRACK", "]": "RBRACK",
    ",": "COMMA", "=": "EQ", "|": "PIPE", "~": "TILDE", "<->": "ARROW", "<--->": "REL",
}
_FIRST = dict.fromkeys(string.ascii_uppercase, "UIDENT") | dict.fromkeys(string.ascii_lowercase, "LIDENT")
_FIRST |= dict.fromkeys(string.digits + "-", "INT") | {'"': "STR", "[": "PATH"}


def _texts(line: str) -> list[str]:
    """The token texts of one line, up to a ``--`` comment."""
    texts = _findall(line)
    if "--" in texts:
        del texts[texts.index("--") :]
    return texts


def _kind(text: str) -> str | None:
    """The kind of a token text from ``_texts``; None for a stray character."""
    kind = _FIXED.get(text) or _FIRST.get(text[0]) or ("INT" if text[0].isdecimal() else None)
    return None if text in ('"', "-") else kind  # a lone '"' or '-' is stray


class Token(str):
    """A token's text, with its ``kind``, ``line``, ``col`` and a path's indices, ``value``."""

    text = property(str.__str__)  # the text as a plain ``str``


def _decode_path(body: str, paths: dict[str, Path]) -> Path | None:
    """``tuple(map(int, body.split(",")))`` (``()`` if blank), or None if that fails.  ``paths``
    caches the bodies decoded so far: a body whose parent, the text before its last comma,
    is cached as a non-empty path costs one ``int`` (an empty one would let ``" ,5"`` in)."""
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


def tokenize(text: str, line: int = 1) -> list[Token]:
    """The tokens of one logical line; a stray character is an error.

    Each text is found after the one before it.  A path token that does not
    decode becomes an LBRACK, and the line is read on from just inside it.
    """
    out: list[Token] = []
    paths: dict[str, Path] = {}
    col, texts = 0, _texts(text)[::-1]  # texts are taken from the end
    while texts:
        t = texts.pop()
        col = text.find(t, col)
        kind = _kind(t)
        if kind is None:
            raise LensSyntaxError(f"unexpected character {t!r}", line, col + 1)
        value = _decode_path(t[1:-1], paths) if kind == "PATH" else None
        if kind == "PATH" and value is None:
            t, kind, texts = "[", "LBRACK", _texts(text[col + 1 :])[::-1]
        tok = str.__new__(Token, t)
        tok.__dict__ = {"kind": kind, "line": line, "col": col + 1, "value": value}
        out.append(tok)
        col += len(t)
    return out


def unescape_string(raw: str, line: int = 0, col: int = 0) -> str:
    """The text of a string token, whose only escapes are ``\\"`` and ``\\\\``."""

    def unescape(m: re.Match) -> str:
        if m[1] not in ('"', "\\"):
            raise LensSyntaxError("only \\\" and \\\\ escapes are allowed", line, col)
        return m[1]

    body = raw[1:-1]
    return _ESCAPE_RE.sub(unescape, body) if "\\" in body else body


def escape_string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


class TokenCursor:
    """Sequential reader over ``tokens[pos:end]``: ``Token``s, or the bare texts of ``raw``, which
    become ``Token``s for an error or ``peek``.  The two agree up to the first path token that does
    not decode, where any reader fails.  An error at ``end`` names the token there, or ``''``."""

    def __init__(self, tokens: list, line=0, pos=0, end: int | None = None, raw: str | None = None):
        self.tokens, self.pos, self.line, self.raw = tokens, pos, line, raw
        self.end = len(tokens) if end is None else end

    def positioned(self) -> list[Token]:
        if self.raw is not None:  # a stray character raises here
            self.tokens, self.raw = tokenize(self.raw, self.line), None
            self.end = len(self.tokens)
        return self.tokens

    def error(self, message: str, i: int | None = None) -> LensSyntaxError:
        """``message`` at token ``i``, whose text replaces ``{!r}``; at the line if none."""
        toks = self.positioned()
        if i is not None and i < len(toks):
            tok = toks[i]
            return LensSyntaxError(message.format(tok.text), tok.line, tok.col)
        return LensSyntaxError(message.format(""), self.line, 0)

    def peek(self) -> Token | None:
        return self.positioned()[self.pos] if self.pos < self.end else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str) -> str:
        pos = self.pos
        if pos < self.end:
            tok = self.tokens[pos]
            if (tok.kind if self.raw is None else _FIXED.get(tok) or _kind(tok)) == kind:
                self.pos = pos + 1
                return tok
        raise self.error(f"expected {kind}, found {{!r}}", pos)

    def require_end(self) -> None:
        if self.pos < self.end:
            raise self.error("trailing input {!r}", self.pos)


# Token texts that end an application's argument list: ``) ~ @ ] <->``.
_ARGS_END = frozenset((")", "~", "@", "]", "<->"))


def parse_term(cur: TokenCursor, allow_vars: bool) -> Pattern:
    """Read one term; with ``allow_vars`` off it accepts exactly ground trees.

    A term is an application ``Ctor arg ..`` whose arguments are atoms or
    parenthesized terms; it ends before ``) ~ @ ] <->`` or the end of the
    line.  ``stack`` holds the open applications, as ``(ctor, args)``, and
    the open parentheses, as ``None``.  A kind is read from a first character.
    """
    toks, pos, end = cur.tokens, cur.pos, cur.end
    stack: list = []
    top = True  # at the start of a whole term, where an application may begin
    while True:
        if pos == end:
            if end == len(toks):
                raise cur.error("expected a term")
            raise cur.error("unexpected token {!r}", end)  # the token that ended the cursor
        tok = toks[pos]
        c = tok[0]
        if c == "(":
            pos += 1
            stack.append(None)
            top = True
            continue
        if "A" <= c <= "Z":
            if top:
                stack.append((str(tok), []))
                value = None
            else:
                value = Node(str(tok))
        elif c == '"' and len(tok) > 1:
            try:
                value = StrLeaf(unescape_string(tok) if "\\" in tok else tok[1:-1])
            except LensSyntaxError as e:
                raise cur.error(e.message, pos) from None
        elif c == "_":
            if not allow_vars:
                raise cur.error("wildcard not allowed in a tree", pos)
            value = WILDCARD
        elif "a" <= c <= "z":
            if not allow_vars:
                raise cur.error("variable not allowed in a tree", pos)
            value = Var(str(tok))
        elif c.isdecimal() or c == "-" and len(tok) > 1:
            value = IntLeaf(int(tok))
        else:
            raise cur.error("unexpected token {!r}", pos)
        pos += 1
        # Hand the finished term to the innermost open frame, closing frames
        # until one wants another argument or the whole term is done.
        while stack:
            frame = stack[-1]
            if frame is None:
                if pos == end or toks[pos] != ")":
                    cur.pos = pos
                    cur.expect("RPAR")  # raises
                pos += 1
                stack.pop()
                continue
            if value is not None:
                frame[1].append(value)
            if pos < end and toks[pos] not in _ARGS_END:
                top = False
                break
            stack.pop()
            value = Node(frame[0], tuple(frame[1]))
        else:
            cur.pos = pos
            return value


def _read_all(text: str, read):
    """``read`` of all of ``text``, as one line."""
    cur = TokenCursor(_texts(text), 1, raw=text)
    value = read(cur)
    cur.require_end()
    return value


def parse_pattern(text: str) -> Pattern:
    return _read_all(text, lambda cur: parse_term(cur, allow_vars=True))


def parse_tree(text: str) -> Tree:
    return _read_all(text, lambda cur: parse_term(cur, allow_vars=False))


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
    if tok is not None and tok.kind == "PATH":
        cur.pos += 1
        return tok.value
    # A path token that does not decode comes out of ``tokenize`` piece by
    # piece: read the pieces, so that the error names the one at fault.
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
    return _read_all(text, parse_path_tokens)


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


def _parse_region(cur: TokenCursor, paths: dict[str, Path], patterns: dict[tuple, Pattern]) -> Region:
    """Read ``(<pattern> @ [path])`` from bare texts.  ``patterns`` maps the texts
    up to each ``@`` read so far to their pattern, so no pattern is read twice."""
    toks, end = cur.tokens, cur.end
    if cur.pos == end or toks[cur.pos] != "(":
        cur.expect("LPAR")  # raises
    pos = cur.pos = cur.pos + 1
    try:
        at = toks.index("@", pos)
    except ValueError:
        at = pos
    pat = patterns.get(key := tuple(toks[pos:at]))
    if pat is None:
        pat = patterns[key] = parse_term(cur, allow_vars=True)
        if cur.pos != at:  # then the reading fails, and ``patterns`` goes with it
            cur.expect("AT")
    tok = toks[at + 1] if at + 1 < end else ""
    path = _decode_path(tok[1:-1], paths) if tok[:1] == "[" and len(tok) > 1 else None
    cur.pos = at + 1
    if path is None:
        parse_path_tokens(cur)  # raises, naming where
    if at + 2 == end or toks[at + 2] != ")":
        cur.pos = at + 2
        cur.expect("RPAR")  # raises
    cur.pos = at + 3
    return Region(pat, path)


def parse_links(text: str) -> frozenset:
    """Parse a link file; blank lines and ``--`` comments are ignored."""
    out = set()
    paths: dict[str, Path] = {}
    patterns: dict[tuple, Pattern] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not (texts := _texts(raw)):
            continue
        cur = TokenCursor(texts, lineno, raw=raw)
        src = _parse_region(cur, paths, patterns)
        cur.expect("ARROW")
        view = _parse_region(cur, paths, patterns)
        cur.require_end()
        out.add(Link(src, view))
    return frozenset(out)


def read_tree_file(text: str) -> Tree:
    """Tree files hold exactly one term and require a trailing newline."""
    if not text.endswith("\n"):
        raise LensSyntaxError("tree file must end with a newline", 1, 1)
    lines = [(texts, no, raw) for no, raw in enumerate(text.splitlines(), 1) if (texts := _texts(raw))]
    if len(lines) != 1:
        for _, no, raw in lines:
            tokenize(raw, no)  # a stray character is reported first
        raise LensSyntaxError("tree file must contain exactly one term", 1, 1)
    texts, no, raw = lines[0]
    cur = TokenCursor(texts, no, raw=raw)
    t = parse_term(cur, allow_vars=False)
    cur.require_end()
    return t


def write_tree_file(t: Tree) -> str:
    return render_pattern(t) + "\n"
