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

One token stream.  One ``findall`` per line returns its token texts, in C,
up to a ``--`` token; a catch-all alternative makes any other non-blank
character a token, so only blanks lie between texts.  ``token_lines`` is the
one loop over a file's lines, and every reader, of tree, link, program and
script files alike, reads a line's bare texts through a ``TokenCursor`` (a
link file as the writer wrote it is read in one pass, below); a token's kind
comes from its first character.  A PATH token is exactly a path that
decodes; a malformed one lexes as its pieces, so an error points inside it.
Positions are found only for an error, by ``tokenize`` reading the line
again, to the same texts: it reports the line's first stray character ahead
of any other error.

Link files have two readers.  A file as ``render_links`` writes it, every
line ``(<pattern> @ [i,j,...]) <-> (<pattern> @ [i,j,...])`` with single
spaces, no comment and a newline at its end, is read by one ``findall`` of a
whole-line regex over the file; each distinct pattern is then read once and
each distinct path body decoded once, from its parent's.  Any other file,
one with a comment, a blank line, other spacing or a CRLF line end, and
every file that holds an error, goes to the line reader, which reads it
line by line through ``token_lines`` and alone reports errors.  The writer
renders a path from its parent's text, and each pattern object once, keyed
by identity.  So the Python work of a link file is per link, while the bytes
stay O(depth) per link: the format is unchanged, because a file in it is
self-describing line by line and the benchmark's independent parser reads it.
"""

from __future__ import annotations

import re
import string
import sys
from operator import itemgetter
from typing import Iterator

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


# A path index as ``int`` reads it: signed decimal digits, with blanks around them but
# not ``\x1c``-``\x1f``, which ``int`` does not strip (``str.strip`` does).
_INDEX = r"[^\S\x1c-\x1f]*-?\d+[^\S\x1c-\x1f]*"
# One token per match; ``findall`` skips the blanks between them.  Of two alternatives
# that can start alike the longer comes first (``--`` before INT, PATH before ``\S``).
# A PATH is exactly a path that decodes; a malformed one lexes as its pieces.
_TOKEN_RE = re.compile(
    rf"""
      [()_@\],=|~]            # one-character tokens
    | [A-Za-z][A-Za-z0-9']*   # UIDENT, LIDENT
    | "(?:\\.|[^"\\])*"       # STR
    | \[(?:[0-9]+(?:,[0-9]+)*)?\]           # PATH, its usual form first, as that is faster,
    | \[(?:\s*|{_INDEX}(?:,{_INDEX})*)\]    #   then a blank body or any other that decodes
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


def tokenize(text: str, line: int = 1) -> tuple[list[str], list[tuple[int, int]]]:
    """The token texts of one line and their (line, column)s; a stray character is an error.

    Each text is found after the one before it, as only blanks lie between them.
    """
    texts, where, col = _texts(text), [], 0
    for t in texts:
        col = text.find(t, col)
        if _kind(t) is None:
            raise LensSyntaxError(f"unexpected character {t!r}", line, col + 1)
        where.append((line, col + 1))
        col += len(t)
    return texts, where


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
    """Sequential reader over the token texts ``tokens[pos:end]`` of line ``line``, ``raw``, and
    of the lines that continue it, ``more``.  Their positions are found only for an error, from
    the same texts, by ``positioned``.  An error at ``end`` names the token there, or ``''``."""

    where: list[tuple[int, int]] | None = None  # each token's (line, column), once positioned
    more: tuple[TokenCursor, ...] = ()

    def __init__(self, tokens: list[str], line: int, raw: str):
        self.tokens, self.line, self.raw, self.pos, self.end = tokens, line, raw, 0, len(tokens)

    def extend(self, other: TokenCursor) -> None:
        """Read ``other``'s tokens on after this line's, as one logical line."""
        self.tokens += other.tokens
        self.end = len(self.tokens)
        self.more += (other,)

    def positioned(self) -> list[tuple[int, int]]:
        """The tokens' positions, from ``tokenize`` of the lines again; a stray character raises here."""
        if self.where is None:
            where = tokenize(self.raw, self.line)[1]
            for cur in self.more:
                where += cur.positioned()
            self.where = where
        return self.where

    def error(self, message: str, i: int | None = None) -> LensSyntaxError:
        """``message`` at token ``i``, whose text replaces ``{!r}``; at the line if none."""
        where = self.positioned()
        if i is not None and i < len(where):
            return LensSyntaxError(message.format(self.tokens[i]), *where[i])
        return LensSyntaxError(message.format(""), self.line, 0)

    def kind(self, i: int) -> str | None:
        """The kind of token ``i``; None at ``end`` or after, and for a stray character."""
        return _kind(self.tokens[i]) if i < self.end else None

    def expect(self, kind: str) -> str:
        pos = self.pos
        if pos < self.end and _kind(tok := self.tokens[pos]) == kind:
            self.pos = pos + 1
            return tok
        raise self.error(f"expected {kind}, found {{!r}}", pos)

    def require_end(self) -> None:
        if self.pos < self.end:
            raise self.error("trailing input {!r}", self.pos)


def token_lines(text: str) -> Iterator[TokenCursor]:
    """A cursor over each line of ``text`` that holds a token: the one loop of every reader."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if texts := _texts(raw):
            yield TokenCursor(texts, lineno, raw)


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
                stack.append((tok, []))
                value = None
            else:
                value = Node(tok)
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
            value = Var(tok)
        elif c.isdecimal() or c == "-" and len(tok) > 1:
            value = IntLeaf(to_int(cur, tok, pos))
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


def read_all(text: str, read):
    """``read`` of all of ``text``, as one line."""
    cur = TokenCursor(_texts(text), 1, text)
    value = read(cur)
    cur.require_end()
    return value


def parse_pattern(text: str) -> Pattern:
    return read_all(text, lambda cur: parse_term(cur, allow_vars=True))


def parse_tree(text: str) -> Tree:
    return read_all(text, lambda cur: parse_term(cur, allow_vars=False))


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


def to_int(cur: TokenCursor, text: str, i: int) -> int:
    """``int(text)``, read from token ``i``: an error there if it has more digits than ``int`` reads."""
    try:
        return int(text)
    except ValueError:
        raise cur.error(f"integer of more than {sys.get_int_max_str_digits()} digits", i) from None


def parse_path_tokens(cur: TokenCursor) -> Path:
    if cur.kind(cur.pos) == "PATH":  # a path that decodes, unless an index is too long for ``int``
        body, i = cur.tokens[cur.pos][1:-1], cur.pos
        cur.pos += 1
        return tuple([to_int(cur, x, i) for x in body.split(",")]) if body.strip() else ()
    # A malformed path is its pieces: read them, so that the error names the one at fault.
    cur.expect("LBRACK")
    out: list[int] = []
    if cur.kind(cur.pos) == "INT":
        out.append(to_int(cur, cur.expect("INT"), cur.pos - 1))  # the token ``expect`` read
        while cur.kind(cur.pos) == "COMMA":
            cur.pos += 1
            out.append(to_int(cur, cur.expect("INT"), cur.pos - 1))
    cur.expect("RBRACK")
    return tuple(out)


def parse_path(text: str) -> Path:
    return read_all(text, parse_path_tokens)


def render_link(l: Link) -> str:
    return (
        f"({render_pattern(l.source.pattern)} @ {render_path(l.source.path)})"
        f" <-> "
        f"({render_pattern(l.view.pattern)} @ {render_path(l.view.path)})"
    )


def render_links(ls) -> str:
    """Canonical link-set text: sorted, one link per line, trailing newline.

    Each pattern object renders once, keyed by its identity, which is safe
    because ``ls`` holds every pattern for the whole call, and must be so
    because a pattern's own hash would walk it with no depth guard (see
    ``trees``).  A path whose parent path was rendered before is its
    parent's text with one index appended.
    """
    patterns: dict[int, str] = {}
    paths: dict[Path, str] = {(): "[]"}

    def region(r: Region) -> str:
        pat = patterns.get(id(r.pattern))
        if pat is None:
            pat = patterns[id(r.pattern)] = render_pattern(r.pattern)
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
    """Read ``(<pattern> @ [path])``."""
    cur.expect("LPAR")
    pat = parse_term(cur, allow_vars=True)
    cur.expect("AT")
    path = parse_path_tokens(cur)
    cur.expect("RPAR")
    return Region(pat, path)


# The line breaks of ``str.splitlines``, none of which a line of the writer's holds.
_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
# A pattern as ``render_pattern`` writes it: no ``@`` and no ``--`` outside a string, whose
# only escapes are ``\"`` and ``\\``.  It is spelled plain* (special plain*)*, whose parts
# start with different characters, so a line that fails to match backtracks only linearly.
_PLAIN = rf'[^"@{_BREAKS}-]*'
_STRING = rf'"[^"\\{_BREAKS}]*(?:\\["\\][^"\\{_BREAKS}]*)*"'
_REGION = rf"\(({_PLAIN}(?:(?:-(?!-)|{_STRING}){_PLAIN})*) @ \[([-\d,]*)\]\)"
# One link line as ``render_links`` writes it: (pattern, path body) of its source and view.
_LINK_LINE_RE = re.compile(rf"^{_REGION} <-> {_REGION}$", re.MULTILINE)


def _read_rendered_links(text: str) -> frozenset | None:
    """The links of ``text`` if every line of it is as ``render_links`` writes it, else None.

    One ``findall`` reads the whole file.  A pattern of such a line holds no
    ``@`` and no comment, and its tokens are the line's tokens between ``(``
    and ``@``.  So the distinct patterns are read as one line, ``@`` between
    them, each once, and to what the line reader reads.  A path body is
    decoded from its parent's.  Anything that does not read returns None, for
    the line reader to read again and report.
    """
    if not text.endswith("\n"):
        return None
    lines = _LINK_LINE_RE.findall(text)
    if len(lines) != text.count("\n"):
        return None
    patterns = dict.fromkeys(map(itemgetter(0), lines)) | dict.fromkeys(map(itemgetter(2), lines))
    joined = " @ ".join(patterns)
    cur = TokenCursor(_findall(joined), 1, joined)
    toks, end = cur.tokens, cur.end
    try:
        for pat in patterns:
            patterns[pat] = parse_term(cur, allow_vars=True)
            if cur.pos < end and toks[cur.pos] != "@":
                return None
            cur.pos += 1
    except LensSyntaxError:
        return None
    paths: dict[str, Path] = {}
    for body in dict.fromkeys(map(itemgetter(1), lines)) | dict.fromkeys(map(itemgetter(3), lines)):
        if _decode_path(body, paths) is None:
            return None
    return frozenset(
        Link(Region(patterns[sp], paths[sb]), Region(patterns[vp], paths[vb])) for sp, sb, vp, vb in lines
    )


def parse_links(text: str) -> frozenset:
    """Parse a link file; blank lines and ``--`` comments are ignored.

    A file as ``render_links`` writes it is read by ``_read_rendered_links``;
    any other, and every error, by the line reader below.
    """
    fast = _read_rendered_links(text)
    if fast is not None:
        return fast
    out = set()
    for cur in token_lines(text):
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
    lines = list(token_lines(text))
    if len(lines) != 1:
        for cur in lines:
            cur.positioned()  # a stray character is reported first
        raise LensSyntaxError("tree file must contain exactly one term", 1, 1)
    cur = lines[0]
    t = parse_term(cur, allow_vars=False)
    cur.require_end()
    return t


def write_tree_file(t: Tree) -> str:
    return render_pattern(t) + "\n"
