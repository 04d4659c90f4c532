"""The benchmark's own reader and writer for treelens' text formats.

Trees are plain Python values here: a constructor application is a tuple
``(ctor, child, ...)``, a text leaf is a ``str`` and an integer leaf an
``int``.  Patterns add ``WILD`` (``None``) for ``_``.  A link is the 4-tuple
``(source_pattern, source_path, view_pattern, view_path)`` with paths as
tuples of ints.

Everything is iterative, so documents far deeper than the interpreter's
recursion limit read and write fine.  Nothing here imports ``treelens``: these
functions are the independent side of every output check.
"""

from __future__ import annotations

import re

WILD = None

_TOKEN = re.compile(
    r'\s*(?:(?P<str>"(?:\\.|[^"\\])*")|(?P<int>-?\d+)|(?P<ctor>[A-Z][A-Za-z0-9\']*)'
    r"|(?P<path>\[[-\d,\s]*\])|(?P<arrow><->)|(?P<p>[()_@]))"
)


_UNESCAPE = re.compile(r"\\(.)")


class TextError(ValueError):
    pass


def _tokens(text: str) -> list[tuple[str, object]]:
    out = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise TextError(f"unexpected text at {pos}: {text[pos:pos + 20]!r}")
        kind = m.lastgroup
        raw = m.group(kind)
        if kind == "str":
            out.append(("atom", _UNESCAPE.sub(r"\1", raw[1:-1])))
        elif kind == "int":
            out.append(("atom", int(raw)))
        elif kind == "ctor":
            out.append(("ctor", raw))
        elif kind == "path":
            inner = raw[1:-1].strip()
            out.append(("path", tuple(int(x) for x in inner.split(",")) if inner else ()))
        elif kind == "arrow":
            out.append(("arrow", raw))
        elif raw == "_":
            out.append(("atom", WILD))
        else:
            out.append((raw, raw))
        pos = m.end()
    return out


def _term(toks: list, i: int) -> tuple[object, int]:
    """Parse one top-level term from ``toks[i:]``; stops at ``@``, ``)`` or the end.

    A group is a parenthesised term or the top level; its first constructor
    heads an application and collects the atoms, bare constructors and
    groups that follow.
    """
    stack: list[list] = [[None, [], False]]  # [head, args, opened by "("]
    n = len(toks)
    while True:
        kind, val = toks[i] if i < n else ("end", None)
        top = stack[-1]
        if kind == "(":
            stack.append([None, [], True])
        elif kind in ("ctor", "atom"):
            if top[0] is None and not top[1]:
                top[0] = (kind, val)
            else:
                top[1].append((val,) if kind == "ctor" else val)
        elif kind == ")" and top[2]:
            stack.pop()
            value = _close(top)
            parent = stack[-1]
            if parent[0] is None and not parent[1]:
                parent[0] = ("value", value)
            else:
                parent[1].append(value)
        else:
            if len(stack) != 1:
                raise TextError("unbalanced parentheses")
            return _close(top), i
        i += 1


def _close(group: list) -> object:
    head, args, _ = group
    if head is None:
        raise TextError("empty term")
    kind, val = head
    if kind == "ctor":
        return (val, *args)
    if args:
        raise TextError("only a constructor takes arguments")
    return val


def parse_tree(text: str) -> object:
    toks = _tokens(text)
    t, i = _term(toks, 0)
    if i != len(toks):
        raise TextError("trailing input after the term")
    return t


def parse_links(text: str) -> set:
    """Link file to a set of ``(src_pattern, src_path, view_pattern, view_path)``."""
    out = set()
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("--"):
            continue
        toks = _tokens(line)
        regions = []
        i = 0
        for side in range(2):
            if side and toks[i][0] != "arrow":
                raise TextError(f"expected <-> in {line!r}")
            i += side
            if toks[i][0] != "(":
                raise TextError(f"expected a region in {line!r}")
            pat, i = _term(toks, i + 1)
            if toks[i][0] != "@" or toks[i + 1][0] != "path" or toks[i + 2][0] != ")":
                raise TextError(f"malformed region in {line!r}")
            regions += [pat, toks[i + 1][1]]
            i += 3
        if i != len(toks):
            raise TextError(f"trailing input in {line!r}")
        out.add(tuple(regions))
    return out


def _atom(v: object) -> str:
    if v is WILD:
        return "_"
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(v)


def render(t: object) -> str:
    """Tree or pattern text in treelens' syntax, without a trailing newline."""
    parts: list[str] = []
    # Work items: a value to render, with whether it sits in argument position,
    # or a literal string to emit.
    stack: list[tuple[bool, object]] = [(False, t)]
    while stack:
        is_arg, v = stack.pop()
        if is_arg is None:
            parts.append(v)  # type: ignore[arg-type]
            continue
        if not isinstance(v, tuple):
            parts.append(_atom(v))
            continue
        if len(v) == 1:
            parts.append(v[0])
            continue
        if is_arg:
            parts.append("(")
            stack.append((None, ")"))
        parts.append(v[0])
        for child in reversed(v[1:]):
            stack.append((True, child))
            stack.append((None, " "))
    return "".join(parts)


def render_tree_file(t: object) -> str:
    return render(t) + "\n"


def render_path(p: tuple) -> str:
    return "[" + ",".join(map(str, p)) + "]"


def get_at(t: object, path: tuple) -> object:
    for i in path:
        t = t[i + 1]  # type: ignore[index]
    return t


def set_at(t: object, path: tuple, sub: object) -> object:
    """Copy of ``t`` with the subtree at ``path`` replaced; iterative."""
    spine = []
    for i in path:
        spine.append(t)
        t = t[i + 1]  # type: ignore[index]
    for node, i in zip(reversed(spine), reversed(path)):
        sub = node[: i + 1] + (sub,) + node[i + 2:]  # type: ignore[index]
    return sub


def node_count(t: object) -> int:
    n, stack = 0, [t]
    while stack:
        v = stack.pop()
        n += 1
        if isinstance(v, tuple):
            stack.extend(v[1:])
    return n


def from_lib(t: object) -> object:
    """Plain-value copy of a treelens tree or pattern, read attribute by attribute."""
    # Post-order with an explicit stack; results collect on ``done``.
    done: list = []
    stack: list = [(t, False)]
    while stack:
        v, expanded = stack.pop()
        kids = getattr(v, "children", None)
        if kids is None:
            kids = getattr(v, "args", None)
        if kids is None:
            if hasattr(v, "value"):
                done.append(v.value)
            elif hasattr(v, "name"):
                raise TextError("variables do not occur in trees or link regions")
            else:
                done.append(WILD)
        elif expanded:
            k = len(kids)
            args = done[len(done) - k:] if k else []
            del done[len(done) - k:]
            done.append((v.ctor, *args))
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(kids))
    return done[0]


def links_from_lib(ls) -> set:
    return {
        (from_lib(l.source.pattern), tuple(l.source.path), from_lib(l.view.pattern), tuple(l.view.path))
        for l in ls
    }
