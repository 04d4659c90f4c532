"""View-edit operations that co-maintain the link set.

Every operation rewrites the view and updates the links between the untouched
source and the evolving view by one rule, ``_relink``.  An edit names the view
paths it cuts (whose content changes) and the subtrees it moves.  A link under
a moved subtree follows it.  Any other link dies when a cut lies at or above
its view path, or below it on its region's own material rather than in one of
the region's wildcard holes.  List ``insert``/``delete`` rebuild the spine
once: they cut the old tail and every cell from the index on, and move each
shifted cell by one, so a shifted element keeps its links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .engine import IllTypedInput
from .schema import IllTyped, Schema, check_tree_type, type_at
from .text import (
    TokenCursor,
    parse_path_tokens,
    parse_term,
    render_path,
    render_pattern,
    to_int,
    token_lines,
)
from .trees import (
    Link,
    LinkSet,
    Node,
    Path,
    Pattern,
    Region,
    Tree,
    Wildcard,
    PathOutOfRange,
    sel,
)


class EditError(Exception):
    pass


class OverlappingPaths(EditError):
    """One path is a prefix of the other (or they are equal)."""


class NotAList(EditError):
    """The addressed subtree is not a Cons/Nil spine."""


class IndexOutOfRange(EditError):
    pass


class EditScriptError(EditError):
    """A script step failed; carries the zero-based step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step {step}: {cause}")
        self.step = step
        self.cause = cause


@dataclass(frozen=True)
class EditState:
    """The evolving view and the surviving links against the original source."""

    view: Tree
    links: LinkSet


@dataclass
class EditContext:
    """Optional typing context; when present, edits enforce view types."""

    schema: Schema
    view_type: str


def _replace_at(t: Tree, p: Path, sub: Tree) -> Tree:
    above = []
    for i in p:
        if not isinstance(t, Node) or not 0 <= i < len(t.children):
            raise PathOutOfRange(f"path {list(p)} does not resolve")
        above.append(t)
        t = t.children[i]
    for node, i in zip(reversed(above), reversed(p)):
        sub = Node(node.ctor, node.children[:i] + (sub,) + node.children[i + 1 :])
    return sub


_CUT, _MOVE = "cut", "move"  # trie marks; path indices are the int keys


def _cut_inside(trie: dict, pattern: Pattern) -> bool:
    """Is the region's root cut, or a path under it on the pattern's own material?"""
    stack = [(trie, pattern)]
    while stack:
        trie, q = stack.pop()
        if _CUT in trie:
            return True
        if isinstance(q, Node):
            for i, child in enumerate(q.children):
                if i in trie and not isinstance(child, Wildcard):
                    stack.append((trie[i], child))
    return False


def _relink(links: LinkSet, cuts: list[Path], moves: Iterable, keep: bool = False) -> LinkSet:
    """The one link rule of every edit (see the module docstring): each link
    walks a trie of the edit's paths once, and a move wins over cuts above it."""
    trie: dict = {}
    marks = [(p, _CUT, True) for p in cuts] + [(frm, _MOVE, (len(frm), to)) for frm, to in moves]
    for p, mark, value in marks:
        node = trie
        for i in p:
            node = node.setdefault(i, {})
        node[mark] = value
    out = []
    for l in links:
        vp, node, cut = l.view.path, trie, False
        for i in vp:
            if _MOVE in node:
                break
            cut = cut or _CUT in node
            node = node.get(i)
            if node is None:
                break
        if node is not None and _MOVE in node:
            depth, to = node[_MOVE]
            out.append(Link(l.source, Region(l.view.pattern, to + vp[depth:])))
            if keep:
                out.append(l)
        elif not cut and (node is None or not _cut_inside(node, l.view.pattern)):
            out.append(l)
    return frozenset(out)


def _type_at(ctx: EditContext | None, view: Tree, p: Path) -> str | None:
    """Type of the view node at ``p``; apply_script has type-checked the view."""
    return None if ctx is None else type_at(ctx.schema, ctx.view_type, view, p)


def _check_type(ctx: EditContext | None, view: Tree, p: Path, t: Tree) -> None:
    ty = _type_at(ctx, view, p)
    if ty is None:
        return
    try:
        check_tree_type(ctx.schema, ty, t)  # type: ignore[union-attr]
    except IllTyped as e:
        raise IllTypedInput(f"replacement at {list(p)}: {e}") from e


def replace(st: EditState, p: Path, t: Tree, ctx: EditContext | None = None) -> EditState:
    """Replace the subtree at ``p``; links overlapping the change are destroyed."""
    sel(st.view, p)
    _check_type(ctx, st.view, p, t)
    return EditState(_replace_at(st.view, p, t), _relink(st.links, [p], []))


def _disjoint(st: EditState, p: Path, q: Path, ctx: EditContext | None, clash: str) -> tuple[Tree, Tree]:
    """The subtrees at ``p`` and ``q``, which may not overlap and, with a context, share a type."""
    if q[: len(p)] == p or p[: len(q)] == q:
        raise OverlappingPaths(f"{list(p)} and {list(q)} overlap")
    a = sel(st.view, p)
    b = sel(st.view, q)
    ta = _type_at(ctx, st.view, p)
    tb = _type_at(ctx, st.view, q)
    if ta != tb:
        raise IllTypedInput(clash.format(ta, tb))
    return a, b


def copy(st: EditState, frm: Path, to: Path, ctx: EditContext | None = None) -> EditState:
    """Copy the subtree at ``frm`` over ``to``, duplicating its links."""
    sub, _ = _disjoint(st, frm, to, ctx, "cannot copy a {} over a {}")
    view = _replace_at(st.view, to, sub)
    return EditState(view, _relink(st.links, [to], [(frm, to)], keep=True))


def move(
    st: EditState, frm: Path, to: Path, filler: Tree, ctx: EditContext | None = None
) -> EditState:
    """Copy then vacate: links at ``frm`` are redirected to ``to``."""
    _check_type(ctx, st.view, frm, filler)
    # The copy leaves the type at ``frm`` as it was, so the filler is typed once, above.
    return replace(copy(st, frm, to, ctx), frm, filler)


def swap(st: EditState, p: Path, q: Path, ctx: EditContext | None = None) -> EditState:
    """Exchange two subtrees and the link view-path prefixes with them."""
    a, b = _disjoint(st, p, q, ctx, "cannot swap a {} with a {}")
    view = _replace_at(_replace_at(st.view, p, b), q, a)
    return EditState(view, _relink(st.links, [p, q], [(p, q), (q, p)]))


def _spine(view: Tree, list_path: Path) -> tuple[str | None, Tree, list[Tree]]:
    """Return (cons name, terminator, elements) of the spine at ``list_path``."""
    node = sel(view, list_path)
    cons: str | None = None
    elems: list[Tree] = []
    while isinstance(node, Node) and len(node.children) == 2 and cons in (None, node.ctor):
        cons = node.ctor
        elems.append(node.children[0])
        node = node.children[1]
    if not isinstance(node, Node) or node.children:
        raise NotAList(f"no list spine at {list(list_path)}")
    return cons, node, elems


def _cell(list_path: Path, j: int) -> Path:
    return list_path + (1,) * j + (0,)


def _cell_types(ctx: EditContext, view: Tree, list_path: Path, cons: str, n: int) -> list[str]:
    """Types of cells 0..n-1 by one schema walk down the spine; a list's cell
    type may change along it, as in ``data P a b = Pr a (P b a) | E``."""
    sch, ty, cells = ctx.schema, _type_at(ctx, view, list_path), []
    for _ in range(n):
        c = sch.constructor(ty, cons)  # type: ignore[arg-type]
        cells.append(c.arg_types[0])  # type: ignore[union-attr]
        ty = c.arg_types[1]  # type: ignore[union-attr]
    return cells


def _respine(view: Tree, list_path: Path, cons: str, elems: list[Tree], nil: Tree) -> Tree:
    """``view`` with the spine at ``list_path`` rebuilt once, from ``elems`` and ``nil``."""
    spine = nil
    for e in reversed(elems):
        spine = Node(cons, (e, spine))
    return _replace_at(view, list_path, spine)


def insert(
    st: EditState, list_path: Path, i: int, elem: Tree, ctx: EditContext | None = None
) -> EditState:
    """Insert ``elem`` at position ``i``; shifted elements keep their links."""
    cons, nil, elems = _spine(st.view, list_path)
    n = len(elems)
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"insert at {i} in a list of length {n}")
    if cons is None:
        if ctx is None:
            raise NotAList("cannot infer the cell constructor of an empty list")
        ty = type_at(ctx.schema, ctx.view_type, st.view, list_path)
        cell = ctx.schema.list_cell(ty)
        if cell is None:
            raise NotAList(f"type {ty} has no list cell constructor")
        cons = cell.name
    tail = list_path + (1,) * n
    if ctx is not None:
        _check_type(ctx, st.view, tail, Node(cons, (elem, nil)))
        cells = _cell_types(ctx, st.view, list_path, cons, n + 1)
        for j in range(n - 1, i - 1, -1):
            if cells[j] != cells[j + 1]:  # elem fits cells j+1..n: it fits cell n
                _check_type(ctx, st.view, _cell(list_path, j), elem)
                raise IllTypedInput(f"cannot copy a {cells[j]} over a {cells[j + 1]}")
    view = _respine(st.view, list_path, cons, elems[:i] + [elem] + elems[i:], nil)
    shifted = [_cell(list_path, j) for j in range(i, n + 1)]
    return EditState(view, _relink(st.links, [tail] + shifted[:-1], zip(shifted, shifted[1:])))


def delete(st: EditState, list_path: Path, i: int, ctx: EditContext | None = None) -> EditState:
    """Delete the element at ``i``; its links die, later elements shift down."""
    cons, nil, elems = _spine(st.view, list_path)
    n = len(elems)
    if not 0 <= i < n:
        raise IndexOutOfRange(f"delete at {i} in a list of length {n}")
    last = list_path + (1,) * (n - 1)
    if ctx is not None:
        cells = _cell_types(ctx, st.view, list_path, cons, n)  # type: ignore[arg-type]
        for j in range(i + 1, n):
            if cells[j] != cells[j - 1]:
                raise IllTypedInput(f"cannot copy a {cells[j]} over a {cells[j - 1]}")
        _check_type(ctx, st.view, last, nil)
    view = _respine(st.view, list_path, cons, elems[:i] + elems[i + 1 :], nil)  # type: ignore[arg-type]
    shifted = [_cell(list_path, j) for j in range(i, n)]
    return EditState(view, _relink(st.links, [last] + shifted, zip(shifted[1:], shifted)))


# ---------------------------------------------------------------------------
# Scripts as data


@dataclass(frozen=True)
class Replace:
    path: Path
    tree: Tree


@dataclass(frozen=True)
class Copy:
    frm: Path
    to: Path


@dataclass(frozen=True)
class Move:
    frm: Path
    to: Path
    filler: Tree


@dataclass(frozen=True)
class Swap:
    a: Path
    b: Path


@dataclass(frozen=True)
class Insert:
    list_path: Path
    index: int
    elem: Tree


@dataclass(frozen=True)
class Delete:
    list_path: Path
    index: int


EditOp = Union[Replace, Copy, Move, Swap, Insert, Delete]


def apply_op(st: EditState, op: EditOp, ctx: EditContext | None = None) -> EditState:
    """Run ``op`` through the edit function of its keyword, looked up at call time."""
    for name, (cls, _kinds) in _OPS.items():
        if isinstance(op, cls):
            return globals()[name](st, *vars(op).values(), ctx)
    raise EditError(f"unknown operation {op!r}")


def apply_script(st: EditState, script: Iterable[EditOp], ctx: EditContext | None = None) -> EditState:
    """Left-to-right fold; the first failing step aborts with its index.

    With a typing context the input view is type-checked once, as part of
    step 0; each step then keeps the view well-typed.
    """
    script = list(script)
    if ctx is not None and script:
        try:
            check_tree_type(ctx.schema, ctx.view_type, st.view)
        except IllTyped as e:
            raise EditScriptError(0, IllTypedInput(str(e))) from e
    for i, op in enumerate(script):
        try:
            st = apply_op(st, op, ctx)
        except (EditError, PathOutOfRange, IllTypedInput) as e:
            raise EditScriptError(i, e) from e
    return st


def _parse_paren_tree(cur: TokenCursor) -> Tree:
    cur.expect("LPAR")
    t = parse_term(cur, allow_vars=False)
    cur.expect("RPAR")
    return t


# Script argument kinds: (parse, render).
_PATH = (parse_path_tokens, render_path)
_INT = (lambda cur: to_int(cur, cur.expect("INT"), cur.pos - 1), str)
_TREE = (_parse_paren_tree, lambda t: f"({render_pattern(t)})")

# The script grammar: keyword -> (op class, argument kinds).  An op's fields are
# its arguments in order, as are those of the edit function of the same name.
_OPS = {
    "replace": (Replace, (_PATH, _TREE)),
    "copy": (Copy, (_PATH, _PATH)),
    "move": (Move, (_PATH, _PATH, _TREE)),
    "swap": (Swap, (_PATH, _PATH)),
    "insert": (Insert, (_PATH, _INT, _TREE)),
    "delete": (Delete, (_PATH, _INT)),
}


def parse_script(text: str) -> list[EditOp]:
    """One operation per line; blank lines and ``--`` comments are ignored."""
    ops: list[EditOp] = []
    for cur in token_lines(text):
        head = cur.expect("LIDENT")
        if head not in _OPS:
            raise cur.error("unknown edit operation {!r}", 0)
        cls, kinds = _OPS[head]
        ops.append(cls(*[parse(cur) for parse, _ in kinds]))
        cur.require_end()
    return ops


def render_script(ops: Iterable[EditOp]) -> str:
    lines = []
    for op in ops:
        for name, (cls, kinds) in _OPS.items():
            if isinstance(op, cls):
                args = [render(a) for (_, render), a in zip(kinds, vars(op).values())]
                lines.append(" ".join([name, *args]))
    return "".join(line + "\n" for line in lines)
