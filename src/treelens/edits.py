"""View-edit operations that co-maintain the link set.

Each operation rewrites the view and updates the links between the untouched
source and the evolving view: links whose view region is destroyed by the
edit are dropped, links on copied or moved subtrees follow them, and swapped
prefixes are exchanged.  A link survives an edit under its view path exactly
when the changed node falls inside one of its region's wildcard holes.

List insert/delete are derived: they expand into the core replace/copy/move
sequence over the Cons/Nil spine, so their link behaviour is inherited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .engine import IllTypedInput
from .schema import IllTyped, Schema, check_tree_type, type_at
from .text import (
    LensSyntaxError,
    TokenCursor,
    parse_pattern_tokens,
    parse_path_tokens,
    render_path,
    render_pattern,
    tokenize,
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
    if not p:
        return sub
    if not isinstance(t, Node) or p[0] < 0 or p[0] >= len(t.children):
        raise PathOutOfRange(f"path {list(p)} does not resolve")
    i = p[0]
    children = list(t.children)
    children[i] = _replace_at(children[i], p[1:], sub)
    return Node(t.ctor, tuple(children))


def _is_prefix(prefix: Path, p: Path) -> bool:
    return p[: len(prefix)] == prefix


def _cut_region(pattern: Pattern, rel: Path) -> bool:
    """Does changing the node at ``rel`` inside this region destroy it?

    Walking the pattern along ``rel``: reaching a wildcard means the change is
    inside an excluded hole (region intact); exhausting the path on concrete
    pattern content means the region's own material changed.
    """
    cur = pattern
    for i in rel:
        if isinstance(cur, Wildcard):
            return False
        if isinstance(cur, Node) and 0 <= i < len(cur.children):
            cur = cur.children[i]
        else:
            return False
    return not isinstance(cur, Wildcard)


def _destroyed(l: Link, p: Path) -> bool:
    vp = l.view.path
    if _is_prefix(p, vp):
        return True
    if _is_prefix(vp, p) and len(vp) < len(p):
        return _cut_region(l.view.pattern, p[len(vp):])
    return False


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
    view = _replace_at(st.view, p, t)
    links = frozenset(l for l in st.links if not _destroyed(l, p))
    return EditState(view, links)


def copy(st: EditState, frm: Path, to: Path, ctx: EditContext | None = None) -> EditState:
    """Copy the subtree at ``frm`` over ``to``, duplicating its links."""
    if _is_prefix(frm, to) or _is_prefix(to, frm):
        raise OverlappingPaths(f"{list(frm)} and {list(to)} overlap")
    sub = sel(st.view, frm)
    sel(st.view, to)
    if ctx is not None:
        src_ty = _type_at(ctx, st.view, frm)
        dst_ty = _type_at(ctx, st.view, to)
        if src_ty != dst_ty:
            raise IllTypedInput(f"cannot copy a {src_ty} over a {dst_ty}")
    view = _replace_at(st.view, to, sub)
    kept = [l for l in st.links if not _destroyed(l, to)]
    dups = [
        Link(l.source, Region(l.view.pattern, to + l.view.path[len(frm):]))
        for l in st.links
        if _is_prefix(frm, l.view.path)
    ]
    return EditState(view, frozenset(kept + dups))


def move(
    st: EditState, frm: Path, to: Path, filler: Tree, ctx: EditContext | None = None
) -> EditState:
    """Copy then vacate: links at ``frm`` are redirected to ``to``."""
    _check_type(ctx, st.view, frm, filler)
    return replace(copy(st, frm, to, ctx), frm, filler, ctx)


def swap(st: EditState, p: Path, q: Path, ctx: EditContext | None = None) -> EditState:
    """Exchange two subtrees and the link view-path prefixes with them."""
    if _is_prefix(p, q) or _is_prefix(q, p):
        raise OverlappingPaths(f"{list(p)} and {list(q)} overlap")
    a = sel(st.view, p)
    b = sel(st.view, q)
    if ctx is not None:
        ta = _type_at(ctx, st.view, p)
        tb = _type_at(ctx, st.view, q)
        if ta != tb:
            raise IllTypedInput(f"cannot swap a {ta} with a {tb}")
    view = _replace_at(_replace_at(st.view, p, b), q, a)
    out = []
    for l in st.links:
        vp = l.view.path
        if _is_prefix(p, vp):
            out.append(Link(l.source, Region(l.view.pattern, q + vp[len(p):])))
        elif _is_prefix(q, vp):
            out.append(Link(l.source, Region(l.view.pattern, p + vp[len(q):])))
        elif _destroyed(l, p) or _destroyed(l, q):
            continue  # an enclosing region's own content was rearranged
        else:
            out.append(l)
    return EditState(view, frozenset(out))


def _spine(view: Tree, list_path: Path) -> tuple[str | None, str, int]:
    """Return (cons name, terminator name, length) of the spine at ``list_path``."""
    node = sel(view, list_path)
    cons: str | None = None
    n = 0
    while True:
        if not isinstance(node, Node):
            raise NotAList(f"no list spine at {list(list_path)}")
        if len(node.children) == 0:
            return cons, node.ctor, n
        if len(node.children) != 2 or (cons is not None and node.ctor != cons):
            raise NotAList(f"no list spine at {list(list_path)}")
        cons = node.ctor
        n += 1
        node = node.children[1]


def _cons_name_from_ctx(ctx: EditContext | None, view: Tree, list_path: Path) -> str:
    if ctx is None:
        raise NotAList("cannot infer the cell constructor of an empty list")
    ty = _type_at(ctx, view, list_path)
    assert ty is not None
    cell = ctx.schema.list_cell(ty)
    if cell is None:
        raise NotAList(f"type {ty} has no list cell constructor")
    return cell.name


def _cell(list_path: Path, j: int) -> Path:
    return list_path + (1,) * j + (0,)


def insert(
    st: EditState, list_path: Path, i: int, elem: Tree, ctx: EditContext | None = None
) -> EditState:
    """Insert ``elem`` at position ``i``; shifted elements keep their links."""
    cons, _nil, n = _spine(st.view, list_path)
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"insert at {i} in a list of length {n}")
    if cons is None:
        cons = _cons_name_from_ctx(ctx, st.view, list_path)
    tail = sel(st.view, list_path + (1,) * n)
    st = replace(st, list_path + (1,) * n, Node(cons, (elem, tail)), ctx)
    for j in range(n - 1, i - 1, -1):
        st = move(st, _cell(list_path, j), _cell(list_path, j + 1), elem, ctx)
    return replace(st, _cell(list_path, i), elem, ctx)


def delete(st: EditState, list_path: Path, i: int, ctx: EditContext | None = None) -> EditState:
    """Delete the element at ``i``; its links die, later elements shift down."""
    _cons, _nil, n = _spine(st.view, list_path)
    if not 0 <= i < n:
        raise IndexOutOfRange(f"delete at {i} in a list of length {n}")
    for j in range(i + 1, n):
        sub = sel(st.view, _cell(list_path, j))
        st = move(st, _cell(list_path, j), _cell(list_path, j - 1), sub, ctx)
    tail = sel(st.view, list_path + (1,) * n)
    return replace(st, list_path + (1,) * (n - 1), tail, ctx)


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
    if isinstance(op, Replace):
        return replace(st, op.path, op.tree, ctx)
    if isinstance(op, Copy):
        return copy(st, op.frm, op.to, ctx)
    if isinstance(op, Move):
        return move(st, op.frm, op.to, op.filler, ctx)
    if isinstance(op, Swap):
        return swap(st, op.a, op.b, ctx)
    if isinstance(op, Insert):
        return insert(st, op.list_path, op.index, op.elem, ctx)
    if isinstance(op, Delete):
        return delete(st, op.list_path, op.index, ctx)
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
    t = parse_pattern_tokens(cur, allow_vars=False)
    cur.expect("RPAR")
    return t


def parse_script(text: str) -> list[EditOp]:
    """One operation per line; blank lines and ``--`` comments are ignored."""
    ops: list[EditOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize(raw, lineno)
        if not tokens:
            continue
        cur = TokenCursor(tokens, lineno)
        head = cur.expect("LIDENT").text
        if head == "replace":
            p = parse_path_tokens(cur)
            t = _parse_paren_tree(cur)
            ops.append(Replace(p, t))
        elif head == "copy":
            ops.append(Copy(parse_path_tokens(cur), parse_path_tokens(cur)))
        elif head == "move":
            frm = parse_path_tokens(cur)
            to = parse_path_tokens(cur)
            ops.append(Move(frm, to, _parse_paren_tree(cur)))
        elif head == "swap":
            ops.append(Swap(parse_path_tokens(cur), parse_path_tokens(cur)))
        elif head == "insert":
            p = parse_path_tokens(cur)
            i = int(cur.expect("INT").text)
            ops.append(Insert(p, i, _parse_paren_tree(cur)))
        elif head == "delete":
            p = parse_path_tokens(cur)
            ops.append(Delete(p, int(cur.expect("INT").text)))
        else:
            raise LensSyntaxError(f"unknown edit operation {head!r}", lineno, 1)
        cur.require_end()
    return ops


def render_script(ops: Iterable[EditOp]) -> str:
    lines = []
    for op in ops:
        if isinstance(op, Replace):
            lines.append(f"replace {render_path(op.path)} ({render_pattern(op.tree)})")
        elif isinstance(op, Copy):
            lines.append(f"copy {render_path(op.frm)} {render_path(op.to)}")
        elif isinstance(op, Move):
            lines.append(
                f"move {render_path(op.frm)} {render_path(op.to)} ({render_pattern(op.filler)})"
            )
        elif isinstance(op, Swap):
            lines.append(f"swap {render_path(op.a)} {render_path(op.b)}")
        elif isinstance(op, Insert):
            lines.append(
                f"insert {render_path(op.list_path)} {op.index} ({render_pattern(op.elem)})"
            )
        elif isinstance(op, Delete):
            lines.append(f"delete {render_path(op.list_path)} {op.index}")
    return "".join(line + "\n" for line in lines)
