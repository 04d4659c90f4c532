"""Compiled rules: each rule of a program typed once and built once, at load.

A program's rules never change after validation, so the engine does not
interpret their patterns at each node.  The frontend types each side of a
rule with one ``check_tree_type`` walk, whose hole map (path -> type, in
preorder) names every variable and wildcard, and ``compile_rule`` turns the
rule into one frozen ``Rule``.

One compiler, ``_compile``, serves every pattern.  Given the path of each
hole and its slot, it classifies each node once: a hole, a constant (no
hole at or below it), or a constructor whose table holds its children's
entries.  Each rule compiles three patterns, and each serves two closures:

- the source, whose holes are its wildcards and then its variables, in the
  slot order ``build_source`` reads: ``match_source`` is ``is_match`` of the
  source, and ``build_source`` is ``reconstruct`` of it from slots holding
  the wildcards' fills (``defaults``, one ``default_value`` per wildcard,
  when rebuilding) and then the variables' parts;
- the view, whose holes are its variables: ``match_view`` is ``is_match``
  of the view, and ``build_view`` is ``reconstruct`` of it from the
  variables' views, in variable order;
- the region pattern ``erase_vars(source)``, whose holes are the wildcards:
  ``region`` is get's source region ``erase_vars(fill_wildcards(source,
  t))``, and ``merge`` gives the fills a link's source region gives the
  wildcards, or None unless the region holds ground content at each
  wildcard and equals the region pattern elsewhere, the wildcards that
  stand for erased variables included.

Each ``Variable``'s ``source_at`` / ``view_at`` is that variable's entry of
``decompose``, next to its types, its paths and the relation it recurses
into (None for a primitive, related by identity, whose leaf class is its
``kind``).  Rules hold no mutable state, so programs stay shareable.

A rule also carries its leaf check, ``check_leaves``: for a source the
pattern matched, whether each hole the engine does not recurse into holds a
value of its type.  Those holes are the primitive variables, checked by leaf
class, and the wildcards, checked by leaf class or, for a wildcard of a
declared type, by ``check_tree_type`` of its content; each is read through
its compiled accessor.  The types come from the hole map of the rule's
typing walk.  A match and a leaf check at every node of a walk type the
whole tree, as the rules themselves are typed, so get types nothing else,
and put's walk types the view the same way (see ``treelens.engine``).
``head`` is the key the engine dispatches a node on, through each
relation's tables of rules by head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .schema import KINDS, IllTyped, Schema, check_tree_type, default_value
from .trees import Node, Path, Pattern, Tree, Var, erase_vars, is_ground

if TYPE_CHECKING:
    from .frontend import Relation

# What a child of a compiled constructor is: fixed content, a hole (a slot of
# a build, a wildcard of a region), or a constructor with its own closures.
_CONST, _HOLE, _SUB = range(3)


@dataclass(frozen=True, eq=False)
class Variable:
    """One rule variable: its types and place on each side, and the lens it recurses into."""

    name: str
    relation: Relation | None  # None: a primitive, related by identity
    kind: type | None  # a primitive's leaf class; None where ``relation`` is set
    source_type: str
    view_type: str
    source_path: Path
    view_path: Path
    source_at: Callable[[Tree], Tree]
    view_at: Callable[[Tree], Tree]


@dataclass(frozen=True, eq=False)
class Rule:
    """A validated inductive rule ``source ~ view``, compiled for the engine."""

    source: Pattern
    view: Pattern
    line: int
    index: int
    variables: tuple[Variable, ...]  # in source preorder
    defaults: tuple[Tree, ...]  # one per source wildcard, in preorder
    view_erased: Pattern  # the view region get links this rule's view to
    bare_view: bool  # the view pattern is a variable
    match_source: Callable[[Tree], bool]
    match_view: Callable[[Tree], bool]
    region: Callable[[Tree], Pattern]
    build_view: Callable[[Sequence[Tree]], Tree]
    build_source: Callable[[Sequence[Tree]], Tree]
    merge: Callable[[Pattern], "list[Tree] | None"]
    check_leaves: Callable[[Tree], bool]


def head(t: Pattern):
    """The key a node is dispatched on: its constructor and arity, or a leaf's class."""
    return (t.ctor, len(t.children)) if t.__class__ is Node else t.__class__


def compile_rule(
    sch: Schema,
    source: Pattern,
    view: Pattern,
    line: int,
    index: int,
    variables: tuple[Variable, ...],
    wildcards: dict[Path, str],
) -> Rule:
    """The rule with these variables and wildcards (path -> type, in preorder).

    Raises ``NoFiniteDefault`` when a wildcard's type has no default value.
    """
    defaults = {h: default_value(sch, ty) for h, ty in wildcards.items()}
    wild = {h: k for k, h in enumerate(defaults)}
    slot = {**wild, **{x.source_path: len(wild) + k for k, x in enumerate(variables)}}
    match_source, build_source = _compile(source, slot)
    match_view, build_view = _compile(view, {x.view_path: k for k, x in enumerate(variables)})
    region, walk = _compile(erase_vars(source), wild, region=True)

    def merge(r: Pattern) -> "list[Tree] | None":
        fills: list[Tree] = []
        return fills if walk(r, fills) else None

    leaves = [(x.source_at, x.source_type) for x in variables if x.relation is None]
    leaves += [(at(h), ty) for h, ty in wildcards.items()]
    return Rule(
        source, view, line, index, variables, tuple(defaults.values()), erase_vars(view),
        isinstance(view, Var), match_source, match_view, region, build_view, build_source, merge,
        _leaf_check(sch, leaves),
    )


def _no_leaves(t: Tree) -> bool:
    return True


def _leaf_check(sch: Schema, leaves: list[tuple[Callable[[Tree], Tree], str]]) -> Callable[[Tree], bool]:
    """Whether each leaf (its accessor, its type) of a tree the pattern matched holds a value of its type."""
    if not leaves:
        return _no_leaves
    kinds = tuple((read, KINDS[ty]) for read, ty in leaves if ty in KINDS)
    deep = tuple((read, ty) for read, ty in leaves if ty not in KINDS)

    def check(t: Tree) -> bool:
        for read, kind in kinds:
            if read(t).__class__ is not kind:
                return False
        for read, ty in deep:
            try:
                check_tree_type(sch, ty, read(t))
            except IllTyped:
                return False
        return True

    return check


def at(path: Path) -> Callable[[Tree], Tree]:
    """``t -> sel(t, path)`` for a ``t`` the pattern matched, so every step resolves."""
    if not path:
        return lambda t: t
    *up, i = path
    if not up:
        return lambda t: t.children[i]
    parent = at(tuple(up))
    return lambda t: parent(t).children[i]


def _compile(p: Pattern, holes: dict[Path, int], region: bool = False) -> tuple[Callable, Callable]:
    """``(match, build)`` of pattern ``p``, or ``(fill, merge)`` of a region pattern.

    ``holes`` maps each hole's path to its slot, in preorder.  ``match(t)``
    is ``is_match`` with every hole matching anything, and ``build(slots)``
    puts ``slots[k]`` at the hole of slot ``k``.  ``fill(t)`` takes each hole
    from the tree ``t`` that the region pattern's source matched, and
    ``merge(r, fills)`` appends ``r``'s ground content at each hole to
    ``fills`` and is True iff ``r`` equals ``p`` everywhere else.
    """
    inner = {h[:k] for h in holes for k in range(len(h))}  # paths above a hole

    def entry(q: Pattern, here: Path) -> tuple:
        if here in holes:
            return _HOLE, holes[here]
        if here not in inner:
            return _CONST, q
        return _SUB, compile_node(q, here)

    def compile_node(q: Node, here: Path) -> tuple[Callable, Callable]:
        ctor, n = q.ctor, len(q.children)
        table = [entry(c, here + (i,)) for i, c in enumerate(q.children)]

        def read_by(j: int) -> tuple:  # the table as closure j reads it: a constructor by its closure j
            return tuple((k, v[j] if k == _SUB else v) for k, v in table)

        if region:
            fill_table, merge_table = read_by(0), read_by(1)

            def fill(t: Tree) -> Pattern:
                kids = zip(fill_table, t.children)
                return Node(ctor, tuple([v if k == _CONST else c if k == _HOLE else v(c) for (k, v), c in kids]))

            def merge(r: Pattern, fills: list) -> bool:
                if not (isinstance(r, Node) and r.ctor == ctor and len(r.children) == n):
                    return False
                for (k, v), c in zip(merge_table, r.children):
                    if k == _HOLE:
                        if not is_ground(c):
                            return False
                        fills.append(c)
                    elif k == _CONST:
                        if c is not v and c != v:  # an erased variable is WILDCARD, read or cut
                            return False
                    elif not v(c, fills):
                        return False
                return True

            return fill, merge
        consts = tuple((i, v) for i, (k, v) in enumerate(table) if k == _CONST)
        subs = tuple((i, v[0]) for i, (k, v) in enumerate(table) if k == _SUB)
        build_table = read_by(1)

        def match(t: Tree) -> bool:
            if not (isinstance(t, Node) and t.ctor == ctor and len(t.children) == n):
                return False
            ch = t.children
            for i, c in consts:
                if ch[i] != c:
                    return False
            for i, m in subs:
                if not m(ch[i]):
                    return False
            return True

        def build(slots: Sequence[Tree]) -> Tree:
            return Node(
                ctor,
                tuple([v if k == _CONST else slots[v] if k == _HOLE else v(slots) for k, v in build_table]),
            )

        return match, build

    kind, v = entry(p, ())
    if kind == _SUB:
        return v
    if kind == _HOLE and region:  # the source is a wildcard

        def take(r: Pattern, fills: list) -> bool:
            fills.append(r)
            return is_ground(r)

        return (lambda t: t), take
    if kind == _HOLE:
        return (lambda t: True), (lambda slots: slots[v])
    if region:
        return (lambda t: p), (lambda r, fills: r == p)
    return (lambda t: t == p), (lambda slots: p)
