"""Compiled rules: each rule of a program typed once and built once, at load.

A program's rules never change after validation, so the engine does not
interpret their patterns at each node.  The frontend types each side of a
rule with one ``check_tree_type`` walk, whose hole map (path -> type, in
preorder) names every variable and wildcard, and ``compile_rule`` turns the
rule into one frozen ``Rule``.  Its closures are what the engine asks of a
rule, each equal to a composition of the generic ``trees`` helpers:

- ``match_source`` / ``match_view``: ``is_match`` of the source / view pattern;
- each ``Variable``'s ``source_at`` / ``view_at``: that variable's entry of
  ``decompose``, next to its types, its paths and the relation it recurses
  into (None for a primitive, related by identity);
- ``region``: get's source region, ``erase_vars(fill_wildcards(source, t))``;
- ``build_view``: ``reconstruct(view, ...)`` from the variables' views, in
  variable order;
- ``build_source``: ``reconstruct`` of the source pattern from slots holding
  the wildcards' fills (``defaults``, one ``default_value`` per wildcard, when
  rebuilding), then the variables' parts;
- ``merge``: the fills a link's source region gives the wildcards, or None
  when the region is not one this rule can generate (a wildcard at each
  variable, ground content at each wildcard, the rule's constructors and
  literals elsewhere).

Every pattern shape compiles the same way, nested constructors and literals
included.  A constructor node becomes one closure over a table of its
children: holes and literals are handled inline, nested constructors by
their own closure.  Rules hold no mutable state, so programs stay shareable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .trees import Node, Path, Pattern, Tree, Var, Wildcard, erase_vars, is_ground

if TYPE_CHECKING:
    from .frontend import Relation

# What a child of a compiled constructor node is: fixed content, a hole taken
# from the input (a region's wildcard, a builder's slot), a variable (merge
# only), or a nested constructor with its own closure.
_CONST, _HOLE, _VAR, _SUB = range(4)


@dataclass(frozen=True, eq=False)
class Variable:
    """One rule variable: its types and place on each side, and the lens it recurses into."""

    name: str
    relation: Relation | None  # None: a primitive, related by identity
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


def compile_rule(
    source: Pattern,
    view: Pattern,
    line: int,
    index: int,
    variables: tuple[Variable, ...],
    defaults: dict[Path, Tree],
) -> Rule:
    """The rule with these variables and wildcards (path -> default, in preorder)."""
    slot = {h: k for k, h in enumerate(defaults)}
    slot.update((x.source_path, len(defaults) + k) for k, x in enumerate(variables))
    return Rule(
        source,
        view,
        line,
        index,
        variables,
        tuple(defaults.values()),
        erase_vars(view),
        isinstance(view, Var),
        match_source=_matcher(source),
        match_view=_matcher(view),
        region=_region(source, {h[:k] for h in defaults for k in range(len(h) + 1)}),
        build_view=_builder(view, {x.view_path: k for k, x in enumerate(variables)}),
        build_source=_builder(source, slot),
        merge=_merger(source),
    )


def at(path: Path) -> Callable[[Tree], Tree]:
    """``t -> sel(t, path)`` for a ``t`` the pattern matched, so every step resolves."""
    if not path:
        return lambda t: t
    *up, i = path
    if not up:
        return lambda t: t.children[i]
    parent = at(tuple(up))
    return lambda t: parent(t).children[i]


def _always(t: Tree) -> bool:
    return True


def _matcher(p: Pattern) -> Callable[[Tree], bool]:
    """``t -> is_match(p, t)``."""
    if isinstance(p, (Var, Wildcard)):
        return _always
    if not isinstance(p, Node):
        return lambda t: p == t
    ctor, n = p.ctor, len(p.children)
    lits = tuple((i, c) for i, c in enumerate(p.children) if not isinstance(c, (Node, Var, Wildcard)))
    subs = tuple((i, _matcher(c)) for i, c in enumerate(p.children) if isinstance(c, Node))

    def match(t: Tree) -> bool:
        if not (isinstance(t, Node) and t.ctor == ctor and len(t.children) == n):
            return False
        ch = t.children
        for i, c in lits:
            if ch[i] != c:
                return False
        for i, m in subs:
            if not m(ch[i]):
                return False
        return True

    return match


def _region(p: Pattern, wild: set[Path], here: Path = ()) -> Callable[[Tree], Pattern]:
    """``t -> erase_vars(fill_wildcards(p, t))`` for a ``t`` that ``p`` matches.

    ``wild`` holds every path with a wildcard of the rule at or below it.
    """
    if here not in wild:
        region = erase_vars(p)
        return lambda t: region
    if isinstance(p, Wildcard):
        return lambda t: t
    ctor = p.ctor
    table = tuple(
        (_HOLE, None)
        if isinstance(c, Wildcard)
        else (_SUB, _region(c, wild, here + (i,)))
        if here + (i,) in wild
        else (_CONST, erase_vars(c))
        for i, c in enumerate(p.children)
    )

    def region(t: Tree) -> Pattern:
        return Node(
            ctor,
            tuple(
                [
                    v if k == _CONST else c if k == _HOLE else v(c)
                    for (k, v), c in zip(table, t.children)
                ]
            ),
        )

    return region


def _builder(p: Pattern, slot: dict[Path, int], here: Path = ()) -> Callable[[Sequence[Tree]], Tree]:
    """``slots -> reconstruct(p, ...)``, the hole at each path of ``slot`` taking ``slots[slot[path]]``."""
    if here in slot:
        k = slot[here]
        return lambda slots: slots[k]
    if is_ground(p):
        return lambda slots: p
    ctor = p.ctor
    table = tuple(
        (_HOLE, slot[here + (i,)])
        if here + (i,) in slot
        else (_CONST, c)
        if is_ground(c)
        else (_SUB, _builder(c, slot, here + (i,)))
        for i, c in enumerate(p.children)
    )

    def build(slots: Sequence[Tree]) -> Tree:
        return Node(
            ctor,
            tuple([v if k == _CONST else slots[v] if k == _HOLE else v(slots) for k, v in table]),
        )

    return build


def _merger(p: Pattern) -> Callable[[Pattern], "list[Tree] | None"]:
    """``region -> fills``: the region's ground content at each wildcard of ``p``, or None.

    None unless the region has a wildcard exactly at each variable of ``p``,
    ground content at each wildcard, and ``p``'s constructors and literals
    elsewhere.
    """
    walk = _merge_walk(p)

    def merge(region: Pattern) -> "list[Tree] | None":
        fills: list[Tree] = []
        return fills if walk(region, fills) else None

    return merge


def _merge_walk(p: Pattern) -> Callable[[Pattern, list], bool]:
    if isinstance(p, Var):
        return lambda r, fills: isinstance(r, Wildcard)
    if isinstance(p, Wildcard):

        def fill(r: Pattern, fills: list) -> bool:
            if not is_ground(r):
                return False
            fills.append(r)
            return True

        return fill
    if not isinstance(p, Node):
        return lambda r, fills: r == p
    ctor, n = p.ctor, len(p.children)
    table = tuple(
        (_VAR, None)
        if isinstance(c, Var)
        else (_HOLE, None)
        if isinstance(c, Wildcard)
        else (_SUB, _merge_walk(c))
        if isinstance(c, Node)
        else (_CONST, c)
        for c in p.children
    )

    def walk(r: Pattern, fills: list) -> bool:
        if not (isinstance(r, Node) and r.ctor == ctor and len(r.children) == n):
            return False
        for (k, v), c in zip(table, r.children):
            if k == _VAR:
                if not isinstance(c, Wildcard):
                    return False
            elif k == _HOLE:
                if not is_ground(c):
                    return False
                fills.append(c)
            elif k == _CONST:
                if c != v:
                    return False
            elif not v(c, fills):
                return False
        return True

    return walk
