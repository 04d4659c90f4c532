"""Rule plans: a rule's patterns compiled once, when the program loads.

A program's rules never change after validation, so the engine does not
interpret their patterns at each node.  ``compile_plan`` turns a rule into a
``RulePlan`` of closures, one per thing the engine asks of a rule, each
equal to a composition of the generic ``trees`` helpers:

- ``match_source`` / ``match_view``: ``is_match`` of the source / view pattern;
- each ``VarPlan``'s ``source_at`` / ``view_at``: that variable's entry of
  ``decompose``, with the relation the variable recurses into already looked
  up (None for a primitive, related by identity);
- ``region``: get's source region, ``erase_vars(fill_wildcards(source, t))``;
- ``view``: ``reconstruct(view, ...)`` from the variables' views, in variable
  order;
- ``source``: ``reconstruct`` of the source pattern from slots holding the
  wildcards' fills (``defaults`` when rebuilding), then the variables' parts;
- ``merge``: the fills a link's source region gives the wildcards, or None
  when the region is not one this rule can generate (a wildcard at each
  variable, ground content at each wildcard, the rule's constructors and
  literals elsewhere).

Every pattern shape compiles the same way, nested constructors and literals
included.  A constructor node becomes one closure over a table of its
children: holes and literals are handled inline, nested constructors by
their own closure.  Plans hold no mutable state, so programs stay shareable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .trees import Node, Path, Pattern, Tree, Var, Wildcard, erase_vars, is_ground

if TYPE_CHECKING:
    from .frontend import Relation, Rule

# What a child of a compiled constructor node is: fixed content, a hole taken
# from the input (a region's wildcard, a builder's slot), a variable (merge
# only), or a nested constructor with its own closure.
_CONST, _HOLE, _VAR, _SUB = range(4)


@dataclass(frozen=True)
class VarPlan:
    """One rule variable: where it sits on each side and the lens it recurses into."""

    name: str
    relation: Relation | None  # None: a primitive, related by identity
    source_path: Path
    view_path: Path
    source_at: Callable[[Tree], Tree]
    view_at: Callable[[Tree], Tree]


@dataclass(frozen=True)
class RulePlan:
    match_source: Callable[[Tree], bool]
    match_view: Callable[[Tree], bool]
    variables: tuple[VarPlan, ...]
    region: Callable[[Tree], Pattern]
    view: Callable[[Sequence[Tree]], Tree]
    source: Callable[[Sequence[Tree]], Tree]
    defaults: tuple[Tree, ...]
    merge: Callable[[Pattern], "list[Tree] | None"]


def compile_plan(rule: Rule, relation_of: Callable[[str, str], "Relation | None"]) -> RulePlan:
    """The plan of a validated rule.

    ``relation_of(source_type, view_type)`` returns the relation a variable
    of those types recurses into, or None for a primitive.
    """
    src, view = rule.source, rule.view
    holes = _wildcards(src)
    slot = {h: k for k, h in enumerate(holes)}
    slot.update((x, len(holes) + k) for k, x in enumerate(rule.variables))
    variables = tuple(
        VarPlan(
            x,
            relation_of(rule.var_src_type[x], rule.var_view_type[x]),
            rule.var_src_path[x],
            rule.var_view_path[x],
            _at(rule.var_src_path[x]),
            _at(rule.var_view_path[x]),
        )
        for x in rule.variables
    )
    return RulePlan(
        match_source=_matcher(src),
        match_view=_matcher(view),
        variables=variables,
        region=_region(src),
        view=_builder(view, {x: k for k, x in enumerate(rule.variables)}, ()),
        source=_builder(src, slot, ()),
        defaults=tuple(_at(h)(rule.source_defaulted) for h in holes),
        merge=_merger(src),
    )


def _wildcards(p: Pattern, at: Path = ()) -> list[Path]:
    """Paths of the wildcards of ``p``, in preorder."""
    if isinstance(p, Wildcard):
        return [at]
    if isinstance(p, Node):
        return [h for i, c in enumerate(p.children) for h in _wildcards(c, at + (i,))]
    return []


def _has_wildcard(p: Pattern) -> bool:
    return bool(_wildcards(p))


def _at(path: Path) -> Callable[[Tree], Tree]:
    """``t -> sel(t, path)`` for a ``t`` the pattern matched, so every step resolves."""
    if not path:
        return lambda t: t
    *up, i = path
    if not up:
        return lambda t: t.children[i]
    parent = _at(tuple(up))
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


def _region(p: Pattern) -> Callable[[Tree], Pattern]:
    """``t -> erase_vars(fill_wildcards(p, t))`` for a ``t`` that ``p`` matches."""
    if isinstance(p, Wildcard):
        return lambda t: t
    if not _has_wildcard(p):
        region = erase_vars(p)
        return lambda t: region
    ctor = p.ctor
    table = tuple(
        (_HOLE, None)
        if isinstance(c, Wildcard)
        else (_SUB, _region(c))
        if _has_wildcard(c)
        else (_CONST, erase_vars(c))
        for c in p.children
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


def _builder(p: Pattern, slot: dict, at: Path) -> Callable[[Sequence[Tree]], Tree]:
    """``slots -> reconstruct(p, ...)``, each hole of ``p`` taking ``slots[slot[hole]]``.

    A variable's hole is named by the variable, a wildcard's by its path.
    """
    if isinstance(p, (Var, Wildcard)):
        k = slot[p.name if isinstance(p, Var) else at]
        return lambda slots: slots[k]
    if not (isinstance(p, Node) and _has_holes(p)):
        return lambda slots: p
    ctor = p.ctor
    table = []
    for i, c in enumerate(p.children):
        if isinstance(c, Var):
            table.append((_HOLE, slot[c.name]))
        elif isinstance(c, Wildcard):
            table.append((_HOLE, slot[at + (i,)]))
        elif isinstance(c, Node) and _has_holes(c):
            table.append((_SUB, _builder(c, slot, at + (i,))))
        else:
            table.append((_CONST, c))
    table = tuple(table)

    def build(slots: Sequence[Tree]) -> Tree:
        return Node(
            ctor,
            tuple([v if k == _CONST else slots[v] if k == _HOLE else v(slots) for k, v in table]),
        )

    return build


def _has_holes(p: Pattern) -> bool:
    if isinstance(p, (Var, Wildcard)):
        return True
    return isinstance(p, Node) and any(_has_holes(c) for c in p.children)


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
