"""The generic, recursive term helpers the package is checked against.

``decompose``, ``fill_wildcards``, ``reconstruct``, ``region_contains``,
``links_valid`` and ``tree_size`` are the definitions that the compiled
rules (``test_plan.py``), the engine and the edits must agree with.
``covers_type`` and ``patterns_overlap`` (with ``_covers`` and ``_wildish``)
are the coverage check and the pairwise overlap test that validation made
before one pattern-matrix walk per relation side replaced them; the walk's
verdicts must agree with them (``test_frontend.py``).
``rebuild_by_bare_steps`` is put's rebuild as it was before each relation's
rebuild table, one step per bare-variable rule under a bound; the tables
must agree with it (``test_engine.py``).  They live with the tests, so no
module of the package can use them and a fault in the code under test
cannot leak into its reference.  They recurse; the trees and patterns the
tests give them are small.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Mapping

from treelens.engine import CheckFailure
from treelens.frontend import Relation, ValidatedProgram
from treelens.schema import PRIMITIVES, Schema
from treelens.trees import (
    WILDCARD,
    IntLeaf,
    Node,
    Path,
    PathOutOfRange,
    Pattern,
    StrLeaf,
    Tree,
    TreeError,
    Var,
    Wildcard,
    is_match,
    sel,
)


class MatchFailure(TreeError):
    """A pattern was applied to a tree it does not match."""


class WildcardPresent(TreeError):
    """Reconstruction requires a wildcard-free pattern."""


class UnboundVariable(TreeError):
    """Reconstruction found a variable missing from the binding."""


def decompose(p: Pattern, t: Tree) -> dict[str, Tree]:
    """Map every variable of ``p`` to the subtree of ``t`` it matches."""
    out: dict[str, Tree] = {}

    def walk(q: Pattern, u: Tree) -> None:
        if isinstance(q, Var):
            out[q.name] = u
        elif isinstance(q, Wildcard):
            pass
        elif isinstance(q, IntLeaf):
            if q != u:
                raise MatchFailure(f"expected integer {q.value}")
        elif isinstance(q, StrLeaf):
            if q != u:
                raise MatchFailure(f"expected string {q.value!r}")
        else:
            if not (isinstance(u, Node) and u.ctor == q.ctor and len(u.children) == len(q.children)):
                raise MatchFailure(f"tree does not match constructor {q.ctor}")
            for a, c in zip(q.children, u.children):
                walk(a, c)

    walk(p, t)
    return out


def reconstruct(p: Pattern, b: Mapping[str, Tree]) -> Tree:
    """Tree equal to ``p`` with every variable replaced per ``b``."""
    if isinstance(p, Wildcard):
        raise WildcardPresent("cannot reconstruct through a wildcard")
    if isinstance(p, Var):
        if p.name not in b:
            raise UnboundVariable(p.name)
        return b[p.name]
    if isinstance(p, Node):
        return Node(p.ctor, tuple(reconstruct(a, b) for a in p.children))
    return p


def fill_wildcards(p: Pattern, t: Tree) -> Pattern:
    """Replace the wildcards of ``p`` with the matching subtrees of ``t``."""
    if isinstance(p, Wildcard):
        return t
    if isinstance(p, Var):
        return p
    if isinstance(p, Node):
        if not (isinstance(t, Node) and t.ctor == p.ctor and len(t.children) == len(p.children)):
            raise MatchFailure(f"tree does not match constructor {p.ctor}")
        return Node(p.ctor, tuple(fill_wildcards(a, c) for a, c in zip(p.children, t.children)))
    if p != t:
        raise MatchFailure("literal pattern does not match tree")
    return p


def region_contains(t: Tree, regions) -> bool:
    """True iff every region resolves in ``t`` and its pattern matches there."""
    for r in regions:
        try:
            sub = sel(t, r.path)
        except PathOutOfRange:
            return False
        if not is_match(r.pattern, sub):
            return False
    return True


def links_valid(t: Tree, u: Tree, ls) -> bool:
    """True iff ``t`` contains every source region and ``u`` every view region."""
    return region_contains(t, (l.source for l in ls)) and region_contains(
        u, (l.view for l in ls)
    )


def tree_size(t: Tree) -> int:
    """Node count, leaves included."""
    if isinstance(t, Node):
        return 1 + sum(tree_size(c) for c in t.children)
    return 1


def _wildish(p: Pattern) -> bool:
    return isinstance(p, (Wildcard, Var))


def _covers(sch: Schema, rows: list[tuple[Pattern, ...]], tys: tuple[str, ...]) -> bool:
    """True iff every value vector of ``tys`` matches some row (usefulness check)."""
    if not rows:
        return False
    if not tys:
        return True
    if any(all(_wildish(p) for p in row) for row in rows):
        return True
    t0 = tys[0]
    if t0 in PRIMITIVES:
        # Literals never exhaust a primitive; only wild rows survive.
        sub = [row[1:] for row in rows if _wildish(row[0])]
        return _covers(sch, sub, tys[1:])
    for c in sch.types[t0]:
        arity = len(c.arg_types)
        sub = []
        for row in rows:
            h = row[0]
            if isinstance(h, Node) and h.ctor == c.name and len(h.children) == arity:
                sub.append(h.children + row[1:])
            elif _wildish(h):
                sub.append((WILDCARD,) * arity + row[1:])
        subtys = c.arg_types + tys[1:]
        if not _covers(sch, sub, subtys):
            return False
    return True


def covers_type(sch: Schema, ty: str, patterns: list[Pattern]) -> bool:
    return _covers(sch, [(p,) for p in patterns], (ty,))


def patterns_overlap(p: Pattern, q: Pattern) -> bool:
    """True iff some tree matches both patterns."""
    if _wildish(p) or _wildish(q):
        return True
    if isinstance(p, Node) and isinstance(q, Node):
        return (
            p.ctor == q.ctor
            and len(p.children) == len(q.children)
            and all(patterns_overlap(a, b) for a, b in zip(p.children, q.children))
        )
    return p == q


def rebuild_by_bare_steps(
    vp: ValidatedProgram, rel: Relation, v: Tree, path: Path = (), chain: int = 0
) -> Tree | CheckFailure:
    """put of a well-typed view ``v`` with no links, one frame per bare-variable rule.

    At each view node the first rule whose view matches wins, those whose
    view is not a bare variable first.  A bare rule consumes no view node:
    it recurses into its variable's relation at the same node.  So more
    consecutive bare steps than one per relation, plus one, prove a cycle.
    """
    for rule in sorted(rel.rules, key=attrgetter("bare_view")):  # stable
        if rule.match_view(v):
            break
    else:
        message = f"no view pattern of {rel.source_type} <---> {rel.view_type} matches here"
        return CheckFailure("E-no-rule", message, path)
    chain = chain + 1 if rule.bare_view else 0
    if chain > len(vp.relations) + 1:
        return CheckFailure("E-sugar-cycle", "bare-variable rules recurse without consuming the view", path)
    slots = list(rule.defaults)
    for x in rule.variables:
        part = x.view_at(v)
        if x.relation is not None:
            part = rebuild_by_bare_steps(vp, x.relation, part, path + x.view_path, chain)
            if isinstance(part, CheckFailure):
                return part
        slots.append(part)
    return rule.build_source(slots)
