"""The generic, recursive term helpers the package is checked against.

``decompose``, ``fill_wildcards``, ``reconstruct``, ``region_contains``,
``links_valid`` and ``tree_size`` are the definitions that the compiled
rules (``test_plan.py``), the engine and the edits must agree with.  They
live with the tests, so no module of the package can use them and a fault
in the code under test cannot leak into its reference.  They recurse; the
trees the tests give them are small.
"""

from __future__ import annotations

from typing import Mapping

from treelens.trees import (
    IntLeaf,
    Node,
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
