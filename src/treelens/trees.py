"""Universal terms, paths, regions, and link relations.

Every value the rest of the toolkit manipulates bottoms out here.  There is
one term type: ``Node`` applies a constructor to an ordered tuple of
children over integer and text leaves (``IntLeaf``, ``StrLeaf``), and a
pattern may also hold variables (``Var``) and the wildcard.  A tree is a
pattern without holes, so a region's pattern and the tree it is cut from are
built, compared and rendered the same way.  Links are finite relations
between (pattern, path) regions of two trees.  All values are immutable and
freely shareable.

``decompose``, ``fill_wildcards``, ``reconstruct``, ``region_contains``,
``links_valid`` and ``tree_size`` are test oracles: the generic, recursive
definitions that the compiled rules, the engine and the edits are checked
against.  No other module of the package uses them, so a fault in the code
under test cannot leak into its reference.

Paths are absolute index tuples.  Sharing their prefixes cannot make a CLI
round sub-quadratic on spines, because the link text spells out every path:
get's 386 links on a left-deep sum of 128 terms hold 49,409 path indices and
render to 114 kB.  The text layer's Python work is per link: one regex call
per line yields the token texts, and a path is decoded from, and rendered
from, its parent path's cached text, so only C code touches each index; the
bytes stay O(depth) per link until a new file format changes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Mapping, Union


class TreeError(Exception):
    """Base class for tree/pattern operation failures."""


class PathOutOfRange(TreeError):
    """A path index does not resolve in the given tree."""


class MatchFailure(TreeError):
    """A pattern was applied to a tree it does not match."""


class WildcardPresent(TreeError):
    """Reconstruction requires a wildcard-free pattern."""


class UnboundVariable(TreeError):
    """Reconstruction found a variable missing from the binding."""


Path = tuple[int, ...]


@dataclass(frozen=True)
class Node:
    """Constructor node with an ordered tuple of children."""

    ctor: str
    children: tuple["Pattern", ...] = ()


@dataclass(frozen=True)
class IntLeaf:
    value: int


@dataclass(frozen=True)
class StrLeaf:
    value: str


@dataclass(frozen=True)
class Wildcard:
    """The don't-care pattern; marks excluded subtrees in a region."""


@dataclass(frozen=True)
class Var:
    name: str


Tree = Union[Node, IntLeaf, StrLeaf]  # and no Var or Wildcard anywhere below
Pattern = Union[Node, IntLeaf, StrLeaf, Var, Wildcard]

WILDCARD = Wildcard()


@dataclass(frozen=True)
class Region:
    """A partial subtree: a variable-free pattern rooted at a path."""

    pattern: Pattern
    path: Path


@dataclass(frozen=True)
class Link:
    """A correspondence between a source region and a view region."""

    source: Region
    view: Region


LinkSet = frozenset  # frozenset[Link]


def sel(t: Tree, p: Path) -> Tree:
    """Subtree of ``t`` at path ``p``; the empty path addresses the root."""
    cur = t
    for depth, i in enumerate(p):
        if not isinstance(cur, Node) or i < 0 or i >= len(cur.children):
            raise PathOutOfRange(f"path {list(p)} stops resolving at depth {depth}")
        cur = cur.children[i]
    return cur


def is_match(p: Pattern, t: Tree) -> bool:
    """True iff ``t`` agrees with ``p`` everywhere outside wildcards/variables."""
    if not isinstance(p, Node):
        return isinstance(p, (Wildcard, Var)) or p == t
    if not (isinstance(t, Node) and t.ctor == p.ctor and len(t.children) == len(p.children)):
        return False
    for q, c in zip(p.children, t.children):
        if not (isinstance(q, (Wildcard, Var)) or is_match(q, c)):
            return False
    return True


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


def erase_vars(p: Pattern) -> Pattern:
    """Replace every variable of ``p`` with a wildcard."""
    if isinstance(p, Var):
        return WILDCARD
    if isinstance(p, Node):
        return Node(p.ctor, tuple(erase_vars(a) for a in p.children))
    return p


def is_ground(p: Pattern) -> bool:
    """True iff ``p`` contains no wildcard and no variable, i.e. is a tree."""
    if isinstance(p, (Wildcard, Var)):
        return False
    if isinstance(p, Node):
        return all(is_ground(a) for a in p.children)
    return True


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


def link_compose(ls1, ls2) -> LinkSet:
    """Relational composition of two link sets, matching on full region equality."""
    by_left: dict[Region, list[Region]] = {}
    for l in ls2:
        by_left.setdefault(l.source, []).append(l.view)
    return frozenset(
        Link(l.source, right) for l in ls1 for right in by_left.get(l.view, ())
    )


def link_converse(ls) -> LinkSet:
    """Converse relation: every link flipped."""
    return frozenset(Link(l.view, l.source) for l in ls)


def fst_projection(ls) -> frozenset:
    """Links with the source path dropped: the part put must preserve."""
    return frozenset((l.source.pattern, l.view) for l in ls)


def pattern_key(p: Pattern):
    """Total order key on patterns; fixes the canonical link ordering."""
    if isinstance(p, Wildcard):
        return (0,)
    if isinstance(p, Var):
        return (1, p.name)
    if isinstance(p, IntLeaf):
        return (2, p.value)
    if isinstance(p, StrLeaf):
        return (3, p.value)
    return (4, p.ctor, tuple(pattern_key(a) for a in p.children))


def _by_patterns(l: Link):
    return pattern_key(l.source.pattern), pattern_key(l.view.pattern)


def canonical_links(ls) -> list[Link]:
    """Links sorted by source path, view path, then pattern order.

    Paths whose indices all fit in a byte order like their ``bytes``, which
    compare in one ``memcmp`` instead of index by index; other paths sort as
    tuples.  Pattern keys are built only for runs of links tying on both paths.
    """
    ls = list(ls)
    try:
        keys = [(bytes(l.source.path), bytes(l.view.path)) for l in ls]
    except ValueError:
        keys = [(l.source.path, l.view.path) for l in ls]
    out: list[Link] = []
    for _, run in groupby(sorted(zip(keys, ls), key=itemgetter(0)), key=itemgetter(0)):
        run = [l for _, l in run]
        if len(run) > 1:
            run.sort(key=_by_patterns)
        out += run
    return out


def tree_size(t: Tree) -> int:
    """Node count, leaves included."""
    if isinstance(t, Node):
        return 1 + sum(tree_size(c) for c in t.children)
    return 1

