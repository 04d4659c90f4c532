"""Universal terms, paths, regions, and link relations.

Every value the rest of the toolkit manipulates bottoms out here.  There is
one term type: ``Node`` applies a constructor to an ordered tuple of
children over integer and text leaves (``IntLeaf``, ``StrLeaf``), and a
pattern may also hold variables (``Var``) and the wildcard.  A tree is a
pattern without holes, so a region's pattern and the tree it is cut from are
built, compared and rendered the same way.  Links are finite relations
between (pattern, path) regions of two trees.  All values are immutable and
freely shareable.

The tests check the compiled rules, the engine and the edits against
generic, recursive references (``decompose``, ``fill_wildcards``,
``reconstruct``, ``region_contains``, ``links_valid`` and ``tree_size``),
which live in ``tests/oracles.py`` so that no module of the package can use
them.

Paths are absolute index tuples.  Sharing their prefixes cannot make a CLI
round sub-quadratic on spines, because the link text spells out every path:
get's 386 links on a left-deep sum of 128 terms hold 49,409 path indices and
render to 114 kB.  The text layer's Python work is per link.  A link file as
the writer wrote it is read by one regex call over the whole file; any other
link file (comments, blank lines, other spacing, CRLF line ends, errors) by
one regex call per line.  Either way a path is decoded from, and rendered
from, its parent path's cached text, so only C code touches each index; the
bytes stay O(depth) per link until a new file format changes them.

Terms are tuples.  ``Node``, ``IntLeaf``, ``StrLeaf``, ``Region`` and ``Link``
are ``NamedTuple`` classes: comparing and hashing them runs in C, with no
Python frame per node, and building one runs only the generated ``__new__``.
A field is read by name and cannot be assigned, and every term is truthy.
No two of these classes' terms compare equal: they differ in arity or in the
kind of their first field.  ``Var`` and ``Wildcard`` stay frozen
dataclasses, because as tuples ``Var("x")`` would equal ``StrLeaf("x")`` and
the empty ``Wildcard`` would be falsy.  A plain tuple may equal a term with
the same fields, so the package never mixes the two in one set or dict.

CPython guards tuple equality and ``repr`` against deep nesting (they raise
``RecursionError``, which the CLI reports), but not tuple hashing, which
recurses in C until the process dies.  So no hash may walk a term whose
depth the input controls: a ``Region`` hashes only its path, so a ``Link``
hashes only its two paths, and ``fst_projection`` keeps each link a link.
Where a term is hashed whole, something has bounded its depth first: the
recursion limit, by a recursive walk over it, for the view pattern of a link
put retains (a key of ``ValidatedProgram.generators``), and the
instantiation depth limit for a type the frontend names.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Union


class TreeError(Exception):
    """Base class for tree/pattern operation failures."""


class PathOutOfRange(TreeError):
    """A path index does not resolve in the given tree."""


Path = tuple[int, ...]


class Node(NamedTuple):
    """Constructor node with an ordered tuple of children."""

    ctor: str
    children: tuple["Pattern", ...] = ()


class IntLeaf(NamedTuple):
    value: int


class StrLeaf(NamedTuple):
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


class Region(NamedTuple):
    """A partial subtree: a variable-free pattern rooted at a path."""

    pattern: Pattern
    path: Path

    def __hash__(self) -> int:
        # The path only: the pattern may nest as deeply as the input.
        return hash(self.path)


class Link(NamedTuple):
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


def fst_projection(ls) -> LinkSet:
    """Links with the source path dropped (set to the root): the part put must preserve.

    Each stays a ``Link``, so it hashes by its view path, not by its source pattern.
    """
    return frozenset(Link(Region(l.source.pattern, ()), l.view) for l in ls)


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
