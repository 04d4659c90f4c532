"""Type declarations, schema-directed typing, and default-value synthesis.

A schema maps type names to ordered constructor lists over the two built-in
primitive types ``Int`` and ``String``.  Generic declarations are
monomorphized by the frontend before they reach a ``Schema``; here every type
name is ground (e.g. ``List Person``) and canonical: constructor arguments
never name a synonym.  So a synonym resolves once, where a caller names a
type (the ``ty`` of ``check_tree_type``, ``type_at`` and ``default_value``,
and ``Schema.constructors``/``list_cell``), and never inside a walk.

One iterative walk, ``check_tree_type``, types a whole term.  It types each
rule pattern at load, put's source, the views of typed edits, the content of
a wildcard of a declared type, and an input whose lens walk failed, to report
its first type error; get, and put's walk of the view, type as they match
(see ``treelens.engine``).  Inputs and rule patterns differ only in their
holes: an input may have none, while a rule pattern's variables and
wildcards take the type their position demands.  ``type_at`` reads one
position's type off the schema along a path.  ``default_value`` reads a table
built once per schema, where each default shares its arguments' defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NoReturn

from .trees import (
    IntLeaf,
    Node,
    Path,
    PathOutOfRange,
    Pattern,
    StrLeaf,
    Tree,
    Var,
    Wildcard,
)

INT = "Int"
STRING = "String"
PRIMITIVES = (INT, STRING)
KINDS = {INT: IntLeaf, STRING: StrLeaf}  # each primitive's leaf class


class SchemaError(Exception):
    """Base class for schema construction and typing failures."""


class UnknownType(SchemaError):
    pass


class NoFiniteDefault(SchemaError):
    """Every constructor of the type recurses; no finite value exists."""


class IllTyped(SchemaError):
    """First position where a term disagrees with the schema."""

    def __init__(self, path: Path, expected: str, found: str):
        super().__init__(f"at {list(path)}: expected {expected}, found {found}")
        self.path = path
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class Constructor:
    name: str
    arg_types: tuple[str, ...]


@dataclass
class Schema:
    """Ordered map from ground type name to constructors, plus synonyms."""

    types: dict[str, tuple[Constructor, ...]] = field(default_factory=dict)
    synonyms: dict[str, str] = field(default_factory=dict)
    # ``min_sizes()``, the defaults and ``by_name()``, computed on first use
    # (the frontend declares every type before that) and handed to every
    # caller, so callers must not mutate them.
    _sizes: dict[str, int] | None = field(default=None, init=False, repr=False, compare=False)
    _defaults: dict[str, Tree] | None = field(default=None, init=False, repr=False, compare=False)
    _by_name: dict[str, dict[str, Constructor]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def resolve(self, name: str) -> str:
        """The canonical name of a type a caller names: a synonym's target, else itself."""
        return self.synonyms.get(name, name)

    def constructors(self, name: str) -> tuple[Constructor, ...]:
        name = self.resolve(name)
        if name in PRIMITIVES:
            raise UnknownType(f"{name} is primitive and has no constructors")
        if name not in self.types:
            raise UnknownType(name)
        return self.types[name]

    def by_name(self) -> dict[str, dict[str, Constructor]]:
        """Each declared type's constructors by name; a repeated name keeps its first."""
        if self._by_name is None:
            self._by_name = {}
            for name, ctors in self.types.items():
                table = self._by_name[name] = {}
                for c in ctors:
                    table.setdefault(c.name, c)
        return self._by_name

    def constructor(self, ty: str, ctor: str) -> Constructor | None:
        """Constructor ``ctor`` of the declared type ``ty``, a canonical name."""
        return self.by_name().get(ty, {}).get(ctor)

    def owner_of(self, ctor: str) -> str | None:
        """Some declared type owning ``ctor``, for diagnostics."""
        for name, ctors in self.types.items():
            if any(c.name == ctor for c in ctors):
                return name
        return None

    def list_cell(self, name: str) -> Constructor | None:
        """The list-cell constructor of ``name``: two arguments, the second of type ``name``."""
        name = self.resolve(name)
        for c in self.constructors(name):
            if len(c.arg_types) == 2 and c.arg_types[1] == name:
                return c
        return None

    def min_sizes(self) -> dict[str, int]:
        """Least node count of a value of each type (least fixed point)."""
        if self._sizes is not None:
            return self._sizes
        sizes: dict[str, int] = {INT: 1, STRING: 1}
        changed = True
        while changed:
            changed = False
            for name, ctors in self.types.items():
                best = sizes.get(name)
                for c in ctors:
                    args = [sizes.get(a) for a in c.arg_types]
                    if any(a is None for a in args):
                        continue
                    cand = 1 + sum(args)  # type: ignore[arg-type]
                    if best is None or cand < best:
                        best = cand
                if best is not None and sizes.get(name) != best:
                    sizes[name] = best
                    changed = True
        self._sizes = sizes
        return sizes


def _found_name(sch: Schema, t: Pattern) -> str:
    if isinstance(t, IntLeaf):
        return INT
    if isinstance(t, StrLeaf):
        return STRING
    if isinstance(t, Wildcard):
        return "wildcard _"
    if isinstance(t, Var):
        return f"variable {t.name}"
    owner = sch.owner_of(t.ctor)
    return owner if owner is not None else f"constructor {t.ctor}"


def _path(up, i) -> Path:
    """The path of child ``i`` under ``up``, a chain of ``(parent chain, index)`` pairs; the root's ``i`` is None."""
    out: list[int] = []
    while i is not None:
        out.append(i)
        up, i = up
    return tuple(reversed(out))


def check_tree_type(
    sch: Schema, ty: str, t: Pattern, holes: dict[Path, str] | None = None
) -> None:
    """Check ``t`` against ``ty``; raise ``IllTyped`` at the first bad path in preorder.

    Inputs pass ``holes=None``: they must be trees, so a variable or wildcard
    is ill-typed.  Rule patterns pass a dict: each hole takes the type its
    position demands, recorded under the hole's path.  The walk keeps an
    explicit stack, dispatches on each term's class, looks a constructor up
    by name, and hands a node's children one path pair, built once per node;
    a path is built only to report it or a hole.
    """
    by_name = sch.by_name()
    stack = [(sch.resolve(ty), t, None, None)]
    push = stack.append
    while stack:
        expected, u, up, i = stack.pop()
        cls = u.__class__
        if cls is Node:
            ctor = by_name.get(expected, _NONE).get(u.ctor)
            if ctor is None:
                _mismatch(sch, expected, u, up, i)
            args, kids = ctor.arg_types, u.children
            if len(args) != len(kids):
                raise IllTyped(_path(up, i), expected, f"{u.ctor} applied to {len(kids)} argument(s)")
            here = (up, i)
            for k in range(len(kids) - 1, -1, -1):  # the last child first, so they pop in preorder
                push((args[k], kids[k], here, k))
        elif cls is IntLeaf:
            if expected != INT:
                _mismatch(sch, expected, u, up, i)
        elif cls is StrLeaf:
            if expected != STRING:
                _mismatch(sch, expected, u, up, i)
        elif holes is not None and isinstance(u, (Wildcard, Var)):
            holes[_path(up, i)] = expected
        else:
            _mismatch(sch, expected, u, up, i)


_NONE: dict = {}  # the constructors of a primitive or an unknown type


def _mismatch(sch: Schema, expected: str, u: Pattern, up, i) -> NoReturn:
    """Raise for a ``u`` of the wrong type at child ``i`` of ``up`` (see ``_path``)."""
    if expected not in PRIMITIVES and expected not in sch.types and not isinstance(u, (Wildcard, Var)):
        raise UnknownType(expected)
    raise IllTyped(_path(up, i), expected, _found_name(sch, u))


def type_at(sch: Schema, ty: str, t: Tree, p: Path) -> str:
    """Type of the node at ``p`` in a well-typed ``t`` of type ``ty``, in O(len(p))."""
    ty = sch.resolve(ty)
    node = t
    for depth, i in enumerate(p):
        if ty in PRIMITIVES or not isinstance(node, Node) or not 0 <= i < len(node.children):
            raise PathOutOfRange(f"path {list(p)} does not resolve")
        ctor = sch.constructor(ty, node.ctor)
        if ctor is None or len(ctor.arg_types) != len(node.children):  # pragma: no cover
            # callers type-check ``t`` first
            raise IllTyped(p[:depth], ty, _found_name(sch, node))
        ty = ctor.arg_types[i]
        node = node.children[i]
    return ty


def default_value(sch: Schema, ty: str) -> Tree:
    """Minimum-size well-typed tree of ``ty``; ties go to declaration order."""
    if sch._defaults is None:
        sizes = sch.min_sizes()
        table: dict[str, Tree] = {INT: IntLeaf(0), STRING: StrLeaf("")}
        # In increasing size order, so that a default is built from, and shares, its arguments' defaults.
        for name in sorted(sch.types.keys() & sizes.keys(), key=sizes.__getitem__):
            for c in sch.types[name]:
                args = [sizes.get(a) for a in c.arg_types]
                if None not in args and 1 + sum(args) == sizes[name]:  # type: ignore[arg-type]
                    table[name] = Node(c.name, tuple(table[a] for a in c.arg_types))
                    break
        sch._defaults = table
    name = sch.resolve(ty)
    if name not in sch._defaults:
        raise NoFiniteDefault(name)
    return sch._defaults[name]
