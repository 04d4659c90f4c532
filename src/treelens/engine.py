"""The derived lens: link-producing get, link-consuming put, and check.

Every lens, a composite included, has two primitives: ``get`` pairs the view
with links relating source regions to view regions, and ``try_put`` returns
the new source or the first ``CheckFailure``.  ``Lens`` writes the rest once,
around a subclass's cores ``_get``/``_try_put``; ``put`` raises try_put's
failure and ``check``/``check_explain`` report it, so "put iff check" holds
by construction.

The cores type as they walk.  At each node a walk finds the rule by the
node's head, in one dict lookup, and a rule that matches types every
position of its pattern but its holes: a variable's relation types the
subtree it recurses into, and the rule's leaf check, or a kind check where
put hands a primitive back, types the rest (``treelens.plan``).  So a walk
that succeeds has typed its input, and the boundary types nothing for get.
put does not read all of its source, so ``try_put`` types the source first;
a core's view, and a composite's middle values, which a part's get or put
built, are typed by the walks.  Where a walk fails (no rule for a head, a
failed leaf check, a ``CheckFailure`` or ``RecursionError``), the boundary
types the inputs, the view first and then the source, and reports the first
type error it finds, else the walk's own failure, so that a type error is
reported ahead of any other failure, as when the inputs were typed first.

``LensHandle`` is the lens of one declared relation, looked up once, when
the handle is built; a primitive source is read by identity.  Its recursion
mirrors the rule structure: at each view node either no input link ends
here (rebuild case: one scan of the relation's rebuild table finds the
first rule whose view pattern matches, and the bare-variable rules that
wrap its result) or some link does (retain case: pick the link with the
shortest source path, find the unique rule able to generate its regions —
the current relation first, then the other relations sharing the view type
— keep the region's content and recurse into the holes).  Retained regions
whose rule belongs to a different source type are wrapped by the
synthesized conversion chain for the two interchangeable types.

The rules never change once the program loads, so they are not interpreted
here: each is one ``Rule`` compiled at validation (``treelens.plan``), whose
closures match, bind, build regions and rebuild trees, and whose variables
already hold the relation they recurse into.  A wrapping rule is applied by
its own ``build_source``.  The rules that can generate a link are looked up
by (view type, view region) in one per-program table, and each relation's
rebuild table, and so whether a sugar chain cycles, is fixed at load.

put and check are one traversal (``_sync``).  The input links are indexed
once as a trie over view paths; each step hands the rule's variables their
sub-tries by walking the rule's view pattern.  The trie, and the source
subtree each retained link names, are reached through per-call dicts keyed
by path prefix, so a path is one step from its nearest resolved ancestor,
not a walk from the root.  A view node thus costs O(1) plan steps plus O(1)
prefix-map steps per link ending there, however deep it is and however many
links there are; only building, hashing and slicing the path tuples
themselves, in C, still grows with depth.  ``get`` appends every link, with
absolute paths, to one accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import Relation, ValidatedProgram, normalize_type_name
from .plan import Rule, head
from .schema import KINDS, IllTyped, PRIMITIVES, check_tree_type
from .text import render_link, render_path, render_pattern
from .trees import Link, LinkSet, Node, Path, Region, Tree, Var, is_match, pattern_key


class EngineError(Exception):
    pass


class IllTypedInput(EngineError):
    """An input tree does not type-check at the expected type."""


class _IllTypedNode(Exception):
    """A walk met a node that no rule's typed pattern accepts: its input is ill-typed."""


class UnknownRelation(EngineError):
    """The requested (source, view) pair is not declared by the program."""


@dataclass
class CheckFailure:
    """Why check rejected, anchored at a view path for CLI reporting."""

    code: str
    message: str
    view_path: Path
    link: Link | None = None

    def __str__(self) -> str:
        loc = f"at view path {render_path(self.view_path)}"
        out = f"{self.code} {loc}: {self.message}"
        if self.link is not None:
            out += f" [{render_link(self.link)}]"
        return out


class InvalidLinks(EngineError):
    """put rejected its input links; carries the check failure."""

    def __init__(self, failure: CheckFailure):
        super().__init__(str(failure))
        self.failure = failure


def _generating_rules(
    vp: ValidatedProgram, sty: str, vty: str, l: Link
) -> list[tuple[Relation, Rule, list[Tree]]]:
    """Rules able to generate link ``l`` at view type ``vty``, each with its wildcard fills.

    The current relation's rules take precedence: a link produced here by get
    always resolves to them (uniquely, by source disjointness).  Only when the
    current relation cannot have generated the link are the other relations
    with the same view type searched — that is the retained-foreign-region
    case, which a conversion must then bridge.
    """
    current, foreign = [], []
    # This key hashes the whole input view pattern, and a tuple hash has no
    # depth guard.  It is safe only because ``_sync`` has run ``is_match`` on
    # that pattern first, which recurses under the recursion limit.
    for rel, rule in vp.generators.get((vty, l.view.pattern), ()):
        fills = rule.merge(l.source.pattern)
        if fills is not None:
            bucket = current if rel.source_type == sty else foreign
            bucket.append((rel, rule, fills))
    return current if current else foreign


def _root_order(l: Link):
    # Shortest source path wins; remaining ties resolve structurally so the
    # choice never depends on set iteration order.
    return (
        len(l.source.path),
        l.source.path,
        pattern_key(l.source.pattern),
        pattern_key(l.view.pattern),
    )


def _resolve(table: dict, path: Path, step):
    """``table[path]``, deriving each missing prefix from its parent by ``step``.

    ``table`` maps the empty path to a root and holds every prefix resolved
    so far, so a path costs one step per prefix not met before, not a walk
    from the root.  ``step(parent, index)`` returns None where a prefix does
    not resolve, and so does this.
    """
    hit = table.get(path)
    if hit is not None:
        return hit
    k = len(path) - 1
    while (hit := table.get(path[:k])) is None:
        k -= 1
    for k in range(k, len(path)):
        hit = step(hit, path[k])
        if hit is None:
            return None
        table[path[: k + 1]] = hit
    return hit


def _source_child(t: Tree, i: int) -> Tree | None:
    if isinstance(t, Node) and 0 <= i < len(t.children):
        return t.children[i]
    return None


class _Index:
    """Input links as a trie keyed by view-path index.

    ``here`` holds the links ending at this view node, in the order put
    consumes them; ``kids`` maps a child index to the sub-trie of the links
    below it.  A node exists only where some link ends at or below it.
    """

    __slots__ = ("here", "kids")

    def __init__(self) -> None:
        self.here: list[Link] = []
        self.kids: dict[int, _Index] = {}


def _index_child(node: _Index, i: int) -> _Index:
    kid = node.kids[i] = _Index()
    return kid


def _index_links(ls) -> _Index:
    root = _Index()
    nodes = {(): root}
    crowded: list[_Index] = []
    for l in frozenset(ls):
        node = _resolve(nodes, l.view.path, _index_child)
        node.here.append(l)
        if len(node.here) == 2:
            crowded.append(node)
    for node in crowded:
        node.here.sort(key=_root_order)
    return root


def _first_link(node: _Index, skip: int) -> Link:
    """The least-view-path link at or below a non-empty index node, past ``skip`` here."""
    while skip >= len(node.here):
        node, skip = node.kids[min(node.kids)], 0
    return node.here[skip]


def _scope(rule: Rule, node: _Index | None, skip: int):
    """Hand the links at and below the current view node to the rule's variables.

    Walks the index along the rule's view pattern, so the cost is bounded by
    the pattern, not by the number of links.  Returns each variable's index
    node with the count of its links already consumed, and the link with the
    least view path that ends outside every variable (None when there is
    none).  ``None`` stands for the pattern below a leaf or past its arity.
    """
    scoped = {x.name: (None, 0) for x in rule.variables}
    if node is None:
        return scoped, None
    stack = [(rule.view, node, skip)]
    while stack:
        pat, n, k = stack.pop()
        if isinstance(pat, Var):
            scoped[pat.name] = (n, k)
            continue
        if pat is None:
            return scoped, _first_link(n, 0)
        if k < len(n.here):
            return scoped, n.here[k]
        # Preorder, least child index first: which link is reported must not
        # depend on the order the links were indexed in.
        for i in sorted(n.kids, reverse=True):
            inside = isinstance(pat, Node) and 0 <= i < len(pat.children)
            stack.append((pat.children[i] if inside else None, n.kids[i], 0))
    return scoped, None


def _abs_path(at) -> Path:
    """The view path of a chain of ``(parent, step)`` pairs."""
    steps: list[Path] = []
    while at is not None:
        at, step = at
        steps.append(step)
    return tuple(i for step in reversed(steps) for i in step)


def _fail(code: str, message: str, at, link: Link | None = None) -> CheckFailure:
    return CheckFailure(code, message, _abs_path(at), link)


def _get(rel: Relation, s: Tree, spath: Path, vpath: Path, acc: list) -> Tree:
    """View of ``s``; appends its links, at absolute paths, to ``acc``."""
    try:
        rules = rel.by_source_head[s.ctor, len(s.children)]  # ``head(s)``; a leaf has no ctor
    except (AttributeError, KeyError):
        raise _IllTypedNode from None
    for rule in rules:
        if rule.match_source(s):
            break
    else:
        raise _IllTypedNode
    if not rule.check_leaves(s):
        raise _IllTypedNode
    acc.append(Link(Region(rule.region(s), spath), Region(rule.view_erased, vpath)))
    views = []
    for x in rule.variables:
        sub = x.source_at(s)
        if x.relation is not None:
            sub = _get(x.relation, sub, spath + x.source_path, vpath + x.view_path, acc)
        views.append(sub)
    return rule.build_view(views)


def _leaf(kind: type, v: Tree, node: _Index | None, skip: int, at) -> Tree | CheckFailure:
    """A primitive of leaf class ``kind``, related by identity: ``v`` itself, with no link inside."""
    if node is not None and (skip < len(node.here) or node.kids):
        return _fail(
            "E-link-at-leaf", "links may not end inside a primitive value", at, _first_link(node, skip)
        )
    if v.__class__ is not kind:
        raise _IllTypedNode
    return v


def _sync(
    vp: ValidatedProgram,
    sources: dict,
    rel: Relation,
    v: Tree,
    node: _Index | None,
    skip: int,
    at,
) -> Tree | CheckFailure:
    """put and check in one traversal: the new source, or why there is none.

    ``rel`` is the relation at this view node.  ``node`` indexes the input
    links at and below the current view node, of which the first ``skip``
    ending here are already consumed; ``at`` is the current view path as a
    ``(parent, step)`` chain.  ``sources`` maps the source paths resolved so
    far to their subtrees.  Either case picks one rule and the chain of
    single-variable rules that wraps its result, innermost first: the
    rebuild entry's bare rules, or a retained region's conversion.
    """
    if node is None or skip >= len(node.here):
        for rule, wraps in rel.rebuild.get(head(v), ()):
            if rule.match_view(v):
                break
        else:
            return _fail(*rel.miss, at)
        scoped, stray = _scope(rule, node, skip)
        if stray is not None:
            return _fail("E-stray-link", "link is not scoped under any rule variable", at, stray)
        slots = list(rule.defaults)
    else:
        l = node.here[skip]
        ssub = _resolve(sources, l.source.path, _source_child)
        if ssub is None:
            return _fail("E-dangling-source", "source path does not resolve", at, l)
        if not is_match(l.source.pattern, ssub):
            return _fail(
                "E-source-mismatch",
                f"source does not contain region {render_pattern(l.source.pattern)}",
                at,
                l,
            )
        if not is_match(l.view.pattern, v):
            return _fail(
                "E-view-mismatch",
                f"view does not contain region {render_pattern(l.view.pattern)}",
                at,
                l,
            )
        sty, vty = rel.source_type, rel.view_type
        cands = _generating_rules(vp, sty, vty, l)
        if not cands:
            return _fail("E-no-generating-rule", "no rule can generate this link", at, l)
        if len(cands) > 1:
            return _fail("E-ambiguous-link", "more than one rule can generate this link", at, l)
        rel2, rule, slots = cands[0]
        wraps = None
        if rel2 is not rel:
            steps = vp.inj_table.get((rel2.source_type, sty, vty))
            if steps is None:
                message = f"region of type {rel2.source_type} cannot be converted to {sty}"
                return _fail("E-no-conversion", message, at, l)
            for wrap in reversed(steps):
                wraps = wrap, wraps
        scoped, other = _scope(rule, node, skip + 1)
        if other is not None:
            return _fail("E-overlapping-regions", "second link ends inside this view region", at, other)
    for x in rule.variables:
        kid, kid_skip = scoped[x.name]
        if x.relation is None:
            part = _leaf(x.kind, x.view_at(v), kid, kid_skip, (at, x.view_path))
        else:
            part = _sync(vp, sources, x.relation, x.view_at(v), kid, kid_skip, (at, x.view_path))
        if isinstance(part, CheckFailure):
            return part
        slots.append(part)
    out = rule.build_source(slots)
    while wraps is not None:
        wrap, wraps = wraps
        out = wrap.build_source([*wrap.defaults, out])
    return out


def _type_error(side: str, sch, ty: str, t: Tree) -> CheckFailure | None:
    """``E-ill-typed-<side>`` at ``t``'s first type error, or None if it is well-typed."""
    try:
        check_tree_type(sch, ty, t)
    except IllTyped as e:
        return CheckFailure(f"E-ill-typed-{side}", str(e), ())
    return None


class Lens:
    """A lens over cores ``_get(s)`` and ``_try_put(s, v, ls)`` that type as they walk.

    A subclass supplies the cores, its source and view types and schemas.  A
    core may take a well-typed source of ``_try_put`` for granted, and raises
    ``_IllTypedNode`` or returns a failure on an ill-typed input.
    """

    def get(self, s: Tree) -> tuple[Tree, LinkSet]:
        """View of ``s`` plus the links relating source and view regions."""
        try:
            return self._get(s)
        except (_IllTypedNode, RecursionError):
            failure = _type_error("source", self.source_schema, self.source_type, s)
            if failure is None:
                raise
            raise IllTypedInput(f"source: {failure.message}") from None

    def try_put(self, s: Tree, v: Tree, ls) -> Tree | CheckFailure:
        """put's result, or the failure ``check_explain`` reports, in one pass."""
        failure = _type_error("source", self.source_schema, self.source_type, s)
        if failure is None:
            try:
                out = self._try_put(s, v, ls)
            except (_IllTypedNode, RecursionError):
                view = _type_error("view", self.view_schema, self.view_type, v)
                if view is None:
                    raise
                return view
            if not isinstance(out, CheckFailure):
                return out
            failure = out
        return _type_error("view", self.view_schema, self.view_type, v) or failure

    def put(self, s: Tree, v: Tree, ls) -> Tree:
        """New source retaining every linked region; rejects ill-typed inputs and invalid links."""
        out = self.try_put(s, v, ls)
        if isinstance(out, CheckFailure):
            side = out.code.removeprefix("E-ill-typed-")
            if side != out.code:
                raise IllTypedInput(f"{side}: {out.message}")
            raise InvalidLinks(out)
        return out

    def check(self, s: Tree, v: Tree, ls) -> bool:
        return self.check_explain(s, v, ls) is None

    def check_explain(self, s: Tree, v: Tree, ls) -> CheckFailure | None:
        """None when put would succeed, otherwise the first failure found."""
        out = self.try_put(s, v, ls)
        return out if isinstance(out, CheckFailure) else None


@dataclass
class LensHandle(Lens):
    """The lens of one relation of a validated program, resolved once, when the handle is built."""

    program: ValidatedProgram
    source_type: str
    view_type: str
    relation: Relation | None = field(init=False, repr=False, compare=False)  # None: identity

    def __post_init__(self) -> None:
        sty, vty = self.source_type, self.view_type
        rel = self.program.relation(sty, vty)
        if rel is None and not (sty in PRIMITIVES and sty == vty):
            raise UnknownRelation(f"{sty} <---> {vty}")
        self.relation = rel  # None for a primitive source, read by identity: no relation has one

    @property
    def source_schema(self):
        return self.program.schema

    @property
    def view_schema(self):
        return self.program.schema

    def _get(self, s: Tree) -> tuple[Tree, LinkSet]:
        if self.relation is None:
            if s.__class__ is not KINDS[self.source_type]:
                raise _IllTypedNode
            return s, frozenset()
        acc: list[Link] = []
        view = _get(self.relation, s, (), (), acc)
        return view, frozenset(acc)

    def _try_put(self, s: Tree, v: Tree, ls) -> Tree | CheckFailure:
        if self.relation is None:
            return _leaf(KINDS[self.view_type], v, _index_links(ls), 0, None)
        return _sync(self.program, {(): s}, self.relation, v, _index_links(ls), 0, None)


def lens(program: ValidatedProgram, source_type: str, view_type: str) -> LensHandle:
    """Resolve type names and build a handle; the relation must be declared."""
    sty, vty = normalize_type_name(program, source_type), normalize_type_name(program, view_type)
    return LensHandle(program, sty, vty)
