"""DSL frontend: parse ``.lens`` programs, validate them, synthesize conversions.

A program is a list of type declarations followed by one or more consistency
relations, each a ``S <---> V`` header over inductive rules ``spat ~ vpat``.
A line and the ``|`` lines that continue it are read from their bare token
texts through one ``text.TokenCursor``, as tree, link and script files are.
Type expressions are terms, read by ``text.parse_term`` like the rules'
patterns: a type ends at the first token no type may hold (``=``, ``|``,
``<--->``), and a declaration's parameters are its variables.  Parsing
monomorphizes generic declarations (``data List a = ...``) at every ground
application mentioned by the program and resolves ``type`` synonyms, so a
schema names every type canonically, while the program keeps the surface
spelling of every type expression and prints back byte-for-byte.

Validation enforces, per relation: pattern coverage on both sides (view-side
failures are warnings; see ``W-view-coverage``), pairwise source-pattern
disjointness, no bare-variable source patterns, no view-side wildcards, equal
and linear variable sets, a declared relation (or primitive identity) for
every variable's type pair, and conversion chains between interchangeable
source types.  Coverage and disjointness come from one pattern-matrix walk
per relation side, ``_walk_matrix``, which names a value no rule covers.
Every check on a rule's variables and wildcards reads the hole maps of one
typing walk per side, and the same maps build the rule's one record, a
frozen ``plan.Rule`` compiled against the program's relations; a variable's
relation is looked up there, once.  A relation keeps its rules in program
order, and two tables keyed by a node's ``plan.head``: get's, of the rules
whose source can match a node with that head, and put's rebuild table,
which follows the relation's chain of bare-variable view rules (sugar, which
consumes no view node), so that a sugar cycle is found at load
(``_index_rules``).  A program that validates has its rules indexed by the
view region they generate, and a conversion chain is a tuple of its
single-variable rules, so the engine never re-walks a rule's patterns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .plan import Rule, Variable, at, compile_rule, head
from .schema import (
    INT,
    KINDS,
    Constructor,
    IllTyped,
    NoFiniteDefault,
    PRIMITIVES,
    Schema,
    check_tree_type,
)
from .text import LensSyntaxError, TokenCursor, parse_term, read_all, render_pattern, token_lines
from .trees import IntLeaf, Node, Path, Pattern, StrLeaf, Var, Wildcard, WILDCARD, sel

_INSTANTIATION_DEPTH_LIMIT = 64


@dataclass
class SynDecl:
    name: str
    target: Node
    line: int


@dataclass
class DataDecl:
    name: str
    params: tuple[str, ...]
    ctors: list[Node]  # each alternative: its constructor over argument types
    line: int


@dataclass
class RawRule:
    source: Pattern
    view: Pattern
    line: int


@dataclass
class RawRelation:
    source_expr: Node
    view_expr: Node
    source_type: str
    view_type: str
    rules: list[RawRule]
    line: int


@dataclass
class Program:
    """Parse result: a schema plus ordered relation definitions."""

    schema: Schema
    relations: list[RawRelation]
    decls: list[SynDecl | DataDecl]
    source_name: str = "<program>"


@dataclass
class Diagnostic:
    """A validation finding about a whole line, so its column is always 1."""

    line: int
    code: str
    message: str

    def format(self, filename: str) -> str:
        return f"{filename}:{self.line}:1: {self.code}: {self.message}"


class ValidationError(Exception):
    """One or more validation diagnostics; formatted one per line."""

    def __init__(self, diagnostics: list[Diagnostic], source_name: str = "<program>"):
        self.diagnostics = diagnostics
        self.source_name = source_name
        super().__init__("\n".join(d.format(source_name) for d in diagnostics))


# ---------------------------------------------------------------------------
# Parsing


# Tokens a type expression may contain; a parameter only in a ``data``
# alternative.  Any other token ends the type.
_TYPE_TOKENS = frozenset(("UIDENT", "LPAR", "RPAR"))
_ALTERNATIVE_TOKENS = _TYPE_TOKENS | {"LIDENT"}


def _parse_type(cur: TokenCursor, params: bool) -> Node:
    """Read one type expression, a term, up to the first token that ends it.

    The term's own errors at its end name that token, at its own line and
    column; the caller reads it next (``=``, ``|``, ``<--->`` or a stray token).
    """
    kinds = _ALTERNATIVE_TOKENS if params else _TYPE_TOKENS
    end = cur.pos
    while cur.kind(end) in kinds:
        end += 1
    if end == cur.pos:
        cur.expect("UIDENT")  # raises, naming the token that cannot start a type
    stop, cur.end = cur.end, end
    t = parse_term(cur, allow_vars=True)
    cur.require_end()
    cur.end = stop
    return t  # type: ignore[return-value]  # a variable is never a whole type


def _unbound(e: Var, line: int) -> LensSyntaxError:
    return LensSyntaxError(f"unbound type variable {e.name}", line, 1)


class _SchemaBuilder:
    """Monomorphizes declarations into a ground ``Schema``."""

    def __init__(self) -> None:
        self.datas: dict[str, DataDecl] = {}
        self.syns: dict[str, Node] = {}
        self.names: dict[Node, str] = {}  # an applied instance's schema name
        self.schema = Schema()

    def declare(self, decl: SynDecl | DataDecl) -> None:
        if decl.name in self.datas or decl.name in self.syns or decl.name in PRIMITIVES:
            raise LensSyntaxError(f"type {decl.name} declared twice", decl.line, 1)
        if isinstance(decl, DataDecl):
            self.datas[decl.name] = decl
        else:
            self.syns[decl.name] = decl.target

    def canonical(self, e: Pattern, env: dict[str, Node], line: int, depth: int = 0) -> Node:
        """The ground type ``e`` denotes, its data instances declared on the way."""
        if depth > _INSTANTIATION_DEPTH_LIMIT:
            raise LensSyntaxError("type instantiation does not terminate", line, 1)
        if isinstance(e, Var):
            if e.name not in env:
                raise _unbound(e, line)
            return env[e.name]
        decl = self._applied(e, line)
        if decl is None:
            return e if e.ctor in PRIMITIVES else self.canonical(self.syns[e.ctor], {}, line, depth + 1)
        ce = Node(e.ctor, tuple(self.canonical(a, env, line, depth + 1) for a in e.children))
        self._instantiate(ce, decl, depth)
        return ce

    def _applied(self, e: Node, line: int) -> DataDecl | None:
        """The data declaration ``e`` applies (None for a synonym or a primitive), its arity checked."""
        name, n = e.ctor, len(e.children)
        if name in self.syns:
            if n:
                raise LensSyntaxError(f"synonym {name} cannot take arguments", line, 1)
            return None
        if name in PRIMITIVES:
            if n:
                raise LensSyntaxError(f"{name} takes no arguments", line, 1)
            return None
        decl = self.datas.get(name)
        if decl is None:
            raise LensSyntaxError(f"unknown type {name}", line, 1)
        if len(decl.params) != n:
            raise LensSyntaxError(f"type {name} expects {len(decl.params)} argument(s), got {n}", line, 1)
        return decl

    def check_generic(self, decl: DataDecl) -> None:
        """Refuse what instantiating ``decl`` would refuse, without instantiating it.

        A generic declaration that nothing applies is never instantiated, so
        this is the only check it gets.  The walk is in ``canonical``'s order,
        and an applied declaration passes it.
        """
        stack = [a for alt in reversed(decl.ctors) for a in reversed(alt.children)]
        while stack:
            e = stack.pop()
            if isinstance(e, Var):
                if e.name not in decl.params:
                    raise _unbound(e, decl.line)
                continue
            self._applied(e, decl.line)
            stack.extend(reversed(e.children))

    def name(self, ce: Node) -> str:
        """The schema's name of a canonical type, rendered once per instance."""
        if not ce.children:
            return ce.ctor
        name = self.names.get(ce)
        if name is None:
            name = self.names[ce] = render_pattern(ce)
        return name

    def _instantiate(self, ce: Node, decl: DataDecl, depth: int) -> None:
        name = self.name(ce)
        if name in self.schema.types:
            return
        self.schema.types[name] = ()  # placeholder breaks instantiation cycles
        env = dict(zip(decl.params, ce.children))
        ctors = tuple(
            Constructor(
                alt.ctor,
                tuple(self.name(self.canonical(a, env, decl.line, depth + 1)) for a in alt.children),
            )
            for alt in decl.ctors
        )
        self.schema.types[name] = ctors

    def finish(self, decls: list[SynDecl | DataDecl]) -> None:
        # Ground declarations become instances up front; synonyms resolve fully.
        for decl in decls:
            if isinstance(decl, DataDecl) and not decl.params:
                self.canonical(Node(decl.name), {}, decl.line)
        for decl in decls:
            if isinstance(decl, SynDecl):
                target = self.canonical(decl.target, {}, decl.line)
                self.schema.synonyms[decl.name] = self.name(target)


def _logical_lines(text: str) -> list[TokenCursor]:
    """A cursor over each line that holds a token; a ``|`` line reads on from the one before."""
    lines: list[TokenCursor] = []
    for cur in token_lines(text):
        if cur.tokens[0] == "|" and lines:
            lines[-1].extend(cur)
        else:
            lines.append(cur)
    return lines


def _parse_data_decl(cur: TokenCursor, line: int) -> DataDecl:
    name = cur.expect("UIDENT")
    params: list[str] = []
    while cur.kind(cur.pos) == "LIDENT":
        params.append(cur.expect("LIDENT"))
    cur.expect("EQ")
    ctors: list[Node] = []
    while True:
        if cur.kind(cur.pos) != "UIDENT":
            cur.expect("UIDENT")  # an alternative starts with its constructor
        ctors.append(_parse_type(cur, params=True))
        if cur.kind(cur.pos) != "PIPE":
            break
        cur.pos += 1
    cur.require_end()
    return DataDecl(name, tuple(params), ctors, line)


def parse_program(text: str, source_name: str = "<program>") -> Program:
    """Parse the concrete syntax into a ``Program``; raises ``LensSyntaxError``.

    The program's first stray character is reported ahead of any other error.
    A line that holds one never reads, so the lines are positioned, in order,
    only once an error is raised.
    """
    lines = _logical_lines(text)
    try:
        return _parse_lines(lines, source_name)
    except LensSyntaxError:
        for cur in lines:
            cur.positioned()
        raise


def _parse_lines(lines: list[TokenCursor], source_name: str) -> Program:
    builder = _SchemaBuilder()
    decls: list[SynDecl | DataDecl] = []
    headers: list[tuple[TokenCursor, list[RawRule]]] = []  # each relation's header and rules
    for cur in lines:
        toks, lineno = cur.tokens, cur.line
        if toks[0] in ("data", "type"):
            if headers:
                raise cur.error("type declarations must precede relation definitions", 0)
            cur.pos = 1
            if toks[0] == "data":
                decl: SynDecl | DataDecl = _parse_data_decl(cur, lineno)
            else:
                name = cur.expect("UIDENT")
                cur.expect("EQ")
                decl = SynDecl(name, _parse_type(cur, params=False), lineno)
                cur.require_end()
            decls.append(decl)
            builder.declare(decl)
        elif "<--->" in toks:
            headers.append((cur, []))
        elif "~" in toks:
            if not headers:
                raise cur.error("rule before any relation header", 0)
            spat = parse_term(cur, allow_vars=True)
            cur.expect("TILDE")
            vpat = parse_term(cur, allow_vars=True)
            cur.require_end()
            headers[-1][1].append(RawRule(spat, vpat, lineno))
        else:
            raise cur.error("cannot parse line: {!r}...", 0)

    builder.finish(decls)
    relations: list[RawRelation] = []
    for cur, rules in headers:
        source_expr = _parse_type(cur, params=False)
        cur.expect("REL")
        view_expr = _parse_type(cur, params=False)
        cur.require_end()
        if not rules:
            raise LensSyntaxError("a relation needs at least one rule", cur.line, 1)
        sty = builder.name(builder.canonical(source_expr, {}, cur.line))
        vty = builder.name(builder.canonical(view_expr, {}, cur.line))
        relations.append(RawRelation(source_expr, view_expr, sty, vty, rules, cur.line))
    if not relations:
        raise LensSyntaxError("a program needs at least one relation", 1, 1)
    for decl in decls:  # last, so that every error above keeps its precedence
        if isinstance(decl, DataDecl) and decl.params:
            builder.check_generic(decl)
    return Program(builder.schema, relations, decls, source_name)


def render_program(p: Program) -> str:
    """Canonical program text; ``parse_program`` of the result is the identity."""
    out: list[str] = []
    for decl in p.decls:
        if isinstance(decl, SynDecl):
            out.append(f"type {decl.name} = {render_pattern(decl.target)}")
        else:
            head = decl.name if not decl.params else decl.name + " " + " ".join(decl.params)
            out.append(f"data {head} = {' | '.join(map(render_pattern, decl.ctors))}")
    for rel in p.relations:
        out.append("")
        out.append(f"{render_pattern(rel.source_expr)} <---> {render_pattern(rel.view_expr)}")
        for rule in rel.rules:
            out.append(f"  {render_pattern(rule.source)} ~ {render_pattern(rule.view)}")
    return "\n".join(out) + "\n"


def normalize_type_name(program: Program | "ValidatedProgram", text: str) -> str:
    """Resolve a user-written type expression to its canonical ground name."""
    expr = read_all(text, lambda cur: _parse_type(cur, params=False))
    schema = program.schema

    def walk(e: Node) -> str:
        if not e.children:
            return schema.resolve(e.ctor)
        return e.ctor + " " + " ".join(_paren(walk(a)) for a in e.children)

    return walk(expr)


def _paren(name: str) -> str:
    return f"({name})" if " " in name else name


# ---------------------------------------------------------------------------
# Validation


@dataclass
class Relation:
    """A declared relation; ``validate_program`` sets its rules and tables once, after all relations exist."""

    source_type: str
    view_type: str
    line: int
    rules: tuple[Rule, ...] = ()  # in program order
    # plan.head -> the rules whose source can match such a node, in program order
    by_source_head: dict = field(default_factory=dict)
    # plan.head -> put's (rule, wraps) entries for such a view node, in scan
    # order; ``wraps`` is None or a (bare rule, wraps) chain, innermost first
    rebuild: dict = field(default_factory=dict)
    miss: tuple[str, str] = ("", "")  # put's (code, message) where no entry matches


@dataclass
class ValidatedProgram:
    schema: Schema
    relations: tuple[Relation, ...]
    by_pair: dict[tuple[str, str], Relation]
    # (view type, erased view pattern) -> the rules whose view region it is,
    # in program order: what put searches for the rule behind a link.
    generators: dict[tuple[str, Pattern], tuple[tuple[Relation, Rule], ...]]
    # (S1, S2, V) -> the single-variable rules that wrap an S1 tree into an
    # S2 tree, innermost first.
    inj_table: dict[tuple[str, str, str], tuple[Rule, ...]]
    warnings: list[Diagnostic]
    source_name: str = "<program>"

    def relation(self, sty: str, vty: str) -> Relation | None:
        return self.by_pair.get((sty, vty))


def _walk_matrix(sch: Schema, rows: list, tys: tuple[str, ...], pairs: set | None) -> tuple | None:
    """The first vector of ``tys`` that no row matches, or None if the rows cover ``tys``.

    A row is (rule position, a pattern per column), and each pair of rows that
    some vector matches goes to ``pairs``, unless it is None (Maranget,
    "Warnings for pattern matching", JFP 2007).  Leading columns where every
    row is a hole are dropped.  Else the rows split by head through a dict, and
    hole rows join every group.  If the heads are all the type's constructors,
    the witness is the first group's, in declaration order.  Else the groups
    are walked for pairs only, and the witness is the hole rows', behind the
    first constructor no row heads, or a fresh literal.  One frame per split.
    """
    k = 0  # the leading columns where every row is a hole
    while k < len(tys) and all(isinstance(row[k], (Var, Wildcard)) for _, row in rows):
        k += 1
    rows, tys, lead = [(i, row[k:]) for i, row in rows] if k else rows, tys[k:], (WILDCARD,) * k
    if not tys:
        if pairs is not None and len(rows) > 1:
            pairs.update(combinations(sorted(i for i, _ in rows), 2))
        return None if rows else lead
    groups: dict = {}  # head -> its rows, the head's children in front
    holes = []
    for i, row in rows:
        h = row[0]
        if isinstance(h, (Var, Wildcard)):
            holes.append((i, row[1:]))
        else:
            key, kids = ((h.ctor, len(h.children)), h.children) if isinstance(h, Node) else (h, ())
            groups.setdefault(key, []).append((i, kids + row[1:]))
    # Constructors by name and arity: a declaration may repeat a name (E-ctor-reuse).  A primitive has none.
    alts = [((c.name, len(c.arg_types)), c.arg_types) for c in sch.types.get(tys[0], ())]
    covered = bool(alts) and all(key in groups for key, _ in alts)
    missing = witness = None
    for key, args in alts or [(h, ()) for h in groups]:
        n = len(args)
        if covered or key in groups and pairs is not None:
            sub = groups.get(key, []) + [(i, (WILDCARD,) * n + row) for i, row in holes]
            w = _walk_matrix(sch, sub, args + tys[1:], pairs)
            if covered and w is not None and witness is None:
                witness = lead + (Node(key[0], w[:n]),) + w[n:]
        elif missing is None and key not in groups:
            missing = Node(key[0], (WILDCARD,) * n)
    if covered:
        return witness
    if missing is None:  # a primitive, which no set of literals exhausts
        values = [h.value for h in groups]
        missing = IntLeaf(max(values) + 1) if tys[0] == INT else StrLeaf(max(values, key=len) + "x")
    w = _walk_matrix(sch, holes, tys[1:], pairs)
    return None if w is None else lead + (missing,) + w


def _compile_rule(
    sch: Schema,
    rel: RawRelation,
    raw: RawRule,
    index: int,
    by_pair: dict[tuple[str, str], Relation],
    diags: list[Diagnostic],
) -> Rule | None:
    # Each side's holes in preorder, as (hole, path, type), from one typing walk.
    sides: list[list[tuple[Pattern, Path, str]]] = []
    try:
        for ty, pat in ((rel.source_type, raw.source), (rel.view_type, raw.view)):
            holes: dict[Path, str] = {}
            check_tree_type(sch, ty, pat, holes)
            sides.append([(sel(pat, h), h, hty) for h, hty in holes.items()])
    except IllTyped as e:
        diags.append(Diagnostic(raw.line, "E-ill-typed", str(e)))
        return None
    src, view = sides

    ok = True
    for side, holes in (("source", src), ("view", view)):
        names = [x.name for x, _, _ in holes if isinstance(x, Var)]
        dup = sorted({n for n in names if names.count(n) > 1})
        if dup:
            diags.append(Diagnostic(raw.line, "E-nonlinear", f"{side} pattern repeats {', '.join(dup)}"))
            ok = False
    if isinstance(raw.source, Var):
        diags.append(
            Diagnostic(raw.line, "E-bare-source", "a bare variable is not allowed on the source side")
        )
        ok = False

    if any(isinstance(x, Wildcard) for x, _, _ in view):
        diags.append(Diagnostic(raw.line, "E-view-wildcard", "wildcards are not allowed on the view side"))
        ok = False
    svars = {x.name: (h, ty) for x, h, ty in src if isinstance(x, Var)}
    vvars = {x.name: (h, ty) for x, h, ty in view if isinstance(x, Var)}
    if svars.keys() != vvars.keys():
        diags.append(
            Diagnostic(
                raw.line,
                "E-var-mismatch",
                f"source and view sides must use the same variables "
                f"(source {sorted(svars)}, view {sorted(vvars)})",
            )
        )
        ok = False
    if not ok:
        return None

    variables = []
    for x, (spath, sty) in svars.items():
        vpath, vty = vvars[x]
        # A primitive is related by identity (E-primitive-source); a missing relation is E-var-relation.
        relation = by_pair.get((sty, vty))
        kind = KINDS.get(vty) if relation is None else None
        variables.append(Variable(x, relation, kind, sty, vty, spath, vpath, at(spath), at(vpath)))
    wildcards = {h: ty for x, h, ty in src if isinstance(x, Wildcard)}
    try:
        return compile_rule(sch, raw.source, raw.view, raw.line, index, tuple(variables), wildcards)
    except NoFiniteDefault as e:
        diags.append(Diagnostic(raw.line, "E-no-default", f"no finite default value for type {e}"))
        return None


def _heads(sch: Schema, ty: str, p: Pattern) -> list:
    """The ``plan.head`` of each value of type ``ty`` that pattern ``p`` can match."""
    if not isinstance(p, (Var, Wildcard)):
        return [head(p)]
    if ty in KINDS:
        return [KINDS[ty]]
    return [(c.name, len(c.arg_types)) for c in sch.types[ty]]


def _index_rules(sch: Schema, rel: Relation) -> Relation | None:
    """Fill ``rel``'s tables by head; return the relation its chain of first bare rules returns to, if any.

    get's table holds the rules whose source can match a node of that head.
    put rebuilds a view node with the first entry of its table whose view
    matches it.  A relation's first bare rule matches every view and hands
    it, unconsumed, to its variable's relation.  So the entries are ``rel``'s
    rules whose view is not bare, then those of each relation along that
    chain, each with the bare rules that led to it: one ``(rule, rest)``
    chain per step, which the step's entries share.  A chain that reaches a
    primitive ends in its bare rule.
    """
    for rule in rel.rules:
        for key in _heads(sch, rel.source_type, rule.source):
            rel.by_source_head.setdefault(key, []).append(rule)
    rel.by_source_head = {key: tuple(rules) for key, rules in rel.by_source_head.items()}
    wraps, passed, r = None, set(), rel
    while r.source_type not in passed:  # the chain's relations all view rel.view_type
        passed.add(r.source_type)
        bare = next((rule for rule in r.rules if rule.bare_view), None)
        nxt = bare and bare.variables[0].relation
        for rule in r.rules:
            if not rule.bare_view or rule is bare and nxt is None:
                for key in _heads(sch, r.view_type, rule.view):
                    rel.rebuild.setdefault(key, []).append((rule, wraps))
        if nxt is None:
            rel.miss = ("E-no-rule", f"no view pattern of {r.source_type} <---> {r.view_type} matches here")
            return None
        wraps, r = (bare, wraps), nxt
    rel.miss = ("E-sugar-cycle", "bare-variable rules recurse without consuming the view")
    return r


def reachable_types(sch: Schema, ty: str) -> frozenset:
    """Types reachable from ``ty`` through constructor arguments (proper)."""
    seen: set[str] = set()
    frontier = deque([ty])
    while frontier:
        cur = frontier.popleft()
        for c in sch.types.get(cur, ()):  # a primitive has no constructors
            for a in c.arg_types:
                if a not in seen:
                    seen.add(a)
                    frontier.append(a)
    return frozenset(seen)


def _interchangeable(sch: Schema, pairs: dict[tuple[str, str], Relation]) -> set[tuple[str, str, str]]:
    """Triples (S1, S2, V') of source types that one source may hold side by side.

    S1 and S2 both relate to V', and some relation S <---> V has S1 and S2
    below S and V' below V, so a link may carry an S1 region into an S2 slot.
    """
    by_view: dict[str, list[str]] = {}
    for sty, vty in pairs:
        by_view.setdefault(vty, []).append(sty)
    reach_of = cache(lambda ty: reachable_types(sch, ty))
    out = set()
    for s, v in pairs:
        for vty in reach_of(v) & by_view.keys():
            below = [t for t in by_view[vty] if t in reach_of(s)]
            out.update((s1, s2, vty) for s1 in below for s2 in below if s1 != s2)
    return out


def _synthesize_steps(
    by_pair: dict[tuple[str, str], Relation], frm: str, to: str, view: str
) -> tuple[Rule, ...] | None:
    """Shortest wrapper chain turning a ``frm`` tree into a ``to`` tree at ``view``."""
    if frm == to:
        return ()
    visited = {to}
    queue: deque = deque([(to, [])])
    while queue:
        t, steps = queue.popleft()
        rel = by_pair.get((t, view))
        if rel is None:
            continue
        for rule in rel.rules:
            if not rule.bare_view:  # then its one variable is the view
                continue
            nxt = rule.variables[0].source_type
            chain = steps + [rule]
            if nxt == frm:
                return tuple(reversed(chain))  # innermost wrapper first
            if nxt not in visited:
                visited.add(nxt)
                queue.append((nxt, chain))
    return None


def validate_program(program: Program) -> ValidatedProgram:
    """Run every restriction check; raises ``ValidationError`` on any error."""
    sch = program.schema
    diags: list[Diagnostic] = []
    warnings: list[Diagnostic] = []

    # Constructor names may not repeat across distinct declarations.
    owner: dict[str, str] = {}
    for decl in program.decls:
        if isinstance(decl, DataDecl):
            for cname in (alt.ctor for alt in decl.ctors):
                if cname in owner:
                    diags.append(
                        Diagnostic(
                            decl.line,
                            "E-ctor-reuse",
                            f"constructor {cname} already declared by {owner[cname]}",
                        )
                    )
                else:
                    owner[cname] = decl.name

    # Relations exist before their rules, whose variables refer to them.
    relations: list[Relation] = []
    by_pair: dict[tuple[str, str], Relation] = {}
    for r in program.relations:
        key = (r.source_type, r.view_type)
        if key in by_pair:
            diags.append(
                Diagnostic(r.line, "E-duplicate-relation", f"relation {key[0]} <---> {key[1]} declared twice")
            )
        if key[0] in PRIMITIVES:
            diags.append(
                Diagnostic(
                    r.line,
                    "E-primitive-source",
                    f"relation {key[0]} <---> {key[1]} has a primitive source type; "
                    f"a primitive is related only to itself, by identity",
                )
            )
        relations.append(Relation(*key, r.line))
        by_pair[key] = relations[-1]
    for relation, rel in zip(relations, program.relations):
        compiled = [_compile_rule(sch, rel, raw, i, by_pair, diags) for i, raw in enumerate(rel.rules)]
        relation.rules = tuple(r for r in compiled if r is not None)

    for rel, raw_rel in zip(relations, program.relations):
        # Every variable's type pair needs an identity (primitives) or a relation.
        for rule in rel.rules:
            for x in rule.variables:
                ts, tv = x.source_type, x.view_type
                if x.relation is not None or ts == tv and ts in PRIMITIVES:
                    continue  # a primitive is related by the built-in identity lens
                need = f"variable {x.name} needs a relation {ts} <---> {tv}"
                diags.append(Diagnostic(rule.line, "E-var-relation", need))
        # (i) coverage and (ii) pairwise source disjointness: one matrix walk per side.
        pairs: set[tuple[int, int]] = set()
        gap = _walk_matrix(sch, [(k, (r.source,)) for k, r in enumerate(rel.rules)], (rel.source_type,), pairs)
        for i, j in sorted(pairs):
            a, b = rel.rules[i], rel.rules[j]
            overlap = f"source patterns of rules {a.index + 1} and {b.index + 1} overlap"
            diags.append(Diagnostic(b.line, "E-overlap", overlap))
        if len(rel.rules) == len(raw_rel.rules):
            if gap is not None:
                gap_text = f"source patterns do not cover {rel.source_type}, e.g. {render_pattern(gap[0])}"
                diags.append(Diagnostic(raw_rel.line, "E-source-coverage", gap_text))
            gap = _walk_matrix(sch, [(k, (r.view,)) for k, r in enumerate(rel.rules)], (rel.view_type,), None)
            if gap is not None:
                why = "writing back such views will be rejected"
                gap_text = f"view patterns do not cover {rel.view_type}; {why}, e.g. {render_pattern(gap[0])}"
                warnings.append(Diagnostic(raw_rel.line, "W-view-coverage", gap_text))

    inj_table: dict[tuple[str, str, str], tuple[Rule, ...]] = {}
    for s1, s2, vty in sorted(_interchangeable(sch, by_pair)):
        steps = _synthesize_steps(by_pair, s1, s2, vty)
        if steps is not None:
            inj_table[(s1, s2, vty)] = steps
        elif vty not in PRIMITIVES:
            # Primitive-view pairs are exempt: their links are rejected at
            # run time instead (the check procedure demands a conversion).
            rel = by_pair.get((s2, vty))
            diags.append(
                Diagnostic(
                    rel.line if rel else 1,
                    "E-no-conversion",
                    f"interchangeable types {s1} and {s2} at view {vty} "
                    f"need a conversion from {s1} to {s2}",
                )
            )

    if diags:
        raise ValidationError(diags, program.source_name)

    for rel in relations:
        again = _index_rules(sch, rel)
        if again is not None:  # a cycle: is some view matched by no rule on the way?
            rows = [(k, (r.view,)) for k, (r, _) in enumerate(e for es in rel.rebuild.values() for e in es)]
            gap = _walk_matrix(sch, rows, (rel.view_type,), None)
            if gap is not None:
                gap_text = (
                    f"bare-variable rules of {rel.source_type} <---> {rel.view_type} cycle back to "
                    f"{again.source_type} <---> {again.view_type}; writing back views that no rule "
                    f"on the way matches will be rejected, e.g. {render_pattern(gap[0])}"
                )
                warnings.append(Diagnostic(rel.line, "W-sugar-cycle", gap_text))
    generators: dict[tuple[str, Pattern], list[tuple[Relation, Rule]]] = {}
    for rel in relations:
        for rule in rel.rules:
            generators.setdefault((rel.view_type, rule.view_erased), []).append((rel, rule))
    return ValidatedProgram(
        schema=sch,
        relations=tuple(relations),
        by_pair=by_pair,
        generators={k: tuple(v) for k, v in generators.items()},
        inj_table=inj_table,
        warnings=warnings,
        source_name=program.source_name,
    )


def load_program(text: str, source_name: str = "<program>") -> ValidatedProgram:
    """Parse and validate in one step."""
    return validate_program(parse_program(text, source_name))
