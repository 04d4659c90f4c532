"""DSL frontend: parse ``.lens`` programs, validate them, synthesize conversions.

A program is a list of type declarations followed by one or more consistency
relations, each a ``S <---> V`` header over inductive rules ``spat ~ vpat``.
Parsing monomorphizes generic declarations (``data List a = ...``) at every
ground application mentioned by the program, resolves ``type`` synonyms, and
keeps the surface spelling of every type expression so programs print back
byte-for-byte.

Validation enforces, per relation: pattern coverage on both sides (view-side
failures are warnings; see ``W-view-coverage``), pairwise source-pattern
disjointness, no bare-variable source patterns, no view-side wildcards, equal
and linear variable sets, a declared relation (or primitive identity) for
every variable's type pair, and conversion chains between interchangeable
source types.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .schema import (
    Constructor,
    IllTyped,
    NoFiniteDefault,
    PRIMITIVES,
    Schema,
    check_tree_type,
    fill_wildcards_default,
)
from .text import LensSyntaxError, Token, TokenCursor, parse_term, render_pattern, tokenize
from .trees import (
    Node,
    Path,
    Pattern,
    Var,
    Wildcard,
    WILDCARD,
    erase_vars,
    var_path,
    vars_of,
)

_INSTANTIATION_DEPTH_LIMIT = 64


@dataclass(frozen=True)
class TypeExpr:
    """A possibly-applied type name as written in the program."""

    name: str
    args: tuple["TypeExpr", ...] = ()


def render_type_expr(e: TypeExpr, parenthesize: bool = False) -> str:
    if not e.args:
        return e.name
    body = e.name + " " + " ".join(render_type_expr(a, True) for a in e.args)
    return f"({body})" if parenthesize else body


@dataclass
class SynDecl:
    name: str
    target: TypeExpr
    line: int


@dataclass
class DataDecl:
    name: str
    params: tuple[str, ...]
    ctors: list[tuple[str, tuple[TypeExpr, ...]]]
    line: int


@dataclass
class RawRule:
    source: Pattern
    view: Pattern
    line: int


@dataclass
class RawRelation:
    source_expr: TypeExpr
    view_expr: TypeExpr
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
    line: int
    col: int
    code: str
    message: str

    def format(self, filename: str) -> str:
        return f"{filename}:{self.line}:{self.col}: {self.code}: {self.message}"


class ValidationError(Exception):
    """One or more validation diagnostics; formatted one per line."""

    def __init__(self, diagnostics: list[Diagnostic], source_name: str = "<program>"):
        self.diagnostics = diagnostics
        self.source_name = source_name
        super().__init__("\n".join(d.format(source_name) for d in diagnostics))


# ---------------------------------------------------------------------------
# Parsing


def _parse_type_atom(cur: TokenCursor, allow_params: bool) -> TypeExpr:
    tok = cur.peek()
    if tok is None:
        raise LensSyntaxError("expected a type", cur.line, 0)
    if tok.kind == "UIDENT":
        cur.next()
        return TypeExpr(tok.text)
    if tok.kind == "LIDENT" and allow_params:
        cur.next()
        return TypeExpr(tok.text)
    if tok.kind == "LPAR":
        cur.next()
        inner = _parse_type_app(cur, allow_params)
        cur.expect("RPAR")
        return inner
    raise LensSyntaxError(f"expected a type, found {tok.text!r}", tok.line, tok.col)


def _parse_type_app(cur: TokenCursor, allow_params: bool) -> TypeExpr:
    head = cur.peek()
    if head is not None and head.kind == "UIDENT":
        cur.next()
        args: list[TypeExpr] = []
        while (nxt := cur.peek()) is not None and nxt.kind in ("UIDENT", "LIDENT", "LPAR"):
            if nxt.kind == "LIDENT" and not allow_params:
                break
            args.append(_parse_type_atom(cur, allow_params))
        return TypeExpr(head.text, tuple(args))
    return _parse_type_atom(cur, allow_params)


class _SchemaBuilder:
    """Monomorphizes declarations into a ground ``Schema``."""

    def __init__(self) -> None:
        self.datas: dict[str, DataDecl] = {}
        self.syns: dict[str, TypeExpr] = {}
        self.schema = Schema()

    def declare(self, decl: SynDecl | DataDecl) -> None:
        if decl.name in self.datas or decl.name in self.syns or decl.name in PRIMITIVES:
            raise LensSyntaxError(f"type {decl.name} declared twice", decl.line, 1)
        if isinstance(decl, DataDecl):
            self.datas[decl.name] = decl
        else:
            self.syns[decl.name] = decl.target

    def canonical(self, e: TypeExpr, env: dict[str, TypeExpr], line: int, depth: int = 0) -> TypeExpr:
        if depth > _INSTANTIATION_DEPTH_LIMIT:
            raise LensSyntaxError("type instantiation does not terminate", line, 1)
        if e.name in env:
            if e.args:
                raise LensSyntaxError(f"type variable {e.name} cannot take arguments", line, 1)
            return env[e.name]
        if e.name in self.syns:
            if e.args:
                raise LensSyntaxError(f"synonym {e.name} cannot take arguments", line, 1)
            return self.canonical(self.syns[e.name], {}, line, depth + 1)
        if e.name in PRIMITIVES:
            if e.args:
                raise LensSyntaxError(f"{e.name} takes no arguments", line, 1)
            return e
        if e.name.islower() or e.name[0].islower():
            raise LensSyntaxError(f"unbound type variable {e.name}", line, 1)
        decl = self.datas.get(e.name)
        if decl is None:
            raise LensSyntaxError(f"unknown type {e.name}", line, 1)
        if len(decl.params) != len(e.args):
            raise LensSyntaxError(
                f"type {e.name} expects {len(decl.params)} argument(s), got {len(e.args)}",
                line,
                1,
            )
        cargs = tuple(self.canonical(a, env, line, depth + 1) for a in e.args)
        ce = TypeExpr(e.name, cargs)
        self._instantiate(ce, decl, line, depth)
        return ce

    def _instantiate(self, ce: TypeExpr, decl: DataDecl, line: int, depth: int) -> None:
        name = render_type_expr(ce)
        if name in self.schema.types:
            return
        self.schema.types[name] = ()  # placeholder breaks instantiation cycles
        env = dict(zip(decl.params, ce.args))
        ctors = tuple(
            Constructor(
                cname,
                tuple(
                    render_type_expr(self.canonical(a, env, line, depth + 1))
                    for a in argtypes
                ),
            )
            for cname, argtypes in decl.ctors
        )
        self.schema.types[name] = ctors

    def finish(self, decls: list[SynDecl | DataDecl]) -> None:
        # Ground declarations become instances up front; synonyms resolve fully.
        for decl in decls:
            if isinstance(decl, DataDecl) and not decl.params:
                self.canonical(TypeExpr(decl.name), {}, decl.line)
        for decl in decls:
            if isinstance(decl, SynDecl):
                target = self.canonical(decl.target, {}, decl.line)
                self.schema.synonyms[decl.name] = render_type_expr(target)


def _logical_lines(text: str) -> list[tuple[int, list[Token]]]:
    lines: list[tuple[int, list[Token]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize(raw, lineno)
        if not tokens:
            continue
        if tokens[0].kind == "PIPE" and lines:
            lines[-1][1].extend(tokens)
        else:
            lines.append((lineno, tokens))
    return lines


def _parse_data_decl(cur: TokenCursor, line: int) -> DataDecl:
    name = cur.expect("UIDENT").text
    params: list[str] = []
    while (tok := cur.peek()) is not None and tok.kind == "LIDENT":
        params.append(cur.next().text)
    cur.expect("EQ")
    ctors: list[tuple[str, tuple[TypeExpr, ...]]] = []
    while True:
        cname = cur.expect("UIDENT").text
        args: list[TypeExpr] = []
        while (tok := cur.peek()) is not None and tok.kind in ("UIDENT", "LIDENT", "LPAR"):
            args.append(_parse_type_atom(cur, allow_params=True))
        ctors.append((cname, tuple(args)))
        if (tok := cur.peek()) is not None and tok.kind == "PIPE":
            cur.next()
            continue
        break
    cur.require_end()
    return DataDecl(name, tuple(params), ctors, line)


def parse_program(text: str, source_name: str = "<program>") -> Program:
    """Parse the concrete syntax into a ``Program``; raises ``LensSyntaxError``."""
    builder = _SchemaBuilder()
    decls: list[SynDecl | DataDecl] = []
    relations: list[RawRelation] = []
    headers: list[tuple[int, TokenCursor]] = []
    pending_rules: list[list[RawRule]] = []

    for lineno, tokens in _logical_lines(text):
        cur = TokenCursor(tokens, lineno)
        first = tokens[0]
        if first.kind == "LIDENT" and first.text in ("data", "type"):
            if relations or headers:
                raise LensSyntaxError(
                    "type declarations must precede relation definitions", lineno, first.col
                )
            cur.next()
            if first.text == "data":
                decl: SynDecl | DataDecl = _parse_data_decl(cur, lineno)
            else:
                name = cur.expect("UIDENT").text
                cur.expect("EQ")
                target = _parse_type_app(cur, allow_params=False)
                cur.require_end()
                decl = SynDecl(name, target, lineno)
            decls.append(decl)
            builder.declare(decl)
            continue
        if any(t.kind == "REL" for t in tokens):
            headers.append((lineno, cur))
            pending_rules.append([])
            continue
        if any(t.kind == "TILDE" for t in tokens):
            if not headers:
                raise LensSyntaxError("rule before any relation header", lineno, first.col)
            spat = parse_term(cur, allow_vars=True)
            cur.expect("TILDE")
            vpat = parse_term(cur, allow_vars=True)
            cur.require_end()
            pending_rules[-1].append(RawRule(spat, vpat, lineno))
            continue
        raise LensSyntaxError(f"cannot parse line: {first.text!r}...", lineno, first.col)

    builder.finish(decls)

    for (lineno, cur), rules in zip(headers, pending_rules):
        source_expr = _parse_type_app(cur, allow_params=False)
        cur.expect("REL")
        view_expr = _parse_type_app(cur, allow_params=False)
        cur.require_end()
        if not rules:
            raise LensSyntaxError("a relation needs at least one rule", lineno, 1)
        sce = builder.canonical(source_expr, {}, lineno)
        vce = builder.canonical(view_expr, {}, lineno)
        relations.append(
            RawRelation(
                source_expr,
                view_expr,
                render_type_expr(sce),
                render_type_expr(vce),
                rules,
                lineno,
            )
        )
    if not relations:
        raise LensSyntaxError("a program needs at least one relation", 1, 1)
    return Program(builder.schema, relations, decls, source_name)


def render_program(p: Program) -> str:
    """Canonical program text; ``parse_program`` of the result is the identity."""
    out: list[str] = []
    for decl in p.decls:
        if isinstance(decl, SynDecl):
            out.append(f"type {decl.name} = {render_type_expr(decl.target)}")
        else:
            head = decl.name if not decl.params else decl.name + " " + " ".join(decl.params)
            ctors = " | ".join(
                cname if not args else cname + " " + " ".join(render_type_expr(a, True) for a in args)
                for cname, args in decl.ctors
            )
            out.append(f"data {head} = {ctors}")
    for rel in p.relations:
        out.append("")
        out.append(f"{render_type_expr(rel.source_expr)} <---> {render_type_expr(rel.view_expr)}")
        for rule in rel.rules:
            out.append(f"  {render_pattern(rule.source)} ~ {render_pattern(rule.view)}")
    return "\n".join(out) + "\n"


def normalize_type_name(program: Program | "ValidatedProgram", text: str) -> str:
    """Resolve a user-written type expression to its canonical ground name."""
    cur = TokenCursor(tokenize(text), 1)
    expr = _parse_type_app(cur, allow_params=False)
    cur.require_end()
    schema = program.schema

    def walk(e: TypeExpr) -> str:
        if not e.args:
            return schema.resolve(e.name)
        inner = e.name + " " + " ".join(_paren(walk(a)) for a in e.args)
        return inner

    return walk(expr)


def _paren(name: str) -> str:
    return f"({name})" if " " in name else name


# ---------------------------------------------------------------------------
# Validation


@dataclass
class Rule:
    """A type-checked inductive rule with the lookup tables the engine uses."""

    source: Pattern
    view: Pattern
    line: int
    index: int
    variables: tuple[str, ...]
    var_src_type: dict[str, str]
    var_view_type: dict[str, str]
    var_src_path: dict[str, Path]
    var_view_path: dict[str, Path]
    source_defaulted: Pattern
    view_erased: Pattern
    bare_view_var: str | None


@dataclass
class Relation:
    source_type: str
    view_type: str
    rules: tuple[Rule, ...]
    source_expr: TypeExpr
    view_expr: TypeExpr
    line: int


@dataclass(frozen=True)
class InjStep:
    """One wrapper application: substitute the variable in a defaulted pattern."""

    pattern: Pattern
    var: str


@dataclass
class ValidatedProgram:
    schema: Schema
    relations: tuple[Relation, ...]
    by_pair: dict[tuple[str, str], Relation]
    by_view: dict[str, tuple[Relation, ...]]
    inj_table: dict[tuple[str, str, str], tuple[InjStep, ...]]
    warnings: list[Diagnostic]
    source_name: str = "<program>"

    @property
    def bare_chain_bound(self) -> int:
        # One round per relation definition, plus one.
        return len(self.relations) + 1

    def relation(self, sty: str, vty: str) -> Relation | None:
        return self.by_pair.get((sty, vty))

    def relations_with_view(self, vty: str) -> tuple[Relation, ...]:
        return self.by_view.get(vty, ())


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
    if sch.is_primitive(t0):
        # Literals never exhaust a primitive; only wild rows survive.
        sub = [row[1:] for row in rows if _wildish(row[0])]
        return _covers(sch, sub, tys[1:])
    for c in sch.constructors(t0):
        arity = len(c.arg_types)
        sub = []
        for row in rows:
            h = row[0]
            if isinstance(h, Node) and h.ctor == c.name and len(h.children) == arity:
                sub.append(h.children + row[1:])
            elif _wildish(h):
                sub.append((WILDCARD,) * arity + row[1:])
        subtys = tuple(sch.resolve(a) for a in c.arg_types) + tys[1:]
        if not _covers(sch, sub, subtys):
            return False
    return True


def covers_type(sch: Schema, ty: str, patterns: list[Pattern]) -> bool:
    return _covers(sch, [(p,) for p in patterns], (sch.resolve(ty),))


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


def _linear(p: Pattern) -> list[str]:
    """Names that occur more than once."""
    names = list(vars_of(p))
    return sorted({n for n in names if names.count(n) > 1})


def _compile_rule(
    sch: Schema,
    rel: RawRelation,
    raw: RawRule,
    index: int,
    diags: list[Diagnostic],
) -> Rule | None:
    src_holes: dict[Path, str] = {}
    view_holes: dict[Path, str] = {}
    try:
        check_tree_type(sch, rel.source_type, raw.source, src_holes)
        check_tree_type(sch, rel.view_type, raw.view, view_holes)
    except IllTyped as e:
        diags.append(Diagnostic(raw.line, 1, "E-ill-typed", str(e)))
        return None

    ok = True
    for side, pat in (("source", raw.source), ("view", raw.view)):
        dup = _linear(pat)
        if dup:
            diags.append(
                Diagnostic(raw.line, 1, "E-nonlinear", f"{side} pattern repeats {', '.join(dup)}")
            )
            ok = False
    if isinstance(raw.source, Var):
        diags.append(
            Diagnostic(raw.line, 1, "E-bare-source", "a bare variable is not allowed on the source side")
        )
        ok = False

    def has_wildcard(p: Pattern) -> bool:
        if isinstance(p, Wildcard):
            return True
        if isinstance(p, Node):
            return any(has_wildcard(a) for a in p.children)
        return False

    if has_wildcard(raw.view):
        diags.append(
            Diagnostic(raw.line, 1, "E-view-wildcard", "wildcards are not allowed on the view side")
        )
        ok = False
    svars, vvars = set(vars_of(raw.source)), set(vars_of(raw.view))
    if svars != vvars:
        diags.append(
            Diagnostic(
                raw.line,
                1,
                "E-var-mismatch",
                f"source and view sides must use the same variables "
                f"(source {sorted(svars)}, view {sorted(vvars)})",
            )
        )
        ok = False
    if not ok:
        return None

    variables = vars_of(raw.source)
    var_src_path = {x: var_path(raw.source, x) for x in variables}
    var_view_path = {x: var_path(raw.view, x) for x in variables}
    var_src_type = {x: src_holes[var_src_path[x]] for x in variables}
    var_view_type = {x: view_holes[var_view_path[x]] for x in variables}
    try:
        source_defaulted = fill_wildcards_default(sch, raw.source, src_holes)
    except NoFiniteDefault as e:
        diags.append(
            Diagnostic(raw.line, 1, "E-no-default", f"no finite default value for type {e}")
        )
        return None
    return Rule(
        source=raw.source,
        view=raw.view,
        line=raw.line,
        index=index,
        variables=variables,
        var_src_type=var_src_type,
        var_view_type=var_view_type,
        var_src_path=var_src_path,
        var_view_path=var_view_path,
        source_defaulted=source_defaulted,
        view_erased=erase_vars(raw.view),
        bare_view_var=raw.view.name if isinstance(raw.view, Var) else None,
    )


def reachable_types(sch: Schema, ty: str) -> frozenset:
    """Types reachable from ``ty`` through constructor arguments (proper)."""
    seen: set[str] = set()
    frontier = deque([sch.resolve(ty)])
    while frontier:
        cur = frontier.popleft()
        if cur in PRIMITIVES:
            continue
        for c in sch.types.get(cur, ()):
            for a in c.arg_types:
                a = sch.resolve(a)
                if a not in seen:
                    seen.add(a)
                    frontier.append(a)
    return frozenset(seen)


def _interchangeable(sch: Schema, pairs: list[tuple[str, str]]) -> set[tuple[str, str, str]]:
    """Triples (S1, S2, V') of source types that one source may hold side by side.

    S1 and S2 both relate to V', and some relation S <---> V has S1 and S2
    below S and V' below V, so a link may carry an S1 region into an S2 slot.
    """
    by_view: dict[str, list[str]] = {}
    for sty, vty in pairs:
        by_view.setdefault(vty, []).append(sty)
    reach: dict[str, frozenset] = {}

    def reach_of(ty: str) -> frozenset:
        if ty not in reach:
            reach[ty] = reachable_types(sch, ty)
        return reach[ty]

    out = set()
    for vty, stys in by_view.items():
        for s1 in stys:
            for s2 in stys:
                if s1 != s2 and any(
                    s1 in reach_of(s) and s2 in reach_of(s) and vty in reach_of(v)
                    for s, v in pairs
                ):
                    out.add((s1, s2, vty))
    return out


def _synthesize_steps(
    by_pair: dict[tuple[str, str], Relation], frm: str, to: str, view: str
) -> tuple[InjStep, ...] | None:
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
            if rule.bare_view_var is None or len(rule.variables) != 1:
                continue
            x = rule.variables[0]
            nxt = rule.var_src_type[x]
            chain = steps + [InjStep(rule.source_defaulted, x)]
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
            for cname, _ in decl.ctors:
                if cname in owner:
                    diags.append(
                        Diagnostic(
                            decl.line,
                            1,
                            "E-ctor-reuse",
                            f"constructor {cname} already declared by {owner[cname]}",
                        )
                    )
                else:
                    owner[cname] = decl.name

    pair_list = [(r.source_type, r.view_type) for r in program.relations]
    pair_set = set()
    for r in program.relations:
        key = (r.source_type, r.view_type)
        if key in pair_set:
            diags.append(
                Diagnostic(r.line, 1, "E-duplicate-relation", f"relation {key[0]} <---> {key[1]} declared twice")
            )
        pair_set.add(key)

    relations: list[Relation] = []
    for rel in program.relations:
        rules: list[Rule] = []
        for i, raw in enumerate(rel.rules):
            compiled = _compile_rule(sch, rel, raw, i, diags)
            if compiled is not None:
                rules.append(compiled)
        relations.append(
            Relation(rel.source_type, rel.view_type, tuple(rules), rel.source_expr, rel.view_expr, rel.line)
        )

    for rel, raw_rel in zip(relations, program.relations):
        # Every variable's type pair needs an identity (primitives) or a relation.
        for rule in rel.rules:
            for x in rule.variables:
                ts, tv = rule.var_src_type[x], rule.var_view_type[x]
                if (ts, tv) in pair_set:
                    continue
                if ts == tv and ts in PRIMITIVES:
                    continue  # built-in identity lens
                diags.append(
                    Diagnostic(
                        rule.line,
                        1,
                        "E-var-relation",
                        f"variable {x} needs a relation {ts} <---> {tv}",
                    )
                )
        # (ii) pairwise source disjointness.
        for i, a in enumerate(rel.rules):
            for b in rel.rules[i + 1 :]:
                if patterns_overlap(a.source, b.source):
                    diags.append(
                        Diagnostic(
                            b.line,
                            1,
                            "E-overlap",
                            f"source patterns of rules {a.index + 1} and {b.index + 1} overlap",
                        )
                    )
        # (i) coverage, both sides.
        if len(rel.rules) == len(raw_rel.rules):
            if not covers_type(sch, rel.source_type, [r.source for r in rel.rules]):
                diags.append(
                    Diagnostic(
                        raw_rel.line,
                        1,
                        "E-source-coverage",
                        f"source patterns do not cover {rel.source_type}",
                    )
                )
            if not covers_type(sch, rel.view_type, [r.view for r in rel.rules]):
                warnings.append(
                    Diagnostic(
                        raw_rel.line,
                        1,
                        "W-view-coverage",
                        f"view patterns do not cover {rel.view_type}; "
                        f"writing back such views will be rejected",
                    )
                )

    by_pair = {(r.source_type, r.view_type): r for r in relations}
    by_view: dict[str, list[Relation]] = {}
    for r in relations:
        by_view.setdefault(r.view_type, []).append(r)

    inj_table: dict[tuple[str, str, str], tuple[InjStep, ...]] = {}
    for s1, s2, vty in sorted(_interchangeable(sch, pair_list)):
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
                    1,
                    "E-no-conversion",
                    f"interchangeable types {s1} and {s2} at view {vty} "
                    f"need a conversion from {s1} to {s2}",
                )
            )

    if diags:
        raise ValidationError(diags, program.source_name)
    return ValidatedProgram(
        schema=sch,
        relations=tuple(relations),
        by_pair=by_pair,
        by_view={k: tuple(v) for k, v in by_view.items()},
        inj_table=inj_table,
        warnings=warnings,
        source_name=program.source_name,
    )


def load_program(text: str, source_name: str = "<program>") -> ValidatedProgram:
    """Parse and validate in one step."""
    return validate_program(parse_program(text, source_name))
