import re
from collections import Counter

import pytest

from conftest import EXAMPLES, example_text
from oracles import covers_type, patterns_overlap
from treelens import (
    check_tree_type,
    lens,
    load_program,
    parse_program,
    parse_tree,
    render_program,
    validate_program,
)
from treelens import frontend
from treelens.frontend import ValidationError, _compile_rule, normalize_type_name
from treelens.text import LensSyntaxError, render_pattern
from treelens.trees import StrLeaf

ARITH = example_text("arith.lens")


def test_parse_arith_shape():
    p = parse_program(ARITH)
    assert len(p.relations) == 2
    assert [len(r.rules) for r in p.relations] == [3, 3]
    assert p.relations[0].source_type == "Expr"
    assert p.relations[0].view_type == "Arith"


def test_zero_rule_relation_is_syntax_error():
    with pytest.raises(LensSyntaxError):
        parse_program("data T = C\ndata A = D\n\nT <---> A\n")


def test_program_needs_a_relation():
    with pytest.raises(LensSyntaxError):
        parse_program("data T = C\n")


def test_syntax_error_carries_position():
    with pytest.raises(LensSyntaxError) as e:
        parse_program("data T = C\ndata A = D\n\nT <---> A\n  C ~ ,\n")
    assert e.value.line == 5
    assert e.value.col > 0


_TYPES_PROGRAM = "data V = V0\n{}\ndata T = T0\n\n{}\n  T0 ~ V0\n"


@pytest.mark.parametrize(
    "decl,header,line",
    [
        ("data L (a) = C", "T <---> V", 2),
        ("data (L a) = C", "T <---> V", 2),
        ("data L A = C", "T <---> V", 2),
        ("data W = (C D)", "T <---> V", 2),
        ("data W = a", "T <---> V", 2),
        ("data W = C _", "T <---> V", 2),
        ("data W = C 3", "T <---> V", 2),
        ("data W = C | | D", "T <---> V", 2),
        ("type N a = String", "T <---> V", 2),
        ("data W = W0", "T a <---> V", 5),
        ("type A = String\n| type B = String", "T <---> V", 3),
        ("data W = C (List\n  | D", "T <---> V", 3),
    ],
)
def test_type_expressions_keep_their_grammar(decl, header, line):
    # A type is read as a term of constructors and parentheses, with
    # parameters only in a data alternative; an error names its token's line.
    with pytest.raises(LensSyntaxError) as e:
        parse_program(_TYPES_PROGRAM.format(decl, header))
    assert e.value.line == line


@pytest.mark.parametrize(
    "program,message",
    [
        (_TYPES_PROGRAM.format("type A = (List 3", "T <---> V"), "2:16: expected RPAR, found '3'"),
        ("data Person = P\n(erson <---> Person\n  P ~ P\n", "2:2: unexpected token 'erson'"),
        (_TYPES_PROGRAM.format("data W = C (List\n  | D", "T <---> V"), "3:3: expected RPAR, found '|'"),
        (_TYPES_PROGRAM.format("type A = (List", "T <---> V"), "2:0: expected RPAR, found ''"),
        (_TYPES_PROGRAM.format("type A = (", "T <---> V"), "2:0: expected a term"),
    ],
    ids=["int-in-parens", "header-parameter", "pipe-in-parens", "end-of-line", "empty-parens"],
)
def test_type_errors_name_the_token_that_ended_the_type(program, message):
    with pytest.raises(LensSyntaxError) as e:
        parse_program(program)
    assert str(e.value) == message


def test_parse_mirror():
    p = parse_program(example_text("mirror.lens"))
    assert len(p.relations) == 1
    rules = p.relations[0].rules
    assert len(rules) == 2
    assert render_pattern(rules[1].source) == "Node i x y"
    assert render_pattern(rules[1].view) == "Node i y x"


def test_multiline_data_declaration():
    text = """data Expr = Plus Expr Expr
  | Lit Int
data V = MkV Int

Expr <---> V
  Plus x _ ~ x
  Lit i ~ MkV i
"""
    p = parse_program(text)
    assert [c.ctor for c in p.decls[0].ctors] == ["Plus", "Lit"]


def test_comments_and_blank_lines():
    text = "-- header comment\ndata T = C -- trailing\ndata A = D\n\nT <---> A\n  C ~ D\n"
    assert len(parse_program(text).relations) == 1


def test_validate_arith(arith):
    assert [r.source_type for r in arith.relations] == ["Expr", "Term"]
    assert arith.warnings == []


def test_coverage_failure_when_fromt_deleted():
    text = ARITH.replace("  FromT _ t ~ t\n", "")
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    codes = {d.code for d in e.value.diagnostics}
    assert "E-source-coverage" in codes


@pytest.mark.parametrize(
    "mutant,code",
    [
        # (iii) bare variable on the source side
        ("  x ~ Sub (Num 0) x\n", "E-bare-source"),
        # (iv) wildcard on the view side
        ("  Neg _ r ~ Sub _ r\n", "E-view-wildcard"),
        # (v) different variable sets on the two sides
        ("  Neg _ r ~ Sub (Num 0) q\n", "E-var-mismatch"),
    ],
)
def test_single_restriction_mutants(mutant, code):
    text = ARITH.replace("  Neg _ r ~ Sub (Num 0) r\n", mutant)
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    assert code in {d.code for d in e.value.diagnostics}


def test_source_disjointness_mutant():
    text = ARITH.replace("  Paren _ e ~ e\n", "  Paren _ e ~ e\n  Neg _ q ~ q\n")
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    assert "E-overlap" in {d.code for d in e.value.diagnostics}


def test_nonlinear_variable_rejected():
    text = """data S = MkS Int Int
data V = MkV Int Int

S <---> V
  MkS i i ~ MkV i i
"""
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    assert "E-nonlinear" in {d.code for d in e.value.diagnostics}


def test_missing_variable_relation_rejected():
    text = """data S = MkS T
data T = MkT
data V = MkV W
data W = MkW

S <---> V
  MkS t ~ MkV t
"""
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    assert "E-var-relation" in {d.code for d in e.value.diagnostics}


@pytest.mark.parametrize("source", ["Int", "String"])
def test_primitive_source_relation_rejected(source, arith):
    # A primitive source is read by identity, so rules from it would never run.
    text = f"data Foo = F | G\n\n{source} <---> Foo\n  _ ~ F\n"
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    assert [(d.line, d.code) for d in e.value.diagnostics] == [(3, "E-primitive-source")]
    assert f"relation {source} <---> Foo has a primitive source type" in str(e.value)
    h = lens(arith, "Int", "Int")  # the built-in identity stays
    assert h.get(parse_tree("5")) == (parse_tree("5"), frozenset())


def test_view_coverage_is_warning(arith):
    vp = load_program(example_text("rosetree.lens"), "r.lens")
    assert [w.format("r.lens") for w in vp.warnings] == [
        "r.lens:4:1: W-view-coverage: view patterns do not cover List Int; "
        "writing back such views will be rejected, e.g. Nil"  # a view no rule builds
    ]


def test_sugar_cycle_is_warned_where_a_view_is_left_uncovered():
    # sugar_chain's P and Q lead to each other through bare rules, and no rule
    # on the way matches VB.  arith's Expr and Term cycle too, but the rules
    # on their way cover every Arith, and so do those of its variants.
    vp = load_program(example_text("sugar_chain.lens"), "s.lens")
    why = "writing back views that no rule on the way matches will be rejected, e.g. VB"
    assert [w.format("s.lens") for w in vp.warnings] == [
        f"s.lens:5:1: W-sugar-cycle: bare-variable rules of P <---> V cycle back to P <---> V; {why}",
        f"s.lens:9:1: W-sugar-cycle: bare-variable rules of Q <---> V cycle back to Q <---> V; {why}",
    ]
    for name in ("arith.lens", "brac_paren.lens", "compose_chain.lens"):
        assert load_program(example_text(name)).warnings == []


def _entries(rel, key):
    """``rel``'s rebuild entries for a view head, as (rule line, wrapping rule lines, innermost first)."""
    out = []
    for rule, wraps in rel.rebuild.get(key, ()):
        lines = []
        while wraps is not None:
            wrap, wraps = wraps
            lines.append(wrap.line)
        out.append((rule.line, lines))
    return out


def test_rebuild_tables_follow_the_first_bare_rules(arith, addrbook):
    # Expr's own Sub rule comes first, then Term's, through FromT (line 9).
    # The chain returns to Expr through Paren, so a scan that matches nothing
    # is a sugar cycle.  Person reaches the primitive Name through Triple, so
    # its one entry is Triple's bare rule, wrapped by Person's.
    expr, term = arith.relation("Expr", "Arith"), arith.relation("Term", "Arith")
    assert _entries(expr, ("Sub", 2)) == [(8, []), (13, [9])]
    assert _entries(expr, ("Num", 1)) == [(12, [9])]
    assert _entries(term, ("Add", 2)) == [(7, [14])]
    assert expr.miss[0] == term.miss[0] == "E-sugar-cycle"
    person = addrbook.relation("Person", "String")
    assert list(person.rebuild) == [StrLeaf] and _entries(person, StrLeaf) == [(31, [28])]


def test_duplicate_relation_rejected():
    text = ARITH + "\nTerm <---> Arith\n  Lit _ i ~ Num i\n"
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    assert "E-duplicate-relation" in {d.code for d in e.value.diagnostics}


def test_constructor_reuse_rejected():
    text = "data A = C Int\ndata B = C Int\ndata V = MkV\n\nA <---> V\n  C _ ~ MkV\n"
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    assert "E-ctor-reuse" in {d.code for d in e.value.diagnostics}


def test_inj_table_arith(arith):
    # Expr and Term sit side by side under Plus, both related to Arith.
    assert set(arith.inj_table) == {("Expr", "Term", "Arith"), ("Term", "Expr", "Arith")}


def test_inj_table_empty_for_single_relation(mirror):
    assert mirror.inj_table == {}


def test_inj_table_rosetree():
    vp = load_program(example_text("rosetree.lens"))
    assert vp.inj_table == {}


def _convert(chain, t):
    """``t`` wrapped by each rule of a conversion chain, innermost first."""
    for r in chain:
        t = r.build_source([*r.defaults, t])
    return t


def test_inj_table_fromt(arith):
    out = _convert(arith.inj_table[("Term", "Expr", "Arith")], parse_tree('Neg "a neg" (Lit "" 1)'))
    assert out == parse_tree('FromT "" (Neg "a neg" (Lit "" 1))')


def test_inj_table_paren(arith):
    out = _convert(arith.inj_table[("Expr", "Term", "Arith")], parse_tree('FromT "" (Lit "" 1)'))
    assert out == parse_tree('Paren "" (FromT "" (Lit "" 1))')


def test_inj_preserves_get(arith, arith_expr, arith_term):
    from treelens.harness import gen_tree

    chain = arith.inj_table[("Term", "Expr", "Arith")]
    for seed in range(40):
        t = gen_tree(arith.schema, "Term", 25, seed)
        assert arith_expr.get(_convert(chain, t))[0] == arith_term.get(t)[0]


def test_missing_conversion_rejected():
    # Two source types share a non-primitive view type and sit side by side
    # in a larger source, but no single-variable rule links them.
    text = """data Pair = MkPair A B
data A = MkA Int
data B = MkB Int
data V = MkV Int
data PV = MkPV V V

Pair <---> PV
  MkPair a b ~ MkPV a b

A <---> V
  MkA i ~ MkV i

B <---> V
  MkB i ~ MkV i
"""
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(text))
    assert "E-no-conversion" in {d.code for d in e.value.diagnostics}


def test_primitive_view_pairs_are_exempt(addrbook):
    # The address book declares Person and Triple against the same primitive
    # view type with only one conversion direction available, and validates.
    assert ("Triple String String String", "Person", "String") in addrbook.inj_table
    assert ("Person", "Triple String String String", "String") not in addrbook.inj_table


def test_normalize_type_name(addrbook):
    assert normalize_type_name(addrbook, "List Name") == "List String"
    assert normalize_type_name(addrbook, "Triple Name Email Tel") == "Triple String String String"
    assert normalize_type_name(addrbook, "AddrBook") == "AddrBook"


@pytest.mark.parametrize("name", sorted(p.name for p in EXAMPLES.glob("*.lens")))
def test_shipped_programs_validate_and_roundtrip(name):
    text = example_text(name)
    program = parse_program(text, name)
    validate_program(program)
    assert render_program(program) == text  # byte-exact


@pytest.mark.parametrize(
    "program,message",
    [
        ("data A = A B\ndata B = B X\ndata V = V0\n\nA <---> V\n  A _ ~ V0\n", "2:1: unknown type X"),
        ("data L a = N | C a (L a) | Bad a Q\ndata V = V0\n\nL Int <---> V\n  N ~ V0\n", "1:1: unknown type Q"),
        (
            "data P a = P a\ndata N a = Z a | S (N (P a))\ndata V = V0\nN Int <---> V\n  Z _ ~ V0\n",
            "2:1: type instantiation does not terminate",
        ),
    ],
    ids=["unknown-in-a-used-declaration", "unknown-in-a-header-type", "nested-datatype"],
)
def test_schema_errors_name_the_declaration_that_holds_them(program, message):
    # Not the line that first used the declaration.
    with pytest.raises(LensSyntaxError) as e:
        parse_program(program)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "alternative,message",
    [
        ("Bad Q", "unknown type Q"),
        ("Bad b", "unbound type variable b"),
        ("Bad (L a a)", "type L expects 1 argument(s), got 2"),
        ("Bad (Int a)", "Int takes no arguments"),
        ("Bad (S a)", "synonym S cannot take arguments"),
    ],
)
def test_a_generic_declaration_nothing_applies_is_checked(alternative, message):
    # No type expression names ``L``, so it is never instantiated; its
    # alternatives are checked as they stand, at the declaration's line.
    program = f"type S = Int\ndata T = T0\ndata L a = N | {alternative}\n\nT <---> T\n  T0 ~ T0\n"
    with pytest.raises(LensSyntaxError) as e:
        parse_program(program)
    assert str(e.value) == f"3:1: {message}"


def test_a_generic_declaration_nothing_applies_is_not_instantiated():
    # A nested datatype is refused only where something applies it.
    program = "data T = T0\ndata P a = P a\ndata N a = Z a | S (N (P a))\n\nT <---> T\n  T0 ~ T0\n"
    assert parse_program(program).schema.types.keys() == {"T"}


# ---------------------------------------------------------------------------
# Coverage and overlap: one pattern-matrix walk per relation side, against the
# pairwise overlap test and the coverage check it replaced (tests/oracles.py).

# One rule dropped from each shipped program, and the coverage error it gives.
_DROPPED = {
    "addrbook.lens": (
        "  Cons p xs ~ Cons p xs\n",
        "23:1: E-source-coverage: source patterns do not cover List Person, e.g. Cons _ _",
    ),
    "arith.lens": (
        "  FromT _ t ~ t\n",
        "6:1: E-source-coverage: source patterns do not cover Expr, e.g. FromT _ _",
    ),
    "brac_paren.lens": (
        "  Brac _ b ~ b\n",
        "11:1: E-source-coverage: source patterns do not cover Term, e.g. Brac _ _",
    ),
    "compose_chain.lens": (
        "  Num _ ~ NZ\n",
        "17:1: E-source-coverage: source patterns do not cover Arith, e.g. Num _",
    ),
    "mirror.lens": (
        "  Node i x y ~ Node i y x\n",
        "3:1: E-source-coverage: source patterns do not cover BinT Int, e.g. Node _ _ _",
    ),
    "natbool.lens": (
        "  Zero ~ False\n",
        "5:1: E-source-coverage: source patterns do not cover Nat, e.g. Zero",
    ),
    "rosetree.lens": (
        "  RNode i (Cons x _) ~ Cons i x\n",
        "4:1: E-source-coverage: source patterns do not cover RTree Int, e.g. RNode _ (Cons _ _)",
    ),
    "sugar_chain.lens": ("  QZ ~ VA\n", "9:1: E-source-coverage: source patterns do not cover Q, e.g. QZ"),
    "sugarlang.lens": (
        "  SWhile _ e s ~ AFor e s\n",
        "24:1: E-source-coverage: source patterns do not cover SStmt, e.g. SWhile _ _ _",
    ),
}


@pytest.mark.parametrize("name", sorted(p.name for p in EXAMPLES.glob("*.lens")))
def test_a_coverage_error_names_a_value_no_rule_matches(name):
    rule, message = _DROPPED[name]
    text = example_text(name)
    assert text.count(rule) == 1
    with pytest.raises(ValidationError) as e:
        load_program(text.replace(rule, ""), "p.lens")
    assert str(e.value).splitlines()[0] == "p.lens:" + message


@pytest.mark.parametrize(
    "rules,witness",
    [
        (["E2 ~ V0"], "E0"),  # the first constructor no rule heads, in declaration order
        (["E0 ~ V0", "E2 ~ V0"], "E1 _"),
        (["E0 ~ V0", "E1 (S 3) ~ V0", "E2 ~ V0"], "E1 (S 4)"),
        (["S 0 ~ V0", "S 1 ~ V0"], "S 2"),  # a fresh literal at a primitive
        (["S -4 ~ V0"], "S -3"),
        (['T "" ~ V0', 'T "ab" ~ V0'], 'T "abx"'),
        (["P (S 0) _ ~ V0", "P _ (S 0) ~ V0"], "P (S 1) (S 1)"),
        (["P (S 0) _ ~ V0", "P (S 1) _ ~ V0"], "P (S 2) _"),  # ``_`` where every value is uncovered
    ],
)
def test_a_witness_is_the_first_value_no_rule_matches(rules, witness):
    text = "data S = S Int\ndata T = T String\ndata P = P S S\ndata E = E0 | E1 S | E2\ndata V = V0\n\n{} <---> V\n{}"
    ty = rules[0].split()[0].rstrip("012")
    with pytest.raises(ValidationError) as e:
        load_program(text.format(ty, "".join(f"  {r}\n" for r in rules)))
    assert str(e.value).splitlines()[-1].endswith(f"do not cover {ty}, e.g. {witness}")


def _rule_mutants(text: str):
    """Rule-level mutants of a program: each rule dropped and repeated, each
    identifier of a source pattern made ``_``, and each rule given the source
    pattern of each other rule."""
    lines = text.splitlines(keepends=True)
    rules = [(k, *line.split("~")) for k, line in enumerate(lines) if "~" in line]
    for k, source, view in rules:
        yield "".join(lines[:k] + lines[k + 1 :])
        yield "".join(lines[: k + 1] + lines[k:])
        for m in re.finditer(r"[A-Za-z][A-Za-z0-9']*", source):
            lines[k] = source[: m.start()] + "_" + source[m.end() :] + "~" + view
            yield "".join(lines)
        for j, theirs, _ in rules:
            if j != k:
                lines[k] = theirs + "~" + view
                yield "".join(lines)
        lines[k] = source + "~" + view


def _reused_constructors(text: str):
    """Each constructor of each declaration declared again, with no arguments, at the end of the declaration."""
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        if line.startswith("data "):
            for name in re.findall(r"[=|] (\w+)", line):
                yield "".join(lines[:k] + [f"{line.rstrip()} | {name}\n"] + lines[k + 1 :])


def _compiled(program, rel):
    """The rules of ``rel`` that compile, as ``validate_program`` keeps them."""
    compiled = (_compile_rule(program.schema, rel, raw, i, {}, []) for i, raw in enumerate(rel.rules))
    return [r for r in compiled if r is not None]


def test_the_matrix_walk_agrees_with_the_pairwise_and_coverage_oracles():
    # Rule-level mutants of every shipped program, and programs where a type
    # declares a constructor name twice, once with another arity.
    seen = Counter()
    for name in sorted(p.name for p in EXAMPLES.glob("*.lens")):
        for text in [*_rule_mutants(example_text(name)), *_reused_constructors(example_text(name))]:
            try:
                program = parse_program(text)
            except LensSyntaxError:
                seen["syntax"] += 1
                continue
            try:
                diags, warnings = [], validate_program(program).warnings
            except ValidationError as e:
                diags, warnings = e.diagnostics, None
            sch = program.schema
            overlaps, gaps = [], {"E-source-coverage": set(), "W-view-coverage": set()}
            for rel in program.relations:
                rules = _compiled(program, rel)
                pairwise = {
                    (i, j) for j, b in enumerate(rules) for i, a in enumerate(rules[:j])
                    if patterns_overlap(a.source, b.source)
                }
                overlaps += [
                    (rules[j].line, f"source patterns of rules {rules[i].index + 1} and {rules[j].index + 1} overlap")
                    for i, j in sorted(pairwise)
                ]
                for side, ty, code, message in (
                    ("source", rel.source_type, "E-source-coverage", "source patterns do not cover {}, e.g. {}"),
                    ("view", rel.view_type, "W-view-coverage",
                     "view patterns do not cover {}; writing back such views will be rejected, e.g. {}"),
                ):
                    patterns = [getattr(r, side) for r in rules]
                    pairs: set = set()
                    gap = frontend._walk_matrix(sch, [(i, (p,)) for i, p in enumerate(patterns)], (ty,), pairs)
                    assert (gap is None) == covers_type(sch, ty, patterns), (text, side)
                    if side == "source":
                        assert pairs == pairwise, text
                    if gap is None:
                        continue
                    assert not any(patterns_overlap(p, gap[0]) for p in patterns), (text, side)
                    if "E-ctor-reuse" not in {d.code for d in diags}:  # else a name may have two arities
                        check_tree_type(sch, ty, gap[0], {})  # a value of the type, up to its holes
                    if len(rules) == len(rel.rules):
                        gaps[code].add((rel.line, message.format(ty, render_pattern(gap[0]))))
                        seen[code] += 1
            seen["E-overlap"] += len(overlaps)
            assert [(d.line, d.message) for d in diags if d.code == "E-overlap"] == overlaps, text
            assert {(d.line, d.message) for d in diags if d.code == "E-source-coverage"} == gaps["E-source-coverage"], text
            if warnings is not None:
                assert {(w.line, w.message) for w in warnings} == gaps["W-view-coverage"], text
            seen["validated"] += 1
            seen["E-ctor-reuse"] += "E-ctor-reuse" in {d.code for d in diags}
    # The mutants reach every verdict.
    verdicts = ("syntax", "validated", "E-overlap", "E-source-coverage", "W-view-coverage", "E-ctor-reuse")
    assert min(seen[k] for k in verdicts) > 0, seen


def _one_relation(n: int) -> str:
    """One relation of ``n`` rules ``A{i} x ~ B{i} x``."""
    return (
        "data S = " + " | ".join(f"A{i} Int" for i in range(n)) + "\n"
        "data V = " + " | ".join(f"B{i} Int" for i in range(n)) + "\n\nS <---> V\n"
        + "".join(f"  A{i} x ~ B{i} x\n" for i in range(n))
    )


def test_the_matrix_walk_is_handed_rows_in_proportion_to_the_rules(monkeypatch):
    # Comparing every pair of source patterns took n(n-1)/2 calls: 19,900 at
    # 200 rules and 79,800 at 400.  The walk splits the rows by head, so its
    # work grows with the rules.  Counted, not timed.
    walk, handed = frontend._walk_matrix, []

    def counting(sch, rows, tys, pairs):
        handed.append(len(rows))
        return walk(sch, rows, tys, pairs)

    monkeypatch.setattr(frontend, "_walk_matrix", counting)
    totals = []
    for n in (200, 400):
        handed.clear()
        load_program(_one_relation(n))
        totals.append(sum(handed))
    assert totals[1] <= 2.2 * totals[0], totals


_LADDER_SCRIPT = """
import json, sys, time
from treelens import lens, load_program, parse_tree, render_pattern

n = int(sys.argv[1])
# T{i} <---> V relates L{i} to V{i} and unwraps W{i}, which holds a T{i+1}.
# T{n-1} is declared first, so each instance exists before a declaration
# names it, and no instantiation nests past the 64-deep limit.
lines = ["data V = " + " | ".join(f"V{i}" for i in range(n)), f"data T{n - 1} = L{n - 1}"]
lines += [f"data T{i} = L{i} | W{i} T{i + 1}" for i in range(n - 2, -1, -1)]
for i in range(n):
    lines += ["", f"T{i} <---> V", f"  L{i} ~ V{i}"] + ([f"  W{i} t ~ t"] if i < n - 1 else [])
text = "\\n".join(lines) + "\\n"
start = time.perf_counter()
vp = load_program(text)
seconds = time.perf_counter() - start
out = lens(vp, "T0", "V").put(parse_tree("L0"), parse_tree(f"V{n - 1}"), frozenset())
print(json.dumps([seconds, render_pattern(out)]))
"""


def test_a_long_ladder_of_bare_rules_loads_in_bounded_time():
    # n relations at one view type, each leading to the next through a bare
    # rule: every rebuild table holds the rest of the ladder, so they hold
    # n(n+1)/2 entries in all, and checking which source types are
    # interchangeable visits each relation once.  Validating 400 took 14.7 s
    # when that check compared every pair of source types with every
    # relation.  put of the last view rebuilds the whole chain of wraps.
    import json
    import os
    import subprocess
    import sys

    n = 400
    env = dict(os.environ, PYTHONPATH=str(EXAMPLES.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _LADDER_SCRIPT, str(n)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]
    seconds, out = json.loads(done.stdout)
    assert out == "".join(f"W{i} (" for i in range(n - 2)) + f"W{n - 2} L{n - 1}" + ")" * (n - 2)
    assert seconds < 3, seconds
