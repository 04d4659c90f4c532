import pytest

from conftest import EXAMPLES, example_text
from treelens import (
    lens,
    load_program,
    parse_program,
    parse_tree,
    render_program,
    validate_program,
)
from treelens.frontend import ValidationError, normalize_type_name
from treelens.text import LensSyntaxError, render_pattern

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
    vp = load_program(example_text("rosetree.lens"))
    assert any(w.code == "W-view-coverage" for w in vp.warnings)


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
