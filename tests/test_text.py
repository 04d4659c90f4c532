import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelens import (
    IntLeaf,
    Node,
    StrLeaf,
    WILDCARD,
    Var,
    parse_links,
    parse_path,
    parse_pattern,
    parse_tree,
    render_link,
    render_links,
    render_path,
    render_pattern,
)
from treelens.text import LensSyntaxError, read_tree_file, write_tree_file


def _lit(s, i):
    return Node("Lit", (StrLeaf(s), IntLeaf(i)))


@pytest.mark.parametrize(
    "text,built",
    [
        pytest.param(text, built, id=text)
        for text, built in [
            ("Num 0", Node("Num", (IntLeaf(0),))),
            ("Num -5", Node("Num", (IntLeaf(-5),))),
            ('Lit "x" 1', _lit("x", 1)),
            (
                'Plus "a plus" (FromT "" (Lit "" 1)) (Neg "n" (Lit "" 2))',
                Node(
                    "Plus",
                    (
                        StrLeaf("a plus"),
                        Node("FromT", (StrLeaf(""), _lit("", 1))),
                        Node("Neg", (StrLeaf("n"), _lit("", 2))),
                    ),
                ),
            ),
            ('"just a string"', StrLeaf("just a string")),
            ("42", IntLeaf(42)),
            ("-7", IntLeaf(-7)),
            ("Tip", Node("Tip")),
        ]
    ],
)
def test_tree_roundtrip(text, built):
    t = parse_tree(text)
    assert t == built
    assert render_pattern(t) == text
    assert parse_pattern(text) == t  # a tree is a pattern without holes


@pytest.mark.parametrize(
    "text,built",
    [
        pytest.param(text, built, id=text)
        for text, built in [
            ("_", WILDCARD),
            ("x", Var("x")),
            ('Neg "a neg" _', Node("Neg", (StrLeaf("a neg"), WILDCARD))),
            ("Sub (Num 0) r", Node("Sub", (Node("Num", (IntLeaf(0),)), Var("r")))),
            ("Add _ _", Node("Add", (WILDCARD, WILDCARD))),
            ("Plus _ x y", Node("Plus", (WILDCARD, Var("x"), Var("y")))),
        ]
    ],
)
def test_pattern_roundtrip(text, built):
    p = parse_pattern(text)
    assert p == built
    assert render_pattern(p) == text


def test_string_escapes():
    t = parse_tree('"a \\"quoted\\" \\\\ backslash"')
    assert render_pattern(t) == '"a \\"quoted\\" \\\\ backslash"'


def test_bad_escape_rejected():
    with pytest.raises(LensSyntaxError):
        parse_tree('"bad \\n escape"')


def test_tree_rejects_pattern_syntax():
    with pytest.raises(LensSyntaxError):
        parse_tree("Neg _ x")
    with pytest.raises(LensSyntaxError):
        parse_tree("lowercase")


@pytest.mark.parametrize("text,expected", [("[]", ()), ("[0]", (0,)), ("[2,0]", (2, 0))])
def test_path_roundtrip(text, expected):
    assert parse_path(text) == expected
    assert render_path(expected) == text


def test_link_format_roundtrip():
    line = '(Neg "a neg" _ @ [2]) <-> (Sub (Num 0) _ @ [0])'
    ls = parse_links(line + "\n")
    assert len(ls) == 1
    assert render_link(next(iter(ls))) == line


def test_links_file_comments_and_blanks():
    text = "-- a comment\n\n(P @ []) <-> (Q @ [1])\n"
    ls = parse_links(text)
    assert len(ls) == 1


def test_links_canonical_order():
    text = (
        "(B @ [1]) <-> (Q @ [])\n"
        "(A @ [0]) <-> (Q @ [2])\n"
        "(A @ [0]) <-> (Q @ [1])\n"
    )
    ls = parse_links(text)
    rendered = render_links(ls)
    assert rendered == (
        "(A @ [0]) <-> (Q @ [1])\n"
        "(A @ [0]) <-> (Q @ [2])\n"
        "(B @ [1]) <-> (Q @ [])\n"
    )
    # canonical text is a fixed point
    assert render_links(parse_links(rendered)) == rendered


def test_tree_file_requires_trailing_newline():
    with pytest.raises(LensSyntaxError):
        read_tree_file("Num 0")
    assert read_tree_file("Num 0\n") == parse_tree("Num 0")
    with pytest.raises(LensSyntaxError):
        read_tree_file("Num 0\nNum 1\n")


def test_write_tree_file():
    assert write_tree_file(parse_tree("Num 0")) == "Num 0\n"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**40))
def test_random_tree_roundtrip(arith, seed):
    from treelens.harness import gen_tree

    t = gen_tree(arith.schema, "Expr", 30, seed)  # built with Node, IntLeaf, StrLeaf
    assert parse_tree(render_pattern(t)) == t
    assert parse_pattern(render_pattern(t)) == t
    assert read_tree_file(write_tree_file(t)) == t


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**40))
def test_random_links_roundtrip(arith, arith_expr, seed):
    from treelens.harness import gen_tree

    t = gen_tree(arith.schema, "Expr", 30, seed)
    _, ls = arith_expr.get(t)
    text = render_links(ls)
    assert parse_links(text) == ls
    assert render_links(parse_links(text)) == text


@pytest.mark.parametrize(
    "text,expected",
    [("[]", ()), ("[ ]", ()), ("[1, 2]", (1, 2)), ("[ 1 ,2 ]", (1, 2)), ("[-1]", (-1,))],
)
def test_path_spacing_accepted(text, expected):
    assert parse_path(text) == expected
    ls = parse_links(f"(P @ {text}) <-> (Q @ {text})\n")
    assert [(l.source.path, l.view.path) for l in ls] == [(expected, expected)]


def test_long_path_link_roundtrip():
    from treelens import Link, Region

    deep = (1,) * 1999 + (0,)
    line = render_link(Link(Region(parse_pattern("P _"), deep), Region(parse_pattern("Q"), deep)))
    ls = parse_links(line + "\n")
    assert [(l.source.path, l.view.path) for l in ls] == [(deep, deep)]
    assert render_links(ls) == line + "\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1,,2]", "1:4: expected INT, found ','"),
        ("[1,]", "1:4: expected INT, found ']'"),
        ("[1", "1:0: expected RBRACK, found ''"),
        ("[1 2]", "1:4: expected RBRACK, found '2'"),
        ("[a]", "1:2: expected RBRACK, found 'a'"),
        ("[1,2]3", "1:6: trailing input '3'"),
    ],
)
def test_malformed_path_errors(text, message):
    with pytest.raises(LensSyntaxError) as e:
        parse_path(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "line,message",
    [
        ("(P @ [1,,2]) <-> (Q @ [0])", "1:9: expected INT, found ','"),
        ("(P @ [1,]) <-> (Q @ [0])", "1:9: expected INT, found ']'"),
        ("(P @ [1) <-> (Q @ [0])", "1:8: expected RBRACK, found ')'"),
        ("(P @ [0]) <-> (Q @ [1,,2])", "1:23: expected INT, found ','"),
    ],
)
def test_malformed_path_in_link_file(line, message):
    with pytest.raises(LensSyntaxError) as e:
        parse_links("-- header\n" + line + "\n")
    assert str(e.value) == message.replace("1:", "2:", 1)
