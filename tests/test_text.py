import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recursive_reader as rr
from conftest import EXAMPLES, example_text
from treelens import (
    IntLeaf,
    Link,
    Node,
    Region,
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
from treelens.edits import parse_script
from treelens.frontend import parse_program, render_program
from treelens.text import LensSyntaxError, _decode_path, _kind, read_tree_file, tokenize, write_tree_file


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


def _reference_parse_path(text):
    cur = rr.TokenCursor(rr.tokenize(text, 1), 1)
    path = rr.parse_path_tokens(cur)
    cur.require_end()
    return path


# Paths where ``\s``, ``str.strip`` and ``int`` disagree: a body is blank by
# ``str.strip``, which strips \x1c-\x1f, but an index is read by ``int``,
# which does not, and accepts any decimal digit and other blanks around it.
@pytest.mark.parametrize(
    "path,read",
    [
        ("[\x1f]", ()),
        ("[\x1f1]", (1,)),  # not a PATH token: its pieces ``[ 1 ]`` read
        ("[1,\x1f2]", (1, 2)),
        ("[ 1 , 2 ]", (1, 2)),
        ("[\u0663]", (3,)),
        ("[\u20031]", (1,)),
        ("[-0]", (0,)),
        ("[1,--2]", "1:0: expected INT, found ''"),
        ("[,]", "1:2: expected RBRACK, found ','"),
        ("[1,]", "1:4: expected INT, found ']'"),
    ],
    ids=ascii,
)
def test_edge_paths_read_as_the_recursive_reader_reads_them(path, read, monkeypatch):
    from treelens import edits, text

    expected = ("ok", read) if isinstance(read, tuple) else ("error", read)
    assert _outcome(parse_path, path) == _outcome(_reference_parse_path, path) == expected
    line = f"x {path} y"
    assert _outcome(_token_fields, line) == _outcome(_reference_token_fields, line)
    script = f"swap {path} [0]\n"
    assert _outcome(parse_script, script) == _with_recursive_reader(edits, parse_script, script)
    links = f"(P @ {path}) <-> (Q @ [0])\n"
    monkeypatch.setattr(text, "_read_rendered_links", lambda text: None)  # the line reader
    assert _outcome(parse_links, links) == _outcome(rr.parse_links, links)


_LONG = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "path,col",
    [
        (f"[{_LONG}]", 1),  # a PATH token, but for its length
        (f"[1, -{_LONG} ]", 1),
        (f"[{_LONG},]", 2),  # malformed: its pieces, the first of them too long
        (f"[1,{_LONG},]", 4),
        (f"[1,,{_LONG}]", None),  # the malformed piece comes first
    ],
    ids=["path", "signed-index", "first-piece", "second-piece", "after-an-error"],
)
def test_an_integer_too_long_for_int_is_an_error_at_its_token(path, col, monkeypatch):
    from treelens import edits, text

    too_long = f"integer of more than {sys.get_int_max_str_digits()} digits"
    outcome = _outcome(parse_path, path)
    assert outcome == _outcome(_reference_parse_path, path)
    assert (outcome == ("error", f"1:{col}: {too_long}")) == (col is not None)
    script = f"swap [0] {path}\ndelete [0] {_LONG}\n"
    assert _outcome(parse_script, script) == _with_recursive_reader(edits, parse_script, script)
    tree = f'Lit "" {_LONG}\n'
    assert _outcome(read_tree_file, tree) == _outcome(rr.read_tree_file, tree) == ("error", f"1:8: {too_long}")
    links = f"(P @ {path}) <-> (Q @ [0])\n"
    assert _outcome(parse_links, links) == _outcome(rr.parse_links, links)
    monkeypatch.setattr(text, "_read_rendered_links", lambda text: None)  # the line reader
    assert _outcome(parse_links, links) == _outcome(rr.parse_links, links)


# ---------------------------------------------------------------------------
# The path cache and the iterative reader, against the recursive reader it
# replaced (``recursive_reader``).

_PIECES = st.text(alphabet=" \t-0123456789", max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_PIECES, min_size=1, max_size=5), max_size=4), st.randoms())
def test_cached_path_decode_matches_int_per_index(chains, rnd):
    # Each chain lists a body and its comma prefixes, so a body's parent is
    # often in the cache: well formed, failed, empty or blank.
    bodies = [",".join(parts[:k]) for parts in chains for k in range(1, len(parts) + 1)]
    rnd.shuffle(bodies)
    paths: dict = {}
    for body in bodies + bodies:
        try:
            expected = rr.decode_path(body)
        except ValueError:
            expected = None
        assert _decode_path(body, paths) == expected, body


@pytest.mark.parametrize("body", ["   ,5", ",5", " ", "", "1,,2", "0,-1", "007, 8 ", "-,1", "1, -"])
def test_cached_path_decode_after_its_parent(body):
    paths: dict = {}
    parent = body[: body.rfind(",")] if "," in body else body
    _decode_path(parent, paths)
    try:
        expected = rr.decode_path(body)
    except ValueError:
        expected = None
    assert _decode_path(body, paths) == expected


_ALPHABET = '()[],@<->_"\\ 0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz~|=-'


def _outcome(f, *args):
    try:
        return ("ok", f(*args))
    except LensSyntaxError as e:
        return ("error", str(e))


def _token_fields(line):
    # A token is its text; its kind comes from ``_kind`` and a path's value
    # from ``_decode_path``, as the readers take them.
    texts, where = tokenize(line, 3)
    value = lambda t: _decode_path(t[1:-1], {}) if _kind(t) == "PATH" else None  # noqa: E731
    return [(_kind(t), t, *w, value(t)) for t, w in zip(texts, where)]


def _reference_token_fields(line):
    return [(t.kind, t.text, t.line, t.col, t.value) for t in rr.tokenize(line, 3)]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_ALPHABET + "\t\x1c\x1f\u2003\u0663", max_size=40))
def test_tokens_match_the_recursive_readers_tokens(line):
    assert _outcome(_token_fields, line) == _outcome(_reference_token_fields, line)


def _mutants(text: str, count: int, seed: int, alphabet: str = _ALPHABET):
    """``count`` single-character inserts, deletes and replacements of ``text``."""
    rng = random.Random(seed)
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(alphabet)
        op = rng.randrange(3)
        if op == 0 or i == len(text):
            yield text[:i] + c + text[i:]
        elif op == 1:
            yield text[:i] + text[i + 1 :]
        else:
            yield text[:i] + c + text[i + 1 :]


def _link_corpus(arith, arith_expr):
    from treelens.harness import gen_tree

    texts = [render_links(arith_expr.get(gen_tree(arith.schema, "Expr", 12, seed))[1]) for seed in range(3)]
    texts.append('-- note\n(P "a \\"q\\" b" _ @ [ 1 , 2 ]) <-> (Q (R x) -3 @ [])  -- tail\n\n')
    return texts


def test_link_files_parse_as_the_recursive_reader_does(arith, arith_expr):
    for k, text in enumerate(_link_corpus(arith, arith_expr)):
        for mutant in _mutants(text, 600, k):
            assert _outcome(parse_links, mutant) == _outcome(rr.parse_links, mutant), mutant


# Text that ``render_links`` writes, built to trip a whole-file reader: strings
# holding the link syntax, comment markers and escapes, negative integers,
# variables and wildcards, negative path indices, and a path 2,000 deep.
_NASTY_STRINGS = ["@", " @ [0]) <-> (", "--", '\\"', "\\\\", '"', "a -- b", ") <-> (P @ [1])", "", '\\" @ [0', "x\\"]
_DEEP = (1,) * 1999 + (0,)


def _nasty_patterns():
    return [Node("S", (StrLeaf(v),)) for v in _NASTY_STRINGS] + [
        parse_pattern('Neg -5 (Lit x _) -12 "@ --"'),
        parse_pattern("Pair (Pair a _) (-3)"),
        IntLeaf(-7),
        StrLeaf(" @ [] -- "),
        WILDCARD,
        Var("v"),
        Node("Tip"),
    ]


def _nasty_link_files():
    pats = _nasty_patterns()
    ls = set()
    for i, p in enumerate(pats):
        ls.add(Link(Region(p, (i,)), Region(pats[-1 - i], (0, i))))
        ls.add(Link(Region(p, (i, 1)), Region(p, ())))
    ls.add(Link(Region(pats[0], (-1, 2)), Region(WILDCARD, (3, -4))))
    deep = {Link(Region(pats[k], _DEEP[:k] + _DEEP[-1:]), Region(pats[-1 - k], _DEEP[: 1000 + k])) for k in range(4)}
    deep.add(Link(Region(pats[1], _DEEP), Region(pats[2], _DEEP)))
    return [render_links(frozenset(ls)), render_links(frozenset(deep))]


# Mutants may also break a line in any of the ways ``str.splitlines`` does.
_BREAKING_ALPHABET = _ALPHABET + "\t\r\n\x0b\x0c\x1c\x85\u2028"


def test_adversarial_link_files_parse_as_the_recursive_reader_does():
    for k, (text, count) in enumerate(zip(_nasty_link_files(), (300, 40))):
        assert parse_links(text) == rr.parse_links(text)
        assert render_links(parse_links(text)) == text
        for mutant in [*_mutants(text, count, k), *_mutants(text, count, k, _BREAKING_ALPHABET)]:
            assert _outcome(parse_links, mutant) == _outcome(rr.parse_links, mutant), mutant


def test_link_lines_with_one_character_inserted_parse_as_the_recursive_reader_does():
    # Each character that could make a whole-line reader split a line in the
    # wrong place, inserted at every place of every line of the first file.
    for line in _nasty_link_files()[0].splitlines(keepends=True):
        for i in range(len(line)):
            for c in '-@"\\\r ':
                mutant = line[:i] + c + line[i:]
                assert _outcome(parse_links, mutant) == _outcome(rr.parse_links, mutant), mutant


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 17), st.lists(st.integers(-2, 3), max_size=4)), min_size=1, max_size=12))
def test_random_nasty_link_sets_roundtrip(regions):
    pats = _nasty_patterns()
    ls = frozenset(
        Link(Region(pats[a % len(pats)], tuple(p)), Region(pats[-1 - a % len(pats)], tuple(p[::-1])))
        for a, p in regions
    )
    text = render_links(ls)
    assert parse_links(text) == ls == rr.parse_links(text)
    assert render_links(parse_links(text)) == text


def test_writer_output_never_reaches_the_line_reader(monkeypatch, arith, arith_expr):
    # Every link file that ``render_links`` writes is read in one pass over the
    # file, without the per-line region reader.
    from test_programs import RELATIONS
    from treelens import gen_tree, lens, load_program, text

    texts = _nasty_link_files() + _link_corpus(arith, arith_expr)[:3]
    for name, sty, vty in RELATIONS:
        vp = load_program(example_text(name), name)
        h = lens(vp, sty, vty)
        texts += [render_links(h.get(gen_tree(vp.schema, h.source_type, 30, seed))[1]) for seed in range(3)]

    def refuse(*args):
        raise AssertionError("the line reader ran")

    monkeypatch.setattr(text, "_parse_region", refuse)
    for t in texts:
        assert render_links(parse_links(t)) == t


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: "-- a comment\n" + t,
        lambda t: t.replace("\n", "\n\n", 1),
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace(" <-> ", "  <-> ", 1),
        lambda t: t.replace(" @ ", "\t@ ", 1),
        lambda t: t.replace("\n", "  -- tail\n", 1),
        lambda t: t.replace("@ [0]", "@ [ 0 ]", 1),
        lambda t: t[:-1],
    ],
    ids=["comment", "blank", "crlf", "double-space", "tab", "tail-comment", "path-spacing", "no-newline"],
)
def test_other_link_files_are_read_line_by_line(edit, arith, arith_expr):
    # The same links in a form the writer never produces: the line reader
    # reads them, to the same set.
    from treelens.text import _read_rendered_links

    text = _link_corpus(arith, arith_expr)[0]
    other = edit(text)
    assert other != text
    assert _read_rendered_links(other) is None
    assert parse_links(other) == parse_links(text) == rr.parse_links(other)


def test_a_last_line_without_a_newline_is_read(arith, arith_expr):
    # Every other line is as the writer writes it, so a count of the lines
    # that match could not tell this file from one the writer wrote.
    from treelens.text import _read_rendered_links

    text = _link_corpus(arith, arith_expr)[0] + "(P @ [0]) <-> (Q @ [9])  -- no newline"
    assert _read_rendered_links(text) is None
    assert parse_links(text) == rr.parse_links(text) == parse_links(text + "\n")


def test_tree_files_parse_as_the_recursive_reader_does():
    texts = [
        example_text("arith_cst.tree"),
        example_text("addrbook.tree"),
        '(Node 1 (Node -2 Tip Tip) Tip)  -- c\n',
        '\n"str \\\\ x"\n\n',
    ]
    for k, text in enumerate(texts):
        for mutant in _mutants(text, 600, k):
            assert _outcome(read_tree_file, mutant) == _outcome(rr.read_tree_file, mutant), mutant


def _with_recursive_reader(module, f, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "token_lines", rr.token_lines)
        mp.setattr(module, "parse_term", rr.parse_term)
        return _outcome(f, *args)


def _read(text):
    """A program's text as printed back, and its rules, from one parse."""
    program = parse_program(text)
    rules = [(r.source, r.view, r.line) for rel in program.relations for r in rel.rules]
    return render_program(program), rules


@pytest.mark.parametrize(
    "name",
    [
        "arith.lens",
        "sugarlang.lens",
        "mirror.lens",
        "compose_chain.lens",
        "addrbook.lens",
        "natbool.lens",
        "rosetree.lens",
    ],
)
def test_rule_patterns_parse_as_the_recursive_reader_does(name):
    # Type expressions are terms too, so every line is mutated: declarations,
    # synonyms and relation headers as well as rules.
    from treelens import frontend

    text = example_text(name)
    lines = text.splitlines(keepends=True)
    for i in [i for i, line in enumerate(lines) if line.strip()]:
        for mutant in _mutants(lines[i], 80, i):
            program = "".join(lines[:i] + [mutant] + lines[i + 1 :])
            assert _outcome(_read, program) == _with_recursive_reader(frontend, _read, program), mutant


@pytest.mark.parametrize("name", ["addrbook_update.edits", "arith_swap.edits"])
def test_script_trees_parse_as_the_recursive_reader_does(name):
    from treelens import edits

    text = example_text(name) + 'replace [0,1] (Plus "x \\" y" (Lit "" -1) (Neg "" (Lit "" 2)))\n'
    for mutant in _mutants(text, 800, len(name)):
        assert _outcome(parse_script, mutant) == _with_recursive_reader(edits, parse_script, mutant), mutant


def test_well_formed_files_are_read_without_positions(monkeypatch):
    # One token stream: every reader takes bare token texts, and ``tokenize``
    # runs only to report an error, so no shipped file, nor get's links, nor
    # a relation's type names, ever reach it.
    from test_programs import RELATIONS
    from treelens import gen_tree, lens, load_program, text

    def refuse(*args):
        raise AssertionError(f"tokenize{args!r}")

    monkeypatch.setattr(text, "tokenize", refuse)
    names = {kind: sorted(EXAMPLES.glob("*." + kind)) for kind in ("lens", "edits", "tree")}
    assert [len(names[kind]) for kind in ("edits", "tree")] == [2, 3] and len(names["lens"]) >= 9
    for path in names["lens"]:
        load_program(path.read_text(encoding="utf-8"), path.name)
    for path in names["edits"]:
        assert parse_script(path.read_text(encoding="utf-8"))
    for path in names["tree"]:
        read_tree_file(path.read_text(encoding="utf-8"))
    for name, sty, vty in RELATIONS:
        vp = load_program(example_text(name), name)
        h = lens(vp, sty, vty)
        ls = h.get(gen_tree(vp.schema, h.source_type, 30, len(name)))[1]
        assert parse_links(render_links(ls)) == ls


# ---------------------------------------------------------------------------
# Depth: the reader and writer loop, so nesting is bounded by memory.  These
# round trips compare text, because the dataclass ``==`` still recurses.

N_DEEP = 2000


def _deep_sum_text(n):
    return (
        'Plus "" (' * (n - 1)
        + 'FromT "" (Lit "" 0)'
        + "".join(f') (Lit "" {i})' for i in range(1, n))
        + "\n"
    )


def _long_book_text(n):
    person = '(Cons (Person (Triple "n{}" "e" "t")) '
    return (
        'AddrBook (Cons (AddrGroup "g" '
        + "".join(person.format(j) for j in range(n))
        + "Nil"
        + ")" * n
        + ") Nil)\n"
    )


@pytest.mark.parametrize("text", [_deep_sum_text(N_DEEP), _long_book_text(N_DEEP)], ids=["sum", "book"])
def test_deep_tree_file_roundtrip(text):
    assert write_tree_file(read_tree_file(text)) == text


def test_deep_tree_file_reads_what_the_writer_wrote(addrbook):
    from treelens import check_tree_type

    t = read_tree_file(_long_book_text(N_DEEP))
    check_tree_type(addrbook.schema, "AddrBook", t)
    assert render_pattern(t).count("Person") == N_DEEP


def _roundtrip_links(ls):
    text = render_links(ls)
    back = parse_links(text)
    assert render_links(back) == text
    pairs = lambda s: sorted((l.source.path, l.view.path) for l in s)  # noqa: E731
    assert pairs(back) == pairs(ls)
    return text


def test_deep_sum_links_roundtrip():
    # The spine links of get on the left-deep sum, and the deepest literal's.
    plus, add = parse_pattern('Plus "" _ _'), parse_pattern("Add _ _")
    lit, num = parse_pattern('Lit "" _'), parse_pattern("Num _")
    ls = {Link(Region(plus, (1,) * k), Region(add, (0,) * k)) for k in range(N_DEEP - 1)}
    ls.add(Link(Region(lit, (1,) * (N_DEEP - 1) + (1,)), Region(num, (0,) * (N_DEEP - 1))))
    text = _roundtrip_links(frozenset(ls))
    assert text.count("\n") == N_DEEP


def test_long_list_links_roundtrip():
    # Every cell of one group's person list, and every hundredth person.
    cons, triple = parse_pattern("Cons _ _"), parse_pattern('Triple _ "e" "t"')
    ls = set()
    for j in range(N_DEEP):
        spine = (0, 0, 1) + (1,) * j
        ls.add(Link(Region(cons, spine), Region(cons, spine)))
        if j % 100 == 99:
            ls.add(Link(Region(triple, spine + (0, 0)), Region(WILDCARD, spine + (0,))))
    _roundtrip_links(frozenset(ls))
