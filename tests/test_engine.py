import pytest

from conftest import subtrees
from oracles import links_valid, rebuild_by_bare_steps, tree_size
from treelens import (
    WILDCARD,
    IntLeaf,
    Link,
    Node,
    Region,
    StrLeaf,
    Var,
    fst_projection,
    lens,
    load_program,
    parse_links,
    parse_pattern,
    parse_tree,
    render_pattern,
)
from treelens.engine import IllTypedInput, InvalidLinks, UnknownRelation
from treelens.trees import Wildcard


def _link(sp, spath, vp, vpath):
    return Link(Region(parse_pattern(sp), spath), Region(parse_pattern(vp), vpath))


def test_get_neg_example(arith_term):
    s = parse_tree('Neg "a neg" (Lit "" 7)')
    view, ls = arith_term.get(s)
    assert view == parse_tree("Sub (Num 0) (Num 7)")
    assert ls == {
        _link('Neg "a neg" _', (), "Sub (Num 0) _", ()),
        _link('Lit "" _', (1,), "Num _", (1,)),
    }


def test_get_primitive_identity(arith):
    h = lens(arith, "Int", "Int")
    view, ls = h.get(parse_tree("5"))
    assert view == parse_tree("5")
    assert ls == frozenset()


def test_get_negation_link_present(arith_expr, demo_cst):
    _, ls = arith_expr.get(demo_cst)
    assert _link('Neg "a neg" _', (2,), "Sub (Num 0) _", (1,)) in ls


def test_get_links_valid_and_partition(arith, arith_expr):
    from treelens.harness import gen_tree

    for seed in range(60):
        s = gen_tree(arith.schema, "Expr", 35, seed)
        v, ls = arith_expr.get(s)
        assert links_valid(s, v, ls)
        # every constructor node of the view sits in exactly one region's
        # non-wildcard part; no two view regions overlap anywhere
        cover: dict[tuple, int] = {}
        for l in ls:
            for p in _region_positions(l.view):
                cover[p] = cover.get(p, 0) + 1
        assert all(n == 1 for n in cover.values())
        for p, sub in subtrees(v):
            if isinstance(sub, Node):
                assert cover.get(p, 0) == 1


def _region_positions(region):
    out = []

    def walk(pat, rel):
        if isinstance(pat, Wildcard):
            return
        out.append(region.path + rel)
        if isinstance(pat, Node):
            for i, a in enumerate(pat.children):
                walk(a, rel + (i,))

    walk(region.pattern, ())
    return out


def test_get_rejects_ill_typed(arith_expr):
    with pytest.raises(IllTypedInput):
        arith_expr.get(parse_tree('Lit "x" 5'))  # a Term, not an Expr


_HOLEY_SOURCE = Node("FromT", (StrLeaf("a"), WILDCARD))
_HOLEY_VIEW = Node("Add", (Node("Num", (IntLeaf(1),)), Var("y")))
_SOURCE_HOLE = "at [1]: expected Term, found wildcard _"
_VIEW_HOLE = "at [1]: expected Arith, found variable y"


@pytest.mark.parametrize(
    "call,side,message",
    [
        ("get", "source", _SOURCE_HOLE),
        ("put", "source", _SOURCE_HOLE),
        ("put", "view", _VIEW_HOLE),
        ("check", "source", _SOURCE_HOLE),
        ("check", "view", _VIEW_HOLE),
    ],
)
def test_a_hole_in_an_input_is_a_type_error(arith_expr, demo_cst, call, side, message):
    # Terms with holes are patterns; handed in as trees they are ill-typed.
    v, ls = arith_expr.get(demo_cst)
    s, v = (_HOLEY_SOURCE, v) if side == "source" else (demo_cst, _HOLEY_VIEW)
    if call == "check":
        f = arith_expr.check_explain(s, v, ls)
        assert (f.code, f.view_path, f.message) == (f"E-ill-typed-{side}", (), message)
        return
    with pytest.raises(IllTypedInput) as e:
        arith_expr.get(s) if call == "get" else arith_expr.put(s, v, ls)
    assert str(e.value) == f"{side}: {message}"


def test_put_hippocratic_instance(arith_expr, demo_cst):
    v, ls = arith_expr.get(demo_cst)
    assert arith_expr.put(demo_cst, v, ls) == demo_cst


def test_put_defaults_rebuild(arith_expr, demo_cst):
    out = arith_expr.put(demo_cst, parse_tree("Add (Num 1) (Num 2)"), frozenset())
    assert out == parse_tree('Plus "" (FromT "" (Lit "" 1)) (Lit "" 2)')


def test_put_swap_scenario(arith_expr, demo_cst):
    from treelens.edits import EditState, swap

    v, ls = arith_expr.get(demo_cst)
    st = swap(EditState(v, ls), (0,), (1,))
    assert arith_expr.check(demo_cst, st.view, st.links)
    s2 = arith_expr.put(demo_cst, st.view, st.links)
    # the negation region survives, wrapped into the expression slot
    assert s2 == parse_tree(
        'Plus "a plus" (FromT "" (Neg "a neg" (Lit "l3" 3))) '
        '(Paren "" (Minus "a minus" (FromT "" (Lit "l1" 1)) (Lit "l2" 2)))'
    )
    v2, ls2 = arith_expr.get(s2)
    assert v2 == st.view
    assert fst_projection(st.links) <= fst_projection(ls2)
    relinked = [l for l in ls2 if l.source.pattern == parse_pattern('Neg "a neg" _')]
    assert [(l.view.pattern, l.view.path) for l in relinked] == [
        (parse_pattern("Sub (Num 0) _"), (0,))
    ]


def test_put_rejects_ill_typed_view(arith_expr, demo_cst):
    with pytest.raises(IllTypedInput):
        arith_expr.put(demo_cst, parse_tree('Lit "x" 1'), frozenset())


def test_check_accepts_get(arith_expr, demo_cst):
    v, ls = arith_expr.get(demo_cst)
    assert arith_expr.check(demo_cst, v, ls)


def test_check_rejects_neg_to_add_link(arith_expr, demo_cst):
    v, ls = arith_expr.get(demo_cst)
    bad = frozenset(
        l
        if l.source.pattern != parse_pattern('Neg "a neg" _')
        else Link(l.source, Region(parse_pattern("Add _ _"), l.view.path))
        for l in ls
    )
    assert not arith_expr.check(demo_cst, v, bad)
    with pytest.raises(InvalidLinks):
        arith_expr.put(demo_cst, v, bad)


def test_check_rejects_overlapping_view_regions(arith_expr):
    # Both the Sub _ _ region and the Sub (Num 0) _ region claim the view top.
    s = parse_tree('Minus "m" (FromT "" (Lit "" 0)) (Neg "a neg" (Lit "" 7))')
    v = parse_tree("Sub (Num 0) (Num 7)")
    overlapping = frozenset(
        {
            _link('Minus "m" _ _', (), "Sub _ _", ()),
            _link('Neg "a neg" _', (2,), "Sub (Num 0) _", ()),
            _link('Lit "" _', (2, 1), "Num _", (1,)),
        }
    )
    f = arith_expr.check_explain(s, v, overlapping)
    assert f is not None and f.code == "E-overlapping-regions"
    with pytest.raises(InvalidLinks):
        arith_expr.put(s, v, overlapping)


def test_check_rejects_dangling_source(arith_term):
    s = parse_tree('Neg "a neg" (Lit "" 7)')
    v, ls = arith_term.get(s)
    moved = frozenset(Link(Region(l.source.pattern, (9,)), l.view) for l in ls)
    assert not arith_term.check(s, v, moved)


def test_term_in_expr_retention_uses_conversion(arith_expr, demo_cst):
    # A Term-typed region retained in an Expr slot gets wrapped in FromT "".
    from treelens.edits import EditState, swap

    v, ls = arith_expr.get(demo_cst)
    st = swap(EditState(v, ls), (0,), (1,))
    s2 = arith_expr.put(demo_cst, st.view, st.links)
    assert render_pattern(s2).startswith('Plus "a plus" (FromT "" (Neg "a neg"')


def test_brac_paren_hippocraticness():
    vp = load_program(
        open("lens_examples/brac_paren.lens").read()
        if False
        else (  # resolved relative to the repository root by conftest
            __import__("conftest").example_text("brac_paren.lens")
        )
    )
    h = lens(vp, "Term", "Arith")
    s = parse_tree('Brac "b" (FromT "f" (Paren "p" (FromT "" (Lit "x" 1))))')
    v, ls = h.get(s)
    # four stacked wrappers plus the literal all link to the view top;
    # put must consume them outermost-first (shortest source path)
    stacked = [l for l in ls if l.view.path == ()]
    assert len(stacked) == 5
    assert h.put(s, v, ls) == s


def test_unknown_relation(arith):
    with pytest.raises(UnknownRelation):
        lens(arith, "Arith", "Expr")


def test_bare_chain_rejected_quickly():
    vp = load_program(__import__("conftest").example_text("sugar_chain.lens"))
    h = lens(vp, "P", "V")
    s = parse_tree("MkP QZ")
    f = h.check_explain(s, parse_tree("VB"), frozenset())
    assert f is not None and f.code == "E-sugar-cycle"
    with pytest.raises(InvalidLinks):
        h.put(s, parse_tree("VB"), frozenset())
    # the VA views are fine
    assert h.put(s, parse_tree("VA"), frozenset()) == parse_tree("PZ")


_THREE_ROUNDS = """data P = MkP Q | PZ
data Q = MkQ R | QZ
data R = MkR P | RZ
data V = VA | VB

P <---> V
  MkP q ~ q
  PZ ~ VA

Q <---> V
  MkQ r ~ r
  QZ ~ VA

R <---> V
  MkR p ~ p
  RZ ~ VB
"""


def test_bare_chain_longer_than_two_rounds_accepted():
    # P's chain of bare rules passes Q before R's rule matches VB.
    vp = load_program(_THREE_ROUNDS)
    h = lens(vp, "P", "V")
    assert h.check(parse_tree("PZ"), parse_tree("VB"), frozenset())
    assert h.put(parse_tree("PZ"), parse_tree("VB"), frozenset()) == parse_tree("MkP (MkQ RZ)")


def test_rebuild_tables_agree_with_one_frame_per_bare_step():
    # put with no links only rebuilds.  On get's views, on random views of
    # the view type and on VB, which the sugar chains hold, each relation's
    # rebuild table gives the tree, or the failure's code, message and view
    # path, of the walk that recursed once per bare rule under a bound.  In
    # the last program, A's chain ends at B, which no rule of B matches.
    from conftest import example_text
    from test_programs import RELATIONS
    from treelens.harness import gen_tree

    cases = [(load_program(example_text(name), name), sty, vty) for name, sty, vty in RELATIONS]
    cases += [(load_program(_THREE_ROUNDS), sty, "V") for sty in "PQR"]
    ends = (
        "data A = MkA B | AZ\ndata B = BZ\ndata V = VA | VB\n\n"
        "A <---> V\n  MkA b ~ b\n  AZ ~ VA\n\nB <---> V\n  BZ ~ VA\n"
    )
    cases.append((load_program(ends), "A", "V"))
    failures = set()
    for vp, sty, vty in cases:
        h = lens(vp, sty, vty)
        s = gen_tree(vp.schema, h.source_type, 20, 0)
        views = [parse_tree("VB")] if vty == "V" else []
        for seed in range(100):
            views.append(h.get(gen_tree(vp.schema, h.source_type, 20, seed))[0])
            views.append(gen_tree(vp.schema, h.view_type, 20, seed))
        for v in views:
            out = h.try_put(s, v, frozenset())
            assert out == rebuild_by_bare_steps(vp, h.relation, v), (sty, vty, render_pattern(v))
            failures.add(getattr(out, "code", None))
    assert failures == {None, "E-no-rule", "E-sugar-cycle"}


def test_put_and_check_type_check_the_source(arith_expr):
    # A source of another type is rejected like an ill-typed view, even with
    # links that put could follow: put and check agree on it.
    s = parse_tree('FromT "a" (Lit 5 3)')  # Lit takes a String, then an Int
    v = parse_tree("Num 3")
    ls = parse_links("(Lit 5 _ @ [1]) <-> (Num _ @ [])\n")
    f = arith_expr.check_explain(s, v, ls)
    assert (f.code, f.view_path, f.link) == ("E-ill-typed-source", (), None)
    assert f.message == "at [1, 0]: expected String, found Int"
    assert arith_expr.try_put(s, v, ls) == f
    with pytest.raises(IllTypedInput) as e:
        arith_expr.put(s, v, ls)
    assert str(e.value) == "source: at [1, 0]: expected String, found Int"
    for other in (parse_tree("Tip"), parse_tree('Lit "x" 1')):
        assert arith_expr.check_explain(other, v, frozenset()).code == "E-ill-typed-source"
        with pytest.raises(IllTypedInput):
            arith_expr.put(other, v, frozenset())
    # an ill-typed view is reported first
    f = arith_expr.check_explain(s, parse_tree('Lit "x" 1'), ls)
    assert f.code == "E-ill-typed-view"


@pytest.mark.parametrize(
    "name,sty,vty",
    [
        ("arith.lens", "Expr", "Arith"),
        ("sugarlang.lens", "SProg", "AProg"),
        ("addrbook.lens", "AddrBook", "SocialBook"),
        ("natbool.lens", "BinT Nat", "BinT Bool"),
        ("rosetree.lens", "RTree Int", "List Int"),
    ],
)
def test_view_regions_partition_every_program(name, sty, vty):
    # Generated links: valid, pairwise non-overlapping view regions, and every
    # constructor node of the view covered by exactly one region.
    from conftest import example_text
    from treelens.harness import gen_tree

    vp = load_program(example_text(name), name)
    h = lens(vp, sty, vty)
    for seed in range(40):
        s = gen_tree(vp.schema, h.source_type, 30, seed)
        v, ls = h.get(s)
        assert links_valid(s, v, ls)
        cover: dict[tuple, int] = {}
        for l in ls:
            for p in _region_positions(l.view):
                cover[p] = cover.get(p, 0) + 1
        assert all(n == 1 for n in cover.values()), (name, seed)
        for p, sub in subtrees(v):
            if isinstance(sub, Node):
                assert cover.get(p, 0) == 1, (name, seed, p)


# ---------------------------------------------------------------------------
# Failure codes and their view paths, pinned.  ``put`` must reject with the
# same failure that ``check_explain`` reports.

_PINNED_FAILURES = [
    # (program, relation, source, view, links, code, view path)
    ("sugar_chain.lens", ("P", "V"), "PZ", "VB", "", "E-sugar-cycle", ()),
    ("rosetree.lens", ("RTree Int", "List Int"), "RNode 67 Nil", "Nil", "", "E-no-rule", ()),
    (
        "rosetree.lens", ("RTree Int", "List Int"), "RNode 60 Nil", "Cons 60 Nil",
        "(RNode _ Nil @ []) <-> (Cons _ Nil @ [1])",
        "E-stray-link", (),
    ),
    (
        "arith.lens", ("Term", "Arith"), 'Lit "k" 22', "Num 22",
        '(Lit "k" _ @ []) <-> (Num _ @ [0])',
        "E-link-at-leaf", (0,),
    ),
    (
        "natbool.lens", ("BinT Nat", "BinT Bool"), "Tip", "Tip",
        "(Tip @ [7]) <-> (Tip @ [])",
        "E-dangling-source", (),
    ),
    (
        "sugar_chain.lens", ("P", "V"), "MkP QZ", "VA",
        "(MkP _ @ [0]) <-> (_ @ [])\n(QZ @ [0]) <-> (VA @ [])",
        "E-source-mismatch", (),
    ),
    (
        "natbool.lens", ("BinT Nat", "BinT Bool"), "Tip", "Tip",
        "(Tip @ []) <-> (ZzBogus @ [])",
        "E-view-mismatch", (),
    ),
    (
        "addrbook.lens", ("AddrBook", "SocialBook"), "AddrBook Nil", "SocialBook Nil",
        "(AddrBook _ @ []) <-> (SocialBook _ @ [])\n(Nil @ [0]) <-> (_ @ [0])\n"
        "(Nil @ [0]) <-> (Nil @ [0])",
        "E-no-generating-rule", (0,),
    ),
    (
        "sugar_chain.lens", ("P", "V"), "MkP QZ", "VA",
        "(QZ @ [0]) <-> (VA @ [])",
        "E-no-conversion", (),
    ),
    (
        "natbool.lens", ("BinT Nat", "BinT Bool"), "Tip", "Tip",
        "(Tip @ []) <-> (Tip @ [])\n(Tip @ []) <-> (_ @ [0])",
        "E-overlapping-regions", (),
    ),
    (
        "arith.lens", ("Expr", "Arith"),
        'Minus "m" (FromT "" (Lit "" 0)) (Neg "a neg" (Lit "" 7))', "Sub (Num 0) (Num 7)",
        '(Minus "m" _ _ @ []) <-> (Sub _ _ @ [])\n'
        '(Neg "a neg" _ @ [2]) <-> (Sub (Num 0) _ @ [])\n'
        '(Lit "" _ @ [2,1]) <-> (Num _ @ [1])',
        "E-overlapping-regions", (),
    ),
]

_BOOK_LINKS = (
    '(AddrBook _ @ []) <-> (SocialBook _ @ [])\n'
    '(Cons _ _ @ [0]) <-> (Cons _ _ @ [0])\n'
    '(AddrGroup _ _ @ [0,0]) <-> (SocialGroup _ _ @ [0,0])\n'
    '(Nil @ [0,1]) <-> (Nil @ [0,1])\n'
)

# The same codes three levels down an address book: one bad link at [0,0,1].
_PINNED_FAILURES += [
    (
        "addrbook.lens", ("AddrBook", "SocialBook"),
        'AddrBook (Cons (AddrGroup "b" Nil) Nil)', 'SocialBook (Cons (SocialGroup "b" Nil) Nil)',
        _BOOK_LINKS + extra, code, path,
    )
    for extra, code, path in [
        ("(Nil @ [0,0,1,7]) <-> (Nil @ [0,0,1])", "E-dangling-source", (0, 0, 1)),
        ("(Nil @ [0,0,0]) <-> (Nil @ [0,0,1])", "E-source-mismatch", (0, 0, 1)),
        ("(Nil @ [0,0,1]) <-> (ZzBogus @ [0,0,1])", "E-view-mismatch", (0, 0, 1)),
        ("(Nil @ [0,0,1]) <-> (_ @ [0,0,1])", "E-no-generating-rule", (0, 0, 1)),
        ("(Nil @ [0,0,1]) <-> (Nil @ [0,0,1,0])", "E-stray-link", (0, 0, 1)),
        ("(Nil @ [0,0,1]) <-> (Nil @ [0,0,0,0])", "E-link-at-leaf", (0, 0, 0)),
        (
            "(Nil @ [0,0,1]) <-> (Nil @ [0,0,1])\n(Nil @ [0,1]) <-> (Nil @ [0,0,1])",
            "E-overlapping-regions", (0, 0, 1),
        ),
    ]
]


@pytest.mark.parametrize(
    "name,relation,source,view,links,code,path",
    _PINNED_FAILURES,
    ids=[f"{c[5]}@{list(c[6])}-{c[0]}" for c in _PINNED_FAILURES],
)
def test_failure_code_and_view_path(name, relation, source, view, links, code, path):
    from conftest import example_text
    from treelens import parse_links

    h = lens(load_program(example_text(name), name), *relation)
    s, v, ls = parse_tree(source), parse_tree(view), parse_links(links + "\n")
    f = h.check_explain(s, v, ls)
    assert f is not None and (f.code, f.view_path) == (code, path)
    with pytest.raises(InvalidLinks) as e:
        h.put(s, v, ls)
    assert (e.value.failure.code, e.value.failure.view_path) == (code, path)


def test_failure_ill_typed_view(arith_expr, demo_cst):
    f = arith_expr.check_explain(demo_cst, parse_tree('Lit "x" 1'), frozenset())
    assert f is not None and (f.code, f.view_path) == ("E-ill-typed-view", ())


def test_failure_no_relation(arith):
    # A handle resolves its relation when it is built, so an undeclared pair
    # never reaches the engine, whether built by lens() or directly.
    from treelens.engine import LensHandle

    with pytest.raises(UnknownRelation, match="^Expr <---> Expr$"):
        LensHandle(arith, "Expr", "Expr")
    assert LensHandle(arith, "Int", "Int").relation is None
    assert LensHandle(arith, "Expr", "Arith").relation is arith.relation("Expr", "Arith")


def test_ambiguous_link_is_prevented_by_validation():
    # E-ambiguous-link needs two rules generating one link; constructors
    # belong to one type and a relation's source patterns are disjoint, so
    # validation already rules it out.
    from treelens import ValidationError

    text = (
        "data A = WrapB B | WrapC C\ndata B = K Int\ndata C = K Int\ndata V = VK Int\n\n"
        "A <---> V\n  WrapB b ~ b\n  WrapC c ~ c\n\n"
        "B <---> V\n  K i ~ VK i\n\nC <---> V\n  K i ~ VK i\n"
    )
    with pytest.raises(ValidationError) as e:
        load_program(text)
    assert "E-ctor-reuse" in {d.code for d in e.value.diagnostics}


# ---------------------------------------------------------------------------
# Work counters: deterministic, nothing timed.


def _left_deep_sum(n: int):
    """``Plus "" (... (Plus "" (FromT "" (Lit "" 0)) (Lit "" 1)) ...) (Lit "" n-1)``."""
    return parse_tree(
        'Plus "" (' * (n - 1)
        + 'FromT "" (Lit "" 0)'
        + "".join(f') (Lit "" {i})' for i in range(1, n))
    )


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("n", [25, 50, 100])
def test_get_builds_each_link_once(arith_expr, monkeypatch, n):
    from treelens import engine

    s = _left_deep_sum(n)
    built = _counting(monkeypatch, engine, "Link")
    _, ls = arith_expr.get(s)
    assert len(ls) == 2 * n  # one per Plus, Lit and the FromT
    assert len(built) == len(ls)


def test_put_and_check_visit_linearly_many_nodes(arith_expr, monkeypatch):
    from treelens import engine

    calls = _counting(monkeypatch, engine, "_sync")
    counts = {}
    for n in (25, 50, 100):
        s = _left_deep_sum(n)
        v, ls = arith_expr.get(s)
        for label, links in (("retain", ls), ("rebuild", frozenset())):
            calls.clear()
            out = arith_expr.put(s, v, links)
            assert label == "rebuild" or out == s
            put_calls = len(calls)
            calls.clear()
            assert arith_expr.check(s, v, links)
            assert len(calls) == put_calls <= 2 * tree_size(v)
            counts[label, n] = put_calls
    for label in ("retain", "rebuild"):
        a, b, c = (counts[label, n] for n in (25, 50, 100))
        assert c - b == 2 * (b - a)  # exactly linear in n


def _right_nested_sum(n: int):
    """``Add (Num 1) (Add (Num 2) (... (Num n)))``."""
    return parse_tree("".join(f"Add (Num {i}) (" for i in range(1, n)) + f"Num {n}" + ")" * (n - 1))


def test_put_rebuilds_each_view_node_in_one_call(arith_expr, monkeypatch):
    # Through Expr <---> Arith, each right operand is a Term, rebuilt as an
    # Add through Paren and Plus, and each left one an Expr, rebuilt as a Num
    # through FromT and Lit.  One scan of the relation's rebuild table picks
    # both rules, so put makes one call per view node that is not a leaf.
    from treelens import engine

    calls = _counting(monkeypatch, engine, "_sync")
    s = parse_tree('FromT "" (Lit "" 0)')
    for n in (25, 50, 100):
        v = _right_nested_sum(n)
        calls.clear()
        out = arith_expr.put(s, v, frozenset())
        assert len(calls) == sum(isinstance(t, Node) for _, t in subtrees(v)) == 2 * n - 1
        assert arith_expr.get(out)[0] == v


def test_put_resolves_each_path_in_constant_steps(arith_expr, monkeypatch):
    # Trie nodes created plus source-path entries resolved in one put: each
    # path is one step from its nearest resolved ancestor, never a walk from
    # the root, so the count is exactly linear in the number of terms.
    from treelens import engine, trees

    def forbidden(*args):
        raise AssertionError("put walked a path from the root")

    monkeypatch.setattr(trees, "sel", forbidden)
    assert not hasattr(engine, "sel")
    made = _counting(monkeypatch, engine, "_Index")
    resolved = _counting(monkeypatch, engine, "_source_child")
    counts = {}
    for n in (25, 50, 100):
        s = _left_deep_sum(n)
        v, ls = arith_expr.get(s)
        for call in (arith_expr.put, arith_expr.check):
            made.clear()
            resolved.clear()
            assert call(s, v, ls) in (s, True)
            steps = len(made) + len(resolved)
            assert counts.setdefault(n, steps) == steps
            # One step per retained source path; the root's is resolved already.
            assert len(resolved) == len(ls) - 1
    a, b, c = (counts[n] for n in (25, 50, 100))
    assert c - b == 2 * (b - a)
