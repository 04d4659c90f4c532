import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subtrees
from oracles import (
    MatchFailure,
    UnboundVariable,
    WildcardPresent,
    decompose,
    fill_wildcards,
    links_valid,
    reconstruct,
    region_contains,
    tree_size,
)
from treelens import (
    IntLeaf,
    Link,
    Node,
    Region,
    StrLeaf,
    Var,
    WILDCARD,
    erase_vars,
    is_match,
    link_compose,
    link_converse,
    parse_pattern,
    parse_tree,
    render_pattern,
    sel,
)
from treelens.trees import PathOutOfRange


def test_sel_annotation_path(demo_cst):
    assert sel(demo_cst, (2, 0)) == StrLeaf("a neg")


def test_sel_empty_path_is_root(demo_cst):
    assert sel(demo_cst, ()) is demo_cst


def test_sel_out_of_range():
    with pytest.raises(PathOutOfRange):
        sel(parse_tree('Lit "x" 1'), (5,))


def test_sel_into_leaf():
    with pytest.raises(PathOutOfRange):
        sel(IntLeaf(3), (0,))


@pytest.mark.parametrize(
    "pat,tree,expected",
    [
        ('Neg "a neg" _', 'Neg "a neg" (Lit "" 1)', True),
        ("_", 'Plus "" (FromT "" (Lit "" 0)) (Lit "" 0)', True),
        ("Num 0", "Num 1", False),
        ("Num 0", "Num 0", True),
        ("Add x y", "Sub (Num 1) (Num 2)", False),
    ],
)
def test_is_match(pat, tree, expected):
    assert is_match(parse_pattern(pat), parse_tree(tree)) is expected


def test_decompose_neg_rule():
    b = decompose(parse_pattern("Neg _ r"), parse_tree('Neg "a" (Lit "" 7)'))
    assert b == {"r": parse_tree('Lit "" 7')}


def test_decompose_no_vars():
    assert decompose(parse_pattern("Tip"), parse_tree("Tip")) == {}


def test_decompose_mismatch():
    with pytest.raises(MatchFailure):
        decompose(parse_pattern("Num i"), parse_tree("Sub (Num 0) (Num 1)"))


def test_reconstruct_add():
    t = reconstruct(
        parse_pattern("Add x y"), {"x": parse_tree("Num 1"), "y": parse_tree("Num 2")}
    )
    assert t == parse_tree("Add (Num 1) (Num 2)")


def test_reconstruct_ground():
    assert reconstruct(parse_pattern("Num 0"), {}) == parse_tree("Num 0")


def test_reconstruct_errors():
    with pytest.raises(WildcardPresent):
        reconstruct(parse_pattern("Plus _ x y"), {"x": IntLeaf(1), "y": IntLeaf(2)})
    with pytest.raises(UnboundVariable):
        reconstruct(parse_pattern("Add x y"), {"x": parse_tree("Num 1")})


def test_fill_wildcards():
    p = fill_wildcards(parse_pattern("Neg _ r"), parse_tree('Neg "a neg" (Lit "" 1)'))
    assert p == parse_pattern('Neg "a neg" r')


def test_fill_wildcards_identity_without_wildcards():
    p = parse_pattern("Add x y")
    assert fill_wildcards(p, parse_tree("Add (Num 1) (Num 2)")) == p


def test_fill_wildcards_mismatch():
    with pytest.raises(MatchFailure):
        fill_wildcards(parse_pattern("Num 0"), parse_tree("Num 1"))


@pytest.mark.parametrize(
    "pat,expected",
    [
        ('Neg "a neg" r', 'Neg "a neg" _'),
        ("t", "_"),
        ("Add x y", "Add _ _"),
    ],
)
def test_erase_vars(pat, expected):
    assert erase_vars(parse_pattern(pat)) == parse_pattern(expected)


def test_region_contains(demo_cst):
    region = Region(parse_pattern('Neg "a neg" _'), (2,))
    assert region_contains(demo_cst, {region})
    assert region_contains(demo_cst, set())
    assert not region_contains(parse_tree("Num 1"), {Region(parse_pattern("Num 0"), ())})
    assert not region_contains(parse_tree("Num 1"), {Region(WILDCARD, (4,))})


def test_links_valid(demo_cst, arith_expr):
    view, _ = arith_expr.get(demo_cst)
    link = Link(
        Region(parse_pattern('Neg "a neg" _'), (2,)),
        Region(parse_pattern("Sub (Num 0) _"), (1,)),
    )
    assert links_valid(demo_cst, view, {link})
    assert links_valid(demo_cst, view, set())
    bad = Link(Region(parse_pattern("Num 0"), ()), Region(parse_pattern("Num 1"), ()))
    assert not links_valid(parse_tree("Num 1"), parse_tree("Num 1"), {bad})


def _link(sp, spath, vp, vpath):
    return Link(Region(parse_pattern(sp), spath), Region(parse_pattern(vp), vpath))


def test_link_compose_matching_middle():
    ab = {_link("P", (0,), "Q", ())}
    bc = {_link("Q", (), "R", (1,))}
    assert link_compose(ab, bc) == {_link("P", (0,), "R", (1,))}


def test_link_compose_empty():
    assert link_compose({_link("P", (), "Q", ())}, set()) == frozenset()


def test_link_compose_mismatched_middles():
    ab = {_link("P", (), "Q (R 0) _", ())}
    bc = {_link("Q _ _", (), "S", ())}
    assert link_compose(ab, bc) == frozenset()


def test_link_converse_involution():
    ls = frozenset({_link("P", (0,), "Q", (1,)), _link("R", (), "S", ())})
    assert link_converse(link_converse(ls)) == ls


# ---------------------------------------------------------------------------
# Properties over generated trees and derived patterns

_ARITH_DECL = """
type Annot = String
data Expr = Plus Annot Expr Term | Minus Annot Expr Term | FromT Annot Term
data Term = Lit Annot Int | Neg Annot Term | Paren Annot Expr
data Arith = Add Arith Arith | Sub Arith Arith | Num Int

Expr <---> Arith
  Plus _ x y ~ Add x y
  Minus _ x y ~ Sub x y
  FromT _ t ~ t

Term <---> Arith
  Lit _ i ~ Num i
  Neg _ r ~ Sub (Num 0) r
  Paren _ e ~ e
"""


def _random_tree(seed):
    from treelens import load_program
    from treelens.harness import gen_tree

    vp = load_program(_ARITH_DECL)
    return gen_tree(vp.schema, "Expr", 25, seed)


def _derive_pattern(t, rng, depth=0):
    """Random pattern guaranteed to match ``t``; variables stay linear."""
    roll = rng.random()
    if depth > 0 and roll < 0.2:
        return WILDCARD, 0
    if depth > 0 and roll < 0.35:
        name = f"v{rng.randrange(10**6)}"
        return Var(name), 1
    if isinstance(t, Node) and t.children:
        args = []
        nvars = 0
        for c in t.children:
            a, n = _derive_pattern(c, rng, depth + 1)
            args.append(a)
            nvars += n
        return Node(t.ctor, tuple(args)), nvars
    return t, 0


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**40))
def test_reconstruct_after_fill_and_decompose_is_identity(seed):
    import random

    t = _random_tree(seed)
    p, _ = _derive_pattern(t, random.Random(seed ^ 0xA5))
    assert is_match(p, t)
    filled = fill_wildcards(p, t)
    assert reconstruct(filled, decompose(p, t)) == t
    assert is_match(erase_vars(filled), t)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**40))
def test_decompose_after_reconstruct_is_identity(seed):
    import random

    t = _random_tree(seed)
    rng = random.Random(seed ^ 0x5A)
    p, _ = _derive_pattern(t, rng)
    filled = fill_wildcards(p, t)  # wildcard-free, same variables
    b = decompose(p, t)
    assert decompose(filled, reconstruct(filled, b)) == b


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**40))
def test_sel_concatenation(seed):
    import random

    t = _random_tree(seed)
    rng = random.Random(seed)
    paths = [p for p, _ in subtrees(t)]
    full = paths[rng.randrange(len(paths))]
    cut = rng.randint(0, len(full))
    assert sel(t, full) == sel(sel(t, full[:cut]), full[cut:])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**40))
def test_link_compose_associative(seed):
    import random

    rng = random.Random(seed)
    pats = ["P", "Q", "R", "Num 0", "Add _ _"]

    def rand_links(n):
        return frozenset(
            _link(
                rng.choice(pats),
                (rng.randrange(2),),
                rng.choice(pats),
                (rng.randrange(2),),
            )
            for _ in range(n)
        )

    a, b, c = rand_links(4), rand_links(4), rand_links(4)
    assert link_compose(link_compose(a, b), c) == link_compose(a, link_compose(b, c))


def test_tree_size_counts_leaves(demo_cst):
    assert tree_size(parse_tree('Lit "x" 1')) == 3
    assert tree_size(demo_cst) == 17


@pytest.mark.parametrize("indices", [(0, 1, 2), (0, 1, 255, 256, 300), (-1, 0, 1)])
def test_canonical_links_match_the_full_key_sort(indices):
    # Paths, not pattern keys, decide the order unless two links tie on both
    # paths; indices that do not fit in a byte take the tuple comparison.
    import random

    from treelens import canonical_links
    from treelens.trees import pattern_key

    pats = [parse_pattern(p) for p in ("A", "B _", "B (C 1)", '"s"', "_")]
    rng = random.Random(len(indices))
    for _ in range(40):
        paths = [tuple(rng.choice(indices) for _ in range(rng.randrange(4))) for _ in range(6)]
        ls = {
            Link(Region(rng.choice(pats), rng.choice(paths)), Region(rng.choice(pats), rng.choice(paths)))
            for _ in range(30)
        }
        reference = sorted(
            ls,
            key=lambda l: (
                l.source.path,
                l.view.path,
                pattern_key(l.source.pattern),
                pattern_key(l.view.pattern),
            ),
        )
        assert canonical_links(ls) == reference


# Terms are tuples (see the ``trees`` module docstring); these pin what the
# rest of the package relies on that a plain tuple would not give.
_TERMS = [
    Node("X"),
    Node("X", (StrLeaf("x"),)),
    IntLeaf(0),
    IntLeaf(1),
    StrLeaf("x"),
    StrLeaf(""),
    StrLeaf("X"),  # the first field of Node("X")
    Var("x"),
    WILDCARD,
    Region(Node("X"), ()),
    Region(StrLeaf("x"), (0,)),
    Link(Region(Node("X"), ()), Region(Node("X"), ())),
]


def test_terms_of_different_kinds_never_compare_equal():
    for a in _TERMS:
        for b in _TERMS:
            if type(a) is not type(b):
                assert a != b and not a == b, (a, b)


def _rebuilt(t):
    """An equal copy of ``t`` that shares no term with it."""
    if isinstance(t, Link):
        return Link(_rebuilt(t.source), _rebuilt(t.view))
    if isinstance(t, Region):
        return Region(_rebuilt(t.pattern), tuple(list(t.path)))
    return parse_pattern(render_pattern(t))


def test_equal_terms_hash_equal():
    for a in _TERMS:
        b = _rebuilt(a)
        assert a == b and hash(a) == hash(b), a


def test_a_region_hashes_by_its_path_only():
    assert hash(Region(Node("A"), (1, 2))) == hash(Region(StrLeaf("b"), (1, 2))) == hash((1, 2))
    assert Region(Node("A"), (1, 2)) != Region(StrLeaf("b"), (1, 2))


@pytest.mark.parametrize(
    "term,field",
    [(Node("A"), "ctor"), (IntLeaf(1), "value"), (StrLeaf("s"), "value"), (Var("x"), "name"),
     (Region(Node("A"), ()), "path"), (Link(Region(Node("A"), ()), Region(Node("A"), ())), "view")],
)
def test_assigning_a_term_field_raises(term, field):
    with pytest.raises(AttributeError):
        setattr(term, field, None)


def test_term_reprs_name_their_fields():
    assert repr(Node("A")) == "Node(ctor='A', children=())"
    assert repr(Node("A", (IntLeaf(1), StrLeaf("s")))) == (
        "Node(ctor='A', children=(IntLeaf(value=1), StrLeaf(value='s')))"
    )
    assert repr(Region(WILDCARD, (0,))) == "Region(pattern=Wildcard(), path=(0,))"


def test_every_term_is_truthy():
    assert all(bool(t) for t in _TERMS)
