"""Cross-cutting law runs over every shipped program and stress variants."""

import random

import pytest

from conftest import EXAMPLES, defaulted, example_text
from oracles import reconstruct
from treelens import (
    check_tree_type,
    fst_projection,
    lens,
    load_program,
    parse_links,
    parse_tree,
    render_pattern,
    verify_laws,
)
from treelens.edits import Copy, EditContext, EditState, apply_script
from treelens.engine import IllTypedInput, InvalidLinks
from treelens.harness import gen_tree

RELATIONS = [
    ("arith.lens", "Expr", "Arith"),
    ("arith.lens", "Term", "Arith"),
    ("brac_paren.lens", "Term", "Arith"),
    ("sugarlang.lens", "SProg", "AProg"),
    ("addrbook.lens", "AddrBook", "SocialBook"),
    ("mirror.lens", "BinT Int", "BinT Int"),
    ("natbool.lens", "Nat", "Bool"),
    ("natbool.lens", "BinT Nat", "BinT Bool"),
    ("rosetree.lens", "RTree Int", "List Int"),
    ("compose_chain.lens", "Arith", "NArith"),
    ("sugar_chain.lens", "P", "V"),
]


@pytest.mark.parametrize("name,sty,vty", RELATIONS)
def test_laws_hold_for_every_shipped_relation(name, sty, vty):
    vp = load_program(example_text(name), name)
    h = lens(vp, sty, vty)
    summary = verify_laws(h, 150, size_bound=30, script_len=4, seed=13)
    assert summary.ok, summary.to_text()


def test_put_iff_check_on_random_link_subsets(arith, arith_expr):
    # Dropping arbitrary links must never break the agreement between check
    # and put, and the laws must hold whenever check accepts.
    for seed in range(150):
        rng = random.Random(seed)
        s = gen_tree(arith.schema, "Expr", 30, seed)
        v, ls = arith_expr.get(s)
        subset = frozenset(l for l in ls if rng.random() < 0.6)
        accepted = arith_expr.check(s, v, subset)
        try:
            s2 = arith_expr.put(s, v, subset)
            assert accepted
            v2, ls2 = arith_expr.get(s2)
            assert v2 == v
            assert fst_projection(subset) <= fst_projection(ls2)
        except InvalidLinks:
            assert not accepted


THREE_CHAIN = """data A = MkA Int | WrapB B
data B = MkB Int | WrapC C
data C = MkC Int | WrapA A
data V = MkV Int
data Root = MkRoot A B C
data RootV = MkRootV V V V

A <---> V
  MkA i ~ MkV i
  WrapB b ~ b

B <---> V
  MkB i ~ MkV i
  WrapC c ~ c

C <---> V
  MkC i ~ MkV i
  WrapA a ~ a

Root <---> RootV
  MkRoot a b c ~ MkRootV a b c
"""


def test_three_step_conversion_chain_synthesis():
    vp = load_program(THREE_CHAIN)
    # A reaches B in one wrapper, but B reaches A only around the cycle.
    one = vp.inj_table[("B", "A", "V")]
    assert len(one) == 1
    two = vp.inj_table[("A", "B", "V")]
    assert len(two) == 2
    x = parse_tree("MkA 5")
    for r in two:
        x = r.build_source([*r.defaults, x])
    assert x == parse_tree("WrapC (WrapA (MkA 5))")


def _chains():
    programs = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(EXAMPLES.glob("*.lens"))]
    for name, text in programs + [("THREE_CHAIN", THREE_CHAIN)]:
        vp = load_program(text, name)
        for key in vp.inj_table:
            yield pytest.param(vp, key, id=f"{name}:{key[0]}>{key[1]}@{key[2]}")


@pytest.mark.parametrize("vp,key", list(_chains()))
def test_every_conversion_chain_matches_its_reference(vp, key):
    # Each rule of the chain, applied through its compiled builder, against
    # ``reconstruct`` of its source pattern with every wildcard defaulted.
    frm, to, vty = key
    chain = vp.inj_table[key]
    owner = {r: rel for rel in vp.relations for r in rel.rules}
    assert chain and chain[0].variables[0].source_type == frm
    assert owner[chain[-1]].source_type == to
    for inner, outer in zip(chain, chain[1:]):
        assert outer.variables[0].source_type == owner[inner].source_type
    cores = [defaulted(vp.schema, owner[r].source_type, r.source) for r in chain]
    for seed in range(30):
        t = gen_tree(vp.schema, frm, 25, seed)
        out = ref = t
        for r, core in zip(chain, cores):
            out = r.build_source([*r.defaults, out])
            ref = reconstruct(core, {r.variables[0].name: ref})
        assert out == ref, render_pattern(t)
        check_tree_type(vp.schema, to, out)
        assert lens(vp, to, vty).get(out)[0] == lens(vp, frm, vty).get(t)[0]


def test_multi_step_conversion_through_put():
    vp = load_program(THREE_CHAIN)
    h = lens(vp, "Root", "RootV")
    s = parse_tree("MkRoot (WrapB (MkB 5)) (MkB 6) (MkC 7)")
    v, ls = h.get(s)
    # Copy the first slot's view over the second: the retained A-typed region
    # must be wrapped twice to live in the B-typed slot.
    st = apply_script(
        EditState(v, ls), [Copy((0,), (1,))], EditContext(vp.schema, "RootV")
    )
    s2 = h.put(s, st.view, st.links)
    assert s2 == parse_tree(
        "MkRoot (WrapB (MkB 5)) (WrapC (WrapA (WrapB (MkB 5)))) (MkC 7)"
    )
    v2, ls2 = h.get(s2)
    assert v2 == st.view
    assert fst_projection(st.links) <= fst_projection(ls2)


def test_three_chain_laws():
    vp = load_program(THREE_CHAIN)
    summary = verify_laws(lens(vp, "Root", "RootV"), 150, size_bound=25, script_len=4, seed=5)
    assert summary.ok, summary.to_text()


def test_whole_subtree_regions_natbool():
    # A rule with wildcards and no variables turns the entire matched source
    # into one region; retention must reproduce it bit for bit.
    vp = load_program(example_text("natbool.lens"))
    h = lens(vp, "BinT Nat", "BinT Bool")
    s = parse_tree("Node (Succ (Succ (Succ Zero))) Tip (Node Zero Tip Tip)")
    v, ls = h.get(s)
    assert v == parse_tree("Node True Tip (Node False Tip Tip)")
    from treelens.edits import swap

    st = swap(EditState(v, ls), (1,), (2,))
    s2 = h.put(s, st.view, st.links)
    # the three-deep Succ tower travels with its link
    assert s2 == parse_tree("Node (Succ (Succ (Succ Zero))) (Node Zero Tip Tip) Tip")


def test_rosetree_uncovered_view_rejected_cleanly():
    vp = load_program(example_text("rosetree.lens"))
    h = lens(vp, "RTree Int", "List Int")
    s = parse_tree("RNode 1 (Cons (RNode 2 Nil) Nil)")
    v, ls = h.get(s)
    assert v == parse_tree("Cons 1 (Cons 2 Nil)")
    # no rose tree presents an empty list: check refuses, put raises
    empty = parse_tree("Nil")
    assert not h.check(s, empty, frozenset())
    with pytest.raises(InvalidLinks):
        h.put(s, empty, frozenset())


TWO_LISTS = """data List a = Nil | Cons a (List a)
data A = MkA Int
data B = MkB Int
data V = MkV Int

A <---> V
  MkA i ~ MkV i

B <---> V
  MkB i ~ MkV i

List A <---> List V
  Nil ~ Nil
  Cons x xs ~ Cons x xs

List B <---> List V
  Nil ~ Nil
  Cons y ys ~ Cons y ys
"""


def test_shape_identical_relations_at_one_view_type():
    # Two monomorphized list instances relate to the same view list with
    # identical rule shapes; the current relation's rules must win the
    # generating-rule lookup or get's own links would look ambiguous.
    vp = load_program(TWO_LISTS)
    ha = lens(vp, "List A", "List V")
    s = parse_tree("Cons (MkA 1) (Cons (MkA 2) Nil)")
    v, ls = ha.get(s)
    assert ha.check(s, v, ls)
    assert ha.put(s, v, ls) == s
    summary = verify_laws(ha, 100, size_bound=25, script_len=3, seed=21)
    assert summary.ok, summary.to_text()


def test_foreign_region_without_conversion_rejected():
    # A List A source holds no B region, so B-generated links can only reach
    # an A slot through a source that is not a List A: that is ill-typed.
    vp = load_program(TWO_LISTS)
    ha = lens(vp, "List A", "List V")
    hb = lens(vp, "List B", "List V")
    sb = parse_tree("Cons (MkB 7) Nil")
    vb, lsb = hb.get(sb)
    sa = parse_tree("Cons (MkA 7) Nil")
    f = ha.check_explain(sb, vb, lsb)
    assert f is not None and f.code == "E-ill-typed-source"
    with pytest.raises(IllTypedInput):
        ha.put(sb, vb, lsb)
    # with no links at all the same view rebuilds fine
    assert ha.put(sa, vb, frozenset()) == parse_tree("Cons (MkA 7) Nil")
    # In a well-typed source, a Person region linked into the Triple slot
    # under another Person has no conversion chain: rejected, not rebuilt.
    book = load_program(example_text("addrbook.lens"))
    h = lens(book, "List Person", "List Name")
    s = parse_tree('Cons (Person (Triple "a" "e" "t")) (Cons (Person (Triple "b" "f" "u")) Nil)')
    v, ls = h.get(s)
    ls |= parse_links("(Person _ @ [0]) <-> (_ @ [1,0])\n")
    f = h.check_explain(s, v, ls)
    assert f is not None and (f.code, f.view_path) == ("E-no-conversion", (1, 0))
    with pytest.raises(InvalidLinks):
        h.put(s, v, ls)
